"""Domain errors. Each class names the violated invariant; the CLI maps any
of these to a nonzero exit code with the class name in the message."""


class SplineRegError(Exception):
    """Base class for every domain error raised by this package."""


class UsageError(SplineRegError):
    """A missing required flag, an unknown flag or subcommand, or a bad choice."""


class NegativeFlag(SplineRegError):
    """A command-line value that must be >= 0 (r, d, a, b or s) is negative."""


class FlagAboveCap(SplineRegError):
    """A command-line value (r, a, b, s or d) exceeds its cap and
    --unsafe-no-cap was not passed."""


class BadRange(SplineRegError):
    """A command-line range is not an integer or lo..hi, or lo..hi is empty."""


class NotAnInteger(SplineRegError):
    """A command-line value that must be an integer (r, d, a, b or s) is not one."""


class InvalidSlopeCount(SplineRegError):
    """Fewer distinct slopes than the construction needs (s >= 2, a/b >= 3)."""


class DuplicateSlope(SplineRegError):
    """A slope list passed to an oracle contains repeats."""


class StaircaseInvariant(SplineRegError):
    """A staircase closed form broke a lemma proved for it: i0 =
    floor((r+1)/s), the pruned In Q generator list against minimalize,
    l0 >= 1 or zeta0 in {1, 2} (hard failure)."""


class NotArtinian(SplineRegError):
    """Socle-degree regularity requested for a quotient of infinite length."""


class TrivialIdeal(SplineRegError):
    """The ideal is the unit ideal; the quotient module vanishes."""


class NonMonotone(SplineRegError):
    """Third-syzygy order property failed (input outside the expected family)."""


class SocleMismatch(SplineRegError):
    """Closed-form and socle-degree regularity routes disagree (hard failure)."""


class TwoChainRequired(SplineRegError):
    """Face extraction asked for on an ideal without the two-chain staircase shape."""


class ParseError(SplineRegError):
    """Malformed complex file."""


class DegenerateTriangle(SplineRegError):
    """A triangle has collinear vertices."""


class NotConnected(SplineRegError):
    """The complex is not connected."""


class NonzeroGenus(SplineRegError):
    """V - E + F != 1 over all simplices."""


class SlopeClashAssumption(SplineRegError):
    """A partially interior edge shares a slope with a totally interior edge
    at the same vertex, which the whole pipeline assumes never happens."""


class AlphaUndefined(SplineRegError):
    """alpha(v) requested at a vertex with no partially interior edges."""


class NotOneEdge(SplineRegError):
    """The complex does not have exactly one totally interior edge."""


class ExtraInteriorVertex(SplineRegError):
    """Interior vertices beyond the two endpoints of the totally interior edge."""


class CapExceeded(SplineRegError):
    """H0 still nonzero at the degree cap 4r+2; an assumption is violated."""


class HypothesisViolated(SplineRegError):
    """An interior vertex has no partially interior edge, so the path bounds
    do not apply."""


class RouteDisagreement(SplineRegError):
    """Independent regularity routes returned different answers, a value
    broke a bound proved for it, or two counts of one quantity disagree
    (hard failure)."""
