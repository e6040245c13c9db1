"""Exception types shared across the package."""


class MultRegError(Exception):
    """Base class for all multreg errors."""


class ConfigError(MultRegError):
    """Experiment configuration could not be parsed or validated."""


class RearrangementUndefined(MultRegError):
    """Decreasing rearrangement does not exist (superlevel sets of infinite measure)."""


class RequiresFiniteMeasure(MultRegError):
    """Increasing rearrangement is only defined on spaces of finite total measure."""


class DominationNotDetected(MultRegError):
    """No monotone piece dominates the others within the probe window."""


class AxiomViolation(MultRegError):
    """A regularization family failed one of the axioms (I), (II), (III)."""

    def __init__(self, item: str, alpha: float, t: float, detail: str = ""):
        self.item = item
        self.alpha = alpha
        self.t = t
        msg = f"axiom ({item}) violated at alpha={alpha:.6g}, t={t:.6g}"
        if detail:
            msg += f": {detail}"
        super().__init__(msg)


class PreconditionFailed(MultRegError):
    """A named hypothesis of an operation does not hold for the given inputs."""


class CrossCheckFailed(MultRegError):
    """Two independent computations of the same quantity disagree."""


class NotInSourceSet(MultRegError):
    """The candidate solution is not in the requested source set."""

    def __init__(self, achieved_norm: float, bound: float = 1.0):
        self.achieved_norm = achieved_norm
        self.bound = bound
        super().__init__(
            f"source element norm {achieved_norm:.6g} exceeds bound {bound:.6g}"
        )


class UnboundedRatio(MultRegError):
    """The Sobolev equivalence ratio keeps growing under grid extension."""


class ZeroDirection(MultRegError):
    """Cannot normalize a zero direction."""


class BracketingFailed(MultRegError):
    """The target value lies outside the range of the monotone map on the
    bracket, or the bracket lies outside the index function's domain."""


class Divergent(MultRegError):
    """A variance-type integral diverges for the given filter and multiplier."""

    def __init__(self, message: str, diagnosis: dict | None = None):
        self.diagnosis = diagnosis or {}
        super().__init__(message)


class DivergentProfile(Divergent):
    """An operation depending on the variance integral hit a divergent problem."""


class FilterOverflow(MultRegError):
    """Filter values overflow double precision: alpha is below its resolution."""


class EigenvaluesNotDivergent(MultRegError):
    """Eigenvalue sequence must be nondecreasing and unbounded."""
