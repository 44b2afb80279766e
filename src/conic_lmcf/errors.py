"""Exception hierarchy shared across the toolkit.

Two failure families matter to callers (and to the CLI exit-code mapping):
``ValidationError`` for inputs that violate a documented precondition, and
``NumericalError`` for computations that start from valid inputs but fail
numerically.  :func:`check_count` holds the one limit on how much work a
single call may enumerate.
"""

#: The most time steps, lattice points or eigenvalues one call may enumerate.
COUNT_LIMIT = 1_000_000


class ValidationError(ValueError):
    """An input violates a documented precondition."""


class WindowError(ValidationError):
    """An exponent table does not cover the requested weight window."""


class ExceptionalWeightError(ValidationError):
    """A weight sits (within tolerance) on an exceptional exponent."""

    def __init__(self, message, offending=None):
        super().__init__(message)
        self.offending = tuple(offending) if offending is not None else ()


class DegenerateDataError(ValidationError):
    """Rate fitting received degenerate (zero or too little) data."""


class NumericalError(RuntimeError):
    """A numerical computation failed (singular solve, NaN blow-up, ...)."""


class GraphConditionError(NumericalError):
    """The gradient graph left the locally-embedded regime.

    Carries the offending node indices and, when raised mid-step, a
    suggested smaller time step.
    """

    def __init__(self, message, nodes=None, suggested_dt=None):
        super().__init__(message)
        self.nodes = nodes if nodes is not None else []
        self.suggested_dt = suggested_dt


def check_count(count: float, what: str, fix: str) -> None:
    """Refuse, before any work, a call whose estimated ``count`` exceeds :data:`COUNT_LIMIT`.

    ``count`` may be ``inf`` or ``nan``; both are refused.  The message says
    ``what`` is counted and ``fix``, the flags to change.
    """
    if not count <= COUNT_LIMIT:
        raise ValidationError(f"{what}: about {count:.3g}, over the limit of "
                              f"{COUNT_LIMIT:,}; {fix}")
