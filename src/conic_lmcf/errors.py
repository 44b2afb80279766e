"""Exception hierarchy shared across the toolkit.

Two failure families matter to callers (and to the CLI exit-code mapping):
``ValidationError`` for inputs that violate a documented precondition, and
``NumericalError`` for computations that start from valid inputs but fail
numerically.  :func:`check_count` holds the one limit on how much work a
single call may enumerate, and :func:`time_steps` the one rule that splits a
time interval into steps.
"""

import math
import sys

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

    Carries the offending node indices.
    """

    def __init__(self, message, nodes=None):
        super().__init__(message)
        self.nodes = nodes if nodes is not None else []


def check_count(count: float, what: str, fix: str) -> None:
    """Refuse, before any work, a call whose estimated ``count`` exceeds :data:`COUNT_LIMIT`.

    ``count`` may be ``inf``, ``nan`` or an integer beyond the float range
    (shown as ``inf``); all are refused.  The message says ``what`` is
    counted and ``fix``, the flags to change.
    """
    if not count <= COUNT_LIMIT:
        shown = math.inf if count > sys.float_info.max else count
        raise ValidationError(f"{what}: about {shown:.3g}, over the limit of "
                              f"{COUNT_LIMIT:,}; {fix}")


def time_steps(T: float, dt: float) -> tuple[int, float]:
    """``(n, T/n)``: the fewest equal steps reaching ``T`` whose size does not exceed ``dt``.

    ``T`` and ``dt`` are positive and finite.  More than :data:`COUNT_LIMIT`
    steps are refused, naming ``--T`` and ``--dt``.
    """
    check_count(T / dt, f"time steps of dt={dt:.6g} to reach T={T:g}", "lower --T or raise --dt")
    n = max(math.floor(T / dt), 1)
    while T / n > dt:
        n += 1
    return n, T / n
