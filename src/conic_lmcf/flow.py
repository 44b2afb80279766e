"""Scalar-potential Lagrangian mean curvature flow on a flat torus.

The gradient graph ``Γ_{du} = {(x, du(x))} ⊂ T^m × R^m ≅ (ℂ*)ᵐ`` of a
potential ``u`` is Lagrangian; its Lagrangian angle per point is

    θ(u) = Σ_i arctan λ_i(Hess u),

and the potential form of the flow is ``∂_t u = θ(u)``.  Its linearization
at the flat zero section is the heat equation, which drives the
linearization-defect diagnostics.

Discretization: uniform periodic grid on [0, 2π)^m, centered second-order
differences for the Hessian, and explicit steps ``u + dt·θ(u)`` (heat flow:
``u + dt·Δu``).  Both are stable for ``dt ≤ dx²/(2m)``, since dθ = Δ at the
flat section; a larger ``dt`` raises
:class:`~conic_lmcf.errors.ValidationError`.  The stencil slices one
wrap-padded copy of ``u`` and the rest is elementwise, so a step commutes
with grid translations *bitwise* (an FFT would not: reductions reorder),
and translation equivariance is a contract here.  At m = 2 the angle is
atan2(tr H, 1 − det H), with no eigenvalues, and the stencil adds in pairs
that a reflection or axis swap permutes, so those maps and u ↦ −u commute
with the flow bitwise too.

The graph stays admissible while ``det(I + Hess u) > 0`` at every node;
the determinant dipping below 1e−6 (or going negative — the graph left the
orientation-preserving graphical regime) raises
:class:`~conic_lmcf.errors.GraphConditionError`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import _EXPORTS
from .errors import GraphConditionError, ValidationError, check_count, time_steps

__all__ = list(_EXPORTS["flow"])

DET_FLOOR = 1e-6


def _check_grid(m, n):
    """Refuse a grid without axes or points, or whose wrap-padded copy (``n + 2``
    points per axis) holds more than COUNT_LIMIT values.

    The limit caps ``m`` at 12, below numpy's dimension limits, and the
    Hessian field (``m²`` values per node) at about 11 M values.
    """
    if m < 1 or n < 1:
        raise ValidationError(f"the periodic grid needs m >= 1 axes of n >= 1 points, "
                              f"got m={m}, n={n}")
    try:
        padded = float(n + 2) ** m  # in floats, so that a huge m builds no huge integer
    except OverflowError:  # (n+2)^m, or n or m alone, is beyond the float range
        padded = math.inf
    check_count(padded, f"values of the wrap-padded (n+2)^m grid with n={n}, m={m}",
                "lower --m or --n")


def grid_coordinates(m, n):
    """Coordinate arrays of the uniform periodic grid on [0, 2π)^m."""
    _check_grid(m, n)
    x = 2.0 * np.pi * np.arange(n) / n
    return np.meshgrid(*([x] * m), indexing="ij")


def default_dt(m, n):
    """Default step: 0.9 times the explicit stability limit dx²/(2m)."""
    dx = 2.0 * np.pi / n
    return 0.9 * dx * dx / (2 * m)


def _second_differences(u, dx):
    """Centered second differences ``{(a, b): ∂_a∂_b u}``, ``a ≤ b``, sliced from
    one wrap-padded copy of ``u``, so they commute with grid shifts bitwise."""
    m, n = u.ndim, u.shape[0]
    p = u
    for axis in range(m):
        p = np.concatenate((p.take([-1], axis), p, p.take([0], axis)), axis=axis)
    e = np.eye(m, dtype=int)

    def at(offset):
        return p[tuple(slice(1 + o, n + 1 + o) for o in offset)]

    d = {}
    for a in range(m):
        d[a, a] = ((at(-e[a]) + at(e[a])) - 2.0 * u) / (dx * dx)
        for b in range(a + 1, m):
            d[a, b] = ((at(e[a] + e[b]) + at(-e[a] - e[b]))
                       - (at(e[a] - e[b]) + at(e[b] - e[a]))) / (4.0 * dx * dx)
    return d


def _laplacian(u, dx):
    return sum(h for (a, b), h in _second_differences(u, dx).items() if a == b)


def hessian_field(u, dx):
    """Centered-difference Hessian, shape ``u.shape + (m, m)``."""
    m = u.ndim
    H = np.empty(u.shape + (m, m))
    for (a, b), h in _second_differences(u, dx).items():
        H[..., a, b] = H[..., b, a] = h
    return H


def _angle_and_determinant(u, dx):
    """θ and det(I + Hess u) per node; at m = 2 from tr and det, as θ stays in (−π, π)."""
    if u.ndim != 2:
        lam = np.linalg.eigvalsh(hessian_field(u, dx))
        return np.arctan(lam).sum(axis=-1), np.prod(1.0 + lam, axis=-1)
    d = _second_differences(u, dx)
    tr = d[0, 0] + d[1, 1]
    det = d[0, 0] * d[1, 1] - d[0, 1] * d[0, 1]
    return np.arctan2(tr, 1.0 - det), (1.0 + tr) + det


def graph_determinant(u, dx):
    """``det(I + Hess u)`` per node (positive on admissible graphs)."""
    return _angle_and_determinant(u, dx)[1]


def lagrangian_angle(u, dx):
    """Per-node Lagrangian angle θ = Σ arctan λ_i(Hess u).

    Raises :class:`GraphConditionError`, counting the offending nodes, when
    the graph condition fails; otherwise θ ∈ (−mπ/2, mπ/2) by construction.
    """
    theta, det = _angle_and_determinant(u, dx)
    bad = det < DET_FLOOR
    if bad.any():
        raise GraphConditionError(
            f"graph condition violated in lagrangian_angle: det(I+Hess) < {DET_FLOOR} "
            f"at {np.count_nonzero(bad)} node(s), min det {det.min():.3e}")
    return theta


@dataclass
class FlowState:
    """Potential ``u`` on the periodic grid at time ``t``, with derived θ."""

    m: int
    n: int
    u: np.ndarray
    t: float
    theta: np.ndarray

    @classmethod
    def from_potential(cls, u):
        """The state of potential ``u`` at ``t = 0``."""
        u = np.asarray(u, dtype=float)
        m, n = u.ndim, u.shape[0]
        if u.shape != (n,) * m:
            raise ValidationError("potential must be a cubic periodic array")
        dx = 2.0 * np.pi / n
        return cls(m, n, u, 0.0, lagrangian_angle(u, dx))

    @property
    def dx(self):
        return 2.0 * np.pi / self.n


def _step_size(dt, m, n):
    """``dt`` (default: :func:`default_dt`) checked against dx²/(2m)."""
    if dt is None:
        return default_dt(m, n)
    dt = float(dt)
    dx = 2.0 * np.pi / n
    limit = dx * dx / (2 * m)
    if not 0.0 < dt <= limit:
        raise ValidationError(f"dt={dt:.6g} is outside the explicit scheme's stable range "
                              f"(0, dx^2/(2m)] = (0, {limit:.6g}] at m={m}, n={n}")
    return dt


def _schedule(T, dt, m, n):
    """:func:`~conic_lmcf.errors.time_steps` of ``T`` and the checked ``dt``."""
    _check_grid(m, n)
    return time_steps(float(T), _step_size(dt, m, n))


def flow_step(state, dt=None):
    """One explicit step ``u + dt·θ(u)`` of ``∂_t u = θ(u)``.

    ``dt`` must lie in (0, dx²/(2m)].  A graph-condition violation on the
    updated field rejects the step, and the message suggests ``dt/2``.
    """
    dt = _step_size(dt, state.m, state.n)
    u_new = state.u + dt * state.theta
    try:
        theta_new = lagrangian_angle(u_new, state.dx)
    except GraphConditionError as exc:
        raise GraphConditionError(
            f"step rejected at t={state.t:.6g}: {exc}; retry with dt={dt / 2:.3e}") from exc
    return FlowState(state.m, state.n, u_new, state.t + dt, theta_new)


def _snapshot_steps(count, n_steps):
    """``min(count, n_steps + 1)`` evenly spaced step indices from 0 to ``n_steps``."""
    if count < 0:
        raise ValidationError(f"--snapshots must be >= 0, got {count}")
    return np.linspace(0, n_steps, min(count, n_steps + 1)).round().astype(int).tolist()


def run_flow(u0, T, dt=None, snapshots=0):
    """Integrate the nonlinear flow to time ``T``; returns (state, series, states).

    ``series`` carries the per-step sup|θ| and amplitude histories.  ``dt``
    is lowered, never raised, to divide ``T`` exactly.  ``states`` holds the
    states at ``min(snapshots, n_steps + 1)`` evenly spaced steps from the
    first to the last (none by default; the first alone for 1; every state
    when ``snapshots`` exceeds the step count), and no other state is kept.
    """
    u0 = np.asarray(u0, dtype=float)
    # reject a bad T, dt or snapshot count (exit 2) before the initial angle
    # can fail (exit 1)
    n_steps, dt = _schedule(T, dt, u0.ndim, u0.shape[0])
    keep = set(_snapshot_steps(snapshots, n_steps))
    state = FlowState.from_potential(u0)
    series, kept = {"t": [], "sup_theta": [], "amplitude": []}, []
    for k in range(n_steps + 1):
        if k:
            state = flow_step(state, dt)
        series["t"].append(state.t)
        series["sup_theta"].append(float(np.abs(state.theta).max()))
        series["amplitude"].append(float(np.abs(state.u).max()))
        if k in keep:
            kept.append(state)
    return state, series, kept


# --- linearization defect -------------------------------------------------------


@dataclass
class DefectReport:
    """Nonlinear-vs-heat defects across amplitudes.

    ``defects`` are the raw sup-norm differences at time T; since the
    flat-model remainder θ(u) − Δu is *odd* (cubic) in the amplitude, the
    raw ratios sit near 1/8.  ``defects_per_amplitude`` divides by ε — the
    defect of the unit-profile flow — whose successive ratios land at the
    quadratic-smallness value 1/4.
    """

    epsilons: list
    defects: list
    defects_per_amplitude: list
    ratios: list
    ratios_per_amplitude: list


# the defect of an amplitude whose true defect is below the rounding, in units of
# 2⁻⁵²·ε·max|u0|: at most 2.55 over 780 runs (m = 1–3, n = 12–128, T = 0.01–1, the five
# catalog profiles scaled by 1e-3, 1 and 1e3, ε = 1e-20–1e-10; median 0.73), while the
# default ladder ε = 0.1, 0.05, 0.025 on the catalog profiles gives at least 8e7
_ROUNDOFF_UNITS = 64.0


def linearization_defect(u0, epsilons, T, dt=None):
    """Compare the nonlinear flow of ε·u0 with the heat flow of ε·u0.

    ``u0`` is the unit-amplitude profile (array); ``epsilons`` must be
    positive and decreasing.  Returns a :class:`DefectReport`; the
    per-amplitude ratios satisfy the quadratic-smallness contract
    ``d(ε/2)/d(ε) ∈ [0.2, 0.3]``.  A nonzero profile whose defect at some ε
    is within the round-off floor ``64·2⁻⁵²·ε·max|u0|`` raises
    :class:`ValidationError` naming ``--eps``: its ratios would measure the
    rounding, not the flow.
    """
    u0 = np.asarray(u0, dtype=float)
    eps = [float(e) for e in epsilons]
    if not eps or any(e <= 0 for e in eps) or any(
        b >= a for a, b in zip(eps, eps[1:])
    ):
        raise ValidationError(f"--eps must be positive and decreasing, got {eps}")
    finals = [run_flow(e * u0, T, dt)[0] for e in eps]
    # the heat flow is linear: run it once on the unit profile, scale by ε
    n_steps, step = _schedule(T, dt, finals[0].m, finals[0].n)
    lin = u0
    for _ in range(n_steps):
        lin = lin + step * _laplacian(lin, finals[0].dx)
    defects = [float(np.abs(nl.u - e * lin).max()) for nl, e in zip(finals, eps)]
    peak = float(np.abs(u0).max())
    for e, d in zip(eps, defects):
        floor = _ROUNDOFF_UNITS * 2.0**-52 * e * peak
        if peak > 0 and d <= floor:
            raise ValidationError(f"--eps {e:g} gives a defect of {d:.3e}, within the round-off "
                                  f"floor {floor:.3e} (64·2⁻⁵²·ε·max|u0|), so its ratios would "
                                  f"measure rounding; raise --eps")
    per_amp = [d / e for d, e in zip(defects, eps)]
    ratios = [b / a if a > 0 else math.nan for a, b in zip(defects, defects[1:])]
    ratios_pa = [b / a if a > 0 else math.nan
                 for a, b in zip(per_amp, per_amp[1:])]
    return DefectReport(eps, defects, per_amp, ratios, ratios_pa)


# --- initial-condition catalog ----------------------------------------------------


def _trig_profile(two_axes, one_axis):
    """The potential ``two_axes(x1, x2)`` of grid coordinates ``xs``; ``one_axis(x1)`` at m = 1."""
    return lambda xs: two_axes(xs[0], xs[1]) if len(xs) > 1 else one_axis(xs[0])


#: name -> the small-amplitude trig potential it names, as a function of the grid coordinates
INITIAL_CONDITIONS = {
    "sine": lambda xs: 0.10 * np.sin(xs[0]),
    "diag": _trig_profile(lambda x1, x2: 0.10 * np.cos(x1 + x2),
                          lambda x1: 0.10 * np.cos(2 * x1)),
    "mixed": _trig_profile(lambda x1, x2: 0.05 * (np.sin(x1) + np.cos(2 * x2)),
                           lambda x1: 0.05 * (np.sin(x1) + np.cos(2 * x1))),
    "product": _trig_profile(lambda x1, x2: 0.10 * np.sin(x1) * np.cos(x2),
                             lambda x1: 0.08 * np.sin(3 * x1)),
    "ripple": _trig_profile(lambda x1, x2: 0.08 * np.sin(2 * x1) * np.cos(x2) + 0.02 * np.cos(x1),
                            lambda x1: 0.06 * np.sin(2 * x1) + 0.02 * np.cos(x1)),
}


def catalog_initial_conditions(m, n):
    """The five named potentials of :data:`INITIAL_CONDITIONS` on the ``n^m`` grid."""
    xs = grid_coordinates(m, n)
    return {name: profile(xs) for name, profile in INITIAL_CONDITIONS.items()}
