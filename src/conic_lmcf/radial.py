"""Implicit radial solver for Laplace-type heat flow on a model cone.

Separating a Laplace-type operator over link eigenmodes reduces the Cauchy
problem on ``Σ × (0, R)`` to one stiff radial PDE per mode λ:

    ∂_t u = L u + f,   L u = u″ + (m−1) r⁻¹ u′ − λ r⁻² u + X_r u′ + b u,

with ``u(0, ·) = 0``.  The discretization:

* graded nodes ``r_j = R (j/n)^q`` concentrating resolution near the tip,
* second-order 3-point stencils on the nonuniform grid,
* inner boundary: a one-sided extrapolation row enforcing the admissible
  growth ``u ~ c·r^{α₊(λ)}`` (Dirichlet-zero available as a fallback flag),
* outer boundary: Dirichlet data,
* backward Euler in time (the r⁻² potential is stiff; damping beats
  second-order accuracy here).

``L`` is kept as its three bands, with no matrix object.  The inner row is
the only part of ``I − dt·L_λ`` outside them, and its right-hand side is
always zero, so the implicit step substitutes ``u_0 = w1·u_1 + w2·u_2`` into
row 1 and solves a tridiagonal system; ``u_0`` is rebuilt from the weights
afterwards.  The modes of one run share the grid, the time step and the
forcing, so :func:`solve_modes` stacks their bands with a zero coupling
between blocks, factors the stacked system once with LAPACK's ``dgttrf``, and
advances all modes together with one ``dgttrs`` solve per step.  Pivoting
cannot cross a zero sub-diagonal entry, so each mode gets the same bits as a
one-mode solve.

A forcing is evaluated once per step, unless it declares that it does not
depend on time: a callable with a ``reads`` attribute (the set of variable
names its value depends on, as the CLI's compiled ``--forcing`` expressions
and one-time-row ``--forcing-csv`` tables carry) that omits ``"t"`` is
evaluated and checked once per solve, and each step adds the same ``dt·f``.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np
from scipy.linalg.lapack import dgttrf, dgttrs
from scipy.sparse.linalg import splu  # noqa: F401  unused; clibench/tracer.py patches radial.splu

from .errors import NumericalError, ValidationError, check_count, time_steps
from .exponents import exponent_roots

__all__ = [
    "RadialGrid",
    "LaplaceTypeSpec",
    "ModeSolution",
    "radial_operator",
    "apply_radial_operator",
    "solve_mode",
    "solve_modes",
]


@dataclass(frozen=True)
class RadialGrid:
    """Graded radial grid ``r_j = R (j/n_cells)^q``, ``j = 1..n_cells``."""

    R: float
    n_cells: int = 400
    q: float = 2.0

    def __post_init__(self):
        if not (0 < self.R < math.inf and self.n_cells >= 8 and 1 <= self.q < math.inf):
            raise ValidationError(
                "need a finite radius R > 0, n_cells >= 8 and a finite q >= 1; "
                f"got R={self.R}, n_cells={self.n_cells}, q={self.q}")
        # the operator divides by the squared radii and by products of
        # neighbouring spacings, which lie between h_min² and 2·h_max²
        r0, r1 = (self.R * (j / self.n_cells) ** self.q for j in (1, 2))
        h_min, h_max = r1 - r0, self.R - self.R * (1.0 - 1.0 / self.n_cells) ** self.q
        scales = (r0 * r0, self.R * self.R, h_min * h_min, 2.0 * h_max * h_max)
        if not all(sys.float_info.min <= s < math.inf for s in scales):
            raise ValidationError(
                f"radius R={self.R:g} (n_cells={self.n_cells}, q={self.q:g}) puts the grid's "
                f"squared radii or stencil weights outside the float range; choose a "
                f"--radius nearer 1 or a smaller --q")

    @property
    def nodes(self):
        j = np.arange(1, self.n_cells + 1, dtype=float)
        return self.R * (j / self.n_cells) ** self.q

    @property
    def r_min(self):
        return self.R * (1.0 / self.n_cells) ** self.q


@dataclass(frozen=True)
class LaplaceTypeSpec:
    """One link mode of a Laplace-type operator.

    ``drift`` is the radial drift profile ``X_r(r)`` and ``zeroth`` the
    potential ``b(r)``; both default to the pure cone Laplacian.  The
    operator is Laplace type when they decay like ``O(r^{δ−1})`` and
    ``O(r^{δ−2})`` for some ``δ > 0``; that is the caller's to ensure.
    """

    lam: float
    m: int
    drift: object = None
    zeroth: object = None

    def __post_init__(self):
        if self.lam < 0:
            raise ValidationError("mode eigenvalue must be >= 0")
        if self.m < 2:
            raise ValidationError("cone dimension must be >= 2")

    def drift_values(self, r):
        return _profile_values(self.drift, r, "drift")

    def zeroth_values(self, r):
        return _profile_values(self.zeroth, r, "zeroth-order")


def _profile_values(profile, r, what):
    """``profile(r)`` as floats (zeros for ``None``); a non-finite value is refused."""
    if profile is None:
        return np.zeros_like(r)
    vals = np.asarray(profile(r), dtype=float)
    if not np.all(np.isfinite(vals)):
        raise ValidationError(f"{what} profile not finite on the grid")
    return vals


@dataclass
class ModeSolution:
    """Time series of one radial mode: ``values[i, j] ≈ u(times[i], r_j)``."""

    grid: RadialGrid
    times: np.ndarray
    values: np.ndarray
    lam: float

    def final(self):
        return self.values[-1]


# --- discrete operator --------------------------------------------------------


def _stencil(r):
    """Second-order first/second-derivative weights on a nonuniform grid.

    Returns ``(c1, c2)`` arrays of shape (n, 3) holding the weights on
    ``(u_{j−1}, u_j, u_{j+1})`` for interior nodes ``j = 1..n−2`` (end rows
    are zero; boundary conditions replace them).
    """
    n = len(r)
    c1 = np.zeros((n, 3))
    c2 = np.zeros((n, 3))
    hm = r[1:-1] - r[:-2]
    hp = r[2:] - r[1:-1]
    den = hm + hp
    c2[1:-1, 0] = 2.0 / (hm * den)
    c2[1:-1, 1] = -2.0 / (hm * hp)
    c2[1:-1, 2] = 2.0 / (hp * den)
    c1[1:-1, 0] = -hp / (hm * den)
    c1[1:-1, 1] = (hp - hm) / (hm * hp)
    c1[1:-1, 2] = hm / (hp * den)
    return c1, c2


def _inner_weights(r, alpha):
    """Weights (w1, w2) with ``u_0 = w1 u_1 + w2 u_2`` exact on r^α, r^{α+2}.

    The 2×2 system is solved in closed form with the powers taken as ratios
    ``(r_0/r_j)^α``, so a large α cannot underflow ``r_j^α`` to zero.
    """
    d = r[2] ** 2 - r[1] ** 2
    return np.array([(r[0] / r[1]) ** alpha * (r[2] ** 2 - r[0] ** 2) / d,
                     (r[0] / r[2]) ** alpha * (r[0] ** 2 - r[1] ** 2) / d])


def radial_operator(spec, grid, inner_bc="extrapolation"):
    """Assemble the discrete operator ``L`` on the grid as its three bands.

    Returns ``((lower, diag, upper), w)``: the sub-, main and super-
    diagonals of ``L``, whose interior rows discretize the mode operator and
    whose first/last rows are zero (boundary rows are imposed by the time
    stepper), and the inner-boundary weights ``w`` of ``u_0 = w1 u_1 + w2 u_2``.
    ``λ/r_min²``, the peak of the ``r⁻²`` potential, must be a float (else
    ValidationError).
    """
    # in Python floats, which overflow to inf without a numpy warning
    if not float(spec.lam) / float(grid.r_min) ** 2 < math.inf:
        raise ValidationError(f"mode eigenvalue λ={spec.lam:g} over the squared inner radius "
                              f"r_min²={grid.r_min ** 2:g} leaves the float range; lower "
                              f"--lam, or raise --radius or lower --n")
    r = grid.nodes
    c1, c2 = _stencil(r)
    coef1 = (spec.m - 1) / r + spec.drift_values(r)
    coef0 = -spec.lam / r ** 2 + spec.zeroth_values(r)

    # weights on (u_{j-1}, u_j, u_{j+1}); the end rows of c1 and c2 are zero
    rows = c2 + coef1[:, None] * c1
    rows[1:-1, 1] += coef0[1:-1]

    if inner_bc == "extrapolation":
        w = _inner_weights(r, exponent_roots(spec.lam, spec.m)[0])
    elif inner_bc == "dirichlet0":
        w = np.zeros(2)
    else:
        raise ValidationError(f"unknown inner boundary condition {inner_bc!r}")
    return (rows[1:, 0], rows[:, 1], rows[:-1, 2]), w


def apply_radial_operator(spec, grid, u):
    """Apply the interior stencil of ``L`` to a grid function.

    End values are returned as zero; use for truncation/stationarity tests.
    """
    (lower, diag, upper), _ = radial_operator(spec, grid)
    u = np.asarray(u, dtype=float)
    out = np.zeros_like(u)
    out[1:-1] = lower[:-1] * u[:-2] + diag[1:-1] * u[1:-1] + upper[1:] * u[2:]
    return out


# --- time stepping -------------------------------------------------------------


def _implicit_rows(spec, grid, dt, inner_bc):
    """Bands ``(lower, diag, upper)`` of ``I − dt·L`` with ``u_0`` eliminated.

    ``u_0 = w1·u_1 + w2·u_2`` is substituted into row 1, which leaves row 0 an
    identity row with zero couplings (the step overwrites its solution from
    the weights); the last row is the outer Dirichlet row.  The weights are
    returned as a fourth item.  ``dt·λ/r_min²`` and ``dt`` times each band
    entry must be floats, or the solve would turn an infinity into a silent
    zero or a zero pivot.
    """
    bands, w = radial_operator(spec, grid, inner_bc=inner_bc)
    # in Python floats, which overflow to inf without a numpy warning
    peak = max(float(np.abs(band).max()) for band in bands)
    if not float(dt) * max(peak, float(spec.lam) / float(grid.r_min) ** 2) < math.inf:
        raise ValidationError(f"dt={dt:g} times the radial operator of the λ={spec.lam:g} "
                              f"mode leaves the float range; lower --dt, or lower --lam, or "
                              f"raise --radius or lower --n")
    lower, diag, upper = (-dt * band for band in bands)
    diag += 1.0
    diag[1] += lower[0] * w[0]
    upper[1] += lower[0] * w[1]
    diag[0] = diag[-1] = 1.0
    lower[0] = lower[-1] = upper[0] = 0.0
    return lower, diag, upper, w


def solve_modes(specs, grid, T, dt, forcing=None, outer_bc=None, inner_bc="extrapolation",
                store_every=1):
    """Backward-Euler solve of ``∂_t u = L_λ u + f`` for several modes at once.

    All modes share the grid, the time step, the forcing ``f(t, r)`` (``None``
    means zero) and the outer Dirichlet data ``outer_bc(t)`` (default 0).
    Each step solves

        (I − dt·L_λ) u_λ^{n+1} = u_λ^n + dt·f(t^{n+1}, ·)

    with the extrapolation (or Dirichlet-zero) row ``u_0 = w1·u_1 + w2·u_2``
    at ``r_min`` and the Dirichlet row at ``R``.  The inner row is eliminated
    into row 1, which makes each mode's matrix tridiagonal; the modes' bands
    are concatenated with a zero coupling between blocks, factored once with
    ``dgttrf``, and every step solves all modes with one ``dgttrs`` call and
    rebuilds ``u_0`` from the weights.  Pivoting does not cross the zero
    couplings, so each mode gets the bits a one-mode solve would give.  The
    inner exponent of each mode is α₊(λ); ``λ/r_min²`` and the entries of
    ``dt·L_λ`` must be floats, or :class:`ValidationError` is raised.

    The forcing is evaluated at every step's time.  A forcing with a
    ``reads`` attribute, the set of variable names (``"t"``, ``"r"``) its
    value depends on, that omits ``"t"`` is evaluated once, at step 1's
    time, after the factorisation; every step then adds the same ``dt·f``,
    with the bits a per-step evaluation would give.  A forcing that raises
    or returns a non-finite value raises :class:`NumericalError` naming the
    step (step 1 for a forcing without ``t``), as does an overflowing ``dt·f``.

    The steps are the fewest equal ones of size ``T/n ≤ dt``
    (:func:`~conic_lmcf.errors.time_steps`), and the last ends at ``T``.
    Solutions are recorded every ``store_every`` steps (``store_every=0``
    keeps only the initial and final states).  More than
    :data:`~conic_lmcf.errors.COUNT_LIMIT` steps, or stored values (frames ×
    modes × nodes), are refused before the factorisation.  Returns one
    :class:`ModeSolution` per spec.
    """
    if not (0 < dt < math.inf and 0 < T < math.inf and store_every >= 0):
        raise ValidationError("need finite dt > 0 and T > 0, and store_every >= 0")
    specs = list(specs)
    n_steps, dt = time_steps(T, dt)
    stored = (n_steps // store_every + (n_steps % store_every > 0) if store_every else 1) + 1
    check_count(stored * len(specs) * grid.n_cells,
                f"stored values ({stored} frames of {len(specs)} modes on {grid.n_cells} nodes)",
                "raise --store-every (0 keeps the first and last frames), or lower --T or --n")
    r = grid.nodes
    n = len(r)
    lower, diag, upper, w = zip(*(_implicit_rows(spec, grid, dt, inner_bc) for spec in specs))
    w = np.array(w)
    # a zero between blocks: the last row of one mode and the first of the next do not couple
    lower, upper = (np.concatenate([np.append(band, 0.0) for band in bands])[:-1]
                    for bands in (lower, upper))
    lower, diag, upper, upper2, ipiv, info = dgttrf(lower, np.concatenate(diag), upper)
    if info > 0:
        mode, node = divmod(info - 1, n)
        raise NumericalError(f"implicit system is singular at step 0 "
                             f"(zero pivot at node {node} of the λ={specs[mode].lam:g} mode)")

    def dt_forcing(k, t):
        """``dt·f(t, ·)`` on the grid; a raise or a non-finite value names step ``k``."""
        try:
            fvals = np.broadcast_to(np.asarray(forcing(t, r), dtype=float), r.shape)
            if not np.isfinite(fvals).all():
                raise ValueError("a value is not finite")
        except (ArithmeticError, TypeError, ValueError) as exc:
            raise NumericalError(f"forcing invalid at step {k} (t={t:.6g}): {exc}") from exc
        # a finite f overflows dt·f only when dt > 1; Python floats do not warn
        if dt > 1.0 and not float(np.abs(fvals).max()) * float(dt) < math.inf:
            raise NumericalError(f"forcing times the time step leaves the float range at "
                                 f"step {k} (t={t:.6g}, dt={dt:g}); lower --dt")
        return dt * fvals

    # a forcing whose ``reads`` omits t is the same at every step: evaluate it at step 1 only
    reads = getattr(forcing, "reads", None)
    time_free = reads is not None and "t" not in reads
    if time_free:
        dtf = dt_forcing(1, dt)

    u = np.zeros((len(specs), n))
    times = [0.0]
    frames = [u]
    for k in range(1, n_steps + 1):
        t_new = k * dt if k < n_steps else T
        if forcing is None:
            rhs = u.copy()
        else:
            rhs = u + (dtf if time_free else dt_forcing(k, t_new))
        rhs[:, 0] = 0.0
        rhs[:, -1] = float(outer_bc(t_new)) if outer_bc is not None else 0.0
        u = dgttrs(lower, diag, upper, upper2, ipiv, rhs.ravel(), overwrite_b=True)[0]
        u = u.reshape(rhs.shape)
        u[:, 0] = w[:, 0] * u[:, 1] + w[:, 1] * u[:, 2]
        if not np.isfinite(u).all():
            raise NumericalError(f"linear solve failed at step {k} (t={t_new:.6g})")
        if (store_every and k % store_every == 0) or k == n_steps:
            times.append(t_new)
            frames.append(u)
    times = np.array(times)
    values = np.stack(frames, axis=1)
    return [ModeSolution(grid, times, v, spec.lam) for spec, v in zip(specs, values)]


def solve_mode(spec, grid, T, dt, forcing=None, outer_bc=None, inner_bc="extrapolation",
               store_every=1):
    """Backward-Euler solve of ``∂_t u = L u + f`` from ``u(0, ·) = 0``.

    The one-mode case of :func:`solve_modes`, which documents the arguments.
    """
    return solve_modes([spec], grid, T, dt, forcing=forcing, outer_bc=outer_bc,
                       inner_bc=inner_bc, store_every=store_every)[0]
