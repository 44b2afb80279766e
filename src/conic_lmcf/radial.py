"""Implicit radial solver for Laplace-type heat flow on a model cone.

Separating a Laplace-type operator over link eigenmodes reduces the Cauchy
problem on ``Σ × (0, R)`` to one stiff radial PDE per mode λ:

    ∂_t u = L u + f,   L u = u″ + (m−1) r⁻¹ u′ − λ r⁻² u + X_r u′ + b u,

with ``u(0, ·) = 0``.  The discretization:

* graded nodes ``r_j = R (j/n)^q`` concentrating resolution near the tip,
* second-order 3-point stencils on the nonuniform grid,
* inner boundary: a one-sided extrapolation row enforcing the admissible
  growth ``u ~ c·r^{α₊(λ)}``,
* outer boundary: Dirichlet data,
* backward Euler in time (the r⁻² potential is stiff; damping beats
  second-order accuracy here).

``L`` is kept as its interior rows, with no matrix object.  The implicit
system holds only the unknowns ``u_1 … u_{n−2}``: the inner row's
right-hand side is always zero, so ``u_0 = w1·u_1 + w2·u_2`` is substituted
into row 1, and the Dirichlet value ``g`` enters as ``outer·g`` on the last
unknown's right-hand side.  So each mode's system is tridiagonal, and
``u_0`` (from the weights) and ``u_{n−1} = g`` are written only into the
stored frames.  The modes of one run share the grid, the time step and the
forcing, so :func:`solve_modes` stacks their bands with a zero coupling
between blocks and factors the stacked system once.

The mode operator is self-adjoint in ``L²(r^{m−1} dr)``, and where every
sub·super product of ``I − dt·L_λ`` is positive (for instance m = 2 at
q ≤ 3, and m = 3 at q ≤ 2, the CLI's defaults) a diagonal scaling ``D``
makes each block symmetric.  Then LAPACK's ``dpttrf`` factors the scaled
system, the steps advance the scaled state ``D·u`` with one ``dpttrs``
solve each, and ``u`` is recovered only for the stored frames.  Any other
run (m = 4 at q = 2, m = 3 at q = 3, a scaling beyond the float range, or a
scaled matrix that is not positive definite) takes ``dgttrf`` and one
``dgttrs`` solve per step, with ``D = 1``.  Neither factor crosses a zero
coupling, so within one path each mode gets the same bits as a one-mode
solve.

A forcing is evaluated once per step, unless it declares that it does not
depend on time: a callable with a ``reads`` attribute (the set of variable
names its value depends on, as the CLI's compiled ``--forcing`` expressions
and one-time-row ``--forcing-csv`` tables carry) that omits ``"t"`` is
evaluated and checked once, at step 1, and each step adds the same scaled
``D·dt·f``.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np
from scipy.linalg.lapack import dgttrf, dgttrs, dpttrf, dpttrs
from scipy.sparse.linalg import splu  # noqa: F401  unused; clibench/tracer.py patches radial.splu

from . import _EXPORTS
from .errors import NumericalError, ValidationError, check_count, time_steps
from .exponents import exponent_roots

__all__ = list(_EXPORTS["radial"])


@dataclass(frozen=True)
class RadialGrid:
    """Graded radial grid ``r_j = R (j/n_cells)^q``, ``j = 1..n_cells``."""

    R: float
    n_cells: int = 400
    q: float = 2.0

    def __post_init__(self):
        for flag, value, ok, rule in (("--radius", self.R, 0 < self.R < math.inf, "finite and > 0"),
                                      ("--n", self.n_cells, self.n_cells >= 8, ">= 8"),
                                      ("--q", self.q, 1 <= self.q < math.inf, "finite and >= 1")):
            if not ok:
                raise ValidationError(f"{flag} must be {rule}, got {value}")
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
            raise ValidationError(f"mode eigenvalue --lam must be >= 0, got {self.lam:g}")
        if self.m < 2:
            raise ValidationError(f"cone dimension --m must be >= 2, got {self.m}")


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

    Returns ``(c1, c2)`` arrays of shape (n−2, 3): row ``j−1`` holds the
    weights of interior node ``j`` on ``(u_{j−1}, u_j, u_{j+1})``.
    """
    hm = r[1:-1] - r[:-2]
    hp = r[2:] - r[1:-1]
    den = hm + hp
    c1 = np.stack([-hp / (hm * den), (hp - hm) / (hm * hp), hm / (hp * den)], axis=1)
    c2 = np.stack([2.0 / (hm * den), -2.0 / (hm * hp), 2.0 / (hp * den)], axis=1)
    return c1, c2


def _inner_weights(r, alpha):
    """Weights (w1, w2) with ``u_0 = w1 u_1 + w2 u_2`` exact on r^α, r^{α+2}.

    The 2×2 system is solved in closed form with the powers taken as ratios
    ``(r_0/r_j)^α``, so a large α cannot underflow ``r_j^α`` to zero.
    """
    d = r[2] ** 2 - r[1] ** 2
    return np.array([(r[0] / r[1]) ** alpha * (r[2] ** 2 - r[0] ** 2) / d,
                     (r[0] / r[2]) ** alpha * (r[0] ** 2 - r[1] ** 2) / d])


def radial_operator(spec, grid):
    """Assemble the interior rows of the discrete operator ``L`` on the grid.

    Returns ``(rows, w)``: ``rows`` has shape (n−2, 3), and ``rows[j−1]``
    holds interior row j's weights on ``(u_{j−1}, u_j, u_{j+1})``; ``w`` are
    the inner-boundary weights of ``u_0 = w1 u_1 + w2 u_2``.  The end nodes
    take the boundary conditions, so there are no end rows.  ``λ/r_min²``,
    the peak of the ``r⁻²`` potential, must be a float (else ValidationError).
    """
    # in Python floats, which overflow to inf without a numpy warning
    if not float(spec.lam) / float(grid.r_min) ** 2 < math.inf:
        raise ValidationError(f"mode eigenvalue λ={spec.lam:g} over the squared inner radius "
                              f"r_min²={grid.r_min ** 2:g} leaves the float range; lower "
                              f"--lam, or raise --radius or lower --n")
    r = grid.nodes
    c1, c2 = _stencil(r)
    coef1 = (spec.m - 1) / r + _profile_values(spec.drift, r, "drift")
    coef0 = -spec.lam / r ** 2 + _profile_values(spec.zeroth, r, "zeroth-order")
    rows = c2 + coef1[1:-1, None] * c1
    rows[:, 1] += coef0[1:-1]
    return rows, _inner_weights(r, exponent_roots(spec.lam, spec.m)[0])


def apply_radial_operator(spec, grid, u):
    """Apply the interior stencil of ``L`` to a grid function.

    End values are returned as zero; use for truncation/stationarity tests.
    """
    rows, _ = radial_operator(spec, grid)
    u = np.asarray(u, dtype=float)
    out = np.zeros_like(u)
    out[1:-1] = rows[:, 0] * u[:-2] + rows[:, 1] * u[1:-1] + rows[:, 2] * u[2:]
    return out


# --- time stepping -------------------------------------------------------------


def _implicit_rows(spec, grid, dt):
    """``I − dt·L`` on the unknowns ``u_1 … u_{n−2}``: ``(lower, diag, upper, outer, w)``.

    ``lower``, ``diag`` and ``upper`` are its bands on the ``rows`` of
    :func:`radial_operator`, with ``u_0 = w1·u_1 + w2·u_2`` substituted into
    row 1; the weights ``w`` are the last item.  ``outer`` is row n−2's coupling
    to the Dirichlet node with its sign moved to the right-hand side: a step
    adds ``outer·g`` to the last unknown's right-hand side for ``u_{n−1} = g``.
    ``dt·λ/r_min²`` and ``dt`` times each entry of ``rows`` must be floats, or
    the solve would turn an infinity into a silent zero or a zero pivot.
    """
    rows, w = radial_operator(spec, grid)
    # in Python floats, which overflow to inf without a numpy warning
    peak = float(np.abs(rows).max())
    if not float(dt) * max(peak, float(spec.lam) / float(grid.r_min) ** 2) < math.inf:
        raise ValidationError(f"dt={dt:g} times the radial operator of the λ={spec.lam:g} "
                              f"mode leaves the float range; lower --dt, or lower --lam, or "
                              f"raise --radius or lower --n")
    A = -dt * rows
    A[:, 1] += 1.0
    A[0, 1:] += A[0, 0] * w
    return A[1:, 0], A[:, 1], A[:-1, 2], -A[-1, 2], w


# D and 1/D stay below the square root of the largest float, so y = D·u is a
# float wherever u is
_LOG_SCALE_LIMIT = 0.5 * math.log(sys.float_info.max)


def _stack(bands):
    """One off-diagonal for the stacked blocks: each block's row, then a zero coupling."""
    return np.pad(bands, ((0, 0), (0, 1))).ravel()[:-1]


def _symmetric_factor(lower, diag, upper):
    """``(D, d, e)``: a scaling ``D`` and ``dpttrf``'s factor of ``D·A·D⁻¹``, or ``None``.

    Each row of the arrays holds the bands of one tridiagonal block ``A``.
    Where every ``lower[i]·upper[i]`` is positive, ``D[i+1]/D[i] =
    sqrt(upper[i]/lower[i])`` makes the block symmetric, with off-diagonal
    ``±sqrt(lower[i]·upper[i])``.  ``D`` is summed in logs and centred on
    each block.  ``None`` when a product is ≤ 0 (m = 4 at q = 2, m = 3 at
    q = 3), when ``D`` or ``1/D`` exceeds the square root of the largest
    float, or when ``dpttrf`` finds the scaled matrix not positive definite.
    """
    if not (np.sign(lower) * np.sign(upper) > 0).all():
        return None
    log_d = np.zeros(diag.shape)
    np.cumsum(0.5 * (np.log(np.abs(upper)) - np.log(np.abs(lower))), axis=1, out=log_d[:, 1:])
    log_d -= 0.5 * (log_d.max(axis=1, keepdims=True) + log_d.min(axis=1, keepdims=True))
    if not np.abs(log_d).max() <= _LOG_SCALE_LIMIT:
        return None
    e = np.copysign(np.sqrt(np.abs(lower)) * np.sqrt(np.abs(upper)), upper)
    d, e, info = dpttrf(diag.ravel(), _stack(e))
    return (np.exp(log_d), d, e) if info == 0 else None


def solve_modes(specs, grid, T, dt, forcing=None, outer_bc=None, store_every=1):
    """Backward-Euler solve of ``∂_t u = L_λ u + f`` for several modes at once.

    All modes share the grid, the time step, the forcing ``f(t, r)`` (``None``
    means zero) and the outer Dirichlet data ``outer_bc(t)`` (default 0).
    Each step solves

        (I − dt·L_λ) u_λ^{n+1} = u_λ^n + dt·f(t^{n+1}, ·)

    with the extrapolation row ``u_0 = w1·u_1 + w2·u_2`` at ``r_min`` and
    ``u_{n−1} = g`` at ``R``, on the unknowns ``u_1 … u_{n−2}``
    (:func:`_implicit_rows`): the inner row is eliminated into row 1, and
    ``g`` enters only as ``outer·g`` on the last unknown's right-hand side.
    The modes' bands are concatenated with a zero coupling between blocks
    and factored once.

    Where :func:`_symmetric_factor` finds a scaling ``D`` that makes every
    block symmetric positive definite, the loop keeps the scaled state
    ``y = D·u`` and each step is one ``dpttrs`` call; otherwise the whole run
    takes ``dgttrf`` and one ``dgttrs`` call per step, with ``D = 1``.
    ``u = y/D``, ``u_0`` and ``u_{n−1} = g`` are formed only for the stored
    frames.  Neither path crosses the zero couplings, so on one path each
    mode gets the bits a one-mode solve would give.  The inner exponent of
    each mode is α₊(λ); ``λ/r_min²`` and the entries of ``dt·L_λ`` must be
    floats, or :class:`ValidationError` is raised.

    The forcing is evaluated at every step's time.  A forcing with a
    ``reads`` attribute, the set of variable names (``"t"``, ``"r"``) its
    value depends on, that omits ``"t"`` is evaluated once, at step 1's
    time; every step then adds the same ``D·dt·f``, with the bits a per-step
    evaluation would give.  A forcing that raises or returns a non-finite
    value on the grid raises :class:`NumericalError` naming the step (step 1
    for a forcing without ``t``), as does an overflowing ``D·dt·f`` or a step
    whose scaled state ``y`` is not finite.  The outer term ``outer·g`` is
    checked in Python floats before it is added; a failure at a step with
    ``g ≠ 0`` names ``--outer``, and one with ``g = 0`` and a forcing names
    the forcing and ``--dt``.

    ``specs`` may not be empty.  The steps are the fewest equal ones of size
    ``T/n ≤ dt`` (:func:`~conic_lmcf.errors.time_steps`), and the last ends at ``T``.
    Solutions are recorded every ``store_every`` steps (``store_every=0``
    keeps only the initial and final states).  More than
    :data:`~conic_lmcf.errors.COUNT_LIMIT` steps, or stored values (frames ×
    modes × nodes), are refused before the factorisation.  Returns one
    :class:`ModeSolution` per spec.
    """
    specs = list(specs)
    if not specs:
        raise ValidationError("at least one --lam is required")
    n_steps, dt = time_steps(T, dt)
    if store_every < 0:
        raise ValidationError(f"--store-every must be >= 0, got {store_every}")
    stored = (n_steps // store_every + (n_steps % store_every > 0) if store_every else 1) + 1
    check_count(stored * len(specs) * grid.n_cells,
                f"stored values ({stored} frames of {len(specs)} modes on {grid.n_cells} nodes)",
                "raise --store-every (0 keeps the first and last frames), or lower --T or --n")
    r = grid.nodes
    lower, diag, upper, outer, w = map(np.array, zip(*(_implicit_rows(spec, grid, dt)
                                                       for spec in specs)))
    symmetric = _symmetric_factor(lower, diag, upper)
    if symmetric is not None:
        D, d, e = symmetric

        def solve(b):
            return dpttrs(d, e, b, overwrite_b=True)[0]
    else:
        D = np.ones(diag.shape)
        dl, d, du, du2, ipiv, info = dgttrf(_stack(lower), diag.ravel(), _stack(upper))
        if info > 0:
            mode, row = divmod(info - 1, diag.shape[1])
            raise NumericalError(f"implicit system is singular at step 0 (zero pivot at "
                                 f"node {row + 1} of the λ={specs[mode].lam:g} mode)")

        def solve(b):
            return dgttrs(dl, d, du, du2, ipiv, b, overwrite_b=True)[0]
    outer *= D[:, -1]
    outer_max = float(np.abs(outer).max())
    d_max = float(D.max())  # D is centred in logs, so d_max >= 1

    def dt_forcing(k, t):
        """``D·dt·f(t, ·)`` on the unknowns; a raise or a non-finite value names step ``k``."""
        try:
            fvals = np.asarray(forcing(t, r), dtype=float)
            if fvals.shape != r.shape:
                fvals = np.broadcast_to(fvals, r.shape)
            if not np.isfinite(fvals).all():
                raise ValueError("a value is not finite")
        except (ArithmeticError, TypeError, ValueError) as exc:
            raise NumericalError(f"forcing invalid at step {k} (t={t:.6g}): {exc}") from exc
        # a finite f overflows D·dt·f only when dt·max D > 1; Python floats do not warn
        if dt * d_max > 1.0 and not float(np.abs(fvals).max()) * float(dt) * d_max < math.inf:
            raise NumericalError(f"forcing times the time step leaves the float range at "
                                 f"step {k} (t={t:.6g}, dt={dt:g}); lower --dt")
        return D * (dt * fvals[1:-1])

    # a forcing whose ``reads`` omits t is the same at every step: evaluate it at step 1 only
    reads = getattr(forcing, "reads", None)
    time_free = reads is not None and "t" not in reads
    dtf = None
    g = 0.0
    y = np.zeros(diag.shape)
    times, states, outer_values = [0.0], [y], [g]
    for k in range(1, n_steps + 1):
        t_new = k * dt if k < n_steps else T
        if forcing is not None and (k == 1 or not time_free):
            dtf = dt_forcing(k, t_new)
        # the solve overwrites its right-hand side, and y may be a stored state
        rhs = y.copy() if dtf is None else y + dtf
        if outer_bc is not None:
            g = float(outer_bc(t_new))
            # in Python floats, which overflow to inf without a numpy warning
            if not float(np.abs(rhs[:, -1]).max()) + abs(g) * outer_max < math.inf:
                raise NumericalError(f"linear solve failed at step {k} (t={t_new:.6g}): the "
                                     f"outer Dirichlet value g={g:g} takes its right-hand side "
                                     f"out of the float range; lower --outer")
            rhs[:, -1] += outer * g
        y = solve(rhs.ravel()).reshape(rhs.shape)
        if not np.isfinite(y).all():
            # the solve is linear in its data and its factor is finite, so only large data
            # overflow it: g, or the forcing
            why = ""
            if g != 0.0:
                flags = "--outer" if forcing is None else "--outer or the forcing"
                why = (f": the state that the outer Dirichlet value g={g:g} drives leaves "
                       f"the float range; lower {flags}")
            elif forcing is not None:
                why = (f": the state that the forcing drives at dt={dt:g} leaves the float "
                       f"range; lower --forcing or --dt")
            raise NumericalError(f"linear solve failed at step {k} (t={t_new:.6g}){why}")
        if (store_every and k % store_every == 0) or k == n_steps:
            times.append(t_new)
            states.append(y)
            outer_values.append(g)
    times = np.array(times)
    values = np.empty((len(specs), len(times), len(r)))
    values[:, :, 1:-1] = np.stack(states, axis=1) / D[:, None]
    values[:, :, 0] = w[:, :1] * values[:, :, 1] + w[:, 1:] * values[:, :, 2]
    values[:, :, -1] = outer_values
    return [ModeSolution(grid, times, v, spec.lam) for spec, v in zip(specs, values)]
