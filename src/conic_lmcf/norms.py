"""Weighted Hölder/Sobolev norms and decay-rate estimation.

Functions on a manifold with conical points are measured against a radius
function ρ ∈ (0, 1] that agrees with the cone radius near each singularity
and is ≡ 1 outside the cone charts.  The discrete norms implemented here
are the sampled versions of

    ‖u‖_{C^k_γ}     = Σ_j  sup |ρ^{−γ+j} ∇^j u|,
    ‖u‖_{W^{k,p}_γ} = ( Σ_j ∫ |ρ^{−γ+j} ∇^j u|^p ρ^{−m} dV )^{1/p},

so that ``L^p = L^p_{−m/p}`` holds on the nose.  Derivative magnitudes are
caller-supplied samples — the module is deliberately geometry-agnostic.

Decay rates are measured the way the O(r^γ) conditions are written:
suprema over dyadic annuli, straight-line fit in log–log coordinates.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (DegenerateDataError, MissingDerivativeError,
                     ValidationError)

__all__ = [
    "RadiusFunction",
    "WeightVector",
    "holder_norm",
    "sobolev_norm",
    "decay_rate",
    "dyadic_annulus_suprema",
    "smooth_cutoff",
]


def smooth_cutoff(x, lo, hi):
    """C∞ transition: 1 for ``x ≤ lo``, 0 for ``x ≥ hi``, monotone between."""
    x = np.asarray(x, dtype=float)
    t = np.clip((x - lo) / (hi - lo), 0.0, 1.0)

    def bump(s):
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            return np.where(s > 0, np.exp(-1.0 / np.maximum(s, 1e-300)), 0.0)

    up, down = bump(1.0 - t), bump(t)
    return up / (up + down)


@dataclass(frozen=True)
class WeightVector:
    """One weight per conical point."""

    gamma: tuple

    def __post_init__(self):
        g = tuple(float(x) for x in np.atleast_1d(np.asarray(self.gamma, dtype=float)))
        if not all(math.isfinite(x) for x in g):
            raise ValidationError("weights must be finite")
        object.__setattr__(self, "gamma", g)

    def sample_values(self, chart_ids):
        """Per-sample weight array from per-sample chart membership.

        ``chart_ids`` gives the index of the cone chart containing each
        sample (−1 for points outside every chart, where the weight is
        irrelevant because ρ ≡ 1 — the entry 0 is used there).
        """
        ids = np.asarray(chart_ids, dtype=int)
        if ids.size and ids.max() >= len(self.gamma):
            raise ValidationError(
                f"chart id {int(ids.max())} has no weight (have {len(self.gamma)})")
        out = np.where(ids >= 0, np.take(self.gamma, np.clip(ids, 0, None)), 0.0)
        return out


class RadiusFunction:
    """Radius function of one cone chart of radius ``R ≤ 1``.

    Evaluates to exactly ``r`` for ``r ≤ R/2``, interpolates smoothly and
    monotonically to 1 across ``[R/2, R]``, and is ≡ 1 beyond the chart.
    ``epsilon`` is the declared exponent in the closeness requirement
    ``|ρ − r| = O(r^{1+ε})``, which the sampled checker verifies.
    """

    def __init__(self, R=1.0, epsilon=1.0):
        if not 0 < R <= 1:
            raise ValidationError("chart radius must satisfy 0 < R <= 1")
        if epsilon <= 0:
            raise ValidationError("epsilon must be positive")
        self.R = float(R)
        self.epsilon = float(epsilon)

    def __call__(self, r):
        r = np.asarray(r, dtype=float)
        chi = smooth_cutoff(r, self.R / 2.0, self.R)
        return np.where(r >= self.R, 1.0, chi * r + (1.0 - chi) * 1.0)

    def check_closeness(self, samples=None):
        """Max of ``|ρ(r) − r| / r^{1+ε}`` over chart samples (finite ⇒ ok)."""
        if samples is None:
            samples = np.geomspace(self.R * 1e-8, self.R, 200)
        samples = np.asarray(samples, dtype=float)
        rho = self(samples)
        ratio = np.abs(rho - samples) / samples ** (1.0 + self.epsilon)
        return float(ratio.max())


def _gamma_array(gamma, npts):
    if isinstance(gamma, WeightVector):
        raise ValidationError(
            "pass per-sample weights (WeightVector.sample_values) or a scalar")
    g = np.asarray(gamma, dtype=float)
    return np.full(npts, float(g)) if g.ndim == 0 else g


def holder_norm(derivs, k, gamma, rho):
    """Discrete ``C^k_γ`` norm from derivative-magnitude samples.

    ``derivs[j]`` holds ``|∇^j u|`` at the sample points for j = 0..k;
    fewer than k+1 arrays raise :class:`MissingDerivativeError`.
    """
    if len(derivs) < k + 1:
        raise MissingDerivativeError(
            f"C^{k} norm needs derivative samples for j = 0..{k}")
    rho = np.asarray(rho, dtype=float)
    g = _gamma_array(gamma, len(rho))
    total = 0.0
    for j in range(k + 1):
        vals = np.abs(np.asarray(derivs[j], dtype=float))
        total += float((rho ** (-g + j) * vals).max())
    return total


def sobolev_norm(derivs, k, p, gamma, rho, weights, m):
    """Discrete ``W^{k,p}_γ`` norm with quadrature ``weights`` for dV.

    Integrates ``|ρ^{−γ+j} ∇^j u|^p ρ^{−m}`` and takes the p-th root; with
    ``gamma = −m/p`` this reduces to the plain ``L^p`` quadrature.
    """
    if not 1 <= p < math.inf:
        raise ValidationError("p must lie in [1, inf)")
    if len(derivs) < k + 1:
        raise MissingDerivativeError(
            f"W^{k},p norm needs derivative samples for j = 0..{k}")
    rho = np.asarray(rho, dtype=float)
    weights = np.asarray(weights, dtype=float)
    g = _gamma_array(gamma, len(rho))
    total = 0.0
    for j in range(k + 1):
        vals = np.abs(np.asarray(derivs[j], dtype=float))
        total += float(np.sum(weights * (rho ** (-g + j) * vals) ** p
                              * rho ** (-float(m))))
    return total ** (1.0 / p)


def dyadic_annulus_suprema(r, values, r_lo, r_hi):
    """Supremum of |values| on dyadic annuli of [r_lo, r_hi].

    Returns ``(centers, sups)`` for annuli ``[r_hi/2^{i+1}, r_hi/2^i]``
    intersecting the range, using geometric-mean centers.  Empty annuli are
    skipped.
    """
    r = np.asarray(r, dtype=float)
    values = np.abs(np.asarray(values, dtype=float))
    centers, sups = [], []
    hi = float(r_hi)
    while hi > r_lo * (1 + 1e-12):
        lo = hi / 2.0
        mask = (r > lo) & (r <= hi)
        if mask.any():
            centers.append(math.sqrt(lo * hi))
            sups.append(float(values[mask].max()))
        hi = lo
    return np.array(centers[::-1]), np.array(sups[::-1])


def decay_rate(centers, sups):
    """Log–log least-squares slope of annulus suprema, with standard error.

    Returns ``(rate, stderr)``.  Zero suprema or fewer than five data
    points raise :class:`DegenerateDataError`.
    """
    centers = np.asarray(centers, dtype=float)
    sups = np.asarray(sups, dtype=float)
    if len(centers) < 5:
        raise DegenerateDataError(f"need at least 5 annuli, got {len(centers)}")
    if np.any(sups <= 0):
        raise DegenerateDataError("annulus suprema must be positive to fit a rate")
    x, y = np.log(centers), np.log(sups)
    A = np.stack([x, np.ones_like(x)], axis=1)
    coef, *_ = np.linalg.lstsq(A, y, rcond=None)
    resid = y - A @ coef
    dof = max(len(x) - 2, 1)
    var = float(resid @ resid) / dof
    sxx = float(((x - x.mean()) ** 2).sum())
    stderr = math.sqrt(var / sxx) if sxx > 0 else math.inf
    return float(coef[0]), stderr
