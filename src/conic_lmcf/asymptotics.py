"""Discrete asymptotics of mode solutions near the cone tip.

Solutions of the mode heat problem with forcing ``f = O(r^{γ−2})`` decompose
near ``r = 0`` as

    u(t, r) = Σ c_{α,k}(t) r^{α+2k} + O(r^γ),

where α is the solved mode's admissible exponent α₊(λ) and ``α + 2k < γ``
(even lifts of a homogeneous harmonic — the model space for polyhomogeneous
expansions).  :func:`extract_asymptotics` recovers the coefficients and the
remainder rate from the final frame of a discrete solution:

1.  The ladder α, α + 2, … is visited in increasing order.  A candidate is
    accepted only if the current remainder's log–log slope on the innermost annuli
    matches it within 0.35 (rate gate), annuli whose supremum is below
    1e−13·max|u| left out — this keeps exactly-absent terms out of the
    reported expansion instead of fitting noise.
2.  Accepted coefficients come from least squares on an inner window whose
    size grows with the exponent, with a sacrificial ``r^γ`` column
    absorbing the remainder so it cannot bias the low-order coefficients.
3.  After subtracting the accepted terms, the remainder rate is fitted on
    dyadic annuli spanning [1e−3, 1e−1]·R.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import _EXPORTS
from .errors import DegenerateDataError, ExceptionalWeightError, NumericalError, ValidationError
from .norms import decay_rate, dyadic_annulus_suprema

__all__ = list(_EXPORTS["asymptotics"])


@dataclass
class AsymptoticExpansion:
    """Fitted expansion: ``terms`` of (alpha, k, coefficient) plus remainder."""

    terms: list
    remainder_rate: float
    remainder_sup: float
    gamma: float
    time: float = 0.0

    def __post_init__(self):
        for alpha, k, _ in self.terms:
            if alpha + 2 * k >= self.gamma:
                raise ValidationError(
                    f"term r^{alpha + 2 * k} is not below the weight {self.gamma}")
            if alpha < 0 or k < 0:
                raise ValidationError("terms need alpha >= 0 and k >= 0")


def synthesize(terms, r):
    """Evaluate a term list ``Σ c r^{α+2k}`` on radii ``r``."""
    r = np.asarray(r, dtype=float)
    out = np.zeros_like(r)
    for alpha, k, c in terms:
        out += c * r ** (alpha + 2 * k)
    return out


def extract_asymptotics(sol, table, gamma):
    """Fit the discrete asymptotic expansion of a mode solution's final frame.

    ``gamma`` must be non-exceptional for the lifted exponent set.  The basis
    is the solved mode's own ladder ``α + 2k < γ``, where α is the
    nonnegative exponent of the table entry whose source eigenvalue is
    nearest ``sol.lam`` (within 1e−9 relative; no match leaves the ladder
    empty).  A mode has one nonnegative exponent, since α₋ = 2 − m − α₊ is
    negative unless both are 0, and its ladder is 2 apart.  The returned
    expansion satisfies ``remainder_rate ≥ γ − 0.15`` for solver output with
    forcing ``O(r^{γ−2})``.
    """
    if table.is_exceptional(gamma, lifted=True):
        raise ExceptionalWeightError(
            f"gamma={gamma} is within tolerance of an exceptional exponent")
    R = sol.grid.R
    r = sol.grid.nodes / R  # in r/R, a dilation by 2^k keeps every bit of the fit
    u = np.asarray(sol.final(), dtype=float)

    lam = sol.lam
    matches = [e for e in table.entries if e.alpha >= -table.tol
               and abs(e.lambda_source - lam) <= 1e-9 * max(1.0, lam)]
    basis = []
    if matches:
        alpha = min(matches, key=lambda e: abs(e.lambda_source - lam)).alpha
        basis = [(alpha + 2 * k, alpha, k)
                 for k in range(math.ceil((gamma - alpha) / 2.0) + 1)
                 if alpha + 2 * k < gamma - table.tol]

    scale = max(float(np.abs(u).max()), 1e-300)
    work = u.copy()
    accepted = []
    for i, (e, alpha, k) in enumerate(basis):
        win = min(3e-3 * 10.0 ** i, 0.1)
        sel = r <= win
        if sel.sum() < 4:
            sel = np.zeros_like(sel)
            sel[:4] = True
            win = r[3]
        # rate gate: does the remainder actually behave like r^e here?
        centers, sups = dyadic_annulus_suprema(r, work, r[0], win)
        good = sups > 1e-13 * scale
        if good.sum() >= 3:
            x, y = np.log(centers[good]), np.log(sups[good])
            slope = float(np.polyfit(x, y, 1)[0])
        else:
            slope = math.inf  # remainder at machine level: nothing to accept
        if abs(slope - e) > 0.35:
            continue
        cols = [r[sel] ** ee for ee, _, _ in basis[i:]] + [r[sel] ** gamma]
        Amat = np.stack(cols, axis=1)
        colnorm = np.linalg.norm(Amat, axis=0)
        if not np.all((colnorm > 0) & np.isfinite(colnorm)):
            raise NumericalError(
                f"asymptotics fit: a basis column (r/R)^e on r/R <= {win:.3g} underflows; "
                f"choose a --gamma below {gamma:g}")
        coef, *_ = np.linalg.lstsq(Amat / colnorm, work[sel], rcond=None)
        c = float(coef[0] / colnorm[0])
        accepted.append((alpha, k, c * R ** -e))
        work = work - c * r ** e

    centers, sups = dyadic_annulus_suprema(r, work, 1e-3, 1e-1)
    rem_sup = float(np.abs(work).max())
    if np.all(sups <= 1e-12 * scale):
        rate, _ = math.inf, 0.0
    else:
        try:
            rate, _ = decay_rate(centers, sups)
        except DegenerateDataError:
            rate = math.inf
    return AsymptoticExpansion(accepted, rate, rem_sup, gamma, time=float(sol.times[-1]))

