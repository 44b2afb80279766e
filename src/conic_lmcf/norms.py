"""Decay-rate estimation on dyadic annuli.

The O(r^γ) conditions near a conical point are measured the way they are
written: the supremum of |u| on each dyadic annulus ``[r/2, r]``, then a
straight-line fit of the suprema in log–log coordinates.
"""

from __future__ import annotations

import math

import numpy as np

from . import _EXPORTS
from .errors import ValidationError

__all__ = list(_EXPORTS["norms"])


def dyadic_annulus_suprema(r, values, r_lo, r_hi):
    """Supremum of |values| on dyadic annuli of [r_lo, r_hi].

    Returns ``(centers, sups)`` for annuli ``[r_hi/2^{i+1}, r_hi/2^i]``
    intersecting the range, using geometric-mean centers.  Empty annuli are
    skipped.  ``r_lo`` must be positive and ``r_hi`` finite, else the
    halving never ends: a :class:`ValidationError` is raised instead.
    """
    if not (0.0 < r_lo and math.isfinite(r_hi)):
        raise ValidationError(f"dyadic annuli need 0 < r_lo and a finite r_hi, "
                              f"got r_lo={r_lo!r}, r_hi={r_hi!r}")
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

    Returns ``(rate, stderr)``.  Fewer than five data points, a non-finite
    or non-positive center or supremum, or centers that are all equal raise
    :class:`ValidationError`.
    """
    centers = np.asarray(centers, dtype=float)
    sups = np.asarray(sups, dtype=float)
    if len(centers) < 5:
        raise ValidationError(f"need at least 5 annuli, got {len(centers)}")
    data = np.concatenate([centers, sups])
    if not np.all(np.isfinite(data) & (data > 0)):
        raise ValidationError("annulus centers and suprema must be finite and positive "
                              "to fit a rate")
    x, y = np.log(centers), np.log(sups)
    sxx = float(((x - x.mean()) ** 2).sum())
    if sxx == 0:
        raise ValidationError("annulus centers must not all be equal to fit a rate")
    A = np.stack([x, np.ones_like(x)], axis=1)
    coef, *_ = np.linalg.lstsq(A, y, rcond=None)
    resid = y - A @ coef
    dof = max(len(x) - 2, 1)
    var = float(resid @ resid) / dof
    stderr = math.sqrt(var / sxx)
    return float(coef[0]), stderr
