"""Exponent tables and Fredholm bookkeeping for Laplace-type cone operators.

A link eigenvalue λ of −Δ_h admits homogeneous harmonic functions ``r^α φ``
on the ``m``-dimensional cone exactly for the two roots of the indicial
equation

    α(α + m − 2) = λ,    α± = (2−m)/2 ± sqrt(((m−2)/2)² + λ).

The set of such orders is ``D_Σ`` with multiplicity function ``m_Σ``
(``m_Σ(α) > 0`` iff ``α ∈ D_Σ``).  Since λ ≥ 0, no exponent falls in the
open gap ``(2−m, 0)``.

Derived counting functions drive everything else:

* ``M_Σ(δ)``  — signed exponent count: ``Σ_{α ∈ [0,δ)} m_Σ(α)`` for δ ≥ 0
  and ``−Σ_{α ∈ (δ,0)} m_Σ(α)`` for δ < 0.
* ``E_Σ``     — exponents lifted by even powers of r: ``{α + 2k, k ≥ 0}``;
  these are the orders present in polyhomogeneous expansions.
* ``n_Σ(β)``  — ``m_Σ(β) + Σ_{k≥1, 2k≤β} m_Σ(β−2k)``.
* ``N_Σ(δ)``  — like ``M_Σ`` with ``(D_Σ, m_Σ)`` replaced by
  ``(E_Σ, n_Σ)``; satisfies ``M(δ) = N(δ) − N(δ−2)`` for δ > 2 and
  ``N = M`` for δ ≤ 2.

The Fredholm index of the associated weighted-space operator drops by
``m_Σ(α)`` each time the weight crosses an exponent upward; with discrete
asymptotics attached the index is zero away from ``E_Σ``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from . import _EXPORTS
from .errors import ExceptionalWeightError, ValidationError, WindowError

__all__ = list(_EXPORTS["exponents"])


def exponent_roots(lam, m):
    """Both indicial roots (α₊, α₋) for link eigenvalue ``lam`` in dim ``m``."""
    if lam < 0:
        raise ValidationError("link eigenvalue must be nonnegative")
    disc = math.sqrt(((m - 2) / 2.0) ** 2 + lam)
    return (2.0 - m) / 2.0 + disc, (2.0 - m) / 2.0 - disc


@dataclass(frozen=True)
class ExponentEntry:
    alpha: float
    multiplicity: int
    lambda_source: float


class ExponentTable:
    """Exponent data ``(D_Σ, m_Σ)`` for one cone link, with counts.

    Built from a link spectrum; stores both roots of every eigenvalue that
    fall inside the valid window ``[alpha_lo, alpha_hi]`` spanned by the
    largest supplied eigenvalue.  Queries outside the window raise
    :class:`WindowError` because the table cannot know about exponents it
    was never given.  Exponents within ``tol`` of each other are equal.
    """

    tol = 1e-9

    def __init__(self, m, entries, alpha_lo, alpha_hi):
        if m < 3:
            raise ValidationError("cone dimension m must be >= 3")
        entries = sorted(entries, key=lambda e: e.alpha)
        for e in entries:
            lam = e.alpha * (e.alpha + m - 2)
            if abs(lam - e.lambda_source) > 1e-10 * max(1.0, abs(e.lambda_source)):
                raise ValidationError(
                    f"entry alpha={e.alpha} fails the indicial identity for "
                    f"lambda={e.lambda_source}")
            if 2.0 - m + self.tol < e.alpha < -self.tol:
                raise ValidationError(
                    f"exponent {e.alpha} inside the forbidden gap ({2 - m}, 0)")
        self.m = m
        self.entries = tuple(entries)
        self.alpha_lo = float(alpha_lo)
        self.alpha_hi = float(alpha_hi)

    @classmethod
    def from_spectrum(cls, eigen_entries, m):
        """Build from :class:`~conic_lmcf.links.EigenEntry` rows.

        The window is the widest interval the supplied spectrum determines:
        ``[α₋(λ_max), α₊(λ_max)]``.
        """
        if not eigen_entries:
            raise ValidationError("empty spectrum")
        rows = []
        lam_max = max(e.lam for e in eigen_entries)
        for e in eigen_entries:
            ap, am = exponent_roots(e.lam, m)
            rows.append(ExponentEntry(ap, e.multiplicity, e.lam))
            if am < ap - cls.tol:
                rows.append(ExponentEntry(am, e.multiplicity, e.lam))
        hi, lo = exponent_roots(lam_max, m)
        return cls(m, rows, lo, hi)

    @classmethod
    def for_link(cls, link, alpha_max):
        """Table for the cone over ``link`` covering exponents up to ``alpha_max``.

        The cone has dimension ``m = link.dim + 1``.  The spectrum is
        enumerated completely up to the eigenvalue matching ``alpha_max``, so
        the table's validity window is the full requested range
        ``[2 − m − alpha_max, alpha_max]`` even when the largest realized
        exponent falls short of it.
        """
        if alpha_max < 0:
            raise ValidationError(f"--alpha-max must be >= 0, got {alpha_max:g}")
        m = link.dim + 1
        lam_max = alpha_max * (alpha_max + m - 2)
        table = cls.from_spectrum(link.spectrum(lam_max), m)
        table.alpha_lo = min(table.alpha_lo, 2.0 - m - alpha_max)
        table.alpha_hi = max(table.alpha_hi, float(alpha_max))
        return table

    def _points(self, lifted):
        """``(α, m_Σ(α))`` over ``D_Σ``; lifted, also ``(α + 2k, m_Σ(α))`` for ``α ≥ 0``, k ≥ 1."""
        edge = self.alpha_hi + 2 * self.tol  # the farthest point a query in the window reaches
        for e in self.entries:
            lifts = math.floor((edge - e.alpha) / 2) if lifted and e.alpha >= -self.tol else 0
            for k in range(lifts + 1):
                yield e.alpha + 2 * k, e.multiplicity

    # -- membership ----------------------------------------------------------

    def multiplicity(self, alpha):
        """``m_Σ(alpha)`` (0 exactly when ``alpha ∉ D_Σ``)."""
        self._require_in_window(alpha)
        return sum(mult for a, mult in self._points(False) if abs(a - alpha) <= self.tol)

    def lifted_exponents(self, upper):
        """Sorted distinct elements of ``E_Σ ∩ [0, upper]``."""
        self._require_in_window(upper)
        return sorted({round(b, 12) for b, _ in self._points(True)
                       if -self.tol <= b <= upper + self.tol})

    def is_exceptional(self, gamma, lifted=False):
        """Whether ``gamma`` sits within ``tol`` of ``D_Σ`` (or ``E_Σ``)."""
        self._require_in_window(gamma)
        return any(abs(gamma - b) <= self.tol for b, _ in self._points(lifted))

    def _require_in_window(self, delta):
        if delta < self.alpha_lo - self.tol or delta > self.alpha_hi + self.tol:
            raise WindowError(
                f"weight {delta} outside the table window "
                f"[{self.alpha_lo:.6g}, {self.alpha_hi:.6g}]; rebuild with a "
                f"larger spectrum")

    # -- counting functions ----------------------------------------------------

    def _count(self, delta, lifted):
        """Signed count: the points in ``[0, delta)``, or minus those in ``(delta, 0)``."""
        self._require_in_window(delta)
        if delta >= 0:
            return sum(mult for b, mult in self._points(lifted)
                       if -self.tol <= b < delta - self.tol)
        return -sum(mult for b, mult in self._points(lifted)
                    if delta + self.tol < b < -self.tol)

    def count_M(self, delta):
        """Signed count of ``D_Σ`` exponents between 0 and ``delta``."""
        return self._count(delta, lifted=False)

    def count_N(self, delta):
        """Signed count over ``(E_Σ, n_Σ)``; equals ``count_M`` for δ ≤ 2."""
        return self._count(delta, lifted=True)


# --- Fredholm index ----------------------------------------------------------


def fredholm_index(tables, gammas, with_asymptotics=False):
    """Index of the Laplace-type operator between weighted spaces.

    ``tables`` holds one :class:`ExponentTable` per conical point and
    ``gammas`` the matching weights.  Every weight must be non-exceptional;
    the message of the raised :class:`ExceptionalWeightError` lists offenders.

    Plain weighted spaces give index ``−Σ_i M_{Σ_i}(γ_i)``.  With discrete
    asymptotics attached (``with_asymptotics=True``) the operator has index
    0 whenever each ``γ_i > 2 − m`` avoids the lifted set ``E_Σ``.
    """
    tables = list(tables)
    gammas = [float(g) for g in gammas]
    if len(tables) != len(gammas):
        raise ValidationError("need one weight per conical point")
    offending = [i for i, (t, g) in enumerate(zip(tables, gammas))
                 if t.is_exceptional(g, lifted=with_asymptotics)]
    if offending:
        raise ExceptionalWeightError(
            "exceptional weight at conical point(s) "
            + ", ".join(f"{i} (gamma={gammas[i]})" for i in offending))
    if with_asymptotics:
        for t, g in zip(tables, gammas):
            if g <= 2 - t.m:
                raise ValidationError(
                    f"asymptotics require gamma > {2 - t.m}, got {g}")
        return 0
    return -sum(t.count_M(g) for t, g in zip(tables, gammas))
