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

Every one of these is an exact function of the link spectrum, so a table
holds its link rather than a caller-chosen range of exponents, and each
query first enumerates the spectrum as far as that query can see.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from . import _EXPORTS
from .errors import ValidationError

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
    """Exponent data ``(D_Σ, m_Σ)`` of the cone over one link, with counts.

    The table keeps its link.  A query at weight δ sees the exponents within
    ``tol`` of δ or between δ and 0; before it answers, the table
    re-enumerates ``link.spectrum(λ(δ′))``, ``λ(δ′) = δ′(δ′ + m − 2)``,
    whenever that exceeds the bound it holds.  Here ``δ′ = δ + 2·tol`` for
    δ ≥ 0, ``δ − 2·tol`` for δ ≤ 2 − m, and 0 in the gap between.  So every
    query is exact, and a bound too large to enumerate is refused by the
    link, naming the flags that set it.  Exponents within ``tol`` of each
    other are equal.
    """

    tol = 1e-9

    def __init__(self, link):
        self.link = link
        self.m = link.dim + 1
        if self.m < 3:
            raise ValidationError("cone dimension m must be >= 3")
        self._lam = -math.inf  # the eigenvalue bound that _rows are complete up to
        self._rows = []

    @classmethod
    def from_spectrum(cls, eigen_entries, m):
        """Sorted :class:`ExponentEntry` rows: both roots of each
        :class:`~conic_lmcf.links.EigenEntry` (one when they coincide)."""
        rows = []
        for e in eigen_entries:
            ap, am = exponent_roots(e.lam, m)
            rows.append(ExponentEntry(ap, e.multiplicity, e.lam))
            if am < ap - cls.tol:
                rows.append(ExponentEntry(am, e.multiplicity, e.lam))
        return sorted(rows, key=lambda e: e.alpha)

    @classmethod
    def for_link(cls, link):
        """The table of the cone over ``link``, of dimension ``m = link.dim + 1``.

        Nothing is enumerated until the first query.
        """
        return cls(link)

    def _grow(self, delta):
        """Hold every exponent a query at ``delta`` sees; returns ``δ′``."""
        if delta >= 0:
            reach = delta + 2 * self.tol
        elif delta <= 2 - self.m:
            reach = delta - 2 * self.tol
        else:
            reach = 0.0
        lam = reach * (reach + self.m - 2)
        if lam > self._lam:
            self._rows = self.from_spectrum(self.link.spectrum(lam), self.m)
            self._lam = lam
        return reach

    def _points(self, delta, lifted):
        """``(α, m_Σ(α))`` over ``D_Σ``; lifted, also ``(α + 2k, m_Σ(α))`` for ``α ≥ 0``,
        ``k ≥ 1``, as far as a query at ``delta`` sees."""
        reach = self._grow(delta)
        for e in self._rows:
            yield e.alpha, e.multiplicity
            if lifted and e.alpha >= -self.tol:
                for k in range(1, math.floor((reach - e.alpha) / 2) + 1):
                    yield e.alpha + 2 * k, e.multiplicity

    def entries(self, upper):
        """Sorted rows of ``D_Σ`` with α in ``[2 − m − upper, upper]``, within ``tol``."""
        self._grow(upper)
        return [e for e in self._rows
                if 2 - self.m - upper - self.tol <= e.alpha <= upper + self.tol]

    # -- membership ----------------------------------------------------------

    def multiplicity(self, alpha):
        """``m_Σ(alpha)`` (0 exactly when ``alpha ∉ D_Σ``)."""
        return sum(mult for a, mult in self._points(alpha, False) if abs(a - alpha) <= self.tol)

    def lifted_exponents(self, upper):
        """Sorted distinct elements of ``E_Σ ∩ [0, upper]``."""
        return sorted({round(b, 12) for b, _ in self._points(upper, True)
                       if -self.tol <= b <= upper + self.tol})

    def is_exceptional(self, gamma, lifted=False):
        """Whether ``gamma`` sits within ``tol`` of ``D_Σ`` (or ``E_Σ``)."""
        return any(abs(gamma - b) <= self.tol for b, _ in self._points(gamma, lifted))

    # -- counting functions ----------------------------------------------------

    def _count(self, delta, lifted):
        """Signed count: the points in ``[0, delta)``, or minus those in ``(delta, 0)``."""
        points = self._points(delta, lifted)
        if delta >= 0:
            return sum(mult for b, mult in points if -self.tol <= b < delta - self.tol)
        return -sum(mult for b, mult in points if delta + self.tol < b < -self.tol)

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
    ``gammas`` the matching weights, at any of which the tables answer
    exactly.  Every weight must be non-exceptional; the message of the
    raised :class:`ValidationError` lists offenders.

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
        raise ValidationError(
            "exceptional weight at conical point(s) "
            + ", ".join(f"{i} (gamma={gammas[i]})" for i in offending))
    if with_asymptotics:
        for t, g in zip(tables, gammas):
            if g <= 2 - t.m:
                raise ValidationError(
                    f"asymptotics require gamma > {2 - t.m}, got {g}")
        return 0
    return -sum(t.count_M(g) for t, g in zip(tables, gammas))
