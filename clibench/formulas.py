"""Closed forms and enumerations the checks compare the program against.

None of this calls into ``conic_lmcf``: lattice eigenvalues are enumerated
here, sphere multiplicities come from the branching rule, and the torus of
revolution is solved as a one-dimensional eigenproblem per Fourier mode.
"""

from __future__ import annotations

import itertools
import math

import numpy as np
import scipy.linalg

HEX_METRIC = [[2.0 / 3.0, 1.0 / 3.0], [1.0 / 3.0, 2.0 / 3.0]]   # link of hl-torus-3


def group(values, rel=1e-9):
    """Sorted ``(value, multiplicity)`` pairs of a list with repeats."""
    out = []
    for v in sorted(values):
        if out and v - out[-1][0] <= rel * max(1.0, abs(out[-1][0])):
            out[-1][1] += 1
        else:
            out.append([v, 1])
    return [(v, k) for v, k in out]


def torus_spectrum(metric, lam_max):
    """Eigenvalues ``k^T H^{-1} k <= lam_max`` over the integer lattice."""
    H = np.asarray(metric, dtype=float)
    Hinv = np.linalg.inv(H).tolist()
    dim = len(Hinv)
    bounds = [int(math.sqrt(lam_max * H[i, i])) + 1 for i in range(dim)]
    lams = []
    for k in itertools.product(*[range(-b, b + 1) for b in bounds]):
        lam = sum(Hinv[i][j] * k[i] * k[j] for i in range(dim) for j in range(dim))
        if lam <= lam_max + 1e-9:
            lams.append(max(lam, 0.0))
    return group(lams)


def sphere_multiplicity(l, dim):
    """Harmonics of degree ``l`` on ``S^dim`` by restriction to ``S^(dim-1)``."""
    if dim == 1:
        return 1 if l == 0 else 2
    return sum(sphere_multiplicity(j, dim - 1) for j in range(l + 1))


def sphere_spectrum(dim, lam_max):
    out = []
    l = 0
    while l * (l + dim - 1) <= lam_max + 1e-9:
        out.append((float(l * (l + dim - 1)), sphere_multiplicity(l, dim)))
        l += 1
    return out


def alpha_plus(lam, m):
    """Root ``alpha >= 0`` of ``alpha (alpha + m - 2) = lam``."""
    c = (m - 2) / 2.0
    return -c + math.sqrt(c * c + lam)


def hl_exponents(alpha_max, m=3):
    """``(alpha_+, multiplicity)`` of the hl-torus-3 link up to ``alpha_max``."""
    lam_max = alpha_max * (alpha_max + m - 2)
    return [(alpha_plus(lam, m), k) for lam, k in torus_spectrum(HEX_METRIC, lam_max)]


def lifted(alphas, upper):
    """``alpha + 2k`` for every exponent, up to ``upper``."""
    out = set()
    for a in alphas:
        while a <= upper:
            out.add(a)
            a += 2.0
    return sorted(out)


def radial_nodes(n, R=1.0, q=2.0):
    return R * (np.arange(1, n + 1) / n) ** q


def torus_of_revolution_eigenvalues(R, a, count, n=400, kmax=16, per_k=6):
    """Lowest ``count`` Laplace eigenvalues (with multiplicity) of the torus
    ``((R + a cos t) cos p, (R + a cos t) sin p, a sin t)``.

    Separating ``f = g(t) e^{ikp}`` gives ``-(rho g')' + a^2 k^2 g / rho =
    lambda a^2 rho g`` with ``rho = R + a cos t``, solved by second-order
    periodic differences on ``n`` points; ``k != 0`` modes count twice.
    """
    h = 2.0 * math.pi / n
    t = h * np.arange(n)
    rho = R + a * np.cos(t)
    rho_half = R + a * np.cos(t + h / 2.0)
    idx = np.arange(n)
    stiff = np.zeros((n, n))
    w = rho_half / (h * h)
    stiff[idx, idx] += w + np.roll(w, 1)
    stiff[idx, (idx + 1) % n] -= w
    stiff[(idx + 1) % n, idx] -= w
    mass = np.diag(a * a * rho)
    vals = []
    for k in range(kmax):
        ev = scipy.linalg.eigh(stiff + np.diag(a * a * k * k / rho), mass,
                               eigvals_only=True, subset_by_index=[0, per_k - 1])
        for e in ev:
            vals += [max(float(e), 0.0)] * (1 if k == 0 else 2)
    return sorted(vals)[:count]
