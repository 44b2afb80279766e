"""Special Lagrangian cones, moment maps, and the stability index.

A cone ``C ⊂ ℂᵐ`` is described by an embedding ``(σ, r) ↦ r·X(σ)`` of its
link into the unit sphere.  Two checks certify the geometry at sample
points: the standard symplectic form ``ω′(u, v) = Im⟨u, v⟩`` pulls back to
zero (Lagrangian), and the holomorphic volume form evaluated on a frame has
constant phase ``e^{iθ}`` (special, with phase ``θ``).

Moment maps: for ``X = (A, v, c)`` with ``A`` skew-adjoint, ``v ∈ ℂᵐ``,
``c ∈ ℝ``,

    μ_X(z) = (i/2)·Σ a_ij z_i z̄_j + (i/2)·Σ (v_i z̄_i − v̄_i z_i) + c,

which is real-valued and satisfies ``dμ_X = X̂ ⌟ ω′`` for the generating
field ``X̂(z) = Aᵀz + v``.  (The quadratic form pairs ``z`` with the
*first* index of ``a``, which transposes the field; ``A ↦ Aᵀ`` is a
bijection of the skew-adjoint matrices, so spans are unaffected.)

Restricted to a unit-sphere link, ``ι*(μ_X)`` is homogeneous of order 2,
1, or 0 for the three parts, and — for traceless ``A`` and for ``v`` — a
link eigenfunction.  Counting low-order homogeneous harmonics against the
dimensions forced by these restrictions yields the stability index

    index = M⁺_Σ(2) − m² − 2m + dim G,

where ``M⁺_Σ(2)`` counts exponents in the *closed* interval [0, 2] and
``G`` is the symmetry group of the cone (catalog data).
"""

from __future__ import annotations

import cmath
import itertools
import json
import math
from dataclasses import dataclass, field

import numpy as np

from . import _EXPORTS
from .errors import NumericalError, ValidationError, check_count
from .exponents import ExponentTable
from .links import FlatTorus, RoundSphere, angle_grid

__all__ = list(_EXPORTS["cones"])


# --- moment elements ---------------------------------------------------------


@dataclass(frozen=True)
class MomentElement:
    """Element ``(A, v, c)`` of ``u(m) ⊕ ℂᵐ ⊕ ℝ``."""

    A: np.ndarray
    v: np.ndarray
    c: float = 0.0

    def __post_init__(self):
        A = np.asarray(self.A, dtype=complex)
        v = np.asarray(self.v, dtype=complex)
        if A.ndim != 2 or A.shape[0] != A.shape[1]:
            raise ValidationError("A must be square")
        if v.shape != (A.shape[0],):
            raise ValidationError("v must be a vector matching A")
        if np.abs(A + A.conj().T).max() > 1e-14:
            raise ValidationError("A must be skew-adjoint (A + A* = 0)")
        object.__setattr__(self, "A", A)
        object.__setattr__(self, "v", v)
        object.__setattr__(self, "c", float(self.c))

    @property
    def m(self):
        return self.A.shape[0]


def moment_eval(X, z):
    """Evaluate ``μ_X`` at one point or a batch of points of ℂᵐ."""
    z = np.asarray(z, dtype=complex)
    single = z.ndim == 1
    zb = z[None, :] if single else z
    quad = np.real(0.5j * np.einsum("ij,ni,nj->n", X.A, zb, zb.conj()))
    lin = -np.imag(np.einsum("i,ni->n", X.v, zb.conj()))
    out = quad + lin + X.c
    return float(out[0]) if single else out


def hamiltonian_field(X, z):
    """Generating vector field ``X̂(z) = Aᵀz + v`` of ``μ_X``."""
    z = np.asarray(z, dtype=complex)
    return z @ X.A + X.v


def verify_hamiltonian(X, samples):
    """Max residual of ``dμ_X = X̂ ⌟ ω′`` over samples, by central differences.

    Differentiates μ_X along the 2m real coordinate directions with step
    1e−5 and compares with ``ω′(X̂(z), e) = Im⟨X̂(z), e⟩``; valid elements
    come out below 1e−8.
    """
    step = 1e-5
    samples = np.asarray(samples, dtype=complex)
    if samples.ndim == 1:
        samples = samples[None, :]
    if len(samples) == 0:
        raise ValidationError("need at least one sample point")
    m = X.m
    Xz = hamiltonian_field(X, samples)
    worst = 0.0
    for j in range(m):
        for unit in (1.0, 1.0j):
            e = np.zeros(m, dtype=complex)
            e[j] = unit
            dmu = (moment_eval(X, samples + step * e)
                   - moment_eval(X, samples - step * e)) / (2 * step)
            pairing = np.imag(Xz.conj() @ e)
            worst = max(worst, float(np.abs(dmu - pairing).max()))
    return worst


def su_basis(m):
    """Real basis of ``su(m)`` (traceless skew-adjoint), m²−1 elements."""
    out = []
    for i in range(m):
        for j in range(i + 1, m):
            E = np.zeros((m, m), dtype=complex)
            E[i, j], E[j, i] = 1.0, -1.0
            out.append(E)
            E = np.zeros((m, m), dtype=complex)
            E[i, j] = E[j, i] = 1.0j
            out.append(E)
    for i in range(m - 1):
        E = np.zeros((m, m), dtype=complex)
        E[i, i], E[i + 1, i + 1] = 1.0j, -1.0j
        out.append(E)
    return out


def translation_basis(m):
    """Real basis of ℂᵐ as translations: e_j and i·e_j."""
    out = []
    for j in range(m):
        for unit in (1.0, 1.0j):
            v = np.zeros(m, dtype=complex)
            v[j] = unit
            out.append(v)
    return out


# --- cones -------------------------------------------------------------------


class SLCone:
    """Special Lagrangian cone with a torus or sphere link.

    ``trig_table`` (torus links) gives each complex coordinate as a sum of
    trigonometric monomials ``c·e^{i k·σ}``; sphere links embed the unit
    sphere of ℝᵐ ⊂ ℂᵐ directly.  Jacobians are analytic in both cases, so
    the constructor's :meth:`validate` checks run at tolerance 1e−10.  A
    ``None`` link stands for the flat torus of a trig table's induced metric.
    """

    def __init__(self, name, m, link, dim_G, trig_table=None):
        self.name = name
        self.m = int(m)
        self.link = link
        self.dim_G = int(dim_G)
        self.trig_table = trig_table
        if trig_table is not None:
            self._coeffs = [np.array([complex(c) for c, _ in coord])
                            for coord in trig_table]
            self._freqs = [np.array([k for _, k in coord], dtype=float)
                           for coord in trig_table]
        self.validate()

    def __repr__(self):
        return f"SLCone({self.name!r}, m={self.m})"

    # -- embedding

    def link_samples(self, n=12):
        """Sample points on the link (angle grid or n² seed-0 sphere points)."""
        if self.trig_table is not None:
            return angle_grid(n, self._freqs[0].shape[1])
        pts = np.random.default_rng(0).standard_normal((n * n, self.m))
        return pts / np.linalg.norm(pts, axis=1, keepdims=True)

    def embed(self, sigma, r=1.0):
        """Embed link points into ℂᵐ at the scalar radius ``r``."""
        sigma = np.atleast_2d(np.asarray(sigma, dtype=float))
        if self.trig_table is not None:
            cols = [np.exp(1j * sigma @ K.T) @ C
                    for C, K in zip(self._coeffs, self._freqs)]
            pts = np.stack(cols, axis=1)
        else:
            pts = sigma.astype(complex)
        return r * pts

    def frames(self, sigma):
        """Complex frame [∂_r X, tangents] at radius 1 over each sample.

        Torus links use the analytic angle derivatives; sphere links use an
        explicit orthonormal tangent pair completing σ to a right-handed
        basis.
        """
        sigma = np.atleast_2d(np.asarray(sigma, dtype=float))
        npts = len(sigma)
        if self.trig_table is not None:
            dim = sigma.shape[1]
            frame = np.empty((npts, dim + 1, self.m), dtype=complex)
            frame[:, 0, :] = self.embed(sigma, 1.0)
            for a in range(dim):
                for j, (C, K) in enumerate(zip(self._coeffs, self._freqs)):
                    frame[:, a + 1, j] = np.exp(1j * sigma @ K.T) @ (1j * K[:, a] * C)
            return frame
        # sphere link: tangent pair from the smallest-component axis
        frame = np.empty((npts, 3, self.m), dtype=complex)
        frame[:, 0, :] = sigma
        axis = np.argmin(np.abs(sigma), axis=1)
        helper = np.zeros_like(sigma)
        helper[np.arange(npts), axis] = 1.0
        t1 = np.cross(sigma, helper)
        t1 /= np.linalg.norm(t1, axis=1, keepdims=True)
        t2 = np.cross(sigma, t1)
        frame[:, 1, :] = t1
        frame[:, 2, :] = t2
        return frame

    # -- geometric checks

    def validate(self):
        """Frame one link sample; set ``phase_theta`` and ``link_points``; check the cone.

        A sphere cone takes 12² points, a trig table the n×n angle grid with
        n = max(12, 2·m·max|k| + 1), finer than every frequency of the checks and
        of the moment maps.  ``link_points`` is the frame's first column, at r = 1.
        θ is the frame determinant's phase at the first sample (σ = 0).  A trig
        table's metric ``H_ab = Re⟨∂_aX, ∂_bX⟩`` at σ = 0 must hold at every
        sample and match ``link`` (``None`` becomes ``FlatTorus(H)``).  Returns
        the unit-link, Lagrangian and special deviations, each at most 1e−10.
        """
        tol, n = 1e-10, 12
        if self.trig_table is not None:
            n = max(n, 2 * self.m * int(max(np.abs(K).max() for K in self._freqs)) + 1)
            check_count(n ** self._freqs[0].shape[1], "validation samples", "use smaller k")
        frame = self.frames(self.link_samples(n))
        dets = np.linalg.det(frame)
        self.link_points = frame[:, 0]
        self.phase_theta = float(cmath.phase(complex(dets[0])))
        gram = np.einsum("naj,nbj->nab", frame.conj(), frame)
        if self.trig_table is not None:
            metrics = gram[:, 1:, 1:].real
            if not np.abs(metrics - metrics[0]).max() <= tol:
                raise ValidationError("embedding does not induce a constant link metric")
            if self.link is None:
                self.link = FlatTorus(metrics[0])
            elif np.abs(self.link.metric - metrics[0]).max() > tol:
                raise ValidationError("link metric is not the one the embedding induces")
        unit = float(np.abs(np.linalg.norm(frame[:, 0], axis=1) - 1.0).max())
        lag = float(np.abs(gram.imag).max())
        spec = float(np.abs(np.imag(np.exp(-1j * self.phase_theta) * dets)).max())
        if not unit <= tol:
            raise ValidationError(f"link leaves the unit sphere (dev {unit:.2e})")
        if not lag <= tol:
            raise ValidationError(f"cone is not Lagrangian (omega dev {lag:.2e})")
        if not spec <= tol:
            raise ValidationError(f"cone is not special with phase "
                                  f"{self.phase_theta:.6f} (dev {spec:.2e})")
        return {"unit_link": unit, "lagrangian": lag, "special": spec}

    def to_json(self):
        if self.trig_table is None:
            raise ValidationError("only trig-table cones serialize to JSON")
        return {
            "name": self.name,
            "m": self.m,
            "dim_G": self.dim_G,
            "coordinates": [
                [{"c": [c.real, c.imag], "k": [int(x) for x in k]}
                 for c, k in zip(C, K)]
                for C, K in zip(self._coeffs, self._freqs)
            ],
        }


def harvey_lawson_torus():
    """The T² cone ``{(r e^{iφ₁}, r e^{iφ₂}, r e^{−i(φ₁+φ₂)})/√3}`` in ℂ³.

    Its link is flat T² with the induced constant metric
    ``H = (1/3)[[2,1],[1,2]]``; the cone is special with phase π and carries
    a 2-torus of symmetries (dim G = 2).
    """
    s = 1.0 / math.sqrt(3.0)
    table = [
        [(s, (1, 0))],
        [(s, (0, 1))],
        [(s, (-1, -1))],
    ]
    link = FlatTorus(np.array([[2.0, 1.0], [1.0, 2.0]]) / 3.0)
    return SLCone("hl-torus-3", 3, link, dim_G=2, trig_table=table)


def plane_cone():
    """The degenerate control case ℝ³ ⊂ ℂ³ (link S², dim G = dim SO(3) = 3)."""
    return SLCone("plane-3", 3, RoundSphere(2), dim_G=3)


def cone_from_json(path):
    """Build a cone, linked by its induced metric, from a JSON trig-monomial file.

    Fields: ``name``, an integer ``m`` ≥ 3, an integer ``dim_G`` = dim G from 0 to
    m² − 1 (G ⊂ SU(m); default 0) and ``coordinates``, one nonempty list of monomials
    ``{"c": [re, im], "k": [k1, ..., k_{m−1}]}`` per coordinate.
    The integer frequencies must span ``Z^{m−1}`` (their maximal minors have
    gcd 1).  Any failure raises :class:`ValidationError` naming the file.
    """
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
        m, dim_G = data["m"], data.get("dim_G", 0)
        if type(m) is not int or m < 3 or type(dim_G) is not int or not 0 <= dim_G < m * m:
            raise ValidationError(f"need an integer m >= 3 and an integer dim_G from 0 to "
                                  f"m^2 - 1, got m={m!r} and dim_G={dim_G!r}")
        table = [[(complex(mono["c"][0], mono["c"][1]), tuple(mono["k"])) for mono in coord]
                 for coord in data["coordinates"]]
        ks = [k for coord in table for _, k in coord]
        if (len(table) != m or not all(table)
                or any(len(k) != m - 1 or any(type(x) is not int for x in k) for k in ks)):
            raise ValidationError(f"need {m} nonempty monomial lists, each monomial with "
                                  f"m - 1 integer frequencies k")
        check_count(math.comb(len(ks), m - 1), "frequency minors", "use fewer monomials")
        gcd = math.gcd(*(round(np.linalg.det(np.array(rows, dtype=float)))
                         for rows in itertools.combinations(ks, m - 1)))
        if gcd != 1:
            raise ValidationError(f"the frequencies k must span all of Z^{m - 1}, but the gcd "
                                  f"of their minors is {gcd}")
        return SLCone(data.get("name", "custom"), m, None, dim_G, trig_table=table)
    except (OSError, ValueError, LookupError, TypeError, AttributeError, OverflowError) as exc:
        # ValidationError is a ValueError: every failure is re-raised naming the file
        what = f"no field {exc}" if isinstance(exc, KeyError) else exc
        raise ValidationError(f"cone file {path}: {what}") from exc


def catalog_cone(name):
    """Look up a built-in cone by CLI name."""
    catalog = {"hl-torus-3": harvey_lawson_torus, "plane-3": plane_cone}
    if name not in catalog:
        raise ValidationError(
            f"unknown cone {name!r}; built-ins: {sorted(catalog)}")
    return catalog[name]()


# --- stability ---------------------------------------------------------------


@dataclass
class StabilityReport:
    index: int
    count_up_to_2: int
    harmonic_counts: dict
    rank_translations: int
    rank_su: int
    expected_rank_translations: int
    expected_rank_su: int
    degenerate: bool
    warnings: list = field(default_factory=list)


def _gap_rank(svals, name):
    """Numerical rank from descending singular values: the count above ``1e-8·σ₀``.

    The count is trusted only at a clear gap: when a value is dropped, the
    smallest kept one must exceed the largest dropped one by a factor of at
    least 1e4, otherwise :class:`NumericalError` naming the cone is raised.
    """
    rank = int((svals > 1e-8 * svals[0]).sum())
    if 0 < rank < len(svals) and svals[rank - 1] < 1e4 * svals[rank]:
        raise NumericalError(
            f"cone {name}: moment-map span rank is ambiguous: singular values "
            f"{svals[rank - 1]:.3g} (kept) and {svals[rank]:.3g} (dropped) are within "
            f"a factor 1e4")
    return rank


def stability_index(cone):
    """Stability index of a special Lagrangian cone, with rank diagnostics.

    The index is the multiplicity-weighted number of homogeneity exponents
    in the closed interval [0, 2] minus ``m² + 2m − dim G``, the dimension
    count of the harmonic functions generated by rigid motions and dilation;
    the exponents come from the cone's link spectrum, in a window up to 3.
    The report also carries the numerically measured dimensions of the
    spans of the moment maps restricted to the link, for generators ranging
    over translations and over ``su(m)``; for a non-degenerate cone these
    equal ``2m`` and ``m² − 1 − dim G``.  They are read on ``cone.link_points``:
    that angle grid samples the moment maps (frequencies ≤ 2·max|k|) without
    aliasing, and 144 sphere points exceed the dimension (10) of quadratics on ℝ³.
    """
    table = ExponentTable.for_link(cone.link, 3.0)
    m = cone.m
    counts = {k: table.multiplicity(float(k)) for k in (0, 1, 2)}
    # exponents in [0, 2) and at 2: together the closed interval [0, 2]
    count_up_to_2 = table.count_M(2.0) + counts[2]
    index = count_up_to_2 - m * m - 2 * m + cone.dim_G

    def span_rank(elements):
        rows = np.stack([moment_eval(X, cone.link_points) for X in elements])
        return _gap_rank(np.linalg.svd(rows, compute_uv=False), cone.name)

    rank_tr = span_rank([MomentElement(np.zeros((m, m)), v) for v in translation_basis(m)])
    rank_su = span_rank([MomentElement(A, np.zeros(m)) for A in su_basis(m)])

    exp_tr, exp_su = 2 * m, m * m - 1 - cone.dim_G
    warnings = []
    degenerate = rank_tr < exp_tr or rank_su < exp_su
    if degenerate:
        warnings.append(
            f"moment-map restriction is not injective (ranks {rank_tr}/{exp_tr} "
            f"translations, {rank_su}/{exp_su} su({m})); index may undercount")
    if index < 0:
        warnings.append("negative index: cone fails the stability count")
    return StabilityReport(index, count_up_to_2, counts, rank_tr, rank_su,
                           exp_tr, exp_su, degenerate, warnings)
