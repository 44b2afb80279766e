"""Link manifolds and their Laplace–Beltrami spectra.

A Riemannian cone ``C = Σ × (0, ∞)`` with metric ``dr² + r² h`` is
determined by its link ``(Σ, h)``.  Homogeneous harmonic functions
``r^α φ(σ)`` on the cone correspond to link eigenfunctions

    Δ_h φ = −α(α + m − 2) φ,

so everything downstream (exponent tables, Fredholm counts, stability
indices) starts from the spectrum of ``Δ_h``.

Three link descriptions are supported:

* :class:`FlatTorus` — ``T^d`` with a constant metric ``H`` in angle
  coordinates of period 2π.  Eigenfunctions are ``e^{i k·σ}`` over integer
  vectors ``k`` with eigenvalue ``kᵀ H⁻¹ k``; the spectrum is enumerated
  exactly.
* :class:`RoundSphere` — the unit ``S^d``; eigenvalue ``l(l + d − 1)`` with
  the classical multiplicity.
* :class:`MeshLink` — a closed triangulated surface, either embedded
  (vertices in R³) or intrinsic (per-face edge lengths); cotangent
  stiffness with lumped mass, eigenvalues by shift-invert Lanczos.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from . import _EXPORTS
from .errors import NumericalError, ValidationError, check_count

__all__ = list(_EXPORTS["links"])


@dataclass(frozen=True)
class EigenEntry:
    """One eigenvalue of the link Laplacian with its multiplicity.

    ``lam`` is the eigenvalue of −Δ_h (so ``lam ≥ 0``), ``multiplicity``
    the dimension of its eigenspace, and ``basis_tag`` a short label for
    how the eigenspace is realised (a lattice representative, a spherical
    degree, or ``"mesh"``).
    """

    lam: float
    multiplicity: int
    basis_tag: str = ""

    def __post_init__(self):
        if not self.lam >= 0:
            raise ValidationError(f"link eigenvalue must be >= 0, got {self.lam}")
        if self.multiplicity < 1:
            raise ValidationError("multiplicity must be a positive integer")


#: relative distance within which two eigenvalues of an exact spectrum are one
EXACT_TOL = 1e-9

#: the flags that set an eigenvalue bound, named by every refusal of one
_BOUND_FLAGS = "--lmax, --alpha-max or --gamma (whichever the command has)"


def _check_bound(lam_max):
    """Refuse an eigenvalue bound that is not finite and >= 0: −Δ_h has no eigenvalue below 0."""
    if not 0 <= lam_max < math.inf:
        raise ValidationError(f"eigenvalue bound lam_max={lam_max:g} must be finite and >= 0; "
                              f"change {_BOUND_FLAGS}")


def _clusters(sorted_vals, tol):
    """Runs ``(i, j)`` of ``sorted_vals`` within ``tol·max(1, v)`` above their first value v."""
    i = 0
    while i < len(sorted_vals):
        bound = sorted_vals[i] + tol * max(1.0, sorted_vals[i])
        j = i + 1
        while j < len(sorted_vals) and sorted_vals[j] <= bound:
            j += 1
        yield i, j
        i = j


def _check_sorted(entries):
    lams = [e.lam for e in entries]
    if any(b <= a for a, b in zip(lams, lams[1:])):
        raise ValidationError("eigenvalues must be strictly increasing")
    return entries


# --- flat torus -------------------------------------------------------------


def angle_grid(n, dim):
    """Uniform ``n^dim`` sample grid of angle coordinates in [0, 2π)."""
    phi = 2.0 * np.pi * np.arange(n) / n
    grids = np.meshgrid(*([phi] * dim), indexing="ij")
    return np.stack([g.ravel() for g in grids], axis=1)


class FlatTorus:
    """Flat torus ``T^d = (R/2πZ)^d`` with constant metric matrix ``H``."""

    def __init__(self, metric):
        H = np.atleast_2d(np.asarray(metric, dtype=float))
        if H.shape[0] != H.shape[1]:
            raise ValidationError("metric must be square")
        if H.size == 0:
            raise ValidationError("flat torus needs dimension >= 1, got an empty metric")
        if not np.all(np.isfinite(H)):
            raise ValidationError(f"metric entries must be finite, got {H.tolist()}")
        if not np.allclose(H, H.T, atol=1e-12):
            raise ValidationError("metric must be symmetric")
        if np.linalg.eigvalsh(H).min() <= 0:
            raise ValidationError("metric must be positive definite")
        self.metric = H
        self.dim = H.shape[0]
        self._Hinv = np.linalg.inv(H)
        if not np.all(np.isfinite(self._Hinv)):
            raise ValidationError(f"metric {H.tolist()} is too near singular: its inverse "
                                  f"is not finite")

    def __repr__(self):
        return f"FlatTorus(dim={self.dim})"

    def spectrum(self, lam_max):
        """All eigenvalues ≤ ``lam_max`` as sorted :class:`EigenEntry` rows.

        Integer vectors are enumerated over the bounding box of the
        ellipsoid ``kᵀH⁻¹k ≤ lam_max`` (``k_i² ≤ lam_max·H_ii``); a box of
        more than :data:`~conic_lmcf.errors.COUNT_LIMIT` points is refused.
        """
        _check_bound(lam_max)
        radii = [math.sqrt(lam_max * self.metric[i, i]) + 1e-9 for i in range(self.dim)]
        check_count(math.prod(2 * r + 1 for r in radii),
                    f"lattice points with k^T H^-1 k <= {lam_max:g} in their bounding box",
                    f"lower {_BOUND_FLAGS}")
        bounds = [math.floor(r) for r in radii]
        grids = np.meshgrid(*[np.arange(-b, b + 1) for b in bounds], indexing="ij")
        ks = np.stack([g.ravel() for g in grids], axis=1)
        lams = np.einsum("ni,ij,nj->n", ks, self._Hinv, ks)
        keep = lams <= lam_max + EXACT_TOL
        ks, lams = ks[keep], lams[keep]
        order = np.argsort(lams)
        ks, lams = ks[order], lams[order]
        entries = []
        for i, j in _clusters(lams, EXACT_TOL):
            # a lexicographically largest representative of a nonzero eigenvalue
            rep = max(map(tuple, ks[i:j])) if lams[i] > EXACT_TOL else ks[i]
            tag = "k=(" + ",".join(str(int(c)) for c in rep) + ")"
            entries.append(EigenEntry(float(np.mean(lams[i:j])), j - i, tag))
        return _check_sorted(entries)

    def triangulate(self, n):
        """Intrinsic triangulation with ``n²`` vertices (dim 2 only).

        The flat torus generally has no isometric embedding in R³, so the
        mesh is built from per-face edge lengths measured in the metric
        ``H`` rather than from embedded vertex positions.
        """
        if self.dim != 2:
            raise ValidationError("triangulate is implemented for dim=2 links")
        h = 2.0 * np.pi / n

        def elen(v):
            v = np.asarray(v, dtype=float)
            return h * math.sqrt(v @ self.metric @ v)

        idx = lambda i, j: (i % n) * n + (j % n)
        faces = []
        lengths = []
        # each grid cell splits along the (1,1) diagonal
        l_a, l_b, l_d = elen([1, 0]), elen([0, 1]), elen([1, 1])
        for i in range(n):
            for j in range(n):
                # lower triangle (i,j) (i+1,j) (i+1,j+1); opposite-edge lengths
                faces.append((idx(i, j), idx(i + 1, j), idx(i + 1, j + 1)))
                lengths.append((l_b, l_d, l_a))
                # upper triangle (i,j) (i+1,j+1) (i,j+1)
                faces.append((idx(i, j), idx(i + 1, j + 1), idx(i, j + 1)))
                lengths.append((l_a, l_b, l_d))
        return MeshLink.from_intrinsic(n * n, faces, lengths)


# --- round sphere -----------------------------------------------------------


def sphere_multiplicity(l, dim):
    """Dimension of the degree-``l`` spherical-harmonic space on ``S^dim``."""
    n = dim + 1  # ambient variables
    low = math.comb(n + l - 3, l - 2) if l >= 2 else 0
    return math.comb(n + l - 1, l) - low


class RoundSphere:
    """Unit round sphere ``S^dim``."""

    def __init__(self, dim):
        if int(dim) < 1:
            raise ValidationError("sphere dimension must be >= 1")
        self.dim = int(dim)

    def __repr__(self):
        return f"RoundSphere(dim={self.dim})"

    def spectrum(self, lam_max):
        """Eigenvalues ``l(l + dim − 1) ≤ lam_max``; more than COUNT_LIMIT of them are refused."""
        _check_bound(lam_max)
        # the degrees l >= 0 with l(l + d - 1) <= lam_max + EXACT_TOL, counted in closed form
        d = self.dim - 1
        check_count(1 + (math.sqrt(d * d + 4 * (lam_max + EXACT_TOL)) - d) / 2,
                    f"eigenvalues of S^{self.dim} up to {lam_max:g}", f"lower {_BOUND_FLAGS}")
        entries = []
        l = 0
        while l * (l + self.dim - 1) <= lam_max + EXACT_TOL:
            entries.append(EigenEntry(float(l * (l + self.dim - 1)),
                                      sphere_multiplicity(l, self.dim), f"l={l}"))
            l += 1
        return _check_sorted(entries)


# --- triangulated meshes ----------------------------------------------------


def read_off(path):
    """Read an OFF file; returns ``(vertices, faces)`` arrays.

    ``#`` starts a comment that runs to the end of its line.  Every face
    must be a triangle record ``3 i j k``, and the file ends with the last
    record the header promises.  A file that cannot be read, a malformed or
    truncated record, trailing data, a non-triangle face or a non-finite
    coordinate raises :class:`ValidationError` naming the file.
    """
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise ValidationError(f"cannot read mesh file {path}: {exc}") from exc
    if "#" in text:
        text = "\n".join(line.split("#", 1)[0] for line in text.splitlines())
    tokens = text.split()
    if not tokens or tokens[0] != "OFF":
        raise ValidationError(f"{path} is not an OFF file (missing OFF header)")
    try:
        nv, nf = int(tokens[1]), int(tokens[2])
    except (IndexError, ValueError) as exc:
        raise ValidationError(f"{path}: malformed OFF header counts") from exc
    if nv < 1 or nf < 1:
        raise ValidationError(f"{path}: OFF header needs positive vertex and face "
                              f"counts, got {nv} and {nf}")
    pos = 4 + 3 * nv
    end = pos + 4 * nf
    if len(tokens) < end:
        raise ValidationError(f"{path} is truncated: the header promises {nv} "
                              f"vertices and {nf} triangles")
    try:
        verts = np.array(tokens[4:pos], dtype=float).reshape(nv, 3)
        records = np.array(tokens[pos:end], dtype=int).reshape(nf, 4)
    except ValueError as exc:
        raise ValidationError(f"{path}: malformed vertex or face record") from exc
    # records stay aligned up to the first non-triangle, whose count is then
    # read in the first column
    if np.any(records[:, 0] != 3):
        raise ValidationError(f"{path}: only triangle faces are supported")
    if len(tokens) > end:
        raise ValidationError(f"{path} has {len(tokens) - end} trailing tokens after "
                              f"the {nv} vertices and {nf} triangles its header promises")
    if not np.all(np.isfinite(verts)):
        raise ValidationError(f"{path}: vertex coordinates must be finite")
    return verts, records[:, 1:]


class MeshLink:
    """Closed orientable triangulated surface link.

    Stores faces plus, per face, the lengths of the edges opposite each
    corner.  Embedded meshes compute those from vertex positions; intrinsic
    meshes supply them directly.  Eigenvalues come from shift-invert Lanczos
    in standard form on the cotangent stiffness ``K`` and the diagonal lumped
    mass ``M``, about σ = −1/area: ``K − σM`` is factored once by a
    symmetric-mode sparse LU, the constant mode is deflated (its zero
    eigenvalue is exact), and the start vector is fixed, so repeated solves
    return the same bits and a mesh scaled by 2^k has its spectrum scaled by
    exactly 4^−k.
    """

    dim = 2

    def __init__(self, vertices, faces):
        vertices = np.asarray(vertices, dtype=float)
        faces = np.asarray(faces, dtype=int)
        self._validate_closed(len(vertices), faces)
        v0, v1, v2 = (vertices[faces[:, i]] for i in range(3))
        # a length too large to square comes out infinite; _build_system refuses it
        with np.errstate(over="ignore", invalid="ignore"):
            lengths = np.stack([
                np.linalg.norm(v2 - v1, axis=1),   # opposite corner 0
                np.linalg.norm(v0 - v2, axis=1),
                np.linalg.norm(v1 - v0, axis=1),
            ], axis=1)
        self._init_intrinsic(len(vertices), faces, lengths)

    @classmethod
    def from_intrinsic(cls, n_vertices, faces, face_edge_lengths):
        obj = cls.__new__(cls)
        faces = np.asarray(faces, dtype=int)
        cls._validate_closed(n_vertices, faces)
        obj._init_intrinsic(n_vertices, faces, np.asarray(face_edge_lengths, dtype=float))
        return obj

    @classmethod
    def from_off(cls, path):
        """The mesh of an OFF file; every refusal names the file, as :func:`read_off`'s do."""
        vertices, faces = read_off(path)
        try:
            return cls(vertices, faces)
        except ValidationError as exc:
            raise ValidationError(f"{path}: {exc}") from exc

    # -- construction helpers

    @staticmethod
    def _validate_closed(n_vertices, faces):
        """Reject meshes that are not closed, oriented and non-degenerate.

        Directed edge ``u → v`` is encoded as ``u·n + v``.  Each directed edge
        may occur once, and its reverse must occur too.  Degenerate faces are
        reported first, by number.
        """
        if faces.ndim != 2 or faces.shape[1] != 3 or len(faces) == 0:
            raise ValidationError("faces must be a nonempty (n, 3) index array")
        if faces.min() < 0 or faces.max() >= n_vertices:
            raise ValidationError("face index out of range")
        u = faces.ravel()               # edges (a,b), (b,c), (c,a) of each face
        v = faces[:, [1, 2, 0]].ravel()
        degenerate = np.flatnonzero(u == v)
        if degenerate.size:
            raise ValidationError(f"degenerate face {degenerate[0] // 3}")
        keys = np.sort(u * n_vertices + v)
        if np.any(keys[1:] == keys[:-1]):
            raise ValidationError("mesh is not orientable (repeated directed edge)")
        # the keys are distinct, so the mesh is closed exactly when reversing
        # every edge gives back the same set of keys
        if not np.array_equal(np.sort(v * n_vertices + u), keys):
            raise ValidationError("mesh is not closed (boundary edge found)")

    def _init_intrinsic(self, n_vertices, faces, lengths):
        if lengths.shape != (len(faces), 3):
            raise ValidationError("need one opposite-edge length per face corner")
        self.n_vertices = n_vertices
        self.faces = faces
        self.face_edge_lengths = lengths
        self._build_system()

    def _build_system(self):
        # SciPy's sparse stack loads only here and in eigenvalues, so the
        # lattice and sphere links never pay for the import
        import scipy.sparse as sp

        faces, L = self.faces, self.face_edge_lengths
        a, b, c = L[:, 0], L[:, 1], L[:, 2]
        # Heron's formula in Kahan's stable order, on the lengths sorted
        # x >= y >= z, so that a needle triangle keeps its area
        z, y, x = np.sort(L, axis=1).T
        with np.errstate(over="ignore", invalid="ignore"):
            area2 = (x + (y + z)) * (z - (x - y)) * (z + (x - y)) * (x + (y - z)) / 16.0
            scales = np.concatenate([(L * L).ravel(), area2])
        if np.any(area2 <= 0):
            raise ValidationError("degenerate triangle (violates triangle inequality)")
        # the cotangent weights divide squared lengths by areas
        if not np.all((sys.float_info.min <= scales) & (scales < math.inf)):
            raise ValidationError("mesh squared edge lengths or squared triangle areas leave "
                                  "the float range; rescale the mesh")
        area = np.sqrt(area2)
        # cot at corner i, where L[:, i] is the opposite edge
        cots = np.stack([
            (b * b + c * c - a * a),
            (c * c + a * a - b * b),
            (a * a + b * b - c * c),
        ], axis=1) / (4.0 * area)[:, None]

        n = self.n_vertices
        # corner c adds −w, −w, w, w (w = cot/2) at (i, j), (j, i), (i, i), (j, j) for its
        # other corners i, j; CSR sums duplicates in this corner, entry, face order
        i, j, w = faces[:, [1, 2, 0]].T, faces[:, [2, 0, 1]].T, 0.5 * cots.T
        rows = np.stack([i, j, i, j], axis=1).ravel()
        cols = np.stack([j, i, i, j], axis=1).ravel()
        vals = np.stack([-w, -w, w, w], axis=1).ravel()
        self.stiffness = sp.csr_matrix((vals, (rows, cols)), shape=(n, n))
        # a third of each face's area to each of its corners, corner by corner
        self.mass = sp.diags(np.bincount(faces.T.ravel(), np.tile(area / 3.0, 3), n))

    # -- spectrum

    def eigenvalues(self, count):
        """Lowest ``count`` eigenvalues of Δ_h (raw, with multiplicity).

        Shift-invert Lanczos in standard form.  With ``S = M^½`` (the lumped
        mass is diagonal), ``K x = λ M x`` becomes ``S⁻¹ K S⁻¹ y = λ y``, and
        ARPACK's regular mode runs on ``OP = S·(K − σM)⁻¹·S``, whose largest
        eigenvalues ``ν = 1/(λ − σ)`` are the lowest λ; no product with ``M``
        is needed.  The shift σ = −1/area is in the mesh's units, so scaling a
        mesh by 2^k scales every eigenvalue by exactly 4^−k.  ``K − σM`` is
        symmetric positive definite (a Gram matrix of P1 gradients plus a
        positive lumped mass), so SuperLU factors it in symmetric mode: a
        minimum-degree ordering of its symmetric pattern and no pivoting.
        On a closed mesh the constant is the exact kernel, ``S·1/‖S·1‖`` in
        these coordinates: it is projected out of the fixed start vector and
        out of every ``OP`` result, ARPACK finds the other ``count − 1``
        values, and λ₀ = 0 is prepended exactly.
        """
        import scipy.sparse.linalg as spla

        n = self.n_vertices
        if count < 1 or count >= n - 1:
            raise ValidationError(f"count must be between 1 and {n - 2} for a mesh "
                                  f"with {n} vertices, got {count}")
        if count == 1:
            return np.zeros(1)
        mass = self.mass.diagonal()
        sigma = -1.0 / mass.sum()
        # K − σM is symmetric, so its CSR arrays are those of a CSC matrix
        lu = spla.splu((self.stiffness - sigma * self.mass).T,
                       permc_spec="MMD_AT_PLUS_A", diag_pivot_thresh=0.0,
                       options={"SymmetricMode": True})
        root = np.sqrt(mass)
        kernel = root / np.linalg.norm(root)

        def deflated(x):
            return x - (kernel @ x) * kernel

        shift_inverse = spla.LinearOperator(
            (n, n), matvec=lambda x: deflated(root * lu.solve(root * x)), dtype=float)
        start = deflated(np.random.default_rng(0).uniform(-1.0, 1.0, n))
        try:
            nu = spla.eigsh(shift_inverse, k=count - 1, which="LA", v0=start,
                            return_eigenvectors=False)
        except spla.ArpackNoConvergence as exc:
            raise NumericalError(
                f"mesh eigen-solve (shift-invert Lanczos) did not converge: "
                f"{len(exc.eigenvalues) + 1} of {count} eigenvalues converged; "
                f"change --count") from exc
        vals = np.sort(1.0 / nu + sigma)
        return np.concatenate([[0.0], np.clip(vals, 0.0, None)])

    def spectrum(self, lam_max=None, count=10, group_tol=1e-4):
        """Grouped :class:`EigenEntry` rows for the lowest modes.

        Discretization splits continuum multiplicities, so grouping uses a
        coarse relative tolerance appropriate for mesh data.  ``lam_max`` keeps
        the rows up to it, and must be finite, >= 0 and below the largest of
        the ``count``.
        """
        if lam_max is not None:
            _check_bound(lam_max)
        vals = self.eigenvalues(count)
        if lam_max is not None:
            if vals[-1] <= lam_max * (1 + group_tol):
                raise ValidationError(f"the {count} lowest mesh eigenvalues reach only "
                                      f"{vals[-1]:.6g}, not {lam_max:g}; lower --alpha-max")
            vals = vals[vals <= lam_max * (1 + group_tol)]
        entries = [EigenEntry(float(np.mean(vals[i:j])), j - i, "mesh")
                   for i, j in _clusters(vals, group_tol)]
        return _check_sorted(entries)
