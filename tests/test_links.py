"""Link spectra: lattice enumeration, spheres, and triangulated meshes."""

from __future__ import annotations

import math
import re

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse.linalg
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.sparse.linalg import ArpackNoConvergence

from conic_lmcf import (
    EigenEntry,
    FlatTorus,
    MeshLink,
    NumericalError,
    RoundSphere,
    ValidationError,
    read_off,
    sphere_multiplicity,
)
from conic_lmcf.errors import COUNT_LIMIT, check_count

HEX_METRIC = np.array([[2.0, 1.0], [1.0, 2.0]]) / 3.0


def brute_force_torus_spectrum(metric, lam_max, kmax=40):
    """Independent oracle: enumerate integer covectors directly."""
    hinv = np.linalg.inv(np.asarray(metric, dtype=float))
    found = {}
    for k1 in range(-kmax, kmax + 1):
        for k2 in range(-kmax, kmax + 1):
            k = np.array([k1, k2], dtype=float)
            lam = float(k @ hinv @ k)
            if lam <= lam_max + 1e-9:
                key = round(lam, 6)
                found[key] = found.get(key, 0) + 1
    return sorted(found.items())


def test_hex_torus_spectrum_matches_brute_force():
    torus = FlatTorus(HEX_METRIC)
    entries = torus.spectrum(10.0)
    got = [(e.lam, e.multiplicity) for e in entries]
    expected = brute_force_torus_spectrum(HEX_METRIC, 10.0)
    assert len(got) == len(expected)
    for (lam, mult), (lam_ref, mult_ref) in zip(got, expected):
        assert abs(lam - lam_ref) < 1e-8
        assert mult == mult_ref


def test_hex_torus_first_four_eigenvalues():
    entries = FlatTorus(HEX_METRIC).spectrum(10.0)
    assert [(round(e.lam, 9), e.multiplicity) for e in entries] == [
        (0.0, 1), (2.0, 6), (6.0, 6), (8.0, 6)]


def test_mirrored_metric_same_spectrum():
    # flipping the sign of the off-diagonal entry relabels lattice points
    mirrored = np.array([[2.0, -1.0], [-1.0, 2.0]]) / 3.0
    a = [(e.lam, e.multiplicity) for e in FlatTorus(HEX_METRIC).spectrum(12.0)]
    b = [(e.lam, e.multiplicity) for e in FlatTorus(mirrored).spectrum(12.0)]
    assert len(a) == len(b)
    for (la, ma), (lb, mb) in zip(a, b):
        assert abs(la - lb) < 1e-9
        assert ma == mb


def test_circle_spectrum():
    circle = FlatTorus(np.array([[1.0]]))
    entries = circle.spectrum(5.0)
    assert [(round(e.lam, 9), e.multiplicity) for e in entries] == [
        (0.0, 1), (1.0, 2), (4.0, 2)]


def test_spectrum_entries_sorted_and_positive_multiplicity():
    entries = FlatTorus(HEX_METRIC).spectrum(30.0)
    lams = [e.lam for e in entries]
    assert lams == sorted(lams)
    assert all(e.multiplicity >= 1 for e in entries)
    assert lams[0] == 0.0 and entries[0].multiplicity == 1


def test_eigen_entry_validation():
    with pytest.raises(ValidationError):
        EigenEntry(-1.0, 2)
    with pytest.raises(ValidationError):
        EigenEntry(1.0, 0)


def test_torus_metric_validation():
    with pytest.raises(ValidationError):
        FlatTorus(np.array([[1.0, 2.0], [2.0, 1.0]]))  # not positive definite
    with pytest.raises(ValidationError):
        FlatTorus(np.array([[1.0, 0.5], [0.4, 1.0]]))  # not symmetric
    for bad in ([[np.inf, 0.0], [0.0, 1.0]], [[np.nan, 0.0], [0.0, 1.0]]):
        with pytest.raises(ValidationError, match="metric entries must be finite"):
            FlatTorus(np.array(bad))
    with pytest.raises(ValidationError, match="inverse is not finite"):
        FlatTorus(np.array([[1.0, 0.0], [0.0, 1e-320]]))  # positive definite, inverse inf


# ---------------------------------------------------------------------------
# spheres


def harmonic_dimension_by_rank(l, ambient):
    """Oracle: dim of degree-l harmonics = dim P_l − rank is wrong; use
    dim P_l − dim P_{l−2} (Laplacian onto lower degree is surjective),
    computed here via an explicit rank so the surjectivity is *checked*."""
    if l == 0:
        return 1
    # monomial bases of total degree l and l-2
    def monomials(deg, nvars):
        if nvars == 1:
            return [(deg,)]
        out = []
        for d in range(deg + 1):
            out.extend((d,) + rest for rest in monomials(deg - d, nvars - 1))
        return out

    def laplacian_coeff(mono, var):
        e = mono[var]
        if e < 2:
            return None, 0.0
        target = list(mono)
        target[var] = e - 2
        return tuple(target), float(e * (e - 1))

    basis_hi = monomials(l, ambient)
    basis_lo = monomials(l - 2, ambient) if l >= 2 else []
    if not basis_lo:
        return len(basis_hi)
    index_lo = {m: i for i, m in enumerate(basis_lo)}
    mat = np.zeros((len(basis_lo), len(basis_hi)))
    for j, mono in enumerate(basis_hi):
        for var in range(ambient):
            tgt, c = laplacian_coeff(mono, var)
            if tgt is not None:
                mat[index_lo[tgt], j] += c
    rank = np.linalg.matrix_rank(mat)
    return len(basis_hi) - rank


@pytest.mark.parametrize("dim", [2, 3, 4])
def test_sphere_multiplicity_matches_rank_oracle(dim):
    for l in range(6):
        assert sphere_multiplicity(l, dim) == harmonic_dimension_by_rank(l, dim + 1)


def test_sphere_spectrum_s2():
    entries = RoundSphere(2).spectrum(10.0)
    assert [(round(e.lam, 9), e.multiplicity) for e in entries] == [
        (0.0, 1), (2.0, 3), (6.0, 5)]


def test_sphere_eigenvalue_formula():
    sph = RoundSphere(3)
    entries = sph.spectrum(30.0)
    for i, e in enumerate(entries):
        assert abs(e.lam - i * (i + 3 - 1)) < 1e-12
        assert e.multiplicity == sphere_multiplicity(i, 3)


# ---------------------------------------------------------------------------
# triangulated meshes


def octahedron_off_text():
    verts = [
        (1, 0, 0), (-1, 0, 0), (0, 1, 0), (0, -1, 0), (0, 0, 1), (0, 0, -1)]
    faces = [
        (0, 2, 4), (2, 1, 4), (1, 3, 4), (3, 0, 4),
        (2, 0, 5), (1, 2, 5), (3, 1, 5), (0, 3, 5)]
    lines = ["OFF", "6 8 0"]
    lines += [" ".join(str(c) for c in v) for v in verts]
    lines += ["3 " + " ".join(str(i) for i in f) for f in faces]
    return "\n".join(lines) + "\n"


def test_off_round_trip(tmp_path):
    path = tmp_path / "oct.off"
    path.write_text(octahedron_off_text())
    mesh = MeshLink.from_off(path)
    assert mesh.n_vertices == 6
    assert len(mesh.faces) == 8
    ev = mesh.eigenvalues(4)
    assert abs(ev[0]) < 1e-9
    assert ev[1] > 0.1


def test_open_mesh_rejected():
    verts = np.array([[0.0, 0, 0], [1, 0, 0], [0, 1, 0]])
    faces = np.array([[0, 1, 2]])
    with pytest.raises(ValidationError):
        MeshLink(verts, faces)


def test_inconsistent_orientation_rejected():
    verts = np.array([
        [1.0, 0, 0], [-1, 0, 0], [0, 1, 0], [0, -1, 0], [0, 0, 1], [0, 0, -1]])
    faces = np.array([
        [0, 2, 4], [2, 1, 4], [1, 3, 4], [3, 0, 4],
        [2, 0, 5], [1, 2, 5], [3, 1, 5], [3, 0, 5]])  # last face flipped
    with pytest.raises(ValidationError):
        MeshLink(verts, faces)


def test_intrinsic_torus_mesh_converges_quickly():
    link = FlatTorus(HEX_METRIC)
    mesh = link.triangulate(24)
    ev = mesh.eigenvalues(7)
    assert abs(ev[0]) < 1e-8
    # first nonzero lattice eigenvalue is 2 with multiplicity 6
    assert np.all(np.abs(ev[1:7] - 2.0) < 0.08)


def test_mesh_spectrum_groups_multiplicity():
    link = FlatTorus(HEX_METRIC)
    entries = link.triangulate(32).spectrum(count=8, group_tol=0.05)
    assert entries[0].multiplicity == 1
    assert abs(entries[0].lam) < 1e-8
    assert entries[1].multiplicity == 6
    assert abs(entries[1].lam - 2.0) < 0.05


def test_round_sphere_rejects_bad_dim():
    with pytest.raises(ValidationError):
        RoundSphere(0)


def test_sphere_multiplicity_small_values():
    assert [sphere_multiplicity(l, 2) for l in range(4)] == [1, 3, 5, 7]
    assert [sphere_multiplicity(l, 3) for l in range(4)] == [1, 4, 9, 16]
    assert sphere_multiplicity(2, 2) == math.comb(4, 2) - 1


def test_off_reader_skips_comments_and_blank_lines(tmp_path):
    plain = tmp_path / "plain.off"
    plain.write_text(octahedron_off_text())
    lines = octahedron_off_text().splitlines()
    commented = ["# octahedron", "", lines[0] + "  # header", lines[1], "", "   "]
    commented += [line + " # vertex" for line in lines[2:8]]
    commented += ["# faces follow", ""] + lines[8:] + ["# end"]
    noisy = tmp_path / "noisy.off"
    noisy.write_text("\n".join(commented) + "\n")
    for got, want in zip(read_off(noisy), read_off(plain)):
        assert np.array_equal(got, want)


def test_off_reader_rejects_a_quad_face(tmp_path):
    path = tmp_path / "quad.off"
    path.write_text(octahedron_off_text().replace("3 0 3 5", "4 0 3 5 1"))
    with pytest.raises(ValidationError, match="triangle"):
        read_off(path)


def read_off_by_lines(path):
    """Oracle: the line-by-line, face-by-face OFF reader."""
    with open(path, "r", encoding="utf-8") as fh:
        tokens = []
        for line in fh:
            line = line.split("#", 1)[0].strip()
            if line:
                tokens.extend(line.split())
    nv, nf = int(tokens[1]), int(tokens[2])
    pos = 4
    verts = np.array(tokens[pos:pos + 3 * nv], dtype=float).reshape(nv, 3)
    pos += 3 * nv
    faces = []
    for _ in range(nf):
        cnt = int(tokens[pos])
        if cnt != 3:
            raise ValidationError("only triangle faces are supported")
        faces.append([int(t) for t in tokens[pos + 1:pos + 4]])
        pos += cnt + 1
    return verts, np.array(faces, dtype=int)


def test_off_reader_matches_the_line_reader(tmp_path):
    path = tmp_path / "oct.off"
    path.write_text(octahedron_off_text())
    verts, faces = read_off(path)
    ref_verts, ref_faces = read_off_by_lines(path)
    assert verts.dtype == ref_verts.dtype and np.array_equal(verts, ref_verts)
    assert faces.dtype == ref_faces.dtype and np.array_equal(faces, ref_faces)


def validate_closed_by_walk(n_vertices, faces):
    """Oracle: walk the directed edges face by face with a dict."""
    if faces.min() < 0 or faces.max() >= n_vertices:
        raise ValidationError("face index out of range")
    directed = {}
    for f, (a, b, c) in enumerate(faces):
        for u, v in ((a, b), (b, c), (c, a)):
            if u == v:
                raise ValidationError(f"degenerate face {f}")
            if (u, v) in directed:
                raise ValidationError("mesh is not orientable (repeated directed edge)")
            directed[(u, v)] = f
    for (u, v) in directed:
        if (v, u) not in directed:
            raise ValidationError("mesh is not closed (boundary edge found)")


OCTAHEDRON_FACES = [
    (0, 2, 4), (2, 1, 4), (1, 3, 4), (3, 0, 4),
    (2, 0, 5), (1, 2, 5), (3, 1, 5), (0, 3, 5)]


def torus_grid_faces(nu, nv):
    """Closed oriented triangulation of an ``nu × nv`` periodic grid."""
    faces = []
    for i in range(nu):
        for j in range(nv):
            p, q = i * nv + j, ((i + 1) % nu) * nv + j
            r, s = ((i + 1) % nu) * nv + (j + 1) % nv, i * nv + (j + 1) % nv
            faces += [(p, q, r), (p, r, s)]
    return nu * nv, faces


@st.composite
def closed_and_mutated_meshes(draw):
    """A closed mesh with permuted vertices and faces, then a few random edits."""
    shape = draw(st.one_of(st.just((None, None)),
                           st.tuples(st.integers(3, 6), st.integers(3, 6))))
    n, faces = (6, OCTAHEDRON_FACES) if shape[0] is None else torus_grid_faces(*shape)
    perm = draw(st.permutations(range(n)))
    faces = [tuple(perm[k] for k in f) for f in draw(st.permutations(faces))]
    edits = draw(st.lists(st.tuples(st.sampled_from(["flip", "drop", "duplicate", "collapse"]),
                                    st.integers(0, 10**6)), max_size=3))
    for kind, at in edits:
        k = at % len(faces)
        a, b, c = faces[k]
        if kind == "flip":
            faces[k] = (a, c, b)
        elif kind == "drop" and len(faces) > 1:
            del faces[k]
        elif kind == "duplicate":
            faces.insert(at % (len(faces) + 1), faces[k])
        elif kind == "collapse":
            faces[k] = (a, a, c)
    return n, np.array(faces, dtype=int)


def outcome(check, n, faces):
    try:
        check(n, faces)
    except ValidationError as exc:
        return str(exc)
    return None


@settings(max_examples=300, deadline=None)
@given(closed_and_mutated_meshes())
def test_closedness_check_agrees_with_the_edge_walk(mesh):
    n, faces = mesh
    got = outcome(MeshLink._validate_closed, n, faces)
    want = outcome(validate_closed_by_walk, n, faces)
    assert (got is None) == (want is None)
    # with several defects the walk reports whichever comes first in face
    # order, while the array check reports a degenerate face first
    if not np.any(faces == np.roll(faces, 1, axis=1)):
        assert got == want


def test_needle_faces_keep_their_area():
    # the tetrahedron (0,0,0), (1,0,0), (0,1,0), (0,0,1e16): the textbook
    # Heron product cancelled to 0 on its needle faces
    z = 1e16
    mesh = MeshLink([[0, 0, 0], [1, 0, 0], [0, 1, 0], [0, 0, z]],
                    [(0, 2, 1), (0, 1, 3), (1, 2, 3), (0, 3, 2)])
    area = 0.5 + z + 0.5 * math.sqrt(2 * z * z + 1)
    assert mesh.mass.diagonal().sum() == pytest.approx(area, rel=1e-14)


def test_a_face_that_violates_the_triangle_inequality_is_refused():
    faces = [(0, 2, 1), (0, 1, 3), (1, 2, 3), (0, 3, 2)]
    lengths = [(1.0, 1.0, 1.0)] * 3 + [(1.0, 1.0, 2.5)]
    with pytest.raises(ValidationError, match="violates triangle inequality"):
        MeshLink.from_intrinsic(4, faces, lengths)


def test_closedness_check_names_the_degenerate_face():
    faces = np.array(OCTAHEDRON_FACES)
    faces[5] = (1, 1, 5)
    with pytest.raises(ValidationError, match="degenerate face 5"):
        MeshLink._validate_closed(6, faces)


@pytest.mark.parametrize("faces", [np.zeros((0, 3), dtype=int), np.array([0, 1, 2])])
def test_closedness_check_rejects_empty_or_flat_face_arrays(faces):
    with pytest.raises(ValidationError, match="nonempty"):
        MeshLink._validate_closed(6, faces)


def octahedron_link(tmp_path):
    path = tmp_path / "oct.off"
    path.write_text(octahedron_off_text())
    return MeshLink.from_off(path)


@pytest.mark.parametrize("build", [
    lambda tmp_path: FlatTorus(HEX_METRIC).triangulate(8),
    octahedron_link,
])
def test_mesh_eigenvalues_match_a_dense_solve_and_repeat(tmp_path, build):
    mesh = build(tmp_path)
    count = min(7, mesh.n_vertices - 2)
    first = mesh.eigenvalues(count)
    assert first.tobytes() == mesh.eigenvalues(count).tobytes()
    dense = scipy.linalg.eigh(mesh.stiffness.toarray(), mesh.mass.toarray(),
                              eigvals_only=True)
    assert np.max(np.abs(first - np.clip(dense[:count], 0.0, None))) < 1e-12


def test_mesh_eigenvalue_count_must_be_positive():
    mesh = FlatTorus(HEX_METRIC).triangulate(6)
    for count in (0, -1, mesh.n_vertices - 1):
        with pytest.raises(ValidationError, match="count"):
            mesh.eigenvalues(count)


def test_unconverged_mesh_solve_is_a_numerical_error(monkeypatch):
    def no_convergence(*args, **kwargs):
        raise ArpackNoConvergence("ARPACK error -1: No convergence", np.zeros(2), None)

    monkeypatch.setattr(scipy.sparse.linalg, "eigsh", no_convergence)
    with pytest.raises(NumericalError, match="mesh eigen-solve.*2 of 5.*--count"):
        FlatTorus(HEX_METRIC).triangulate(8).eigenvalues(5)


def revolution_torus(nu=16, nv=8, R=2.0, a=0.7):
    """Vertices and faces of a torus of revolution on an ``nu × nv`` grid."""
    i, j = np.meshgrid(np.arange(nu), np.arange(nv), indexing="ij")
    phi, th = 2 * np.pi * i / nu, 2 * np.pi * j / nv
    rho = R + a * np.cos(th)
    vertices = np.stack([rho * np.cos(phi), rho * np.sin(phi), a * np.sin(th)], axis=-1)
    p, q = i * nv + j, (i + 1) % nu * nv + j
    r, s = (i + 1) % nu * nv + (j + 1) % nv, i * nv + (j + 1) % nv
    faces = np.stack([np.stack([p, q, r], -1), np.stack([p, r, s], -1)]).reshape(-1, 3)
    return vertices.reshape(-1, 3), faces


TORUS_VERTICES, TORUS_FACES = revolution_torus()


def rotation(alpha, beta, gamma):
    """The rotation R_z(α)·R_y(β)·R_z(γ)."""
    def about(axis, angle):
        c, s = math.cos(angle), math.sin(angle)
        i, j = [k for k in range(3) if k != axis]
        out = np.eye(3)
        out[i, i], out[i, j], out[j, i], out[j, j] = c, -s, s, c
        return out
    return about(2, alpha) @ about(1, beta) @ about(2, gamma)


ANGLE = st.floats(-math.pi, math.pi)
MESH_SIMILARITIES = {
    # scaling by 2^k divides the eigenvalues by 4^k; undo it, exactly
    "scale": st.integers(-3, 3).map(lambda k: (lambda v, f: (2.0 ** k * v, f), 4.0 ** k)),
    "rotation": st.tuples(ANGLE, ANGLE, ANGLE).map(
        lambda angles: (lambda v, f: (v @ rotation(*angles).T, f), 1.0)),
    "permutation": st.permutations(range(len(TORUS_VERTICES))).map(
        lambda perm: (lambda v, f: (v[perm], np.argsort(perm)[f]), 1.0)),
}


@pytest.mark.parametrize("kind", MESH_SIMILARITIES)
@settings(max_examples=20, deadline=None)
@given(data=st.data())
def test_mesh_spectrum_is_invariant_under_similarities(kind, data):
    # the cotangent Laplacian and lumped mass read only edge lengths, so a
    # rotation or relabelling keeps the spectrum and a scaling divides it by s²;
    # the zero eigenvalue reads 2.8e-15 at one scale and 0 at another, so the
    # round-off is measured against λ_max
    move, undo = data.draw(MESH_SIMILARITIES[kind], label=kind)
    plain = MeshLink(TORUS_VERTICES, TORUS_FACES).eigenvalues(10)
    moved = MeshLink(*move(TORUS_VERTICES, TORUS_FACES)).eigenvalues(10)
    assert np.max(np.abs(moved * undo - plain)) <= 1e-12 * plain.max()


@pytest.mark.parametrize("link", [RoundSphere(2), FlatTorus(np.eye(2))])
@pytest.mark.parametrize("lam_max", [math.inf, math.nan])
def test_spectrum_rejects_a_non_finite_bound(link, lam_max):
    with pytest.raises(ValidationError, match="lam_max"):
        link.spectrum(lam_max)


@pytest.mark.parametrize("link, lam_max", [(RoundSphere(2), 1e30), (RoundSphere(5), 1e13),
                                           (FlatTorus(np.eye(2)), 1e12),
                                           (FlatTorus(np.eye(3)), 1e5)])
def test_spectrum_over_the_count_limit_is_refused_before_it_is_enumerated(link, lam_max):
    # the sphere stepped l one at a time to 1e15; the torus box needed 29 TiB
    with pytest.raises(ValidationError, match="over the limit of 1,000,000.*--lmax"):
        link.spectrum(lam_max)


def test_count_limit_admits_the_limit_and_refuses_beyond_it():
    check_count(COUNT_LIMIT, "items", "fix")
    # an integral count below 1e15 is shown in full, so one just over the limit
    # does not read as the limit; an integer beyond the float range is shown as inf
    for count, shown in ((COUNT_LIMIT + 1, "1,000,001"), (1002001.0, "1,002,001"),
                         (1.5e6 + 0.5, "1.5e+06"), (10**15, "1e+15"), (math.inf, "inf"),
                         (math.nan, "nan"), (10**400, "inf")):
        message = f"items: about {shown}, over the limit of 1,000,000; fix"
        with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
            check_count(count, "items", "fix")
