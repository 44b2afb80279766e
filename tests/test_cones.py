"""Special Lagrangian cones: moment maps and stability."""

from __future__ import annotations

import json
import math

import numpy as np
import pytest
import scipy
from hypothesis import given, settings
from hypothesis import strategies as st

from conic_lmcf import (
    ExponentTable,
    FlatTorus,
    MomentElement,
    NumericalError,
    SLCone,
    ValidationError,
    catalog_cone,
    cone_from_json,
    hamiltonian_field,
    harvey_lawson_torus,
    moment_eval,
    plane_cone,
    stability_index,
    verify_hamiltonian,
)
from conic_lmcf.cones import _gap_rank


def random_moment_element(rng, m=3):
    B = rng.normal(size=(m, m)) + 1j * rng.normal(size=(m, m))
    A = 0.5 * (B - B.conj().T)
    v = rng.normal(size=m) + 1j * rng.normal(size=m)
    return MomentElement(A, v, float(rng.normal()))


def random_points(rng, count, m=3):
    return rng.normal(size=(count, m)) + 1j * rng.normal(size=(count, m))


# ---------------------------------------------------------------------------
# moment evaluation


def test_moment_quadratic_part_scales_like_r_squared():
    X = MomentElement(1j * np.eye(3), np.zeros(3))
    rng = np.random.default_rng(3)
    z = random_points(rng, 20)
    unit = z / np.linalg.norm(z, axis=1, keepdims=True)
    for r in (0.5, 1.0, 2.0):
        vals = moment_eval(X, r * unit)
        assert np.max(np.abs(vals + 0.5 * r**2)) < 1e-12


def test_moment_constant_element():
    X = MomentElement(np.zeros((3, 3)), np.zeros(3), 5.0)
    rng = np.random.default_rng(4)
    assert np.all(moment_eval(X, random_points(rng, 10)) == 5.0)


def test_moment_vanishes_at_origin_without_constant():
    X = MomentElement(np.zeros((3, 3)), np.array([1.0, 2.0, 3.0]) + 0j)
    assert moment_eval(X, np.zeros(3)) == 0.0


def test_moment_real_and_linear():
    rng = np.random.default_rng(5)
    z = random_points(rng, 30)
    for _ in range(10):
        X1 = random_moment_element(rng)
        X2 = random_moment_element(rng)
        a, b = rng.normal(), rng.normal()
        combo = MomentElement(a * X1.A + b * X2.A, a * X1.v + b * X2.v,
                              a * X1.c + b * X2.c)
        lhs = moment_eval(combo, z)
        rhs = a * moment_eval(X1, z) + b * moment_eval(X2, z)
        assert np.max(np.abs(lhs - rhs)) < 1e-12
        assert np.all(np.isreal(lhs))


def test_moment_element_rejects_non_skew():
    with pytest.raises(ValidationError):
        MomentElement(np.eye(3), np.zeros(3))
    with pytest.raises(ValidationError):
        MomentElement(np.zeros((3, 2)), np.zeros(3))


def test_scalar_point_gives_scalar():
    X = MomentElement(1j * np.eye(2), np.zeros(2), 1.0)
    out = moment_eval(X, np.array([1.0 + 0j, 0.0]))
    assert np.isscalar(out) or out.shape == ()


# ---------------------------------------------------------------------------
# Hamiltonian identity


def test_hamiltonian_residual_quadratic():
    rng = np.random.default_rng(11)
    X = MomentElement(1j * np.eye(3), np.zeros(3))
    samples = random_points(rng, 100)
    samples /= np.maximum(1.0, np.linalg.norm(samples, axis=1, keepdims=True))
    assert verify_hamiltonian(X, samples) <= 1e-8


def test_hamiltonian_residual_translation():
    rng = np.random.default_rng(12)
    X = MomentElement(np.zeros((3, 3)), np.array([1.0, 0, 0]) + 0j)
    samples = random_points(rng, 100)
    samples /= np.maximum(1.0, np.linalg.norm(samples, axis=1, keepdims=True))
    assert verify_hamiltonian(X, samples) <= 1e-8


def test_hamiltonian_residual_constant_exact():
    X = MomentElement(np.zeros((2, 2)), np.zeros(2), 3.0)
    assert verify_hamiltonian(X, np.zeros((1, 2), dtype=complex)) == 0.0


def test_hamiltonian_residual_random_elements():
    rng = np.random.default_rng(13)
    for _ in range(20):
        X = random_moment_element(rng)
        samples = random_points(rng, 25)
        samples /= np.maximum(1.0, np.linalg.norm(samples, axis=1, keepdims=True))
        assert verify_hamiltonian(X, samples) <= 1e-8


def test_hamiltonian_field_shape():
    rng = np.random.default_rng(14)
    X = random_moment_element(rng)
    z = random_points(rng, 7)
    assert hamiltonian_field(X, z).shape == (7, 3)


# ---------------------------------------------------------------------------
# cone geometry


def test_hl_torus_validates():
    cone = harvey_lawson_torus()
    checks = cone.validate()
    assert checks["unit_link"] <= 1e-10
    assert checks["lagrangian"] <= 1e-10
    assert checks["special"] <= 1e-10


def test_hl_torus_phase_is_pi():
    cone = harvey_lawson_torus()
    assert abs(abs(cone.phase_theta) - math.pi) < 1e-12


def test_plane_cone_validates_with_zero_phase():
    cone = plane_cone()
    checks = cone.validate()
    assert checks["lagrangian"] <= 1e-10
    assert abs(cone.phase_theta) < 1e-12


def test_embed_homogeneity():
    cone = harvey_lawson_torus()
    sigma = cone.link_samples(8)
    for r in (0.25, 1.0, 3.0):
        pts = cone.embed(sigma, r)
        assert np.max(np.abs(np.linalg.norm(pts, axis=1) - r)) < 1e-12


def test_catalog_lookup():
    assert catalog_cone("hl-torus-3").name == "hl-torus-3"
    assert catalog_cone("plane-3").name == "plane-3"
    with pytest.raises(ValidationError):
        catalog_cone("unknown-cone")


def test_cone_json_round_trip(tmp_path):
    cone = harvey_lawson_torus()
    path = tmp_path / "cone.json"
    path.write_text(json.dumps(cone.to_json()))
    loaded = cone_from_json(path)
    assert loaded.m == 3
    assert loaded.dim_G == 2
    checks = loaded.validate()
    assert checks["lagrangian"] <= 1e-10


def test_cone_json_rejects_non_lagrangian(tmp_path):
    cone = harvey_lawson_torus()
    data = cone.to_json()
    # corrupt one frequency so the embedding is no longer Lagrangian
    data["coordinates"][0][0]["k"] = [2, 0]
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(data))
    with pytest.raises(ValidationError):
        cone_from_json(path)


def write_hl_json(path):
    path.write_text(json.dumps(harvey_lawson_torus().to_json()))
    return path


@pytest.mark.parametrize("build", ["hl", "plane", "json"])
def test_a_cone_is_built_and_framed_once(tmp_path, monkeypatch, build):
    # the checks framed the link three times, and a cone file built a second,
    # unvalidated probe cone for its metric
    path = write_hl_json(tmp_path / "hl.json")
    counts = {"frames": 0, "cones": 0}
    frames, init = SLCone.frames, SLCone.__init__

    def counted_frames(self, sigma):
        counts["frames"] += 1
        return frames(self, sigma)

    def counted_init(self, *args, **kwargs):
        counts["cones"] += 1
        init(self, *args, **kwargs)

    monkeypatch.setattr(SLCone, "frames", counted_frames)
    monkeypatch.setattr(SLCone, "__init__", counted_init)
    {"hl": harvey_lawson_torus, "plane": plane_cone, "json": lambda: cone_from_json(path)}[build]()
    assert counts == {"frames": 1, "cones": 1}


def test_cone_json_rejects_a_varying_induced_metric(tmp_path):
    # X_0 = (e^{iσ₁} + e^{iσ₂})/√6 makes H_12 vary with σ₂ − σ₁
    data = harvey_lawson_torus().to_json()
    s = 1.0 / math.sqrt(6.0)
    data["coordinates"][0] = [{"c": [s, 0.0], "k": [1, 0]}, {"c": [s, 0.0], "k": [0, 1]}]
    path = tmp_path / "varying.json"
    path.write_text(json.dumps(data))
    with pytest.raises(ValidationError, match="constant link metric"):
        cone_from_json(path)


def test_a_link_other_than_the_induced_one_is_refused():
    # hl-torus-3's table with the unit-square torus as its link
    table = harvey_lawson_torus().trig_table
    with pytest.raises(ValidationError, match="the embedding induces"):
        SLCone("hl-wrong-link", 3, FlatTorus(np.eye(2)), 2, trig_table=table)


@pytest.mark.skipif({"numpy": np.__version__, "scipy": scipy.__version__}
                    != {"numpy": "2.4.6", "scipy": "1.17.1"},
                    reason="pinned with the toolchain of the golden digests (test_golden.py)")
def test_cone_json_round_trip_bits(tmp_path):
    # the induced metric differs from the built-in exact one in the last bits
    loaded = cone_from_json(write_hl_json(tmp_path / "hl.json"))
    assert loaded.link.metric.tolist() == [[0.6666666666666669, 0.3333333333333334],
                                           [0.3333333333333334, 0.6666666666666669]]
    assert loaded.phase_theta == -3.141592653589793
    assert harvey_lawson_torus().link.metric.tolist() == [[2 / 3, 1 / 3], [1 / 3, 2 / 3]]


# ---------------------------------------------------------------------------
# stability index


def test_stability_hl_torus_is_zero():
    report = stability_index(harvey_lawson_torus())
    assert report.index == 0
    assert report.harmonic_counts == {0: 1, 1: 6, 2: 6}
    assert report.rank_translations == 6
    assert report.rank_su == 6
    assert not report.degenerate
    assert report.warnings == []


def test_stability_plane_degenerate():
    report = stability_index(plane_cone())
    assert report.index == -3
    assert report.harmonic_counts == {0: 1, 1: 3, 2: 5}
    assert report.rank_translations == 3          # only Re(z) restricts nontrivially
    assert report.rank_su == 5
    assert report.degenerate
    assert any("not injective" in w for w in report.warnings)


def test_stability_reads_the_sample_the_constructor_framed(monkeypatch):
    # the ranks come from the points validate() framed; nothing samples the link again
    cone = harvey_lawson_torus()

    def refuse(*args, **kwargs):
        raise AssertionError("the link was sampled a second time")

    for method in ("embed", "frames", "link_samples"):
        monkeypatch.setattr(SLCone, method, refuse)
    report = stability_index(cone)
    assert (report.index, report.harmonic_counts) == (0, {0: 1, 1: 6, 2: 6})
    assert (report.rank_translations, report.rank_su, report.degenerate) == (6, 6, False)


@pytest.mark.parametrize("shear", range(12))
def test_cone_files_with_frequencies_up_to_12_keep_full_ranks(tmp_path, shear):
    # σ ↦ (σ₁ + shear·σ₂, σ₂) moves hl-torus-3's frequencies to max|k| = shear + 1;
    # the validation grid, n = max(12, 6·max|k| + 1), samples the moment maps unaliased
    data = harvey_lawson_torus().to_json()
    for coord in data["coordinates"]:
        for mono in coord:
            mono["k"] = [mono["k"][0], shear * mono["k"][0] + mono["k"][1]]
    assert max(abs(k) for coord in data["coordinates"] for mono in coord
               for k in mono["k"]) == shear + 1
    path = tmp_path / "sheared.json"
    path.write_text(json.dumps(data), encoding="utf-8")
    report = stability_index(cone_from_json(path))
    assert (report.index, report.harmonic_counts) == (0, {0: 1, 1: 6, 2: 6})
    assert (report.rank_translations, report.rank_su, report.degenerate) == (6, 6, False)


SL2Z_GENERATORS = (np.array([[1, 1], [0, 1]]), np.array([[1, 0], [1, 1]]),
                   np.array([[0, -1], [1, 0]]))


@settings(max_examples=25, deadline=None)
@given(word=st.lists(st.sampled_from(range(3)), max_size=3),
       psi=st.tuples(st.floats(-math.pi, math.pi), st.floats(-math.pi, math.pi)))
def test_reparametrised_cone_file_keeps_spectrum_and_indices(tmp_path_factory, word, psi):
    # angles σ ↦ Aᵀσ for A in SL(2,Z) and a diagonal SU(3) phase move the
    # description of hl-torus-3 but not the cone, so nothing computed from it moves
    A = np.eye(2, dtype=int)
    for g in word:
        A = A @ SL2Z_GENERATORS[g]
    data = harvey_lawson_torus().to_json()
    for coord, phase in zip(data["coordinates"], (psi[0], psi[1], -psi[0] - psi[1])):
        for mono in coord:
            c = complex(*mono["c"]) * complex(math.cos(phase), math.sin(phase))
            mono["c"], mono["k"] = [c.real, c.imag], (A.T @ mono["k"]).tolist()
    path = tmp_path_factory.mktemp("cone") / "moved.json"
    path.write_text(json.dumps(data), encoding="utf-8")
    cone, hl = cone_from_json(path), harvey_lawson_torus()

    moved, fixed = cone.link.spectrum(12.0), hl.link.spectrum(12.0)
    assert [e.multiplicity for e in moved] == [e.multiplicity for e in fixed]
    assert [e.lam for e in moved] == pytest.approx([e.lam for e in fixed], rel=1e-9, abs=1e-12)
    report = stability_index(cone)
    assert (report.index, report.harmonic_counts) == (0, {0: 1, 1: 6, 2: 6})
    assert (report.rank_translations, report.rank_su) == (6, 6)
    tables = [ExponentTable.for_link(c.link, 3.0) for c in (cone, hl)]
    for gamma in (-1.5, -0.5, 0.5, 1.5, 2.5):
        assert tables[0].count_M(gamma) == tables[1].count_M(gamma)


@pytest.mark.parametrize("svals, rank", [
    ([3.0, 2.0, 1.0, 1e-9, 1e-15], 3),   # clear gap: 1.0 / 1e-9 = 1e9
    ([3.0, 2.0, 1.0], 3),                 # nothing dropped
    ([3.0, 1e-5, 0.0], 2),                # the dropped value is an exact zero
    ([0.0, 0.0], 0),                      # a zero matrix has rank 0
])
def test_gap_rank_counts_values_above_the_cut(svals, rank):
    assert _gap_rank(np.array(svals), "test-cone") == rank


def test_gap_rank_rejects_an_ambiguous_gap():
    # 2e-8 is kept and 5e-9 dropped, but they are only a factor 4 apart
    with pytest.raises(NumericalError, match="cone test-cone: moment-map span rank is ambiguous"):
        _gap_rank(np.array([1.0, 0.5, 2e-8, 5e-9]), "test-cone")

