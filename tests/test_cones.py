"""Special Lagrangian cones: moment maps, restrictions, stability."""

from __future__ import annotations

import json
import math

import numpy as np
import pytest

from conic_lmcf import (
    EigenEntry,
    ExponentTable,
    MixedHomogeneityError,
    MomentElement,
    NumericalError,
    ValidationError,
    WindowError,
    catalog_cone,
    cone_from_json,
    eigenspace_projection_residual,
    hamiltonian_field,
    harvey_lawson_torus,
    moment_eval,
    plane_cone,
    restrict_to_cone,
    stability_index,
    su_basis,
    translation_basis,
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


# ---------------------------------------------------------------------------
# restriction to the cone


def test_restrict_su_gives_order_two():
    # the two torus generators (diagonal traceless su elements) stabilize the
    # cone and restrict to zero; every other direction is a genuine order-2
    # harmonic
    cone = harvey_lawson_torus()
    zero_count = 0
    for A in su_basis(3):
        res = restrict_to_cone(cone, MomentElement(A, np.zeros(3)))
        if np.max(np.abs(res.values)) < 1e-14:
            zero_count += 1
            continue
        assert res.order == 2
        assert res.harmonic_residual <= 1e-6
    assert zero_count == 2


def test_restrict_translation_gives_order_one():
    cone = harvey_lawson_torus()
    for v in translation_basis(3):
        res = restrict_to_cone(cone, MomentElement(np.zeros((3, 3)), v))
        assert res.order == 1
        assert res.harmonic_residual <= 1e-6


def test_restrict_constant_gives_order_zero():
    cone = harvey_lawson_torus()
    res = restrict_to_cone(cone, MomentElement(np.zeros((3, 3)), np.zeros(3), 4.0))
    assert res.order == 0
    assert np.max(np.abs(res.values - 4.0)) < 1e-12


def test_restrict_mixed_raises():
    cone = harvey_lawson_torus()
    X = MomentElement(su_basis(3)[0], np.array([1.0, 0, 0]) + 0j, 1.0)
    with pytest.raises(MixedHomogeneityError):
        restrict_to_cone(cone, X)


def test_restriction_lands_in_eigenspace():
    cone = harvey_lawson_torus()
    rng = np.random.default_rng(21)
    basis = su_basis(3)
    coeffs = rng.normal(size=len(basis))
    A = sum(c * B for c, B in zip(coeffs, basis))
    res = restrict_to_cone(cone, MomentElement(A, np.zeros(3)))
    resid = eigenspace_projection_residual(cone, res.values, res.order, 24)
    assert resid <= 1e-6


def test_restrict_on_plane_cone():
    cone = plane_cone()
    res = restrict_to_cone(cone, MomentElement(np.zeros((3, 3)), np.zeros(3), 2.5))
    assert res.order == 0
    # real translations slide the plane inside itself and restrict to zero;
    # the imaginary ones give the order-1 coordinate harmonics
    real_dir, imag_dir = translation_basis(3)[0], translation_basis(3)[1]
    res_real = restrict_to_cone(cone, MomentElement(np.zeros((3, 3)), real_dir))
    assert np.max(np.abs(res_real.values)) < 1e-14
    res1 = restrict_to_cone(cone, MomentElement(np.zeros((3, 3)), imag_dir))
    assert res1.order == 1
    assert res1.harmonic_residual <= 1e-6


# ---------------------------------------------------------------------------
# stability index


def test_stability_hl_torus_is_zero():
    cone = harvey_lawson_torus()
    table = ExponentTable.for_link(cone.link, m=3, alpha_max=3.0)
    report = stability_index(cone, table)
    assert report.index == 0
    assert report.harmonic_counts == {0: 1, 1: 6, 2: 6}
    assert report.rank_translations == 6
    assert report.rank_su == 6
    assert not report.degenerate
    assert report.warnings == []


def test_stability_plane_degenerate():
    cone = plane_cone()
    table = ExponentTable.for_link(cone.link, m=3, alpha_max=3.0)
    report = stability_index(cone, table)
    assert report.index == -3
    assert report.harmonic_counts == {0: 1, 1: 3, 2: 5}
    assert report.rank_translations == 3          # only Re(z) restricts nontrivially
    assert report.rank_su == 5
    assert report.degenerate
    assert any("not injective" in w for w in report.warnings)


def test_stability_window_too_small():
    cone = harvey_lawson_torus()
    entries = [EigenEntry(0.0, 1), EigenEntry(2.0, 6)]
    table = ExponentTable.from_spectrum(entries, m=3)
    with pytest.raises(WindowError):
        stability_index(cone, table)


def test_stability_nonnegative_for_synthetic_minimal_link():
    # a link whose only low harmonics are the forced ones cannot push the
    # index below the catalog's dim_G honestly; exercise the index formula
    cone = harvey_lawson_torus()
    table = ExponentTable.for_link(cone.link, m=3, alpha_max=3.0)
    report = stability_index(cone, table)
    assert report.index >= 0


@pytest.mark.parametrize("svals, rank", [
    ([3.0, 2.0, 1.0, 1e-9, 1e-15], 3),   # clear gap: 1.0 / 1e-9 = 1e9
    ([3.0, 2.0, 1.0], 3),                 # nothing dropped
    ([3.0, 1e-5, 0.0], 2),                # the dropped value is an exact zero
    ([0.0, 0.0], 0),                      # a zero matrix has rank 0
])
def test_gap_rank_counts_values_above_the_cut(svals, rank):
    assert _gap_rank(np.array(svals)) == rank


def test_gap_rank_rejects_an_ambiguous_gap():
    # 2e-8 is kept and 5e-9 dropped, but they are only a factor 4 apart
    with pytest.raises(NumericalError, match="ambiguous"):
        _gap_rank(np.array([1.0, 0.5, 2e-8, 5e-9]))

