"""Conical expansion extraction and synthesis."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conic_lmcf import (
    AsymptoticExpansion,
    ExceptionalWeightError,
    ExponentTable,
    FlatTorus,
    LaplaceTypeSpec,
    ModeSolution,
    RadialGrid,
    ValidationError,
    extract_asymptotics,
    harvey_lawson_torus,
    solve_modes,
    synthesize,
)

HEX_METRIC = np.array([[2.0, 1.0], [1.0, 2.0]]) / 3.0


@pytest.fixture(scope="module")
def table():
    return ExponentTable.for_link(FlatTorus(HEX_METRIC), 4.0)


def fake_solution(grid, profile, lam=6.0):
    values = np.stack([np.zeros_like(grid.nodes), profile])
    return ModeSolution(grid, np.array([0.0, 1.0]), values, lam)


def test_pure_quadratic_recovered(table):
    grid = RadialGrid(R=1.0, n_cells=400)
    sol = fake_solution(grid, 3.0 * grid.nodes**2, lam=6.0)
    exp = extract_asymptotics(sol, table, gamma=2.4)
    assert len(exp.terms) == 1
    alpha, k, coeff = exp.terms[0]
    assert alpha == 2.0 and k == 0
    assert abs(coeff - 3.0) < 1e-8
    assert exp.remainder_sup < 1e-10


def test_above_threshold_decay_gives_empty_terms(table):
    grid = RadialGrid(R=1.0, n_cells=400)
    sol = fake_solution(grid, grid.nodes**2.5, lam=0.0)
    exp = extract_asymptotics(sol, table, gamma=2.4)
    assert exp.terms == []
    assert 2.35 < exp.remainder_rate < 2.65


def test_round_trip_synthesis_random(table):
    rng = np.random.default_rng(42)
    grid = RadialGrid(R=1.0, n_cells=600)
    # the λ = 0 mode's ladder below γ = 2.4: r^0 and r^2
    candidates = [(0.0, 0), (0.0, 1)]
    for _ in range(8):
        chosen = [c for c in candidates if rng.random() < 0.7] or [(0.0, 0)]
        coeffs = rng.uniform(0.5, 2.0, size=len(chosen)) * rng.choice([-1, 1], len(chosen))
        terms = [(a, k, float(c)) for (a, k), c in zip(chosen, coeffs)]
        profile = synthesize(terms, grid.nodes)
        sol = fake_solution(grid, profile, lam=0.0)
        exp = extract_asymptotics(sol, table, gamma=2.4)
        got = {round(a + 2 * k, 9): c for a, k, c in exp.terms}
        for a, k, c in terms:
            key = round(a + 2 * k, 9)
            assert key in got, f"missing exponent {key}"
            assert abs(got[key] - c) < 1e-7


def test_solver_output_has_constant_and_square_terms(table):
    grid = RadialGrid(R=1.0, n_cells=400)
    spec = LaplaceTypeSpec(lam=0.0, m=3)
    sol = solve_modes([spec], grid, T=0.1, dt=0.1 / 400,
                      forcing=lambda t, r: np.sqrt(r))[0]
    exp = extract_asymptotics(sol, table, gamma=2.5)
    keys = [(a, k) for a, k, _ in exp.terms]
    assert (0.0, 0) in keys
    assert (0.0, 1) in keys
    assert all(abs(c) > 1e-8 for _, _, c in exp.terms)
    assert exp.remainder_rate >= 2.35


def test_exceptional_gamma_rejected(table):
    grid = RadialGrid(R=1.0, n_cells=200)
    sol = fake_solution(grid, grid.nodes**2, lam=6.0)
    with pytest.raises(ExceptionalWeightError):
        extract_asymptotics(sol, table, gamma=2.0)
    # 4 is exceptional only through lifting: 0 + 2*2
    with pytest.raises(ExceptionalWeightError):
        extract_asymptotics(sol, table, gamma=4.0)


def test_expansion_validation():
    with pytest.raises(ValidationError):
        AsymptoticExpansion([(2.0, 0, 1.0)], remainder_rate=2.5,
                            remainder_sup=0.0, gamma=1.5)  # term above gamma
    with pytest.raises(ValidationError):
        AsymptoticExpansion([(-1.0, 0, 1.0)], remainder_rate=2.5,
                            remainder_sup=0.0, gamma=2.0)  # negative order


def test_terms_respect_gamma_bound(table):
    grid = RadialGrid(R=1.0, n_cells=400)
    spec = LaplaceTypeSpec(lam=0.0, m=3)
    sol = solve_modes([spec], grid, T=0.05, dt=0.05 / 100,
                      forcing=lambda t, r: np.sqrt(r))[0]
    for gamma in (1.5, 2.5):
        exp = extract_asymptotics(sol, table, gamma=gamma)
        assert all(a + 2 * k < gamma for a, k, _ in exp.terms)


def dilated_fit(table, s, lam, gamma, q, n):
    """The fit of the ``(r/s)^(γ−2)/s²`` forcing's mode solution on ``RadialGrid(R=s)``
    with ``T·s²`` and ``dt·s²``: the R = 1 problem dilated by s."""
    T = 0.1 * s * s
    sol = solve_modes([LaplaceTypeSpec(lam, m=3)], RadialGrid(R=s, n_cells=n, q=q), T=T,
                      dt=T / 400, forcing=lambda t, r: (r / s) ** (gamma - 2) / (s * s),
                      store_every=0)[0]
    return extract_asymptotics(sol, table, gamma)


@settings(max_examples=40, deadline=None)
@given(st.sampled_from([0.0, 2.0, 6.0, 8.0]), st.sampled_from([1.5, 2.5, 3.5]),
       st.sampled_from([1.0, 2.0, 3.0]), st.sampled_from([100, 400]),
       st.integers(-3, 3).filter(bool))
def test_fit_under_dilation_scales_each_coefficient(table, lam, gamma, q, n, k):
    # u(r) -> u(r/s) with s = 2^k takes c·r^e to c·s^(−e)·r^e and leaves the
    # remainder's rate alone.  The solver keeps every bit under this dilation
    # (test_radial), so the fit alone is tested: the same ladder is accepted,
    # the rate agrees to 1e-10 and each coefficient scales by s^(−e) up to the
    # two roundings of c·s^(−e), 4 ulp.
    s = 2.0 ** k
    plain, dilated = (dilated_fit(table, x, lam, gamma, q, n) for x in (1.0, s))
    assert [(a, j) for a, j, _ in dilated.terms] == [(a, j) for a, j, _ in plain.terms]
    assert math.isclose(dilated.remainder_rate, plain.remainder_rate, rel_tol=0, abs_tol=1e-10)
    for (alpha, j, c), (_, _, c_s) in zip(plain.terms, dilated.terms):
        assert math.isclose(c_s, c * s ** -(alpha + 2 * j), rel_tol=4 * np.finfo(float).eps)
