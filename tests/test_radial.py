"""Radial mode solver: operator stencils, implicit stepping, convergence."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conic_lmcf import (
    LaplaceTypeSpec,
    NumericalError,
    RadialGrid,
    ValidationError,
    apply_radial_operator,
    radial_operator,
    solve_modes,
)


def interior(grid, values, lo=0.05, hi=0.95):
    """Values on nodes away from both boundaries (stencil-clean zone)."""
    r = grid.nodes
    mask = (r > lo * grid.R) & (r < hi * grid.R)
    return values[mask], r[mask]


def test_grid_nodes_graded_and_increasing():
    grid = RadialGrid(R=2.0, n_cells=100, q=2.0)
    r = grid.nodes
    assert len(r) == 100
    assert np.all(np.diff(r) > 0)
    assert abs(r[-1] - 2.0) < 1e-14
    assert abs(grid.r_min - 2.0 * (1.0 / 100) ** 2) < 1e-14
    # grading concentrates nodes near zero
    assert np.sum(r < 0.2) > np.sum(r > 1.8)


def test_grid_validation():
    with pytest.raises(ValidationError):
        RadialGrid(R=-1.0, n_cells=100)
    with pytest.raises(ValidationError):
        RadialGrid(R=1.0, n_cells=4)
    with pytest.raises(ValidationError):
        RadialGrid(R=1.0, n_cells=100, q=0.5)
    # squared radii or spacing products that overflow or underflow
    for R in (1e200, 1e-200):
        with pytest.raises(ValidationError, match="float range"):
            RadialGrid(R=R, n_cells=200)
    assert RadialGrid(R=1e-100, n_cells=200).r_min > 0.0


def test_spec_validation():
    with pytest.raises(ValidationError):
        LaplaceTypeSpec(lam=-1.0, m=3)
    with pytest.raises(ValidationError):
        LaplaceTypeSpec(lam=0.0, m=1)


def test_constant_annihilated_for_lam0():
    grid = RadialGrid(R=1.0, n_cells=200)
    spec = LaplaceTypeSpec(lam=0.0, m=3)
    out = apply_radial_operator(spec, grid, np.ones(200))
    vals, _ = interior(grid, out)
    assert np.max(np.abs(vals)) < 1e-7


def test_linear_mode_annihilated_for_lam2():
    grid = RadialGrid(R=1.0, n_cells=200)
    spec = LaplaceTypeSpec(lam=2.0, m=3)
    out = apply_radial_operator(spec, grid, grid.nodes)
    vals, _ = interior(grid, out)
    assert np.max(np.abs(vals)) < 1e-7


def test_cubic_mode_maps_to_10r():
    grid = RadialGrid(R=1.0, n_cells=200)
    spec = LaplaceTypeSpec(lam=2.0, m=3)
    out = apply_radial_operator(spec, grid, grid.nodes**3)
    vals, r = interior(grid, out)
    err = np.max(np.abs(vals - 10.0 * r))
    assert err < 5e-3


def test_cubic_truncation_error_is_second_order():
    errs = []
    for n in (200, 400):
        grid = RadialGrid(R=1.0, n_cells=n)
        spec = LaplaceTypeSpec(lam=2.0, m=3)
        out = apply_radial_operator(spec, grid, grid.nodes**3)
        vals, r = interior(grid, out, 0.1, 0.9)
        errs.append(np.max(np.abs(vals - 10.0 * r)))
    ratio = errs[0] / errs[1]
    assert 3.3 < ratio < 4.7


@pytest.mark.parametrize("lam", [0.0, 2.0, 6.0])
def test_stationarity_of_homogeneous_modes(lam):
    from conic_lmcf import exponent_roots

    grid = RadialGrid(R=1.0, n_cells=300)
    spec = LaplaceTypeSpec(lam=lam, m=3)
    alpha = exponent_roots(lam, 3)[0]
    out = apply_radial_operator(spec, grid, grid.nodes**alpha)
    vals, r = interior(grid, out)
    # relative to the derivative scale of r^alpha on the annulus
    assert np.max(np.abs(vals)) < 1e-6 * max(1.0, lam)


def test_stationarity_fractional_mode_converges():
    from conic_lmcf import exponent_roots

    alpha = exponent_roots(8.0, 3)[0]
    errs = []
    for n in (200, 400):
        grid = RadialGrid(R=1.0, n_cells=n)
        spec = LaplaceTypeSpec(lam=8.0, m=3)
        out = apply_radial_operator(spec, grid, grid.nodes**alpha)
        vals, _ = interior(grid, out, 0.1, 0.9)
        errs.append(np.max(np.abs(vals)))
    assert errs[1] < errs[0] / 3.0


def test_zero_forcing_stays_zero():
    grid = RadialGrid(R=1.0, n_cells=100)
    spec = LaplaceTypeSpec(lam=2.0, m=3)
    sol = solve_modes([spec], grid, T=0.1, dt=0.01)[0]
    assert np.max(np.abs(sol.values)) == 0.0


def test_manufactured_solution_t_r3():
    grid = RadialGrid(R=1.0, n_cells=400)
    spec = LaplaceTypeSpec(lam=2.0, m=3)
    T = 0.1
    sol = solve_modes([spec], grid, T=T, dt=T / 400,
                      forcing=lambda t, r: r**3 - 10.0 * t * r,
                      outer_bc=lambda t: t)[0]
    err = np.max(np.abs(sol.final() - T * grid.nodes**3))
    assert err < 1e-5


def test_manufactured_spatial_convergence():
    # u* = t r^3 is linear in t, so implicit Euler has no time error and the
    # spatial truncation dominates: halving dr divides the error by ~4
    errs = []
    T = 0.1
    for n in (100, 200, 400):
        grid = RadialGrid(R=1.0, n_cells=n)
        spec = LaplaceTypeSpec(lam=2.0, m=3)
        sol = solve_modes([spec], grid, T=T, dt=T / 400,
                          forcing=lambda t, r: r**3 - 10.0 * t * r,
                          outer_bc=lambda t: t)[0]
        errs.append(np.max(np.abs(sol.final() - T * grid.nodes**3)))
    ratios = [errs[i] / errs[i + 1] for i in range(2)]
    assert all(3.4 < rho < 4.6 for rho in ratios)


def test_manufactured_temporal_convergence():
    # u* = t^2 r^3 has genuine time curvature; halving dt halves the error
    grid = RadialGrid(R=1.0, n_cells=400)
    spec = LaplaceTypeSpec(lam=2.0, m=3)
    T = 0.1
    errs = []
    for nt in (25, 50, 100):
        sol = solve_modes([spec], grid, T=T, dt=T / nt,
                          forcing=lambda t, r: 2.0 * t * r**3 - 10.0 * t**2 * r,
                          outer_bc=lambda t: t**2)[0]
        errs.append(np.max(np.abs(sol.final() - T**2 * grid.nodes**3)))
    ratios = [errs[i] / errs[i + 1] for i in range(2)]
    assert all(1.7 < rho < 2.3 for rho in ratios)


def test_comparison_principle_nonnegative():
    grid = RadialGrid(R=1.0, n_cells=200)
    spec = LaplaceTypeSpec(lam=0.0, m=3)
    sol = solve_modes([spec], grid, T=0.2, dt=0.002,
                      forcing=lambda t, r: np.sqrt(r))[0]
    assert sol.values.min() >= -1e-10


def test_drift_perturbation_keeps_leading_exponent():
    from conic_lmcf import ExponentTable, extract_asymptotics, harvey_lawson_torus

    table = ExponentTable.for_link(harvey_lawson_torus().link)
    grid = RadialGrid(R=1.0, n_cells=400)
    base = LaplaceTypeSpec(lam=0.0, m=3)
    # drift decaying like r^{delta-1} with delta=1: a compact perturbation
    drift = LaplaceTypeSpec(lam=0.0, m=3, drift=lambda r: 0.3 * np.ones_like(r))
    lead = {}
    for name, spec in (("base", base), ("drift", drift)):
        sol = solve_modes([spec], grid, T=0.1, dt=0.1 / 400,
                          forcing=lambda t, r: r**0.5)[0]
        exp = extract_asymptotics(sol, table, gamma=1.5)
        assert exp.terms, f"no leading term extracted for {name}"
        lead[name] = exp.terms[0]
    # same leading exponent (the constant mode), different coefficients
    assert lead["base"][0] == lead["drift"][0] == 0.0
    assert lead["base"][1] == lead["drift"][1] == 0
    assert abs(lead["base"][2] - lead["drift"][2]) > 1e-5


def test_invalid_forcing_reports_step():
    grid = RadialGrid(R=1.0, n_cells=100)
    spec = LaplaceTypeSpec(lam=0.0, m=3)

    def bad_forcing(t, r):
        return np.full_like(r, np.nan) if t > 0.05 else np.zeros_like(r)

    with pytest.raises(NumericalError) as err:
        solve_modes([spec], grid, T=0.1, dt=0.01, forcing=bad_forcing)
    assert "step" in str(err.value)


def test_invalid_forcing_reports_step_for_several_modes():
    grid = RadialGrid(R=1.0, n_cells=100)
    specs = [LaplaceTypeSpec(lam=lam, m=3) for lam in (0.0, 2.0)]

    def bad_forcing(t, r):
        return np.full_like(r, np.nan) if t > 0.05 else np.zeros_like(r)

    with pytest.raises(NumericalError, match="step 6"):
        solve_modes(specs, grid, T=0.1, dt=0.01, forcing=bad_forcing)


def test_a_scalar_forcing_is_broadcast_over_the_grid():
    # a forcing may return a scalar or an r-shaped array; anything else is refused
    grid = RadialGrid(R=1.0, n_cells=50)
    specs = [LaplaceTypeSpec(lam=lam, m=3) for lam in (0.0, 2.0)]
    kwargs = dict(T=0.05, dt=0.01, store_every=1)
    scalar = solve_modes(specs, grid, forcing=lambda t, r: 3.0 * t + 0.5, **kwargs)
    array = solve_modes(specs, grid, forcing=lambda t, r: np.full_like(r, 3.0 * t + 0.5),
                        **kwargs)
    for a, b in zip(scalar, array):
        assert np.array_equal(a.values, b.values)
        assert np.abs(a.values).max() > 0
    with pytest.raises(NumericalError, match="forcing invalid at step 1"):
        solve_modes(specs, grid, forcing=lambda t, r: np.ones(len(r) + 1), **kwargs)


def test_solve_modes_matches_one_mode_solves():
    # the block-diagonal system does not couple the modes: each gets the
    # bits of its own one-mode solve
    grid = RadialGrid(R=1.0, n_cells=120)
    lams = (0.0, 3.5, 12.0)
    kwargs = dict(T=0.1, dt=0.1 / 50, forcing=lambda t, r: t * np.sqrt(r),
                  outer_bc=lambda t: 0.25, store_every=2)
    together = solve_modes([LaplaceTypeSpec(lam=lam, m=3) for lam in lams], grid, **kwargs)
    assert [sol.lam for sol in together] == list(lams)
    for lam, sol in zip(lams, together):
        alone = solve_modes([LaplaceTypeSpec(lam=lam, m=3)], grid, **kwargs)[0]
        assert np.array_equal(sol.times, alone.times)
        assert np.array_equal(sol.values, alone.values)
        assert sol.values.shape == (26, 120)


def _dense_backward_euler(spec, grid, times, forcing, outer_bc):
    """Step the full ``I − dt·L`` matrix, inner row and corner included, densely."""
    r = grid.nodes
    n = len(r)
    rows, w = radial_operator(spec, grid)
    L = np.zeros((n, n))
    for j in range(1, n - 1):
        L[j, j - 1:j + 2] = rows[j - 1]
    dt = times[-1] / (len(times) - 1)
    A = np.eye(n) - dt * L
    A[0, :3] = [1.0, -w[0], -w[1]]
    A[-1] = 0.0
    A[-1, -1] = 1.0
    u = np.zeros(n)
    frames = [u]
    for t in times[1:]:
        rhs = u + dt * forcing(t, r)
        rhs[0] = 0.0
        rhs[-1] = outer_bc(t) if outer_bc is not None else 0.0
        u = np.linalg.solve(A, rhs)
        frames.append(u)
    return np.array(frames)


def _dense_forcing(t, r):
    return np.sqrt(r) + t * r


def assert_matches_dense_solves(specs, grid, outer_bc, T=0.1, dt=0.03):
    sols = solve_modes(specs, grid, T=T, dt=dt, forcing=_dense_forcing, outer_bc=outer_bc)
    for spec, sol in zip(specs, sols):
        assert sol.times[-1] == T
        dense = _dense_backward_euler(spec, grid, sol.times, _dense_forcing, outer_bc)
        assert np.max(np.abs(sol.values - dense)) <= 1e-12 * np.max(np.abs(dense))
    return sols


@pytest.mark.parametrize("outer_bc", [None, lambda t: 1.0 + t])
def test_solve_modes_matches_a_dense_solve_of_the_full_matrix(outer_bc):
    # m = 3 takes the symmetric factor at q = 2, m = 4 the general one
    for m in (3, 4):
        specs = [LaplaceTypeSpec(lam=lam, m=m) for lam in (0.0, 2.0, 6.0, 40.0, 5000.0)]
        sols = assert_matches_dense_solves(specs, RadialGrid(R=1.0, n_cells=8), outer_bc)
        assert all(len(sol.times) == 5 for sol in sols)


@settings(max_examples=80, deadline=None)
@given(st.sampled_from([2, 3, 4, 6]), st.sampled_from([1.0, 1.5, 2.0, 3.0]),
       st.sampled_from([0.0, 2.0, 30.0]), st.sampled_from([8, 12]),
       st.sampled_from([None, 0.75]), st.booleans())
def test_both_factors_match_a_dense_solve(m, q, lam, n, outer, lower_order):
    # a drift X_r = 0.5·r and a potential b = −2·sqrt(r) put lower-order terms in every row
    drift, zeroth = ((lambda r: 0.5 * r, lambda r: -2.0 * np.sqrt(r)) if lower_order
                     else (None, None))
    assert_matches_dense_solves([LaplaceTypeSpec(lam=lam, m=m, drift=drift, zeroth=zeroth)],
                                RadialGrid(R=1.0, n_cells=n, q=q),
                                None if outer is None else lambda t: outer)


def count_solves(monkeypatch):
    """Count the ``dpttrs`` and ``dgttrs`` calls that ``solve_modes`` makes."""
    import conic_lmcf.radial as radial

    calls = {"dpttrs": 0, "dgttrs": 0}
    for name in calls:
        def counted(*args, _solve=getattr(radial, name), _name=name, **kwargs):
            calls[_name] += 1
            return _solve(*args, **kwargs)
        monkeypatch.setattr(radial, name, counted)
    return calls


@pytest.mark.parametrize("ms, path", [((3,), "dpttrs"), ((2,), "dpttrs"), ((3, 2), "dpttrs"),
                                      ((4,), "dgttrs"), ((3, 4), "dgttrs")])
def test_the_symmetric_factor_is_taken_where_every_product_is_positive(monkeypatch, ms, path):
    # at q = 2 the first interior sub-diagonal entry is negative for m = 4, so one
    # m = 4 mode sends the whole stack to dgttrs
    calls = count_solves(monkeypatch)
    specs = [LaplaceTypeSpec(lam=lam, m=m) for m in ms for lam in (0.0, 2.0)]
    assert_matches_dense_solves(specs, RadialGrid(R=1.0, n_cells=12), lambda t: 0.5,
                                T=0.1, dt=0.02)
    assert calls == {"dpttrs": 0, "dgttrs": 0, path: 5}


def test_zero_pivot_is_a_numerical_error_at_step_0():
    # on the uniform grid r_j = j/8 every stencil weight is exact, and with
    # m = 4 the first-derivative coefficient is 3/r + drift.  Drift -22 at
    # r = 1/2 and 12 at r = 3/4 make it -16 and 16 there, so the entries of
    # rows 3 and 5 on u_4 (r = 5/8) are 64 ∓ 4·16 = 0; potential 130 at 5/8
    # makes the diagonal of row 4 1 - 0.5·(-128 + 130) = 0 at dt = 0.5.  The
    # column of u_4 is zero, away from the eliminated extrapolation row
    grid = RadialGrid(R=1.0, n_cells=8, q=1.0)
    spec = LaplaceTypeSpec(lam=0.0, m=4,
                           drift=lambda r: np.select([r == 0.5, r == 0.75], [-22.0, 12.0]),
                           zeroth=lambda r: np.where(r == 0.625, 130.0, 0.0))
    with pytest.raises(NumericalError, match="step 0.*zero pivot at node 4 of the λ=0 mode"):
        solve_modes([LaplaceTypeSpec(lam=2.0, m=3), spec], grid, T=1.0, dt=0.5)


def test_step_that_does_not_divide_T_ends_at_T():
    grid = RadialGrid(R=1.0, n_cells=50)
    sol = solve_modes([LaplaceTypeSpec(lam=2.0, m=3)], grid, T=0.1, dt=0.03,
                      forcing=lambda t, r: np.ones_like(r), store_every=1)[0]
    assert sol.times[-1] == 0.1
    assert np.max(np.diff(sol.times)) <= 0.03
    assert len(sol.times) == 5


@pytest.mark.parametrize("T, dt", [(np.nan, 0.01), (np.inf, 0.01), (0.1, np.nan), (0.1, 0.0)])
def test_non_finite_times_are_rejected(T, dt):
    grid = RadialGrid(R=1.0, n_cells=50)
    with pytest.raises(ValidationError, match="--T and --dt must be finite and > 0"):
        solve_modes([LaplaceTypeSpec(lam=0.0, m=3)], grid, T=T, dt=dt)


def test_an_empty_mode_list_is_refused_naming_lam():
    # raised a bare "not enough values to unpack" ValueError
    with pytest.raises(ValidationError, match="at least one --lam is required"):
        solve_modes([], RadialGrid(R=1.0, n_cells=50), T=0.1, dt=0.01)


def test_an_infinite_outer_value_fails_the_first_step():
    grid = RadialGrid(R=1.0, n_cells=50)
    with pytest.raises(NumericalError, match="linear solve failed at step 1"):
        solve_modes([LaplaceTypeSpec(lam=0.0, m=3)], grid, T=0.1, dt=0.01,
                    outer_bc=lambda t: np.inf)


def test_a_forcing_whose_step_overflows_names_dt():
    # a finite f = 1e308 times dt = 5 is not a float; at R = 100 the finite
    # dt·f = 1e308 times the symmetric scaling D is not one either, and that
    # warned of an overflow and failed as "linear solve failed at step 1"
    for R, T, dt, f in ((1.0, 10.0, 5.0, 1e308), (100.0, 1e4, 1e3, 1e305)):
        grid = RadialGrid(R=R, n_cells=50)
        with pytest.raises(NumericalError, match="leaves the float range at step 1.*lower --dt"):
            solve_modes([LaplaceTypeSpec(lam=0.0, m=3)], grid, T=T, dt=dt,
                        forcing=lambda t, r, f=f: np.full_like(r, f))


@pytest.mark.parametrize("T, dt", [(1e9, 1e-3), (1.0, 1e-300), (1e300, 1e-10)])
def test_step_count_over_the_limit_is_refused_before_the_solve(T, dt):
    grid = RadialGrid(R=1.0, n_cells=20)
    with pytest.raises(ValidationError, match="time steps.*--T or raise --dt"):
        solve_modes([LaplaceTypeSpec(lam=0.0, m=3)], grid, T=T, dt=dt)


def test_stored_values_over_the_limit_are_refused_before_the_solve():
    spec = LaplaceTypeSpec(lam=0.0, m=3)
    with pytest.raises(ValidationError, match="stored values.*--store-every"):
        solve_modes([spec], RadialGrid(R=1.0, n_cells=2000), T=1.0, dt=1e-5, store_every=1)
    # 1 + 999 frames of 1000 nodes are exactly the limit; one more frame is over it
    grid = RadialGrid(R=1.0, n_cells=1000)
    sol = solve_modes([spec], grid, T=0.999, dt=1e-3, store_every=1)[0]
    assert sol.values.shape == (1000, 1000)
    with pytest.raises(ValidationError, match="1001 frames"):
        solve_modes([spec], grid, T=1.0, dt=1e-3, store_every=1)
    # the last frame is kept too when store_every does not divide the step count
    with pytest.raises(ValidationError, match="1001 frames"):
        solve_modes([spec], grid, T=1.999, dt=1e-3, store_every=2)


def test_potential_over_the_float_range_is_refused_before_the_solve():
    # λ/r_min² is about 6e306 here, so only dt·λ/r_min² leaves the float
    # range; an infinite diagonal made the solve return zeros with exit 0
    grid = RadialGrid(R=1.0, n_cells=50)
    spec = LaplaceTypeSpec(lam=1e300, m=3)
    with pytest.raises(ValidationError, match="--lam.*--radius"):
        solve_modes([spec], grid, T=100.0, dt=100.0)
    assert np.all(np.isfinite(solve_modes([spec], grid, T=0.01, dt=0.01)[0].final()))


def test_operator_over_the_float_range_is_refused_without_a_warning():
    # -λ/r² overflowed: the interior rows came back -inf with a numpy warning
    spec = LaplaceTypeSpec(lam=1e300, m=3)
    with pytest.raises(ValidationError, match="--lam.*--radius"):
        apply_radial_operator(spec, RadialGrid(R=1e-100, n_cells=50), np.ones(50))


def test_inner_weights_are_exact_on_the_admissible_powers():
    from conic_lmcf import exponent_roots

    grid = RadialGrid(R=1.0, n_cells=100)
    r = grid.nodes
    alpha = exponent_roots(6.0, 3)[0]
    w = radial_operator(LaplaceTypeSpec(lam=6.0, m=3), grid)[1]
    for p in (alpha, alpha + 2.0):
        assert abs(w[0] * r[1] ** p + w[1] * r[2] ** p - r[0] ** p) <= 1e-14 * r[0] ** p


def test_inner_weights_do_not_underflow_at_large_eigenvalues():
    # alpha is about 70 at lambda = 5000: r_j^alpha underflows, the ratios do not
    grid = RadialGrid(R=1.0, n_cells=400)
    w = radial_operator(LaplaceTypeSpec(lam=5000.0, m=3), grid)[1]
    assert w[0] > 0.0 > w[1]


def test_solution_frames_and_times():
    grid = RadialGrid(R=1.0, n_cells=100)
    spec = LaplaceTypeSpec(lam=0.0, m=3)
    sol = solve_modes([spec], grid, T=0.1, dt=0.01,
                      forcing=lambda t, r: np.ones_like(r), store_every=2)[0]
    assert sol.times[0] == 0.0
    assert abs(sol.times[-1] - 0.1) < 1e-12
    assert sol.values.shape == (len(sol.times), 100)


def test_last_frame_ends_at_T_when_dt_nearly_divides_it():
    # 3 * 0.1 is 0.30000000000000004: the kept dt ended the last frame there
    sol = solve_modes([LaplaceTypeSpec(lam=0.0, m=3)], RadialGrid(R=1.0, n_cells=20),
                      T=0.3, dt=0.1, store_every=1)[0]
    assert sol.times[-1] == 0.3
    assert np.array_equal(sol.times[:-1], np.arange(3) * (0.3 / 3))


def dilated_final(s, lam, m, q, n, a, T=0.1):
    """Bytes of the final frame of the ``(r/s)^a/s²`` forcing on ``RadialGrid(R=s)`` with
    ``T·s²`` and ``dt·s²``."""
    sol = solve_modes([LaplaceTypeSpec(lam, m)], RadialGrid(R=s, n_cells=n, q=q), T=T * s * s,
                      dt=T / 400 * s * s, forcing=lambda t, r: (r / s) ** a / (s * s),
                      store_every=0)[0]
    return sol.final().tobytes()


@settings(max_examples=60, deadline=None)
@given(st.sampled_from([0.0, 2.0, 8.0, 30.0]), st.sampled_from([2, 3, 4]),
       st.sampled_from([1.0, 1.5, 2.0, 3.0]), st.sampled_from([8, 50, 400]),
       st.sampled_from([0.5, 1.5]), st.sampled_from([1, 2]))
def test_dilation_by_a_power_of_two_keeps_the_bits(lam, m, q, n, a, k):
    # r -> s·r, t -> s²·t maps the cone heat equation to itself, and scaling
    # by s = 2^k is exact in floating point, so every solver value scales exactly
    s = 2.0 ** k
    assert dilated_final(s, lam, m, q, n, a) == dilated_final(1.0, lam, m, q, n, a)
