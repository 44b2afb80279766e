"""Radial mode solver: operator stencils, implicit stepping, convergence."""

from __future__ import annotations

import numpy as np
import pytest

from conic_lmcf import (
    LaplaceTypeSpec,
    NumericalError,
    RadialGrid,
    ValidationError,
    apply_radial_operator,
    radial_operator,
    solve_mode,
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
    sol = solve_mode(spec, grid, T=0.1, dt=0.01)
    assert np.max(np.abs(sol.values)) == 0.0


def test_manufactured_solution_t_r3():
    grid = RadialGrid(R=1.0, n_cells=400)
    spec = LaplaceTypeSpec(lam=2.0, m=3)
    T = 0.1
    sol = solve_mode(spec, grid, T=T, dt=T / 400,
                     forcing=lambda t, r: r**3 - 10.0 * t * r,
                     outer_bc=lambda t: t)
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
        sol = solve_mode(spec, grid, T=T, dt=T / 400,
                         forcing=lambda t, r: r**3 - 10.0 * t * r,
                         outer_bc=lambda t: t)
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
        sol = solve_mode(spec, grid, T=T, dt=T / nt,
                         forcing=lambda t, r: 2.0 * t * r**3 - 10.0 * t**2 * r,
                         outer_bc=lambda t: t**2)
        errs.append(np.max(np.abs(sol.final() - T**2 * grid.nodes**3)))
    ratios = [errs[i] / errs[i + 1] for i in range(2)]
    assert all(1.7 < rho < 2.3 for rho in ratios)


def test_comparison_principle_nonnegative():
    grid = RadialGrid(R=1.0, n_cells=200)
    spec = LaplaceTypeSpec(lam=0.0, m=3)
    sol = solve_mode(spec, grid, T=0.2, dt=0.002,
                     forcing=lambda t, r: np.sqrt(r))
    assert sol.values.min() >= -1e-10


def test_drift_perturbation_keeps_leading_exponent():
    from conic_lmcf import ExponentTable, extract_asymptotics, harvey_lawson_torus

    table = ExponentTable.for_link(harvey_lawson_torus().link, m=3, alpha_max=4.0)
    grid = RadialGrid(R=1.0, n_cells=400)
    base = LaplaceTypeSpec(lam=0.0, m=3)
    # drift decaying like r^{delta-1} with delta=1: a compact perturbation
    drift = LaplaceTypeSpec(lam=0.0, m=3, drift=lambda r: 0.3 * np.ones_like(r))
    lead = {}
    for name, spec in (("base", base), ("drift", drift)):
        sol = solve_mode(spec, grid, T=0.1, dt=0.1 / 400,
                         forcing=lambda t, r: r**0.5)
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
        solve_mode(spec, grid, T=0.1, dt=0.01, forcing=bad_forcing)
    assert "step" in str(err.value)


def test_invalid_forcing_reports_step_for_several_modes():
    grid = RadialGrid(R=1.0, n_cells=100)
    specs = [LaplaceTypeSpec(lam=lam, m=3) for lam in (0.0, 2.0)]

    def bad_forcing(t, r):
        return np.full_like(r, np.nan) if t > 0.05 else np.zeros_like(r)

    with pytest.raises(NumericalError, match="step 6"):
        solve_modes(specs, grid, T=0.1, dt=0.01, forcing=bad_forcing)


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
        alone = solve_mode(LaplaceTypeSpec(lam=lam, m=3), grid, **kwargs)
        assert np.array_equal(sol.times, alone.times)
        assert np.array_equal(sol.values, alone.values)
        assert sol.values.shape == (26, 120)


def _dense_backward_euler(spec, grid, times, forcing, outer_bc, inner_bc):
    """Step the full ``I − dt·L`` matrix, inner row and corner included, densely."""
    r = grid.nodes
    n = len(r)
    (lower, diag, upper), w = radial_operator(spec, grid, inner_bc=inner_bc)
    dt = times[-1] / (len(times) - 1)
    A = np.eye(n) - dt * (np.diag(lower, -1) + np.diag(diag) + np.diag(upper, 1))
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


@pytest.mark.parametrize("inner_bc", ["extrapolation", "dirichlet0"])
@pytest.mark.parametrize("outer_bc", [None, lambda t: 1.0 + t])
def test_solve_modes_matches_a_dense_solve_of_the_full_matrix(inner_bc, outer_bc):
    grid = RadialGrid(R=1.0, n_cells=8)
    lams = (0.0, 2.0, 6.0, 40.0, 5000.0)

    def forcing(t, r):
        return np.sqrt(r) + t * r

    sols = solve_modes([LaplaceTypeSpec(lam=lam, m=3) for lam in lams], grid, T=0.1, dt=0.03,
                       forcing=forcing, outer_bc=outer_bc, inner_bc=inner_bc)
    for lam, sol in zip(lams, sols):
        assert len(sol.times) == 5 and sol.times[-1] == 0.1
        dense = _dense_backward_euler(LaplaceTypeSpec(lam=lam, m=3), grid, sol.times,
                                      forcing, outer_bc, inner_bc)
        assert np.max(np.abs(sol.values - dense)) <= 1e-12 * np.max(np.abs(dense))


def test_zero_pivot_is_a_numerical_error_at_step_0():
    # on the uniform grid r_j = j/8 every stencil weight is exact: with m = 4
    # and drift 8 the sub-diagonal entry of row 2 is 64 - 4·16 = 0, and with
    # potential 130 and dt = 0.5 the diagonal of row 1 is 1 - 0.5·2 = 0, so
    # the column of u_1 is zero under the Dirichlet-zero inner row
    grid = RadialGrid(R=1.0, n_cells=8, q=1.0)
    spec = LaplaceTypeSpec(lam=0.0, m=4, drift=lambda r: np.full_like(r, 8.0),
                           zeroth=lambda r: np.full_like(r, 130.0))
    with pytest.raises(NumericalError, match="step 0"):
        solve_modes([LaplaceTypeSpec(lam=2.0, m=3), spec], grid, T=1.0, dt=0.5,
                    inner_bc="dirichlet0")


def test_step_that_does_not_divide_T_ends_at_T():
    grid = RadialGrid(R=1.0, n_cells=50)
    sol = solve_mode(LaplaceTypeSpec(lam=2.0, m=3), grid, T=0.1, dt=0.03,
                     forcing=lambda t, r: np.ones_like(r), store_every=1)
    assert sol.times[-1] == 0.1
    assert np.max(np.diff(sol.times)) <= 0.03
    assert len(sol.times) == 5


@pytest.mark.parametrize("T, dt", [(np.nan, 0.01), (np.inf, 0.01), (0.1, np.nan), (0.1, 0.0)])
def test_non_finite_times_are_rejected(T, dt):
    grid = RadialGrid(R=1.0, n_cells=50)
    with pytest.raises(ValidationError):
        solve_mode(LaplaceTypeSpec(lam=0.0, m=3), grid, T=T, dt=dt)


@pytest.mark.parametrize("T, dt", [(1e9, 1e-3), (1.0, 1e-300), (1e300, 1e-10)])
def test_step_count_over_the_limit_is_refused_before_the_solve(T, dt):
    grid = RadialGrid(R=1.0, n_cells=20)
    with pytest.raises(ValidationError, match="time steps.*--T or raise --dt"):
        solve_modes([LaplaceTypeSpec(lam=0.0, m=3)], grid, T=T, dt=dt)


def test_stored_values_over_the_limit_are_refused_before_the_solve():
    spec = LaplaceTypeSpec(lam=0.0, m=3)
    with pytest.raises(ValidationError, match="stored values.*--store-every"):
        solve_mode(spec, RadialGrid(R=1.0, n_cells=2000), T=1.0, dt=1e-5, store_every=1)
    # 1 + 999 frames of 1000 nodes are exactly the limit; one more frame is over it
    grid = RadialGrid(R=1.0, n_cells=1000)
    assert solve_mode(spec, grid, T=0.999, dt=1e-3, store_every=1).values.shape == (1000, 1000)
    with pytest.raises(ValidationError, match="1001 frames"):
        solve_mode(spec, grid, T=1.0, dt=1e-3, store_every=1)
    # the last frame is kept too when store_every does not divide the step count
    with pytest.raises(ValidationError, match="1001 frames"):
        solve_mode(spec, grid, T=1.999, dt=1e-3, store_every=2)


def test_potential_over_the_float_range_is_refused_before_the_solve():
    # λ/r_min² is about 6e306 here, so only dt·λ/r_min² leaves the float
    # range; an infinite diagonal made the solve return zeros with exit 0
    grid = RadialGrid(R=1.0, n_cells=50)
    spec = LaplaceTypeSpec(lam=1e300, m=3)
    with pytest.raises(ValidationError, match="--lam.*--radius"):
        solve_mode(spec, grid, T=100.0, dt=100.0)
    assert np.all(np.isfinite(solve_mode(spec, grid, T=0.01, dt=0.01).final()))


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


def test_dirichlet_inner_flag():
    grid = RadialGrid(R=1.0, n_cells=200)
    spec = LaplaceTypeSpec(lam=0.0, m=3)
    sol = solve_mode(spec, grid, T=0.05, dt=0.005,
                     forcing=lambda t, r: np.ones_like(r), inner_bc="dirichlet0")
    assert abs(sol.final()[0]) < 1e-12
    with pytest.raises(ValidationError):
        radial_operator(spec, grid, inner_bc="nonsense")


def test_solution_frames_and_times():
    grid = RadialGrid(R=1.0, n_cells=100)
    spec = LaplaceTypeSpec(lam=0.0, m=3)
    sol = solve_mode(spec, grid, T=0.1, dt=0.01,
                     forcing=lambda t, r: np.ones_like(r), store_every=2)
    assert sol.times[0] == 0.0
    assert abs(sol.times[-1] - 0.1) < 1e-12
    assert sol.values.shape == (len(sol.times), 100)


def test_last_frame_ends_at_T_when_dt_nearly_divides_it():
    # 3 * 0.1 is 0.30000000000000004: the kept dt ended the last frame there
    sol = solve_mode(LaplaceTypeSpec(lam=0.0, m=3), RadialGrid(R=1.0, n_cells=20),
                     T=0.3, dt=0.1, store_every=1)
    assert sol.times[-1] == 0.3
    assert np.array_equal(sol.times[:-1], np.arange(3) * (0.3 / 3))
