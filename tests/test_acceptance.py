"""Acceptance suite: one test per contract criterion, each with a timing gate.

Every test prints a single ``criterion N PASS`` line with its key measured
numbers (visible under ``pytest -v -rA`` or ``-s``); the pytest verdict for
each test is the pass/fail line for that criterion.
"""

import time

import numpy as np
import pytest

from conic_lmcf import (
    ExponentTable,
    FlatTorus,
    LaplaceTypeSpec,
    MomentElement,
    RadialGrid,
    RoundSphere,
    catalog_initial_conditions,
    extract_asymptotics,
    fredholm_index,
    grid_coordinates,
    harvey_lawson_torus,
    linearization_defect,
    plane_cone,
    run_flow,
    solve_modes,
    stability_index,
    verify_hamiltonian,
)

HEX_METRIC = np.array([[2.0, 1.0], [1.0, 2.0]]) / 3.0


class timed:
    """Context manager asserting the body ran inside the stated budget."""

    def __init__(self, budget_s):
        self.budget_s = budget_s

    def __enter__(self):
        self.t0 = time.perf_counter()
        return self

    def __exit__(self, *exc):
        self.elapsed = time.perf_counter() - self.t0
        if exc == (None, None, None):
            assert self.elapsed < self.budget_s, (
                f"runtime {self.elapsed:.1f}s exceeds budget {self.budget_s}s"
            )
        return False


def test_criterion_1_torus_cone_stability():
    with timed(1.0) as t:
        report = stability_index(harvey_lawson_torus())
        assert report.index == 0
        assert report.harmonic_counts == {0: 1, 1: 6, 2: 6}
        assert report.rank_translations == 6
        assert report.rank_su == 6
    print(
        f"criterion 1 PASS: index 0, counts 1/6/6, ranks 6+6 "
        f"({t.elapsed:.2f}s)"
    )


def test_criterion_2_spectral_counting_identities():
    with timed(1.0) as t:
        rng = np.random.default_rng(1215)
        links = [FlatTorus(HEX_METRIC), RoundSphere(2)]
        for link in links:
            table = ExponentTable.for_link(link, 6.0)
            lifted = np.asarray(table.lifted_exponents(6.0))
            checked = 0
            while checked < 50:
                delta = rng.uniform(-3.0, 5.0)
                if np.min(np.abs(lifted - delta)) < 1e-3:
                    continue
                if delta > 2.0:
                    assert table.count_M(delta) == table.count_N(
                        delta
                    ) - table.count_N(delta - 2.0)
                else:
                    assert table.count_M(delta) == table.count_N(delta)
                if -1.0 < delta < 0.0:
                    assert table.count_M(delta) == 0
                checked += 1
            # forbidden gap: no index contribution strictly inside (2-m, 0)
            for delta in np.linspace(-0.999, -0.001, 10):
                assert table.count_M(float(delta)) == 0
    print(f"criterion 2 PASS: 50 draws x 2 links, identities exact ({t.elapsed:.2f}s)")


def test_criterion_3_mesh_spectrum_convergence():
    with timed(60.0) as t:
        lattice = np.array([0, 1, 1, 1, 1, 2, 2, 2, 2, 4], dtype=float)
        errs = []
        for n in (32, 64, 128):
            mesh = FlatTorus(np.eye(2)).triangulate(n)
            ev = mesh.eigenvalues(10)
            errs.append(np.max(np.abs(ev - lattice)))
        orders = [np.log2(errs[i] / errs[i + 1]) for i in range(2)]
        assert all(p >= 1.8 for p in orders)
    print(
        "criterion 3 PASS: first-10 eigenvalue orders "
        f"{orders[0]:.2f}, {orders[1]:.2f} >= 1.8 ({t.elapsed:.2f}s)"
    )


def test_criterion_4_moment_map_hamiltonian_identity():
    with timed(5.0) as t:
        rng = np.random.default_rng(2026)
        worst = 0.0
        for _ in range(200):
            A = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
            X = MomentElement(
                A - A.conj().T,
                rng.standard_normal(3) + 1j * rng.standard_normal(3),
                float(rng.standard_normal()),
            )
            pts = rng.standard_normal((100, 3)) + 1j * rng.standard_normal((100, 3))
            worst = max(worst, verify_hamiltonian(X, pts))
        assert worst <= 1e-8
    print(f"criterion 4 PASS: worst residual {worst:.2e} <= 1e-8 ({t.elapsed:.2f}s)")


def test_criterion_5_manufactured_heat_convergence():
    # The backward-Euler step is exact on solutions linear in t, so the
    # temporal leg manufactures t^2 r^3 instead; the spatial leg keeps t r^3.
    with timed(30.0) as t:
        T = 0.1
        spec = LaplaceTypeSpec(lam=2.0, m=3)
        spatial_errs = []
        for n in (100, 200, 400):
            grid = RadialGrid(R=1.0, n_cells=n)
            sol = solve_modes(
                [spec], grid, T=T, dt=T / 400,
                forcing=lambda t_, r: r**3 - 10.0 * t_ * r,
                outer_bc=lambda t_: t_,
            )[0]
            spatial_errs.append(np.max(np.abs(sol.final() - T * grid.nodes**3)))
        spatial = [spatial_errs[i] / spatial_errs[i + 1] for i in range(2)]
        assert all(3.4 < rho < 4.6 for rho in spatial)

        grid = RadialGrid(R=1.0, n_cells=400)
        temporal_errs = []
        for nt in (25, 50, 100):
            sol = solve_modes(
                [spec], grid, T=T, dt=T / nt,
                forcing=lambda t_, r: 2.0 * t_ * r**3 - 10.0 * t_**2 * r,
                outer_bc=lambda t_: t_**2,
            )[0]
            temporal_errs.append(np.max(np.abs(sol.final() - T**2 * grid.nodes**3)))
        temporal = [temporal_errs[i] / temporal_errs[i + 1] for i in range(2)]
        assert all(1.7 < rho < 2.3 for rho in temporal)
    print(
        "criterion 5 PASS: spatial x"
        f"{spatial[0]:.2f}/{spatial[1]:.2f}, temporal x"
        f"{temporal[0]:.2f}/{temporal[1]:.2f} ({t.elapsed:.2f}s)"
    )


def test_criterion_6_decay_rate_and_coefficient_stability():
    with timed(60.0) as t:
        gamma = 2.5
        T = 0.1
        table = ExponentTable.for_link(FlatTorus(HEX_METRIC), 4.0)
        spec = LaplaceTypeSpec(lam=0.0, m=3)
        a0, a2, rates = [], [], []
        for n in (400, 800, 1600):
            grid = RadialGrid(R=1.0, n_cells=n)
            sol = solve_modes(
                [spec], grid, T=T, dt=T / 400,
                forcing=lambda t_, r: np.sqrt(r),
            )[0]
            exp = extract_asymptotics(sol, table, gamma=gamma)
            coeffs = {(a, k): c for a, k, c in exp.terms}
            a0.append(coeffs[(0.0, 0)])
            a2.append(coeffs[(0.0, 1)])
            rates.append(exp.remainder_rate)
        for rate in rates:
            assert abs(rate - gamma) <= 0.15
        for series in (a0, a2):
            sig3 = {float(f"{c:.3g}") for c in series}
            assert len(sig3) == 1, f"3-significant-figure drift: {series}"
            rel = (max(series) - min(series)) / abs(series[0])
            assert rel < 5e-3
    print(
        f"criterion 6 PASS: rates {rates[0]:.3f}/{rates[1]:.3f}/{rates[2]:.3f}, "
        f"r^0 -> {a0[-1]:.4e}, r^2 -> {a2[-1]:.4e} stable to 3 s.f. "
        f"({t.elapsed:.2f}s)"
    )


def test_criterion_7_index_jumps_match_multiplicities():
    with timed(1.0) as t:
        table = ExponentTable.for_link(FlatTorus(HEX_METRIC), 4.0)
        exps = sorted(
            {round(e.alpha, 12) for e in table.entries if 0.0 <= e.alpha <= 3.0}
        )
        assert exps == pytest.approx([0.0, 1.0, 2.0, (np.sqrt(33) - 1) / 2])
        h = 1e-3
        for alpha in exps:
            below = fredholm_index([table], [alpha - h])
            above = fredholm_index([table], [alpha + h])
            assert below - above == table.multiplicity(alpha)
        # piecewise constant between consecutive exceptional values
        boundaries = [-0.5] + exps + [3.0]
        for lo, hi in zip(boundaries, boundaries[1:]):
            samples = np.linspace(lo + h, hi - h, 5)
            vals = {fredholm_index([table], [float(g)]) for g in samples}
            assert len(vals) == 1
    print(
        "criterion 7 PASS: drops 1/6/6/6 at exponents "
        "0, 1, 2, 2.372; constant in between "
        f"({t.elapsed:.2f}s)"
    )


def test_criterion_8_linearization_defect_ratio():
    with timed(120.0) as t:
        xs = grid_coordinates(2, 64)
        u0 = np.sin(xs[0]) + np.cos(2 * xs[1])
        report = linearization_defect(u0, epsilons=[0.1, 0.05, 0.025], T=0.5)
        for ratio in report.ratios_per_amplitude:
            assert 0.2 <= ratio <= 0.3
    print(
        "criterion 8 PASS: per-amplitude ratios "
        f"{report.ratios_per_amplitude[0]:.4f}/{report.ratios_per_amplitude[1]:.4f} "
        f"in [0.2, 0.3] (raw {report.ratios[0]:.4f}/{report.ratios[1]:.4f}) "
        f"({t.elapsed:.2f}s)"
    )


def test_criterion_9_angle_monotonicity_and_stationarity():
    with timed(60.0) as t:
        catalog = catalog_initial_conditions(2, 48)
        assert len(catalog) == 5
        for name, u0 in sorted(catalog.items()):
            _, series, _ = run_flow(u0, T=0.5)
            sups = np.asarray(series["sup_theta"])
            assert np.all(sups[1:] <= sups[:-1] + 1e-10), name
        from conic_lmcf import FlowState, flow_step

        state = FlowState.from_potential(np.zeros((32, 32)))
        for _ in range(10):
            state = flow_step(state)
        assert np.all(state.u == 0.0)
    print(
        "criterion 9 PASS: sup-angle monotone for 5 profiles, "
        f"zero profile bitwise fixed ({t.elapsed:.2f}s)"
    )
