"""Tests for the periodic graphical flow driver and its defect diagnostics."""

import re

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from conic_lmcf import (
    DefectReport,
    FlowState,
    GraphConditionError,
    ValidationError,
    catalog_initial_conditions,
    default_dt,
    flow_step,
    graph_determinant,
    grid_coordinates,
    hessian_field,
    lagrangian_angle,
    linearization_defect,
    run_flow,
)
from conic_lmcf.errors import COUNT_LIMIT
from conic_lmcf.flow import DET_FLOOR

# a snapshot count above every admissible step count: run_flow keeps every state
EVERY = COUNT_LIMIT + 1


def sine_ic(m, n, eps):
    xs = grid_coordinates(m, n)
    return eps * np.sin(xs[0])


def trig_profile(m, n, terms):
    """Σ (a·cos k·x + b·sin k·x)/max(1, |k|²) on the periodic n^m grid: graphical
    for |a|, |b| ≤ 0.03 and up to three terms."""
    xs = grid_coordinates(m, n)
    u = np.zeros((n,) * m)
    for k, a, b in terms:
        phase = sum(ki * x for ki, x in zip(k, xs))
        u = u + (a * np.cos(phase) + b * np.sin(phase)) / max(1, sum(ki * ki for ki in k))
    return u


def trig_terms(m):
    coefficient = st.floats(-0.03, 0.03)
    return st.lists(st.tuples(st.tuples(*[st.integers(-2, 2)] * m), coefficient, coefficient),
                    min_size=1, max_size=3)


# ---------------------------------------------------------------------------
# the angle map
# ---------------------------------------------------------------------------


def test_angle_of_zero_potential_is_zero():
    u = np.zeros((32, 32))
    theta = lagrangian_angle(u, 2 * np.pi / 32)
    assert theta.shape == u.shape
    assert np.all(theta == 0.0)


@pytest.mark.parametrize("eps", [0.01, 0.05])
def test_angle_linearizes_to_minus_laplacian(eps):
    # theta(u) = -Laplace u + O(|Hess u|^3); on a pure sine the discrete
    # Laplacian itself carries an O(dx^2) truncation error, so the honest
    # bound has both contributions.
    n = 64
    dx = 2 * np.pi / n
    xs = grid_coordinates(2, n)
    u = eps * np.sin(xs[0])
    theta = lagrangian_angle(u, dx)
    err = np.max(np.abs(theta + eps * np.sin(xs[0])))
    assert err <= eps * dx**2 / 12 * 1.2 + 0.4 * eps**3


def test_angle_is_odd_in_the_potential():
    # smooth random fields: a handful of low Fourier modes with random
    # coefficients, small enough to stay graphical.
    rng = np.random.default_rng(31)
    n = 32
    dx = 2 * np.pi / n
    xs = grid_coordinates(2, n)
    for _ in range(10):
        u = np.zeros((n, n))
        for _ in range(4):
            k = rng.integers(-2, 3, size=2)
            u += 0.03 * rng.standard_normal() * np.sin(
                k[0] * xs[0] + k[1] * xs[1] + rng.uniform(0, 2 * np.pi)
            )
        assert np.array_equal(
            lagrangian_angle(-u, dx), -lagrangian_angle(u, dx)
        )


def general_angle_and_determinant(u, dx):
    """θ and det(I + H) by the route that holds for every m: the Hessian's eigenvalues."""
    H = hessian_field(u, dx)
    return np.arctan(np.linalg.eigvalsh(H)).sum(-1), np.linalg.det(np.eye(u.ndim) + H)


def curvature_profile(n, s0):
    """A periodic g on n points whose second difference is s0 at node 0 and
    −s0/(n − 1) at every other node."""
    dx = 2 * np.pi / n
    s = np.full(n, -s0 / (n - 1))
    s[0] = s0
    slopes = np.cumsum(s) * dx
    slopes -= slopes.mean()  # forward differences summing to 0: g is periodic
    return np.concatenate(([0.0], np.cumsum(slopes[:-1]) * dx))


@settings(max_examples=60, deadline=None)
@given(trig_terms(2), st.sampled_from([1.0, 4.0, 10.0]), st.sampled_from([8, 16, 32]))
def test_closed_form_angle_matches_the_eigenvalue_route(terms, scale, n):
    # at m = 2 the angle is atan2(tr, 1 − det) and det(I + H) = (1 + tr) + det;
    # both agree with the eigenvalue route to an ulp or two (over 1,350 seeded
    # draws: θ to 2.2e-16, the determinant to 4.4e-16 of its largest value)
    u, dx = scale * trig_profile(2, n, terms), 2 * np.pi / n
    det = graph_determinant(u, dx)
    assume(det.min() >= DET_FLOOR)
    theta, ref_det = general_angle_and_determinant(u, dx)
    assert np.abs(lagrangian_angle(u, dx) - theta).max() <= 1e-14
    assert np.abs(det - ref_det).max() <= 1e-14 * np.abs(ref_det).max()


def test_closed_form_angle_takes_the_branch_beyond_a_right_angle():
    # λ₁ = λ₂ = 3 at node (0, 0): θ = 2·arctan 3 = 2.498 > π/2, where 1 − det < 0
    # and arctan(tr/(1 − det)) = −0.644 would be off by π
    n = 16
    g, dx = curvature_profile(n, 3.0), 2 * np.pi / n
    u = g[:, None] + g[None, :]
    assert np.abs(hessian_field(u, dx)[0, 0] - 3 * np.eye(2)).max() <= 1e-12
    theta, det = general_angle_and_determinant(u, dx)
    got = lagrangian_angle(u, dx)
    assert got[0, 0] == pytest.approx(2 * np.arctan(3.0), abs=1e-12) and got[0, 0] > np.pi / 2
    assert np.abs(got - theta).max() <= 1e-14
    assert np.abs(graph_determinant(u, dx) - det).max() <= 1e-14 * np.abs(det).max()


def test_closed_form_determinant_just_above_the_floor():
    # det(I + H) = 1 + s0 = 2e-6 at the nodes x1 = 0: the closed form keeps it
    # to 1e-18 and the graph is accepted
    n = 16
    g, dx = curvature_profile(n, -1.0 + 2 * DET_FLOOR), 2 * np.pi / n
    u = np.repeat(g[:, None], n, axis=1)
    theta, det = general_angle_and_determinant(u, dx)
    got = graph_determinant(u, dx)
    assert DET_FLOOR < got.min() < 2.01 * DET_FLOOR
    assert np.abs(got - det).max() <= 1e-18
    assert np.abs(lagrangian_angle(u, dx) - theta).max() <= 1e-14


def test_angle_rejects_steep_graphs():
    xs = grid_coordinates(2, 32)
    u, dx = 2.0 * np.sin(xs[0]), 2 * np.pi / 32
    with pytest.raises(GraphConditionError) as exc:
        lagrangian_angle(u, dx)
    bad = np.count_nonzero(graph_determinant(u, dx) < DET_FLOOR)
    assert bad > 0
    assert f"det(I+Hess) < {DET_FLOOR} at {bad} node(s)" in str(exc.value)


# ---------------------------------------------------------------------------
# stepping
# ---------------------------------------------------------------------------


def test_zero_state_is_stationary_bitwise():
    state = FlowState.from_potential(np.zeros((16, 16)))
    for _ in range(25):
        state = flow_step(state)
    assert np.all(state.u == 0.0)
    assert np.all(state.theta == 0.0)


def test_flow_step_advances_time_by_default_dt():
    state = FlowState.from_potential(sine_ic(2, 16, 0.05))
    out = flow_step(state)
    assert out.t == pytest.approx(default_dt(2, 16))
    out2 = flow_step(state, dt=1e-3)
    assert out2.t == pytest.approx(1e-3)


def test_run_flow_amplitude_decays_like_heat():
    # a single sine mode decays as eps * exp(-t) up to the cubic
    # nonlinearity; at eps = 0.1 the relative gap stays below a percent.
    eps, T = 0.1, 0.5
    final, _, _ = run_flow(sine_ic(2, 64, eps), T=T)
    amp = np.max(np.abs(final.u))
    assert amp == pytest.approx(eps * np.exp(-T), rel=0.01)
    assert final.t == pytest.approx(T)


def test_run_flow_keeps_every_state():
    final, series, states = run_flow(sine_ic(2, 16, 0.05), T=0.05, snapshots=EVERY)
    assert states[0].t == 0.0
    assert states[-1].t == pytest.approx(final.t)
    assert np.array_equal(states[-1].u, final.u)
    assert len(series["t"]) == len(states)
    assert set(series) == {"t", "sup_theta", "amplitude"}


@pytest.mark.parametrize("count", [0, 1, 2, 4, 50])
def test_snapshots_are_evenly_spaced_recorded_states(count):
    u0 = sine_ic(2, 16, 0.05)
    _, _, every = run_flow(u0, T=0.2, snapshots=EVERY)
    _, _, kept = run_flow(u0, T=0.2, snapshots=count)
    pick = np.linspace(0, len(every) - 1, min(count, len(every))).round().astype(int)
    assert [st.t for st in kept] == [every[i].t for i in pick]
    assert all(np.array_equal(st.u, every[i].u) for st, i in zip(kept, pick))
    with pytest.raises(ValidationError, match="snapshots"):
        run_flow(u0, T=0.2, snapshots=-1)


@pytest.mark.parametrize("name", sorted(catalog_initial_conditions(2, 48)))
def test_sup_angle_is_monotone_decreasing(name):
    u0 = catalog_initial_conditions(2, 48)[name]
    _, series, _ = run_flow(u0, T=0.5)
    sups = np.asarray(series["sup_theta"])
    assert np.all(sups[1:] <= sups[:-1] + 1e-10)


def test_mean_angle_is_conserved_to_second_order():
    for eps in (0.1, 0.05):
        xs = grid_coordinates(2, 64)
        u0 = eps * (
            np.sin(xs[0]) + 0.7 * np.cos(2 * xs[1]) + 0.3 * np.sin(xs[0] + xs[1])
        )
        _, _, states = run_flow(u0, T=0.5, snapshots=EVERY)
        means = [st.theta.mean() for st in states]
        assert abs(means[-1] - means[0]) <= 1e-4 * eps**2


@pytest.mark.parametrize("m, n", [(6, 100), (2000, 10), (10**400, 2)],
                         ids=["6-100", "2000-10", "huge-m"])
def test_grid_over_the_count_limit_is_refused_before_it_is_built(m, n):
    # (6, 100) died with a MemoryError for its 7.28 TiB of coordinates
    with pytest.raises(ValidationError, match="grid.*over the limit.*--m or --n"):
        grid_coordinates(m, n)


def test_flow_commutes_with_grid_shifts():
    xs = grid_coordinates(2, 32)
    u0 = 0.1 * (np.sin(xs[0]) + np.cos(2 * xs[1]))
    shifted, _, _ = run_flow(np.roll(u0, (3, 5), axis=(0, 1)), T=0.2)
    plain, _, _ = run_flow(u0, T=0.2)
    assert np.array_equal(shifted.u, np.roll(plain.u, (3, 5), axis=(0, 1)))


def test_flow_refines_at_second_order_in_space():
    # run to a fixed time with the dt of the finest grid so the spatial
    # error dominates, then compare on shared nodes against n = 128.
    T = 0.25
    dt = 0.9 * T * (2 * np.pi / 128) ** 2

    def final_u(n):
        final, _, _ = run_flow(sine_ic(2, n, 0.1), T=T, dt=dt)
        return final.u

    ref = final_u(128)
    errs = [
        np.max(np.abs(final_u(n) - ref[:: 128 // n, :: 128 // n]))
        for n in (16, 32)
    ]
    assert 3.4 < errs[0] / errs[1] < 4.6


@pytest.mark.parametrize("n, T, dt, steps", [
    (32, 0.1, None, 12), (48, 0.05, None, 13), (64, 0.025, None, 12),
    (16, 0.05, None, 2),  # rounding T/dt to nearest took one step of 0.05 here
    (8, 0.07, 0.01, 7),  # T/dt = 7.000000000000001: no extra step
])
def test_step_count_never_raises_dt(n, T, dt, steps):
    requested = default_dt(2, n) if dt is None else dt
    _, series, _ = run_flow(sine_ic(2, n, 0.05), T=T, dt=dt)
    assert len(series["t"]) - 1 == steps
    assert T / steps <= requested
    assert series["t"][-1] == pytest.approx(T)


@pytest.mark.parametrize("factor", [1.01, 20.0, 0.0, -1.0, float("nan")])
def test_out_of_range_dt_is_rejected(factor):
    # the explicit step is stable up to dx^2/(2m) and no further
    n = 16
    dt = factor * (2 * np.pi / n) ** 2 / 4
    u0 = sine_ic(2, n, 0.05)
    state = FlowState.from_potential(u0)
    for call in (lambda: flow_step(state, dt), lambda: run_flow(u0, T=0.1, dt=dt),
                 lambda: linearization_defect(u0, [0.1, 0.05], T=0.1, dt=dt)):
        with pytest.raises(ValidationError, match="dt"):
            call()


@pytest.mark.parametrize("T", [0.0, -0.1, float("inf"), float("nan")])
def test_final_time_must_be_positive_and_finite(T):
    with pytest.raises(ValidationError, match="T must be positive"):
        run_flow(sine_ic(2, 16, 0.05), T=T)


def test_step_count_over_the_limit_is_refused_before_the_first_step():
    # 1e300 once made a step count too large for int64 and a numpy traceback
    u0 = sine_ic(2, 16, 0.05)
    for call in (lambda: run_flow(u0, T=1e300),
                 lambda: linearization_defect(u0, [0.1, 0.05], T=1e9),
                 lambda: run_flow(u0, T=1.0, dt=1e-300)):
        with pytest.raises(ValidationError, match="time steps.*--T or raise --dt"):
            call()


def test_dt_at_the_stability_limit_is_accepted():
    n = 16
    limit = (2 * np.pi / n) ** 2 / 4
    out = flow_step(FlowState.from_potential(sine_ic(2, n, 0.05)), dt=limit)
    assert out.t == limit


def test_three_dimensional_flow_stays_finite_and_graphical():
    n = 12
    u0 = catalog_initial_conditions(3, n)["mixed"]
    _, series, states = run_flow(u0, T=5 * default_dt(3, n), snapshots=EVERY)
    assert len(states) == 6
    for st in states:
        assert np.all(np.isfinite(st.u)) and np.all(np.isfinite(st.theta))
        assert graph_determinant(st.u, st.dx).min() > 0.5
    assert series["sup_theta"][-1] < series["sup_theta"][0]


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(sorted(catalog_initial_conditions(2, 8))),
       st.sampled_from([8, 16, 32, 48]), st.sampled_from([0.05, 0.2]))
def test_flow_of_negated_potential_is_negated_flow(name, n, T):
    # θ(−u) = −θ(u) at m = 2: u -> −u negates tr H exactly and keeps det H,
    # and atan2 is odd in y, so u -> −u maps the flow to itself bitwise
    u0 = catalog_initial_conditions(2, n)[name]
    final, series, states = run_flow(u0, T, snapshots=EVERY)
    neg_final, neg_series, neg_states = run_flow(-u0, T, snapshots=EVERY)
    assert neg_series == series  # sup norms and times
    assert len(neg_states) == len(states)
    for state, neg in zip([final, *states], [neg_final, *neg_states]):
        assert neg.t == state.t
        assert np.array_equal(neg.u, -state.u)
        assert np.array_equal(neg.theta, -state.theta)


def reflection(axis):
    """The grid reflection i ↦ −i (mod n) on one axis."""
    return lambda u: np.roll(np.flip(u, axis), 1, axis)


GRID_MAPS = {
    "reflection": lambda m: st.integers(0, m - 1).map(reflection),
    "axis-swap": lambda m: st.permutations(range(m)).map(
        lambda p: lambda u: np.swapaxes(u, p[0], p[1])),
}


@pytest.mark.parametrize("m, n, kind", [(2, 16, "reflection"), (3, 8, "reflection"),
                                        (2, 16, "axis-swap"), (3, 8, "axis-swap"),
                                        (3, 8, "sign")])
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_flow_commutes_with_reflections_axis_swaps_and_sign(m, n, kind, data):
    # each map is an isometry of the lattice (or u -> −u, which negates θ), so it
    # commutes with the flow.  At m = 2 this holds bitwise: a map swaps the
    # operands of the stencil's pairwise sums or negates the mixed difference
    # exactly, tr and det of the Hessian are symmetric in their operands, and
    # atan2 is odd in y.  At m = 3 eigvalsh sees the permuted or negated
    # Hessian, so each step may round differently by about 1 ulp of sup|u₀|, and
    # the contracting flow only adds those up: at most one such ulp a step.
    # The m = 2 negation is tested above.
    u0 = trig_profile(m, n, data.draw(trig_terms(m), label="terms"))
    g = data.draw(GRID_MAPS[kind](m), label="map") if kind != "sign" else np.negative
    T = 10 * default_dt(m, n)
    (mapped, series, _), plain = run_flow(g(u0), T), g(run_flow(u0, T)[0].u)
    if m == 2:
        assert np.array_equal(mapped.u, plain)
    else:
        steps = len(series["t"]) - 1
        assert np.abs(mapped.u - plain).max() <= steps * np.spacing(np.abs(u0).max())


def test_steep_initial_condition_reports_nodes():
    # the initial condition fails in FlowState.from_potential, before any
    # step, so the message counts nodes and suggests no dt
    xs = grid_coordinates(2, 32)
    with pytest.raises(GraphConditionError) as exc:
        run_flow(2.0 * np.sin(xs[0]), T=0.5)
    message = str(exc.value)
    assert message.startswith("graph condition violated in lagrangian_angle")
    assert re.search(r" at [1-9]\d* node\(s\)", message)
    assert "retry" not in message


# ---------------------------------------------------------------------------
# linearization defect
# ---------------------------------------------------------------------------


def test_defect_contracts_cubically():
    xs = grid_coordinates(2, 64)
    u0 = np.sin(xs[0]) + np.cos(2 * xs[1])
    report = linearization_defect(u0, epsilons=[0.1, 0.05, 0.025], T=0.5)
    assert isinstance(report, DefectReport)
    # raw defects shrink ~8x per halving; per unit amplitude that is ~4x,
    # i.e. normalized ratios sit in the contract window around 1/4.
    for ratio in report.ratios_per_amplitude:
        assert 0.2 <= ratio <= 0.3
        assert ratio == pytest.approx(0.25, abs=0.01)
    for ratio in report.ratios:
        assert ratio == pytest.approx(0.125, abs=0.01)
    assert report.defects[0] > report.defects[1] > report.defects[2] > 0


def test_defect_of_zero_profile_is_zero():
    report = linearization_defect(np.zeros((16, 16)), epsilons=[0.1, 0.05], T=0.1)
    assert report.defects == [0.0, 0.0]


@pytest.mark.parametrize("eps", [[0.1, 0.2], [0.1, -0.05], []])
def test_defect_rejects_bad_amplitude_lists(eps):
    with pytest.raises(ValidationError):
        linearization_defect(np.zeros((8, 8)), epsilons=eps, T=0.1)


# ---------------------------------------------------------------------------
# helpers
# ---------------------------------------------------------------------------


def test_default_dt_respects_stability_factor():
    n = 64
    for m in (2, 3):
        assert default_dt(m, n) == pytest.approx(0.9 * (2 * np.pi / n) ** 2 / (2 * m))
        assert default_dt(m, 2 * n) < default_dt(m, n)


def test_catalog_profiles_are_graphical():
    for name, u0 in catalog_initial_conditions(2, 32).items():
        theta = lagrangian_angle(u0, 2 * np.pi / 32)
        assert np.all(np.isfinite(theta)), name


def test_flow_state_validates_shape():
    with pytest.raises(ValidationError):
        FlowState.from_potential(np.zeros((8, 9)))
