"""Homogeneity exponents, counting functions, and Fredholm bookkeeping."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conic_lmcf import (
    EigenEntry,
    ExponentTable,
    FlatTorus,
    RoundSphere,
    ValidationError,
    exponent_roots,
    fredholm_index,
)
from conic_lmcf.cli import main
from conic_lmcf.errors import COUNT_LIMIT

HEX_METRIC = np.array([[2.0, 1.0], [1.0, 2.0]]) / 3.0

# the first exceptional exponent above 2 on the hexagonal torus link comes
# from lambda = 8: alpha = (-1 + sqrt(33)) / 2
NEXT_EXCEPTIONAL = (-1.0 + math.sqrt(33.0)) / 2.0


@pytest.fixture(scope="module")
def torus_table():
    return ExponentTable.for_link(FlatTorus(HEX_METRIC))


@pytest.fixture(scope="module")
def sphere_table():
    return ExponentTable.for_link(RoundSphere(2))


@pytest.fixture(scope="module")
def s3_table():
    return ExponentTable.for_link(RoundSphere(3))


def test_exponent_roots_quadratic_identity():
    for lam in (0.0, 2.0, 6.0, 8.0, 13.7):
        for m in (3, 4, 7):
            hi, lo = exponent_roots(lam, m)
            assert abs(hi * (hi + m - 2) - lam) < 1e-10
            assert abs(lo * (lo + m - 2) - lam) < 1e-10
            assert lo <= 2 - m < 0 <= hi


def test_known_roots_m3():
    assert exponent_roots(0.0, 3) == (0.0, -1.0)
    assert exponent_roots(2.0, 3) == (1.0, -2.0)
    assert exponent_roots(6.0, 3) == (2.0, -3.0)
    hi, lo = exponent_roots(8.0, 3)
    assert abs(hi - NEXT_EXCEPTIONAL) < 1e-12
    assert abs(hi + lo - (2 - 3)) < 1e-12


def test_table_window_and_gap(torus_table):
    alphas = [e.alpha for e in torus_table.entries(5.0)]
    assert alphas == sorted(alphas)
    # no exponent strictly inside (2-m, 0) = (-1, 0)
    assert all(not (-1.0 + 1e-9 < a < -1e-9) for a in alphas)
    assert torus_table.multiplicity(0.0) == 1
    assert torus_table.multiplicity(1.0) == 6
    assert torus_table.multiplicity(2.0) == 6
    assert torus_table.multiplicity(0.5) == 0


def test_count_M_frozen_values(torus_table):
    assert torus_table.count_M(1.5) == 7     # 1 at 0, 6 at 1
    assert torus_table.count_M(2.1) == 13    # plus 6 at 2
    assert torus_table.count_M(0.5) == 1
    assert torus_table.count_M(-0.5) == 0
    assert torus_table.count_M(-2.5) == -7   # -(6 at -2 plus 1 at -1)


def test_count_N_frozen_values(torus_table):
    # lifted set on [0, 2.1): 0,1,2 plus the k=1 lift of 0 at exponent 2
    assert torus_table.count_N(2.1) == 14
    assert torus_table.count_N(1.5) == 7
    assert torus_table.count_N(-0.5) == 0
    assert torus_table.count_N(0.5) == 1


def test_spectral_identities_random(torus_table, sphere_table):
    rng = np.random.default_rng(7)
    for table in (torus_table, sphere_table):
        exceptional = np.array(table.lifted_exponents(5.0) + [e.alpha for e in table.entries(5.0)])
        checked = 0
        while checked < 50:
            delta = rng.uniform(-3.0, 5.0)
            if np.min(np.abs(exceptional - delta)) < 1e-3:
                continue
            checked += 1
            if delta > 2.0:
                assert table.count_M(delta) == table.count_N(delta) - table.count_N(delta - 2.0)
            else:
                assert table.count_N(delta) == table.count_M(delta)
            if 2 - table.m < delta < 0:
                assert table.count_M(delta) == 0


def test_counts_constant_between_exponents(torus_table):
    # M only jumps when crossing a point of the exponent set
    assert torus_table.count_M(1.1) == torus_table.count_M(1.9)
    assert torus_table.count_M(2.01) == torus_table.count_M(NEXT_EXCEPTIONAL - 1e-6)
    assert (torus_table.count_M(NEXT_EXCEPTIONAL + 1e-6)
            - torus_table.count_M(NEXT_EXCEPTIONAL - 1e-6)) == 6


def test_is_exceptional(torus_table):
    assert torus_table.is_exceptional(0.0)
    assert torus_table.is_exceptional(2.0)
    assert torus_table.is_exceptional(NEXT_EXCEPTIONAL)
    assert not torus_table.is_exceptional(1.5)
    assert not torus_table.is_exceptional(2.5)
    # 4 = 0 + 2*2 = 2 + 2*1 is in the lifted set but not the plain set
    assert torus_table.is_exceptional(4.0, lifted=True)
    assert not torus_table.is_exceptional(2.5, lifted=True)


def test_window_enforcement(torus_table, tmp_path, capsys):
    # a weight far past every earlier query is answered exactly: the table grows to it
    k = np.arange(-40, 41)
    lams = 2 * (k[:, None] ** 2 - k[:, None] * k[None, :] + k[None, :] ** 2)  # k^T H^-1 k
    assert torus_table.count_M(20.0) == int((lams < 20 * 21).sum())  # alpha+ < 20
    assert torus_table.count_M(-20.0) == -int((lams < 19 * 20).sum())  # -1 - alpha+ > -20
    # one the link cannot enumerate is refused, naming the flags that set it
    far = math.sqrt(COUNT_LIMIT)
    with pytest.raises(ValidationError, match="--alpha-max or --gamma"):
        torus_table.count_M(far)
    assert main(["exponents", "--link", "hl-torus", "--alpha-max", f"{far:g}",
                 "--outdir", str(tmp_path)]) == 2
    assert "--alpha-max" in capsys.readouterr().err


def test_fredholm_index_frozen(torus_table):
    assert fredholm_index([torus_table], [2.1]) == -13
    assert fredholm_index([torus_table], [1.5]) == -7
    assert fredholm_index([torus_table], [-0.5]) == 0
    assert fredholm_index([torus_table], [-0.9]) == 0


def test_fredholm_exceptional_rejected(torus_table):
    with pytest.raises(ValidationError) as err:
        fredholm_index([torus_table], [2.0])
    assert "0" in str(err.value)
    with pytest.raises(ValidationError):
        fredholm_index([torus_table], [NEXT_EXCEPTIONAL])


def test_fredholm_multi_component(torus_table, sphere_table):
    total = fredholm_index([torus_table, sphere_table], [2.1, 1.5])
    assert total == -(13 + 4)  # sphere: 1 at 0 + 3 at 1


def test_fredholm_with_asymptotics(torus_table):
    assert fredholm_index([torus_table], [2.1], with_asymptotics=True) == 0
    assert fredholm_index([torus_table], [2.5], with_asymptotics=True) == 0
    # lifted exceptional values are still excluded
    with pytest.raises(ValidationError, match="exceptional weight"):
        fredholm_index([torus_table], [4.0], with_asymptotics=True)


def test_from_spectrum_matches_for_link(torus_table):
    # lambda(5) = 5 * (5 + 1) = 30: the rows of exponents in [-6, 5]
    rows = ExponentTable.from_spectrum(FlatTorus(HEX_METRIC).spectrum(30.0), m=3)
    assert rows == torus_table.entries(5.0)
    assert [e.alpha for e in rows] == sorted(e.alpha for e in rows)


def test_gap_invariant_randomized():
    # random eigenvalues never place an exponent in the forbidden gap
    rng = np.random.default_rng(12)
    for _ in range(50):
        m = int(rng.integers(3, 8))
        lams = np.sort(rng.uniform(0.0, 30.0, size=4))
        lams[0] = 0.0
        entries = [EigenEntry(float(l), 1) for l in np.unique(np.round(lams, 9))]
        for e in ExponentTable.from_spectrum(entries, m=m):
            assert not (2 - m + 1e-9 < e.alpha < -1e-9)


def test_m_examples_match_sum_over_halfopen(torus_table):
    # M(delta) for delta >= 0 equals the plain multiplicity sum over [0, delta)
    for delta in (0.5, 1.5, 2.1, 3.0):
        direct = sum(torus_table.multiplicity(e.alpha) for e in torus_table.entries(5.0)
                     if 0.0 <= e.alpha < delta - 1e-12)
        assert torus_table.count_M(delta) == direct


def test_cone_dimension_comes_from_the_link(torus_table, sphere_table, s3_table):
    assert (torus_table.m, sphere_table.m, s3_table.m) == (3, 3, 4)


@pytest.mark.parametrize("name", ["torus_table", "sphere_table", "s3_table"])
def test_count_N_jumps_by_n_sigma_across_each_lifted_exponent(request, name):
    # n_Σ(β) = m_Σ(β) + Σ_{k≥1, 2k≤β} m_Σ(β − 2k), read from the plain table
    table = request.getfixturevalue(name)
    lifted = table.lifted_exponents(4.9)
    assert lifted[:2] == [0.0, 1.0] and len(lifted) >= 5
    for beta in lifted:
        n_sigma = table.multiplicity(beta) + sum(
            table.multiplicity(beta - 2 * k) for k in range(1, int(beta / 2 + table.tol) + 1))
        assert table.count_N(beta + 1e-6) - table.count_N(beta - 1e-6) == n_sigma > 0


@pytest.mark.parametrize("name", ["torus_table", "sphere_table", "s3_table"])
def test_is_exceptional_lifted_holds_within_tol_and_fails_beyond(request, name):
    table = request.getfixturevalue(name)
    # every point of E_Σ and of the negative exponents in [-6, 5]
    points = table.lifted_exponents(5.0) + [e.alpha for e in table.entries(6.0)
                                            if -6.0 <= e.alpha < 0]
    assert len(points) >= 8
    for beta in points:
        for sign in (1, -1):
            assert table.is_exceptional(beta + sign * table.tol / 2, lifted=True)
            away = beta + sign * 10 * table.tol
            if min(abs(away - b) for b in points) > 9 * table.tol:
                assert not table.is_exceptional(away, lifted=True)


def _flat_torus_metrics():
    """2 x 2 metrics with diagonal in [0.5, 2] and off-diagonal within 0.8 of the bound sqrt(ac)."""
    diagonal = st.floats(0.5, 2.0)
    return st.tuples(diagonal, diagonal, st.floats(-0.8, 0.8)).map(
        lambda t: FlatTorus(np.array([[t[0], t[2] * math.sqrt(t[0] * t[1])],
                                      [t[2] * math.sqrt(t[0] * t[1]), t[1]]])))


@settings(max_examples=60, deadline=None)
@given(link=st.one_of(st.just(FlatTorus(HEX_METRIC)), st.just(RoundSphere(2)),
                      _flat_torus_metrics()),
       data=st.data())
def test_a_table_grown_on_demand_answers_as_one_grown_first(link, data):
    wide = ExponentTable.for_link(link)
    # the points of D_Σ and E_Σ in [-6, 6], near which a query's answer turns
    points = sorted({e.alpha for e in wide.entries(7.0) if e.alpha >= -6.0}
                    | set(wide.lifted_exponents(6.0)))
    tol = wide.tol
    near = st.builds(lambda b, i: b + i * tol / 8, st.sampled_from(points), st.integers(-16, 16))
    deltas = data.draw(st.lists(st.one_of(st.floats(-6.0, 6.0), near), min_size=1, max_size=4))
    grown = ExponentTable.for_link(link)
    for delta in deltas:  # the fresh table grows here, query by query, or not at all
        assert [grown.count_M(delta), grown.count_N(delta), grown.multiplicity(delta),
                grown.is_exceptional(delta), grown.is_exceptional(delta, lifted=True)] == [
            wide.count_M(delta), wide.count_N(delta), wide.multiplicity(delta),
            wide.is_exceptional(delta), wide.is_exceptional(delta, lifted=True)]
