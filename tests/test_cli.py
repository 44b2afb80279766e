"""End-to-end tests for the command line interface (driven in-process)."""

import argparse
import contextlib
import csv
import dataclasses
import enum
import fractions
import io
import json
import math
import numbers
import os
import subprocess
import sys
import time
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
import scipy.sparse.linalg
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.sparse.linalg import ArpackNoConvergence

import conic_lmcf
from conic_lmcf import LaplaceTypeSpec, RadialGrid, ValidationError, run_flow, solve_modes
from conic_lmcf.cli import (_CHUNK_ROWS, COMMANDS, _fields, _fmt, build_parser, compile_expression,
                            main, parse_args, parse_forcing, parse_initial_condition,
                            write_columns, write_csv, write_frames)
from conic_lmcf.flow import grid_coordinates


def read_report(outdir):
    with open(outdir / "report.json", encoding="utf-8") as fh:
        return json.load(fh)


# ---------------------------------------------------------------------------
# happy paths per subcommand
# ---------------------------------------------------------------------------


def test_spectrum_sphere_csv(tmp_path, capsys):
    rc = main(
        ["spectrum", "--link", "sphere", "--dim", "2", "--lmax", "7",
         "--outdir", str(tmp_path)]
    )
    assert rc == 0
    with open(tmp_path / "spectrum.csv", newline="", encoding="utf-8") as fh:
        rows = list(csv.DictReader(fh))
    got = {float(r["lambda"]): int(r["multiplicity"]) for r in rows}
    assert got == {0.0: 1, 2.0: 3, 6.0: 5}
    assert "lambda=0" in capsys.readouterr().out


def test_spectrum_csv_quotes_torus_basis_tags(tmp_path):
    rc = main(["spectrum", "--link", "torus", "--dim", "2", "--lmax", "3",
               "--outdir", str(tmp_path)])
    assert rc == 0
    with open(tmp_path / "spectrum.csv", newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["lambda", "multiplicity", "basis_tag"]
    assert all(len(row) == 3 for row in rows)
    assert ["1", "4", "k=(1,0)"] in rows


def test_exponents_table_includes_fractional_root(tmp_path):
    rc = main(
        ["exponents", "--link", "hl-torus", "--alpha-max", "3",
         "--outdir", str(tmp_path)]
    )
    assert rc == 0
    with open(tmp_path / "exponents.csv", newline="", encoding="utf-8") as fh:
        rows = list(csv.DictReader(fh))
    by_lam = {float(r["lambda"]): r for r in rows}
    assert float(by_lam[8.0]["alpha_plus"]) == pytest.approx(
        (-1 + 33**0.5) / 2, abs=1e-12
    )
    # lower root mirrors across (2 - m)/2
    assert float(by_lam[2.0]["alpha_minus"]) == pytest.approx(-2.0)


def test_stability_output(tmp_path, capsys):
    rc = main(["stability", "--cone", "hl-torus-3", "--outdir", str(tmp_path)])
    assert rc == 0
    out = capsys.readouterr().out
    assert "stability index: 0" in out
    assert "1/6/6" in out
    report = read_report(tmp_path)
    assert report["outputs"]["index"] == 0
    assert report["outputs"]["degenerate"] is False
    # the StabilityReport fields, written as they are
    with open(tmp_path / "stability.json", encoding="utf-8") as fh:
        assert set(json.load(fh)) == {
            "index", "count_up_to_2", "harmonic_counts", "rank_translations", "rank_su",
            "dim_G", "expected_rank_translations", "expected_rank_su", "degenerate",
            "warnings"}


def test_stability_plane_is_degenerate(tmp_path, capsys):
    rc = main(["stability", "--cone", "plane-3", "--outdir", str(tmp_path)])
    assert rc == 0
    report = read_report(tmp_path)
    assert report["outputs"]["index"] == -3
    assert report["outputs"]["dim_G"] == 3
    assert report["outputs"]["degenerate"] is True
    assert "WARNING: translations span 3/6: not an isolated singularity" in capsys.readouterr().out


def test_fredholm_index(tmp_path, capsys):
    rc = main(
        ["fredholm", "--cone", "hl-torus-3", "--gamma", "2.1",
         "--outdir", str(tmp_path)]
    )
    assert rc == 0
    assert "fredholm index: -13" in capsys.readouterr().out
    assert read_report(tmp_path)["outputs"]["index"] == -13


def test_heat_writes_every_mode(tmp_path):
    rc = main(
        ["heat", "--lam", "0", "2", "--n", "60", "--T", "0.05",
         "--outdir", str(tmp_path)]
    )
    assert rc == 0
    report = read_report(tmp_path)
    files = set(report["outputs"]["files"])
    assert {"mode_0.csv", "profile_0.dat", "mode_2.csv", "profile_2.dat"} <= files
    # gnuplot companion: two whitespace-separated columns
    line = (tmp_path / "profile_0.dat").read_text().strip().splitlines()[0]
    assert len(line.split()) == 2


def test_radial_frames_end_at_T(tmp_path):
    # dt = 0.1 nearly divides T = 0.3, and the kept dt ended the last frame,
    # and the asymptotics fit's time, at 3 * 0.1 = 0.30000000000000004
    common = ["--lam", "0", "--n", "20", "--T", "0.3", "--dt", "0.1"]
    assert main(["heat", *common, "--store-every", "1", "--outdir", str(tmp_path / "h")]) == 0
    last = (tmp_path / "h" / "mode_0.csv").read_text(encoding="utf-8").splitlines()[-1]
    assert float(last.split(",")[0]) == 0.3
    assert main(["asymptotics", *common, "--outdir", str(tmp_path / "a")]) == 0
    assert read_report(tmp_path / "a")["outputs"]["time"] == 0.3


def test_mode_csv_matches_the_row_writer(tmp_path):
    # mode_*.csv is byte-identical to the solution written row by row, with frames
    # between the first and the last one and without
    grid = RadialGrid(R=1.0, n_cells=40)
    for store_every in (3, 0):
        rc = main(["heat", "--lam", "0", "6", "--n", "40", "--T", "0.05", "--forcing", "t*r^0.5",
                   "--store-every", str(store_every), "--outdir", str(tmp_path)])
        assert rc == 0
        for lam in (0.0, 6.0):
            sol = solve_modes([LaplaceTypeSpec(lam=lam, m=3)], grid, T=0.05, dt=0.05 / 400,
                              forcing=lambda t, r: t * r**0.5, store_every=store_every)[0]
            rows = [(t, r, u) for t, frame in zip(sol.times, sol.values)
                    for r, u in zip(grid.nodes, frame)]
            write_csv(tmp_path / "expected.csv", ["t", "r", "u"], rows)
            assert ((tmp_path / f"mode_{lam:g}.csv").read_bytes()
                    == (tmp_path / "expected.csv").read_bytes())


@pytest.mark.parametrize("store_every", ["0", "1"])
def test_profile_has_the_bytes_of_the_last_mode_frame(tmp_path, store_every):
    # the profile and the CSV's last frame share their field texts
    assert main(["heat", "--lam", "0", "6", "--n", "40", "--T", "0.05", "--forcing", "t*r^0.5",
                 "--store-every", store_every, "--outdir", str(tmp_path)]) == 0
    for tag in ("0", "6"):
        rows = (tmp_path / f"mode_{tag}.csv").read_text(encoding="utf-8").splitlines()[-40:]
        expected = "".join("  ".join(row.split(",")[1:]) + "\n" for row in rows)
        assert (tmp_path / f"profile_{tag}.dat").read_bytes() == expected.encode()


def test_two_mode_run_equals_two_one_mode_runs(tmp_path):
    argv = ["heat", "--n", "50", "--T", "0.05", "--forcing", "r^1.5", "--store-every", "2"]
    assert main(argv + ["--lam", "2", "8", "--outdir", str(tmp_path / "both")]) == 0
    for lam in ("2", "8"):
        single = tmp_path / lam
        assert main(argv + ["--lam", lam, "--outdir", str(single)]) == 0
        for name in (f"mode_{lam}.csv", f"profile_{lam}.dat"):
            assert (tmp_path / "both" / name).read_bytes() == (single / name).read_bytes()
        sups = [read_report(d)["outputs"]["sup_final"][lam] for d in (tmp_path / "both", single)]
        assert sups[0] == sups[1]


TABLE_TS, TABLE_RS = [0.0, 0.01, 0.035, 0.1], [0.0, 0.05, 0.3, 0.31, 0.7, 1.0]


@pytest.mark.parametrize("ts, rs", [pytest.param(TABLE_TS, TABLE_RS, id="rs0"),
                                    pytest.param(TABLE_TS, [0.5], id="rs1"),
                                    pytest.param([0.035], [0.0, 0.1, 0.25, 0.5, 1.0],
                                                 id="one-time-row")])
def test_forcing_table_matches_the_grid_interpolator(tmp_path, ts, rs):
    # bilinear in (t, r), both clipped to the table, as RegularGridInterpolator
    from scipy.interpolate import RegularGridInterpolator

    rng = np.random.default_rng(5)
    ts, rs = np.array(ts), np.array(rs)
    table = rng.normal(size=(ts.size, rs.size))
    rows = [(t, r, table[i, j]) for i, t in enumerate(ts) for j, r in enumerate(rs)]
    rng.shuffle(rows)
    write_csv(tmp_path / "f.csv", ["t", "r", "f"], rows)
    f = parse_forcing(None, str(tmp_path / "f.csv"))
    oracle = RegularGridInterpolator((ts, rs), table)
    r = np.concatenate([rs, rng.uniform(-0.5, 1.5, 300), [-np.inf, np.inf]])
    for t in [*ts, -1.0, 0.02, 0.0999, 0.5, *rng.uniform(-0.05, 0.15, 20)]:
        xi = np.stack(np.broadcast_arrays(np.clip(t, ts[0], ts[-1]),
                                          np.clip(r, rs[0], rs[-1])), axis=-1)
        np.testing.assert_allclose(f(t, r), oracle(xi), rtol=1e-15, atol=0)


def test_heat_reads_a_forcing_table(tmp_path):
    # t*r is bilinear, so its table reproduces the closed-form forcing
    ts, rs = np.linspace(0.0, 0.05, 3), np.linspace(0.0, 1.0, 5)
    write_csv(tmp_path / "f.csv", ["t", "r", "f"], [(t, r, t * r) for t in ts for r in rs])
    argv = ["heat", "--lam", "2", "--n", "50", "--T", "0.05"]
    assert main(argv + ["--forcing-csv", str(tmp_path / "f.csv"),
                        "--outdir", str(tmp_path / "table")]) == 0
    assert main(argv + ["--forcing", "t*r^1", "--outdir", str(tmp_path / "formula")]) == 0
    table, formula = (np.loadtxt(tmp_path / d / "profile_2.dat") for d in ("table", "formula"))
    assert np.abs(table[:, 1]).max() > 1e-4
    np.testing.assert_allclose(table, formula, rtol=1e-12, atol=0)


def counted(f):
    """``f`` with its ``reads``, recording the time of every call."""
    calls = []

    def wrapper(t, r):
        calls.append(t)
        return f(t, r)

    wrapper.reads = f.reads
    return wrapper, calls


def table_forcing(path, ts):
    rs = np.linspace(0.0, 1.0, 5)
    write_csv(path, ["t", "r", "f"], [(t, r, 1.0 + t + r * r) for t in ts for r in rs])
    return parse_forcing(None, str(path))


@pytest.mark.parametrize("source, reads", [
    ("r^0.5", {"r"}), ("2*pi", set()), ("t*r^0.5", {"t", "r"}),
    ([0.02], {"r"}), ([0.0, 0.05], {"t", "r"})])
def test_a_forcing_without_t_is_evaluated_once_per_solve(tmp_path, source, reads):
    # a list is the time column of a --forcing-csv table
    f = (parse_forcing(source, None) if isinstance(source, str)
         else table_forcing(tmp_path / "f.csv", source))
    assert f.reads == reads
    f, calls = counted(f)
    specs = [LaplaceTypeSpec(lam=lam, m=3) for lam in (0.0, 2.0)]
    sols = solve_modes(specs, RadialGrid(R=1.0, n_cells=40), T=0.1, dt=0.03, forcing=f)
    # four steps of T/4, none longer than dt
    assert calls == ([0.025] if "t" not in reads else sols[0].times[1:].tolist())


@pytest.mark.parametrize("store_every, dt", [(0, 0.01), (3, 0.01), (3, 0.03)])
@pytest.mark.parametrize("source", ["r^0.5", "table"])
def test_a_forcing_evaluated_once_keeps_the_bits_of_one_evaluated_per_step(
        tmp_path, source, store_every, dt):
    # the per-step reference has no ``reads``; 0.03 does not divide T = 0.1
    if source == "table":
        once = table_forcing(tmp_path / "f.csv", [0.02])
        per_step = lambda t, r: once(t, r)  # noqa: E731
    else:
        once, per_step = parse_forcing(source, None), lambda t, r: r**0.5
    specs = [LaplaceTypeSpec(lam=lam, m=3) for lam in (0.0, 2.0, 6.0)]
    kwargs = dict(T=0.1, dt=dt, outer_bc=lambda t: 0.25, store_every=store_every)
    grid = RadialGrid(R=1.0, n_cells=60)
    for a, b in zip(solve_modes(specs, grid, forcing=once, **kwargs),
                    solve_modes(specs, grid, forcing=per_step, **kwargs)):
        assert a.times.tobytes() == b.times.tobytes()
        assert a.values.tobytes() == b.values.tobytes()


def test_asymptotics_extracts_terms(tmp_path, capsys):
    rc = main(
        ["asymptotics", "--lam", "0", "--n", "400", "--T", "0.1",
         "--gamma", "2.5", "--forcing", "r^0.5", "--outdir", str(tmp_path)]
    )
    assert rc == 0
    assert "term r^" in capsys.readouterr().out
    with open(tmp_path / "asymptotics.json", encoding="utf-8") as fh:
        data = json.load(fh)
    assert data["terms"]  # rows are [alpha, lift, coefficient]
    assert all(abs(coeff) > 0 for _, _, coeff in data["terms"])
    assert 2.35 <= data["remainder_rate"] <= 2.65
    # the AsymptoticExpansion fields, written as they are
    assert set(data) == {"terms", "remainder_rate", "remainder_sup", "gamma", "time"}


def test_asymptotics_on_too_few_annuli_exits_2_naming_n(tmp_path, capsys):
    # exited 0 printing "remainder decay rate: inf": the 8-cell grid puts nodes in
    # fewer than 5 annuli of r/R in [1e-3, 1e-1], and the refused fit read as no remainder
    rc = main(["asymptotics", "--lam", "2", "--gamma", "2.5", "--n", "8", "--T", "0.01",
               "--forcing", "r^0.5", "--outdir", str(tmp_path)])
    assert rc == 2
    assert "raise --n" in capsys.readouterr().err
    assert not (tmp_path / "asymptotics.json").exists()


@pytest.mark.parametrize("link, lam, near", [([], "1.5", "0 and 2"), ([], "2.0000001", "2 and 6"),
                                             (["--metric", "1,0;0,1"], "3", "2 and 4")])
def test_asymptotics_of_a_lam_that_is_no_link_eigenvalue_exits_2(tmp_path, capsys, monkeypatch,
                                                                  link, lam, near):
    # exited 0 with an empty ladder: --lam 1.5 printed only "remainder decay
    # rate: 0.8343 (target >= 2.5)"; then it was refused only after the solve
    import conic_lmcf.radial

    def no_solve(*args, **kwargs):
        raise AssertionError("the radial solve ran")
    monkeypatch.setattr(conic_lmcf.radial, "solve_modes", no_solve)
    rc = main(["asymptotics", *link, "--lam", lam, "--n", "400", "--T", "0.1", "--gamma", "2.5",
               "--forcing", "r^0.5", "--outdir", str(tmp_path)])
    assert rc == 2
    err = capsys.readouterr().err
    assert f"--lam {lam} is not an eigenvalue of the link" in err, err
    assert f"eigenvalues next to it are {near}" in err, err
    assert not (tmp_path / "asymptotics.json").exists()


def test_asymptotics_takes_the_cone_dimension_from_its_link(tmp_path):
    # the cone over T^3 has dimension 4, where lambda = 3 has alpha+ = 1; a
    # --m 3 default fitted r^1.30278, the root for dimension 3
    assert main(["asymptotics", "--metric", "1,0,0;0,1,0;0,0,1", "--lam", "3",
                 "--forcing", "r^0.5", "--outdir", str(tmp_path)]) == 0
    with open(tmp_path / "asymptotics.json", encoding="utf-8") as fh:
        terms = json.load(fh)["terms"]
    assert [(alpha, k) for alpha, k, _ in terms] == [(pytest.approx(1.0, abs=1e-12), 0)]


def test_flow_artifacts(tmp_path):
    rc = main(
        ["flow", "--n", "32", "--T", "0.2", "--ic", "sine",
         "--outdir", str(tmp_path)]
    )
    assert rc == 0
    for name in ("flow_snapshots.csv", "sup_theta.dat", "flow_summary.json"):
        assert (tmp_path / name).exists()
    with open(tmp_path / "flow_summary.json", encoding="utf-8") as fh:
        summary = json.load(fh)
    sups = summary["sup_theta"]
    assert sups[-1] <= sups[0]
    # run_flow's series, written as it is
    assert set(summary) == {"t", "sup_theta", "amplitude"}
    # the largest grid of one point per axis under the count limit: 3^12 wrap-padded values
    assert main(["flow", "--m", "12", "--n", "1", "--outdir", str(tmp_path / "m12")]) == 0


def test_flow_holds_only_the_snapshots_it_writes(tmp_path):
    # keeping every state of this run took about 400 MB.  The peak is the
    # child's VmHWM: its ru_maxrss starts at the pytest process's peak, which
    # the exec carries over
    if not Path("/proc/self/status").is_file():
        pytest.skip("peak RSS is read from /proc/self/status")
    script = ("import sys\n"
              "from conic_lmcf.cli import main\n"
              "rc = main(['flow', '--n', '128', '--T', '0.5', '--outdir', sys.argv[1]])\n"
              "with open('/proc/self/status', encoding='ascii') as fh:\n"
              "    print(rc, next(ln.split()[1] for ln in fh if ln.startswith('VmHWM:')))\n")
    src = str(Path(conic_lmcf.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run([sys.executable, "-c", script, str(tmp_path)], env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    rc, peak_kib = proc.stdout.split()[-2:]
    assert rc == "0"
    assert int(peak_kib) / 1024 < 120


def test_negative_snapshot_count_exits_2(tmp_path, capsys):
    rc = main(["flow", "--n", "16", "--T", "0.01", "--snapshots", "-1",
               "--outdir", str(tmp_path)])
    assert rc == 2
    assert "--snapshots" in capsys.readouterr().err


def test_flow_snapshots_match_the_row_writer(tmp_path):
    # flow_snapshots.csv is byte-identical to the states written row by row
    rc = main(["flow", "--n", "16", "--T", "0.05", "--ic", "mixed", "--snapshots", "2",
               "--outdir", str(tmp_path)])
    assert rc == 0
    _, _, states = run_flow(parse_initial_condition("mixed", 2, 16), T=0.05, snapshots=2)
    rows = [(st.t, node, u, th)
            for st in (states[0], states[-1])
            for node, (u, th) in enumerate(zip(st.u.ravel(), st.theta.ravel()))]
    write_csv(tmp_path / "expected.csv", ["t", "node", "u", "theta"], rows)
    assert ((tmp_path / "flow_snapshots.csv").read_bytes()
            == (tmp_path / "expected.csv").read_bytes())


SPECIAL_FLOATS = [0.0, -0.0, 5e-324, -5e-324, 1.1125369292536007e-308, math.inf, -math.inf,
                  math.nan, 1e300, -1e300, 1e-300, -1e-300, 0.1, 1.0, 2.0**53 + 1]
FLOATS = st.one_of(st.sampled_from(SPECIAL_FLOATS), st.floats())
# text keys are mostly made of what the writers' templates and CSV quoting act on
MARKED_KEYS = ["%", "a%sb", "%%", "%.17g", '"', 'x,"y"', "\x00", ""]
KEYS = st.one_of(st.integers(), FLOATS, st.sampled_from(MARKED_KEYS),
                 st.text(st.sampled_from(list('%,"\x00sgd.17-e \n')), min_size=1, max_size=8),
                 st.text(st.characters(blacklist_categories=("Cs",)), max_size=4))
ROW_COUNTS = [0, 1, 2, 7, _CHUNK_ROWS - 1, _CHUNK_ROWS, _CHUNK_ROWS + 1]
OVER_A_CHUNK = (_CHUNK_ROWS + 1, 2, lambda: np.resize(SPECIAL_FLOATS, _CHUNK_ROWS + 1))


@st.composite
def tables(draw):
    """Row count, column count and a column maker drawing from a small pool of floats."""
    n = draw(st.sampled_from(ROW_COUNTS))
    width = draw(st.integers(1, 3))
    pool = np.array(draw(st.lists(FLOATS, min_size=1, max_size=8)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    return n, width, lambda: pool[rng.integers(len(pool), size=n)]


@settings(max_examples=60, deadline=None)
@given(tables(), st.lists(KEYS, min_size=1, max_size=6),
       st.lists(st.one_of(st.integers(), FLOATS), max_size=3), st.integers(0, 2**9 - 1),
       st.integers(0, 2**9 - 1))
@example(OVER_A_CHUNK, [*MARKED_KEYS, 3, -0.0], [0.0, 7, math.nan], 0b110100, 0b001001001)
def test_frame_writer_has_the_bytes_of_the_row_writer(tmp_path_factory, table, key_pool, times,
                                                      texts, lists):
    # bit 3i + j of ``texts`` hands column j of frame i over as field texts, and else
    # bit 3i + j of ``lists`` as a list of floats, so the column kinds change between frames
    n, width, column = table
    keys = [key_pool[j % len(key_pool)] for j in range(n)]
    frames = [(t, [column() for _ in range(width)]) for t in times]
    given_frames = [(t, [_fields(c) if texts >> (3 * i + j) & 1
                         else c.tolist() if lists >> (3 * i + j) & 1 else c
                         for j, c in enumerate(columns)])
                    for i, (t, columns) in enumerate(frames)]
    path = tmp_path_factory.mktemp("frames")
    write_frames(path / "frames.csv", ["t", "key", "a", "b", "c"][:width + 2],
                 [_fmt(k) for k in keys], given_frames)
    write_csv(path / "rows.csv", ["t", "key", "a", "b", "c"][:width + 2],
              [(t, key, *values) for t, columns in frames
               for key, *values in zip(keys, *(c.tolist() for c in columns))])
    assert (path / "frames.csv").read_bytes() == (path / "rows.csv").read_bytes()


@settings(max_examples=300, deadline=None)
@given(st.lists(st.one_of(st.booleans(), st.integers(), FLOATS), max_size=12))
@example([0.0, -0.0, 5e-324, -5e-324, 2.2250738585072009e-308, math.inf, -math.inf, math.nan,
          True, False, -(2**70)])
def test_fields_write_the_text_of_fmt(values):
    # one "%" call for the whole list, one _fmt call per value: the same field texts
    assert _fields(values) == [_fmt(v) for v in values]
    floats = [float(v) for v in values if isinstance(v, float)]
    assert _fields(np.array(floats)) == [_fmt(v) for v in floats]


def _fmt_by_abc(value):
    """A CSV field as ``_fmt`` wrote it when it asked the ``numbers`` ABCs alone."""
    if isinstance(value, numbers.Integral):
        return str(int(value))
    if isinstance(value, numbers.Real):
        return format(float(value), ".17g")
    text = str(value)
    return '"' + text.replace('"', '""') + '"' if "," in text or '"' in text else text


class _Level(enum.IntEnum):
    HIGH = 7


SCALARS = st.one_of(
    st.booleans(), st.integers(), FLOATS, KEYS,
    st.booleans().map(np.bool_), FLOATS.map(np.float64), st.floats(width=32).map(np.float32),
    FLOATS.map(np.longdouble), st.integers(-2**63, 2**63 - 1).map(np.int64),
    st.integers(0, 255).map(np.uint8), st.integers(-2**31, 2**31 - 1).map(np.int32))


@settings(max_examples=400, deadline=None)
@given(SCALARS)
def test_fmt_writes_what_the_abc_checks_wrote(value):
    # _fmt asks float and int before the slower ABC checks; no field may change
    assert _fmt(value) == _fmt_by_abc(value)


@pytest.mark.parametrize("value", [True, False, np.True_, _Level.HIGH, fractions.Fraction(1, 3),
                                   np.float16(0.1), np.float64(-0.0), 2**70, -(2**70),
                                   np.uint64(2**64 - 1), 1.5 + 2j, "1,5"])
def test_fmt_writes_what_the_abc_checks_wrote_on_edge_scalars(value):
    assert _fmt(value) == _fmt_by_abc(value)


@settings(max_examples=60, deadline=None)
@given(tables(), st.integers(0, 2**2 - 1), st.integers(0, 2**2 - 1))
@example(OVER_A_CHUNK, 0b01, 0b00)
@example(OVER_A_CHUNK, 0b00, 0b01)
def test_column_writer_has_the_bytes_of_the_row_writer(tmp_path_factory, table, texts, lists):
    n, width, column = table
    columns = [column() for _ in range(width)]
    path = tmp_path_factory.mktemp("columns") / "columns.dat"
    # the keys as field texts; bit j − 1 of ``texts`` hands column j over as field texts,
    # and else bit j − 1 of ``lists`` as a list of floats
    write_columns(path, _fields(columns[0]),
                  *(_fields(c) if texts >> (j - 1) & 1 else c.tolist() if lists >> (j - 1) & 1
                    else c for j, c in enumerate(columns[1:], 1)))
    expected = "".join("  ".join("%.17g" % v for v in row) + "\n"
                       for row in zip(*(c.tolist() for c in columns)))
    assert path.read_bytes() == expected.encode()


def test_columns_of_different_lengths_are_refused(tmp_path):
    # zip cut every column to the shortest one and the file lost rows silently
    with pytest.raises(ValueError, match=r"\[3, 2\], not 3"):
        write_columns(tmp_path / "x.dat", _fields([1.0, 2.0, 3.0]), [1.0, 2.0, 3.0], [1.0, 2.0])
    with pytest.raises(ValueError, match=r"\[2\], not 3"):
        write_frames(tmp_path / "x.csv", ["t", "r", "u"], _fields([0.0, 0.5, 1.0]),
                     [(0.0, (np.ones(2),))])


def test_defect_ratio_window(tmp_path, capsys):
    rc = main(
        ["defect", "--n", "32", "--T", "0.25", "--eps", "0.1", "0.05",
         "--outdir", str(tmp_path)]
    )
    assert rc == 0
    with open(tmp_path / "defect.json", encoding="utf-8") as fh:
        data = json.load(fh)
    for ratio in data["ratios_per_amplitude"]:
        assert 0.2 <= ratio <= 0.3
    assert "per-amplitude ratio" in capsys.readouterr().out
    # the DefectReport fields, written as they are
    assert set(data) == {"epsilons", "defects", "defects_per_amplitude", "ratios",
                         "ratios_per_amplitude"}


def _strict_json(path):
    """``path`` parsed as RFC 8259 JSON, which has no NaN, Infinity or -Infinity."""
    def refuse(name):
        raise ValueError(f"{path.name} holds {name}, which is not JSON")

    return json.loads(path.read_text(encoding="utf-8"), parse_constant=refuse)


def test_non_finite_outputs_are_written_as_null(tmp_path, capsys):
    # a zero profile has zero defects, so every ratio is 0/0; the unforced
    # mode is zero, so its remainder decays at an infinite rate.  Both files
    # held NaN and Infinity
    argv = ["defect", "--ic", "0", "--n", "16", "--T", "0.01", "--outdir", str(tmp_path / "d")]
    assert main(argv) == 0
    assert "raw ratio nan" in capsys.readouterr().out
    for name in ("defect.json", "report.json"):
        data = _strict_json(tmp_path / "d" / name)
        data = data.get("outputs", data)
        assert data["ratios"] == data["ratios_per_amplitude"] == [None, None]
    argv = ["asymptotics", "--lam", "0", "--n", "400", "--T", "0.1", "--gamma", "2.5",
            "--outdir", str(tmp_path / "a")]
    assert main(argv) == 0
    assert "remainder decay rate: inf" in capsys.readouterr().out
    for name in ("asymptotics.json", "report.json"):
        data = _strict_json(tmp_path / "a" / name)
        assert data.get("outputs", data)["remainder_rate"] is None


# ---------------------------------------------------------------------------
# report contract
# ---------------------------------------------------------------------------


def test_reports_validate_against_shipped_schema(tmp_path):
    # the schema is the one statement of the report's shape; every golden run,
    # which covers each subcommand, must write a report that holds to it
    import jsonschema
    from importlib import resources

    from test_golden import RUNS, run_all

    schema = json.loads(resources.files("conic_lmcf.schemas")
                        .joinpath("report.schema.json").read_text())
    run_all(tmp_path)
    assert {argv[0] for argv in RUNS.values()} == set(COMMANDS)
    for name in RUNS:
        jsonschema.validate(read_report(tmp_path / name), schema)


def test_reports_record_versions(tmp_path):
    main(["fredholm", "--cone", "hl-torus-3", "--gamma", "2.1",
          "--outdir", str(tmp_path)])
    versions = read_report(tmp_path)["versions"]
    assert versions["conic-lmcf"] == conic_lmcf.__version__
    assert set(versions) == {"python", "numpy", "scipy", "conic-lmcf"}


def test_repeated_runs_are_byte_identical(tmp_path):
    argv = ["heat", "--lam", "0", "--n", "80", "--T", "0.05",
            "--forcing", "r^0.5"]
    dirs = [tmp_path / "a", tmp_path / "b"]
    for d in dirs:
        assert main(argv + ["--outdir", str(d)]) == 0
    for name in ("mode_0.csv", "profile_0.dat"):
        assert (dirs[0] / name).read_bytes() == (dirs[1] / name).read_bytes()
    # reports agree except for the wall clock
    reports = [read_report(d) for d in dirs]
    for r in reports:
        r.pop("wall_time_s")
    assert reports[0] == reports[1]


# ---------------------------------------------------------------------------
# flag/config handling
# ---------------------------------------------------------------------------


def test_config_file_supplies_defaults(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"gamma": [1.5], "cone": "hl-torus-3"}))
    out1 = tmp_path / "defaulted"
    assert main(["fredholm", "--config", str(cfg), "--outdir", str(out1)]) == 0
    assert read_report(out1)["outputs"]["index"] == -7
    # explicit flags beat the config file
    out2 = tmp_path / "explicit"
    assert main(
        ["fredholm", "--config", str(cfg), "--gamma", "2.1",
         "--outdir", str(out2)]
    ) == 0
    assert read_report(out2)["outputs"]["index"] == -13


# a config value the flag cannot take was dropped in favour of the built-in
# default, or misread: bool("false") is True
BAD_CONFIG = {
    "int-text": ("heat", {"n": "abc"}, ["--lam", "0", "--T", "0.01"]),
    "bool-text": ("fredholm", {"with_asymptotics": "false"}, ["--gamma", "2.1"]),
}


@pytest.mark.parametrize("case", BAD_CONFIG)
def test_config_value_the_flag_cannot_take_exits_2(tmp_path, capsys, case):
    command, config, argv = BAD_CONFIG[case]
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(config))
    rc = main([command, "--config", str(cfg), *argv, "--outdir", str(tmp_path / "out")])
    err = capsys.readouterr().err
    assert rc == 2, err
    assert repr(next(iter(config))) in err and command in err, err
    assert not (tmp_path / "out" / "report.json").exists()


def test_config_integer_over_the_digit_limit_exits_2(tmp_path, capsys):
    # json.load raised a ValueError that is not a JSONDecodeError, uncaught
    cfg = tmp_path / "cfg.json"
    cfg.write_text('{"T": 1' + "0" * 5000 + "}")
    assert main(["heat", "--config", str(cfg), "--outdir", str(tmp_path / "out")]) == 2
    assert "cfg.json" in capsys.readouterr().err


def test_an_abbreviated_config_flag_exits_2_naming_it(tmp_path):
    # argparse took --conf for --config but the file was never read: the run
    # exited 0 with the built-in n 400 and T 0.1
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"n": 37, "T": 0.01}))
    for flag in (["--conf", str(cfg)], [f"--conf={cfg}"]):
        proc = run_child(["heat", *flag], tmp_path / "abbreviated")
        assert proc.returncode == 2 and "--config" in proc.stderr, proc.stderr
    assert not (tmp_path / "abbreviated" / "report.json").exists()
    for flag in (["--config", str(cfg)], [f"--config={cfg}"]):
        assert run_child(["heat", *flag], tmp_path / "full").returncode == 0
        inputs = read_report(tmp_path / "full")["inputs"]
        assert (inputs["n"], inputs["T"]) == (37, 0.01)


def test_a_config_flag_after_a_double_dash_is_not_read(tmp_path):
    # the preload read a --config after "--", where the parse takes it for a
    # stray positional: "cannot read config file" instead of the usage error
    broken = tmp_path / "broken.json"
    broken.write_text("{")
    for path in ("nosuch.json", str(broken)):
        proc = run_child(["heat", "--", "--config", path], tmp_path / "out")
        assert proc.returncode == 2, proc.stderr
        assert "unrecognized arguments" in proc.stderr and "config file" not in proc.stderr


def _tree_flags(command):
    tree = build_parser({}, [command])._subparsers._group_actions[0].choices
    return sorted(tree[command]._option_string_actions)


FLAGS = {command: _tree_flags(command) for command in COMMANDS}
VALUES = ["0", "2.1", "7", "-1", "-0.5", "-1e3", "1e400", "nan", "-0.1*sin(x1)", "-r^0.5",
          "t*r^0.5", "torus", "mesh", "hl-torus-3", "dirichlet0", "x", ""]
STRAY = ["--", "-h", "--help", "--version", "--ver", "-", "-x", "extra", "heat"]


@st.composite
def command_lines(draw):
    """An argv built from one subcommand's flags, their prefixes, values and stray tokens."""
    command = draw(st.sampled_from(list(COMMANDS)))
    flag = st.sampled_from(FLAGS[command])
    prefix = flag.flatmap(lambda f: st.integers(1, len(f)).map(lambda k: f[:k]))
    value = st.sampled_from(VALUES)
    token = st.one_of(flag, flag, value, value, prefix, st.sampled_from(STRAY),
                      st.tuples(st.one_of(flag, prefix), value).map("=".join))
    head = draw(st.sampled_from([[command]] * 6 + [[], ["-h"], ["--version"], ["-1", command],
                                                    ["--", command], [command[:3]]]))
    return head + draw(st.lists(token, max_size=8))


def _outcome(parse):
    """``parse()``'s namespace (as text, so a nan equals itself) or exit code, and its output."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            result = repr(sorted(vars(parse()).items()))
        except SystemExit as exc:
            result = exc.code
    return result, out.getvalue(), err.getvalue()


@settings(max_examples=400, deadline=None)
@given(command_lines())
@example(["spectrum", "--=0"])  # ambiguous to the tree's top level before the subcommand parses
@example(["exponents", "--alpha-max", "nan"])
def test_one_parser_reads_argv_as_the_tree_does(argv):
    with mock.patch.dict(os.environ, {"COLUMNS": "100"}):
        fast = _outcome(lambda: parse_args(argv, {}))
        tree = _outcome(lambda: build_parser({}, argv).parse_args(argv))
    assert fast == tree


def test_a_named_subcommand_builds_one_parser(tmp_path, monkeypatch, capsys):
    built = []
    init = argparse.ArgumentParser.__init__

    def counting(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting)
    tree = ["conic-lmcf"] + [f"conic-lmcf {name}" for name in COMMANDS]
    for argv, code, parsers in [
        (["fredholm", "--gamma", "2.1", "--outdir", str(tmp_path)], 0, ["conic-lmcf fredholm"]),
        (["heat", "-h"], 0, ["conic-lmcf heat"]),
        (["-h"], 0, tree),
        (["heat", "--bogus"], 2, ["conic-lmcf heat"] + tree),
    ]:
        built.clear()
        try:
            found = main(argv)
        except SystemExit as exc:
            found = exc.code
        assert (found, built) == (code, parsers), argv


def test_seed_flag_is_recorded(tmp_path, capsys):
    main(["stability", "--cone", "hl-torus-3", "--seed", "42",
          "--outdir", str(tmp_path)])
    assert read_report(tmp_path)["inputs"]["seed"] == 42
    # stability keeps a hidden --seed that nothing reads while the benchmark's
    # stability jobs pass it; no other subcommand takes a seed
    for command in set(COMMANDS) - {"stability"}:
        required = ["--gamma", "2.1"] if command == "fredholm" else []
        with pytest.raises(SystemExit) as exc:
            main([command, *required, "--seed", "42", "--outdir", str(tmp_path / command)])
        assert exc.value.code == 2, command
        assert "unrecognized arguments: --seed 42" in capsys.readouterr().err, command


# ---------------------------------------------------------------------------
# failure modes and exit codes
# ---------------------------------------------------------------------------


def test_exceptional_weight_exits_2(tmp_path, capsys):
    rc = main(["fredholm", "--cone", "hl-torus-3", "--gamma", "2.0",
               "--outdir", str(tmp_path)])
    assert rc == 2
    assert "error:" in capsys.readouterr().err


def test_graph_condition_failure_exits_1(tmp_path, capsys):
    rc = main(["flow", "--n", "32", "--T", "0.2", "--ic", "2.0*sin(x1)",
               "--outdir", str(tmp_path)])
    assert rc == 1
    assert "numerical failure:" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["flow", "defect"])
@pytest.mark.parametrize("dt", ["0.05", "0", "-0.001"])
def test_out_of_range_dt_exits_2(tmp_path, capsys, command, dt):
    # at n = 32 the explicit stability limit dx^2/(2m) is about 0.0096
    rc = main([command, "--n", "32", "--T", "0.1", "--dt", dt, "--outdir", str(tmp_path)])
    assert rc == 2
    assert "dt" in capsys.readouterr().err


def test_bad_dt_is_reported_before_a_steep_initial_condition(tmp_path, capsys):
    rc = main(["flow", "--n", "32", "--T", "0.1", "--dt", "0.05", "--ic", "2.0*sin(x1)",
               "--outdir", str(tmp_path)])
    assert rc == 2
    assert "dt" in capsys.readouterr().err


def test_unparseable_forcing_exits_2(tmp_path, capsys):
    rc = main(["heat", "--lam", "0", "--n", "50", "--T", "0.05",
               "--forcing", "r^", "--outdir", str(tmp_path)])
    assert rc == 2
    assert "forcing" in capsys.readouterr().err


@pytest.mark.parametrize("row", ["0,0,abc", "0,0", "0,0,nan", "0,0,inf"])
def test_malformed_forcing_table_exits_2(tmp_path, capsys, row):
    (tmp_path / "f.csv").write_text(f"t,r,f\n{row}\n0,1,1\n", encoding="utf-8")
    rc = main(["heat", "--lam", "0", "--n", "50", "--T", "0.05",
               "--forcing-csv", str(tmp_path / "f.csv"), "--outdir", str(tmp_path)])
    assert rc == 2
    assert "f.csv" in capsys.readouterr().err


def test_initial_condition_rejects_unknown_names(tmp_path, capsys):
    rc = main(
        ["flow", "--n", "16", "--T", "0.01",
         "--ic", "__import__('os').getcwd()", "--outdir", str(tmp_path)]
    )
    assert rc == 2
    assert "allowed" in capsys.readouterr().err


def run_capped(argv, outdir):
    """Exit code and stderr of the CLI in a child held to 1 GiB of address space and 30 s."""
    proc = run_child(argv, outdir)
    return proc.returncode, proc.stderr


def run_child(argv, outdir) -> subprocess.CompletedProcess:
    """The CLI run in a child held to 1 GiB of address space and 30 s."""
    resource = pytest.importorskip("resource")

    def cap():
        resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))

    src = str(Path(conic_lmcf.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    return subprocess.run([sys.executable, "-m", "conic_lmcf", *argv, "--outdir", str(outdir)],
                          env=env, preexec_fn=cap, capture_output=True, text=True, timeout=30)


def test_initial_condition_with_a_huge_power_exits_2(tmp_path):
    # integer literals made this a 370-million-digit integer power that never returned
    rc, err = run_capped(["flow", "--n", "16", "--T", "0.01", "--ic", "9**9**9"], tmp_path)
    assert rc == 2, err


def test_initial_condition_list_is_rejected_before_it_is_built(tmp_path):
    # ``[1]*10**9`` tried to allocate gigabytes; the grammar has no lists
    rc, err = run_capped(["flow", "--n", "16", "--T", "0.01", "--ic", "[1]*10**9"], tmp_path)
    assert rc == 2, err
    assert "outside the expression grammar" in err


def test_asymptotics_fit_on_underflowing_radii_is_a_numerical_failure(tmp_path):
    # (r/R)^150 underflows on the inner window, so the fit's column norms are 0;
    # lstsq once died there in LAPACK with an uncaught LinAlgError
    proc = run_child(["asymptotics", "--lam", "0", "--n", "200",
                      "--gamma", "150.5", "--forcing", "r^148.5"], tmp_path)
    assert proc.returncode == 1, proc.stderr
    assert "numerical failure:" in proc.stderr and "--gamma" in proc.stderr, proc.stderr
    assert "Traceback" not in proc.stderr, proc.stderr
    assert "DLASCL" not in proc.stdout + proc.stderr


def test_asymptotics_fit_at_a_tiny_radius_completes(tmp_path):
    # the fit runs in r/R, so r^2.5 on radii near 1e-102 no longer underflows it
    proc = run_child(["asymptotics", "--lam", "0", "--radius", "1e-100", "--n", "200",
                      "--gamma", "2.5", "--forcing", "r^0.5"], tmp_path)
    assert proc.returncode == 0, proc.stderr
    fit = json.loads((tmp_path / "asymptotics.json").read_text(encoding="utf-8"))
    assert fit["terms"] and all(math.isfinite(c) and c != 0 for _, _, c in fit["terms"])
    assert fit["remainder_rate"] >= 2.5


def test_radius_whose_squares_overflow_exits_2_naming_it(tmp_path):
    # the squared radii overflowed: numpy printed overflow warnings and the
    # run exited 1 with a zero pivot that named neither the overflow nor the radius
    proc = run_child(["asymptotics", "--lam", "0", "--radius", "1e200", "--n", "200",
                      "--gamma", "2.5", "--forcing", "r^0.5"], tmp_path)
    assert proc.returncode == 2, proc.stderr
    assert "--radius" in proc.stderr and "R=1e+200" in proc.stderr, proc.stderr
    assert "Warning" not in proc.stdout + proc.stderr, proc.stderr


def test_eigenvalue_whose_potential_overflows_exits_2_naming_it(tmp_path):
    # -λ/r² overflowed: numpy printed an overflow warning and the infinite
    # diagonal gave sup|u(T)| = 0 with exit 0
    proc = run_child(["heat", "--lam", "1e300", "--radius", "1e-100", "--n", "50",
                      "--T", "0.01", "--forcing", "r^0.5"], tmp_path)
    assert proc.returncode == 2, proc.stderr
    assert "--lam" in proc.stderr and "--radius" in proc.stderr, proc.stderr
    assert "Warning" not in proc.stdout + proc.stderr, proc.stderr


def test_overflowing_forcing_step_names_the_forcing_and_dt(tmp_path):
    # dt·f overflowed: numpy printed an overflow warning and the run blamed
    # the linear solve at step 1
    proc = run_child(["heat", "--lam", "2", "--n", "50", "--T", "100", "--dt", "10",
                      "--forcing", "1e308"], tmp_path)
    assert proc.returncode == 1, proc.stderr
    assert "forcing" in proc.stderr and "--dt" in proc.stderr, proc.stderr
    assert "Warning" not in proc.stdout + proc.stderr, proc.stderr


def test_time_step_whose_operator_overflows_exits_2_naming_it(tmp_path):
    # dt times the λ = 0 stencil overflowed: numpy printed an overflow warning
    # and the run exited 1 with a zero pivot
    proc = run_child(["heat", "--lam", "0", "--n", "50", "--T", "1e305", "--dt", "1e305",
                      "--forcing", "r"], tmp_path)
    assert proc.returncode == 2, proc.stderr
    assert "--dt" in proc.stderr, proc.stderr
    assert "Warning" not in proc.stdout + proc.stderr, proc.stderr


# each of these ran until killed, or died with a numpy traceback, before the
# work was counted ahead of the run
OVER_THE_COUNT_LIMIT = {
    "sphere-lmax": (["spectrum", "--link", "sphere", "--dim", "2", "--lmax", "1e30"], ["--lmax"]),
    "torus-lmax": (["spectrum", "--link", "torus", "--lmax", "1e12"], ["--lmax"]),
    "flow-T": (["flow", "--n", "16", "--T", "1e300"], ["--T", "--dt"]),
    "heat-T-dt": (["heat", "--lam", "0", "--n", "20", "--T", "1e9", "--dt", "1e-3"],
                  ["--T", "--dt"]),
    # 1e5 steps are under the limit, but their stored frames filled memory
    "heat-store-every": (["heat", "--lam", "0", "--n", "2000", "--T", "1", "--dt", "1e-5",
                          "--store-every", "1"], ["--store-every"]),
    # these died with a MemoryError traceback: a 7.28 TiB grid, a 200000 x 200000 metric
    "flow-grid": (["flow", "--m", "6", "--n", "100"], ["--m", "--n"]),
    "defect-grid": (["defect", "--m", "7", "--n", "60"], ["--m", "--n"]),
    # one node per axis passed the n^m node count: 40 axes exceeded numpy's
    # 32 dimensions (exit 1, traceback), and 13 axes built a 3^13-value padded copy
    "flow-m-40": (["flow", "--m", "40", "--n", "1"], ["--m", "--n"]),
    "defect-m-40": (["defect", "--m", "40", "--n", "1"], ["--m", "--n"]),
    "flow-m-13": (["flow", "--m", "13", "--n", "1"], ["--m", "--n"]),
    # 1,002,001 padded values, shown as "about 1e+06" against the limit of 1,000,000
    "flow-just-over": (["flow", "--m", "2", "--n", "999"], ["--m", "--n", "about 1,002,001,"]),
    "spectrum-torus-dim": (["spectrum", "--link", "torus", "--dim", "200000"], ["--dim"]),
    "exponents-torus-dim": (["exponents", "--link", "torus", "--dim", "200000"], ["--dim"]),
}


@pytest.mark.parametrize("case", OVER_THE_COUNT_LIMIT)
def test_work_over_the_count_limit_exits_2_naming_the_flags(tmp_path, case):
    argv, flags = OVER_THE_COUNT_LIMIT[case]
    rc, err = run_capped(argv, tmp_path)
    assert rc == 2, err
    # the program's own refusal, not argparse's usage error naming a flag
    assert "over the limit of 1,000,000" in err, err
    assert all(flag in err for flag in flags), err
    assert not (tmp_path / "report.json").exists()


SMALL_HEAT = ["heat", "--lam", "0", "--n", "50", "--T", "0.05"]
EXPRESSION_RUNS = {
    "ic-overflow": (["flow", "--n", "16", "--T", "0.01", "--ic=1e308*10"], 2, "--ic"),
    "ic-exponent-literal": (["flow", "--n", "16", "--T", "0.01", "--ic=1e-3*sin(x1)"], 0, ""),
    "ic-caret": (["flow", "--n", "16", "--T", "0.01", "--ic", "0.01*sin(x1)^2"], 0, ""),
    "forcing-sum": (SMALL_HEAT + ["--forcing", "r^0.5 + t"], 0, ""),
    "forcing-pole": (SMALL_HEAT + ["--forcing", "1/(t-t)"], 1, "step 1"),
    "forcing-pole-without-t": (SMALL_HEAT + ["--forcing", "1/(r-r)"], 1, "step 1"),
    "ic-pole": (["flow", "--n", "16", "--T", "0.01", "--ic=1/(x1-x1)"], 2, "--ic"),
    "forcing-huge-power": (SMALL_HEAT + ["--forcing", "9**9**9"], 1, "step 1"),
    "forcing-complex": (SMALL_HEAT + ["--forcing", "(t-1)^0.5"], 1, "step 1"),
    "forcing-unknown-name": (SMALL_HEAT + ["--forcing", "x1*r"], 2, "allowed"),
}


@pytest.mark.parametrize("case", EXPRESSION_RUNS)
def test_expression_flag_exit_codes(tmp_path, capsys, case):
    argv, code, needle = EXPRESSION_RUNS[case]
    assert main(argv + ["--outdir", str(tmp_path)]) == code
    assert needle in capsys.readouterr().err


@pytest.mark.parametrize("case", ["forcing-pole-without-t", "ic-pole"])
def test_a_pole_prints_no_numpy_warning(tmp_path, case):
    # the finiteness check reports the pole; numpy's divide-by-zero warning
    # used to be printed ahead of it
    argv, code, needle = EXPRESSION_RUNS[case]
    proc = run_child(argv, tmp_path)
    assert proc.returncode == code and needle in proc.stderr, proc.stderr
    assert "RuntimeWarning" not in proc.stderr, proc.stderr


TOKENS = ["x1", "x2", "t", "r", "pi", "sin", "cos", "(", ")", "+", "-", "*", "/", "^", "**",
          "9", "0.5", "1e308", "2", " ", ",", "[1]", "__import__", "'os'", ".", "e", "j", "_"]


@settings(max_examples=300, deadline=None)
@given(st.one_of(st.text(max_size=40), st.lists(st.sampled_from(TOKENS), max_size=16).map("".join)))
def test_any_text_compiles_or_is_rejected_quickly(text):
    start = time.perf_counter()
    for variables in (["t", "r"], ["x1", "x2"]):
        try:
            assert callable(compile_expression(text, variables, "--ic"))
        except ValidationError:
            pass
    try:
        assert np.all(np.isfinite(parse_initial_condition(text, 2, 4)))
    except ValidationError:
        pass
    assert time.perf_counter() - start < 2.0


def grammar_expressions(variables):
    """Expression texts over ``variables`` whose Python ``eval`` is float arithmetic.

    Integer literals appear only as a factor of a float-valued operand, so
    integer-only arithmetic (an unsigned zero, exact big powers) never
    happens.  Powers take a variable base: ``**2`` compiles to a product,
    which differs from libm ``pow`` on a float base, not on an array.
    """
    leaves = st.one_of(st.sampled_from(variables + ["pi"]), st.floats(0.01, 10).map(repr))

    def extend(inner):
        return st.one_of(
            st.tuples(inner, st.sampled_from("+-*/"), inner).map(lambda a: f"({''.join(a)})"),
            inner.map(lambda a: f"-{a}"),
            st.tuples(st.sampled_from(["sin", "cos"]), inner).map(lambda a: f"{a[0]}({a[1]})"),
            st.tuples(st.integers(1, 9), inner).map(lambda a: f"{a[0]}*{a[1]}"),
            st.tuples(st.sampled_from(variables), st.sampled_from(["2", "3", "0.5", "-1"]))
            .map(lambda a: f"{a[0]}**{a[1]}"),
        )

    return st.recursive(leaves, extend, max_leaves=12)


@settings(max_examples=300, deadline=None)
@given(grammar_expressions(["x1", "x2"]))
def test_compiled_expression_has_the_bits_of_eval(text):
    xs = grid_coordinates(2, 8)
    names = {"sin": np.sin, "cos": np.cos, "pi": math.pi, "x1": xs[0], "x2": xs[1]}
    f = compile_expression(text, ["x1", "x2"], "--ic")
    with np.errstate(all="ignore"):
        try:
            expected = eval(text, {"__builtins__": {}}, names)  # the parser this one replaced
        except ArithmeticError as exc:
            with pytest.raises(type(exc)):
                f(*xs)
            return
        got = f(*xs)
    assert (np.broadcast_to(np.asarray(got, dtype=float), xs[0].shape).tobytes()
            == np.broadcast_to(np.asarray(expected, dtype=float), xs[0].shape).tobytes())


def test_forcing_shorthands_keep_their_bits():
    # a float's t**2 goes through libm pow, which differs from t*t for about
    # one t in a thousand, so many t are needed to pin the product
    rng = np.random.default_rng(0)
    r = rng.uniform(0.0, 1.0, 8)
    ts = rng.uniform(0.0, 1.0, 20000).tolist()
    for a in (0.5, -0.25, 1.5, 2.0, 3.0):
        for text, old, n_t in ((f"r^{a}", lambda t: r**a, 10),
                               (f"t*r^{a}", lambda t: t * r**a, 1000),
                               (f" t^2 * r^{a} ", lambda t: t * t * r**a, len(ts))):
            f = parse_forcing(text, None)
            assert all(f(t, r).tobytes() == old(t).tobytes() for t in ts[:n_t]), text


def test_large_eigenvalue_mode_solves(tmp_path):
    # the inner extrapolation row stays well posed at alpha of about 140
    rc = main(["heat", "--lam", "20000", "--n", "100", "--T", "0.05", "--forcing", "r^0.5",
               "--outdir", str(tmp_path)])
    assert rc == 0
    assert read_report(tmp_path)["outputs"]["sup_final"]["20000"] > 0.0


def test_repeated_eigenvalue_exits_2(tmp_path, capsys):
    rc = main(["heat", "--lam", "2", "2", "--n", "50", "--T", "0.05",
               "--outdir", str(tmp_path)])
    assert rc == 2
    assert "--lam" in capsys.readouterr().err
    assert not (tmp_path / "mode_2.csv").exists()


@pytest.mark.parametrize("command", ["heat"])
def test_negative_store_every_exits_2(tmp_path, capsys, command):
    rc = main([command, "--lam", "0", "--n", "50", "--T", "0.05", "--store-every", "-3",
               "--outdir", str(tmp_path)])
    assert rc == 2
    assert "--store-every" in capsys.readouterr().err


HEAT = ["heat", "--lam", "2", "--n", "50", "--T", "0.05"]
OUT_OF_RANGE = {
    "outer-inf": (HEAT + ["--outer", "inf"], "--outer"),
    "outer-nan": (HEAT + ["--outer", "nan"], "--outer"),
    "radius-inf": (HEAT + ["--radius", "inf"], "radius"),
    "radius-nan": (HEAT + ["--radius", "nan"], "radius"),
    "flow-m-0": (["flow", "--m", "0", "--T", "0.01"], "m=0"),
    "defect-m-0": (["defect", "--m", "0", "--T", "0.01"], "m=0"),
    "flow-n-0": (["flow", "--n", "0", "--T", "0.01"], "n=0"),
    "spectrum-dim-0": (["spectrum", "--link", "torus", "--dim", "0"], "dimension"),
    "exponents-dim-0": (["exponents", "--link", "torus", "--dim", "0"], "dimension"),
    # exited 0 with alpha+(1) = 0.618, the root for a cone of dimension 3, not 4
    "exponents-m-not-link-dim": (["exponents", "--link", "torus", "--dim", "3", "--m", "3"],
                                 "--m and --dim"),
    # the next three exited 2 with "cone dimension m must be >= 3", naming no flag
    "exponents-torus-dim-1": (["exponents", "--link", "torus", "--dim", "1", "--m", "2"],
                              "--dim gives a 1-dimensional link"),
    "exponents-sphere-dim-1": (["exponents", "--link", "sphere", "--dim", "1", "--m", "2"],
                               "--dim gives a 1-dimensional link"),
    "asymptotics-metric-1x1": (["asymptotics", "--metric", "1", "--lam", "0", "--n", "100",
                                "--T", "0.05"], "--metric gives a 1-dimensional link"),
    "spectrum-dim-negative": (["spectrum", "--link", "torus", "--dim", "-1"], "dimension"),
    "sphere-lmax-inf": (["spectrum", "--link", "sphere", "--lmax", "inf"], "--lmax"),
    "lmax-nan": (["spectrum", "--lmax", "nan"], "--lmax"),
    "exponents-alpha-max-nan": (["exponents", "--alpha-max", "nan"], "--alpha-max"),
    "asymptotics-gamma-nan": (["asymptotics", "--gamma", "nan"], "--gamma"),
    "fredholm-gamma-nan": (["fredholm", "--gamma", "2.1", "nan"], "--gamma"),
    "flow-amplitude-nan": (["flow", "--n", "16", "--T", "0.01", "--amplitude", "nan"],
                           "--amplitude"),
    "defect-eps-nan": (["defect", "--n", "16", "--T", "0.01", "--eps", "nan"], "--eps"),
    "torus-metric-inverse-inf": (["spectrum", "--link", "torus", "--metric", "1,0;0,1e-320",
                                  "--lmax", "3"], "inverse is not finite"),
    "torus-metric-inf": (["spectrum", "--link", "torus", "--metric", "inf,0;0,1"],
                         "metric entries must be finite"),
    "torus-metric-nan": (["spectrum", "--link", "torus", "--metric", "nan,0;0,1"],
                         "metric entries must be finite"),
    # the next four exited 0, building the link --link names and ignoring the flag
    "sphere-metric": (["spectrum", "--link", "sphere", "--metric", "1,0;0,1"],
                      "--metric is for --link torus"),
    "metric-torus-dim-5": (["spectrum", "--link", "torus", "--dim", "5", "--metric", "1,0;0,1"],
                           "--dim 5 is not 2, the dimension of the --metric torus"),
    "hl-torus-dim-7": (["exponents", "--link", "hl-torus", "--dim", "7"],
                       "--dim 7 is not 2, the dimension of --link hl-torus"),
    "hl-torus-mesh-file": (["spectrum", "--link", "hl-torus", "--mesh-file", "x.off"],
                           "--mesh-file is for --link mesh"),
    # these two named --lmax (or --alpha-max), flags neither command has
    "fredholm-gamma-window": (["fredholm", "--gamma", "1000.5"], "--gamma"),
    "asymptotics-gamma-window": (["asymptotics", "--gamma", "1000.5", "--lam", "0", "--n", "50",
                                  "--T", "0.01"], "--gamma"),
    # the next eleven named no flag, or a library parameter (R, n_cells, q, lam_max, alpha_max)
    "heat-lam-negative": (HEAT + ["--lam", "-1"], "--lam must be >= 0, got -1"),
    "heat-m-1": (HEAT + ["--m", "1"], "--m must be >= 2, got 1"),
    "heat-n-7": (HEAT + ["--n", "7"], "--n must be >= 8, got 7"),
    "heat-q-half": (HEAT + ["--q", "0.5"], "--q must be finite and >= 1, got 0.5"),
    "heat-radius-0": (HEAT + ["--radius", "0"], "--radius must be finite and > 0"),
    # the default --dt is T/400, so --T 0 makes both zero
    "heat-T-0": (HEAT + ["--T", "0"], "--T and --dt must be finite and > 0, got --T 0, --dt 0"),
    "heat-dt-0": (HEAT + ["--dt", "0"], "must be finite and > 0, got --T 0.05, --dt 0"),
    "torus-lmax-negative": (["spectrum", "--link", "torus", "--lmax", "-1"],
                            "lam_max=-1 must be finite and >= 0; change --lmax"),
    "exponents-alpha-max-negative": (["exponents", "--alpha-max", "-1"],
                                     "--alpha-max must be >= 0, got -1"),
    "sphere-alpha-max-1e200": (["exponents", "--link", "sphere", "--alpha-max", "1e200"],
                               "lam_max=inf must be finite and >= 0; change --lmax, --alpha-max"),
    # exited 0 with an empty spectrum.csv: the sphere refused only a non-finite bound
    "sphere-lmax-negative": (["spectrum", "--link", "sphere", "--lmax", "-1"],
                             "lam_max=-1 must be finite and >= 0; change --lmax"),
    # the time grid's one rule, for the flow and the defect as for heat
    "flow-T-0": (["flow", "--n", "16", "--T", "0"],
                 "--T and --dt must be finite and > 0, got --T 0, --dt"),
    "defect-T-negative": (["defect", "--n", "16", "--T", "-1"],
                          "--T and --dt must be finite and > 0, got --T -1, --dt"),
    "mesh-without-file": (["spectrum", "--link", "mesh"], "--link mesh requires --mesh-file"),
    "forcing-and-table": (HEAT + ["--forcing", "r^0.5", "--forcing-csv", "f.csv"],
                          "give either --forcing or --forcing-csv, not both"),
    "asymptotics-two-modes": (["asymptotics", "--lam", "0", "2", "--n", "50", "--T", "0.01"],
                              "asymptotics extraction works on a single --lam mode"),
    "fredholm-asymptotics-gamma-low": (["fredholm", "--gamma", "-1.5", "--with-asymptotics"],
                                       "asymptotics require gamma > -1, got -1.5"),
    "defect-eps-increasing": (["defect", "--n", "16", "--T", "0.01", "--eps", "0.1", "0.2"],
                              "--eps must be positive and decreasing, got [0.1, 0.2]"),
    # the next two exited 0 with per-amplitude ratios of 1.0000: defects of round-off
    "defect-eps-round-off": (["defect", "--n", "16", "--T", "0.01", "--eps", "1e-12", "5e-13"],
                             "--eps 1e-12 gives a defect of 1.262e-29, within the round-off"),
    "defect-eps-round-off-ladder": (["defect", "--n", "16", "--T", "0.01",
                                     "--eps", "1e-9", "5e-10", "2.5e-10"],
                                    "--eps 1e-09 gives a defect"),
}


@pytest.mark.parametrize("case", OUT_OF_RANGE)
def test_out_of_range_value_exits_2(tmp_path, capsys, case):
    argv, needle = OUT_OF_RANGE[case]
    assert main(argv + ["--outdir", str(tmp_path)]) == 2
    assert needle in capsys.readouterr().err


# each printed "overflow encountered in add" or blamed only the linear solve, at step 4,
# 1, 219 and 322
OUTER_OVERFLOWS = {
    "rhs": ["heat", "--lam", "0", "--n", "20", "--T", "0.1", "--outer", "1e308"],
    "rhs-asymptotics": ["asymptotics", "--lam", "0", "--gamma", "2.5", "--n", "400", "--T", "0.1",
                        "--outer", "1e307"],
    "state": ["heat", "--lam", "0", "--n", "20", "--T", "0.1", "--outer", "1e307"],
    "state-m-4": ["heat", "--lam", "0", "--m", "4", "--n", "20", "--T", "0.1", "--outer", "1e308"],
}


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("case", OUTER_OVERFLOWS)
def test_an_outer_value_out_of_the_float_range_is_named(tmp_path, capsys, case):
    assert main(OUTER_OVERFLOWS[case] + ["--outdir", str(tmp_path)]) == 1
    err = capsys.readouterr().err
    assert "lower --outer" in err and "at step" in err


# each blamed only the linear solve, at step 1 and 4
FORCING_OVERFLOWS = {
    "dt-0.05": ["heat", "--lam", "0", "--n", "20", "--T", "0.1", "--dt", "0.05",
                "--forcing", "1e308"],
    "dt-0.02": ["heat", "--lam", "0", "--n", "20", "--T", "0.1", "--dt", "0.02",
                "--forcing", "1e308"],
}


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("case", FORCING_OVERFLOWS)
def test_a_forcing_that_overflows_the_state_is_named(tmp_path, capsys, case):
    assert main(FORCING_OVERFLOWS[case] + ["--outdir", str(tmp_path)]) == 1
    err = capsys.readouterr().err
    assert "lower --forcing or --dt" in err and "at step" in err


def test_a_forcing_near_the_float_range_solves(tmp_path, capsys):
    assert main(["heat", "--lam", "0", "--n", "20", "--T", "0.1", "--dt", "0.05",
                 "--forcing", "5e307", "--outdir", str(tmp_path)]) == 0
    assert "sup|u(T)| = 4.035211e+306" in capsys.readouterr().out


def test_an_outer_value_near_the_float_range_solves(tmp_path, capsys):
    assert main(["heat", "--lam", "0", "--n", "20", "--T", "0.1", "--outer", "1e306",
                 "--outdir", str(tmp_path)]) == 0
    assert "sup|u(T)| = 1.000000e+306" in capsys.readouterr().out


def test_unknown_flag_is_an_argparse_error(tmp_path):
    with pytest.raises(SystemExit) as exc:
        main(["fredholm", "--no-such-flag"])
    assert exc.value.code == 2


@pytest.mark.parametrize("command", [HEAT, ["asymptotics", "--lam", "0", "--n", "50"]])
def test_dirichlet_zero_inner_row_is_gone(tmp_path, capsys, command):
    # --inner dirichlet0 exited 0 with a blown-up solution on steep gradings
    with pytest.raises(SystemExit) as exc:
        main(command + ["--inner", "dirichlet0", "--outdir", str(tmp_path)])
    assert exc.value.code == 2
    assert "unrecognized arguments: --inner dirichlet0" in capsys.readouterr().err


def test_stability_takes_no_sample_resolution(tmp_path, capsys):
    # --samples 3 reported hl-torus-3 as degenerate (su(3) rank 2/6) with exit 0;
    # the ranks are read on the cone's own validation sample
    with pytest.raises(SystemExit) as exc:
        main(["stability", "--samples", "3", "--outdir", str(tmp_path)])
    assert exc.value.code == 2
    assert "unrecognized arguments: --samples 3" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# mesh links
# ---------------------------------------------------------------------------

OCTAHEDRON_OFF = """OFF
6 8 0
1 0 0
-1 0 0
0 1 0
0 -1 0
0 0 1
0 0 -1
3 0 2 4
3 2 1 4
3 1 3 4
3 3 0 4
3 2 0 5
3 1 2 5
3 3 1 5
3 0 3 5
"""


def write_torus_off(path, nu=12, nv=8, R=2.0, a=0.7):
    """Torus of revolution sampled on an ``nu × nv`` grid, as an OFF file."""
    lines = ["OFF", f"{nu * nv} {2 * nu * nv} 0"]
    for i in range(nu):
        for j in range(nv):
            phi, th = 2 * math.pi * i / nu, 2 * math.pi * j / nv
            rho = R + a * math.cos(th)
            lines.append(f"{rho * math.cos(phi)!r} {rho * math.sin(phi)!r} {a * math.sin(th)!r}")
    for i in range(nu):
        for j in range(nv):
            p, q = i * nv + j, ((i + 1) % nu) * nv + j
            r, s = ((i + 1) % nu) * nv + (j + 1) % nv, i * nv + (j + 1) % nv
            lines += [f"3 {p} {q} {r}", f"3 {p} {r} {s}"]
    path.write_text("\n".join(lines) + "\n")
    return path


def test_mesh_spectrum_csv_repeats_in_process(tmp_path):
    off = write_torus_off(tmp_path / "torus.off")
    dirs = [tmp_path / "a", tmp_path / "b"]
    for d in dirs:
        assert main(["spectrum", "--link", "mesh", "--mesh-file", str(off), "--count", "8",
                     "--outdir", str(d)]) == 0
    first = (dirs[0] / "spectrum.csv").read_bytes()
    assert first == (dirs[1] / "spectrum.csv").read_bytes()
    assert first.startswith(b"lambda,multiplicity,basis_tag\n0,1,mesh\n")


MALFORMED_OFF = {
    "truncated.off": OCTAHEDRON_OFF[:OCTAHEDRON_OFF.index("3 1 2 5")],
    "header.off": "OFF\nsix 8 0\n",
    "no_faces.off": OCTAHEDRON_OFF.replace("6 8 0", "6 0 0").split("3 0 2 4")[0],
    "missing.off": None,
    "trailing.off": OCTAHEDRON_OFF + "3 0 1 2\nstray words\n",
    # a non-finite coordinate reached the sparse LU, which died with
    # "Factor is exactly singular"
    "nan.off": OCTAHEDRON_OFF.replace("0 0 -1\n", "0 0 nan\n"),
    "inf.off": OCTAHEDRON_OFF.replace("0 0 -1\n", "0 0 -inf\n"),
    # MeshLink's refusals did not name the file
    "non_orientable.off": OCTAHEDRON_OFF.replace("3 0 2 4", "3 2 0 4"),
    "open.off": OCTAHEDRON_OFF.replace("6 8 0", "6 7 0").replace("3 0 3 5\n", ""),
}


@pytest.mark.parametrize("name", MALFORMED_OFF)
def test_malformed_mesh_file_exits_2(tmp_path, capsys, name):
    path = tmp_path / name
    if MALFORMED_OFF[name] is not None:
        path.write_text(MALFORMED_OFF[name])
    rc = main(["spectrum", "--link", "mesh", "--mesh-file", str(path), "--count", "3",
               "--outdir", str(tmp_path / "out")])
    assert rc == 2
    assert name in capsys.readouterr().err


@pytest.mark.parametrize("coordinate", ["1e300", "1e160"])
def test_mesh_whose_squared_lengths_or_areas_overflow_exits_2(tmp_path, capsys, coordinate):
    # infinite lengths or areas reached the sparse LU, which died with
    # "Factor is exactly singular"
    path = tmp_path / "oct.off"
    path.write_text(OCTAHEDRON_OFF.replace("0 0 -1\n", f"0 0 -{coordinate}\n"))
    rc = main(["spectrum", "--link", "mesh", "--mesh-file", str(path), "--count", "3",
               "--outdir", str(tmp_path / "out")])
    assert rc == 2
    err = capsys.readouterr().err
    assert "leave the float range; rescale the mesh" in err, err


def tetrahedron_off(path, apex):
    """The tetrahedron (0,0,0), (1,0,0), ``apex``, (0,0,1e16), outward oriented, as OFF."""
    vertices = ["0 0 0", "1 0 0", " ".join(map(repr, apex)), "0 0 1e16"]
    faces = ["3 0 2 1", "3 0 1 3", "3 1 2 3", "3 0 3 2"]
    path.write_text("\n".join(["OFF", "4 4 0", *vertices, *faces]) + "\n")
    return path


def test_needle_triangles_keep_their_area(tmp_path, capsys):
    # the textbook Heron product cancelled to 0 on the faces with an edge of
    # 1e16, and the mesh was refused as violating the triangle inequality
    path = tetrahedron_off(tmp_path / "needle.off", (0.0, 1.0, 0.0))
    assert main(["spectrum", "--link", "mesh", "--mesh-file", str(path), "--count", "2",
                 "--outdir", str(tmp_path / "out")]) == 0
    # a face on three collinear points has no area, and stays refused
    path = tetrahedron_off(tmp_path / "flat.off", (2.0, 0.0, 0.0))
    assert main(["spectrum", "--link", "mesh", "--mesh-file", str(path), "--count", "2",
                 "--outdir", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert "flat.off" in err and "degenerate triangle" in err, err


def test_mesh_exponent_window_is_only_what_the_spectrum_covers(tmp_path, capsys):
    # the 10 lowest mesh eigenvalues stop near 2, yet the table claimed the
    # window [-6, 5], that is, every eigenvalue up to 30
    off = write_torus_off(tmp_path / "torus.off")
    argv = ["exponents", "--link", "mesh", "--mesh-file", str(off)]
    assert main(argv + ["--alpha-max", "5", "--outdir", str(tmp_path / "a")]) == 2
    assert "--alpha-max" in capsys.readouterr().err
    assert main(argv + ["--alpha-max", "0.5", "--outdir", str(tmp_path / "b")]) == 0
    assert read_report(tmp_path / "b")["outputs"]["window"] == [-1.5, 0.5]


@pytest.mark.parametrize("count", ["0", "-2"])
def test_non_positive_mesh_count_exits_2(tmp_path, capsys, count):
    path = tmp_path / "oct.off"
    path.write_text(OCTAHEDRON_OFF)
    rc = main(["spectrum", "--link", "mesh", "--mesh-file", str(path), "--count", count,
               "--outdir", str(tmp_path / "out")])
    assert rc == 2
    assert "--count" in capsys.readouterr().err


def test_unconverged_mesh_spectrum_exits_1(tmp_path, capsys, monkeypatch):
    def no_convergence(*args, **kwargs):
        raise ArpackNoConvergence("ARPACK error -1: No convergence", np.zeros(0), None)

    monkeypatch.setattr(scipy.sparse.linalg, "eigsh", no_convergence)
    path = tmp_path / "oct.off"
    path.write_text(OCTAHEDRON_OFF)
    rc = main(["spectrum", "--link", "mesh", "--mesh-file", str(path), "--count", "3",
               "--outdir", str(tmp_path / "out")])
    assert rc == 1
    err = capsys.readouterr().err
    assert "mesh eigen-solve" in err and "--count" in err


# ---------------------------------------------------------------------------
# --cone-json files
# ---------------------------------------------------------------------------


def hl_cone_data(scale=1):
    """hl-torus-3 as a cone file, every frequency multiplied by ``scale``."""
    data = conic_lmcf.harvey_lawson_torus().to_json()
    for coord in data["coordinates"]:
        for mono in coord:
            mono["k"] = [scale * k for k in mono["k"]]
    return data


# a Lagrangian cone whose frame determinant turns as e^{12iσ₁}: on the 12×12
# validation grid that looked constant, so it passed as special (stability 38)
OFF_GRID_PHASE = {"name": "off-grid", "m": 3, "dim_G": 2, "coordinates": [
    [{"c": [math.sqrt(1 / 27), 0.0], "k": [13, 0]}],
    [{"c": [math.sqrt(13 / 27), 0.0], "k": [0, 1]}],
    [{"c": [math.sqrt(13 / 27), 0.0], "k": [-1, -1]}]]}

# an m = 2 special Lagrangian cone, (e^{iσ}, e^{−iσ})/√2: it validates, and
# then exited 2 with "cone dimension m must be >= 3", naming neither the file
# nor --cone-json
M2_CONE = {"name": "m-2", "m": 2, "dim_G": 0, "coordinates": [
    [{"c": [math.sqrt(0.5), 0.0], "k": [1]}], [{"c": [math.sqrt(0.5), 0.0], "k": [-1]}]]}

# each exited 1 with a traceback, or 0 with indices of a different link or
# of a cone that is not special (k·1.5: stability 6, fredholm -31; 2k:
# stability 30), or of a dim_G other than the measured 2 (100: su(3) 6/-92
# and index 98; -4: index -6; 2.5 read as 2)
BAD_CONE_FILES = {
    "missing.json": None,
    "not-json.json": "{not json",
    "no-coordinates.json": {k: v for k, v in hl_cone_data().items() if k != "coordinates"},
    "empty-coordinates.json": dict(hl_cone_data(), coordinates=[]),
    "dim-g.json": dict(hl_cone_data(), dim_G="x"),
    "fractional-k.json": hl_cone_data(1.5),
    "doubled-k.json": hl_cone_data(2),
    "off-grid-phase.json": OFF_GRID_PHASE,
    "m-2.json": M2_CONE,
    "dim-g-over.json": dict(hl_cone_data(), dim_G=100),
    "dim-g-negative.json": dict(hl_cone_data(), dim_G=-4),
    "dim-g-fractional.json": dict(hl_cone_data(), dim_G=2.5),
}


@pytest.mark.parametrize("name", BAD_CONE_FILES)
def test_malformed_cone_file_exits_2_naming_it(tmp_path, capsys, name):
    path = tmp_path / name
    content = BAD_CONE_FILES[name]
    if content is not None:
        path.write_text(content if isinstance(content, str) else json.dumps(content))
    for argv in (["stability"], ["fredholm", "--gamma", "2.1"]):
        rc = main(argv + ["--cone-json", str(path), "--outdir", str(tmp_path / "out")])
        assert rc == 2
        assert name in capsys.readouterr().err


def test_cone_file_off_the_unit_sphere_exits_2(tmp_path, capsys):
    # hl-torus-3 with every coefficient scaled by 1.5: its link has |z| = 1.5
    data = hl_cone_data()
    for coord in data["coordinates"]:
        for mono in coord:
            mono["c"] = [1.5 * c for c in mono["c"]]
    path = tmp_path / "off-unit-sphere.json"
    path.write_text(json.dumps(data))
    assert main(["stability", "--cone-json", str(path), "--outdir", str(tmp_path / "out")]) == 2
    assert "off-unit-sphere.json: link leaves the unit sphere" in capsys.readouterr().err


def test_a_declared_dim_g_other_than_the_measured_one_exits_2(tmp_path, capsys):
    # "dim_G": 5 moved hl-torus-3's stability index to 3 (8: to 6) with exit 0
    path = tmp_path / "dim-g-5.json"
    path.write_text(json.dumps(dict(hl_cone_data(), dim_G=5)))
    for argv in (["stability"], ["fredholm", "--gamma", "2.1"]):
        rc = main(argv + ["--cone-json", str(path), "--outdir", str(tmp_path / "out")])
        assert rc == 2
        assert "dim-g-5.json: declared dim_G 5 != measured 2" in capsys.readouterr().err


def test_a_cone_file_without_dim_g_reads_the_measured_one(tmp_path, capsys):
    # a missing dim_G was read as 0: hl-torus-3 printed index -2 with a degeneracy warning
    data = hl_cone_data()
    assert "dim_G" not in data
    path = tmp_path / "no-dim-g.json"
    path.write_text(json.dumps(data))
    assert main(["stability", "--cone-json", str(path), "--outdir", str(tmp_path)]) == 0
    out = capsys.readouterr().out
    assert "stability index: 0\n" in out and "so dim G = 2\n" in out and "WARNING" not in out
    with open(tmp_path / "stability.json", encoding="utf-8") as fh:
        assert json.load(fh)["dim_G"] == 2


def test_a_spectrum_short_of_the_moment_maps_exits_1(tmp_path, capsys, monkeypatch):
    # one order-2 eigenvalue dropped from hl-torus-3's link printed index -1 with exit 0
    spectrum = conic_lmcf.FlatTorus.spectrum

    def short(link, lam_max):
        return [dataclasses.replace(e, multiplicity=e.multiplicity - 1) if e.lam == 6.0 else e
                for e in spectrum(link, lam_max)]

    monkeypatch.setattr(conic_lmcf.FlatTorus, "spectrum", short)
    assert main(["stability", "--cone", "hl-torus-3", "--outdir", str(tmp_path)]) == 1
    assert "cone hl-torus-3: 6/5 order-1/2 link harmonics" in capsys.readouterr().err


def test_round_tripped_cone_file_keeps_the_indices(tmp_path, capsys):
    path = tmp_path / "hl.json"
    path.write_text(json.dumps(hl_cone_data()))
    assert main(["stability", "--cone-json", str(path), "--outdir", str(tmp_path / "s")]) == 0
    assert main(["fredholm", "--cone-json", str(path), "--gamma", "2.1",
                 "--outdir", str(tmp_path / "f")]) == 0
    out = capsys.readouterr().out
    assert "stability index: 0" in out and "fredholm index: -13" in out
