"""Self-test of the benchmark's judging: bad jobs must lower ``ok_ratio``.

Run from the root of a checkout, either directly or under pytest:

    python3 clibench/selftest.py
    python3 -m pytest -q clibench/selftest.py

It runs a few quick cone-survey jobs through the same ``Runner`` the
benchmark uses and shows that a clean run scores 1.0, while a nonzero exit,
an artifact corrupted before the full check and an artifact corrupted in a
timed pass each lower the score.
"""

from __future__ import annotations

import os
import shutil
import sys
from pathlib import Path

ROOT = Path.cwd()
sys.path.insert(0, str(ROOT / "src"))

import checks  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402


def _score(extra_jobs=(), tamper=None, tamper_after_warm_up=False):
    from conic_lmcf import cli

    work = ROOT / ".bench_out" / f"selftest-{os.getpid()}"
    try:
        survey = workloads.build("cone-survey", 7, work / "inputs")
        jobs = [next(j for j in survey if j.check == kind)
                for kind in ("spectrum_torus", "fredholm", "stability")]
        jobs += list(extra_jobs)
        runner = run.Runner(cli, jobs, work, {},
                            tamper=None if tamper_after_warm_up else tamper)
        runner.warm_up()
        runner.tamper = tamper
        passes = [runner.run_pass() for _ in range(2)]
        return run.end_to_end(passes, [1.0], 1.0)["ok_ratio"][0], runner.errors
    finally:
        shutil.rmtree(work, ignore_errors=True)


def _corrupt_stability(job, outdir):
    if job.check == "stability":
        path = outdir / "stability.json"
        path.write_text(path.read_text(encoding="utf-8").replace('"index": 0', '"index": 1'),
                        encoding="utf-8")


def _corrupt_spectrum(job, outdir):
    if job.check == "spectrum_torus":
        path = outdir / "spectrum.csv"
        lines = path.read_text(encoding="utf-8").splitlines()
        path.write_text("\n".join(lines[:-1]) + "\n", encoding="utf-8")


def test_clean_run_scores_one():
    ratio, errors = _score()
    assert ratio == 1.0, errors


def test_nonzero_exit_lowers_ok_ratio():
    bad = workloads.Job("bad-exit", ["spectrum", "--link", "mesh"], "spectrum_mesh")
    ratio, errors = _score([bad])
    assert ratio < 1.0 and errors["bad-exit"].startswith("exit code 2")


def test_corrupted_artifact_fails_the_full_check():
    ratio, errors = _score(tamper=_corrupt_stability)
    assert ratio < 1.0
    assert any("stability index 1" in e for e in errors.values()), errors


def test_artifact_changed_in_a_timed_pass_fails_the_digest():
    ratio, errors = _score(tamper=_corrupt_spectrum, tamper_after_warm_up=True)
    assert ratio < 1.0
    assert any("differ from the checked warm-up" in e for e in errors.values()), errors


def test_checks_reject_a_truncated_spectrum():
    work = ROOT / ".bench_out" / f"selftest-check-{os.getpid()}"
    try:
        job = next(j for j in workloads.build("cone-survey", 7, work / "inputs")
                   if j.check == "spectrum_torus")
        from conic_lmcf import cli

        runner = run.Runner(cli, [job], work, {})
        outdir = work / "out"
        assert runner.run_job(job, outdir)[0] == 0
        checks.check(job, outdir, {})
        _corrupt_spectrum(job, outdir)
        try:
            checks.check(job, outdir, {})
        except checks.CheckError:
            return
        raise AssertionError("truncated spectrum.csv passed the check")
    finally:
        shutil.rmtree(work, ignore_errors=True)


if __name__ == "__main__":
    tests = [(name, fn) for name, fn in sorted(globals().items()) if name.startswith("test_")]
    for name, fn in tests:
        fn()
        print(f"ok  {name}")
    print(f"{len(tests)} self-tests passed")
