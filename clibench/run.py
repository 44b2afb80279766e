"""Closed-loop benchmark of the ``conic-lmcf`` command line.

Run from the root of a source checkout:

    python3 clibench/run.py --workload torus-flow --seed 1 --seconds 20 --trace 0

One client calls ``conic_lmcf.cli.main(argv)`` for each job of the seeded,
fixed-size job list, one job after the other, in this warm interpreter.  A
warm-up pass runs and fully checks every job; timed passes then repeat the
list until ``--seconds`` have passed and compare every job's artifacts with
the checked warm-up digest.  Interpreter start-up is timed separately, in
fresh interpreters, as ``setup_s``.  ``--trace 1`` alternates untraced and
traced passes and reports per-layer metrics instead of end-to-end ones.

The last line of standard output is the result object; the line before it
holds the run's facts (source, host, versions, host drift).
"""

from __future__ import annotations

import os

# The benchmark's own BLAS runs one thread, so runnable threads stay within
# nproc; the program's own mode pool is left at its default.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
os.environ.pop("CONIC_LMCF_THREADS", None)

import argparse  # noqa: E402
import contextlib  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from collections import defaultdict  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

import checks  # noqa: E402
import tracer as tracing  # noqa: E402
import workloads  # noqa: E402

BENCH = Path(__file__).resolve().parent
SETUP_REPEATS = 7
IMPORT_REPEATS = 3
MIN_PASSES = 3
START_TIMEOUT_S = 60
IMPORT_MODULES = {"import.conic_lmcf_s": "conic_lmcf",
                  "import.scipy_sparse_s": "scipy.sparse",
                  "import.scipy_sparse_linalg_s": "scipy.sparse.linalg",
                  "import.jsonschema_s": "jsonschema"}

# (metric, span name, field) for the traced run; "s" is inclusive time
SPAN_METRICS = [
    ("cli.main.self_s", "cli.main", "self_s"),
    ("cli.write_report.s", "cli.write_report", "s"),
    ("cli.write_csv.s", "cli.write_csv", "s"),
    ("cli.write_columns.s", "cli.write_columns", "s"),
    ("cli.parse_initial_condition.s", "cli.parse_initial_condition", "s"),
    ("cli.write_json.s", "cli.write_json", "s"),
    ("flow.flow_step.calls", "flow.flow_step", "calls"),
    ("flow.flow_step.self_s", "flow.flow_step", "self_s"),
    ("flow.heat_step.calls", "flow.heat_step", "calls"),
    ("flow.heat_step.self_s", "flow.heat_step", "self_s"),
    ("flow.lagrangian_angle.calls", "flow.lagrangian_angle", "calls"),
    ("flow.lagrangian_angle.s", "flow.lagrangian_angle", "s"),
    ("flow.linearization_defect.s", "flow.linearization_defect", "s"),
    ("radial.radial_operator.calls", "radial.radial_operator", "calls"),
    ("radial.radial_operator.s", "radial.radial_operator", "s"),
    ("radial.splu.calls", "radial.splu", "calls"),
    ("radial.splu.s", "radial.splu", "s"),
    ("radial.solve_mode.calls", "radial.solve_mode", "calls"),
    ("radial.solve_mode.self_s", "radial.solve_mode", "self_s"),
    ("asymptotics.extract_asymptotics.calls", "asymptotics.extract_asymptotics", "calls"),
    ("asymptotics.extract_asymptotics.self_s", "asymptotics.extract_asymptotics", "self_s"),
    ("norms.dyadic_annulus_suprema.calls", "norms.dyadic_annulus_suprema", "calls"),
    ("norms.dyadic_annulus_suprema.s", "norms.dyadic_annulus_suprema", "s"),
    ("norms.decay_rate.calls", "norms.decay_rate", "calls"),
    ("norms.decay_rate.s", "norms.decay_rate", "s"),
    ("links.read_off.s", "links.read_off", "s"),
    ("links.MeshLink.init_s", "links.MeshLink.init", "s"),
    ("links.MeshLink.eigenvalues.s", "links.MeshLink.eigenvalues", "s"),
    ("links.FlatTorus.spectrum.calls", "links.FlatTorus.spectrum", "calls"),
    ("links.FlatTorus.spectrum.s", "links.FlatTorus.spectrum", "s"),
    ("links.RoundSphere.spectrum.s", "links.RoundSphere.spectrum", "s"),
    ("exponents.ExponentTable.for_link.calls", "exponents.ExponentTable.for_link", "calls"),
    ("exponents.ExponentTable.for_link.s", "exponents.ExponentTable.for_link", "s"),
    ("exponents.fredholm_index.s", "exponents.fredholm_index", "s"),
    ("cones.catalog_cone.s", "cones.catalog_cone", "s"),
    ("cones.cone_from_json.s", "cones.cone_from_json", "s"),
    ("cones.stability_index.s", "cones.stability_index", "s"),
]

# share of cli.main time covered by each group of layers
SHARES = {
    "share.flow": lambda name: name.startswith("flow."),
    "share.radial": lambda name: name.split(".")[0] in ("radial", "asymptotics", "norms"),
    "share.write": lambda name: name in ("cli.write_csv", "cli.write_columns"),
    "share.cone_side": lambda name: name.split(".")[0] in ("links", "exponents", "cones"),
}


# --- one pass over the job list --------------------------------------------------


@dataclass
class JobRecord:
    job: str
    seconds: float
    cpu: float
    ok: bool
    bytes_written: int
    workers: int


@dataclass
class PassRecord:
    jobs: list
    nivcsw: int
    traced: bool

    @property
    def wall(self):
        return sum(r.seconds for r in self.jobs)


def digest(outdir: Path) -> str:
    """SHA-256 of every artifact, with the report's ``wall_time_s`` removed."""
    h = hashlib.sha256()
    for path in sorted(outdir.iterdir()):
        data = path.read_bytes()
        if path.name == "report.json":
            try:
                report = json.loads(data)
                report.pop("wall_time_s", None)
                data = json.dumps(report, sort_keys=True).encode()
            except (ValueError, AttributeError):
                pass                    # a malformed report is hashed as it is
        h.update(path.name.encode() + b"\0" + data + b"\0")
    return h.hexdigest()


class Runner:
    """Runs jobs through ``cli.main`` in this process and judges each one.

    ``tamper(job, outdir)``, when given, is called after each job and before
    its check; the self-test uses it to corrupt artifacts.
    """

    def __init__(self, cli, jobs, work: Path, reference: dict, tamper=None):
        self.cli = cli
        self.jobs = jobs
        self.out = work / "out"
        self.reference = reference
        self.tamper = tamper
        self.expected = {}
        self.errors = {}
        self.redigested = 0     # non-repeatable artifacts that needed a full check

    def run_job(self, job, outdir: Path):
        argv = list(job.argv) + ["--outdir", str(outdir)]
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(buf):
            c0, t0 = time.process_time(), time.perf_counter()
            try:
                rc = self.cli.main(argv)
            except SystemExit as exc:          # argparse rejects bad flags this way
                rc = exc.code if isinstance(exc.code, int) else 2
            except Exception:                  # the CLI would exit 1 with a traceback
                traceback.print_exc()
                rc = 1
            t1, c1 = time.perf_counter(), time.process_time()
        if self.tamper is not None and outdir.is_dir():
            self.tamper(job, outdir)
        return rc, t1 - t0, c1 - c0, buf.getvalue()

    def warm_up(self):
        """Run and fully check every job once; remember the checked digests."""
        for job in self.jobs:
            outdir = self.out / job.id
            rc, _, _, text = self.run_job(job, outdir)
            try:
                if rc != 0:
                    raise checks.CheckError(f"exit code {rc}: {text.strip()[-300:]}")
                checks.check(job, outdir, self.reference)
                self.expected[job.id] = digest(outdir)
            except checks.CheckError as exc:
                self.expected[job.id] = None
                self.errors[job.id] = str(exc)
            shutil.rmtree(outdir, ignore_errors=True)

    def _judge(self, job, outdir, rc):
        """A timed job passes when its artifacts match the checked warm-up run."""
        if rc != 0:
            self.errors.setdefault(job.id, f"exit code {rc}")
            return False
        if self.expected.get(job.id) is None or not outdir.is_dir():
            return False
        if digest(outdir) == self.expected[job.id]:
            return True
        if job.repeatable:
            self.errors.setdefault(job.id, "artifacts differ from the checked warm-up run")
            return False
        self.redigested += 1
        try:
            checks.check(job, outdir, self.reference)
        except checks.CheckError as exc:
            self.errors.setdefault(job.id, str(exc))
            return False
        return True

    def run_pass(self, tracer=None, label=""):
        records = []
        ivcsw0 = resource.getrusage(resource.RUSAGE_SELF).ru_nivcsw
        for job in self.jobs:
            outdir = self.out / job.id
            if tracer is not None:
                tracer.job = f"{label}:{job.id}"
            rc, seconds, cpu, text = self.run_job(job, outdir)
            ok = self._judge(job, outdir, rc)
            written, workers = 0, 0
            if outdir.is_dir():
                written = sum(p.stat().st_size for p in outdir.iterdir())
                if job.check == "heat" and ok:
                    report = json.loads((outdir / "report.json").read_text(encoding="utf-8"))
                    # a report without the field comes from a serial solver
                    workers = int(report["outputs"].get("workers", 1))
            records.append(JobRecord(job.id, seconds, cpu, ok, written, workers))
            shutil.rmtree(outdir, ignore_errors=True)
        nivcsw = resource.getrusage(resource.RUSAGE_SELF).ru_nivcsw - ivcsw0
        return PassRecord(records, nivcsw, tracer is not None)


# --- set-up probes --------------------------------------------------------------


def fresh_start_seconds(env, root: Path, version: str) -> float:
    """Wall time of ``python -m conic_lmcf --version`` in a fresh interpreter."""
    t0 = time.perf_counter()
    proc = subprocess.run([sys.executable, "-m", "conic_lmcf", "--version"], cwd=root, env=env,
                          capture_output=True, text=True, timeout=START_TIMEOUT_S)
    seconds = time.perf_counter() - t0
    if proc.returncode != 0 or proc.stdout.strip() != f"conic-lmcf {version}":
        raise RuntimeError(f"fresh start failed ({proc.returncode}): {proc.stderr.strip()[-300:]}")
    return seconds


def import_seconds(env, root: Path) -> dict:
    """Cumulative import time of the set-up modules, from ``-X importtime``."""
    proc = subprocess.run([sys.executable, "-X", "importtime", "-c",
                           "import conic_lmcf.cli, jsonschema"],
                          cwd=root, env=env, capture_output=True, text=True,
                          timeout=START_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError(f"import probe failed: {proc.stderr.strip()[-300:]}")
    cumulative = {}
    for line in proc.stderr.splitlines():
        if not line.startswith("import time:") or "|" not in line:
            continue
        _, cum, name = (part.strip() for part in line.split(":", 1)[1].split("|"))
        if cum.isdigit():
            cumulative[name] = int(cum) * 1e-6
    return {metric: cumulative.get(module, 0.0) for metric, module in IMPORT_MODULES.items()}


# --- host facts --------------------------------------------------------------------


def read_steal_ticks():
    try:
        with open("/proc/stat", encoding="ascii") as fh:
            fields = fh.readline().split()
        return int(fields[8])
    except (OSError, IndexError, ValueError):
        return None


def calibrate() -> float:
    """A fixed pure-Python plus numpy loop; its time tracks host speed."""
    t0 = time.perf_counter()
    total = 0
    for i in range(200_000):
        total += i * i
    a = np.linspace(0.0, 1.0, 40_000).reshape(200, 200)
    for _ in range(20):
        a = np.tanh(a @ a / 200.0)
    return time.perf_counter() - t0


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8", errors="replace") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def filesystem_of(path: Path) -> str:
    best, fstype = "", "unknown"
    try:
        with open("/proc/mounts", encoding="utf-8") as fh:
            for line in fh:
                parts = line.split()
                mount = parts[1]
                if str(path).startswith(mount) and len(mount) > len(best):
                    best, fstype = mount, parts[2]
    except (OSError, IndexError):
        pass
    return fstype


def git_sha(root: Path):
    """The checked-out commit, read from ``.git`` without running git."""
    head = root / ".git" / "HEAD"
    try:
        ref = head.read_text(encoding="ascii").strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = root / ".git" / name
        if loose.is_file():
            return loose.read_text(encoding="ascii").strip()
        for line in (root / ".git" / "packed-refs").read_text(encoding="ascii").splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return None


def source_digest(src: Path) -> str:
    h = hashlib.sha256()
    for path in sorted(src.rglob("*")):
        if path.is_file() and path.suffix in (".py", ".json"):
            h.update(str(path.relative_to(src)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


# --- metrics -------------------------------------------------------------------------


def percentile(values, q):
    return float(np.percentile(values, q))


def typical_pass(passes, field):
    """One pass's total of ``field``, from each job's median over the passes.

    Summing per-job medians keeps a host stall during one job out of the
    pass total, where the median of whole-pass totals would still carry it.
    """
    per_job = defaultdict(list)
    for p in passes:
        for r in p.jobs:
            per_job[r.job].append(getattr(r, field))
    return sum(statistics.median(v) for v in per_job.values())


def end_to_end(passes, setup, rss_mb):
    times = [r.seconds for p in passes for r in p.jobs]
    attempted = len(times)
    ok = sum(r.ok for p in passes for r in p.jobs)
    return {
        "setup_s": (statistics.median(setup), "s"),
        "wall_s": (typical_pass(passes, "seconds"), "s"),
        "job_s.p50": (percentile(times, 50), "s"),
        "job_s.p90": (percentile(times, 90), "s"),
        "cpu_s": (typical_pass(passes, "cpu"), "s"),
        "peak_rss_mb": (rss_mb, "MB"),
        "ok_ratio": (ok / attempted, "ratio"),
    }


def per_layer(traced, plain, pass_spans, pass_counts, imports, steal, calib):
    rows = []
    for p, spans, counts in zip(traced, pass_spans, pass_counts):
        stats = tracing.summarize(spans)
        row = {metric: float(stats[span][field]) if span in stats else 0.0
               for metric, span, field in SPAN_METRICS}
        row.update({k: float(v) for k, v in counts.items()})
        row["cli.bytes_written"] = float(sum(r.bytes_written for r in p.jobs))
        row["cli.heat_workers"] = float(max((r.workers for r in p.jobs), default=0))
        row["proc.nivcsw"] = float(p.nivcsw)
        for metric, select in SHARES.items():
            row[metric] = tracing.coverage(spans, select)
        rows.append(row)
    units = {m: ("count" if f == "calls" else "s") for m, _, f in SPAN_METRICS}
    units.update({"cli.write_csv.rows": "count", "radial.steps": "count",
                  "cli.bytes_written": "B", "cli.heat_workers": "count",
                  "proc.nivcsw": "count", **{m: "ratio" for m in SHARES}})
    metrics = {m: (statistics.median(r[m] for r in rows), units[m]) for m in units}
    metrics.update({m: (v, "s") for m, v in imports.items()})
    metrics["host.steal_per_s"] = (steal, "1/s")
    metrics["host.calib_s"] = (calib, "s")
    untraced = percentile([r.seconds for p in plain for r in p.jobs], 50)
    traced_p50 = percentile([r.seconds for p in traced for r in p.jobs], 50)
    metrics["trace.job_s.p50"] = (traced_p50, "s")
    metrics["trace.overhead"] = (traced_p50 / untraced, "ratio")
    return metrics


# --- entry point ---------------------------------------------------------------------------


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def run(args, root: Path, src: Path, work: Path):
    env = dict(os.environ, PYTHONPATH=str(src))
    import conic_lmcf
    from conic_lmcf import cli

    if not Path(conic_lmcf.__file__).resolve().is_relative_to(src.resolve()):
        raise RuntimeError(f"conic_lmcf imported from {conic_lmcf.__file__}, not {src}")
    setup, imports = [], {}
    if not args.trace:
        setup = [fresh_start_seconds(env, root, conic_lmcf.__version__)
                 for _ in range(SETUP_REPEATS)]
    else:
        samples = [import_seconds(env, root) for _ in range(IMPORT_REPEATS)]
        imports = {m: statistics.median(s[m] for s in samples) for m in IMPORT_MODULES}

    reference = json.loads((BENCH / "reference.json").read_text(encoding="utf-8"))
    jobs = workloads.build(args.workload, args.seed, work / "inputs")
    calib = statistics.median(calibrate() for _ in range(3))
    runner = Runner(cli, jobs, work, reference)
    runner.warm_up()

    tracer = tracing.Tracer() if args.trace else None
    passes, pass_spans, pass_counts = [], [], []
    steal0, t_start = read_steal_ticks(), time.perf_counter()
    min_passes = 2 * MIN_PASSES if args.trace else MIN_PASSES
    while len(passes) < min_passes or time.perf_counter() - t_start < args.seconds:
        traced = bool(args.trace) and len(passes) % 2 == 1
        if traced:
            first = len(tracer.spans)
            tracer.install()
            try:
                passes.append(runner.run_pass(tracer, label=str(len(passes))))
            finally:
                tracer.uninstall()
            pass_spans.append(tracer.spans[first:])
            pass_counts.append(tracer.take_counts())
        else:
            passes.append(runner.run_pass())
    elapsed = time.perf_counter() - t_start
    steal1 = read_steal_ticks()
    # stolen clock ticks per second, as /proc/stat counts them
    steal = (steal1 - steal0) / elapsed if steal0 is not None and steal1 is not None else 0.0
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    if args.trace:
        plain = [p for p in passes if not p.traced]
        traced_passes = [p for p in passes if p.traced]
        metrics = per_layer(traced_passes, plain, pass_spans, pass_counts,
                            imports, steal, calib)
        spans_path = root / ".bench_out" / f"spans-{args.workload}-{args.seed}.json"
        spans_path.write_text(json.dumps(
            {"fields": ["id", "name", "start", "end", "parent", "job", "thread"],
             "spans": tracer.spans}) + "\n", encoding="utf-8")
    else:
        metrics = end_to_end(passes, setup, rss_mb)

    records = [r for p in passes for r in p.jobs]
    failed = sum(not r.ok for r in records)
    facts = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "git_sha": git_sha(root), "src_sha256": source_digest(src),
        "nproc": os.cpu_count(), "cpu_model": cpu_model(),
        "python": platform.python_version(),
        "numpy": sys.modules["numpy"].__version__,
        "scipy": sys.modules["scipy"].__version__,
        "blas_threads": {v: os.environ[v] for v in
                         ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "program_pool": "default (CONIC_LMCF_THREADS unset)",
        "output_fs": filesystem_of(work.resolve()),
        "loadavg": list(os.getloadavg()),
        "host.steal_per_s": steal, "host.calib_s": calib,
        "passes": len(passes), "jobs_per_pass": len(jobs), "job_samples": len(records),
        "pass_wall_s": [p.wall for p in passes],
        "job_seconds": {job.id: [r.seconds for r in records if r.job == job.id] for job in jobs},
        "setup_samples_s": setup,
        "artifacts_not_bitwise_repeated": runner.redigested,
        "failures": dict(sorted(runner.errors.items())[:20]),
    }
    print(json.dumps({"facts": facts}, sort_keys=True))
    return {
        "correct": failed == 0,
        "attempted": len(records),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }


def main(argv=None) -> int:
    root = Path.cwd()
    src = root / "src"
    if not (src / "conic_lmcf" / "__init__.py").is_file():
        print("error: run from the root of a conic-lmcf checkout; src/conic_lmcf is missing",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    args = parse_args(argv)
    work = root / ".bench_out" / f"{args.workload}-{args.seed}-{os.getpid()}"
    try:
        result = run(args, root, src, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
