"""Record ``reference.json``: outputs of every reference-checked job variant.

Run from the root of a checkout at the commit whose outputs are the
reference (the benchmark's own tolerances are in ``checks.py``):

    python3 clibench/record_reference.py

Each key is a canonical job: an unshifted flow profile, one radial mode
(modes are solved independently, so a mode's values do not depend on the
other modes of its job) or one asymptotics fit.
"""

from __future__ import annotations

import contextlib
import io
import json
import shutil
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent


def _run(cli, argv, outdir):
    with contextlib.redirect_stdout(io.StringIO()):
        rc = cli.main(argv + ["--outdir", str(outdir)])
    if rc != 0:
        raise SystemExit(f"reference job failed ({rc}): {argv}")
    return json.loads((outdir / "report.json").read_text(encoding="utf-8"))["outputs"]


def main() -> int:
    root = Path.cwd()
    sys.path.insert(0, str(root / "src"))
    import numpy as np

    import workloads as w
    from conic_lmcf import cli

    out = root / ".bench_out" / "reference"
    ref = {}
    for cmd, n, T in sorted(set(w.FLOW_SLOTS)):
        for profile, expr in w.PROFILES.items():
            ic = expr.replace("X1", "x1").replace("X2", "x2")
            outputs = _run(cli, [cmd, "--n", str(n), "--T", repr(T), "--ic", ic], out)
            key = w.flow_key(cmd, n, T, profile)
            if cmd == "flow":
                ref[key] = {k: outputs[k] for k in ("sup_u_final", "sup_theta_final")}
            else:
                ref[key] = {"defects": outputs["defects"]}

    h = w.HEAT_SOLVE
    configs = {(h["n"], h["T"], h["dt"], h["store_every"])}
    configs |= {(n, w.DUMP_T, None, se) for n, _, se in w.DUMP_SLOTS}
    for n, T, dt, se in sorted(configs, key=repr):
        for lam in w.LADDER:
            for forcing in w.FORCINGS:
                job = w.heat_job("ref", [lam], n, T, dt, forcing, se)
                outputs = _run(cli, job.argv, out)
                tag = format(lam, ".17g")
                u = np.loadtxt(out / f"mode_{tag}.csv", delimiter=",", skiprows=1, ndmin=2)[:, 2]
                ref[job.params["refs"][0]] = {"sup_final": outputs["sup_final"][tag],
                                              "l1": float(np.abs(u).sum())}
                shutil.rmtree(out)

    for lam in w.ASYM_LAMS:
        for gamma in w.ASYM_GAMMAS:
            outputs = _run(cli, w.asym_job("ref", lam, gamma).argv, out)
            ref[w.asym_key(lam, gamma)] = {"terms": outputs["terms"],
                                           "remainder_rate": outputs["remainder_rate"]}
    shutil.rmtree(out, ignore_errors=True)
    (BENCH / "reference.json").write_text(json.dumps(ref, indent=1, sort_keys=True) + "\n",
                                          encoding="utf-8")
    print(f"recorded {len(ref)} reference entries")
    return 0


if __name__ == "__main__":
    sys.exit(main())
