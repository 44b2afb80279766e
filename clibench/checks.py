"""Artifact checks for every benchmark job.

A job passes when it exited 0 and its artifacts agree with independent
formulas (``formulas.py``) or, where none exists, with the reference outputs
recorded from the seed commit (``reference.json``).  Tolerances are set so
that last-bit changes (a batched LU, reordered sums) pass while wrong
answers do not; the flow references allow for a change of time-stepping
scheme at the default step (measured at under 2 % on these jobs).
"""

from __future__ import annotations

import functools
import json
from pathlib import Path

import numpy as np

import formulas

FLOW_REF_REL = 5e-2
DEFECT_REF_REL = 1e-1
RADIAL_REF_REL = 1e-6


class CheckError(Exception):
    """An artifact is missing, malformed or wrong."""


def _require(cond, msg):
    if not cond:
        raise CheckError(msg)


def _close(a, b, rel, abs_=0.0):
    return abs(a - b) <= rel * max(abs(a), abs(b)) + abs_


def _require_close(a, b, rel, what, abs_=0.0):
    _require(_close(float(a), float(b), rel, abs_), f"{what}: {a!r} vs expected {b!r}")


def _json(path: Path):
    try:
        return json.loads(path.read_text(encoding="utf-8"))
    except (OSError, ValueError) as exc:
        raise CheckError(f"cannot read {path.name}: {exc}") from exc


def _table(path: Path, delimiter=None, header=None):
    try:
        with open(path, encoding="utf-8") as fh:
            if header is not None:
                first = fh.readline().rstrip("\n")
                _require(first == header, f"{path.name}: header {first!r} != {header!r}")
            data = np.loadtxt(fh, delimiter=delimiter, ndmin=2)
    except (OSError, ValueError) as exc:
        raise CheckError(f"cannot parse {path.name}: {exc}") from exc
    _require(np.all(np.isfinite(data)), f"{path.name}: non-finite values")
    return data


def _csv_rows(path: Path, header):
    try:
        lines = path.read_text(encoding="utf-8").splitlines()
    except OSError as exc:
        raise CheckError(f"cannot read {path.name}: {exc}") from exc
    _require(lines and lines[0] == header, f"{path.name}: bad header")
    # the last column may hold unquoted commas (spectrum basis tags "k=(1,0)")
    return [line.split(",", header.count(",")) for line in lines[1:]]


def _report(outdir: Path, command: str):
    report = _json(outdir / "report.json")
    _require(report.get("command") == command, "report.json names another command")
    outputs = report.get("outputs", {})
    for name in outputs.get("files", []):
        _require((outdir / name).is_file(), f"listed artifact {name} is missing")
    return outputs


def _ref(reference, key):
    _require(key in reference, f"no reference recorded for {key!r}")
    return reference[key]


# --- torus-flow ----------------------------------------------------------------


def check_flow(p, outdir, reference):
    out = _report(outdir, "flow")
    summary = _json(outdir / "flow_summary.json")
    t, sup = np.array(summary["t"]), np.array(summary["sup_theta"])
    _require(t[0] == 0.0 and np.all(np.diff(t) > 0), "flow times not increasing from 0")
    _require_close(t[-1], p["T"], 1e-9, "final time")
    _require(np.all(np.diff(sup) <= 1e-12 * sup[:-1]), "sup|theta| increased along the flow")
    _require(out["n_steps"] == len(t) - 1, "n_steps disagrees with the time series")
    dat = _table(outdir / "sup_theta.dat")
    _require(dat.shape == (len(t), 2) and np.allclose(dat, np.stack([t, sup], 1),
                                                      rtol=1e-12, atol=0),
             "sup_theta.dat disagrees with flow_summary.json")
    snaps = _table(outdir / "flow_snapshots.csv", ",", "t,node,u,theta")
    nodes = p["n"] ** 2
    _require(len(snaps) == nodes * min(5, len(t)), "flow_snapshots.csv row count")
    last = snaps[-nodes:]
    _require(np.array_equal(last[:, 1], np.arange(nodes)), "snapshot node numbering")
    _require_close(last[0, 0], p["T"], 1e-9, "last snapshot time")
    _require_close(np.abs(last[:, 2]).max(), out["sup_u_final"], 1e-12, "sup|u| of last snapshot")
    _require_close(np.abs(last[:, 3]).max(), out["sup_theta_final"], 1e-12,
                   "sup|theta| of last snapshot")
    _require_close(out["sup_theta_final"], sup[-1], 1e-12, "sup_theta_final")
    ref = _ref(reference, p["ref"])
    _require_close(out["sup_u_final"], ref["sup_u_final"], FLOW_REF_REL, "sup_u_final vs reference")
    _require_close(out["sup_theta_final"], ref["sup_theta_final"], FLOW_REF_REL,
                   "sup_theta_final vs reference")


def check_defect(p, outdir, reference):
    _report(outdir, "defect")
    d = _json(outdir / "defect.json")
    eps, defects = d["epsilons"], d["defects"]
    _require(eps == [0.1, 0.05, 0.025], "epsilon ladder is not the default")
    for e, x, xa in zip(eps, defects, d["defects_per_amplitude"]):
        _require(x > 0, "non-positive defect")
        _require_close(xa, x / e, 1e-12, "defect per amplitude")
    for r in d["ratios_per_amplitude"]:
        _require(0.2 <= r <= 0.3, f"per-amplitude ratio {r} outside [0.2, 0.3]")
    dat = _table(outdir / "defect.dat")
    _require(np.allclose(dat, np.stack([eps, defects], 1), rtol=1e-12, atol=0),
             "defect.dat disagrees with defect.json")
    for x, y in zip(defects, _ref(reference, p["ref"])["defects"]):
        _require_close(x, y, DEFECT_REF_REL, "defect vs reference")


# --- radial-solve / mode-dump ------------------------------------------------------


def mode_frames(n, T, dt, store_every):
    """Frame times of a radial solve (``dt=None`` is the default ``T/400``)."""
    dt = T / 400.0 if dt is None else dt
    steps = int(round(T / dt))
    ks = [0] + [k for k in range(1, steps + 1)
                if (store_every and k % store_every == 0) or k == steps]
    return np.array(ks) * dt


def check_heat(p, outdir, reference):
    out = _report(outdir, "heat")
    n = p["n"]
    times = mode_frames(n, p["T"], p["dt"], p["store_every"])
    nodes = formulas.radial_nodes(n)
    for lam, key in zip(p["lams"], p["refs"]):
        tag = format(lam, ".17g")
        data = _table(outdir / f"mode_{tag}.csv", ",", "t,r,u")
        _require(data.shape == (len(times) * n, 3), f"mode_{tag}.csv row count")
        frames = data.reshape(len(times), n, 3)
        _require(np.allclose(frames[:, :, 0], times[:, None], rtol=1e-12, atol=1e-15),
                 f"mode_{tag}.csv frame times")
        _require(np.allclose(frames[:, :, 1], nodes[None, :], rtol=1e-12, atol=0),
                 f"mode_{tag}.csv radii are not the graded grid")
        _require(np.all(frames[0, :, 2] == 0.0), f"mode_{tag}.csv initial frame is not zero")
        final = frames[-1, :, 2]
        prof = _table(outdir / f"profile_{tag}.dat")
        _require(np.array_equal(prof, frames[-1, :, 1:]), f"profile_{tag}.dat != final frame")
        sup = float(np.abs(final).max())
        _require_close(out["sup_final"][tag], sup, 1e-15, f"sup_final[{tag}]")
        ref = _ref(reference, key)
        _require_close(sup, ref["sup_final"], RADIAL_REF_REL, f"sup_final[{tag}] vs reference")
        _require_close(np.abs(frames[:, :, 2]).sum(), ref["l1"], RADIAL_REF_REL,
                       f"sum|u| of mode_{tag}.csv vs reference")


def check_asymptotics(p, outdir, reference):
    _report(outdir, "asymptotics")
    a = _json(outdir / "asymptotics.json")
    gamma = p["gamma"]
    _require(a["gamma"] == gamma, "gamma not echoed")
    _require(a["remainder_rate"] >= gamma - 0.15,
             f"remainder rate {a['remainder_rate']:.4f} < gamma - 0.15")
    alpha = formulas.alpha_plus(p["lam"], p["m"])
    for al, k, _ in a["terms"]:
        _require(abs(al - alpha) <= 1e-9 and k == int(k) and al + 2 * k < gamma,
                 f"term r^({al}+2*{k}) is not on the mode's exponent ladder below gamma")
    rem = _table(outdir / "remainder.dat")
    _require(np.allclose(rem[:, 0], formulas.radial_nodes(len(rem)), rtol=1e-12, atol=0),
             "remainder.dat radii")
    _require_close(rem[:, 1].max(), a["remainder_sup"], 1e-12, "remainder_sup")
    ref = _ref(reference, p["ref"])
    _require(len(a["terms"]) == len(ref["terms"]), "accepted terms differ from reference")
    for (al, k, c), (ral, rk, rc) in zip(a["terms"], ref["terms"]):
        _require(abs(al - ral) <= 1e-9 and k == rk, "term exponents differ from reference")
        _require_close(c, rc, RADIAL_REF_REL, f"coefficient of r^{al + 2 * k:g}", 1e-12)
    _require_close(a["remainder_rate"], ref["remainder_rate"], RADIAL_REF_REL,
                   "remainder rate vs reference")


# --- cone-survey ---------------------------------------------------------------------


def _check_grouped(rows, expected, what):
    _require(len(rows) == len(expected), f"{what}: {len(rows)} eigenvalues, expected {len(expected)}")
    for (lam, mult), (elam, emult) in zip(rows, expected):
        _require_close(lam, elam, 1e-9, f"{what} eigenvalue", 1e-12)
        _require(mult == emult, f"{what}: multiplicity {mult} at {elam:g}, expected {emult}")


def _spectrum_rows(outdir):
    out = _report(outdir, "spectrum")
    rows = [(float(lam), int(mult)) for lam, mult, _tag in
            _csv_rows(outdir / "spectrum.csv", "lambda,multiplicity,basis_tag")]
    _require(out["n_eigenvalues"] == len(rows), "n_eigenvalues")
    _require(out["total_multiplicity"] == sum(m for _, m in rows), "total_multiplicity")
    return rows


def check_spectrum_torus(p, outdir, reference):
    _check_grouped(_spectrum_rows(outdir), formulas.torus_spectrum(p["metric"], p["lmax"]),
                   "torus spectrum")


def check_spectrum_sphere(p, outdir, reference):
    _check_grouped(_spectrum_rows(outdir), formulas.sphere_spectrum(p["dim"], p["lmax"]),
                   "sphere spectrum")


# mesh jobs are checked in full on every pass (see ``Job.repeatable``)
_continuum = functools.lru_cache(maxsize=16)(formulas.torus_of_revolution_eigenvalues)


def check_spectrum_mesh(p, outdir, reference):
    rows = _spectrum_rows(outdir)
    flat = [lam for lam, mult in rows for _ in range(mult)]
    _require(len(flat) == p["count"], "mesh spectrum does not hold --count eigenvalues")
    _require(flat[0] < 1e-8, "lowest mesh eigenvalue is not the constant mode")
    expected = _continuum(p["R"], p["a"], p["count"])
    for lam, ref in zip(flat, expected):
        _require(abs(lam - ref) <= 2e-2 * max(ref, 0.1),
                 f"mesh eigenvalue {lam:.6g} vs continuum {ref:.6g}")


def _link_spectrum(p, lam_max):
    if p["link"] == "sphere":
        return formulas.sphere_spectrum(p["dim"], lam_max)
    return formulas.torus_spectrum(p["metric"], lam_max)


def check_exponents(p, outdir, reference):
    out = _report(outdir, "exponents")
    m, amax = p["m"], p["alpha_max"]
    rows = _csv_rows(outdir / "exponents.csv", "lambda,multiplicity,alpha_plus,alpha_minus")
    rows = [(float(a), int(b), float(c), float(d)) for a, b, c, d in rows]
    for lam, _, ap, am in rows:
        _require(ap >= 0 and _close(ap * (ap + m - 2), lam, 1e-9, 1e-12),
                 f"alpha+={ap} does not solve alpha(alpha+m-2)={lam}")
        _require_close(am, 2 - m - ap, 1e-12, "alpha- = 2-m-alpha+", 1e-12)
    _check_grouped([(lam, mult) for lam, mult, _, _ in rows],
                   _link_spectrum(p, amax * (amax + m - 2)), "exponent table")
    _require(out["window"][1] >= amax - 1e-12, "exponent window does not reach --alpha-max")


def _hl_count(gamma, m=3):
    """Multiplicity-weighted number of hl-torus-3 exponents in [0, gamma)."""
    return sum(k for lam, k in formulas.torus_spectrum(formulas.HEX_METRIC, gamma * (gamma + m - 2))
               if formulas.alpha_plus(lam, m) < gamma)


def check_fredholm(p, outdir, reference):
    _report(outdir, "fredholm")
    f = _json(outdir / "fredholm.json")
    counts = [_hl_count(g) for g in p["gammas"]]
    _require(f["gammas"] == p["gammas"], "gammas not echoed")
    _require(f["counts"] == counts, f"counts {f['counts']} != {counts}")
    expected = 0 if p["with_asymptotics"] else -sum(counts)
    _require(f["index"] == expected, f"index {f['index']} != {expected}")


def check_stability(p, outdir, reference):
    _report(outdir, "stability")
    s = _json(outdir / "stability.json")
    _require(s["index"] == 0, f"stability index {s['index']} != 0")
    _require(s["harmonic_counts"] == {"0": 1, "1": 6, "2": 6},
             f"harmonic counts {s['harmonic_counts']} != 1/6/6")
    _require(s["rank_translations"] == s["expected_rank_translations"] == 6
             and s["rank_su"] == s["expected_rank_su"] == 6 and not s["degenerate"],
             "moment-map spans are degenerate")


CHECKS = {name[len("check_"):]: fn for name, fn in globals().items()
          if name.startswith("check_")}


def check(job, outdir: Path, reference: dict) -> None:
    """Raise :class:`CheckError` unless the job's artifacts are right."""
    try:
        CHECKS[job.check](job.params, outdir, reference)
    except (KeyError, IndexError, TypeError, ValueError) as exc:
        raise CheckError(f"malformed artifact: {exc!r}") from exc
