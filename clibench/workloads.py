"""Seeded job lists for the four benchmark workloads.

Each workload is a fixed-size list of ``conic-lmcf`` command lines.  The seed
changes values (phases, signs, eigenvalue picks, metrics, radii, weights),
never sizes (grid sizes, step counts, mode counts, job counts).  The program
sees only the generated flags and the input files written here.

Values that the reference table must cover are drawn from finite pools, so
``record_reference.py`` can enumerate every key; everything else is drawn
from continuous ranges and checked against independent formulas.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import formulas

WORKLOADS = ("torus-flow", "radial-solve", "mode-dump", "cone-survey")


@dataclass
class Job:
    """One CLI invocation: ``argv`` (without ``--outdir``) plus what to check."""

    id: str
    argv: list
    check: str
    params: dict = field(default_factory=dict)
    # False where the artifacts differ in the last bits between calls in one
    # process (ARPACK draws a new start vector on every call); such jobs are
    # checked in full on every pass instead of by digest
    repeatable: bool = True


def _num(x) -> str:
    return repr(x) if isinstance(x, float) else str(x)


# --- torus-flow -------------------------------------------------------------

# Trig potentials with fixed Fourier magnitudes (the catalog's, plus one skew
# profile).  X1/X2 become grid-shifted coordinates, so every seeded variant is
# a lattice translation, reflection or sign flip of the canonical profile and
# shares its reference values.
PROFILES = {
    "sine": "0.1*sin(X1)",
    "mixed": "0.05*sin(X1)+0.05*cos(2*X2)",
    "product": "0.1*sin(X1)*cos(X2)",
    "ripple": "0.08*sin(2*X1)*cos(X2)+0.02*cos(X1)",
    "skew": "0.06*cos(X1+X2)+0.04*sin(X1-2*X2)",
}

# (command, n, T): flow sizes follow the m=2 default step 0.225*dx^2; the
# defect ladder is the documented default 0.1/0.05/0.025.
FLOW_SLOTS = (
    [("flow", 32, 0.1)] * 3 + [("flow", 48, 0.05)] * 3 + [("flow", 64, 0.025)] * 3
    + [("defect", 32, 0.05)] * 3 + [("defect", 48, 0.025)] * 2
    + [("defect", 64, 0.0125)] * 1
)


def flow_key(cmd, n, T, profile):
    return f"{cmd} n={n} T={_num(T)} ic={profile}"


def _shifted_ic(rng, profile, n):
    axes = ["x1", "x2"]
    if rng.random() < 0.5:
        axes.reverse()
    expr = PROFILES[profile]
    for name, axis in zip(("X1", "X2"), axes):
        expr = expr.replace(name, f"({axis}+2*pi*{rng.randrange(n)}/{n})")
    return f"-({expr})" if rng.random() < 0.5 else expr


def _torus_flow(rng, inputs):
    jobs = []
    for i, (cmd, n, T) in enumerate(FLOW_SLOTS):
        profile = rng.choice(sorted(PROFILES))
        # "--ic=" keeps argparse from reading a leading minus as an option
        argv = [cmd, "--n", str(n), "--T", _num(T), "--ic=" + _shifted_ic(rng, profile, n)]
        jobs.append(Job(f"{cmd}-{i:02d}", argv, cmd,
                        {"ref": flow_key(cmd, n, T, profile), "n": n, "T": T}))
    return jobs


# --- radial-solve and mode-dump --------------------------------------------

# Mode eigenvalues: the hl-torus-3 link spectrum and the round S^2 spectrum up
# to 30.  Forcings are the documented 'r^a' / 't*r^a' shorthands.
LADDER = sorted({lam for lam, _ in formulas.torus_spectrum(formulas.HEX_METRIC, 30.0)}
                | {float(l * (l + 1)) for l in range(6)})
FORCINGS = ("r^0.5", "t*r^0.5", "r^1.5")

HEAT_SOLVE = {"modes": 3, "n": 1000, "T": 0.1, "dt": 2e-4, "store_every": 0}
HEAT_JOBS = 6

# asymptotics: hl-torus-3 eigenvalues whose exponent lies below the weights,
# and non-exceptional weights gamma with the matching forcing r^(gamma-2)
ASYM_LAMS = (0.0, 2.0, 6.0, 8.0)
ASYM_GAMMAS = (2.5, 2.7, 2.9)
ASYM_SIZE = {"n": 2000, "T": 0.1}
ASYM_JOBS = 10

# mode-dump: (n, modes, store_every) per job, T = 0.1 at the default dt = T/400
DUMP_SLOTS = [(50, 1, 1), (50, 2, 2), (100, 1, 2), (40, 2, 1), (60, 1, 2),
              (80, 1, 2)] * 2
DUMP_T = 0.1


def mode_key(lam, n, T, dt, forcing, store_every):
    return (f"heat lam={_num(float(lam))} n={n} T={_num(T)} dt={_num(dt)} "
            f"f={forcing} se={store_every}")


def asym_key(lam, gamma):
    return (f"asymptotics lam={_num(float(lam))} n={ASYM_SIZE['n']} "
            f"T={_num(ASYM_SIZE['T'])} gamma={_num(gamma)}")


def asym_forcing(gamma):
    return f"r^{gamma - 2.0:.10g}"


def heat_job(jid, lams, n, T, dt, forcing, store_every):
    argv = ["heat", "--lam", *[_num(float(x)) for x in lams], "--n", str(n),
            "--T", _num(T)]
    if dt is not None:
        argv += ["--dt", _num(dt)]
    argv += ["--forcing", forcing, "--store-every", str(store_every)]
    params = {"lams": [float(x) for x in lams], "n": n, "T": T, "dt": dt,
              "store_every": store_every,
              "refs": [mode_key(x, n, T, dt, forcing, store_every) for x in lams]}
    return Job(jid, argv, "heat", params)


def asym_job(jid, lam, gamma):
    argv = ["asymptotics", "--lam", _num(lam), "--n", str(ASYM_SIZE["n"]),
            "--T", _num(ASYM_SIZE["T"]), "--gamma", _num(gamma),
            "--forcing", asym_forcing(gamma)]
    return Job(jid, argv, "asymptotics",
               {"lam": lam, "gamma": gamma, "m": 3, "ref": asym_key(lam, gamma)})


def _radial_solve(rng, inputs):
    h = HEAT_SOLVE
    jobs = [heat_job(f"heat-{i:02d}", rng.sample(LADDER, h["modes"]), h["n"], h["T"],
                      h["dt"], rng.choice(FORCINGS), h["store_every"])
            for i in range(HEAT_JOBS)]
    jobs += [asym_job(f"asym-{i:02d}", rng.choice(ASYM_LAMS), rng.choice(ASYM_GAMMAS))
             for i in range(ASYM_JOBS)]
    return jobs


def _mode_dump(rng, inputs):
    return [heat_job(f"dump-{i:02d}", rng.sample(LADDER, modes), n, DUMP_T, None,
                      rng.choice(FORCINGS), se)
            for i, (n, modes, se) in enumerate(DUMP_SLOTS)]


# --- cone-survey -------------------------------------------------------------

TORUS_LMAX = {2: 30.0, 3: 12.0}
SPHERE_LEVELS = {2: 12, 3: 8, 5: 6}     # S^d with spectrum up to order l
# four of the 23 jobs are mesh spectra, so job_s.p90 falls inside that group
# of similar jobs rather than on the edge between two groups
MESH = {"nu": 96, "nv": 48, "count": 10, "jobs": 4}
FREDHOLM_GAMMA_RANGE = (0.05, 3.5)
GAMMA_MARGIN = 0.02


def _torus_metric(rng, dim):
    """Seeded SPD metric with 4-decimal entries, well away from degeneracy."""
    while True:
        L = np.eye(dim)
        for i in range(dim):
            L[i, i] = rng.uniform(0.8, 1.25)
            for j in range(i):
                L[i, j] = rng.uniform(-0.35, 0.35)
        H = np.round(L @ L.T, 4)
        if np.linalg.eigvalsh(H).min() > 0.2:
            return H


def _metric_flag(H):
    return ";".join(",".join(_num(float(x)) for x in row) for row in H)


def _sphere_lmax(rng, dim, level):
    lo = level * (level + dim - 1)
    hi = (level + 1) * (level + dim)
    return round(lo + rng.uniform(0.05, 0.95) * (hi - lo), 6)


def _rotation(rng):
    q, r = np.linalg.qr(np.array([[rng.gauss(0, 1) for _ in range(3)] for _ in range(3)]))
    return q * np.sign(np.diag(r))


def write_torus_off(path, R, a, nu, nv, rng):
    """Torus of revolution (radii R > a), rotated and with permuted vertices."""
    i, j = np.meshgrid(np.arange(nu), np.arange(nv), indexing="ij")
    phi, th = 2 * np.pi * i.ravel() / nu, 2 * np.pi * j.ravel() / nv
    rho = R + a * np.cos(th)
    verts = np.stack([rho * np.cos(phi), rho * np.sin(phi), a * np.sin(th)], 1) @ _rotation(rng).T
    ii, jj = i.ravel(), j.ravel()
    p, q = ii * nv + jj, ((ii + 1) % nu) * nv + jj
    r, s = ((ii + 1) % nu) * nv + (jj + 1) % nv, ii * nv + (jj + 1) % nv
    faces = np.concatenate([np.stack([p, q, r], 1), np.stack([p, r, s], 1)])
    perm = list(range(len(verts)))
    rng.shuffle(perm)
    perm = np.array(perm)               # new index of old vertex k is perm[k]
    new_verts = np.empty_like(verts)
    new_verts[perm] = verts
    faces = perm[faces]
    lines = ["OFF", f"{len(verts)} {len(faces)} 0"]
    lines += [" ".join(format(float(x), ".17g") for x in v) for v in new_verts]
    lines += [f"3 {f[0]} {f[1]} {f[2]}" for f in faces]
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


_SL2Z_GENERATORS = (np.array([[1, 1], [0, 1]]), np.array([[1, 0], [1, 1]]),
                    np.array([[0, -1], [1, 0]]))


def write_hl_cone_json(path, rng):
    """hl-torus-3 under a seeded SL(2,Z) reparametrisation and SU(3) phases.

    Both leave the cone (and so its spectrum and indices) unchanged while
    changing every coordinate of the description.
    """
    A = np.eye(2, dtype=int)
    for _ in range(2):
        A = A @ _SL2Z_GENERATORS[rng.randrange(3)]
    psi = [rng.uniform(-math.pi, math.pi) for _ in range(2)]
    psi.append(-psi[0] - psi[1])
    s = 1.0 / math.sqrt(3.0)
    coords = []
    for k, phase in zip(((1, 0), (0, 1), (-1, -1)), psi):
        kk = A.T @ np.array(k)
        coords.append([{"c": [s * math.cos(phase), s * math.sin(phase)],
                        "k": [int(x) for x in kk]}])
    data = {"name": "hl-torus-3-reparam", "m": 3, "dim_G": 2, "coordinates": coords}
    Path(path).write_text(json.dumps(data, sort_keys=True) + "\n", encoding="utf-8")


def _free_gamma(rng, avoid, lo, hi):
    while True:
        g = round(rng.uniform(lo, hi), 4)
        if all(abs(g - a) > GAMMA_MARGIN for a in avoid):
            return g


def _cone_survey(rng, inputs):
    jobs = []

    def add(jid, argv, check, **params):
        jobs.append(Job(jid, argv, check, params, repeatable=check != "spectrum_mesh"))

    for i, dim in enumerate((2, 2, 2, 3)):
        H = _torus_metric(rng, dim)
        add(f"spec-torus-{i}", ["spectrum", "--link", "torus", "--dim", str(dim),
                                "--metric", _metric_flag(H), "--lmax", _num(TORUS_LMAX[dim])],
            "spectrum_torus", metric=H.tolist(), lmax=TORUS_LMAX[dim])
    for dim, level in SPHERE_LEVELS.items():
        lmax = _sphere_lmax(rng, dim, level)
        add(f"spec-sphere-{dim}", ["spectrum", "--link", "sphere", "--dim", str(dim),
                                   "--lmax", _num(lmax)],
            "spectrum_sphere", dim=dim, lmax=lmax)
    for i in range(MESH["jobs"]):
        R, a = round(rng.uniform(2.0, 3.0), 4), round(rng.uniform(0.6, 1.0), 4)
        off = inputs / f"torus_{i}.off"
        write_torus_off(off, R, a, MESH["nu"], MESH["nv"], rng)
        add(f"spec-mesh-{i}", ["spectrum", "--link", "mesh", "--mesh-file", str(off),
                               "--count", str(MESH["count"])],
            "spectrum_mesh", R=R, a=a, count=MESH["count"])

    H = _torus_metric(rng, 2)
    for jid, link, dim, m, metric in (("exp-hl", "hl-torus", 2, 3, formulas.HEX_METRIC),
                                      ("exp-torus", "torus", 2, 3, H),
                                      ("exp-sphere-2", "sphere", 2, 3, None),
                                      ("exp-sphere-3", "sphere", 3, 4, None)):
        alpha_max = round(rng.uniform(3.0, 4.0), 4)
        argv = ["exponents", "--link", link, "--dim", str(dim), "--m", str(m),
                "--alpha-max", _num(alpha_max)]
        if link == "torus":
            argv += ["--metric", _metric_flag(metric)]
        add(jid, argv, "exponents", link=link, dim=dim, m=m, alpha_max=alpha_max,
            metric=None if metric is None else np.asarray(metric).tolist())

    cones = []
    for i in range(2):
        path = inputs / f"cone_{i}.json"
        write_hl_cone_json(path, rng)
        cones.append(["--cone-json", str(path)])
    hl = formulas.hl_exponents(FREDHOLM_GAMMA_RANGE[1] + 1.0)
    plain = [alpha for alpha, _ in hl]
    lifted = formulas.lifted(plain, FREDHOLM_GAMMA_RANGE[1] + 1.0)
    for i, (cone, ends, with_asym) in enumerate(
            ((["--cone", "hl-torus-3"], 1, False), (cones[0], 1, False),
             (cones[1], 2, False), (["--cone", "hl-torus-3"], 2, False),
             (cones[0], 1, True))):
        gammas = [_free_gamma(rng, lifted if with_asym else plain, *FREDHOLM_GAMMA_RANGE)
                  for _ in range(ends)]
        argv = ["fredholm", *cone, "--gamma", *[_num(g) for g in gammas]]
        if with_asym:
            argv.append("--with-asymptotics")
        add(f"fredholm-{i}", argv, "fredholm", gammas=gammas, with_asymptotics=with_asym)

    for i, cone in enumerate((["--cone", "hl-torus-3"], cones[0], cones[1])):
        add(f"stability-{i}", ["stability", *cone, "--seed", str(rng.randrange(10**6))],
            "stability")
    return jobs


_GENERATORS = {"torus-flow": _torus_flow, "radial-solve": _radial_solve,
             "mode-dump": _mode_dump, "cone-survey": _cone_survey}


def build(workload: str, seed: int, inputs: Path) -> list:
    """The workload's job list for ``seed``; input files go under ``inputs``."""
    inputs.mkdir(parents=True, exist_ok=True)
    return _GENERATORS[workload](random.Random(f"{workload}:{seed}"), inputs)
