"""Golden digests: the SHA-256 of every artifact of one small run per subcommand.

Two more runs pin the expression paths of ``--ic`` and ``--forcing``.

A refactor that keeps the CLI's behaviour keeps these digests.  ``report.json``
is hashed without ``wall_time_s`` and ``versions``, the two fields that vary
with the clock and the toolchain rather than with the program.  The float
artifacts depend on numpy's and SciPy's kernels, so the digests are enforced
only with the versions they were recorded with.

Re-record (after an intended artifact change) with::

    PYTHONPATH=src python tests/test_golden.py
"""

import contextlib
import hashlib
import json
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
import scipy

from conic_lmcf.cli import build_parser, command_parser, main

RUNS = {
    "spectrum": ["spectrum", "--link", "torus", "--dim", "2", "--lmax", "3"],
    "exponents": ["exponents", "--link", "hl-torus", "--alpha-max", "3"],
    "stability": ["stability", "--cone", "hl-torus-3"],
    "fredholm": ["fredholm", "--cone", "hl-torus-3", "--gamma", "2.1"],
    "heat": ["heat", "--lam", "0", "2", "--n", "50", "--T", "0.05",
             "--forcing", "t*r^0.5", "--store-every", "40"],
    "asymptotics": ["asymptotics", "--lam", "0", "--n", "400", "--T", "0.1",
                    "--gamma", "2.5", "--forcing", "r^0.5"],
    "flow": ["flow", "--n", "16", "--T", "0.05", "--ic", "mixed", "--snapshots", "3"],
    "defect": ["defect", "--n", "16", "--T", "0.1", "--eps", "0.1", "0.05"],
    # the expression paths of --ic and --forcing
    "flow-expression": ["flow", "--n", "16", "--T", "0.05",
                        "--ic=-(0.06*cos((x1+2*pi*5/16)+(x2+2*pi*3/16))+0.04*sin(x1-2*x2))"],
    "heat-expression": ["heat", "--lam", "0", "2", "--n", "50", "--T", "0.05",
                        "--forcing", " t^2*r^0.5 "],
}

TOOLCHAIN = {"numpy": "2.4.6", "scipy": "1.17.1"}

GOLDEN = {
    "spectrum": {
        "report.json": "b69f31af2e2e1c1c2494a6ee786503ffce5752c97655b77f6d6ec9e34d423d18",
        "spectrum.csv": "d830f69d73b1796c3e2a22d830d81127c3943b0325e418c3ab04bb01d38664c3",
    },
    "exponents": {
        "exponents.csv": "0de75665a2786cb7d0f21385a566c4bd0221341ceffdb8ec24b3ca6cf02bd3ca",
        "report.json": "eb1411a145fe98a3044224ed680b57b044d540a4ec8295245a8b2c3190912e98",
    },
    "stability": {
        "report.json": "bbfe07d3f992bdd4a5ee7b287c0570337fb21b0de90a751df2e6eab22e89b455",
        "stability.json": "4da88407473ef92f173661f3bae4d2e6636b367e70a98ef7c279f6da1d190f12",
    },
    "fredholm": {
        "fredholm.json": "f70119b9e8f2b55ff735b0b00a65d128244995669ebc8145a7db8aa982ed811f",
        "report.json": "6f13f491dc4278d534b1852fd4034e8cbc348b672b44da31a62722d9921698db",
    },
    "heat": {
        "mode_0.csv": "8172810a78e96b518c6fc65d9db7a10ac0684211a89bc61006a1c6221e4a79fe",
        "mode_2.csv": "0e516da44bda173334e74a801ae95add4243c7babbf6de16ad4cfdd70cb37428",
        "profile_0.dat": "c25fcf1a975b286e69595ef6a92cd652e84d0a693ece5decdba412710692ea15",
        "profile_2.dat": "a8bee4477cf36b3b4e8991c8bc5a47d0cdad362625837abe649f2e881af23428",
        "report.json": "663451ae7747847bda04921f3f1725637e2ed66dfea8f90c57b4b01cf88d3ea5",
    },
    "asymptotics": {
        "asymptotics.json": "3cc1a8b48342e97598e06a3937482e3368dca2e3860adb091e3baeb0aff08d21",
        "remainder.dat": "ca5f7ddeb8fec8cc8d2e91010ae645ca6674ce211ad61e3e37e6ec6bfc0670b7",
        "report.json": "132b198599af004552b987f605193e5706d0d44c78ee75d1bd9d1e6e857e19bf",
    },
    "flow": {
        "flow_snapshots.csv": "599f86f5be5ca81c1dcac9dd07b6b89c66c5b842011beea4e352254fa9f872c0",
        "flow_summary.json": "e93ab262fa9a21cc33a5178a0df1a7e899e3b5f49ada23092003d3116c6751bf",
        "report.json": "0b0349cd1d37898762e310feaa1ab733478a95cd30b24c551958b74268658e44",
        "sup_theta.dat": "526d04e6c9656bb4574f92fca59ad7ba84cbe4f6c2c68aa419a80da98c15e5a1",
    },
    "defect": {
        "defect.dat": "cb0cc97eeb4a4f30f4d057b1c8f235a247c0067dbd6a68817125793e538c9e18",
        "defect.json": "79e0d21da1315d03abd4e3eca899e8e5583c52cc9f461560982833e30d40b215",
        "report.json": "b0695cf30b1c3bfd1ab42b0997de81aa2d2f8bbdfd7eb168e9507c7d26c7fd8a",
    },
    "flow-expression": {
        "flow_snapshots.csv": "6330d031277bcf9e385a510cfd69b1e709f08dccd24da8cdcb8c0b4a67a4b4fa",
        "flow_summary.json": "2afeb0763fa068395c455a027de17cb68236e434739b9b79738456e33c15af5d",
        "report.json": "fe1fbb41c4379c11658354762c916711f635116990933d1dae026a5d526dc900",
        "sup_theta.dat": "3a7327c894011214cf5e2ef07ace385928e92edca0df5b99f7e1f8967ff36d98",
    },
    "heat-expression": {
        "mode_0.csv": "d37c5e9eb39a375cf424e15b7e110db48aa3aa6e413c1676b5c52dfd59fc6b11",
        "mode_2.csv": "c535b95cb938b36dc12ef7b03c936d514554c4a33d0956cc0bbe526fd392e911",
        "profile_0.dat": "52d58ced3307c1f93d6f0a864d4a2a2e35b5165331102169bd0a901d8ff19c27",
        "profile_2.dat": "da1ebde5487b7d86ffebff737709971cf9c14308be3f581e0c490f3f4400b290",
        "report.json": "ac92714c578bc60741d1473f593f155d9e412613d07f58dfbe1459ac616c7e79",
    },
}


def digests(outdir: Path) -> dict:
    """File name -> SHA-256 hex digest of every artifact in ``outdir``."""
    found = {}
    for path in sorted(outdir.iterdir()):
        data = path.read_bytes()
        if path.name == "report.json":
            report = json.loads(data)
            del report["wall_time_s"], report["versions"]
            data = (json.dumps(report, sort_keys=True, indent=2) + "\n").encode("utf-8")
        found[path.name] = hashlib.sha256(data).hexdigest()
    return found


def run_all(root: Path) -> None:
    """Run every entry of ``RUNS``, each into ``root / <command>``."""
    for name, argv in RUNS.items():
        assert main(argv + ["--outdir", str(root / name)]) == 0, name


@pytest.fixture(scope="module")
def runs(tmp_path_factory):
    root = tmp_path_factory.mktemp("golden")
    run_all(root)
    return root


@pytest.mark.skipif({"numpy": np.__version__, "scipy": scipy.__version__} != TOOLCHAIN,
                    reason=f"digests were recorded with {TOOLCHAIN}")
@pytest.mark.parametrize("command", list(RUNS))
def test_artifact_digests_are_unchanged(runs, command):
    assert digests(runs / command) == GOLDEN[command]


@pytest.mark.parametrize("command", list(RUNS))
def test_report_inputs_are_the_parsed_flags(runs, command):
    subparsers = build_parser({}, RUNS[command])._subparsers._group_actions[0].choices
    flags = {a.dest for a in subparsers[RUNS[command][0]]._actions} - {"help", "outdir", "config"}
    report = json.loads((runs / command / "report.json").read_text(encoding="utf-8"))
    assert set(report["inputs"]) == flags


@pytest.mark.parametrize("command", list(RUNS))
def test_report_inputs_are_the_stand_alone_parsers_flags(runs, command):
    parser = command_parser(RUNS[command][0], {})
    flags = {a.dest for a in parser._actions} - {"help", "outdir", "config"}
    report = json.loads((runs / command / "report.json").read_text(encoding="utf-8"))
    assert set(report["inputs"]) == flags


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp, contextlib.redirect_stdout(sys.stderr):
        run_all(Path(tmp))
        recorded = {name: digests(Path(tmp) / name) for name in RUNS}
    print(f'TOOLCHAIN = {{"numpy": "{np.__version__}", "scipy": "{scipy.__version__}"}}')
    print("GOLDEN =", json.dumps(recorded, indent=4))
