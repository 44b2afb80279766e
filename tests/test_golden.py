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
        "flow_snapshots.csv": "ebd859359f04997ac047d63338a6b79a3b4b12c3cf8f93872b319bc3c6f83487",
        "flow_summary.json": "9bd78358ad244b2f546131d1ead227a1f69bd12734d94e64816a87b3b5f19f16",
        "report.json": "7eff4885fc44e4eb6825d8e37617858df3451193cb01561c05d11e88d61e4a6b",
        "sup_theta.dat": "accefeefd5d39e31cece6c7e87f63a2d90be560109ea40919c739c644e4122c7",
    },
    "defect": {
        "defect.dat": "1fbc62362dc15ab2717d725ad46fe0bf85888aef67e12412f402919a8d69f1b4",
        "defect.json": "141b2e550e2844ee0006ced8f4996ee44a1c5610542f100e253994a7fd33093f",
        "report.json": "135139a57ce7f4e7e5612152339fc18b1daebeca581297bc04af4cac1e8e58c7",
    },
    "flow-expression": {
        "flow_snapshots.csv": "e53d27cbc17b321543645ebdf1ddf5df06fbf5162a6ef43e55b4c33969c20f66",
        "flow_summary.json": "e516d85ed4d7bd2a8a58324758526cf9cdafff669a7f66ede11267407fd8f4a5",
        "report.json": "db2d0f3163b1bce3be6a19a1829d46c5b55cd3f6b261684714d211aa3c9ed4bc",
        "sup_theta.dat": "0b5ea202abc364608b45baa4e5fb0c7728baed4099f7cf301f5c54fa130bb836",
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
