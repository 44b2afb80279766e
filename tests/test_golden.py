"""Golden digests: the SHA-256 of every artifact of one small run per subcommand.

Two more runs pin the expression paths of ``--ic`` and ``--forcing``, two
``heat`` runs the general tridiagonal factor (m = 4, and q = 3), one of them
with outer data and a ``dt`` that does not divide ``T``, and one a mesh
spectrum of a committed OFF file.  The runs start in this file's folder, so
the mesh file's path in ``report.json`` does not depend on where the
checkout lives.

A refactor that keeps the CLI's behaviour keeps these digests.  ``report.json``
is hashed as written, byte for byte, but for the ``wall_time_s`` line and the
``versions`` block, the two fields that vary with the clock and the toolchain
rather than with the program.  The float
artifacts depend on numpy's and SciPy's kernels, so the digests are enforced
only with the versions they were recorded with.

Re-record (after an intended artifact change) with::

    PYTHONPATH=src python tests/test_golden.py
"""

import contextlib
import hashlib
import json
import re
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
    # the dgttrf path, with outer data and a dt that does not divide T
    "heat-general": ["heat", "--m", "4", "--lam", "0", "2", "6", "--n", "50", "--T", "0.1",
                     "--dt", "0.03", "--outer", "0.25", "--forcing", "t*r^0.5",
                     "--store-every", "1"],
    "heat-q3": ["heat", "--q", "3", "--lam", "0", "2", "--n", "50", "--T", "0.05",
                "--forcing", "r^1.5", "--store-every", "20"],
    "spectrum-mesh": ["spectrum", "--link", "mesh", "--mesh-file", "data/torus-12x8.off"],
}

TOOLCHAIN = {"numpy": "2.4.6", "scipy": "1.17.1"}

GOLDEN = {
    "spectrum": {
        "report.json": "3b4eb3ef39c6979a5410276e494b8024ce355c6ca342025a6809be0d1f8ba49f",
        "spectrum.csv": "d830f69d73b1796c3e2a22d830d81127c3943b0325e418c3ab04bb01d38664c3",
    },
    "exponents": {
        "exponents.csv": "0de75665a2786cb7d0f21385a566c4bd0221341ceffdb8ec24b3ca6cf02bd3ca",
        "report.json": "5240c80c9ff0daa3a1ae40bb6a1b0d8399166b3ff98c49d516be1246c491b871",
    },
    "stability": {
        "report.json": "3f82254fdfac7c27b0b55b81087c1faa8d3ff307d270307431cba9e547e775f0",
        "stability.json": "d4ae9d0e8132741e785a1c01eaf99f2052294f2e13067e4f95603d3807629c92",
    },
    "fredholm": {
        "fredholm.json": "f70119b9e8f2b55ff735b0b00a65d128244995669ebc8145a7db8aa982ed811f",
        "report.json": "769f48926c3126ef8f143f008c93e99edc8f29a61d2f9789a0374ca7a651d391",
    },
    "heat": {
        "mode_0.csv": "64ed34913cd3d427b395e0a7b0399db85e624d55eacce4ea301c599bce934a41",
        "mode_2.csv": "a0fa6590442fdab8e5ac07f1bf1d4dbd2375926649e182ebbaee78089c015123",
        "profile_0.dat": "51e93a93577e6276220c4adcd7bf0a359fbb2716fec2c18283b348314b32f222",
        "profile_2.dat": "d70de820a6e46eac02d666dd49dee0b62437352219c3636d40d157ef0f17923a",
        "report.json": "cc891ba20ddbfc1aeb238f6a9a63c07d8f2335e7791063776147f8b62c98de95",
    },
    "asymptotics": {
        "asymptotics.json": "ec2e79c5102b028d1b8077b7b8b3cc7f6ef5f0ed17bc254a02a60173611e7bc7",
        "remainder.dat": "a9a1c7df8e4838d2e140027c56ba785b2a83a2aa7218059ed941988b136d33f3",
        "report.json": "b692d6f39eeaa0ce750d34ea744d7124f60ff2637cb4d2b699db06f1f3802651",
    },
    "flow": {
        "flow_snapshots.csv": "599f86f5be5ca81c1dcac9dd07b6b89c66c5b842011beea4e352254fa9f872c0",
        "flow_summary.json": "e93ab262fa9a21cc33a5178a0df1a7e899e3b5f49ada23092003d3116c6751bf",
        "report.json": "5c8c46d5a8755e7f5200e9f86a22f534da67a47a47048e651a6fc0a6afd23fb9",
        "sup_theta.dat": "526d04e6c9656bb4574f92fca59ad7ba84cbe4f6c2c68aa419a80da98c15e5a1",
    },
    "defect": {
        "defect.dat": "cb0cc97eeb4a4f30f4d057b1c8f235a247c0067dbd6a68817125793e538c9e18",
        "defect.json": "79e0d21da1315d03abd4e3eca899e8e5583c52cc9f461560982833e30d40b215",
        "report.json": "64dee8276637d69128afc7774c789193c511b37cbb29d965118d97d2644ab385",
    },
    "flow-expression": {
        "flow_snapshots.csv": "6330d031277bcf9e385a510cfd69b1e709f08dccd24da8cdcb8c0b4a67a4b4fa",
        "flow_summary.json": "2afeb0763fa068395c455a027de17cb68236e434739b9b79738456e33c15af5d",
        "report.json": "4e46c80d4f3a2d397e02ee7dc0e766bd41fb12d15e8f55763e72adbfbe0b6ec0",
        "sup_theta.dat": "3a7327c894011214cf5e2ef07ace385928e92edca0df5b99f7e1f8967ff36d98",
    },
    "heat-expression": {
        "mode_0.csv": "818c3f015a641d62311cb18f64d66100e3c1beea3943695dafb1d5d177458134",
        "mode_2.csv": "89a2bd23ea2cbc228c51f277739a5d0f29aee0520ec40827b9910438f719487e",
        "profile_0.dat": "83d7aa0214b3e7b3949c5ad49084338fe4ca5cd9f376ee9d9a3fe690fe3063d9",
        "profile_2.dat": "99b7624e4a76fb9ab76a7c85489f02ec2a709df08ac4d334397a525285c99b1d",
        "report.json": "11fa3bb0c2e39b01e2dfab9665c89efb8341a0e87b8c47ffdeeb31abf0a61376",
    },
    "heat-general": {
        "mode_0.csv": "6ded5700efc4973bb07bf37b0b902b1c1d47d08e668e5e5458791da8208eb530",
        "mode_2.csv": "1473997991da9c5cedc3f2e92aeee568b1e6b54e16e4b29b31b5e9252dce9d19",
        "mode_6.csv": "c75bf6b9a2e97ea2aa3679733ed447f5d143bac77bc5a453f317db68a5bedf6a",
        "profile_0.dat": "01fbe9b227b502fb0c55de729c855ebb6cc6af73019739224f08eb1eec91a8f9",
        "profile_2.dat": "f8fb2b3f3ce81f9bf37fec9ec3df960ae667abb1508ee78aeb128d3a73bb53a0",
        "profile_6.dat": "1c43f61038562beffdf042e63f059220d0345bbdfb7becf0699534c669a27558",
        "report.json": "2130e7d68c5228593e0bf57191e98919091480aa7199f5717019b89325ee877f",
    },
    "heat-q3": {
        "mode_0.csv": "a8cd64f846756785f36cd543b550fb08d346f755a5ab3112b0a4545238797b7c",
        "mode_2.csv": "a703ff0fd4ffcee23aca62dec27d307f899a6d9ccbe671173f57ec8b388e6724",
        "profile_0.dat": "395d447462de9aacf87dda143400d09b9e507a49e57008c296dd383e649bb36a",
        "profile_2.dat": "fd739de0ee17a37fd69c9d21dc2243f9e635406c3d4b170b32d5ba4e26d9921c",
        "report.json": "ffda8fa9c3d89a62d556d08834dbf25d92ca5bec954fab661083fb87d6f184b8",
    },
    "spectrum-mesh": {
        "report.json": "55265e500a9502b94878d75cbb45f6d2fbf503e6927140e77c2c65f1d157053b",
        "spectrum.csv": "8a8c198d5f7842d7f021bfcc7ff5e1866fadb1163435956871de7aebf081f9db",
    },
}


# the ``versions`` block and the ``wall_time_s`` line of a report.json as write_json lays it out
VARYING = re.compile(rb'  "versions": \{\n(?:    .*\n)*  \},\n|  "wall_time_s": .*\n')


def digests(outdir: Path) -> dict:
    """File name -> SHA-256 hex digest of every artifact in ``outdir``."""
    found = {}
    for path in sorted(outdir.iterdir()):
        data = path.read_bytes()
        if path.name == "report.json":
            data, cut = VARYING.subn(b"", data)
            assert cut == 2, f"{path}: expected a versions block and a wall_time_s line"
        found[path.name] = hashlib.sha256(data).hexdigest()
    return found


def run_all(root: Path) -> None:
    """Run every entry of ``RUNS`` from this file's folder, each into ``root / <command>``."""
    with contextlib.chdir(Path(__file__).parent):
        for name, argv in RUNS.items():
            assert main(argv + ["--outdir", str(root.resolve() / name)]) == 0, name


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
