"""The package namespace: lazy re-exports, their callers, and what each command imports."""

import ast
import importlib
import importlib.util
import inspect
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import conic_lmcf


def test_exports_resolve_to_their_submodule_objects():
    names = [name for name in conic_lmcf.__all__ if name != "__version__"]
    for name in names:
        module = importlib.import_module(f"conic_lmcf.{conic_lmcf._SUBMODULE[name]}")
        assert getattr(conic_lmcf, name) is getattr(module, name)
    assert set(conic_lmcf.__all__) <= set(dir(conic_lmcf))
    namespace = {}
    exec("from conic_lmcf import *", namespace)  # noqa: S102 - the star import under test
    assert set(conic_lmcf.__all__) <= set(namespace)
    with pytest.raises(AttributeError, match="no_such_name"):
        conic_lmcf.no_such_name  # noqa: B018


# Exported names that nothing in the package or the acceptance suite calls, and why they stay.
UNCALLED_EXPORTS = {
    "apply_radial_operator": "the reference that the radial tests check radial_operator against",
    "graph_determinant": "kept for the flow report's minimum of det(I + Hess u) along the run",
}
# Public methods and properties of exported classes that nothing calls, and why they stay.
UNCALLED_MEMBERS = {
    "SLCone.to_json": "the cone-file writer that the README names",
}


def referenced_names(path):
    """Names that ``Name`` and ``Attribute`` nodes in ``path`` refer to.

    A reference inside a top-level ``def`` or ``class`` does not count for the
    name that statement defines, so a recursive call is not a caller.
    """
    refs = set()
    for stmt in ast.parse(Path(path).read_text(encoding="utf-8")).body:
        names = (node.id if isinstance(node, ast.Name) else node.attr
                 for node in ast.walk(stmt) if isinstance(node, (ast.Name, ast.Attribute)))
        refs.update(name for name in names if name != getattr(stmt, "name", None))
    return refs


def public_members(cls):
    """Names of the public methods and properties that ``cls`` itself defines."""
    return [name for name, value in vars(cls).items() if not name.startswith("_")
            and (inspect.isfunction(value)
                 or isinstance(value, (classmethod, staticmethod, property)))]


def test_every_export_has_a_caller():
    package = Path(conic_lmcf.__file__).resolve().parent
    refs = referenced_names(Path(__file__).with_name("test_acceptance.py"))
    for path in package.glob("*.py"):
        refs |= referenced_names(path)
    uncalled = {name for name in conic_lmcf.__all__ if name not in refs}
    assert uncalled == set(UNCALLED_EXPORTS)
    classes = [(name, getattr(conic_lmcf, name)) for name in conic_lmcf.__all__]
    uncalled = {f"{name}.{member}" for name, cls in classes if inspect.isclass(cls)
                for member in public_members(cls) if member not in refs}
    assert uncalled == set(UNCALLED_MEMBERS)


def test_benchmark_tracer_installs_and_restores():
    # The benchmark's tracer (clibench/tracer.py, loaded by path and only read)
    # looks up every name in each module's __all__ and in its own
    # EXTRA_FUNCTIONS and METHODS: a name the package drops fails here, not
    # first in a traced benchmark run.
    path = Path(__file__).resolve().parents[1] / "clibench" / "tracer.py"
    spec = importlib.util.spec_from_file_location("clibench_tracer", path)
    tracer_module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer_module)
    from conic_lmcf import flow
    original = flow.run_flow
    tracer = tracer_module.Tracer()
    tracer.install()
    try:
        assert flow.run_flow is not original
        assert flow.run_flow.__wrapped__ is original
    finally:
        tracer.uninstall()
    assert flow.run_flow is original


# Runs each command through cli.main in one fresh interpreter and records,
# after each, its exit code and which of the watched modules are loaded:
# numpy, SciPy with its sparse stack and interpolate, jsonschema and
# conic_lmcf's submodules.  sys.modules only grows, so the first command that loads a
# module is the one that needs it.
PROBE = """
import json, sys
import conic_lmcf
watched = ("numpy", "scipy", "scipy.sparse", "scipy.interpolate", "jsonschema")
def loaded():
    return sorted(m for m in sys.modules if m in watched or m.startswith("conic_lmcf."))
seen = {"import conic_lmcf": [0, loaded()]}
from conic_lmcf.cli import main
for i, argv in enumerate(json.loads(sys.argv[1])):
    try:
        code = main(argv if argv[0].startswith("-") else argv + ["--outdir", f"{sys.argv[2]}/{i}"])
    except SystemExit as exc:
        code = exc.code
    seen[" ".join(argv)] = [code, loaded()]
print(json.dumps(seen))
"""


def probe(commands, tmp_path):
    """``{argv joined: [exit code, watched modules loaded]}`` from one fresh interpreter."""
    src = str(Path(conic_lmcf.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run([sys.executable, "-c", PROBE, json.dumps(commands), str(tmp_path)],
                          env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def test_commands_without_a_sparse_matrix_do_not_load_scipy_sparse(tmp_path):
    # No command loads jsonschema: report.json is checked without it.
    table = tmp_path / "forcing.csv"
    table.write_text("t,r,f\n0,0,1\n0,1,2\n0.1,0,3\n0.1,1,4\n", encoding="utf-8")
    commands = [
        ["--version"],
        ["exponents", "--link", "hl-torus"],
        ["fredholm", "--gamma", "2.1"],
        ["stability"],
        ["flow", "--n", "16", "--T", "0.01"],
        ["defect", "--n", "16", "--T", "0.01"],
        ["spectrum", "--link", "torus", "--lmax", "3"],
        ["spectrum", "--link", "sphere", "--lmax", "3"],
        # radial builds no sparse matrix, but its spare splu import (looked up
        # by the benchmark tracer) loads scipy.sparse; the table needs no interpolate
        ["heat", "--n", "20", "--T", "0.01", "--forcing-csv", str(table)],
    ]
    loaded = {argv: [m for m in names if m in ("scipy.sparse", "scipy.interpolate", "jsonschema")]
              for argv, (_, names) in probe(commands, tmp_path).items()}
    expected = {" ".join(argv): [] for argv in commands}
    expected["import conic_lmcf"] = []
    expected[" ".join(commands[-1])] = ["scipy.sparse"]
    assert loaded == expected


PACKAGE = {f"conic_lmcf.{path.stem}" for path in
           Path(conic_lmcf.__file__).resolve().parent.glob("*.py")} - {"conic_lmcf.__init__"}
# One fresh interpreter a group: its commands with their exit codes, and the
# modules that none of them may load.  Help, --version and usage errors load
# no numpy and no numeric layer; each command loads only the layers it runs.
IMPORT_GROUPS = {
    "start-up": ({"--version": 0, "-h": 0, "flow --bogus": 2, "flow --config CONFIG": 2},
                 {"numpy"} | PACKAGE - {"conic_lmcf.cli", "conic_lmcf.errors"}),
    "torus": ({"flow --n 16 --T 0.01": 0, "defect --n 16 --T 0.01": 0},
              {f"conic_lmcf.{m}" for m in
               ("cones", "links", "exponents", "asymptotics", "norms", "radial")}),
    "cone-side": ({"spectrum --link torus --lmax 3": 0, "spectrum --link sphere --lmax 3": 0,
                   "spectrum --link hl-torus --lmax 3": 0, "exponents": 0, "stability": 0, "fredholm --gamma 2.1": 0},
                  {f"conic_lmcf.{m}" for m in ("flow", "radial", "asymptotics", "norms")}),
    # a --metric link is a flat torus, so the cone catalog is not needed
    "metric-asymptotics": ({"asymptotics --metric 1,0;0,1 --lam 0 --n 100 --T 0.05": 0},
                           {"conic_lmcf.cones", "conic_lmcf.flow"}),
}


@pytest.mark.parametrize("group", IMPORT_GROUPS)
def test_each_command_loads_only_the_layers_it_runs(tmp_path, group):
    codes, forbidden = IMPORT_GROUPS[group]
    config = tmp_path / "config.json"
    config.write_text('{"n": "many"}', encoding="utf-8")  # a value --n cannot take
    commands = [argv.replace("CONFIG", str(config)).split() for argv in codes]
    seen = probe(commands, tmp_path)
    assert seen.pop("import conic_lmcf") == [0, []]
    assert {argv: code for argv, (code, _) in seen.items()} == {
        argv.replace("CONFIG", str(config)): code for argv, code in codes.items()}
    assert {argv: sorted(forbidden & set(names)) for argv, (_, names) in seen.items()} == {
        argv: [] for argv in seen}
