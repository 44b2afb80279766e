"""The CLI's help and usage-error text, pinned byte for byte.

Each invocation runs ``main`` with ``COLUMNS=100`` and must print exactly the
stdout and stderr recorded in ``cli_text.json`` and exit with the recorded
code.  argparse lays its text out differently from one Python minor version
to the next, so the text is enforced only on the version it was recorded on.

Re-record (after an intended change to the help text) with::

    PYTHONPATH=src python tests/test_cli_text.py > tests/cli_text.json
"""

import contextlib
import io
import json
import os
import sys
from pathlib import Path

import pytest

from conic_lmcf.cli import main

COMMANDS = ["spectrum", "exponents", "stability", "fredholm", "heat", "asymptotics", "flow",
            "defect"]
INVOCATIONS = (
    [["-h"], ["--version"], [], ["nope"], ["-1", "heat"], ["--", "heat"]]
    + [[command, "-h"] for command in COMMANDS]
    + [[command, "--bogus"] for command in COMMANDS]
    + [["fredholm", "--cone", "hl-torus-3"]]
)
RECORDED = Path(__file__).with_name("cli_text.json")


def run(argv) -> dict:
    """Exit code of ``main(argv)``; argparse exits through SystemExit."""
    try:
        code = main(list(argv))
    except SystemExit as exc:
        code = exc.code
    return {"exit": code}


@pytest.mark.parametrize("argv", INVOCATIONS, ids=lambda argv: " ".join(argv) or "no-arguments")
def test_help_and_usage_text_is_unchanged(argv, monkeypatch, capsys, tmp_path):
    recorded = json.loads(RECORDED.read_text(encoding="utf-8"))
    if recorded["python"] != list(sys.version_info[:2]):
        pytest.skip(f"text was recorded on Python {recorded['python']}")
    monkeypatch.setenv("COLUMNS", "100")
    monkeypatch.chdir(tmp_path)
    found = run(argv)
    found["stdout"], found["stderr"] = capsys.readouterr()
    assert found == recorded["text"][" ".join(argv)]


if __name__ == "__main__":
    os.environ["COLUMNS"] = "100"
    text = {}
    for argv in INVOCATIONS:
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            found = run(argv)
        text[" ".join(argv)] = {**found, "stdout": stdout.getvalue(), "stderr": stderr.getvalue()}
    print(json.dumps({"python": list(sys.version_info[:2]), "text": text}, indent=2,
                     sort_keys=True))
