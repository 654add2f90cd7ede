"""The argument parser against recorded output.

``parser_golden.json`` holds the exact stdout, stderr and exit code of
every ``--help`` text (the top level, each command, each ``space`` and
``variety`` kind) and of a few usage errors, recorded while the parser
was still built whole for every command.  The parser now adds the
descriptor kinds only for the command that needs them, and must keep
reproducing these runs byte for byte.  Help is wrapped at 80 columns.

Re-record (only when a change of the text is intended) with::

    PYTHONPATH=src python tests/test_parser_golden.py
"""

import contextlib
import io
import json
import os
from pathlib import Path

import pytest

from gradedbrauer.cli import main

GOLDEN_PATH = Path(__file__).with_name("parser_golden.json")

COMMANDS = ("clifford", "tensor", "invariants", "azumaya", "centralizer",
            "space", "variety", "table", "selftest")
KINDS = {
    "space": ("trivial-action", "free-product", "graph", "surface",
              "real-curve", "complex-curve", "free-4d"),
    "variety": ("complex-projective", "real-projective",
                "complex-surface-witt", "real-surface-no-points"),
}
RUNS = ([["--help"], ["-h"], []]
        + [[command, "--help"] for command in COMMANDS]
        + [[command, kind, "--help"] for command, kinds in KINDS.items()
           for kind in kinds]
        + [["frobnicate"], ["space", "graph", "--nu", "1"],
           ["invariants", "--f", "-1"], ["invariants", "--form=--"],
           ["space", "bogus"], ["variety", "real-projective", "--rho0", "x"],
           ["table", "bogus"], ["selftest", "--seed"]])


def run(argv):
    """``main(argv)`` as ``{"argv", "code", "stdout", "stderr"}``."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(list(argv))
        except SystemExit as exc:
            code = exc.code
    return {"argv": argv, "code": code, "stdout": out.getvalue(),
            "stderr": err.getvalue()}


GOLDEN = (json.loads(GOLDEN_PATH.read_text(encoding="utf-8"))
          if GOLDEN_PATH.is_file() else [])


def test_every_run_is_recorded():
    assert [record["argv"] for record in GOLDEN] == RUNS


@pytest.mark.parametrize("record", GOLDEN, ids=lambda r: " ".join(r["argv"]) or "(none)")
def test_parser_output_is_unchanged(monkeypatch, record):
    monkeypatch.setenv("COLUMNS", "80")
    assert run(record["argv"]) == record


if __name__ == "__main__":
    os.environ["COLUMNS"] = "80"
    records = [run(argv) for argv in RUNS]
    GOLDEN_PATH.write_text(
        "[\n" + ",\n".join(json.dumps(r) for r in records) + "\n]\n",
        encoding="utf-8")
    print(f"recorded {len(records)} runs in {GOLDEN_PATH.name}")
