"""The benchmark's tracer must run on the package as it is.

``perfbench/layertrace.py`` wraps ``GradedAlgebra`` methods by name and
every public function of the package, and ``perfbench/cli_driver.py`` also
reads ``invariants._calibration.cache_info()`` and hands the CLI a ``json``
namespace of ``dump``, ``dumps``, ``load`` and ``loads`` only.  A renamed
method or an uncached calibration breaks only traced runs: the untraced
CLI still answers.  So each CLI command below runs both ways, and the
in-process layers run under an installed tracer.
"""

from __future__ import annotations

import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import pytest

from gradedbrauer import algebra, invariants
from gradedbrauer.clifford import clifford, signature_form

ROOT = Path(__file__).resolve().parents[1]
_spec = importlib.util.spec_from_file_location("layertrace", ROOT / "perfbench" / "layertrace.py")
layertrace = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(layertrace)


def cli(argv, spans=None) -> subprocess.CompletedProcess:
    """``gradedbrauer.cli`` in a child on this checkout's ``src``, through
    the benchmark's driver when ``spans`` names a file for the spans."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    launch = ([str(ROOT / "perfbench" / "cli_driver.py"), "--spans", str(spans), "--"]
              if spans else ["-m", "gradedbrauer.cli"])
    return subprocess.run([sys.executable, *launch, *argv], capture_output=True,
                          env=env, timeout=120)


@pytest.fixture(scope="module")
def tensor_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("tensor") / "tensor.json"
    run = cli(["tensor", "form:1", "form:1,-1"])
    assert run.returncode == 0, run.stderr.decode()
    path.write_bytes(run.stdout)
    return path


@pytest.mark.parametrize("argv", [
    ["invariants", "--form", "1,-1,2"],
    ["azumaya", "--form", "1,1", "--field", "C"],
    ["table", "circles"],
    ["invariants", "--algebra", None],
], ids=["invariants-form", "azumaya-complex", "table-circles", "invariants-algebra"])
def test_cli_answers_the_same_through_the_driver(tmp_path, tensor_file, argv):
    argv = [str(tensor_file) if a is None else a for a in argv]
    spans = tmp_path / "spans.jsonl"
    traced, direct = cli(argv, spans), cli(argv)
    assert traced.returncode == 0, traced.stderr.decode()
    assert direct.returncode == 0, direct.stderr.decode()
    assert traced.stdout == direct.stdout
    names = {name for name, _, _, _ in layertrace.read_spans(spans)[0]}
    assert {"cli.import", "cli.json_dump"} <= names


def test_layers_answer_the_same_under_the_tracer():
    def run() -> tuple:
        a = clifford(signature_form(2, 1))
        a.validate()
        built = algebra.GradedAlgebra(a.field, a.parity, dict(a.table), a.unit)
        read = algebra.GradedAlgebra.from_json(a.to_json())
        return (invariants.bw_class(a), algebra.is_azumaya(a),
                built.rows, read.rows, built == read == a)

    untraced = run()
    tracer = layertrace.Tracer()
    try:
        tracer.install()
        traced = run()
    finally:
        tracer.uninstall()
    assert traced == untraced
    names = {name for name, _, _, _ in tracer.spans}
    assert {"invariants.bw_class", "algebra.is_azumaya",
            "algebra.GradedAlgebra.validate", "algebra.GradedAlgebra.__init__",
            "algebra.GradedAlgebra.from_json"} <= names
