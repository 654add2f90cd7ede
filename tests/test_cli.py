import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from gradedbrauer import cli
from gradedbrauer.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, json.loads(out)


def test_invariants_of_the_generator(capsys):
    code, doc = run(capsys, "invariants", "--form", "1", "--field", "R")
    assert code == 0
    assert doc == {"parity": 1, "q2": 1, "ungraded": 0, "bw": 1}


def test_invariants_opposite_flag(capsys):
    _, doc = run(capsys, "invariants", "--form", "1", "--opposite")
    assert doc["bw"] == 7


def test_clifford_emits_algebra_json(capsys):
    code, doc = run(capsys, "clifford", "--form", "1,-1")
    assert code == 0
    assert doc["dim"] == 4
    assert doc["parity"] == [0, 1, 1, 0]
    assert doc["structure"][0] == [0, 0, 0, "1"]  # triples come sorted
    assert doc["structure"] == sorted(doc["structure"])


def test_tensor_composes_with_stdin(capsys, monkeypatch, tmp_path):
    code, doc = run(capsys, "tensor", "form:1", "form:1")
    assert code == 0
    path = tmp_path / "alg.json"
    path.write_text(json.dumps(doc))
    code, inv = run(capsys, "invariants", "--algebra", str(path))
    assert code == 0
    assert inv == {"parity": 0, "q2": 2, "ungraded": 0, "bw": 2}


def test_algebra_shorthand_end_and_ground(capsys):
    code, doc = run(capsys, "azumaya", "--algebra", "end:2,1")
    assert (code, doc) == (0, {"azumaya": True})
    code, doc = run(capsys, "invariants", "--algebra", "ground")
    assert doc["bw"] == 0


def test_centralizer_normal_form(capsys):
    code, doc = run(capsys, "centralizer", "--form", "1,1")
    assert code == 0
    assert doc["dim"] == 2
    assert [1, 1, 0, "-1"] in doc["structure"]


def test_space_graph_example(capsys):
    code, doc = run(capsys, "space", "graph", "--nu", "2", "--h1quot", "0")
    assert code == 0
    assert doc["gbr"]["torsion"] == [4, 8]
    assert doc["rbr"]["torsion"] == [2, 2]
    assert "gbr-graph" in doc["rules"]


def test_space_free_product_group_flag(capsys):
    code, doc = run(capsys, "space", "free-product", "--h0", "1", "--h1", "2",
                    "--h3tors", "4,2")
    assert code == 0
    assert doc["gbr"]["torsion"] == [2, 2, 2, 2, 4]
    assert doc["rbr"]["torsion"] == [2, 4]
    assert doc["wr"]["torsion"] == [2] * 5


def test_variety_real_surface(capsys):
    code, doc = run(capsys, "variety", "real-surface-no-points", "--rho0", "1",
                    "--two-tors-br", "2", "--h1quot-reduced", "1")
    assert code == 0
    assert doc["w"]["extension"]["sub"]["torsion"] == [2, 2]


def test_table_and_space_table_alias(capsys):
    code, doc = run(capsys, "table", "circles")
    assert code == 0
    assert doc["circle-reflection"]["gbr"]["torsion"] == [4, 8]
    code2, doc2 = run(capsys, "space", "--table", "circles")
    assert code2 == 0
    assert doc2 == doc


def test_named_table_has_the_stored_constants(capsys):
    _, doc = run(capsys, "table", "named")
    plane = doc["real-projective-plane"]
    assert plane["wr"]["free_rank"] == 1
    sphere = doc["antipodal-4-sphere"]
    assert sphere["wr"]["extension"]["resolved"]["torsion"] == [8]


def test_selftest_passes(capsys):
    code, doc = run(capsys, "selftest", "--seed", "3")
    assert code == 0
    assert doc["passed"] is True
    assert all(c["status"] == "ok" for c in doc["checks"])


def test_validation_failures_exit_two(capsys):
    code, doc = run(capsys, "space", "graph", "--nu", "0", "--h1quot", "0")
    assert code == 2
    assert doc["error"]["type"] == "DescriptorError"
    code, doc = run(capsys, "invariants", "--form", "1,0")
    assert code == 2
    code, doc = run(capsys, "invariants", "--algebra", "no-such-file.json")
    assert code == 2
    assert doc["error"]["type"] == "FileNotFoundError"
    with pytest.raises(SystemExit) as excinfo:
        main(["space", "graph"])  # missing required flags: argparse usage error
    assert excinfo.value.code == 2
    capsys.readouterr()


def test_non_azumaya_input_is_a_validation_error(capsys, tmp_path):
    split = {"field": "R", "dim": 2, "parity": [0, 0], "unit": ["1", "1"],
             "structure": [[0, 0, 0, "1"], [1, 1, 1, "1"]]}
    path = tmp_path / "split.json"
    path.write_text(json.dumps(split))
    code, doc = run(capsys, "invariants", "--algebra", str(path))
    assert code == 2
    assert doc["error"]["type"] == "NotAzumayaError"


def upper_triangular_exits_two(capsys, monkeypatch, field):
    upper = {"field": field, "parity": [0, 0, 0], "unit": ["1", "0", "1"],
             "structure": [[0, 0, 0, "1"], [0, 1, 1, "1"], [1, 2, 1, "1"],
                           [2, 2, 2, "1"]]}
    monkeypatch.setattr(sys, "stdin", io.StringIO(json.dumps(upper)))
    code, doc = run(capsys, "invariants", "--algebra", "-")
    assert code == 2
    assert doc["error"]["type"] == "NotAzumayaError"
    assert "degenerate" in doc["error"]["message"]


def test_real_algebra_with_a_degenerate_trace_form_exits_two(capsys, monkeypatch):
    """Upper-triangular 2x2 matrices: the center is the ground field, but
    the trace form is degenerate, and ``azumaya`` says false."""
    upper_triangular_exits_two(capsys, monkeypatch, "R")


def test_complex_algebra_with_a_degenerate_trace_form_exits_two(capsys, monkeypatch):
    """The same matrices over C: no sign is read there, but the
    degenerate trace form still refuses the input."""
    upper_triangular_exits_two(capsys, monkeypatch, "C")


def test_internal_key_error_exits_one(capsys, monkeypatch):
    """A KeyError is a bug in this package, not bad input."""
    def broken(args):
        raise KeyError("missing")

    monkeypatch.setattr(cli, "_cmd_azumaya", broken)
    code, doc = run(capsys, "azumaya", "--form", "1")
    assert code == 1
    assert doc["error"] == {"type": "KeyError", "message": "'missing'",
                            "internal": True}


def test_usage_error_without_arguments(capsys):
    with pytest.raises(SystemExit) as excinfo:
        main([])
    assert excinfo.value.code == 2


def test_negative_graded_matrix_sizes_exit_two(capsys):
    for command in ("invariants", "azumaya"):
        code, doc = run(capsys, command, "--algebra", "end:-1,2")
        assert code == 2
        assert doc["error"]["type"] == "AlgebraError"


def test_non_object_json_on_stdin_exits_two(capsys, monkeypatch):
    monkeypatch.setattr(sys, "stdin", io.StringIO("[1, 2]"))
    code, doc = run(capsys, "invariants", "--algebra", "-")
    assert code == 2
    assert doc["error"]["type"] == "AlgebraError"


def test_non_object_json_file_exits_two(capsys, tmp_path):
    path = tmp_path / "list.json"
    path.write_text("[1, 2]")
    code, doc = run(capsys, "invariants", "--algebra", str(path))
    assert code == 2
    assert doc["error"]["type"] == "AlgebraError"


DEEP = "[" * 100000 + "]" * 100000


def test_deeply_nested_json_on_stdin_exits_two(capsys, monkeypatch):
    monkeypatch.setattr(sys, "stdin", io.StringIO(DEEP))
    code, doc = run(capsys, "invariants", "--algebra", "-")
    assert code == 2
    assert doc["error"] == {"type": "ValueError",
                            "message": "JSON input is nested too deeply"}


def test_deeply_nested_json_file_exits_two(capsys, tmp_path):
    path = tmp_path / "deep.json"
    path.write_text(DEEP)
    code, doc = run(capsys, "invariants", "--algebra", str(path))
    assert code == 2
    assert doc["error"] == {"type": "ValueError",
                            "message": "JSON input is nested too deeply"}


def test_recursion_error_past_the_json_parser_exits_one(capsys, monkeypatch):
    """Only the parser's RecursionError is bad input; one raised while
    building the algebra is a bug in this package."""
    def broken(data):
        raise RecursionError("deep")

    monkeypatch.setattr(cli.GradedAlgebra, "from_json", broken)
    monkeypatch.setattr(sys, "stdin", io.StringIO("{}"))
    code, doc = run(capsys, "invariants", "--algebra", "-")
    assert code == 1
    assert doc["error"] == {"type": "RecursionError", "message": "deep",
                            "internal": True}


def test_import_loads_no_numpy():
    """Start-up cost: the package itself needs no numpy."""
    import gradedbrauer
    src = str(Path(gradedbrauer.__file__).resolve().parent.parent)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (src, env.get("PYTHONPATH"))))
    out = subprocess.run(
        [sys.executable, "-c",
         "import sys, gradedbrauer; print('numpy' in sys.modules)"],
        env=env, capture_output=True, text=True, check=True, timeout=60)
    assert out.stdout.strip() == "False"


def test_a_prime_torsion_order_is_never_factored():
    """``--h3tors`` with a 19-digit prime: the invariant factors come from
    gcds, so the process does not run a trial division to ~10^9."""
    import gradedbrauer
    src = str(Path(gradedbrauer.__file__).resolve().parent.parent)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (src, env.get("PYTHONPATH"))))
    p = 1000000000000000003
    out = subprocess.run(
        [sys.executable, "-m", "gradedbrauer.cli", "space", "free-product",
         "--h3tors", str(p)],
        env=env, capture_output=True, text=True, timeout=10)
    assert out.returncode == 0
    doc = json.loads(out.stdout)
    assert doc["rbr"]["torsion"] == [p]
    assert doc["gbr"]["torsion"] == [2 * p]
