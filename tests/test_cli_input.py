"""Untrusted algebra JSON at the CLI boundary: bad input exits 2.

Scalars must be exact (strings or integers, never floats or bools), and
the unit and the grading are checked on every ingest.
"""

import json

import pytest

from gradedbrauer.algebra import AlgebraError, GradedAlgebra
from gradedbrauer.clifford import DiagonalForm, clifford
from gradedbrauer.cli import main
from gradedbrauer.scalars import REAL


def generator_json():
    """``C<1>``: basis (1, e) with e odd and e^2 = 1."""
    return clifford(DiagonalForm((1,), REAL)).to_json()


def run_file(capsys, tmp_path, doc):
    path = tmp_path / "alg.json"
    path.write_text(json.dumps(doc))
    code = main(["invariants", "--algebra", str(path)])
    return code, json.loads(capsys.readouterr().out)


def with_cell(doc, i, j, k, value):
    doc["structure"] = [[i, j, k, value] if entry[:3] == [i, j, k] else entry
                        for entry in doc["structure"]]
    return doc


@pytest.mark.parametrize("value", [0.1, 1.0, True, None])
def test_inexact_or_non_numeric_scalars_exit_two(capsys, tmp_path, value):
    code, doc = run_file(capsys, tmp_path, with_cell(generator_json(), 1, 1, 0, value))
    assert code == 2
    assert doc["error"]["type"] == "ValueError"
    assert "strings or integers" in doc["error"]["message"]


def test_float_in_the_unit_exits_two(capsys, tmp_path):
    alg = generator_json()
    alg["unit"] = [1.0, "0"]
    code, doc = run_file(capsys, tmp_path, alg)
    assert (code, doc["error"]["type"]) == (2, "ValueError")


@pytest.mark.parametrize("unit, message", [
    (["2", "0"], "unit fails on basis element 0"),
    (["1", "1"], "unit has a component in odd degree"),
])
def test_wrong_unit_exits_two(capsys, tmp_path, unit, message):
    alg = generator_json()
    alg["unit"] = unit
    code, doc = run_file(capsys, tmp_path, alg)
    assert code == 2
    assert doc["error"] == {"type": "AlgebraError", "message": message}


def test_wrong_parity_product_exits_two(capsys, tmp_path):
    alg = generator_json()
    alg["structure"].append([1, 1, 1, "1"])  # odd * odd with an odd component
    code, doc = run_file(capsys, tmp_path, alg)
    assert code == 2
    assert doc["error"]["type"] == "AlgebraError"
    assert "wrong parity" in doc["error"]["message"]


def test_from_json_checks_without_the_cli():
    alg = generator_json()
    alg["unit"] = ["2", "0"]
    with pytest.raises(AlgebraError, match="unit"):
        GradedAlgebra.from_json(alg)


def test_fractional_structure_index_exits_two(capsys, tmp_path):
    alg = generator_json()
    alg["structure"] = [[i, j, 0.5 if (i, j) == (1, 1) else k, v]
                        for i, j, k, v in alg["structure"]]
    code, doc = run_file(capsys, tmp_path, alg)
    assert code == 2
    assert doc["error"] == {"type": "AlgebraError",
                            "message": "structure index must be an integer, not float 0.5"}


def test_boolean_structure_index_exits_two(capsys, tmp_path):
    alg = generator_json()
    alg["structure"] = [[True if i == 1 else i, j, k, v]
                        for i, j, k, v in alg["structure"]]
    code, doc = run_file(capsys, tmp_path, alg)
    assert code == 2
    assert doc["error"] == {"type": "AlgebraError",
                            "message": "structure index must be an integer, not bool True"}


def test_boolean_parity_bits_exit_two(capsys, tmp_path):
    alg = generator_json()
    alg["parity"] = [False, True]
    code, doc = run_file(capsys, tmp_path, alg)
    assert code == 2
    assert doc["error"] == {"type": "AlgebraError",
                            "message": "parity bit must be an integer, not bool False"}


def test_fractional_dim_exits_two(capsys, tmp_path):
    alg = generator_json()
    alg["dim"] = 2.5
    code, doc = run_file(capsys, tmp_path, alg)
    assert code == 2
    assert doc["error"] == {"type": "AlgebraError",
                            "message": "dim must be an integer, not float 2.5"}


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.mark.parametrize("command, form, field", [
    ("invariants", "-1,1", "R"),
    ("invariants", "-1/2,-1,3", "R"),
    ("invariants", "-i,1", "C"),
    ("clifford", "-1,2", "R"),
])
def test_negative_first_form_entry_in_both_spellings(capsys, command, form, field):
    """``--form -1,1`` prints what ``--form=-1,1`` prints, with the same
    exit code, rather than an argparse usage error."""
    glued = run_cli(capsys, command, f"--form={form}", "--field", field)
    separate = run_cli(capsys, command, "--form", form, "--field", field)
    assert glued[0] == 0
    assert separate == glued
    assert json.loads(separate[1])


@pytest.mark.parametrize("key, value", [("parity", 5), ("structure", "x")])
def test_non_list_parity_or_structure_exits_two(capsys, tmp_path, key, value):
    alg = generator_json()
    alg[key] = value
    code, doc = run_file(capsys, tmp_path, alg)
    assert code == 2
    assert doc["error"] == {"type": "AlgebraError",
                            "message": "parity and structure must be lists"}
