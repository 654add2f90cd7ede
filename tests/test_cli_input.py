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
