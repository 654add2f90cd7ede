"""Untrusted input at the CLI boundary: bad input exits 2.

Scalars must be exact (strings or integers, never floats or bools), and
the unit and the grading are checked on every ingest.  Algebras above the
size budget are refused before any table is built, and a reader that
closes stdout early does not turn success into a failure.
"""

import contextlib
import io
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gradedbrauer import algebra
from gradedbrauer.algebra import AlgebraError, GradedAlgebra, end_graded
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
    (["1", "0", "0"], "unit vector has the wrong length"),
])
def test_wrong_unit_exits_two(capsys, tmp_path, unit, message):
    alg = generator_json()
    alg["unit"] = unit
    code, doc = run_file(capsys, tmp_path, alg)
    assert code == 2
    assert doc["error"] == {"type": "AlgebraError", "message": message}


@pytest.mark.parametrize("structure", [
    [[0, 0, 0, "1"], [0, 1, 1, "1"]],   # e_0 e_1 = e_1 but e_1 e_0 = 0
    [[0, 0, 0, "1"], [1, 0, 1, "1"]],   # e_1 e_0 = e_1 but e_0 e_1 = 0
])
def test_one_sided_unit_exits_two(capsys, tmp_path, structure):
    doc = {"field": "R", "parity": [0, 0], "unit": ["1", "0"],
           "structure": structure}
    code, out = run_file(capsys, tmp_path, doc)
    assert code == 2
    assert out["error"]["message"] == "unit fails on basis element 1"


def test_wrong_parity_product_exits_two(capsys, tmp_path):
    alg = generator_json()
    alg["structure"].append([1, 1, 1, "1"])  # odd * odd with an odd component
    code, doc = run_file(capsys, tmp_path, alg)
    assert code == 2
    assert doc["error"]["type"] == "AlgebraError"
    assert "wrong parity" in doc["error"]["message"]


NON_ASSOCIATIVE = {"parity": [0, 0, 0], "unit": ["1", "0", "0"], "structure": [
    [0, 0, 0, "1"], [0, 1, 1, "1"], [1, 0, 1, "1"], [0, 2, 2, "1"],
    [2, 0, 2, "1"], [1, 1, 1, "1"], [1, 2, 1, "1"]]}


@pytest.mark.parametrize("command", ["invariants", "azumaya"])
@pytest.mark.parametrize("field", ["R", "C"])
def test_an_asymmetric_trace_form_exits_two_at_both_points(
        capsys, monkeypatch, command, field):
    """``e_1 e_1 = e_1 e_2 = e_1`` is not associative, and its trace form
    is not symmetric: both commands refuse it the same way at R and C,
    where it is read, before any trace form is taken."""
    doc = dict(NON_ASSOCIATIVE, field=field)
    monkeypatch.setattr(sys, "stdin", io.StringIO(json.dumps(doc)))
    code = main([command, "--algebra", "-"])
    error = json.loads(capsys.readouterr().out)["error"]
    assert (code, error) == (2, {"type": "AlgebraError",
                                 "message": "associativity fails on basis triple (1, 2, 1)"})


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


@pytest.mark.parametrize("flag", ["--fo", "--for"])
@pytest.mark.parametrize("command, form", [
    ("invariants", "-1,1"), ("invariants", "-1/2,-1,3"), ("clifford", "-1,2"),
    ("azumaya", "-1"), ("centralizer", "-2,1")])
def test_negative_form_after_an_abbreviated_flag(capsys, flag, command, form):
    """argparse takes ``--fo`` and ``--for`` for ``--form``; a negative form
    after them is joined as it is after the full spelling."""
    glued = run_cli(capsys, command, f"--form={form}")
    abbreviated = run_cli(capsys, command, flag, form)
    assert glued[0] == 0
    assert abbreviated == glued


@pytest.mark.parametrize("argv", [
    ["azumaya", "--form=--"], ["invariants", "--algebra=--"],
    ["selftest", "--seed=--"], ["space", "free-product", "--h3tors=--"],
    ["space", "free-product", "--h0=--"]])
def test_double_dash_as_an_option_value_exits_two(capsys, argv):
    """argparse reads ``--form=--`` as an empty list of values, which no
    handler takes; it is bad input, not an internal failure."""
    code, out, _ = run_cli(capsys, *argv)
    assert code == 2
    assert json.loads(out)["error"] == {
        "type": "ValueError", "message": "an option's value cannot be '--'"}


@pytest.mark.parametrize("command", ["invariants", "azumaya", "centralizer"])
def test_form_and_algebra_together_exit_two(capsys, command):
    """``--form 1 --algebra ground`` names two algebras: the command refuses
    it instead of using the form and dropping ``--algebra``."""
    code, out, _ = run_cli(capsys, command, "--form", "1", "--algebra", "ground")
    assert code == 2
    assert json.loads(out)["error"] == {
        "type": "ValueError", "message": "pass --form or --algebra, not both"}


def test_ambiguous_abbreviation_is_still_a_usage_error(capsys):
    """``--f`` could be ``--form`` or ``--field``: argparse refuses it."""
    with pytest.raises(SystemExit) as exc:
        main(["invariants", "--f", "-1,1"])
    assert exc.value.code == 2
    assert "ambiguous" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["invariants", "--form", ",".join(["1"] * 11)],
    ["invariants", "--form", ",".join(["-1"] * 17)],
    ["tensor", "form:1,1,1,1,1,1", "form:1,1,1,1,1"],
    ["invariants", "--algebra", "end:20,13"],
    ["invariants", "--algebra", "end:33,0"],  # purely even, dim 1089
])
def test_algebras_above_the_size_budget_exit_two(capsys, argv):
    code, out, _ = run_cli(capsys, *argv)
    assert code == 2
    error = json.loads(out)["error"]
    assert error["type"] == "AlgebraError"
    assert "MAX_DIM = 1024" in error["message"]


@pytest.mark.parametrize("even", [20, 32])
def test_purely_even_algebras_classify_up_to_the_size_budget(capsys, even):
    """``end:20,0`` (dim 400) and ``end:32,0`` (dim 1024) are classified
    from their own center, not inside a stabilization four times larger."""
    code, out, _ = run_cli(capsys, "invariants", "--algebra", f"end:{even},0")
    assert code == 0
    assert json.loads(out)["bw"] == 0


def test_json_above_the_size_budget_exits_two(capsys, tmp_path):
    """``k^1100``: 1100 orthogonal even idempotents, refused before its
    table is built."""
    n = 1100
    doc = {"field": "R", "dim": n, "parity": [0] * n, "unit": ["1"] * n,
           "structure": [[i, i, i, "1"] for i in range(n)]}
    path = tmp_path / "alg.json"
    path.write_text(json.dumps(doc))
    code = main(["azumaya", "--algebra", str(path)])
    error = json.loads(capsys.readouterr().out)["error"]
    assert code == 2
    assert error == {"type": "AlgebraError",
                     "message": "algebra read from JSON has dimension 1100, "
                                "above the size budget MAX_DIM = 1024"}


def test_closed_stdout_is_not_an_error():
    """``gradedbrauer clifford --form 1,1,1,1,1,1 | head -1``: the reader
    leaves after one line of a 200 kB document, and the CLI still exits 0
    with nothing on stderr."""
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (src, env.get("PYTHONPATH"))))
    proc = subprocess.Popen(
        [sys.executable, "-m", "gradedbrauer.cli", "clifford", "--form",
         "1,1,1,1,1,1"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
    assert proc.stdout.readline() == b"{\n"
    proc.stdout.close()
    _, err = proc.communicate(timeout=60)
    assert proc.returncode == 0
    assert err == b""


@pytest.mark.parametrize("key, value", [("parity", 5), ("structure", "x")])
def test_non_list_parity_or_structure_exits_two(capsys, tmp_path, key, value):
    alg = generator_json()
    alg[key] = value
    code, doc = run_file(capsys, tmp_path, alg)
    assert code == 2
    assert doc["error"] == {"type": "AlgebraError",
                            "message": "parity and structure must be lists"}


def assert_refused(capsys, tmp_path, doc, message):
    code, out = run_file(capsys, tmp_path, doc)
    assert code == 2
    assert out["error"] == {"type": "AlgebraError", "message": message}


def test_non_string_field_label_exits_two(capsys, tmp_path):
    alg = generator_json()
    alg["field"] = ["R"]
    assert_refused(capsys, tmp_path, alg,
                   "field must be a string label, not list ['R']")


def test_non_list_unit_exits_two(capsys, tmp_path):
    alg = generator_json()
    alg["unit"] = 5
    assert_refused(capsys, tmp_path, alg, "unit must be a list, not int")


def test_string_unit_is_not_read_by_characters(capsys, tmp_path):
    """``"unit": "1"`` on the ground field is a string, not the list ["1"]."""
    doc = {"field": "R", "parity": [0], "unit": "1", "structure": [[0, 0, 0, "1"]]}
    assert_refused(capsys, tmp_path, doc, "unit must be a list, not str")


# k[x]/(x^2 - 1) with x even, as a dense table: e_i e_j = e_{i xor j}
DENSE_PLANE = [["1", "0"], ["0", "1"]]


def test_dense_table_with_a_non_list_plane_exits_two(capsys, tmp_path):
    doc = {"field": "R", "parity": [0, 0], "structure": [DENSE_PLANE, 5]}
    assert_refused(capsys, tmp_path, doc, "dense structure table has the wrong shape")


def test_dense_table_with_a_non_list_fiber_exits_two(capsys, tmp_path):
    doc = {"field": "R", "parity": [0, 0],
           "structure": [DENSE_PLANE, [["0", "1"], 5]]}
    assert_refused(capsys, tmp_path, doc, "dense structure table has the wrong shape")


def test_dense_table_with_a_string_fiber_is_not_read_by_characters(capsys, tmp_path):
    doc = {"field": "R", "parity": [0, 0],
           "structure": [DENSE_PLANE, [["0", "1"], "10"]]}
    assert_refused(capsys, tmp_path, doc, "dense structure table has the wrong shape")


# ------------------------------------------------------------ fuzzing main

SCALAR_TEXT = st.text(alphabet="0123456789-+/.ieE ", max_size=6)
JSON_LEAVES = (st.none() | st.booleans() | st.integers(-3, 3)
               | st.floats(allow_nan=False, allow_infinity=False)
               | SCALAR_TEXT | st.text(max_size=4))
JSON_VALUES = st.recursive(
    JSON_LEAVES,
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text(max_size=4), inner, max_size=4),
    max_leaves=16)
# Small algebras the perturbations start from: every kind of center.
SEEDS = [clifford(DiagonalForm(form, REAL)).to_json()
         for form in ((), (1,), (-1,), (1, -1), (-1, -1))]
SEEDS += [end_graded(1, 1).to_json(), end_graded(2, 0).to_json(),
          {"field": "C", "parity": [0, 0], "unit": ["1", "0"],
           "structure": [[0, 0, 0, "1"], [0, 1, 1, "1"], [1, 0, 1, "1"]]}]


@st.composite
def algebra_documents(draw):
    """A small algebra's JSON with a few entries, keys or values changed:
    often still a valid algebra, often not associative, often malformed."""
    doc = json.loads(json.dumps(draw(st.sampled_from(SEEDS))))
    for _ in range(draw(st.integers(0, 3))):
        edit = draw(st.sampled_from(("value", "drop", "add", "key", "unit")))
        structure = doc.get("structure")
        if not isinstance(structure, list):
            structure = []  # replaced by an arbitrary value: nothing to edit
        if edit == "value" and structure:
            entry = draw(st.sampled_from(structure))
            if isinstance(entry, list) and entry:
                entry[-1] = draw(SCALAR_TEXT | st.integers(-2, 2))
        elif edit == "drop" and structure:
            structure.pop(draw(st.integers(0, len(structure) - 1)))
        elif edit == "add":
            index = st.integers(0, 4)
            structure.append([draw(index), draw(index), draw(index),
                              draw(st.sampled_from(("1", "-1", "2", "1/2", "i")))])
        elif edit == "key":
            doc[draw(st.sampled_from(("field", "dim", "parity", "unit",
                                      "structure")))] = draw(JSON_VALUES)
        else:
            doc.pop("unit", None)
    return doc


STDIN = (algebra_documents().map(json.dumps) | JSON_VALUES.map(json.dumps)
         | st.text(max_size=20))
# Shorthand and form text; a bare name is a path, looked up in an empty
# directory.
FORM_TEXT = st.text(alphabet="0123456789-+/,.ieE ", max_size=12) | st.text(max_size=6)
SHORTHAND = (st.just("-") | st.just("ground") | FORM_TEXT.map("form:{}".format)
             | FORM_TEXT.map("end:{}".format)
             | st.text(alphabet=st.characters(blacklist_characters="/\\"), max_size=8))


@st.composite
def cli_calls(draw):
    command = draw(st.sampled_from(("invariants", "azumaya", "centralizer")))
    argv = [command]
    if draw(st.booleans()):
        argv.append("--form=" + draw(FORM_TEXT))
    else:
        argv.append("--algebra=" + draw(SHORTHAND))
    argv += ["--field", draw(st.sampled_from(("R", "C")))]
    if command == "invariants" and draw(st.booleans()):
        argv.append("--opposite")
    return argv, draw(STDIN)


def on_stdin(doc):
    return ["invariants", "--algebra=-", "--field", "R"], json.dumps(doc)


@settings(max_examples=400, deadline=None)
@given(cli_calls())
@example(on_stdin({"field": ["R"], "parity": [0], "structure": [[0, 0, 0, "1"]]}))
@example(on_stdin({"field": "R", "parity": [0], "unit": 5, "structure": [[0, 0, 0, "1"]]}))
@example(on_stdin({"field": "R", "parity": [0], "unit": "1", "structure": [[0, 0, 0, "1"]]}))
@example(on_stdin({"field": "R", "parity": [0, 0], "structure": [DENSE_PLANE, 5]}))
@example(on_stdin({"field": "R", "parity": [0, 0],
                   "structure": [DENSE_PLANE, [["0", "1"], 5]]}))
@example(on_stdin({"field": "R", "parity": [0, 0],
                   "structure": [DENSE_PLANE, [["0", "1"], "10"]]}))
@example((["invariants", "--form=1e9999999"], ""))
@example((["azumaya", "--form=--"], ""))
def test_every_input_exits_zero_or_two(call):
    """``main`` on arbitrary shorthand, forms and JSON on stdin: exit 0
    with a JSON document, or exit 2 with exactly one ``{"error": {"type",
    "message"}}`` document; never 1.  A small ``MAX_DIM`` keeps every
    example fast."""
    argv, stdin = call
    out = io.StringIO()
    with pytest.MonkeyPatch.context() as mp, tempfile.TemporaryDirectory() as empty:
        mp.setattr(algebra, "MAX_DIM", 16)
        mp.setattr(sys, "stdin", io.StringIO(stdin))
        mp.chdir(empty)
        with contextlib.redirect_stdout(out):
            code = main(argv)
    assert code in (0, 2), out.getvalue()
    doc = json.loads(out.getvalue())
    if code == 2:
        assert list(doc) == ["error"]
        assert sorted(doc["error"]) == ["message", "type"]
