"""Refusals at the library and CLI boundary that no other test reaches.

Each library case is a call, the exception it raises and its message.
Where a CLI command reaches the same check, that command exits 2 with
the same message in its ``{"error": ...}`` document (a unit of the wrong
length in ``test_cli_input.test_wrong_unit_exits_two``).
"""

import io
import json
import re
import sys

import pytest

from gradedbrauer.algebra import (AlgebraError, GradedAlgebra, NotAzumayaError, end_graded,
                                  graded_centralizer, hat_center)
from gradedbrauer.cli import main
from gradedbrauer.clifford import (DiagonalForm, clifford, hyperbolic, relabel,
                                   signature_form)
from gradedbrauer.groups import AbGroup
from gradedbrauer.invariants import bw_class
from gradedbrauer.scalars import COMPLEX, REAL, parse_gaussian
from associativity_oracle import unvalidated
from centralizer_oracle import m11


def generator():
    """``C<1>``: basis (1, e) with e odd and e^2 = 1."""
    return clifford(signature_form(1, 0))


def cl2():
    """``Cl(2,0)``, of dimension 4."""
    return clifford(signature_form(2, 0))


def two_basis(field, structure):
    """A purely even dim-2 document with the unit ``e_0``."""
    return {"field": field, "parity": [0, 0], "unit": ["1", "0"], "structure": structure}


# Repeated and out-of-range triples, each with the message it raises.  A
# zero read first is remembered apart from the rows, and a range check on
# ``k`` keeps ``-1`` out of a monomial row, where it would be a zero product.
BAD_TRIPLES = {
    "zero-then-one": ([[0, 0, 0, "0"], [0, 0, 0, "1"]], "duplicate structure triple (0, 0, 0)"),
    "one-then-zero": ([[0, 0, 0, "1"], [0, 0, 0, "0"]], "duplicate structure triple (0, 0, 0)"),
    "zero-twice": ([[0, 0, 0, "0"], [0, 0, 0, "0"]], "duplicate structure triple (0, 0, 0)"),
    "k-is-dim": ([[0, 0, 0, "1"], [0, 1, 2, "1"]], "structure index 2 out of range"),
    "k-is-minus-one": ([[0, 0, 0, "1"], [0, 1, -1, "1"]], "structure index -1 out of range"),
    "j-is-dim": ([[0, 0, 0, "1"], [0, 2, 0, "1"]], "structure index (0, 2) out of range"),
    "i-is-minus-one": ([[-1, 0, 0, "1"]], "structure index (-1, 0) out of range"),
}


def split_pair_with(field, cell):
    """``GradedAlgebra(...)`` of ``e_0`` and ``e_1`` with ``e_0`` the unit
    and ``cell`` added."""
    table = {(0, 0): {0: 1}, (0, 1): {1: 1}, (1, 0): {1: 1}, **cell}
    return GradedAlgebra(field, (0, 0), table, unit=(1, 0))


BAD_INDICES = {
    "j-is-dim": ({(0, 2): {0: 1}}, "structure index (0, 2) out of range"),
    "i-is-minus-one": ({(-1, 0): {0: 1}}, "structure index (-1, 0) out of range"),
    "k-is-dim": ({(0, 1): {2: 1}}, "structure index 2 out of range"),
    "k-is-minus-one": ({(0, 1): {-1: 1}}, "structure index -1 out of range"),
    "empty-cell-j-is-dim": ({(0, 2): {}}, "structure index (0, 2) out of range"),
    "j-is-float": ({(1, 1.0): {1: 1}}, "structure index must be an integer, not float 1.0"),
    "k-is-bool": ({(1, 1): {True: 1}}, "structure index must be an integer, not bool True"),
    "i-is-str": ({("0", 1): {1: 1}}, "structure index must be an integer, not str '0'"),
    "key-is-a-triple": ({(0, 0, 5): {0: 1}},
                        "structure key must be a pair of indices, not tuple (0, 0, 5)"),
    "key-is-an-int": ({5: {0: 1}}, "structure key must be a pair of indices, not int 5"),
    "cell-is-an-int": ({(0, 0): 5}, "structure cell (0, 0) must be a mapping, not int 5"),
}
# A table that is not a mapping, or a unit with no length, given to the constructor.
BAD_ARGUMENTS = {
    "table-is-a-list": ([[0, 0, 0, 1]], None, "structure table must be a mapping, not list"),
    "table-is-none": (None, None, "structure table must be a mapping, not NoneType"),
    "unit-is-an-int": ({(0, 0): {0: 1}}, 5, "unit must be a list, not int"),
}
FIELDS = {"R": REAL, "C": COMPLEX}


@pytest.mark.parametrize("call, error, message", [
    (lambda: GradedAlgebra(REAL, (0,), {(0, 0): {0: 1}}, unit=(1, 0)),
     AlgebraError, "unit vector has the wrong length"),
    (lambda: GradedAlgebra.from_json(
        {"field": "R", "parity": [0], "structure": [[0, 0, 0]]}),
     AlgebraError, "bad structure triple [0, 0, 0]"),
    (lambda: end_graded(0, 0),
     AlgebraError, "graded endomorphism algebra of the zero space"),
    (lambda: graded_centralizer(generator(), [([1, 0], 2)]),
     AlgebraError, "constraint parity must be 0 or 1"),
    (lambda: relabel(generator(), [0, 0]),
     AlgebraError, "relabeling must be a permutation of the basis"),
    (lambda: hyperbolic(-1),
     ValueError, "need a nonnegative number of planes"),
    (lambda: DiagonalForm((1,), REAL) + DiagonalForm((1,), COMPLEX),
     ValueError, "cannot sum forms over different fields"),
    (lambda: AbGroup(free_rank=-1), ValueError, "ranks must be nonnegative"),
    (lambda: AbGroup(divisible_rank=-1), ValueError, "ranks must be nonnegative"),
    (lambda: parse_gaussian(" "), ValueError, "empty scalar string"),
    (lambda: cl2().mul([0, 0, 0, 0, 1], [1, 0, 0, 0]),
     AlgebraError, "mul takes vectors of length 4, not 5 and 4"),
    (lambda: cl2().mul([1], [0, 1]),
     AlgebraError, "mul takes vectors of length 4, not 1 and 2"),
    (lambda: graded_centralizer(cl2(), [([0, 1, 0, 0, 0], 1)]),
     AlgebraError, "constraint element has length 5, expected 4"),
    (lambda: graded_centralizer(cl2(), [([0, 1, 0, 0, 5], 1)]),
     AlgebraError, "constraint element has length 5, expected 4"),
    (lambda: cl2().basis_vector(-1),
     AlgebraError, "basis index -1 is out of range for dimension 4"),
    (lambda: cl2().basis_vector(4),
     AlgebraError, "basis index 4 is out of range for dimension 4"),
    (lambda: cl2().basis_product(9, 9),
     AlgebraError, "basis index 9 is out of range for dimension 4"),
    (lambda: cl2().basis_product(0, -1),
     AlgebraError, "basis index -1 is out of range for dimension 4"),
    (lambda: GradedAlgebra(REAL, (0, 1.5), {(0, 0): {0: 1}}),
     AlgebraError, "parity bit must be an integer, not float 1.5"),
    (lambda: GradedAlgebra(REAL, (False, True), {(0, 0): {0: 1}}),
     AlgebraError, "parity bit must be an integer, not bool False"),
    (lambda: GradedAlgebra(REAL, ("0", "1"), {(0, 0): {0: 1}}),
     AlgebraError, "parity bit must be an integer, not str '0'"),
] + [(lambda f=f, doc=doc: GradedAlgebra.from_json(two_basis(f, doc)), AlgebraError, message)
     for f in FIELDS for doc, message in BAD_TRIPLES.values()]
  + [(lambda f=f, cell=cell: split_pair_with(FIELDS[f], cell), AlgebraError, message)
     for f in FIELDS for cell, message in BAD_INDICES.values()]
  + [(lambda f=f, table=table, unit=unit: GradedAlgebra(FIELDS[f], (0,), table, unit),
      AlgebraError, message)
     for f in FIELDS for table, unit, message in BAD_ARGUMENTS.values()],
    ids=["unit-length", "structure-entry", "end-0-0", "constraint-parity",
        "relabel", "hyperbolic", "form-sum-fields", "free-rank",
        "divisible-rank", "empty-gaussian", "mul-long-vector",
        "mul-short-vectors", "constraint-trailing-zero", "constraint-past-dim",
        "basis-vector-negative", "basis-vector-past-dim",
        "basis-product-past-dim", "basis-product-negative", "parity-float",
        "parity-bool", "parity-str"]
    + [f"json-{case}-{f}" for f in FIELDS for case in BAD_TRIPLES]
    + [f"constructor-{case}-{f}" for f in FIELDS for case in BAD_INDICES]
    + [f"constructor-{case}-{f}" for f in FIELDS for case in BAD_ARGUMENTS])
def test_library_refusal(call, error, message):
    with pytest.raises(error, match=re.escape(message)):
        call()


def run_cli(capsys, tmp_path, argv, doc=None):
    if doc is not None:
        path = tmp_path / "alg.json"
        path.write_text(json.dumps(doc))
        argv = argv + [str(path)]
    code = main(argv)
    return code, json.loads(capsys.readouterr().out)


def generator_with(**changes):
    doc = generator().to_json()
    doc.update(changes)
    return doc


@pytest.mark.parametrize("argv, doc, error", [
    (["azumaya", "--algebra"], generator_with(structure=[[0, 0, 0]]),
     ("AlgebraError", "bad structure triple [0, 0, 0]")),
    (["centralizer", "--algebra"], generator_with(structure=["x"]),
     ("AlgebraError", "bad structure triple 'x'")),
    (["invariants", "--algebra", "end:0,0"], None,
     ("AlgebraError", "graded endomorphism algebra of the zero space")),
    (["invariants", "--algebra"],
     {"field": "C", "parity": [0], "unit": [""], "structure": [[0, 0, 0, "1"]]},
     ("ValueError", "empty scalar string")),
], ids=["structure-entry", "structure-non-list", "end-0-0", "empty-gaussian"])
def test_cli_refusal_exits_two(capsys, tmp_path, argv, doc, error):
    code, out = run_cli(capsys, tmp_path, argv, doc)
    assert code == 2
    assert out["error"] == dict(zip(("type", "message"), error))


def unclosed_center():
    """A purely even dim-4 table whose commutant is not closed under the
    product.  It has the unit ``e_0`` and the right grading, but it is
    not associative: the constructor refuses it, so it is built
    unvalidated."""
    table = {(0, k): {k: 1} for k in range(4)}
    table.update({(k, 0): {k: 1} for k in range(1, 4)})
    table.update({(1, 2): {0: 2, 2: -1, 3: 1}, (1, 3): {3: -1}, (2, 1): {0: 1},
                  (2, 2): {2: 1}, (3, 1): {3: -1}, (3, 3): {1: 1}})
    return unvalidated(REAL, (0, 0, 0, 0), table, unit=(1, 0, 0, 0))


def test_centralizer_closure_refusal(capsys, tmp_path):
    """The commutant of this table is not a subalgebra, but it is refused
    before closure matters: its center has the wrong dimension.  Read
    from JSON it is refused where it is built, as not associative."""
    a = unclosed_center()
    with pytest.raises(NotAzumayaError, match="graded center has dimension 4, expected 2"):
        hat_center(a)
    with pytest.raises(AlgebraError, match=re.escape(
            "associativity fails on basis triple (1, 1, 2)")):
        a.validate()
    code, out = run_cli(capsys, tmp_path, ["invariants", "--algebra"], a.to_json())
    assert code == 2
    assert out["error"] == {"type": "AlgebraError",
                            "message": "associativity fails on basis triple (1, 1, 2)"}


@pytest.mark.parametrize("call", [hat_center, bw_class], ids=["hat_center", "bw_class"])
def test_center_generator_square_outside_the_center(call):
    """``m11(Cl(1,0))`` with its cell ``e_1 e_1`` negated keeps its unit and
    grading and has a center of dimension 2, but the square of its
    generator ``z`` is not in ``span{1, z}``: the non-associative table
    is refused by the one elimination of ``hat_center``.  The constructor
    refuses it, so it is built unvalidated."""
    m = m11(clifford(signature_form(1, 0)))
    table = {ij: dict(cell) for ij, cell in m.table.items()}
    assert table[(1, 1)] == {0: 1}
    table[(1, 1)] = {0: -1}
    with pytest.raises(AlgebraError, match="associativity fails"):
        GradedAlgebra(m.field, m.parity, table, m.unit)
    a = unvalidated(m.field, m.parity, table, m.unit)
    with pytest.raises(AlgebraError, match="centralizer failed to close under product"):
        call(a)


@pytest.mark.parametrize("field", FIELDS)
@pytest.mark.parametrize("structure, message", BAD_TRIPLES.values(), ids=BAD_TRIPLES)
def test_cli_refuses_repeated_and_out_of_range_triples_on_stdin(
        capsys, monkeypatch, field, structure, message):
    monkeypatch.setattr(sys, "stdin", io.StringIO(json.dumps(two_basis(field, structure))))
    assert main(["invariants", "--algebra", "-"]) == 2
    assert json.loads(capsys.readouterr().out)["error"] == {
        "type": "AlgebraError", "message": message}
