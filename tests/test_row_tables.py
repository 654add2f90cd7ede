"""The structure table stored by row, sized to its data.

* For every constructor, ``a.table`` is a read-only ``{(i, j): {k: c}}``
  mapping equal to the dict of dicts rebuilt from ``basis_product``, in
  row-major order; the rows are monomial (targets, and codes into a list
  of values that every row shares) exactly when every cell holds one term
  and one cell in eight at least is nonzero, and row dicts otherwise.
* A monomial algebra and the same algebra after a homogeneous change of
  basis that makes its cells multi-term get the same ``invariant_triple``,
  ``is_azumaya`` and ``validate`` verdicts.
* The term budget refuses a tensor product and JSON input above
  ``MAX_TERMS`` before building anything, and admits every library input.
"""

import copy
import json
import random
import time
from fractions import Fraction

import pytest

from gradedbrauer import algebra
from gradedbrauer.algebra import (MAX_TERMS, AlgebraError, GradedAlgebra,
                                  _quadratic, end_graded, graded_tensor,
                                  ground_algebra, is_azumaya, opposite)
from gradedbrauer.cli import main
from gradedbrauer.clifford import DiagonalForm, clifford, relabel, signature_form
from gradedbrauer.invariants import bw_class, invariant_triple
from gradedbrauer.scalars import COMPLEX, REAL, GaussianRational
from associativity_oracle import unvalidated
from test_azumaya_oracle import cl, known_non_azumaya
from test_centralizer_oracle import transport

F = Fraction


def moved(a, seed=3):
    """``a`` after a seeded dense homogeneous change of basis."""
    return transport(a, random.Random(seed))


CONSTRUCTORS = {
    "clifford": lambda: clifford(DiagonalForm((F(1, 2), -3, 2), REAL)),
    "clifford over C": lambda: clifford(DiagonalForm((GaussianRational(0, 1), 2), COMPLEX)),
    "end_graded": lambda: end_graded(2, 1),
    "end_graded over C": lambda: end_graded(1, 2, COMPLEX),
    "end_graded, sparse": lambda: end_graded(5, 4),
    "graded_tensor, sparse": lambda: graded_tensor(end_graded(2, 1), end_graded(1, 2)),
    "GradedAlgebra, sparse": lambda: GradedAlgebra.from_json(m2_power(4)),
    "graded_tensor": lambda: graded_tensor(cl(1, 0), end_graded(1, 1)),
    "graded_tensor over C": lambda: graded_tensor(cl(1, 1, COMPLEX), cl(1, 0, COMPLEX)),
    "opposite": lambda: opposite(cl(2, 1)),
    "relabel": lambda: relabel(cl(2, 0), [2, 0, 3, 1]),
    "ground_algebra": lambda: ground_algebra(REAL),
    "ground_algebra over C": lambda: ground_algebra(COMPLEX),
    "_quadratic": lambda: _quadratic(REAL, 1, F(-1)),
    "_quadratic over C": lambda: _quadratic(COMPLEX, 0, COMPLEX.one()),
    "even_part": lambda: cl(3, 0).even_part(),
    "GradedAlgebra, one term per cell": lambda: GradedAlgebra.from_json(cl(1, 2).to_json()),
    "GradedAlgebra, multi-term cells": lambda: moved(cl(2, 0)),
    "GradedAlgebra, multi-term cells over C": lambda: moved(cl(1, 1, COMPLEX)),
    "graded_tensor, multi-term": lambda: graded_tensor(moved(cl(1, 0)), cl(0, 1)),
    "opposite, multi-term": lambda: opposite(moved(cl(2, 1))),
    "relabel, multi-term": lambda: relabel(moved(cl(2, 0)), [3, 1, 0, 2]),
    "even_part, multi-term": lambda: moved(cl(3, 0)).even_part(),
}


def m2_power(n):
    """The JSON of ``M_2^n``, the product of ``n`` copies of the 2 x 2
    matrices: one term per cell, and ``8n`` nonzero cells among ``16n**2``."""
    return {"field": "R", "parity": [0] * 4 * n, "unit": ["1", "0", "0", "1"] * n,
            "structure": [[4 * c + 2 * i + j, 4 * c + 2 * j + k, 4 * c + 2 * i + k, "1"]
                          for c in range(n) for i in range(2) for j in range(2)
                          for k in range(2)]}


def rebuilt(a):
    """The nonzero products ``e_i e_j``, read one by one through
    ``basis_product``, as a dict of dicts."""
    return {(i, j): cell for i in range(a.dim) for j in range(a.dim)
            if (cell := a.basis_product(i, j))}


@pytest.mark.parametrize("name", CONSTRUCTORS)
def test_the_table_view_is_the_dict_of_dicts(name):
    a = CONSTRUCTORS[name]()
    want = rebuilt(a)
    view = a.table
    assert view == want and want == view
    assert dict(view.items()) == want
    assert len(view) == len(want)
    assert list(view) == sorted(want)  # row-major
    assert list(view.values()) == [want[ij] for ij in sorted(want)]
    for ij, cell in want.items():
        assert ij in view and view[ij] == cell and view.get(ij) == cell
    for ij in [(a.dim, 0), (0, a.dim), (-1, 0), (0, -1), (0,), (0, 0, 0), "ab", (0.5, 0)]:
        assert ij not in view and view.get(ij) is None
        with pytest.raises(KeyError):
            view[ij]
    with pytest.raises(TypeError):
        view[(0, 0)] = {0: a.field.one()}  # read-only
    monomial = all(len(cell) == 1 for cell in want.values()) \
        and 8 * len(want) >= a.dim ** 2
    assert {type(row) for row in a.rows} == {tuple if monomial else dict}


@pytest.mark.parametrize("name", CONSTRUCTORS)
def test_the_view_keeps_no_copy_and_a_copy_shares_the_rows(name):
    a = CONSTRUCTORS[name]()
    assert "table" not in GradedAlgebra.__slots__
    b = copy.copy(a)
    assert b.rows is a.rows and b == a and b.table == a.table


def decoded(rows):
    """Monomial rows as lists of targets and of coefficients, with
    ``None`` for the coefficient of a zero cell, whose code is never read."""
    return [(targets, [values[c] if k >= 0 else None for k, c in zip(targets, codes)])
            for targets, codes, values in rows]


def test_one_term_json_is_stored_in_monomial_rows():
    for a in (clifford(signature_form(2, 1)), clifford(DiagonalForm((F(1, 2), -3, 2), REAL)),
              graded_tensor(cl(1, 1, COMPLEX), cl(1, 0, COMPLEX))):
        read = GradedAlgebra.from_json(a.to_json())
        assert all(type(row) is tuple and row[2] is read.rows[0][2] for row in read.rows)
        assert read == a and decoded(read.rows) == decoded(a.rows)


# --------------------------------------------------- the two kinds agree

def outcome(f, a):
    """``f(a)``, or the type of the exception it raises."""
    try:
        return f(a)
    except AlgebraError as exc:
        return type(exc)


def flipped(a, i, j):
    """``a`` with the sign of the one-term cell ``e_i e_j`` flipped, built
    unvalidated: the constructor refuses a non-associative table."""
    table = {ij: dict(cell) for ij, cell in a.table.items()}
    ((k, c),) = table[(i, j)].items()
    table[(i, j)] = {k: -c}
    return unvalidated(a.field, a.parity, table, a.unit)


def pairs():
    """Monomial algebras and their dense transports, whose cells hold
    several terms: Azumaya, not Azumaya, and not associative."""
    sources = [cl(2, 1), cl(0, 3), cl(1, 2, COMPLEX), end_graded(2, 1),
               end_graded(1, 1, COMPLEX), graded_tensor(cl(1, 0), cl(0, 2)),
               opposite(cl(3, 0)), flipped(cl(0, 2), 1, 2),
               flipped(cl(1, 1, COMPLEX), 3, 3)]
    sources += [a for a in known_non_azumaya()
                if all(type(row) is tuple for row in a.rows)]
    rng = random.Random(2002)
    for a in sources:
        b = transport(a, rng)
        if all(type(row) is dict for row in b.rows):  # else too small to mix
            yield a, b


def test_monomial_and_row_dict_tables_give_the_same_verdicts():
    seen = set()
    for count, (a, b) in enumerate(pairs(), 1):
        assert {type(row) for row in a.rows} == {tuple}
        verdicts = [[outcome(f, x) for f in (invariant_triple, bw_class, is_azumaya,
                                             GradedAlgebra.validate)]
                    for x in (a, b)]
        assert verdicts[0] == verdicts[1], repr(a)
        seen.add(verdicts[0][3])
    assert seen == {None, AlgebraError}  # some pass validate, some fail
    assert count >= 12


def test_monomial_validate_reports_the_first_failing_triple():
    for a in (flipped(cl(0, 2), 1, 2), flipped(cl(2, 1), 5, 6)):
        with pytest.raises(AlgebraError) as mono:
            a.validate()
        with pytest.raises(AlgebraError) as dicts:
            rows = [{j: cell for j in range(a.dim) if (cell := a.table.get((i, j)))}
                    for i in range(a.dim)]
            GradedAlgebra._trusted(a.field, a.parity, rows, a.unit).validate()
        assert "associativity fails on basis triple" in str(mono.value)
        assert str(mono.value) == str(dicts.value)


# ---------------------------------------------------------- term budget

def dense_factor(seed):
    """A densely transported Cl(3,2): dim 32, about 16,000 terms."""
    return transport(clifford(signature_form(3, 2)), random.Random(seed))


def terms(a):
    return sum(map(len, a.table.values()))


def test_a_tensor_above_the_term_budget_is_refused_before_it_is_built():
    a, b = dense_factor(1), dense_factor(2)
    ta, tb = terms(a), terms(b)
    assert min(ta, tb) > 15_000 and a.dim * b.dim <= algebra.MAX_DIM
    start = time.perf_counter()
    with pytest.raises(AlgebraError) as refused:
        graded_tensor(a, b)
    assert time.perf_counter() - start < 1
    assert str(refused.value) == (
        f"graded tensor product of dimensions 32 and 32 has {ta * tb} structure "
        f"constants, above the term budget MAX_TERMS = {MAX_TERMS}")


def test_cli_tensor_above_the_term_budget_exits_two(capsys, tmp_path):
    paths = []
    for seed in (1, 2):
        paths.append(tmp_path / f"dense{seed}.json")
        paths[-1].write_text(json.dumps(dense_factor(seed).to_json()))
    start = time.perf_counter()
    code = main(["tensor", *map(str, paths)])
    assert time.perf_counter() - start < 1
    error = json.loads(capsys.readouterr().out)["error"]
    assert code == 2 and error["type"] == "AlgebraError"
    assert error["message"].endswith(f"above the term budget MAX_TERMS = {MAX_TERMS}")


def test_library_inputs_fit_the_term_budget():
    """Cl(10), the largest supported input, holds exactly ``MAX_TERMS``
    one-term cells, and so does any tensor product of Clifford factors of
    total rank 10."""
    assert MAX_TERMS == 4 ** 10
    t = graded_tensor(cl(2, 2), cl(3, 2))  # dim 512
    assert terms(t) == 4 ** 9 and bw_class(t) == 1


@pytest.mark.parametrize("structure, count", [
    ([[0, 0, 0, "1"], [0, 1, 1, "1"], [1, 0, 1, "1"], [1, 1, 0, "1"]], 4),
    ([[["1", "0"], ["0", "1"]], [["0", "1"], ["1", "0"]]], 8),  # dense: dim**3
])
def test_json_above_the_term_budget_is_refused(monkeypatch, structure, count):
    doc = {"field": "R", "parity": [0, 1], "structure": structure}
    assert GradedAlgebra.from_json(doc) == cl(1, 0)
    monkeypatch.setattr(algebra, "MAX_TERMS", count - 1)
    with pytest.raises(AlgebraError) as refused:
        GradedAlgebra.from_json(doc)
    assert str(refused.value) == (
        f"algebra read from JSON has {count} structure constants, above the "
        f"term budget MAX_TERMS = {count - 1}")
