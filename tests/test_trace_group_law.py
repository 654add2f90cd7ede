"""``trace_gram``'s group-law read against the trace form by definition
(``trace_oracle``), what the read and the diagonal return of
``congruence_diagonal`` cost, and the refusals at construction that make
the read exact: associativity, and the work budget ``MAX_WORK`` that
bounds Light's test.

The read takes one Gram entry per row of a monomial table with a
one-term unit whose row and column are the identity; every other table
takes the scan of targets.  Both must give the oracle's dicts.
"""

import io
import json
import random
import sys
from collections import Counter
from fractions import Fraction as F

import pytest

from gradedbrauer import algebra, linalg
from gradedbrauer.algebra import (AlgebraError, GradedAlgebra, _integral, end_graded,
                                  graded_tensor, opposite, trace_gram)
from gradedbrauer.cli import main
from gradedbrauer.scalars import COMPLEX, REAL
from associativity_oracle import unvalidated
from test_associativity_oracle import rescaled
from test_azumaya_oracle import cl, gaussian_images, suite_algebras
from test_centralizer_oracle import moved_table, transport
from trace_oracle import trace_gram_by_definition

FIELDS = (REAL, COMPLEX)


class Counted(list):
    """A list that counts its subscript reads under ``name`` in ``reads``;
    ``index``, ``==`` and iteration are not counted."""

    def __init__(self, items, reads, name):
        super().__init__(items)
        self.reads, self.name = reads, name

    def __getitem__(self, index):
        self.reads[self.name] += 1
        return super().__getitem__(index)


def counted(a):
    """``a`` on monomial rows whose targets and shared values count their
    subscript reads, and the counter."""
    reads = Counter()
    values = Counted(a.rows[0][2], reads, "values")
    rows = [(Counted(t, reads, "targets"), codes, values) for t, codes, _ in a.rows]
    return GradedAlgebra._trusted(a.field, a.parity, rows, a.unit), reads


def read_taken(a, indices=None):
    """Whether ``trace_gram(a, indices)`` took the group-law read: it reads
    column ``s`` of the targets by subscript and no other target."""
    b, reads = counted(a)
    assert trace_gram(b, indices) == trace_gram(a, indices)
    return reads["targets"] == a.dim


def assert_oracle(a):
    """``trace_gram`` of ``a`` and of its integral image, whole and on the
    even part, equals the trace form by definition; returns how many of
    the four took the read."""
    taken = 0
    for b in (a, _integral(a)):
        for indices in (None, a.degree_indices(0)):
            assert trace_gram(b, indices) == trace_gram_by_definition(b, indices), (a, indices)
            taken += type(b.rows[0]) is tuple and read_taken(b, indices)
    return taken


def group_law_algebras():
    """Clifford algebras, their tensors, opposites and rescalings (many
    distinct values) and Gaussian images, at R and C."""
    out = suite_algebras() + gaussian_images()
    for field in FIELDS:
        out += [graded_tensor(cl(2, 1, field), cl(1, 1, field)), opposite(cl(2, 3, field)),
                graded_tensor(opposite(cl(0, 2, field)), cl(1, 2, field))]
        out += [rescaled(cl(p, 1, field), [F(i + 2, i + 1) for i in range(2 ** (p + 1))])
                for p in (2, 4)]
    return out


def test_the_read_gives_the_trace_form_by_definition():
    """On 70 algebras, each whole and on its even part, and on its
    integral image: 236 of the 280 Gram matrices take the read.  The
    other 11 algebras, graded matrix algebras and (1|1)-stabilizations,
    have units of several terms."""
    assert sum(map(assert_oracle, group_law_algebras())) == 236


@pytest.mark.parametrize("field", FIELDS)
def test_other_tables_take_the_scan_and_give_the_trace_form_by_definition(field):
    """Graded matrix algebras have units of several terms; a Clifford
    table whose declared unit is moved to ``e_1`` has no identity row
    there, and the read would pair ``e_i`` with ``e_{i xor 1}``; a zero
    cell ``e_3 e_3`` (``e_1 e_2`` squared) leaves the even row 3 without the
    unit's index."""
    tables = [end_graded(k, k, field) for k in range(1, 5)]
    one, zero = field.one(), field.zero()
    for a in (cl(2, 1, field), cl(1, 3, field), graded_tensor(cl(1, 1, field), cl(0, 2, field))):
        tables.append(GradedAlgebra._trusted(field, a.parity, a.rows,
                                             (zero, one) + (zero,) * (a.dim - 2)))
        t, codes, values = a.rows[3]
        rows = [*a.rows]
        rows[3] = ([-1 if j == 3 else k for j, k in enumerate(t)], codes, values)
        tables.append(GradedAlgebra._trusted(field, a.parity, rows, a.unit))
    for a in tables:
        assert type(a.rows[0]) is tuple
        for indices in (None, a.degree_indices(0)):
            assert trace_gram(a, indices) == trace_gram_by_definition(a, indices), (a, indices)
            assert not read_taken(a, indices), (a, indices)


def group_law_families():
    """Doubling families: Cl(n,0), Cl(n-2,0) (x) Cl(1,1) and Cl(n,0)^op for
    n = 4..9, dims 16..512."""
    return {"Cl(n,0)": [cl(n, 0) for n in range(4, 10)],
            "tensor": [graded_tensor(cl(n - 2, 0), cl(1, 1)) for n in range(4, 10)],
            "opposite": [opposite(cl(n, 0)) for n in range(4, 10)]}


@pytest.mark.parametrize("family", ["Cl(n,0)", "tensor", "opposite"])
def test_the_read_costs_one_product_a_row(monkeypatch, family):
    """``trace_gram`` of the image reads row ``s``'s values once for the
    trace and one value per row for its product, so at most two values
    per index kept, and column ``s`` of the targets alone;
    ``congruence_diagonal`` of its Gram makes no ``_primitive`` call.
    Each count at most doubles from one size to the next, as the
    dimension does (the scan's target reads quadruple)."""
    primitive = Counter()
    original = linalg._primitive

    def spy(*vectors):
        primitive["calls"] += 1
        return original(*vectors)

    monkeypatch.setattr(linalg, "_primitive", spy)
    for indices_of in (lambda a: None, lambda a: a.degree_indices(0)):
        previous = None
        for a in group_law_families()[family]:
            image, reads = counted(_integral(a))
            indices = indices_of(a)
            gram = trace_gram(image, indices)
            kept = a.dim if indices is None else len(indices)
            assert reads["values"] <= 2 * kept and reads["targets"] == a.dim, (a, reads)
            if previous is not None:
                assert all(reads[name] <= 2 * previous[name] for name in reads), (a, reads)
            previous = reads
            assert len(linalg.congruence_diagonal(gram)) == kept
            assert primitive["calls"] == 0, a


def test_a_diagonal_gram_is_its_own_congruence_diagonal():
    rows = {0: {0: F(3, 2)}, 2: {2: -4}, 3: {}, 5: {5: F(-1, 3)}}
    assert linalg.congruence_diagonal(rows) == [F(3, 2), -4, F(-1, 3)]


# ------------------------------------------- refused where they are built

def group_targets_broken(field):
    """Even, dim 3, every value 1, unit ``e_0`` and targets ``[[0, 1, 2],
    [1, 1, 0], [2, 0, 2]]``: every row holds the unit's index, yet it is
    no group law, for the table is not associative."""
    targets = [[0, 1, 2], [1, 1, 0], [2, 0, 2]]
    return ((0, 0, 0), {(i, j): {k: 1} for i, row in enumerate(targets)
                        for j, k in enumerate(row)}, (1, 0, 0))


def flipped_cl02(field):
    """Cl(0,2) with the sign of ``e_1 e_2`` flipped, so ``e_1 e_2 = e_2 e_1``."""
    a = cl(0, 2, field)
    table = {ij: dict(cell) for ij, cell in a.table.items()}
    ((k, c),) = table[(1, 2)].items()
    table[(1, 2)] = {k: -c}
    return a.parity, table, a.unit


@pytest.mark.parametrize("field", FIELDS)
@pytest.mark.parametrize("make", [group_targets_broken, flipped_cl02],
                         ids=["dim-3 targets", "flipped Cl(0,2)"])
def test_non_associative_tables_are_refused_where_they_are_built(capsys, monkeypatch,
                                                                 tmp_path, field, make):
    """Through the constructor, ``from_json`` and every CLI command that
    reads a table, each exiting 2 with ``validate``'s message."""
    message = "associativity fails on basis triple (1, 1, 2)"
    parity, table, unit = make(field)
    with pytest.raises(AlgebraError) as built:
        GradedAlgebra(field, parity, table, unit)
    doc = unvalidated(field, parity, table, unit).to_json()
    with pytest.raises(AlgebraError) as read:
        GradedAlgebra.from_json(doc)
    assert str(built.value) == str(read.value) == message
    path = tmp_path / "table.json"
    path.write_text(json.dumps(doc))
    for argv in (["invariants", "--algebra", "-"], ["azumaya", "--algebra", "-"],
                 ["centralizer", "--algebra", "-"], ["tensor", str(path), "ground"],
                 ["tensor", "ground", str(path)]):
        monkeypatch.setattr(sys, "stdin", io.StringIO(json.dumps(doc)))
        assert main(argv + ["--field", field.label]) == 2, argv
        assert json.loads(capsys.readouterr().out) == {
            "error": {"type": "AlgebraError", "message": message}}, argv


def test_the_read_is_exact_only_on_associative_tables():
    """Built unvalidated, the dim-3 table's rows all hold ``s``, and the
    read pairs each row with one column where the definition fills the
    Gram: the constructor's refusal is what keeps it from the read."""
    a = unvalidated(REAL, *group_targets_broken(REAL))
    assert trace_gram_by_definition(a) == {0: {0: 3, 1: 1, 2: 1}, 1: {0: 1, 1: 1, 2: 3},
                                           2: {0: 1, 1: 3, 2: 1}}
    assert trace_gram(a) == {0: {0: 3}, 1: {2: 3}, 2: {1: 3}}


# ------------------------------------------------------------ work budget

def work(table):
    """Structure constants times the most in one cell."""
    sizes = [len(cell) for cell in table.values()]
    return sum(sizes) * max(sizes)


@pytest.mark.parametrize("field", FIELDS)
def test_a_table_over_the_work_budget_is_refused_where_it_is_built(capsys, monkeypatch, field):
    """A dense change of basis of Cl(2,1), dim 8, under ``MAX_WORK``
    lowered to one below its work, is refused through the constructor,
    ``from_json`` and CLI ``invariants``, and ``from_json`` stops reading
    its triples as soon as the work read passes the budget; at its work
    exactly it is built."""
    a = transport(cl(2, 1, field), random.Random(31))
    table = {ij: dict(cell) for ij, cell in a.table.items()}
    doc = a.to_json()
    read = [0]

    class Structure(list):  # counts the triples read
        def __iter__(self):
            for entry in super().__iter__():
                read[0] += 1
                yield entry

    monkeypatch.setattr(algebra, "MAX_WORK", work(table) - 1)
    budget = f"above the work budget MAX_WORK = {work(table) - 1}"
    with pytest.raises(AlgebraError, match=budget):
        GradedAlgebra(field, a.parity, table, a.unit)
    with pytest.raises(AlgebraError, match=budget):
        GradedAlgebra.from_json({**doc, "structure": Structure(doc["structure"])})
    assert read[0] == len(doc["structure"])  # the work passes the budget at the last triple
    monkeypatch.setattr(algebra, "MAX_WORK", work(table) // 4)
    read[0] = 0
    with pytest.raises(AlgebraError, match="MAX_WORK"):
        GradedAlgebra.from_json({**doc, "structure": Structure(doc["structure"])})
    assert read[0] <= len(doc["structure"]) // 2
    monkeypatch.setattr(sys, "stdin", io.StringIO(json.dumps(doc)))
    assert main(["invariants", "--algebra", "-"]) == 2
    assert "above the work budget MAX_WORK" in json.loads(capsys.readouterr().out)["error"]["message"]
    monkeypatch.setattr(algebra, "MAX_WORK", work(table))
    assert GradedAlgebra(field, a.parity, table, a.unit) == a


def test_the_work_budget_admits_rank_10_and_dense_dimension_64():
    """Cl(10,0) holds 2**20 one-term cells; a dense change of basis of
    Cl(6,0) about 4.2 million, whose ``validate`` takes seconds."""
    assert 4 ** 10 <= algebra.MAX_WORK
    table, _ = moved_table(cl(6, 0), random.Random(6))
    assert 4_000_000 < work(table) <= algebra.MAX_WORK
