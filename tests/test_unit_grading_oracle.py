"""``GradedAlgebra.check_unit_and_grading`` against the cell loop in
``unit_grading_oracle``, and what it costs on monomial rows.

On monomial rows the library reads a one-term unit off the targets and
codes of its row and column, and the grading off each row's targets
whole; any other unit, row dicts and every failure take the cell loop.
Both sides must give the same verdict and the same message on each
table of the standing perturbation sweep, on every one-term cell of the
small suite algebras retargeted to an index of the wrong parity, on
monomial tables whose unit is broken, and on graded matrix, Clifford,
tensor and opposite tables over R and C.  The tables are built as the
constructor builds them but without its own check (:class:`Unchecked`),
so that a table it refuses reaches both sides.

On Clifford algebras and their tensors and opposites the check makes no
``_cell`` call, no ``_terms`` walk and no scalar product, and Light's
test no ``_cell`` call.
"""

from collections import Counter

import pytest

from gradedbrauer import verify
from gradedbrauer.algebra import (AlgebraError, GradedAlgebra, end_graded, graded_tensor,
                                  opposite)
from gradedbrauer.scalars import COMPLEX, REAL
from test_associativity_oracle import (as_row_dicts, associativity_calls,
                                       standing_perturbations)
from test_azumaya_oracle import cl, gaussian_images, suite_algebras
from test_shared_scalars import scalar_products
from unit_grading_oracle import cell_loop_check


class Unchecked(GradedAlgebra):
    """``GradedAlgebra(...)`` without the constructor's :meth:`validate`,
    neither the unit and grading check nor Light's test: the rows and the
    unit are stored as it stores them."""

    __slots__ = ()

    def validate(self) -> None:
        pass


def verdict(check, a):
    """The message of the ``AlgebraError`` ``check(a)`` raises, or ``None``."""
    try:
        check(a)
    except AlgebraError as exc:
        return str(exc)
    return None


def assert_same(a):
    """The library and the cell loop agree on ``a``; returns the verdict."""
    want = verdict(cell_loop_check, a)
    assert verdict(GradedAlgebra.check_unit_and_grading, a) == want, (a, want)
    return want


def table_of(a):
    return {ij: dict(cell) for ij, cell in a.table.items()}


def monomial(a):
    return type(a.rows[0]) is tuple


def test_standing_perturbation_sweep():
    """Each of the 1,498 tables of the sweep, the 488 the constructor
    refuses among them."""
    tables = list(standing_perturbations(Unchecked))
    verdicts = Counter(assert_same(b) is None for b in tables)
    assert (len(tables), verdicts[False]) == (1498, 488)
    assert all(map(monomial, tables))


def test_cells_retargeted_to_the_wrong_parity():
    """Every one-term cell of the suite algebras of dimension at most 8,
    sent to each index of the other parity: each table is refused, by the
    unit where the cell is one of its products, by the grading otherwise,
    and with the same message when its rows are row dicts."""
    seen = Counter()
    for a in suite_algebras():
        if a.dim > 8:
            continue
        table = table_of(a)
        for ij, cell in table.items():
            if len(cell) != 1:
                continue
            (k, v), = cell.items()
            for wrong in range(a.dim):
                if a.parity[wrong] != a.parity[k]:
                    b = Unchecked(a.field, a.parity, {**table, ij: {wrong: v}}, a.unit)
                    message = assert_same(b)
                    assert message is not None and monomial(b), (a, ij, wrong)
                    assert verdict(GradedAlgebra.check_unit_and_grading,
                                   as_row_dicts(b)) == message, (a, ij, wrong)
                    seen[message.split()[0]] += 1
    assert seen == {"unit": 716, "product": 1820}


def monomial_algebras(field):
    return [a for a in suite_algebras() + gaussian_images() if monomial(a) and a.field is field] \
        + [cl(3, 2, field), graded_tensor(cl(2, 1, field), cl(1, 1, field)),
           opposite(cl(2, 3, field)), end_graded(2, 2, field)]


def broken_units(a):
    """``a`` with its unit doubled; and for a one-term unit ``u e_s``, the
    unit moved to each other even index, given a second even term there,
    and each cell of row ``s`` and of column ``s`` negated in turn."""
    table, two = table_of(a), a.field.coerce(2)
    yield Unchecked(a.field, a.parity, table, [two * u for u in a.unit])
    support = [i for i, u in enumerate(a.unit) if u]
    if len(support) != 1:
        return
    (s,), u = support, a.unit[support[0]]
    for other in a.degree_indices(0):
        if other != s:
            moved = [a.field.zero()] * a.dim
            moved[other] = u
            yield Unchecked(a.field, a.parity, table, moved)
            moved[s] = u
            yield Unchecked(a.field, a.parity, table, moved)
    for ij in [(s, j) for j in range(a.dim)] + [(j, s) for j in range(a.dim)]:
        yield Unchecked(a.field, a.parity,
                        {**table, ij: {k: -v for k, v in table[ij].items()}}, a.unit)


@pytest.mark.parametrize("field", [REAL, COMPLEX], ids=["R", "C"])
def test_broken_units(field):
    """Every broken unit of every monomial table is refused, by both sides
    alike, and stays monomial."""
    count = 0
    for a in monomial_algebras(field):
        assert assert_same(a) is None, a
        for b in broken_units(a):
            assert monomial(b), b
            assert assert_same(b).startswith("unit fails on basis element "), b
            count += 1
    assert count == (1588 if field is REAL else 646)


@pytest.mark.parametrize("field", [REAL, COMPLEX], ids=["R", "C"])
def test_library_tables_pass_both(field):
    algebras = [end_graded(k, k, field) for k in range(1, 5)]
    algebras += [cl(p, q, field) for p in range(5) for q in range(5 - p)]
    algebras += [graded_tensor(cl(2, 1, field), cl(1, 1, field)),
                 graded_tensor(end_graded(2, 1, field), cl(1, 0, field)),
                 opposite(cl(3, 1, field)), opposite(end_graded(2, 2, field))]
    for a in algebras:
        assert assert_same(a) is None, a


def clifford_family(field):
    """Cl(n,0) for n = 4..9, a tensor and the opposite of each."""
    out = []
    for n in range(4, 10):
        out += [cl(n, 0, field), graded_tensor(cl(n - 2, 0, field), cl(0, 2, field)),
                opposite(cl(n, 0, field))]
    return out


@pytest.mark.parametrize("field", [REAL, COMPLEX], ids=["R", "C"])
def test_clifford_checks_make_no_cell_no_walk_and_no_product(monkeypatch, field):
    """The unit and grading check reads targets and codes only, and Light's
    test on the integral image makes no ``_cell`` call."""
    algebras = clifford_family(field)
    assert all(map(monomial, algebras))
    calls = Counter()

    def counted(name, function):
        def call(*args):
            calls[name] += 1
            return function(*args)
        return call

    monkeypatch.setattr(verify, "_cell", counted("_cell", verify._cell))
    monkeypatch.setattr(verify, "_terms", counted("_terms", verify._terms))
    products = scalar_products(monkeypatch)
    for a in algebras:
        a.check_unit_and_grading()
    assert products == [0] and not calls
    monkeypatch.undo()
    for a in algebras:
        assert associativity_calls(monkeypatch, a)["_cell"] == 0, a
