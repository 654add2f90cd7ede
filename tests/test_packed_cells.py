"""The row-dict checks of ``GradedAlgebra.validate`` on cells packed into
ints, against the cell-by-cell oracles.

On an integral image whose row dicts hold ``int`` constants in cells
dense enough to pack, ``_cell_ints`` packs each cell ``{k: c}`` into ``sum
c 2**(w k)``: the unit check sums ``den u_i`` times whole cells, and
Light's test compares ``(e_i e_j) e_k`` with ``e_i (e_j e_k)`` as one int
for each ``k``.  On
seeded tables with large and negative constants, cells that cancel to
zero, one perturbed cell, a wrong unit and a cell of the wrong parity,
``validate`` must give the message of ``unit_grading_oracle.cell_loop_check``
and otherwise name the triple ``associativity_oracle.light_order_triple``
names, refusing exactly the tables ``first_failing_triple`` refuses.  One
hand-built table sits at the edge of the slot width ``w``: its two sides
differ by ``2**(w - 1)`` at one slot and ``-1`` at the next, which packed
one bit narrower carry into equal ints.

On an associative table of this kind ``validate`` adds no sparse vector
outside the generator search: no dict compare, no unit cell loop and no
``_terms`` walk.  A Gaussian image still takes the dict compare, and so
do sparse cells of wide slots, which would take many times the image's
memory packed; a table of the wrong grading is refused before any image
is built.
"""

import random
from collections import Counter
from fractions import Fraction

import pytest

from gradedbrauer import linalg, verify
from gradedbrauer.algebra import AlgebraError, GradedAlgebra, _cell, _integral, end_graded
from gradedbrauer.verify import _cell_ints, _light_generators
from gradedbrauer.scalars import REAL
from associativity_oracle import first_failing_triple, light_order_triple, unvalidated
from test_associativity_oracle import rescaled, sheared
from test_azumaya_oracle import cl, dense_gaussian_transport
from test_centralizer_oracle import transport
from unit_grading_oracle import cell_loop_check

F = Fraction
PREFIX = "associativity fails on basis triple "


def int_rows(a):
    """The integral image of a real-valued ``a`` as row dicts of ``int``
    constants, stored as the image is, without any check."""
    image = _integral(a)
    rows = [{j: dict(cell) for j in range(a.dim) if (cell := _cell(row, j))}
            for row in image.rows]
    assert all(type(c) is int for row in rows for cell in row.values() for c in cell.values())
    return GradedAlgebra._trusted(REAL, a.parity, rows, image.unit)


def with_cell(a, ij, cell):
    """``a`` with cell ``ij`` replaced, as row dicts, without any check."""
    rows = [{j: dict(c) for j, c in row.items()} for row in a.rows]
    rows[ij[0]][ij[1]] = cell
    return GradedAlgebra._trusted(a.field, a.parity, rows, a.unit)


def verdict(check, a):
    try:
        check(a)
    except AlgebraError as exc:
        return str(exc)
    return None


def assert_same(a, cubic=True, packed=True):
    """``validate`` on a fresh copy of ``a`` against the oracles; returns
    its message.  ``cubic`` asks ``first_failing_triple`` too, which takes
    every triple on an associative table; ``packed`` says whether the
    image's cells are packed."""
    assert type(a.rows[0]) is dict and (_cell_ints(_integral(a)) is not None) == packed
    want = verdict(cell_loop_check, a)
    if want is None:
        triple = light_order_triple(a)
        want = None if triple is None else PREFIX + str(triple)
        if cubic or triple is not None:
            assert (first_failing_triple(a) is None) == (triple is None), a
    fresh = GradedAlgebra._trusted(a.field, a.parity, a.rows, a.unit)
    assert verdict(GradedAlgebra.validate, fresh) == want, (a, want)
    return want


def cancelling_cells(a):
    """The ``(i, j, k)`` of Light's compare whose ``(e_i e_j) e_k`` sums
    nonzero products of a cell of two terms or more to zero."""
    table, found = a.table, []
    for j in _light_generators(a):
        for i in range(a.dim):
            cell = table.get((i, j), {})
            for k in range(a.dim) if len(cell) > 1 else ():
                products = [(m, b * c) for t, b in cell.items()
                            for m, c in table.get((t, k), {}).items()]
                total = Counter()
                for m, v in products:
                    total[m] += v
                if products and not any(total.values()):
                    found.append((i, j, k))
    return found


def seeded_tables():
    """Associative int row-dict tables: dense transports, a diagonal
    rescaling by large negative ints, and sheared graded matrices."""
    rng = random.Random(2026)
    return [int_rows(transport(cl(2, 1), rng)), int_rows(transport(cl(1, 3), rng)),
            int_rows(transport(end_graded(2, 1), rng)),
            int_rows(rescaled(cl(0, 4), [-(2 ** 70 + 1) * (1 + i % 3) for i in range(16)])),
            int_rows(sheared(end_graded(2, 1), 0, 4)), int_rows(sheared(end_graded(3, 0), 0, 4))]


def test_the_seeded_tables_are_large_negative_and_cancel():
    tables = seeded_tables()
    constants = [c for a in tables for row in a.rows for cell in row.values()
                 for c in cell.values()]
    assert max(constants) > 2 ** 64 and min(constants) < -2 ** 64
    assert sum(1 for a in tables if cancelling_cells(a)) == 2
    for a in tables:
        assert assert_same(a) is None, a


def test_one_perturbed_cell():
    """One constant of each table moved by ``+-1``, and one cell given a
    term, each where the unit is zero on both factors, so that only
    associativity can fail."""
    rng, refused = random.Random(33), 0
    for a in seeded_tables():
        cells = [(i, j) for i, row in enumerate(a.rows) for j in row
                 if not a.unit[i] and not a.unit[j]]
        for i, j in rng.sample(cells, 4):
            cell = dict(a.rows[i][j])
            k = rng.choice(sorted(cell))
            cell[k] += rng.choice((-1, 1))
            refused += assert_same(with_cell(a, (i, j), cell), cubic=False) is not None
        i, j = rng.choice(cells)
        k = rng.choice([k for k in range(a.dim) if a.parity[k] == a.parity[i] ^ a.parity[j]])
        cell = dict(a.rows[i][j])
        cell[k] = cell.get(k, 0) + 3
        refused += assert_same(with_cell(a, (i, j), cell), cubic=False) is not None
    assert refused == 30


def test_a_wrong_unit_and_a_wrong_parity():
    """The unit doubled, one of its coordinates moved, and one cell
    ``e_j e_s`` with ``u_s != 0 = u_j`` given a term, which breaks ``e_j u``
    alone; then a term of the wrong parity where the unit is zero on both
    factors."""
    rng, messages = random.Random(34), Counter()
    for a in seeded_tables():
        support = [i for i, u in enumerate(a.unit) if u]
        i = rng.choice(support)
        for unit in ([2 * u for u in a.unit],
                     [u + F(1, 5) if n == i else u for n, u in enumerate(a.unit)]):
            messages[assert_same(GradedAlgebra._trusted(a.field, a.parity, a.rows, tuple(unit)),
                                 cubic=False).split()[0]] += 1
        j, s = rng.choice([n for n in range(a.dim) if not a.unit[n]]), rng.choice(support)
        cell = dict(a.rows[j].get(s, {}))  # e_j e_s: only e_j u moves, not u e_j
        cell[j] = cell.get(j, 0) + 1
        messages[assert_same(with_cell(a, (j, s), cell), cubic=False).split()[0]] += 1
        if a.dim_odd:
            i, j = rng.choice([(i, j) for i, row in enumerate(a.rows) for j in row
                               if not a.unit[i] and not a.unit[j]])
            k = rng.choice([k for k in range(a.dim)
                            if a.parity[k] != a.parity[i] ^ a.parity[j]])
            messages[assert_same(with_cell(a, (i, j), {**a.rows[i][j], k: 1}),
                                 cubic=False).split()[0]] += 1
    assert messages == {"unit": 18, "product": 5}


def carry_table():
    """A unital table, all even, that fails associativity on ``(1, 1, 1)``
    alone: ``x = e_1`` with ``x x = sum b_r y_r`` over ``y_r = e_{2+r}``,
    ``y_r x = a_r z_0 + a'_r z_1`` and ``x y_r = c_r z_0 + c'_r z_1`` at
    ``z_0, z_1 = e_8, e_9``, every other product of two of these zero.
    ``(x x) x - x (x x) = sum b_r (a_r - c_r) z_0 + sum b_r (a'_r - c'_r) z_1
    = 2048 z_0 - z_1``.  With ``dim = 10`` and ``M = 14``, ``dim M**2 =
    1960`` gives ``w = 12``: ``2048 = 2**(w - 1)``, and in slots of 11 bits
    ``2048 * 2**(11 * 8) - 2**(11 * 9)`` is zero."""
    b = [14, 14, 14, 14, 14, 11]
    a = [(14, -2), (14, 0), (14, 0), (14, 0), (14, 0), (4, 3)]
    c = [(-14, 2), (-14, 0), (-14, 0), (-14, 0), (-14, 0), (-4, -2)]
    table = {(0, i): {i: 1} for i in range(10)}
    table.update({(i, 0): {i: 1} for i in range(1, 10)})
    table[(1, 1)] = {2 + r: br for r, br in enumerate(b)}
    for r in range(6):
        table[(2 + r, 1)] = {8: a[r][0], 9: a[r][1]}
        table[(1, 2 + r)] = {8: c[r][0], 9: c[r][1]}
    table = {ij: {k: v for k, v in cell.items() if v} for ij, cell in table.items()}
    return unvalidated(REAL, (0,) * 10, table, (1,) + (0,) * 9)


def test_a_difference_that_one_bit_less_would_carry_away():
    a = carry_table()
    image = _integral(a)
    w = _cell_ints(image)[0]
    assert w == 12
    table, x, y = image.table, {}, {}  # (x x) x and x (x x)
    for t, b in table[(1, 1)].items():
        for k, v in table[(t, 1)].items():
            x[k] = x.get(k, 0) + b * v
        for k, v in table[(1, t)].items():
            y[k] = y.get(k, 0) + b * v
    assert {k: x[k] - y[k] for k in x} == {8: 2 ** (w - 1), 9: -1}
    assert (x[8] << (w - 1) * 8) + (x[9] << (w - 1) * 9) \
        == (y[8] << (w - 1) * 8) + (y[9] << (w - 1) * 9)
    assert first_failing_triple(a) == light_order_triple(a) == (1, 1, 1)
    assert assert_same(a) == PREFIX + "(1, 1, 1)"
    assert assert_same(int_rows(a)) == PREFIX + "(1, 1, 1)"


def validate_calls(monkeypatch, a):
    """Calls made by ``validate`` on a fresh copy of ``a``: ``_add_scaled``
    and ``_cell`` outside ``_light_generators``, and ``_terms``."""
    calls, depth = Counter(), [0]
    generators = verify._light_generators

    def searched(self):
        depth[0] += 1
        try:
            return generators(self)
        finally:
            depth[0] -= 1

    def counted(name, function):
        def call(*args):
            if not depth[0]:
                calls[name] += 1
            return function(*args)
        return call

    monkeypatch.setattr(verify, "_light_generators", searched)
    monkeypatch.setattr(linalg, "_add_scaled", counted("_add_scaled", linalg._add_scaled))
    monkeypatch.setattr(verify, "_cell", counted("_cell", verify._cell))
    monkeypatch.setattr(verify, "_terms", counted("_terms", verify._terms))
    GradedAlgebra._trusted(a.field, a.parity, a.rows, a.unit).validate()
    monkeypatch.undo()
    return calls


@pytest.mark.parametrize("make", [
    lambda: transport(cl(3, 1), random.Random(8)), lambda: end_graded(6, 6),
    lambda: int_rows(sheared(end_graded(2, 1), 0, 4)),
], ids=["dense Cl(3,1)", "End(6|6)", "sheared End(2|1)"])
def test_int_row_dicts_take_no_dict_compare_cell_loop_or_walk(monkeypatch, make):
    a = make()
    assert type(a.rows[0]) is dict and _cell_ints(_integral(a)) is not None
    assert validate_calls(monkeypatch, a) == Counter()


def test_a_gaussian_image_still_takes_the_dict_compare(monkeypatch):
    a = dense_gaussian_transport()
    assert type(a.rows[0]) is dict and _cell_ints(_integral(a)) is None
    calls = validate_calls(monkeypatch, a)
    assert calls["_add_scaled"] > 0 and calls["_cell"] > 0 and calls["_terms"] == 0


def test_sparse_cells_of_wide_slots_keep_the_dict_compare(monkeypatch):
    """Cl(0,4) rescaled by negated ~10**12 rationals: one-term cells whose
    image constants take about 990 bits, so each cell would pack into
    ``w (max k + 1)``, 8.5 slots of 1,975 bits a term, eight times what the
    image holds.  The cells stay dicts, and ``validate`` still agrees with
    the oracles, on the table and with one constant moved."""
    big = [F(10 ** 12 + 7 * i + 1, 3 ** i + 2) for i in range(16)]
    a = int_rows(rescaled(cl(0, 4), [-s for s in big]))
    assert assert_same(a, packed=False) is None
    calls = validate_calls(monkeypatch, a)
    assert calls["_add_scaled"] > 0 and calls["_terms"] == 0
    rng, refused = random.Random(35), 0
    cells = [(i, j) for i, row in enumerate(a.rows) for j in row
             if not a.unit[i] and not a.unit[j]]
    for i, j in rng.sample(cells, 4):
        (k, c), = a.rows[i][j].items()
        refused += assert_same(with_cell(a, (i, j), {k: c + 1}), cubic=False,
                               packed=False) is not None
    assert refused == 4


def test_a_wrong_grading_is_refused_before_the_image_is_built(monkeypatch):
    """A term of the wrong parity: ``validate`` gives the oracle's message,
    the unit's failure first when both fail, and builds no image; nor does
    ``check_unit_and_grading`` called alone on a table that passes."""
    a = seeded_tables()[0]
    fresh = GradedAlgebra._trusted(a.field, a.parity, a.rows, a.unit)
    fresh.check_unit_and_grading()
    assert fresh._image is None
    i, j = next((i, j) for i, row in enumerate(a.rows) for j in row
                if not a.unit[i] and not a.unit[j])
    k = next(k for k in range(a.dim) if a.parity[k] != a.parity[i] ^ a.parity[j])
    wrong = with_cell(a, (i, j), {**a.rows[i][j], k: 1})
    both = GradedAlgebra._trusted(wrong.field, wrong.parity, wrong.rows,
                                  tuple(2 * u for u in wrong.unit))
    built = []
    monkeypatch.setattr(verify, "_integral", lambda b: built.append(b))
    for b, first in ((wrong, "product"), (both, "unit")):
        fresh = GradedAlgebra._trusted(b.field, b.parity, b.rows, b.unit)
        message = verdict(GradedAlgebra.validate, fresh)
        assert message == verdict(cell_loop_check, b) and message.split()[0] == first
    assert built == []
