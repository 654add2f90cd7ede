"""The shortcuts that reuse scalars and cells, against naive references.

* ``trace_gram`` of a subalgebra read in place (the even part, as
  ``a.degree_indices(0)``) equals it on ``a.even_part()`` built on its
  own, and so do the rank and, over R, the inertia read from its
  congruence diagonal.
* ``linalg._add_scaled`` skips a factor that is the field's shared unit;
  the result equals the one an equal but distinct ``1`` gives, entry for
  entry and in the same key order, and so does ``algebra._mul_into``'s,
  which multiplies every pair of coordinates.  The skip is there for
  ``check_unit_and_grading``: on a unit whose nonzero coordinates are the
  shared 1 it makes no scalar product.
* ``graded_tensor`` and ``opposite`` share scalar objects; they equal
  the naive constructions below, and never write to their inputs.  Each
  unit coordinate equal to 1 they make is the shared unit, and so is each
  value equal to 1 of a tensor of monomial tables.
* ``clifford`` shares one product object per bitmask and sign across its
  rows, and an algebra read from JSON holds one object per value, 1 as
  the shared unit.
"""

import random
from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from gradedbrauer import linalg
from gradedbrauer.algebra import (GradedAlgebra, _mul_into, end_graded,
                                  graded_tensor, is_azumaya, opposite,
                                  trace_gram)
from gradedbrauer.clifford import DiagonalForm, clifford
from gradedbrauer.invariants import bw_class, invariant_triple
from gradedbrauer.scalars import COMPLEX, REAL, GaussianRational
from test_azumaya_oracle import (cl, known_non_azumaya, seeded_algebras,
                                 shuffled, suite_algebras)
from test_centralizer_oracle import transport

F = Fraction


def non_azumaya_variants():
    """Each ``known_non_azumaya()`` input, shuffled and tensored with Cl(1)."""
    rng = random.Random(3)
    out = []
    for a in known_non_azumaya():
        out += [a, shuffled(a, rng), graded_tensor(a, cl(1, 0, a.field))]
    return out


def transported(seed):
    """Seeded dense changes of basis, over R and C: no cell shares a scalar."""
    rng = random.Random(seed)
    sources = [cl(2, 1), cl(0, 3), cl(1, 2, COMPLEX), end_graded(2, 1),
               end_graded(1, 1, COMPLEX),
               clifford(DiagonalForm((F(1, 2), -3, 2), REAL)),
               graded_tensor(cl(1, 0), cl(0, 2))]
    return [transport(a, rng) for a in sources]


def inputs():
    return suite_algebras() + non_azumaya_variants() + transported(1936)


# ------------------------------------------------ subalgebra trace form

def diagonal_form(a, indices=None):
    """The rank of the trace form, and over R its inertia: the length of
    its congruence diagonal, and how many entries are positive."""
    diagonal = linalg.congruence_diagonal(trace_gram(a, indices))
    if a.field is REAL:
        return len(diagonal), sum(d > 0 for d in diagonal)
    return len(diagonal)


def test_even_part_trace_form_read_in_place():
    for a in inputs():
        even = a.degree_indices(0)
        built = a.even_part()
        pos = {old: new for new, old in enumerate(even)}
        in_place = trace_gram(a, even)
        assert {pos[i]: {pos[j]: v for j, v in row.items()}
                for i, row in in_place.items()} == trace_gram(built), repr(a)
        assert diagonal_form(a, even) == diagonal_form(built)


def test_every_index_is_the_whole_trace_form():
    for a in suite_algebras() + transported(1937):
        every = list(range(a.dim))
        assert trace_gram(a, every) == trace_gram(a)
        assert diagonal_form(a, every) == diagonal_form(a)


# ------------------------------------------------------- unit factors

rationals = st.builds(F, st.integers(-5, 5).filter(bool), st.integers(1, 3))


@st.composite
def kernel_case(draw):
    """A field, a scalar strategy over it, and the field's shared unit."""
    field = draw(st.sampled_from((REAL, COMPLEX)))
    if field is REAL:
        entry = rationals
    else:
        entry = st.builds(GaussianRational, rationals, rationals | st.just(F(0)))
    return field, entry


def sparse(draw, entry, size):
    keys = draw(st.lists(st.integers(0, size - 1), max_size=size, unique=True))
    return {k: draw(entry) for k in keys}


def units(field):
    """The shared unit and an equal value that is another object."""
    shared = field.one()
    distinct = F(1) if field is REAL else GaussianRational(1)
    assert distinct == shared and distinct is not shared
    return shared, distinct


def entries(vec):
    return [(k, type(v), v) for k, v in vec.items()]


@given(kernel_case(), st.data())
@settings(max_examples=200, deadline=None)
def test_add_scaled_is_the_same_for_any_unit_object(case, data):
    field, entry = case
    target = sparse(data.draw, entry, 6)
    source = sparse(data.draw, entry, 6)
    results = []
    for factor in units(field):
        out = dict(target)
        linalg._add_scaled(out, factor, source)
        results.append(entries(out))
    assert results[0] == results[1]
    other = data.draw(entry)
    out, want = dict(target), dict(target)
    linalg._add_scaled(out, other, source)
    for k, v in source.items():
        want[k] = want.get(k, field.zero()) + other * v
    assert out == {k: v for k, v in want.items() if v}


@given(kernel_case(), st.data())
@settings(max_examples=100, deadline=None)
def test_mul_into_is_the_same_for_any_unit_object(case, data):
    field, entry = case
    n = 4
    rows = [{} for _ in range(n)]  # a table of row dicts
    for i in range(n):
        for j in range(n):
            cell = sparse(data.draw, entry, n)
            if cell:
                rows[i][j] = cell
    shared, _ = units(field)
    # coordinates are the shared unit, marked None, or other values
    coordinate = st.none() | entry
    x = {k: data.draw(coordinate) for k in data.draw(
        st.lists(st.integers(0, n - 1), max_size=n, unique=True))}
    y = {k: data.draw(coordinate) for k in data.draw(
        st.lists(st.integers(0, n - 1), max_size=n, unique=True))}
    acc = sparse(data.draw, entry, n)
    results = []
    for unit in units(field):
        xs = {k: unit if v is None else v for k, v in x.items()}
        ys = {k: unit if v is None else v for k, v in y.items()}
        out = dict(acc)
        _mul_into(out, rows, xs, ys)
        results.append(entries(out))
    assert results[0] == results[1]
    want = dict(acc)
    for i, xi in x.items():
        for j, yj in y.items():
            f = (shared if xi is None else xi) * (shared if yj is None else yj)
            for k, v in rows[i].get(j, {}).items():
                want[k] = want.get(k, field.zero()) + f * v
    assert {k: v for k, _, v in results[0]} == {k: v for k, v in want.items() if v}


def scalar_products(monkeypatch):
    """Count every call of ``Fraction`` and ``GaussianRational`` ``__mul__``
    and ``__rmul__`` from now on, in the returned list's one entry."""
    calls = [0]
    for cls in (F, GaussianRational):
        for name in ("__mul__", "__rmul__"):
            def counted(*args, _method=getattr(cls, name)):
                calls[0] += 1
                return _method(*args)
            monkeypatch.setattr(cls, name, counted)
    return calls


def test_the_unit_check_makes_no_scalar_product_on_a_shared_unit(monkeypatch):
    """The one skip of the shared unit left, in ``_add_scaled``, is what
    keeps ``check_unit_and_grading`` free of scalar products on library
    tables and on tables read from JSON; a unit with another nonzero
    coordinate is multiplied."""
    shared = [x for field in (REAL, COMPLEX) for x in (
        cl(4, 0, field), end_graded(2, 2, field),
        graded_tensor(cl(1, 0, field), cl(0, 2, field)), opposite(cl(3, 0, field)),
        GradedAlgebra.from_json(cl(3, 0, field).to_json()))]
    rng = random.Random(7)
    moved = [transport(cl(2, 1, field), rng) for field in (REAL, COMPLEX)]
    for a in moved:
        assert any(u and u != 1 for u in a.unit)
    calls = scalar_products(monkeypatch)
    for a in shared:
        a.check_unit_and_grading()
        assert calls == [0], repr(a)
    for a in moved:
        before = calls[0]
        a.check_unit_and_grading()
        assert calls[0] > before, repr(a)


# ------------------------------------------------------ constructors

def naive_tensor(a, b):
    """``a (x) b`` cell by cell, every product computed afresh."""
    nb = b.dim
    table = {}
    for (i, j), cell_a in a.table.items():
        for (p, q), cell_b in b.table.items():
            sign = -1 if a.parity[j] and b.parity[p] else 1
            table[(i * nb + p, j * nb + q)] = {
                k * nb + r: sign * (x * y)
                for k, x in cell_a.items() for r, y in cell_b.items()}
    parity = [pa ^ pb for pa in a.parity for pb in b.parity]
    unit = [x * y for x in a.unit for y in b.unit]
    return GradedAlgebra(a.field, parity, table, unit)


def naive_opposite(a):
    table = {(j, i): {k: -v if a.parity[i] and a.parity[j] else v
                      for k, v in cell.items()}
             for (i, j), cell in a.table.items()}
    return GradedAlgebra(a.field, a.parity, table, a.unit)


def snapshot(a):
    """Every cell's entries, in order; scalars are immutable."""
    return [(ij, list(cell.items())) for ij, cell in a.table.items()]


def same(got, want):
    """Equal algebras, with the same cell order, key order and scalar types."""
    assert got == want
    assert list(got.table) == list(want.table)
    for ij, cell in got.table.items():
        assert entries(cell) == entries(want.table[ij])
    assert [type(u) for u in got.unit] == [type(u) for u in want.unit]


def tensor_pairs():
    rng = random.Random(1964)
    small = [a for a in inputs() if a.dim <= 8]
    pairs = [(rng.choice(small), rng.choice(small)) for _ in range(40)]
    pairs = [(a, b) for a, b in pairs if a.field is b.field]
    pairs += [(cl(3, 0), cl(1, 3)), (cl(2, 1, COMPLEX), end_graded(1, 1, COMPLEX))]
    return pairs


def test_graded_tensor_equals_the_naive_construction():
    pairs = tensor_pairs()
    assert len(pairs) > 20
    for a, b in pairs:
        before = snapshot(a), snapshot(b)
        same(graded_tensor(a, b), naive_tensor(a, b))
        assert (snapshot(a), snapshot(b)) == before


def unshared(a):
    """``a`` rebuilt by hand with a new scalar object for every entry of
    its row dicts, or for every value of its monomial rows (whose cells
    share one object per value through their codes), and of its unit,
    stored without the constructor's checks."""
    def fresh(v):
        return F(v.numerator, v.denominator) if a.field is REAL \
            else GaussianRational(v.re, v.im)

    if type(a.rows[0]) is dict:
        rows = [{j: {k: fresh(v) for k, v in cell.items()} for j, cell in row.items()}
                for row in a.rows]
    else:
        values = [fresh(v) for v in a.rows[0][2]]
        rows = [(list(targets), list(codes), values) for targets, codes, _ in a.rows]
    return GradedAlgebra._trusted(a.field, a.parity, rows, tuple(map(fresh, a.unit)))


def test_tensor_of_factors_that_share_no_scalars():
    """Factors that hold a new object per value, none of them the
    original's or the shared unit, give a product that still holds at
    most one object per (value of a, value of b, sign)."""
    for a, b in [(clifford(DiagonalForm((F(1, 2), -3, 2), REAL)),
                  clifford(DiagonalForm((1, -2), REAL))),
                 (cl(1, 2, COMPLEX), end_graded(1, 1, COMPLEX))]:
        old = {id(v) for x in (a, b) for v in x.rows[0][2]}
        a, b = unshared(a), unshared(b)
        values = [[v for cell in x.table.values() for v in cell.values()]
                  for x in (a, b)]
        assert all(len({id(v) for v in vs}) == len(set(vs)) for vs in values)
        assert not old & {id(v) for vs in values for v in vs}
        assert not any(v is a.field.one() for vs in values for v in vs)
        t = graded_tensor(a, b)
        same(t, naive_tensor(a, b))
        objects = {id(v) for cell in t.table.values() for v in cell.values()}
        assert len(objects) <= 2 * len(set(values[0])) * len(set(values[1]))


def test_every_one_is_the_shared_unit():
    """Every unit coordinate equal to 1 in a tensor product or an opposite
    *is* the field's shared unit, by which the unit check does not
    multiply; also for factors whose entries are all new objects.  An
    algebra read from JSON holds the shared unit in its cells and its unit."""
    def cells(a):
        return [v for cell in a.table.values() for v in cell.values()]

    def ones(a):
        return [v for v in cells(a) + list(a.unit) if v == 1]

    def shared(a, found):
        assert found and all(v is a.field.one() for v in found), repr(a)

    def unit_ones(a):
        shared(a, [u for u in a.unit if u == 1])

    pairs = [(cl(3, 0), cl(0, 4)), (cl(2, 1), cl(1, 1)),
             (clifford(DiagonalForm((F(1, 2), -3, 2), REAL)), cl(0, 2)),
             (cl(1, 2, COMPLEX), end_graded(1, 1, COMPLEX))]
    for a, b in pairs:
        for x in (a, b):
            read = GradedAlgebra.from_json(x.to_json())
            shared(read, ones(read))
        fresh = [unshared(x) for x in (a, b)]
        assert not any(v is x.field.one() for x in fresh for v in ones(x))
        for left, right in [(a, b), (fresh[0], b), (a, fresh[1]), tuple(fresh)]:
            product = graded_tensor(left, right)
            unit_ones(product)
            unit_ones(opposite(product))
    for a in [cl(2, 1), cl(0, 3), cl(1, 2, COMPLEX), end_graded(2, 1)]:
        unit_ones(opposite(a))


def test_tensor_values_equal_to_one_are_the_shared_unit():
    """A tensor of two monomial tables, built a block at a time, holds its
    value 1 as the field's shared unit, so that the unit check compares
    the cells ``e_0 e_j`` with ``{j: one}`` by identity, with no scalar
    ``__eq__``; also for factors whose values are all new objects."""
    for field in (REAL, COMPLEX):
        one = field.one()
        for a, b in [(cl(2, 1, field), cl(1, 1, field)),
                     (cl(3, 0, field), end_graded(1, 1, field))]:
            for left, right in [(a, b), (unshared(a), unshared(b))]:
                targets, codes, values = graded_tensor(left, right).rows[0]
                assert [v is one for v in values if v == 1] == [True]
                assert all(values[c] is one for k, c in zip(targets, codes) if k >= 0)


def test_opposite_equals_the_naive_construction():
    for a in inputs():
        before = snapshot(a)
        op = opposite(a)
        same(op, naive_opposite(a))
        assert opposite(op) == a
        assert snapshot(a) == before


def test_shared_cells_are_never_written():
    """Classifying, certifying and validating an opposite (which shares
    ``a``'s unflipped cells) and a tensor product leaves ``a`` as it was."""
    for a in (cl(2, 1), cl(3, 0), end_graded(2, 1), cl(1, 2, COMPLEX)):
        before = snapshot(a)
        for b in (opposite(a), graded_tensor(a, cl(1, 0, a.field))):
            invariant_triple(b)
            bw_class(b)
            assert is_azumaya(b)
            b.validate()
        assert snapshot(a) == before


def test_clifford_shares_one_product_per_bitmask_and_sign():
    for form in (DiagonalForm((F(1, 2), -3, 2, -1, 3), REAL),
                 DiagonalForm((1,) * 6, REAL),
                 DiagonalForm((GaussianRational(0, 1), 2, -1), COMPLEX)):
        a = clifford(form)
        scalars = [v for cell in a.table.values() for v in cell.values()]
        assert len({id(v) for v in scalars}) <= 2 * a.dim
        assert any(v is form.field.one() for v in scalars)
        assert all(v is form.field.one() for v in scalars if v == 1)


def test_an_algebra_read_from_json_holds_one_object_per_value():
    for a in (clifford(DiagonalForm((F(1, 2), -3, 2, -1), REAL)),
              end_graded(2, 1), cl(1, 2, COMPLEX)):
        read = GradedAlgebra.from_json(a.to_json())
        scalars = [v for cell in read.table.values() for v in cell.values()]
        scalars += [u for u in read.unit if u]
        assert read == a
        assert len({id(v) for v in scalars}) == len(set(scalars))
        assert all(v is a.field.one() for v in scalars if v == 1)


def test_seeded_products_equal_the_naive_construction():
    for a in seeded_algebras(seed=11, count=12):
        b = cl(1, 1, a.field)
        same(graded_tensor(a, b), naive_tensor(a, b))
        same(opposite(a), naive_opposite(a))
