"""Monomial rows hold value codes: ``(targets, codes, values)``.

* Every ``table`` view of a Clifford algebra of a diagonal form, its
  tensor products and its opposites equals a naive per-cell
  construction; every code indexes ``values``, which holds each value
  once, every coefficient of the table, and otherwise only negations of
  coefficients; 1 is the field's shared unit.
* ``to_json`` renders each value once, and its JSON is the one rendered
  cell by cell.
* The integral image shares the target and code lists of its algebra
  and allocates no table of its own.
* Nothing run on an algebra (the classification, the certificates, its
  tensor square and its opposite) writes to the lists it shares with
  its image, its tensors or its opposites: its terms and their scalar
  types stay as they were.
"""

import json
import tracemalloc
from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from gradedbrauer.algebra import (AlgebraError, GradedAlgebra, _integral, _terms,
                                  graded_centralizer, graded_tensor, is_azumaya,
                                  opposite)
from gradedbrauer.clifford import DiagonalForm, clifford, signature_form
from gradedbrauer.invariants import bw_class
from gradedbrauer.scalars import COMPLEX, REAL, Field, GaussianRational
from test_azumaya_oracle import cl, known_non_azumaya, suite_algebras
from test_shared_scalars import naive_opposite, naive_tensor, same

F = Fraction


def monomial(a):
    return type(a.rows[0]) is tuple


def naive_clifford(form):
    """``clifford(form)`` cell by cell through the checked constructor:
    ``e_S e_T`` is the product of the entries in ``S & T``, negated when
    an odd number of pairs ``s in S, t in T`` have ``s > t``."""
    n, entries, one = form.rank, form.entries, form.field.one()
    dim = 1 << n
    table = {}
    for s in range(dim):
        for t in range(dim):
            swaps = sum(1 for i in range(n) if s >> i & 1 for j in range(i) if t >> j & 1)
            c = one
            for i in range(n):
                if (s & t) >> i & 1:
                    c = c * entries[i]
            table[(s, t)] = {s ^ t: -c if swaps % 2 else c}
    parity = [bin(s).count("1") % 2 for s in range(dim)]
    return GradedAlgebra(form.field, parity, table, [1] + [0] * (dim - 1))


def check_layout(a):
    """The value-coded layout of a monomial table."""
    values = a.rows[0][2]
    assert all(type(row) is tuple and len(row) == 3 and row[2] is values for row in a.rows)
    assert all(len(targets) == len(codes) == a.dim for targets, codes, _ in a.rows)
    assert all(0 <= c < len(values) for _, codes, _ in a.rows for c in codes)
    assert len(set(values)) == len(values)
    coefficients = {c for *_, c in _terms(a.rows)}
    assert coefficients <= set(values)
    assert all(v in coefficients or -v in coefficients for v in values)
    one = a.field.one()
    scalar = type(one)
    assert all(type(v) is scalar for v in values)


entries = st.sampled_from([1, -1, 2, -2, 3, -3, F(1, 2), F(-1, 2)])


@st.composite
def coded_algebras(draw):
    """A Clifford algebra of a diagonal form of rank at most 4 over R or
    C, perhaps tensored with another (dim at most 64), perhaps the
    opposite of that; and its naive construction."""
    field = draw(st.sampled_from((REAL, COMPLEX)))
    form = DiagonalForm(tuple(draw(st.lists(entries, max_size=4))), field)
    a, want = clifford(form), naive_clifford(form)
    if draw(st.booleans()):
        other = DiagonalForm(tuple(draw(st.lists(entries, max_size=6 - form.rank))), field)
        b, naive_b = clifford(other), naive_clifford(other)
        if draw(st.booleans()):
            a, b, want, naive_b = b, a, naive_b, want
        a, want = graded_tensor(a, b), naive_tensor(want, naive_b)
    if draw(st.booleans()):
        a, want = opposite(a), naive_opposite(want)
    return a, want


@given(coded_algebras())
@settings(max_examples=60, deadline=None)
def test_coded_rows_equal_the_naive_construction(case):
    a, want = case
    same(a, want)
    assert monomial(a)
    check_layout(a)
    image = _integral(a)
    assert len(set(image.rows[0][2])) == len(image.rows[0][2])
    assert all(row[2] is image.rows[0][2] for row in image.rows)


def test_library_monomial_tables_are_value_coded():
    coded = [a for a in suite_algebras() + known_non_azumaya() if monomial(a)]
    assert len(coded) > 40
    for a in coded:
        check_layout(a)
        check_layout(opposite(a))


# ---------------------------------------------------------------- JSON

def test_to_json_renders_each_value_once(monkeypatch):
    a = clifford(signature_form(6, 0))
    cells = [{j: cell for j in range(a.dim) if (cell := a.table.get((i, j)))}
             for i in range(a.dim)]
    by_cell = json.dumps(GradedAlgebra._trusted(a.field, a.parity, cells, a.unit).to_json())
    calls = []
    render = Field.render
    monkeypatch.setattr(Field, "render", lambda self, v: calls.append(v) or render(self, v))
    assert json.dumps(a.to_json()) == by_cell
    assert len(calls) <= len(a.rows[0][2]) + a.dim
    assert len(list(_terms(a.rows))) == 4096


# --------------------------------------------------------------- image

def test_the_image_shares_the_target_and_code_lists():
    coded = [a for a in suite_algebras() if monomial(a)]
    assert len(coded) > 40
    for a in coded:
        image = _integral(a)
        assert len(image.rows) == a.dim
        for mine, theirs in zip(image.rows, a.rows):
            assert mine[0] is theirs[0] and mine[1] is theirs[1]
            assert mine[2] is image.rows[0][2] and mine[2] is not theirs[2]


def test_the_image_allocates_no_table():
    """Cl(9,0): 262,144 cells; the image is 512 tuples and one list of
    values."""
    a = clifford(signature_form(9, 0))
    tracemalloc.start()
    try:
        _integral(a)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 128 * 1024


# ------------------------------------------------------------ aliasing

def snapshot(a):
    """Every term and the type of every scalar, of its parts too."""
    terms = list(_terms(a.rows))
    types = [(type(c), type(c.re), type(c.im)) if type(c) is GaussianRational
             else type(c) for *_, c in terms]
    return terms, types


def attempt(f, *args):
    try:
        return f(*args)
    except AlgebraError:
        return None


def test_nothing_writes_to_shared_rows():
    sources = suite_algebras() + known_non_azumaya()
    algebras = sources + [opposite(a) for a in sources] \
        + [graded_tensor(a, cl(1, 0, a.field)) for a in sources if a.dim <= 16]
    for a in algebras:
        before = snapshot(a)
        scalar = Fraction if a.field is REAL else GaussianRational
        assert all(t is scalar or t == (scalar, Fraction, Fraction) for t in before[1])
        attempt(bw_class, a)
        is_azumaya(a)
        a.validate()
        attempt(graded_centralizer, a, [(a.basis_vector(i), 0) for i in a.degree_indices(0)])
        if a.dim <= 16:
            attempt(bw_class, graded_tensor(a, a))
        b = opposite(a)
        attempt(bw_class, b)
        is_azumaya(b)
        assert snapshot(a) == before, repr(a)
