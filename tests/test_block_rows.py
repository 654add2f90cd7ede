"""Clifford and graded-tensor rows built from whole blocks.

* ``clifford`` at ranks 0-8 over R and C, with seeded, all-one and
  Gaussian entries, equals the naive cell-by-cell construction, cell for
  cell and in JSON, and its rows are the ones computed cell by cell:
  the same targets, the same codes and the same list of values, in the
  order :func:`gradedbrauer.algebra._signed_codes` gives the products.
  These cases reach the full depth of the block recursion, which the
  property tests (rank at most 4) do not.
* ``graded_tensor`` of two monomial tables up to dim 256, zero cells and
  odd x odd Koszul signs included, equals the naive construction, and its
  rows are the ones computed cell by cell; so does ``opposite`` of such
  tables.
* ``clifford`` peaks at little more than the table it keeps, and its
  targets hold one int object per basis index.
"""

import random
import tracemalloc
from fractions import Fraction

import pytest

from gradedbrauer.algebra import _signed_codes, end_graded, graded_tensor, opposite
from gradedbrauer.clifford import DiagonalForm, clifford, signature_form
from gradedbrauer.scalars import COMPLEX, REAL, GaussianRational
from test_shared_scalars import naive_opposite, naive_tensor, same
from test_value_codes import check_layout, naive_clifford

F = Fraction
GAUSSIAN = (GaussianRational(F(0), F(1)), GaussianRational(F(1), F(1)),
            GaussianRational(F(0), F(-1)))


def form_of(kind, field, rank, seed=0):
    """Entries from {+-1, +-2, 3, +-1/2} in a seeded order, all ones, or
    (over C) those mixed with i, 1+i and -i."""
    pool = [1, -1, 2, -2, 3, F(1, 2), F(-1, 2)]
    if kind == "ones":
        return DiagonalForm((1,) * rank, field)
    if kind == "gaussian":
        pool = pool + list(GAUSSIAN)
    rng = random.Random(1000 * seed + rank)
    return DiagonalForm(tuple(rng.choice(pool) for _ in range(rank)), field)


def cell_by_cell_rows(form):
    """``clifford(form).rows`` with each cell computed on its own: the code
    of the product over ``S & T``, negated when an odd number of pairs
    ``s in S, t in T`` have ``s > t``."""
    n, dim = form.rank, 1 << form.rank
    products = [form.field.one()] * dim
    for m in range(1, dim):
        low = m & -m
        products[m] = products[m & (m - 1)] * form.entries[low.bit_length() - 1]
    plus, minus, values = _signed_codes(products)

    def code(s, t):
        swaps = sum(1 for i in range(n) if s >> i & 1 for j in range(i) if t >> j & 1)
        return (minus if swaps % 2 else plus)[s & t]

    return [([s ^ t for t in range(dim)], [code(s, t) for t in range(dim)], values)
            for s in range(dim)]


def cell_by_cell_tensor_rows(a, b):
    """``graded_tensor(a, b).rows`` for monomial ``a`` and ``b``, with each
    cell coded on its own."""
    nb = b.dim
    plus, minus, values = _signed_codes([x * y for x in a.rows[0][2] for y in b.rows[0][2]])
    rows = []
    for targets_a, codes_a, _ in a.rows:
        for p, (targets_b, codes_b, _) in enumerate(b.rows):
            cells = [(k * nb + r if k >= 0 and r >= 0 else -1,
                      (minus if a.parity[j] & b.parity[p] else plus)[x * len(b.rows[0][2]) + y])
                     for j, (k, x) in enumerate(zip(targets_a, codes_a))
                     for r, y in zip(targets_b, codes_b)]
            rows.append(([k for k, _ in cells], [c for _, c in cells], values))
    return rows


def same_rows(got, want):
    """Equal rows: targets, codes, and values of the same types in the same
    order."""
    assert [(t, c) for t, c, _ in got] == [(t, c) for t, c, _ in want]
    values = got[0][2]
    assert values == want[0][2]
    assert [type(v) for v in values] == [type(v) for v in want[0][2]]
    assert all(row[2] is values for row in got)


CLIFFORD_CASES = [(kind, field, rank) for kind, fields in (
    ("seeded", (REAL, COMPLEX)), ("ones", (REAL, COMPLEX)), ("gaussian", (COMPLEX,)))
    for field in fields for rank in range(9)]


@pytest.mark.parametrize("kind, field, rank", CLIFFORD_CASES,
                         ids=[f"{k}-{f.label}-{r}" for k, f, r in CLIFFORD_CASES])
def test_clifford_rows_equal_the_cell_by_cell_construction(kind, field, rank):
    form = form_of(kind, field, rank)
    a = clifford(form)
    same_rows(a.rows, cell_by_cell_rows(form))
    check_layout(a)
    if rank <= 6 or (kind, rank) in (("seeded", 7), ("gaussian", 7)) \
            or (kind, field, rank) in (("seeded", REAL, 8), ("gaussian", COMPLEX, 8)):
        want = naive_clifford(form)
        same(a, want)
        assert a.to_json() == want.to_json()


def monomial_factors(field):
    """Monomial tables of dims 1-16: Clifford algebras with odd generators,
    graded matrix algebras with zero cells, and opposites."""
    factors = [clifford(form_of("seeded", field, rank, seed=7)) for rank in (0, 1, 2, 3, 4)]
    factors += [end_graded(2, 1, field), end_graded(1, 2, field),
                opposite(clifford(form_of("seeded", field, 3, seed=8)))]
    if field is COMPLEX:
        factors.append(clifford(form_of("gaussian", field, 3, seed=9)))
    return factors


# every pair but a graded matrix algebra times another, a table too sparse
# for monomial rows (one cell in nine is nonzero)
TENSOR_PAIRS = [(field, i, j) for field in (REAL, COMPLEX)
                for i in range(len(monomial_factors(field)))
                for j in range(len(monomial_factors(field))) if not {i, j} <= {5, 6}]


@pytest.mark.parametrize("field, i, j", TENSOR_PAIRS,
                         ids=[f"{f.label}-{i}-{j}" for f, i, j in TENSOR_PAIRS])
def test_tensor_rows_equal_the_cell_by_cell_construction(field, i, j):
    factors = monomial_factors(field)
    a, b = factors[i], factors[j]
    got = graded_tensor(a, b)
    assert got.dim <= 256
    same_rows(got.rows, cell_by_cell_tensor_rows(a, b))
    check_layout(got)
    if got.dim <= 64 or (i + j) % 5 == 0:  # every pair is checked row by row above
        want = naive_tensor(a, b)
        same(got, want)
        assert got.to_json() == want.to_json()


def test_the_tensor_factors_have_zero_cells_and_odd_elements():
    for field in (REAL, COMPLEX):
        factors = monomial_factors(field)
        assert [a.dim for a in factors if any(-1 in t for t, _, _ in a.rows)] == [9, 9]
        assert all(any(a.parity) for a in factors if a.dim > 1)


@pytest.mark.parametrize("field", (REAL, COMPLEX), ids=lambda f: f.label)
def test_opposites_of_block_built_tables(field):
    for rank in range(8):
        form = form_of("gaussian" if field is COMPLEX else "seeded", field, rank, seed=3)
        a = clifford(form)
        got = opposite(a)
        check_layout(got)
        if rank <= 6:
            same(got, naive_opposite(naive_clifford(form)))
        else:
            same(got, naive_opposite(a))
    a, b = clifford(form_of("seeded", field, 3, seed=4)), end_graded(2, 1, field)
    for x, y in ((a, b), (b, a)):
        same(opposite(graded_tensor(x, y)), naive_opposite(naive_tensor(x, y)))


# -------------------------------------------------------------- memory

def test_clifford_peaks_at_the_table_it_keeps():
    """Cl(9,0), 262,144 cells: nothing as large as a row table is built
    beside the one returned."""
    form = signature_form(9, 0)
    tracemalloc.start()
    try:
        a = clifford(form)
        kept, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert a.dim == 512
    assert peak <= 1.10 * kept, (peak, kept)


def test_clifford_targets_hold_one_int_per_basis_index():
    a = clifford(signature_form(9, 0))
    assert len({id(k) for targets, _, _ in a.rows for k in targets}) == 512
