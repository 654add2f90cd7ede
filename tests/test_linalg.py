from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gradedbrauer.linalg import (Elimination, column_kernel, combine,
                                congruence_diagonal)
from gradedbrauer.scalars import COMPLEX, REAL, GaussianRational, _div
from centralizer_oracle import (dense_nullspace, dense_rank, dense_solve,
                                in_row_span, row_echelon)
from column_kernel_oracle import scan_column_kernel

F = Fraction

small_entries = st.integers(min_value=-6, max_value=6).map(F)


def last_column_depends(columns):
    """Whether the last column is a combination of the columns before it:
    whether the column kernel has a vector at its index."""
    kernel = column_kernel(columns)
    return bool(kernel) and len(columns) - 1 in kernel[-1]


def parts(v):
    return (v.re, v.im) if type(v) is GaussianRational else (v,)


def integral(v):
    """An ``int``, or a ``GaussianRational`` with ``int`` parts."""
    return type(v) is int or type(v) is GaussianRational and \
        type(v.re) is int and type(v.im) is int


def primitive(vectors):
    """Whether the entries are integral with no common factor of all their
    parts."""
    values = [x for vector in vectors for v in vector.values() for x in parts(v)]
    return all(integral(v) for vector in vectors for v in vector.values()) \
        and gcd(*values) == 1


def normalized(combo, field):
    """A primitive kernel vector divided by its entry at its own column,
    the last one, and brought into ``field``: the vector division gives."""
    own = combo[max(combo)]
    return {c: field.coerce(_div(v, own)) for c, v in combo.items()}


def rows_of(matrix):
    """The sparse rows of a dense matrix, zero rows left out."""
    return {i: {j: v for j, v in enumerate(row) if v}
            for i, row in enumerate(matrix) if any(row)}


def test_kernel_of_rank_one_matrix():
    columns = [{0: F(1), 1: F(2), 2: F(-3)}, {0: F(2), 1: F(4), 2: F(-6)}]
    assert [[(k, type(v), v) for k, v in combo.items()] for combo in column_kernel(columns)] \
        == [[(1, int, 1), (0, int, -2)]]


rationals = st.builds(F, st.integers(-6, 6), st.integers(1, 4))


@st.composite
def kernel_inputs(draw):
    """A field and a matrix over it, as dense rows for the references and
    as sparse columns: random, of forced low rank, or zero, with zero rows
    (the empty matrix) or zero columns allowed."""
    field = draw(st.sampled_from((REAL, COMPLEX)))
    if field is REAL:
        entry = rationals
    else:
        entry = st.builds(GaussianRational, rationals, rationals | st.just(F(0)))
    m, n = draw(st.integers(0, 6)), draw(st.integers(0, 6))
    kind = draw(st.sampled_from(("random", "low rank", "zero")))
    if kind == "zero":
        rows = [[field.zero()] * n for _ in range(m)]
    elif kind == "random":
        rows = [[draw(entry) for _ in range(n)] for _ in range(m)]
    else:
        r = draw(st.integers(0, max(0, min(m, n) - 1)))
        left = [[draw(entry) for _ in range(r)] for _ in range(m)]
        right = [[draw(entry) for _ in range(n)] for _ in range(r)]
        rows = [[sum((left[i][k] * right[k][j] for k in range(r)), field.zero())
                 for j in range(n)] for i in range(m)]
    columns = [{i: x for i, x in enumerate(column) if x} for column in zip(*rows)]
    return field, rows, columns


@given(kernel_inputs())
@settings(max_examples=100, deadline=None)
def test_column_kernel_vectors_are_killed(case):
    field, rows, columns = case
    kernel = column_kernel(columns)
    assert len(kernel) == len(columns) - dense_rank(rows)
    for combo in kernel:
        assert combo and primitive([combo]) and combine(combo, columns) == {}


@given(kernel_inputs())
@settings(max_examples=200, deadline=None)
def test_column_kernel_equals_the_dense_back_substitution(case):
    field, rows, columns = case
    want = dense_nullspace(rows, field)
    got = []
    for combo in column_kernel(columns):
        assert primitive([combo])
        vec = [field.zero()] * len(columns)
        for c, x in normalized(combo, field).items():
            vec[c] = x
        got.append(vec)
    assert [[(type(x), x) for x in v] for v in got] == \
        [[(type(x), x) for x in v] for v in want]


@given(kernel_inputs(), st.data())
@settings(max_examples=200, deadline=None)
def test_rank_and_span_equal_the_dense_elimination(case, data):
    """The column kernel gives the dense rank, and with a right-hand side
    appended as a last column it gives dense elimination's solution (the
    one that is zero at every dependent column) or none."""
    field, rows, columns = case
    assert len(columns) - len(column_kernel(columns)) == dense_rank(rows)
    if not rows:
        return
    ncols = len(rows[0])
    # a consistent right-hand side, then an arbitrary one
    target = [data.draw(rationals) for _ in range(ncols)]
    for rhs in ([sum((r[j] * target[j] for j in range(ncols)), field.zero())
                 for r in rows],
                [data.draw(rationals) for _ in rows]):
        want = dense_solve(rows, rhs, field)
        vector = {i: b for i, b in enumerate(rhs) if b}
        kernel = column_kernel(columns + [vector])
        if want is not None:
            assert kernel and primitive(kernel[-1:])
            last = normalized(kernel[-1], field)
            assert last[ncols] == 1
            assert {c: -v for c, v in last.items() if c != ncols} == \
                {c: x for c, x in enumerate(want) if x}
        echelon, pivots = row_echelon([list(r) for r in zip(*rows)] or [[]])
        spanned = in_row_span(echelon, pivots, rhs) if ncols else not any(rhs)
        assert last_column_depends(columns + [vector]) == spanned \
            == (want is not None)


@st.composite
def sparse_columns(draw):
    """Sparse columns over Q or Q(i) on up to 12 rows: most entries are
    absent, so a column touches few pivots, and some columns repeat
    combinations of earlier ones, so some reduce to zero."""
    field = draw(st.sampled_from((REAL, COMPLEX)))
    part = st.one_of(st.just(F(0)), rationals)
    entry = rationals if field is REAL else st.builds(GaussianRational, part, part)
    nrows = draw(st.integers(1, 12))
    columns = []
    for _ in range(draw(st.integers(0, 14))):
        if columns and draw(st.integers(0, 3)) == 0:
            column = {}
            for _ in range(draw(st.integers(1, 3))):
                c = draw(entry)
                if c:
                    _add_into(column, c, draw(st.sampled_from(columns)))
        else:
            rows = draw(st.lists(st.integers(0, nrows - 1), max_size=4, unique=True))
            column = {r: draw(entry) for r in rows}
        columns.append(column)
    return field, columns


def _add_into(target, c, source):
    for k, v in source.items():
        target[k] = target.get(k, 0) + c * v


@given(sparse_columns())
@settings(max_examples=300, deadline=None)
def test_column_kernel_equals_the_scan_of_every_pivot(case):
    """Visiting only the pivots a column touches applies the same pivots
    in the same order: the same basis once each primitive vector is
    divided by its entry at its own column, entry for entry, with the same
    entry types and key order."""
    field, columns = case
    got = column_kernel(columns)
    assert all(primitive([combo]) for combo in got)
    want = scan_column_kernel(columns, field.one())
    assert [[(k, type(v), v) for k, v in normalized(combo, field).items()] for combo in got] \
        == [[(k, type(v), v) for k, v in combo.items()] for combo in want]


@given(sparse_columns())
@settings(max_examples=300, deadline=None)
def test_elimination_adds_one_column_at_a_time(case):
    """The kernel vectors ``add`` returns are the basis of
    :func:`column_kernel`, entry for entry, and of the scan of every pivot
    once divided by their entry at their own column, and ``add`` returns
    ``None`` exactly on the pivot columns of the dense row echelon form."""
    field, columns = case
    elimination = Elimination()
    returned = [elimination.add(column) for column in columns]
    got = [combo for combo in returned if combo is not None]
    assert [[(k, type(v), v) for k, v in combo.items()] for combo in got] == \
        [[(k, type(v), v) for k, v in combo.items()] for combo in column_kernel(columns)]
    assert [[(k, type(v), v) for k, v in normalized(combo, field).items()] for combo in got] \
        == [[(k, type(v), v) for k, v in combo.items()]
            for combo in scan_column_kernel(columns, field.one())]
    nrows = 1 + max((r for column in columns for r in column), default=-1)
    rows = [[column.get(i, field.zero()) for column in columns] for i in range(nrows)]
    pivots = row_echelon(rows)[1] if rows and columns else []
    assert [j for j, combo in enumerate(returned) if combo is None] == pivots
    assert len(elimination.pivots) == len(pivots)


def test_last_column_depends():
    span = [{0: F(1), 2: F(2)}, {1: F(1), 2: F(-1)}]
    assert last_column_depends(span + [{0: F(3), 1: F(1), 2: F(5)}])
    assert last_column_depends(span + [{}])
    assert not last_column_depends(span + [{2: F(1)}])
    assert not last_column_depends([{2: F(1)}])


def signature(rows, n):
    """Inertia ``(positive, negative, zero)`` of an ``n x n`` rational
    matrix, read from its congruence diagonal."""
    diagonal = congruence_diagonal(rows)
    pos = sum(d > 0 for d in diagonal)
    return pos, len(diagonal) - pos, n - len(diagonal)


def test_signature_of_diagonal():
    sym = [[F(2), F(0), F(0)], [F(0), F(-3), F(0)], [F(0), F(0), F(0)]]
    assert signature(rows_of(sym), 3) == (1, 1, 1)


def test_signature_needs_the_off_diagonal_trick():
    # hyperbolic plane: zero diagonal, signature (1, 1, 0)
    sym = [[F(0), F(1)], [F(1), F(0)]]
    assert signature(rows_of(sym), 2) == (1, 1, 0)


def test_signature_off_diagonal_trick_cancels_an_entry():
    # e_0 <- e_0 + e_1 cancels m_02 against m_12; row 2 keeps m_21
    sym = [[F(0), F(1), F(1)], [F(1), F(0), F(-1)], [F(1), F(-1), F(0)]]
    assert signature(rows_of(sym), 3) == (2, 1, 0)


def test_signature_counts_absent_rows_as_zero():
    assert signature({}, 4) == (0, 0, 4)
    assert signature({2: {2: F(-1, 2)}}, 5) == (0, 1, 4)


def test_signature_refuses_an_asymmetric_matrix():
    with pytest.raises(ValueError, match="symmetric"):
        congruence_diagonal({0: {1: F(1)}, 1: {0: F(2)}})


def test_signature_leaves_its_input_alone():
    rows = rows_of([[F(0), F(1), F(2)], [F(1), F(0), F(0)], [F(2), F(0), F(5)]])
    copy = {i: dict(row) for i, row in rows.items()}
    congruence_diagonal(rows)
    assert rows == copy


def congruent(change, sym):
    n = len(sym)
    return [[sum(change[k][i] * sym[k][l] * change[l][j]
                 for k in range(n) for l in range(n))
             for j in range(n)] for i in range(n)]


def invertible(change):
    n = len(change)
    if dense_rank(change) < n:
        for i in range(n):
            change[i][i] += 1  # nudge toward invertibility
    return dense_rank(change) == n


@given(st.integers(1, 4).flatmap(
    lambda n: st.tuples(
        st.lists(st.lists(small_entries, min_size=n, max_size=n),
                 min_size=n, max_size=n),
        st.lists(st.lists(small_entries, min_size=n, max_size=n),
                 min_size=n, max_size=n))))
@settings(max_examples=60, deadline=None)
def test_signature_is_congruence_invariant(pair):
    base, change = pair
    n = len(base)
    sym = [[base[i][j] + base[j][i] for j in range(n)] for i in range(n)]
    if not invertible(change):
        return
    assert signature(rows_of(congruent(change, sym)), n) == signature(rows_of(sym), n)


@given(st.integers(1, 6).flatmap(
    lambda n: st.tuples(
        st.lists(st.sampled_from((F(-2), F(-1, 3), F(0), F(1), F(5, 2))),
                 min_size=n, max_size=n),
        st.lists(st.lists(small_entries, min_size=n, max_size=n),
                 min_size=n, max_size=n))))
@settings(max_examples=100, deadline=None)
def test_signature_is_sylvesters_inertia(pair):
    """``B^T D B`` for an invertible ``B`` has the inertia of the diagonal
    ``D`` (Sylvester's law of inertia), however much the congruence fills
    in, zero diagonals included."""
    diagonal, change = pair
    n = len(diagonal)
    if not invertible(change):
        return
    sym = congruent(change, [[diagonal[i] if i == j else F(0) for j in range(n)]
                             for i in range(n)])
    want = (sum(d > 0 for d in diagonal), sum(d < 0 for d in diagonal),
            sum(d == 0 for d in diagonal))
    assert signature(rows_of(sym), n) == want


gaussians = st.builds(GaussianRational, rationals, rationals)


@st.composite
def gaussian_symmetric(draw):
    """A symmetric ``n x n`` Gaussian matrix: random and sparse, or of
    forced low rank ``L L^T`` (which may be lower still, as ``1 + i^2 =
    0``), with its diagonal zeroed half the time so the ``e_i + e_j``
    step runs."""
    n = draw(st.integers(0, 6))
    zero = COMPLEX.zero()
    if draw(st.booleans()):
        sym = [[zero] * n for _ in range(n)]
        for i in range(n):
            for j in range(i, n):
                sym[i][j] = sym[j][i] = draw(gaussians | st.just(zero))
    else:
        r = draw(st.integers(0, n))
        left = [[draw(gaussians) for _ in range(r)] for _ in range(n)]
        sym = [[sum((left[i][k] * left[j][k] for k in range(r)), zero)
                for j in range(n)] for i in range(n)]
    if draw(st.booleans()):
        for i in range(n):
            sym[i][i] = zero
    return sym


@given(gaussian_symmetric())
@settings(max_examples=200, deadline=None)
def test_congruence_diagonal_rank_is_the_column_kernel_rank_over_c(sym):
    n = len(sym)
    columns = [{i: sym[i][j] for i in range(n) if sym[i][j]} for j in range(n)]
    diagonal = congruence_diagonal(rows_of(sym))
    assert all(diagonal)
    assert len(diagonal) == n - len(column_kernel(columns))


@given(gaussian_symmetric(), st.data())
@settings(max_examples=100, deadline=None)
def test_congruence_diagonal_rank_is_congruence_invariant_over_c(sym, data):
    n = len(sym)
    change = [[data.draw(gaussians) for _ in range(n)] for _ in range(n)]
    if not invertible(change):
        return
    assert len(congruence_diagonal(rows_of(congruent(change, sym)))) == \
        len(congruence_diagonal(rows_of(sym)))
