from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gradedbrauer.linalg import in_span, nullspace, rank, signature, solve
from gradedbrauer.scalars import COMPLEX, REAL, GaussianRational
from centralizer_oracle import (dense_nullspace, dense_rank, dense_solve,
                                in_row_span, row_echelon)

F = Fraction

small_entries = st.integers(min_value=-6, max_value=6).map(F)


def matrices(max_side=5):
    return st.integers(1, max_side).flatmap(
        lambda m: st.integers(1, max_side).flatmap(
            lambda n: st.lists(
                st.lists(small_entries, min_size=n, max_size=n),
                min_size=m, max_size=m)))


def mat_mul_vec(rows, vec):
    return [sum(r[j] * vec[j] for j in range(len(vec))) for r in rows]


def test_rank_of_rank_one_matrix():
    rows = [[F(1), F(2)], [F(2), F(4)], [F(-3), F(-6)]]
    assert rank(rows) == 1


@given(matrices())
@settings(max_examples=60, deadline=None)
def test_nullspace_vectors_are_killed(rows):
    n = len(rows[0])
    basis = nullspace(rows, REAL)
    assert len(basis) == n - rank(rows)
    for vec in basis:
        assert mat_mul_vec(rows, vec) == [0] * len(rows)


rationals = st.builds(F, st.integers(-6, 6), st.integers(1, 4))


@st.composite
def kernel_inputs(draw):
    """A field and a matrix over it: random, of forced low rank, or zero,
    with zero rows (the empty matrix) or zero columns allowed."""
    field = draw(st.sampled_from((REAL, COMPLEX)))
    if field is REAL:
        entry = rationals
    else:
        entry = st.builds(GaussianRational, rationals, rationals | st.just(F(0)))
    m, n = draw(st.integers(0, 6)), draw(st.integers(0, 6))
    kind = draw(st.sampled_from(("random", "low rank", "zero")))
    if kind == "zero":
        return field, [[field.zero()] * n for _ in range(m)]
    if kind == "random":
        return field, [[draw(entry) for _ in range(n)] for _ in range(m)]
    r = draw(st.integers(0, max(0, min(m, n) - 1)))
    left = [[draw(entry) for _ in range(r)] for _ in range(m)]
    right = [[draw(entry) for _ in range(n)] for _ in range(r)]
    return field, [[sum((left[i][k] * right[k][j] for k in range(r)), field.zero())
                    for j in range(n)] for i in range(m)]


@given(kernel_inputs())
@settings(max_examples=200, deadline=None)
def test_nullspace_equals_the_dense_back_substitution(case):
    field, rows = case
    want = dense_nullspace(rows, field)
    got = nullspace(rows, field)
    assert [[(type(x), x) for x in v] for v in got] == \
        [[(type(x), x) for x in v] for v in want]


@given(kernel_inputs(), st.data())
@settings(max_examples=200, deadline=None)
def test_rank_solve_and_span_equal_the_dense_elimination(case, data):
    field, rows = case
    assert rank(rows) == dense_rank(rows)
    if not rows:
        return
    ncols = len(rows[0])
    # a consistent right-hand side, then an arbitrary one
    target = [data.draw(rationals) for _ in range(ncols)]
    for rhs in ([sum((r[j] * target[j] for j in range(ncols)), field.zero())
                 for r in rows],
                [data.draw(rationals) for _ in rows]):
        want = dense_solve(rows, rhs, field)
        assert solve(rows, rhs, field) == want
        echelon, pivots = row_echelon([list(r) for r in zip(*rows)] or [[]])
        spanned = in_row_span(echelon, pivots, rhs) if ncols else not any(rhs)
        columns = [{i: r[j] for i, r in enumerate(rows) if r[j]} for j in range(ncols)]
        vector = {i: b for i, b in enumerate(rhs) if b}
        assert in_span(columns, vector, field.one()) == spanned == (want is not None)


@given(matrices())
@settings(max_examples=60, deadline=None)
def test_solve_round_trip(rows):
    n = len(rows[0])
    target = [F(i % 3 - 1) for i in range(n)]
    rhs = mat_mul_vec(rows, target)
    x = solve(rows, rhs, REAL)
    assert x is not None
    assert mat_mul_vec(rows, x) == rhs


def test_solve_detects_inconsistency():
    rows = [[F(1), F(1)], [F(2), F(2)]]
    assert solve(rows, [F(1), F(3)], REAL) is None


def test_in_span():
    span = [{0: F(1), 2: F(2)}, {1: F(1), 2: F(-1)}]
    assert in_span(span, {0: F(3), 1: F(1), 2: F(5)}, 1)
    assert in_span(span, {}, 1)
    assert not in_span(span, {2: F(1)}, 1)
    assert not in_span([], {2: F(1)}, 1)


def test_signature_of_diagonal():
    sym = [[F(2), F(0), F(0)], [F(0), F(-3), F(0)], [F(0), F(0), F(0)]]
    assert signature(sym) == (1, 1, 1)


def test_signature_needs_the_off_diagonal_trick():
    # hyperbolic plane: zero diagonal, signature (1, 1, 0)
    sym = [[F(0), F(1)], [F(1), F(0)]]
    assert signature(sym) == (1, 1, 0)


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
    if rank(change) < n:
        for i in range(n):
            change[i][i] += 1  # nudge toward invertibility
        if rank(change) < n:
            return
    transformed = [[sum(change[k][i] * sym[k][l] * change[l][j]
                        for k in range(n) for l in range(n))
                    for j in range(n)] for i in range(n)]
    assert signature(transformed) == signature(sym)
