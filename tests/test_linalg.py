from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gradedbrauer.linalg import (in_row_span, nullspace, rank, row_echelon,
                                 signature, solve)
from gradedbrauer.scalars import REAL

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


def test_row_echelon_pivots_are_one():
    rows = [[F(2), F(4)], [F(1), F(3)]]
    ech, pivots = row_echelon(rows)
    assert pivots == [0, 1]
    for r, c in enumerate(pivots):
        assert ech[r][c] == 1


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


def test_in_row_span():
    ech, pivots = row_echelon([[F(1), F(0), F(2)], [F(0), F(1), F(-1)]])
    assert in_row_span(ech, pivots, [F(3), F(1), F(5)])
    assert not in_row_span(ech, pivots, [F(0), F(0), F(1)])


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
