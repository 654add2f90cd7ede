"""Light's associativity test in ``GradedAlgebra.validate`` against the
cubic loop in ``associativity_oracle``, and the sparse unit solve against
the dense one.

``validate`` checks ``(e_i e_j) e_k = e_i (e_j e_k)`` only for ``j`` in a
set of generators; the oracle checks every triple.  They must agree on
whether an algebra is associative, and a triple the library reports must
really fail.  The inputs are the algebras the rest of the suite builds,
seeded one-sign flips in Clifford and graded matrix tables, one perturbed
cell after a seeded dense change of basis, and hand-built
non-associative tables (the octonions among them, which are alternative,
so only triples of distinct imaginary units fail).
"""

import random
from fractions import Fraction

import pytest

from gradedbrauer.algebra import AlgebraError, GradedAlgebra, _packed, end_graded
from gradedbrauer.clifford import DiagonalForm, clifford, relabel, signature_form
from gradedbrauer.scalars import COMPLEX, REAL
from associativity_oracle import associator, dense_unit, first_failing_triple
from test_azumaya_oracle import (gaussian_images, known_non_azumaya, seeded_algebras,
                                 suite_algebras)
from test_centralizer_oracle import transport

F = Fraction
PREFIX = "associativity fails on basis triple "


def library_triple(a):
    """The triple ``validate`` reports, or ``None`` when it passes."""
    try:
        a.validate()
    except AlgebraError as exc:
        message = str(exc)
        assert message.startswith(PREFIX), message
        return tuple(int(x) for x in message[len(PREFIX) + 1:-1].split(", "))
    return None


def assert_same_verdict(a):
    """Both checks agree; returns whether ``a`` is associative."""
    a.check_unit_and_grading()  # the mutants below keep the unit and grading
    found = library_triple(a)
    want = first_failing_triple(a)
    assert (found is None) == (want is None), (a, found, want)
    if found is not None:
        assert associator(a, *found), found
    return found is None


def rebuilt(a, table):
    return GradedAlgebra(a.field, a.parity, table, a.unit)


def test_same_verdict_on_the_suite_algebras():
    for a in suite_algebras() + known_non_azumaya() + seeded_algebras(seed=6, count=20) \
            + gaussian_images():
        assert assert_same_verdict(a), a


def test_generator_counts():
    """``r`` is the rank for Clifford algebras and ``2n - 1`` for graded
    ``n x n`` matrices."""
    for p, q in ((0, 0), (1, 0), (2, 1), (0, 4), (3, 3)):
        assert clifford(signature_form(p, q))._light_generators() \
            == [1 << b for b in range(p + q)]
    for ev, od in ((1, 1), (2, 1), (3, 2), (8, 8)):
        assert len(end_graded(ev, od)._light_generators()) == 2 * (ev + od) - 1


def one_sign_flips(a, rng, count):
    """Copies of ``a`` with one coefficient negated, in a cell ``(i, j)``
    where the unit has no component at ``i`` or ``j``: the unit stays
    two-sided and the grading is untouched."""
    cells = [ij for ij in sorted(a.table) if not a.unit[ij[0]] and not a.unit[ij[1]]]
    out = []
    for i, j in rng.sample(cells, count):
        table = {ij: dict(cell) for ij, cell in a.table.items()}
        k = rng.choice(sorted(table[(i, j)]))
        table[(i, j)][k] = -table[(i, j)][k]
        out.append(rebuilt(a, table))
    return out


@pytest.mark.parametrize("a", [
    clifford(signature_form(2, 1)), clifford(signature_form(1, 3)),
    clifford(signature_form(2, 2, COMPLEX)), clifford(signature_form(5, 0)),
    end_graded(2, 1), end_graded(2, 2), end_graded(3, 1, COMPLEX), gaussian_images()[0],
], ids=["Cl(2,1)", "Cl(1,3)", "Cl(2,2)/C", "Cl(5,0)",
        "End(2|1)", "End(2|2)", "End(3|1)/C", "Cl(i,2,-1)/C"])
def test_one_sign_flips_are_caught_by_both(a):
    rng = random.Random(a.dim * 7 + len(a.table))
    for mutant in one_sign_flips(a, rng, 6):
        assert not assert_same_verdict(mutant)


def test_one_sign_flips_at_dimension_64():
    rng = random.Random(20)
    for mutant in one_sign_flips(clifford(signature_form(6, 0)), rng, 3):
        assert library_triple(mutant) is not None


def test_one_perturbed_cell_after_a_dense_change_of_basis():
    """The transported unit is even, so it vanishes on the odd indices; a
    cell ``(i, j)`` with both odd keeps the unit, and an even ``k`` keeps
    the grading."""
    rng = random.Random(1961)
    sources = [clifford(signature_form(p, q, field))
               for field, p, q in ((REAL, 2, 1), (REAL, 1, 2), (COMPLEX, 2, 1), (REAL, 3, 1))]
    for a in sources + gaussian_images()[:1]:
        field, moved = a.field, transport(a, rng)
        assert assert_same_verdict(moved)
        odd, even = moved.degree_indices(1), moved.degree_indices(0)
        i, j, k = rng.choice(odd), rng.choice(odd), rng.choice(even)
        table = {ij: dict(cell) for ij, cell in moved.table.items()}
        cell = table.setdefault((i, j), {})
        cell[k] = cell.get(k, field.zero()) + field.coerce(F(1, 3))
        assert not assert_same_verdict(rebuilt(moved, table))


def sheared(a, target, source):
    """``a`` on the basis with ``e_target`` replaced by ``e_target +
    e_source`` (same parity): cells that meet ``target`` get two terms, the
    rest keep one, with the form's coefficients."""
    assert a.parity[target] == a.parity[source] and target != source
    zero = a.field.zero()

    def old(i):  # the new basis vector i in the old basis
        vec = a.basis_vector(i)
        if i == target:
            vec[source] = a.field.one()
        return vec

    table = {}
    for i in range(a.dim):
        for j in range(a.dim):
            v = a.mul(old(i), old(j))
            v[source] -= v[target]  # e_target = f_target - f_source
            cell = {k: x for k, x in enumerate(v) if x != zero}
            if cell:
                table[(i, j)] = cell
    unit = list(a.unit)
    unit[source] -= unit[target]
    return GradedAlgebra(a.field, a.parity, table, unit)


def test_same_verdict_with_one_term_and_two_term_cells():
    rng = random.Random(4)
    for field in (REAL, COMPLEX):
        a = sheared(clifford(DiagonalForm((2, -3, F(1, 5)), field)), 3, 5)
        assert {len(cell) for cell in a.table.values()} == {1, 2}
        assert assert_same_verdict(a)
        for mutant in one_sign_flips(a, rng, 4):
            assert not assert_same_verdict(mutant)


def octonions(field=REAL):
    """Cayley's octonions on ``1, e_1, ..., e_7``, all even: ``e_a^2 = -1``
    and ``e_a e_b = e_c`` along each oriented line of the Fano plane."""
    lines = ((1, 2, 3), (1, 4, 5), (1, 7, 6), (2, 4, 6), (2, 5, 7), (3, 4, 7), (3, 6, 5))
    table = {(0, i): {i: 1} for i in range(8)}
    table.update({(i, 0): {i: 1} for i in range(1, 8)})
    table.update({(i, i): {0: -1} for i in range(1, 8)})
    for a, b, c in lines:
        for x, y, z in ((a, b, c), (b, c, a), (c, a, b)):
            table[(x, y)] = {z: 1}
            table[(y, x)] = {z: -1}
    return GradedAlgebra(field, (0,) * 8, table, (1,) + (0,) * 7)


def test_hand_built_non_associative_tables():
    # x^2 = y^2 = yx = 0, xy = x: (x y) y = x but x (y y) = 0
    small = GradedAlgebra(REAL, (0, 0, 0),
                          {(0, 0): {0: 1}, (0, 1): {1: 1}, (0, 2): {2: 1},
                           (1, 0): {1: 1}, (2, 0): {2: 1}, (1, 2): {1: 1}},
                          (1, 0, 0))
    # the same with x last, so only triples with the last index on the left fail
    small_last = relabel(small, [0, 2, 1])
    assert first_failing_triple(small_last) == (2, 1, 1)
    for a in (small, small_last, octonions(), octonions(COMPLEX)):
        assert not assert_same_verdict(a)
    found = library_triple(octonions())
    assert len(set(found)) == 3 and 0 not in found  # octonions are alternative


def test_quaternions_inside_the_octonions_are_associative():
    # 1, e_1, e_2, e_3 span the quaternions along the line (1, 2, 3)
    o = octonions()
    table = {(i, j): cell for (i, j), cell in o.table.items() if i < 4 and j < 4}
    assert assert_same_verdict(GradedAlgebra(REAL, (0,) * 4, table, (1, 0, 0, 0)))


# ------------------------------------------------------------- unit solve

def test_unit_solve_matches_the_dense_solve():
    rng = random.Random(5)
    algebras = suite_algebras() + known_non_azumaya()
    algebras += [transport(clifford(signature_form(2, 1, field)), rng)
                 for field in (REAL, COMPLEX)]
    for a in algebras:
        solved = GradedAlgebra(a.field, a.parity, a.table)
        assert solved.unit == a.unit
        assert [(type(v), v) for v in solved.unit] \
            == [(type(v), v) for v in dense_unit(a)]


@pytest.mark.parametrize("table", [
    {},                                              # the zero product
    {(0, 0): {0: 1}, (0, 1): {1: 1}},                # e a left unit only
    {(0, 0): {0: 1}, (1, 1): {0: 1}},                # e f = f e = 0
])
def test_tables_without_a_unit(table):
    parity, zero = (0, 0), REAL.zero()
    with pytest.raises(AlgebraError, match="unit fails on basis element 0"):
        GradedAlgebra(REAL, parity, table, (0, 0))
    trusted = {ij: {k: REAL.coerce(v) for k, v in cell.items()}
               for ij, cell in table.items()}
    rows = _packed([{j: cell for (i, j), cell in trusted.items() if i == row}
                    for row in range(2)])
    assert dense_unit(GradedAlgebra._trusted(REAL, parity, rows, (zero, zero))) is None
    with pytest.raises(AlgebraError, match="admits no two-sided unit"):
        GradedAlgebra(REAL, parity, table)
