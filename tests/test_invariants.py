"""The classification pipeline against its frozen reference values.

The expected triples below were derived once by hand from the rank-2
normal forms and trace signatures of the generator family and are kept
frozen here: the library must keep reproducing them, not the other way
around.
"""

import random
from fractions import Fraction

import pytest

from gradedbrauer.algebra import (GradedAlgebra, NotAzumayaError, end_graded,
                                  graded_tensor, ground_algebra, opposite)
from gradedbrauer.clifford import DiagonalForm, clifford, hyperbolic, signature_form
from gradedbrauer.invariants import (bw_class, group_order, invariant_triple,
                                     parity_class, q2_add, q2_class,
                                     ungraded_class, witt_to_bw)
from gradedbrauer.scalars import COMPLEX, REAL

F = Fraction


def cl(p, q, field=REAL):
    return clifford(signature_form(p, q, field))


def generator_power(k):
    """The k-th tensor power of the one-generator algebra with square +1."""
    a = ground_algebra(REAL)
    for _ in range(k):
        a = graded_tensor(a, cl(1, 0))
    return a


# (parity, quadratic class, inertia) for the generator powers k = 0..7,
# derived by hand and frozen.
GENERATOR_TRIPLES = {
    0: (0, 0, 0),
    1: (1, 1, 0),
    2: (0, 2, 0),
    3: (1, 3, 1),
    4: (0, 0, 1),
    5: (1, 1, 1),
    6: (0, 2, 1),
    7: (1, 3, 0),
}


def test_generator_powers_have_the_frozen_triples():
    for k, want in GENERATOR_TRIPLES.items():
        assert invariant_triple(generator_power(k)) == want, k
    # over the complex point: the ground field and C<1>
    assert [invariant_triple(ground_algebra(COMPLEX)),
            invariant_triple(cl(1, 0, COMPLEX))] == [(0, 0, 0), (1, 1, 0)]


def test_generator_powers_realize_all_eight_classes():
    assert [bw_class(generator_power(k)) for k in range(8)] == list(range(8))


def test_small_clifford_classes():
    expected = {(0, 0): 0, (1, 0): 1, (2, 0): 2, (3, 0): 3,
                (0, 1): 7, (0, 2): 6, (0, 3): 5, (1, 1): 0, (2, 2): 0}
    for (p, q), want in expected.items():
        assert bw_class(cl(p, q)) == (p - q) % 8 == want


def test_quadratic_class_of_the_basic_tensor_squares():
    plus = cl(1, 0)
    minus = cl(0, 1)
    assert q2_class(plus) == 1
    assert q2_class(graded_tensor(plus, plus)) == 2
    assert q2_class(graded_tensor(plus, minus)) == 0


def test_parity_class_reads_the_generator():
    assert parity_class(cl(1, 0)) == 1
    assert parity_class(cl(2, 0)) == 0
    assert parity_class(end_graded(1, 1)) == 0


def test_q2_addition():
    assert q2_add(3, 2, REAL) == 1
    assert q2_add(1, 1, COMPLEX) == 0
    for x in range(4):
        for y in range(4):
            assert q2_add(x, y, REAL) == (x + y) % 4


def test_ungraded_class_anchors():
    assert ungraded_class(end_graded(2, 0)) == 0
    assert ungraded_class(cl(0, 2)) == 1  # the quaternions
    assert ungraded_class(cl(1, 1, COMPLEX)) == 0


def test_ungraded_class_odd_parity_uses_the_even_part():
    # class 3 = odd parity with quaternionic even part; the whole of
    # Cl(3,0) has zero signature, so only its even part can answer
    assert ungraded_class(cl(3, 0)) == 1
    assert ungraded_class(cl(1, 0)) == 0


def test_group_orders():
    assert group_order(REAL) == 8
    assert group_order(COMPLEX) == 2


def test_complex_point_classes_have_period_two():
    assert bw_class(ground_algebra(COMPLEX)) == 0
    assert bw_class(cl(1, 0, COMPLEX)) == 1
    assert bw_class(cl(2, 0, COMPLEX)) == 0
    assert bw_class(cl(1, 1, COMPLEX)) == 0


def test_class_is_additive_on_seeded_pairs():
    rng = random.Random(0)
    for _ in range(12):
        p1, q1 = rng.randint(0, 2), rng.randint(0, 1)
        p2, q2 = rng.randint(0, 2), rng.randint(0, 1)
        a, b = cl(p1, q1), cl(p2, q2)
        assert bw_class(graded_tensor(a, b)) == (bw_class(a) + bw_class(b)) % 8


def test_opposite_negates_the_class():
    for p, q in ((1, 0), (2, 0), (0, 2), (2, 1)):
        a = cl(p, q)
        assert bw_class(opposite(a)) == (-bw_class(a)) % 8


def test_witt_to_bw_kills_hyperbolics():
    for n in range(4):
        assert witt_to_bw(hyperbolic(n)) == 0


def test_witt_to_bw_is_signature_mod_eight():
    rng = random.Random(1)
    for _ in range(10):
        entries = tuple(F(rng.choice((1, -1, 2, -5, 3))) for _ in range(rng.randint(1, 5)))
        form = DiagonalForm(entries)
        assert witt_to_bw(form) == form.signature() % 8


def test_scaling_entries_does_not_move_the_class():
    assert bw_class(clifford(DiagonalForm((F(7),)))) == 1
    assert bw_class(clifford(DiagonalForm((F(-1, 4), F(-2))))) == 6


def test_non_azumaya_inputs_are_rejected():
    split = GradedAlgebra(REAL, (0, 0), {(0, 0): {0: 1}, (1, 1): {1: 1}},
                          unit=(1, 1))
    with pytest.raises(NotAzumayaError):
        bw_class(split)
    with pytest.raises(NotAzumayaError):
        q2_class(split)
