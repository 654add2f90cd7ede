import json
import tracemalloc
from fractions import Fraction

import pytest

from gradedbrauer import linalg
from gradedbrauer.algebra import (AlgebraError, GradedAlgebra,
                                  NotAzumayaError, _packed, end_graded,
                                  graded_centralizer, graded_tensor,
                                  ground_algebra, hat_center, is_azumaya,
                                  opposite, trace_gram, trace_signature)
from gradedbrauer.clifford import clifford, signature_form
from gradedbrauer.invariants import bw_class
from gradedbrauer.scalars import COMPLEX, REAL
from associativity_oracle import unvalidated
from centralizer_oracle import m11
from test_azumaya_oracle import gaussian_images, product

F = Fraction


def cl(p, q, field=REAL):
    return clifford(signature_form(p, q, field))


def dual_numbers():
    """k[x]/x^2 in even degree: the standard non-semisimple example."""
    return GradedAlgebra(REAL, (0, 0),
                         {(0, 0): {0: 1}, (0, 1): {1: 1}, (1, 0): {1: 1}},
                         unit=(1, 0))


def split_pair(field=REAL):
    """k x k in even degree, idempotent basis."""
    return GradedAlgebra(field, (0, 0),
                         {(0, 0): {0: 1}, (1, 1): {1: 1}}, unit=(1, 1))


# ----------------------------------------------------------- construction

def test_construction_validates_inputs():
    with pytest.raises(AlgebraError):
        GradedAlgebra(REAL, (), {})
    with pytest.raises(AlgebraError):
        GradedAlgebra(REAL, (0, 2), {(0, 0): {0: 1}})
    with pytest.raises(AlgebraError):
        GradedAlgebra(REAL, (0,), {(0, 1): {0: 1}})
    with pytest.raises(AlgebraError):
        GradedAlgebra(REAL, (0,), {(0, 0): {5: 1}})


def test_unit_is_solved_when_not_given():
    a = split_pair()
    assert a.unit == (F(1), F(1))
    b = cl(1, 1)
    again = GradedAlgebra(b.field, b.parity, b.table)
    assert again.unit == b.unit


def test_missing_unit_is_an_error():
    # x*y = 0 for all basis vectors: no unit can exist
    with pytest.raises(AlgebraError, match="unit"):
        GradedAlgebra(REAL, (0, 0), {(0, 0): {}})


def test_zero_coefficients_are_dropped():
    a = GradedAlgebra(REAL, (0,), {(0, 0): {0: 1}}, unit=(1,))
    b = GradedAlgebra(REAL, (0,), {(0, 0): {0: 1}},
                      unit=(1,))
    assert a.table == b.table
    c = GradedAlgebra(REAL, (0, 0),
                      {(0, 0): {0: 1, 1: 0}, (0, 1): {1: 1}, (1, 0): {1: 1},
                       (1, 1): {}},
                      unit=(1, 0))
    assert c.basis_product(0, 0) == {0: 1}
    assert c.basis_product(1, 1) == {}


def test_real_field_rejects_gaussian_structure_constants():
    from gradedbrauer.scalars import I
    with pytest.raises(ValueError):
        GradedAlgebra(REAL, (0,), {(0, 0): {0: I}}, unit=(1,))


# ------------------------------------------------------------- validation

def test_validate_passes_for_clifford_algebras():
    for p, q in ((0, 0), (1, 0), (2, 1), (0, 3)):
        cl(p, q).validate()


def test_validate_catches_broken_associativity():
    a = cl(2, 0)
    table = {k: dict(v) for k, v in a.table.items()}
    table[(1, 2)] = {3: F(-1)}  # flip the sign of e1*e2
    with pytest.raises(AlgebraError, match="associat"):
        GradedAlgebra(a.field, a.parity, table, unit=a.unit)
    broken = unvalidated(a.field, a.parity, table, unit=a.unit)
    with pytest.raises(AlgebraError, match="associat"):
        broken.validate()


def test_validate_catches_grading_violations():
    one = F(1)
    table = {(0, 0): {0: one}, (0, 1): {1: one}, (1, 0): {1: one},
             (1, 1): {1: one}}  # odd*odd landing in odd degree
    with pytest.raises(AlgebraError, match="parity"):
        GradedAlgebra(REAL, (0, 1), table, unit=(1, 0))
    rows = [{j: cell for (i, j), cell in table.items() if i == row} for row in range(2)]
    bad = GradedAlgebra._trusted(REAL, (0, 1), _packed(rows), (one, F(0)))
    with pytest.raises(AlgebraError, match="parity"):
        bad.validate()


def test_validate_catches_fake_unit():
    a = GradedAlgebra(REAL, (0, 0), {(0, 0): {0: 1}, (1, 1): {1: 1}},
                      unit=(1, 1))
    with pytest.raises(AlgebraError, match="unit fails"):
        GradedAlgebra(a.field, a.parity, a.table, unit=(1, 0))
    doctored = GradedAlgebra._trusted(a.field, a.parity, a.rows, (F(1), F(0)))
    with pytest.raises(AlgebraError, match="unit"):
        doctored.validate()


# ------------------------------------------------------------- operations

def test_mul_matches_structure_table():
    a = cl(1, 1)
    e1 = a.basis_vector(1)
    e2 = a.basis_vector(2)
    assert a.mul(e1, e1) == a.basis_vector(0)
    assert a.mul(e1, e2) == [x for x in a.basis_vector(3)]
    minus_e12 = [-x for x in a.basis_vector(3)]
    assert a.mul(e2, e1) == minus_e12


def test_even_part_of_clifford():
    a = cl(2, 0)
    even = a.even_part()
    assert even.dim == 2
    # e1*e2 squares to -1 in the even part: a copy of the complexes
    assert even.basis_product(1, 1) == {0: -1}


def test_end_graded_is_matrix_multiplication():
    a = end_graded(2, 1)
    assert a.dim == 9
    assert a.dim_even == 5  # checkerboard: 2x2 and 1x1 blocks
    n = 3

    def unit_index(r, c):
        return r * n + c

    prod = a.basis_product(unit_index(0, 1), unit_index(1, 2))
    assert prod == {unit_index(0, 2): 1}
    assert a.basis_product(unit_index(0, 1), unit_index(2, 0)) == {}


def test_graded_tensor_koszul_sign():
    a = cl(1, 0)
    t = graded_tensor(a, a)
    # basis: 1(x)1, 1(x)e, e(x)1, e(x)e
    e_left = t.basis_vector(2)
    e_right = t.basis_vector(1)
    left_then_right = t.mul(e_left, e_right)
    right_then_left = t.mul(e_right, e_left)
    assert left_then_right == [-x for x in right_then_left]
    assert t.parity == (0, 1, 1, 0)


def test_graded_tensor_respects_fields():
    with pytest.raises(AlgebraError):
        graded_tensor(cl(1, 0), cl(1, 0, COMPLEX))


def test_opposite_reverses_with_koszul_sign():
    a = cl(1, 1)
    op = opposite(a)
    # odd*odd picks up a sign relative to the reversed product
    assert op.basis_product(1, 2) == {k: -v for k, v in a.basis_product(2, 1).items()}
    # even products are plain reversal
    assert op.basis_product(0, 3) == a.basis_product(3, 0)


def test_opposite_is_an_involution():
    a = cl(2, 1)
    assert opposite(opposite(a)) == a


def test_m11_doubles_twice():
    a = cl(1, 0)
    assert m11(a).dim == 4 * a.dim


# -------------------------------------------------- centralizer machinery

def test_graded_centralizer_of_everything_is_graded_center():
    a = cl(1, 1)
    gens = [(a.basis_vector(i), a.parity[i]) for i in range(a.dim)]
    center = graded_centralizer(a, gens)
    assert len(center) == 1  # graded-central: scalars only


def test_graded_centralizer_rejects_mixed_elements():
    a = cl(1, 0)
    mixed = [F(1), F(1)]
    with pytest.raises(AlgebraError, match="homogeneous"):
        graded_centralizer(a, [(mixed, 0)])


def test_graded_centralizer_does_not_trust_the_declared_unit():
    """The constructor refuses a wrong explicit unit; on an algebra that
    skips the check (``_trusted``), a constraint equal to the wrong
    declared unit still constrains."""
    a = cl(2, 0)
    e12 = a.basis_vector(3)  # anticommutes with e_1 and e_2
    with pytest.raises(AlgebraError, match="unit fails on basis element 0"):
        GradedAlgebra(a.field, a.parity, a.table, unit=e12)
    wrong = GradedAlgebra._trusted(a.field, a.parity, a.rows, tuple(e12))
    want = graded_centralizer(a, [(e12, 0)])
    assert [deg for _, deg in want] == [0, 0]
    assert graded_centralizer(wrong, [(e12, 0)]) == want
    with pytest.raises(AlgebraError, match="unit fails"):
        wrong.validate()


def made_eliminations(monkeypatch, run):
    """``run()`` and the number of ``linalg.Elimination`` objects made
    meanwhile."""
    made = []

    class Counted(linalg.Elimination):
        def __init__(self, **options):
            made.append(self)
            super().__init__(**options)

    monkeypatch.setattr(linalg, "Elimination", Counted)
    try:
        return run(), len(made)
    finally:
        monkeypatch.undo()


def test_supercommutant_of_a_generator_makes_no_elimination(monkeypatch):
    """The supercommutant of ``e_1`` in ``Cl(6,0)`` has 32 vectors, read
    off the rows with no elimination; it is a subalgebra, so no closure
    of the 32 vectors is checked either."""
    a = cl(6, 0)
    result, made = made_eliminations(
        monkeypatch, lambda: graded_centralizer(a, [(a.basis_vector(1), 1)]))
    assert (len(result), made) == (32, 0)


@pytest.mark.parametrize("a", [
    cl(6, 0), cl(3, 2), cl(0, 5), cl(6, 0, COMPLEX), cl(3, 2, COMPLEX), cl(0, 5, COMPLEX),
    gaussian_images()[0],
], ids=["Cl(6,0)", "Cl(3,2)", "Cl(0,5)", "Cl(6,0)/C", "Cl(3,2)/C", "Cl(0,5)/C", "Cl(i,2,-1)/C"])
def test_hat_center_makes_one_elimination_and_is_azumaya_none(monkeypatch, a):
    """A Clifford center is read off the rows; ``hat_center`` then
    eliminates ``1``, the center vectors up to ``z``, and ``z^2`` in one
    elimination, and ``is_azumaya`` needs none."""
    assert made_eliminations(monkeypatch, lambda: hat_center(a))[1] == 1
    assert made_eliminations(monkeypatch, lambda: is_azumaya(a))[1] == 0


def test_hat_center_of_a_large_center_keeps_no_products():
    """``M_2^64`` read from JSON, dim 256: its center ``k^64`` has 64
    vectors, whose 4,096 pairwise products ``hat_center`` never forms, so
    its peak stays far below what a list of the products and their
    kernel vectors takes (about 1.5 MB traced)."""
    n = 64
    a = GradedAlgebra.from_json({
        "field": "R", "parity": [0] * 4 * n, "unit": ["1", "0", "0", "1"] * n,
        "structure": [[4 * c + 2 * i + j, 4 * c + 2 * j + k, 4 * c + 2 * i + k, "1"]
                      for c in range(n) for i in range(2) for j in range(2)
                      for k in range(2)]})
    tracemalloc.start()
    try:
        with pytest.raises(NotAzumayaError) as exc:
            hat_center(a)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert str(exc.value) == "graded center has dimension 128, expected 2"
    assert peak < 600 * 1024, peak


def test_hat_center_refuses_a_large_closed_center():
    """The product of 16 copies of ``M_2``, dim 64: its center ``k^16``,
    a subalgebra of 16 vectors, is refused by the dimension check."""
    a = end_graded(2, 0)
    for _ in range(15):
        a = product(a, end_graded(2, 0))
    assert a.dim == 64
    with pytest.raises(NotAzumayaError) as exc:
        hat_center(a)
    assert str(exc.value) == "graded center has dimension 32, expected 2"


def test_hat_center_normal_forms():
    # (parity of generator, square) pairs for the first Clifford algebras
    expected = {
        (0, 0): (0, F(1)),
        (1, 0): (1, F(1)),
        (0, 1): (1, F(-1)),
        (2, 0): (0, F(-1)),
        (1, 1): (0, F(1)),
        (0, 2): (0, F(-1)),
        (3, 0): (1, F(-1)),
    }
    for (p, q), (par, square) in expected.items():
        h = hat_center(cl(p, q))
        assert h.dim == 2
        assert h.parity == (0, par)
        assert h.basis_product(1, 1) == {0: square}, (p, q)


def test_hat_center_is_stable_under_checkerboard_doubling():
    for p, q in ((1, 0), (2, 0), (1, 1), (0, 2)):
        a = cl(p, q)
        assert hat_center(m11(a)) == hat_center(a)


def test_hat_center_of_matrix_algebras_is_split():
    for ev, od in ((2, 0), (1, 1), (2, 1)):
        h = hat_center(end_graded(ev, od))
        assert h.parity == (0, 0)
        assert h.basis_product(1, 1) == {0: 1}


def test_hat_center_rejects_nilpotents():
    with pytest.raises(NotAzumayaError):
        hat_center(dual_numbers())


def test_hat_center_rejects_oversized_centers():
    three = GradedAlgebra(REAL, (0, 0, 0),
                          {(i, i): {i: 1} for i in range(3)},
                          unit=(1, 1, 1))
    with pytest.raises(NotAzumayaError):
        hat_center(three)


def test_hat_center_rejects_non_central_algebras():
    # k x k is quadratic but not Azumaya: its own center is too big
    with pytest.raises(NotAzumayaError, match="dimension 4"):
        hat_center(split_pair())


# ----------------------------------------------------------- azumaya test

def test_is_azumaya_on_clifford_and_matrix_algebras():
    assert is_azumaya(cl(2, 1))
    assert is_azumaya(end_graded(2, 1))
    assert is_azumaya(cl(1, 1, COMPLEX))


def test_is_azumaya_rejects_commutative_products():
    assert not is_azumaya(split_pair())
    assert not is_azumaya(dual_numbers())
    assert not is_azumaya(split_pair(COMPLEX))


# -------------------------------------------------------------- trace form

def test_trace_gram_is_symmetric():
    a = cl(2, 1)
    g = trace_gram(a)
    assert len(g) == a.dim
    for i in range(a.dim):
        for j in range(a.dim):
            assert g.get(i, {}).get(j) == g.get(j, {}).get(i)


def test_trace_signature_distinguishes_the_two_four_dimensional_classes():
    assert trace_signature(end_graded(2, 0)) == 2
    assert trace_signature(cl(0, 2)) == -2


def test_trace_signature_real_only():
    with pytest.raises(AlgebraError):
        trace_signature(cl(1, 1, COMPLEX))


def non_associative(field=REAL):
    """Even, dim 3, unit ``e_0``, ``e_1 e_1 = e_1 e_2 = e_1`` and every
    other product of ``e_1, e_2`` zero.  ``(e_1 e_2) e_1 = e_1`` but
    ``e_1 (e_2 e_1) = 0``, and the trace form shows it: ``G_12 = 1`` and
    ``G_21 = 0``.  The constructor refuses it, so it is built unvalidated."""
    return unvalidated(field, (0, 0, 0),
                       {(0, 0): {0: 1}, (0, 1): {1: 1}, (1, 0): {1: 1},
                        (0, 2): {2: 1}, (2, 0): {2: 1},
                        (1, 1): {1: 1}, (1, 2): {1: 1}},
                       unit=(1, 0, 0))


@pytest.mark.parametrize("field", [REAL, COMPLEX])
def test_an_asymmetric_trace_form_is_refused_alike_at_both_points(field):
    a = non_associative(field)
    g = trace_gram(a)
    assert (g[1].get(2), g.get(2, {}).get(1)) == (1, None)
    for decide in (bw_class, is_azumaya):
        with pytest.raises(ValueError, match="symmetric"):
            decide(a)


# ------------------------------------------------------------------- JSON

def test_json_round_trip_is_exact():
    for a in (cl(2, 1), end_graded(1, 2), ground_algebra(REAL)):
        data = a.to_json()
        assert GradedAlgebra.from_json(data) == a
        assert json.loads(json.dumps(data)) == data


def test_json_round_trip_over_the_complex_point():
    from gradedbrauer.scalars import GaussianRational
    a = GradedAlgebra(COMPLEX, (0, 1),
                      {(0, 0): {0: 1}, (0, 1): {1: 1}, (1, 0): {1: 1},
                       (1, 1): {0: GaussianRational(0, 1)}},
                      unit=(1, 0))
    b = GradedAlgebra.from_json(a.to_json())
    assert b == a
    assert b.basis_product(1, 1) == {0: GaussianRational(0, 1)}


def test_json_accepts_dense_tables():
    sparse = split_pair()
    dense = {
        "field": "R",
        "dim": 2,
        "parity": [0, 0],
        "unit": ["1", "1"],
        "structure": [[["1", "0"], ["0", "0"]], [["0", "0"], ["0", "1"]]],
    }
    assert GradedAlgebra.from_json(dense) == sparse


def test_json_rejects_duplicates_and_shape_errors():
    good = split_pair().to_json()
    dup = dict(good)
    dup["structure"] = good["structure"] + [good["structure"][0]]
    with pytest.raises(AlgebraError, match="duplicate"):
        GradedAlgebra.from_json(dup)
    short = dict(good)
    short["dim"] = 3
    with pytest.raises(AlgebraError):
        GradedAlgebra.from_json(short)
    missing = {"field": "R"}
    with pytest.raises(AlgebraError, match="missing"):
        GradedAlgebra.from_json(missing)
