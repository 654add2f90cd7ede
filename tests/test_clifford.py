from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gradedbrauer.algebra import AlgebraError, graded_tensor
from gradedbrauer.clifford import (DiagonalForm, clifford, hyperbolic,
                                   relabel, signature_form,
                                   tensor_index_pairing)
from gradedbrauer.scalars import COMPLEX, REAL

F = Fraction

entry_values = st.sampled_from([F(1), F(-1), F(2), F(-3), F(1, 2)])
small_forms = st.lists(entry_values, min_size=0, max_size=4).map(
    lambda e: DiagonalForm(tuple(e)))


def test_diagonal_form_rejects_zero_entries():
    with pytest.raises(ValueError):
        DiagonalForm((1, 0, -1))


def test_form_helpers():
    assert hyperbolic(2).entries == (1, -1, 1, -1)
    assert signature_form(2, 1).entries == (1, 1, -1)
    assert signature_form(1, 2).signature() == -1
    assert (signature_form(1, 0) + signature_form(0, 1)).entries == (1, -1)
    with pytest.raises(ValueError):
        signature_form(-1, 0)


def test_clifford_of_empty_form_is_the_ground_field():
    a = clifford(DiagonalForm(()))
    assert a.dim == 1
    assert a.parity == (0,)


def test_clifford_dimension_and_parity():
    a = clifford(signature_form(2, 1))
    assert a.dim == 8
    assert sum(a.parity) == 4  # odd-cardinality subsets
    assert a.parity[0b101] == 0 and a.parity[0b111] == 1


def test_generators_square_to_their_entries():
    form = DiagonalForm((F(2), F(-3), F(1, 2)))
    a = clifford(form)
    for index, value in zip((1, 2, 4), form.entries):
        assert a.basis_product(index, index) == {0: value}


def test_generators_anticommute():
    a = clifford(signature_form(3, 0))
    for i, j in ((1, 2), (1, 4), (2, 4)):
        forward = a.basis_product(i, j)
        backward = a.basis_product(j, i)
        assert forward == {k: -v for k, v in backward.items()}


def test_triple_product_sign():
    # e1 * e2 * e3 with all squares 1: (e1e2)(e2e3) = e1 e3 * (e2^2) = e1e3
    a = clifford(signature_form(3, 0))
    assert a.basis_product(0b011, 0b110) == {0b101: 1}
    # reversing the middle pair picks up the anticommutation sign
    assert a.basis_product(0b110, 0b011) == {0b101: -1}


def test_clifford_size_budget():
    for rank in (11, 17):
        with pytest.raises(AlgebraError, match="MAX_DIM = 1024"):
            clifford(DiagonalForm((1,) * rank))


def test_clifford_over_the_complex_point():
    from gradedbrauer.scalars import GaussianRational
    a = clifford(DiagonalForm((GaussianRational(0, 1),), COMPLEX))
    assert a.basis_product(1, 1) == {0: GaussianRational(0, 1)}


@given(small_forms, small_forms)
@settings(max_examples=25, deadline=None)
def test_tensor_pairing_is_an_isomorphism(left, right):
    """Relabeling the Clifford algebra of a concatenated form by the
    subset-pairing permutation gives the graded tensor of the two factor
    algebras on the nose — products, signs, units and all."""
    pairing = tensor_index_pairing(left.rank, right.rank)
    assert relabel(clifford(left + right), pairing) \
        == graded_tensor(clifford(left), clifford(right))


def test_validate_across_a_sample_grid():
    for p in range(4):
        for q in range(4 - p):
            clifford(signature_form(p, q)).validate()
