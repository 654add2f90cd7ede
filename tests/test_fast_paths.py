"""The two shortcuts of the classification against the slow paths.

* The classification is kept on the algebra: the answers read from the
  memo equal those of a fresh instance, ``hat_center`` and the trace
  form run once per algebra (an odd class's even part read in place,
  never built), and a ``NotAzumayaError`` is never kept.
* The library's constructors skip ``GradedAlgebra.__init__``: each one's
  output equals the checked construction from the same parity, table and
  unit, with the field's own scalar types and no zero cells.
"""

from fractions import Fraction

import pytest

from gradedbrauer import invariants
from gradedbrauer.algebra import (GradedAlgebra, NotAzumayaError, end_graded,
                                  graded_tensor, ground_algebra, hat_center,
                                  opposite)
from gradedbrauer.clifford import DiagonalForm, clifford, relabel, signature_form
from gradedbrauer.invariants import (bw_class, invariant_triple, parity_class,
                                     q2_class, quadratic_descriptor,
                                     ungraded_class)
from gradedbrauer.scalars import COMPLEX, REAL, GaussianRational
from centralizer_oracle import m11

F = Fraction


def cl(p, q, field=REAL):
    return clifford(signature_form(p, q, field))


# Each builds a new instance on every call.
ALGEBRAS = {
    "ground R": lambda: ground_algebra(REAL),
    "Cl(1,0)": lambda: cl(1, 0),
    "Cl(0,2)": lambda: cl(0, 2),
    "Cl(3,0)": lambda: cl(3, 0),
    "Cl(2,1)": lambda: cl(2, 1),
    "Cl(0,3)": lambda: cl(0, 3),
    "<1/2,-3,2>": lambda: clifford(DiagonalForm((F(1, 2), -3, 2), REAL)),
    "end(2,1)": lambda: end_graded(2, 1),
    "Cl(1,0) x Cl(0,2)": lambda: graded_tensor(cl(1, 0), cl(0, 2)),
    "opposite Cl(3,0)": lambda: opposite(cl(3, 0)),
    "ground C": lambda: ground_algebra(COMPLEX),
    "Cl(1,0) over C": lambda: cl(1, 0, COMPLEX),
    "Cl(2,1) over C": lambda: cl(2, 1, COMPLEX),
    "end(1,1) over C": lambda: end_graded(1, 1, COMPLEX),
}

CLASSIFIERS = (quadratic_descriptor, q2_class, parity_class, ungraded_class,
               invariant_triple, bw_class)


@pytest.fixture(autouse=True)
def warm_calibration():
    """``bw_class`` classifies the calibration algebras on its first call
    per field; do that before anything is counted."""
    for field in (REAL, COMPLEX):
        bw_class(ground_algebra(field))


def counter(monkeypatch, name):
    """Count the calls the invariants module makes to ``name``."""
    calls = []
    real = getattr(invariants, name)

    def counted(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(invariants, name, counted)
    return calls


# ------------------------------------------------------------------ memo

@pytest.mark.parametrize("name", ALGEBRAS)
def test_memoized_answers_equal_fresh_ones(name):
    build = ALGEBRAS[name]
    fresh = [f(build()) for f in CLASSIFIERS]
    forward, backward = build(), build()
    for f in CLASSIFIERS:
        f(forward)
    for f in reversed(CLASSIFIERS):
        f(backward)
    assert [f(forward) for f in CLASSIFIERS] == fresh
    assert [f(backward) for f in CLASSIFIERS] == fresh


@pytest.mark.parametrize("name", ALGEBRAS)
def test_one_classification_per_algebra(monkeypatch, name):
    a = ALGEBRAS[name]()
    centers = counter(monkeypatch, "hat_center")
    reductions = counter(monkeypatch, "congruence_diagonal")
    even_parts = []
    real_even_part = GradedAlgebra.even_part
    monkeypatch.setattr(GradedAlgebra, "even_part",
                        lambda self: even_parts.append(self) or real_even_part(self))
    for _ in range(2):
        for f in CLASSIFIERS:
            f(a)
    assert len(centers) == 1
    # one reduction of one trace form per algebra, at either point
    assert len(reductions) == 1
    # an odd class reads its even part in place
    assert even_parts == []


def test_q2_class_alone_takes_no_trace_signature(monkeypatch):
    grams = counter(monkeypatch, "trace_gram")
    reductions = counter(monkeypatch, "congruence_diagonal")
    for build in ALGEBRAS.values():
        a = build()
        q2_class(a)
        parity_class(a)
        quadratic_descriptor(a)
    assert grams == reductions == []


def test_a_center_that_is_not_azumaya_is_never_kept(monkeypatch):
    split = GradedAlgebra(REAL, (0, 0), {(0, 0): {0: 1}, (1, 1): {1: 1}},
                          unit=(1, 1))
    centers = counter(monkeypatch, "hat_center")
    for f in (q2_class, q2_class, bw_class):
        with pytest.raises(NotAzumayaError):
            f(split)
    assert len(centers) == 3


def test_a_zero_signature_is_never_kept(monkeypatch):
    a = cl(0, 2)
    # a full-rank diagonal, two entries of each sign
    monkeypatch.setattr(invariants, "congruence_diagonal",
                        lambda rows: [F(1), F(-1), F(2), F(-2)])
    for _ in range(2):
        with pytest.raises(NotAzumayaError, match="zero signature"):
            invariant_triple(a)
    monkeypatch.undo()
    assert invariant_triple(a) == (0, 2, 1)
    assert bw_class(a) == 6


# ------------------------------------------------------- trusted tables

LIBRARY = {
    "clifford": lambda: cl(2, 1),
    "clifford, scaled entries": lambda: clifford(DiagonalForm((F(1, 2), -3), REAL)),
    "clifford over C": lambda: clifford(
        DiagonalForm((GaussianRational(0, 1), 2), COMPLEX)),
    "end_graded": lambda: end_graded(2, 1),
    "end_graded over C": lambda: end_graded(1, 2, COMPLEX),
    "graded_tensor": lambda: graded_tensor(cl(1, 0), cl(0, 2)),
    "graded_tensor over C": lambda: graded_tensor(cl(1, 0, COMPLEX), end_graded(1, 1, COMPLEX)),
    "m11": lambda: m11(cl(2, 0)),
    "opposite": lambda: opposite(cl(2, 1)),
    "opposite over C": lambda: opposite(cl(1, 1, COMPLEX)),
    "even_part": lambda: cl(3, 0).even_part(),
    "even_part over C": lambda: end_graded(1, 1, COMPLEX).even_part(),
    "relabel": lambda: relabel(cl(2, 0), [2, 0, 3, 1]),
    "hat_center, odd generator": lambda: hat_center(cl(0, 1)),
    "hat_center, even generator": lambda: hat_center(cl(2, 0)),
    "hat_center over C": lambda: hat_center(cl(1, 0, COMPLEX)),
    "ground_algebra": lambda: ground_algebra(REAL),
    "ground_algebra over C": lambda: ground_algebra(COMPLEX),
}


@pytest.mark.parametrize("name", LIBRARY)
def test_library_constructors_equal_checked_construction(name):
    a = LIBRARY[name]()
    checked = GradedAlgebra(a.field, a.parity, a.table, a.unit)
    assert a == checked
    assert a.dim == checked.dim == len(a.parity)
    assert type(a.parity) is tuple and type(a.unit) is tuple
    assert all(type(p) is int for p in a.parity)
    scalar = type(a.field.one())
    assert all(type(u) is scalar for u in a.unit)
    for cell in a.table.values():
        assert cell
        assert all(v and type(v) is scalar for v in cell.values())
