"""The integral image of a table and the fraction-free kernels.

Every classification and certificate is decided on ``_integral(a)``, the
table of ``a`` on the basis ``D e_i``, with ``D`` the least common
denominator of its structure constants.  The tests require:

* that the image is that table: every constant times ``D``, as an
  integer (a Gaussian integer where some constant is not real), the unit
  over ``D``, and the trace form times ``D**2``;
* the same ``invariant_triple``, ``is_azumaya`` and ``validate`` outcome,
  error messages included, from the image as from the same code run on
  the table itself, on dense transports, non-Azumaya inputs and
  non-associative one-sign flips;
* no ``float`` in any public result, and every scalar a ``Fraction`` or
  a ``GaussianRational`` with ``Fraction`` parts: no integer, and no
  scalar of an image, leaks out (the private ``linalg`` kernel returns
  primitive integral vectors instead);
* the pivots of the scan of every pivot (``column_kernel_oracle``) from
  the fraction-free ``Elimination``, each column primitive, and the
  oracle's kernel vectors once normalized.
"""

import random
from fractions import Fraction
from math import lcm

import pytest
from hypothesis import given, settings

from gradedbrauer import algebra, invariants
from gradedbrauer.algebra import (AlgebraError, GradedAlgebra, _integral, _terms,
                                  end_graded, graded_centralizer, hat_center,
                                  is_azumaya, trace_gram)
from gradedbrauer.invariants import bw_class, invariant_triple
from gradedbrauer.linalg import Elimination, column_kernel, congruence_diagonal
from gradedbrauer.scalars import COMPLEX, REAL, GaussianRational
from column_kernel_oracle import scan_elimination
from test_associativity_oracle import one_sign_flips
from test_azumaya_oracle import cl, known_non_azumaya, suite_algebras
from test_centralizer_oracle import transport
from test_linalg import integral, parts, primitive, sparse_columns
from test_shared_scalars import non_azumaya_variants, transported


def denominator(a):
    return lcm(*(x.denominator for *_, c in _terms(a.rows) for x in parts(c)))


def grid():
    """Clifford algebras Cl(p, q), p + q <= 4, at both points, and graded
    matrix algebras."""
    out = [cl(p, q, field) for field in (REAL, COMPLEX)
           for p in range(5) for q in range(5 - p)]
    return out + [end_graded(m, n, field) for field in (REAL, COMPLEX)
                  for m, n in ((1, 0), (1, 1), (2, 1), (2, 2))]


def fresh(a):
    """``a`` with no classification or image kept on it."""
    return GradedAlgebra._trusted(a.field, a.parity, a.rows, a.unit)


# ------------------------------------------------------------ the image

def test_the_image_is_the_table_on_the_scaled_basis():
    for a in suite_algebras() + known_non_azumaya() + transported(17):
        den = denominator(a)
        image = _integral(a)
        assert _integral(a) is image and a._image is image and image._image is None
        assert image.parity == a.parity
        gaussian = any(len(parts(c)) == 2 and c.im for *_, c in _terms(a.rows))
        assert image.field is (COMPLEX if gaussian else REAL)
        terms, scaled = list(_terms(a.rows)), list(_terms(image.rows))
        assert [t[:3] for t in terms] == [t[:3] for t in scaled]
        assert all(integral(x) and x == den * c for (*_, c), (*_, x) in zip(terms, scaled))
        assert image.unit == tuple(u / den for u in a.unit)
        assert all(type(x) is Fraction for u in image.unit for x in parts(u))
        assert trace_gram(image) == {i: {j: den * den * v for j, v in row.items()}
                                     for i, row in trace_gram(a).items()}


def test_an_image_is_built_once_per_algebra_and_never_copied_in():
    """A ``_trusted`` algebra builds its image on first use; one built by
    ``GradedAlgebra(...)`` or ``from_json``, as row dicts or monomial rows,
    keeps the image its constructor's ``validate`` built.  Either way the
    classification and another ``validate`` use that one image."""
    trusted = [transport(cl(2, 1), random.Random(3)), cl(2, 1)]
    built = [GradedAlgebra(a.field, a.parity, a.table, a.unit) for a in trusted]
    built += [GradedAlgebra.from_json(a.to_json()) for a in trusted]
    assert [type(a.rows[0]) for a in built] == [dict, tuple] * 2
    for a in trusted:
        assert a._image is None
        bw_class(a)
    for a in trusted + built:
        image = a._image
        assert image is not None
        bw_class(a)
        is_azumaya(a)
        graded_centralizer(a, [(a.unit, 0)])
        a.validate()
        assert a._image is image
        assert fresh(a)._image is None


# ---------------------------------------------- the same decisions as the table

def outcome(a):
    """``invariant_triple``, ``is_azumaya`` and ``validate`` on fresh copies
    of ``a``: each result, or the type and message of its error."""
    out = []
    for f in (invariant_triple, is_azumaya, GradedAlgebra.validate):
        try:
            out.append(f(fresh(a)))
        except (AlgebraError, ValueError) as exc:
            out.append((type(exc).__name__, str(exc)))
    return out


def decision_inputs():
    rng = random.Random(1968)
    flips = []
    for a in (cl(2, 1), cl(1, 2, COMPLEX), end_graded(2, 1), cl(3, 0)):
        flips += one_sign_flips(a, rng, 3)
    for a in (cl(2, 1), cl(0, 3), cl(2, 1, COMPLEX)):
        flips += one_sign_flips(transport(a, rng), rng, 2)
    return transported(1969) + non_azumaya_variants() + flips


def test_the_image_decides_as_the_table_does(monkeypatch):
    inputs = decision_inputs()
    with_image = [outcome(a) for a in inputs]
    assert any(isinstance(o[2], tuple) for o in with_image)  # associativity failures
    for module in (algebra, invariants):
        monkeypatch.setattr(module, "_integral", lambda a: a)
    assert [outcome(a) for a in inputs] == with_image


# ------------------------------------------------------- what leaves the package

def assert_no_float(document):
    if isinstance(document, dict):
        for key, value in document.items():
            assert_no_float(key)
            assert_no_float(value)
    elif isinstance(document, (list, tuple)):
        for value in document:
            assert_no_float(value)
    else:
        assert not isinstance(document, float), document


def assert_scalars(values, field):
    for v in values:
        if field is REAL:
            assert type(v) is Fraction, (type(v), v)
        else:
            assert type(v) is GaussianRational, (type(v), v)
            assert type(v.re) is Fraction and type(v.im) is Fraction, v


def check_public_results(a):
    field = a.field
    try:
        triple, bw = invariant_triple(fresh(a)), bw_class(fresh(a))
        assert all(type(x) is int for x in (*triple, bw))
    except AlgebraError:
        pass
    assert type(is_azumaya(fresh(a))) is bool
    try:
        center = hat_center(fresh(a))
        assert_scalars([c for cell in center.table.values() for c in cell.values()], field)
        assert_scalars(center.unit, field)
        assert_no_float(center.to_json())
    except AlgebraError:
        pass
    for indices in (a.degree_indices(0), range(a.dim)):
        try:
            result = graded_centralizer(fresh(a), [(a.basis_vector(i), a.parity[i])
                                                   for i in indices])
        except AlgebraError:
            continue
        assert_scalars([x for vec, _ in result for x in vec], field)
    gram = trace_gram(fresh(a))
    assert_scalars([v for row in gram.values() for v in row.values()], field)
    columns = [{i: row[j] for i, row in gram.items() if j in row} for j in range(a.dim)]
    columns.append({i: u for i, u in enumerate(a.unit) if u})
    assert all(primitive([combo]) for combo in column_kernel(columns))
    assert_no_float(fresh(a).to_json())


@pytest.mark.parametrize("family", ["suite", "transports", "non-Azumaya", "grid"])
def test_no_float_and_no_integer_scalar_leaves_the_package(family):
    algebras = {"suite": suite_algebras, "transports": lambda: transported(1970),
                "non-Azumaya": known_non_azumaya, "grid": grid}[family]()
    for a in algebras:
        check_public_results(a)


# -------------------------------------------------- the fraction-free kernel

def ratio(x, y):
    """``x / y`` for integral ``x`` and ``y``, exactly."""
    return (Fraction(x) if type(x) is int else x) / y


@given(sparse_columns())
@settings(max_examples=300, deadline=None)
def test_fraction_free_elimination_keeps_the_pivots_of_the_scan(case):
    """The same pivot rows in the same order, each pivot column and its
    combination the oracle's times one number and primitive together, and
    the oracle's kernel vectors once divided by their entry at their own
    column, with the same key order."""
    field, columns = case
    elimination = Elimination()
    returned = [elimination.add(column) for column in columns]
    pivots, kernel = scan_elimination(columns, field.one())
    assert [row for row, _, _ in elimination.pivots] == [row for row, _, _ in pivots]
    for (row, column, combo), (_, want, want_combo) in zip(elimination.pivots, pivots):
        head = column[row]
        assert [(k, ratio(v, head)) for k, v in column.items()] == list(want.items())
        assert [(c, ratio(v, head)) for c, v in combo.items()] == list(want_combo.items())
        assert primitive([column, combo])
    got = [(j, combo) for j, combo in enumerate(returned) if combo is not None]
    assert len(got) == len(kernel)
    for (j, combo), want in zip(got, kernel):
        assert max(combo) == j and primitive([combo])
        assert [(c, ratio(v, combo[j])) for c, v in combo.items()] == list(want.items())


@pytest.mark.parametrize("sign, inertia", [(1, (1, 2)), (-1, (2, 1))])
def test_the_e_i_plus_e_j_step_keeps_the_sign_of_a_negative_entry(sign, inertia):
    """``J - I`` (eigenvalues 2, -1, -1) and its negative have no diagonal
    entry, so the reduction starts with ``e_0 <- e_0 + e_1``: its row is
    kept times ``|m_01|``, never times a negative number."""
    rows = {i: {j: Fraction(sign) for j in range(3) if j != i} for i in range(3)}
    diagonal = congruence_diagonal(rows)
    assert (sum(d > 0 for d in diagonal), sum(d < 0 for d in diagonal)) == inertia
