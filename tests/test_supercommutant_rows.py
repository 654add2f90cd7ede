"""The supercommutant's one-term columns on monomial rows.

:func:`gradedbrauer.algebra._supercommutant` reads the column of a basis
vector ``e_i`` under a one-term constraint ``c e_m`` off the targets and
value codes of the cells ``e_m e_i`` and ``e_i e_m``, while every kernel
vector is a basis vector: whether it is zero, and whether the nonzero
columns have disjoint supports, with no product and no dict.  Only an
overlap builds the columns.  These tests pin that branch: it reads no
cell with ``_cell`` and adds nothing with ``linalg._add_scaled`` in the
column loop, also once a kernel is all basis vectors again after an
elimination, and it returns the dense reference's list under constraints
scaled by other than +-1.  (``test_centralizer_oracle`` compares the
rest against the reference: odd x odd constraints, values other than
+-1, and an overlap found part-way through the scan.)
"""

from collections import Counter
from fractions import Fraction

from gradedbrauer import algebra, linalg
from gradedbrauer.algebra import (_integral, end_graded, graded_centralizer, graded_tensor,
                                  hat_center, is_azumaya)
from gradedbrauer.clifford import DiagonalForm, clifford
from gradedbrauer.scalars import COMPLEX, REAL, GaussianRational, _div
from centralizer_oracle import dense_centralizer
from test_azumaya_oracle import cl, gaussian_images
from test_centralizer_oracle import assert_same, basis, eliminations, forms, outcome

F = Fraction
ONE_I = GaussianRational(1, 1)


def column_loop_calls(monkeypatch, run):
    """``run()`` and a count of the calls it makes: ``_cell`` and
    ``linalg._add_scaled`` inside ``_supercommutant``, outside the products
    of ``_mul_into``, and ``_mul_into`` itself, anywhere."""
    counts: Counter = Counter()
    depth = Counter()
    cell, add_scaled = algebra._cell, linalg._add_scaled
    mul_into, supercommutant = algebra._mul_into, algebra._supercommutant

    def counted(name, function):
        def call(*args):
            if depth["supercommutant"] and not depth["product"]:
                counts[name] += 1
            return function(*args)
        return call

    def product(*args):
        counts["_mul_into"] += 1
        depth["product"] += 1
        try:
            return mul_into(*args)
        finally:
            depth["product"] -= 1

    def counting(a, constraints):
        depth["supercommutant"] += 1
        try:
            return supercommutant(a, constraints)
        finally:
            depth["supercommutant"] -= 1

    monkeypatch.setattr(algebra, "_cell", counted("_cell", cell))
    monkeypatch.setattr(linalg, "_add_scaled", counted("_add_scaled", add_scaled))
    monkeypatch.setattr(algebra, "_mul_into", product)
    monkeypatch.setattr(algebra, "_supercommutant", counting)
    try:
        return run(), counts
    finally:
        monkeypatch.setattr(algebra, "_cell", cell)
        monkeypatch.setattr(linalg, "_add_scaled", add_scaled)
        monkeypatch.setattr(algebra, "_mul_into", mul_into)
        monkeypatch.setattr(algebra, "_supercommutant", supercommutant)


def test_clifford_columns_need_no_cell_and_no_sum(monkeypatch):
    """``hat_center`` and ``is_azumaya`` of Clifford algebras over R and C,
    a Gaussian image and a graded tensor: their columns are read off the
    rows, so the only product is ``z^2`` in ``hat_center``."""
    algebras = [cl(6, 0), cl(0, 5, COMPLEX), gaussian_images()[0],
                graded_tensor(cl(2, 1), cl(0, 2))]
    for a in algebras:
        assert type(_integral(a).rows[0]) is tuple, repr(a)
        for run in (hat_center, is_azumaya):
            _, counts = column_loop_calls(monkeypatch, lambda: run(a))
            assert counts["_cell"] == counts["_add_scaled"] == 0, (repr(a), run, counts)
            assert counts["_mul_into"] == (1 if run is hat_center else 0), (repr(a), run, counts)


def scaled_outcome(a, constraints):
    """``_supercommutant`` on the integral image under the sparse
    ``constraints`` as given, not made primitive as ``graded_centralizer``
    makes them, each vector divided by its entry at its start index and
    written densely, as ``graded_centralizer`` returns it."""
    coerce, zero = a.field.coerce, a.field.zero()
    result = []
    for v, deg in algebra._supercommutant(_integral(a), constraints):
        start = v[max(v)]
        dense = [zero] * a.dim
        for i, x in v.items():
            dense[i] = coerce(_div(x, start))
        result.append(([(type(x), x) for x in dense], deg))
    return result


def test_constraints_scaled_by_other_than_one():
    """``c e_m`` with ``c`` 3, -2 and 1/2 (and ``1 + i``, ``-3i`` over C),
    alone, with the whole basis after them, and over a graded matrix
    algebra, whose columns overlap; and ``(1 + i) e_m`` through
    ``graded_centralizer``, which keeps that scale."""
    scales = {REAL: (3, -2, F(1, 2)), COMPLEX: (3, ONE_I, GaussianRational(0, -3))}
    for a in forms() + [end_graded(2, 1), end_graded(2, 1, COMPLEX)]:
        for m in range(a.dim):
            want = outcome(dense_centralizer, a, basis(a, [m]))
            whole = outcome(dense_centralizer, a, basis(a, [m, *range(a.dim)]))
            rest = [({i: 1}, p) for i, p in enumerate(a.parity)]
            for c in scales[a.field]:
                assert scaled_outcome(a, [({m: c}, a.parity[m])]) == want, (repr(a), m, c)
                assert scaled_outcome(a, [({m: c}, a.parity[m])] + rest) == whole, (repr(a), m)
            if a.field is COMPLEX:
                vec = [a.field.zero()] * a.dim
                vec[m] = ONE_I
                assert_same(a, [(vec, a.parity[m])])


def test_kernel_of_basis_vectors_again_after_an_elimination(monkeypatch):
    """Under the odd ``e_1 + e_123`` of Cl(4,0) both kernels overlap and
    are eliminated down to basis vectors (``1, e_23`` and ``e_4, e_234``),
    so the one-term constraints after it read their columns off the rows
    again: no ``_cell`` call, and the oracle's list."""
    for a in (cl(4, 0), cl(4, 0, COMPLEX), clifford(DiagonalForm((F(2), F(-1, 2), F(3), ONE_I),
                                                                 COMPLEX))):
        s = [a.field.zero()] * a.dim
        s[0b0001] = s[0b0111] = a.field.one()
        first = [(s, 1)]
        kernels = [sorted(i for i, x in enumerate(v) if x) for v, _ in
                   graded_centralizer(a, first)]
        assert kernels == [[0], [6], [8], [14]], repr(a)
        for rest in (basis(a, range(a.dim)), basis(a, a.degree_indices(0)),
                     basis(a, [2, 12, 8])):
            constraints = first + rest
            got, counts = column_loop_calls(
                monkeypatch, lambda: outcome(graded_centralizer, a, constraints))
            assert counts["_cell"] == 0, (repr(a), counts)
            assert got == outcome(dense_centralizer, a, constraints), repr(a)
            _, calls = eliminations(monkeypatch, lambda: graded_centralizer(a, constraints))
            assert calls >= 2, repr(a)
