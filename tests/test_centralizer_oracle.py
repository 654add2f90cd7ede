"""The sparse ``graded_centralizer`` against the dense reference in
``centralizer_oracle``.

Both must return exactly the same ``(vector, parity)`` list, entry by
entry and type by type, or fail with the same error.  The inputs are the
algebras the rest of the suite builds (through ``test_azumaya_oracle``)
and Clifford algebras with entries other than +-1, with the constraints :func:`hat_center` and :func:`is_azumaya` use, seeded
random constraint subsets, and seeded exact homogeneous changes of basis
that make every structure cell dense with denominators, up to dimension
64 over both fields.
"""

import math
import random
from fractions import Fraction

import numpy as np

from gradedbrauer import algebra, linalg
from gradedbrauer.algebra import (AlgebraError, NotAzumayaError,
                                  end_graded, graded_centralizer, graded_tensor,
                                  ground_algebra, hat_center, opposite, trace_gram)
from gradedbrauer.clifford import DiagonalForm, clifford, signature_form
from gradedbrauer.scalars import COMPLEX, REAL, GaussianRational
from associativity_oracle import unvalidated
from centralizer_oracle import dense_centralizer, dense_mul, m11
from test_azumaya_oracle import (gaussian_images, known_non_azumaya, product, quadratic,
                                 seeded_algebras, suite_algebras, upper_triangular)
from test_boundary_checks import unclosed_center

F = Fraction


def outcome(centralizer, a, elements):
    try:
        result = centralizer(a, elements)
    except AlgebraError as exc:
        return "error", str(exc)
    return [([(type(x), x) for x in vec], par) for vec, par in result]


def assert_same(a, elements):
    elements = list(elements)
    want = outcome(dense_centralizer, a, elements)
    assert outcome(graded_centralizer, a, elements) == want, repr(a)


def basis(a, indices):
    return [(a.basis_vector(i), a.parity[i]) for i in indices]


def assert_same_on_library_constraints(a):
    """The constraints ``hat_center`` and ``is_azumaya`` pass: the even
    basis (all of it for a purely even algebra) and the whole basis."""
    assert_same(a, basis(a, a.degree_indices(0)))
    assert_same(a, basis(a, range(a.dim)))


def forms():
    """Clifford algebras with entries other than +-1 (2, 1/2, -3 over R;
    ``1 + i`` and ``i`` over C), so that two cells sharing a target carry
    values other than +-1, and their negations in the odd x odd block."""
    one_i = GaussianRational(1, 1)
    return [clifford(DiagonalForm((F(2), F(1, 2), F(-3)), REAL)),
            clifford(DiagonalForm((F(-1, 2), F(2), F(3), F(-2)), REAL)),
            clifford(DiagonalForm((one_i, F(2), F(-1)), COMPLEX)),
            clifford(DiagonalForm((one_i, GaussianRational(0, 1), F(3)), COMPLEX)),
            graded_tensor(clifford(DiagonalForm((F(2), F(-1, 2)), REAL)),
                          clifford(DiagonalForm((F(3),), REAL)))]


def test_identical_on_the_suite_algebras():
    for a in suite_algebras() + known_non_azumaya() + gaussian_images() + forms():
        assert_same_on_library_constraints(a)


def test_identical_on_seeded_algebras():
    for a in seeded_algebras(seed=44, count=30):
        assert_same_on_library_constraints(a)


def test_identical_on_a_commutant_that_is_no_subalgebra():
    """Neither side checks closure under the product: on this
    non-associative table both return the same vectors, under the whole
    basis (2 of them, not closed) and under the even basis."""
    a = unclosed_center()
    whole = outcome(graded_centralizer, a, basis(a, range(a.dim)))
    assert len(whole) == 2
    assert outcome(dense_centralizer, a, basis(a, range(a.dim))) == whole
    assert_same(a, basis(a, a.degree_indices(0)))


def random_element(a, rng, parity):
    """A homogeneous element with a few random rational coordinates."""
    indices = a.degree_indices(parity)
    vec = [a.field.zero()] * a.dim
    for i in rng.sample(indices, rng.randint(1, min(3, len(indices)))):
        vec[i] = a.field.coerce(F(rng.randint(-3, 3), rng.randint(1, 3)))
    return vec, parity


def test_identical_on_random_constraint_subsets():
    rng = random.Random(11)
    algebras = suite_algebras() + seeded_algebras(seed=5, count=20)
    for a in rng.sample(algebras, 30):
        for _ in range(3):
            elements = basis(a, rng.sample(range(a.dim), rng.randint(0, a.dim)))
            elements += [random_element(a, rng, rng.choice(sorted(set(a.parity))))
                         for _ in range(rng.randint(0, 3))]
            rng.shuffle(elements)
            assert_same(a, elements)


# --------------------------------------------------------- change of basis

SCALES = (6, 12, 18, 3, 2, 4, 9)  # 1, 2, 3, 1/2, 1/3, 2/3, 3/2 in sixths


def unimodular_pair(m, rng):
    """A dense integer ``m x m`` matrix of determinant +-1 and its inverse.

    ``M[i][j] = min(i, j) + 1`` is the lower times the upper all-ones
    triangle, so its inverse is tridiagonal; a seeded signed permutation
    conjugates both.
    """
    base = np.array([[min(i, j) + 1 for j in range(m)] for i in range(m)], dtype=np.int64)
    base_inv = 2 * np.identity(m, dtype=np.int64) - np.eye(m, k=1, dtype=np.int64) \
        - np.eye(m, k=-1, dtype=np.int64)
    base_inv[m - 1, m - 1] = 1
    perm = list(range(m))
    rng.shuffle(perm)
    signs = np.array([rng.choice((1, -1)) for _ in range(m)], dtype=np.int64)
    u = np.zeros((m, m), dtype=np.int64)
    u_inv = np.zeros((m, m), dtype=np.int64)
    u[np.ix_(perm, perm)] = np.outer(signs, signs) * base
    u_inv[np.ix_(perm, perm)] = np.outer(signs, signs) * base_inv
    assert (u @ u_inv == np.identity(m, dtype=np.int64)).all()
    return u, u_inv


def transport(a, rng):
    """``a`` on the homogeneous basis ``g_i = d_i * sum_r U[r][i] e_r``,
    built through :func:`moved_table` and
    :func:`associativity_oracle.unvalidated`: a change of basis keeps
    associativity, and a non-associative ``a`` can be moved too."""
    return unvalidated(a.field, a.parity, *moved_table(a, rng))


def moved_table(a, rng):
    """The ``(table, unit)`` of :func:`transport`, as the constructor takes
    them.

    ``U`` is unimodular on each parity block and ``d`` a seeded rational
    diagonal, so every cell of the new table is dense and carries
    denominators, and the arithmetic stays exact in int64.
    """
    n = a.dim
    u = np.zeros((n, n), dtype=np.int64)
    u_inv = np.zeros((n, n), dtype=np.int64)
    for p in (0, 1):
        idx = a.degree_indices(p)
        if idx:
            u[np.ix_(idx, idx)], u_inv[np.ix_(idx, idx)] = unimodular_pair(len(idx), rng)
    d = [SCALES[i % len(SCALES)] for i in range(n)]  # d_i is d[i] / 6
    rng.shuffle(d)
    parts = ("re",) if a.field is REAL else ("re", "im")

    def part(v, name):
        return v if a.field is REAL else getattr(v, name)

    den = 1
    for cell in a.table.values():
        for v in cell.values():
            for name in parts:
                den = math.lcm(den, part(v, name).denominator)
    moved = {}
    for name in parts:
        c = np.zeros((n, n, n), dtype=np.int64)
        for (i, j), cell in a.table.items():
            for k, v in cell.items():
                c[i, j, k] = int(part(v, name) * den)
        assert int(np.abs(u).max()) ** 2 * int(np.abs(c).max()) \
            * int(np.abs(u_inv).max()) * n ** 3 < 2 ** 62
        t = np.tensordot(np.tensordot(np.tensordot(u, c, axes=(0, 0)), u, axes=(1, 0)),
                         u_inv, axes=(1, 1))
        moved[name] = t.tolist()
    # c'_ij^k = d_i d_j / d_k * t[i][j][k] / den, with d_i = d[i] / 6
    below = [6 * d[k] * den for k in range(n)]
    table = {}
    for i in range(n):
        for j in range(n):
            above = d[i] * d[j]
            cell = {}
            for k in range(n):
                value = [F(moved[name][i][j][k] * above, below[k]) for name in parts]
                if any(value):
                    cell[k] = value[0] if a.field is REAL else GaussianRational(*value)
            if cell:
                table[(i, j)] = cell
    unit = [sum((int(u_inv[k, r]) * a.unit[r] for r in range(n)), a.field.zero())
            * F(6, d[k]) for k in range(n)]
    return table, unit


def form(field, rng, rank):
    entries = [rng.choice((1, -1)) * (1, 2, 3, F(1, 2))[i % 4] for i in range(rank)]
    return clifford(DiagonalForm(tuple(entries), field))


def test_identical_after_a_dense_change_of_basis():
    rng = random.Random(1964)
    sources = [form(REAL, rng, r) for r in (1, 2, 3, 4)]
    sources += [form(COMPLEX, rng, r) for r in (1, 2, 3)]
    sources += [end_graded(2, 1), end_graded(1, 1, COMPLEX),
                graded_tensor(form(REAL, rng, 1), form(REAL, rng, 2)),
                opposite(form(COMPLEX, rng, 2)), gaussian_images()[0]]
    for a in sources:
        moved = transport(a, rng)
        assert moved.table != a.table
        moved.validate()
        assert_same_on_library_constraints(moved)


def test_hat_center_of_gaussian_images():
    """Forms with an entry ``i`` and a dense transport of one are graded
    central simple over C, so ``hat_center`` is ``C[z]/(z^2 - 1)`` with
    ``z`` of the parity of the second vector the dense centralizer of the
    even part gives."""
    images = gaussian_images()
    for a in images + [transport(images[0], random.Random(1968))]:
        _, (_, z_parity) = dense_centralizer(a, basis(a, a.degree_indices(0)))
        assert hat_center(a) == quadratic(COMPLEX, z_parity, 1), repr(a)


def test_identical_after_a_dense_change_of_basis_at_dimension_64():
    rng = random.Random(64)
    for field in (REAL, COMPLEX):
        moved = transport(form(field, rng, 6), rng)
        assert moved.dim == 64
        assert len(moved.table) == 64 * 64
        assert sum(map(len, moved.table.values())) > 0.99 * 64 * 64 * 32  # dense cells
        assert_same_on_library_constraints(moved)


# ------------------------------------- filtering or eliminating the kernel

def eliminations(monkeypatch, run):
    """``run()`` and the number of :func:`gradedbrauer.linalg.column_kernel`
    calls made inside :func:`gradedbrauer.algebra._supercommutant` meanwhile
    (``hat_center``'s own normal form makes more, after it)."""
    calls = []
    column_kernel, supercommutant = linalg.column_kernel, algebra._supercommutant

    def counted(columns):
        calls.append(len(columns))
        return column_kernel(columns)

    def counting(a, constraints):
        monkeypatch.setattr(linalg, "column_kernel", counted)
        try:
            return supercommutant(a, constraints)
        finally:
            monkeypatch.setattr(linalg, "column_kernel", column_kernel)

    monkeypatch.setattr(algebra, "_supercommutant", counting)
    try:
        return run(), len(calls)
    finally:
        monkeypatch.setattr(algebra, "_supercommutant", supercommutant)


def test_clifford_centers_filter_the_kernel_without_elimination(monkeypatch):
    """Under an even ``e_m`` of Cl(p,q) the column of ``e_i`` is a multiple
    of ``e_{i xor m}``, so the nonzero columns have disjoint supports and
    every constraint keeps the kernel vectors whose column is zero: neither
    ``hat_center`` nor the centralizer of the even basis eliminates, and
    the list is the oracle's."""
    for field in (REAL, COMPLEX):
        for p in range(7):
            for q in range(7 - p):
                a = clifford(signature_form(p, q, field))
                _, calls = eliminations(monkeypatch, lambda: hat_center(a))
                assert calls == 0, (p, q, field)
                even = basis(a, a.degree_indices(0))
                got, calls = eliminations(monkeypatch,
                                          lambda: outcome(graded_centralizer, a, even))
                assert calls == 0, (p, q, field)
                assert got == outcome(dense_centralizer, a, even), (p, q, field)


def test_matrix_centers_eliminate_where_columns_share_a_target(monkeypatch):
    """Under the constraint ``E_12`` the columns of ``E_11`` and ``E_22`` are
    ``E_12`` and ``-E_12``: they share a target, so End(2|1) and End(3|0)
    eliminate, and the list is still the oracle's.  Between them in the
    even kernel, ``E_21`` has the column ``E_22 - E_11``, so the overlap is
    found part-way through the scan; ``E_12`` alone eliminates once and
    keeps ``E_11 + E_22``."""
    for a in (end_graded(2, 1), end_graded(3, 0), end_graded(2, 1, COMPLEX)):
        n = math.isqrt(a.dim)  # E_rc is basis index r n + c
        one = a.field.one()
        assert a.table[(0, 1)] == {1: one} == a.table[(1, n + 1)]
        assert a.table[(1, n)] == {0: one} and a.table[(n, 1)] == {n + 1: one}
        assert (1, 0) not in a.table and (n + 1, 1) not in a.table
        _, calls = eliminations(monkeypatch, lambda: hat_center(a))
        assert calls >= 1, repr(a)
        even = basis(a, a.degree_indices(0))
        got, calls = eliminations(monkeypatch, lambda: outcome(graded_centralizer, a, even))
        assert calls >= 1, repr(a)
        assert got == outcome(dense_centralizer, a, even), repr(a)
        constraint = basis(a, [1])
        got, calls = eliminations(monkeypatch,
                                  lambda: outcome(graded_centralizer, a, constraint))
        assert calls == 1, repr(a)
        assert got == outcome(dense_centralizer, a, constraint), repr(a)
        kept = [v for v, deg in graded_centralizer(a, constraint) if deg == 0]
        assert any(v[0] and v[n + 1] for v in kept), repr(a)
        for m in range(a.dim):  # every one-term constraint, each alone
            assert_same(a, basis(a, [m]))


def test_scaled_and_multi_term_constraints():
    """One-term constraints scaled by a non-unit (``3 e_m``, and ``i e_m``
    over C), multi-term ones, and the two mixed, so that a one-term
    constraint meets kernel vectors that are no longer basis vectors."""
    rng = random.Random(21)
    i = GaussianRational(0, 1)
    sources = [clifford(signature_form(2, 1)), clifford(signature_form(1, 2, COMPLEX)),
               end_graded(2, 1), end_graded(2, 1, COMPLEX), gaussian_images()[0],
               transport(clifford(signature_form(1, 1)), rng)]
    for a in sources:
        scales = (3, i) if a.field is COMPLEX else (3, F(-1, 2))
        for m in range(a.dim):
            for c in scales:
                vec = [a.field.zero()] * a.dim
                vec[m] = a.field.coerce(c)
                assert_same(a, [(vec, a.parity[m])])
        for _ in range(6):
            parity = rng.choice(sorted(set(a.parity)))
            indices = a.degree_indices(parity)
            vec = [a.field.zero()] * a.dim
            for k in rng.sample(indices, min(len(indices), rng.randint(2, 3))):
                vec[k] = a.field.coerce(rng.choice(scales + (1, -2)))
            mixed = [(vec, parity)] + basis(a, rng.sample(range(a.dim), a.dim // 2))
            assert_same(a, [(vec, parity)])
            assert_same(a, mixed)
            assert_same(a, mixed[::-1])


# ------------------------------------------- purely even: Z(A), not m11(A)

def center_outcome(a):
    try:
        return hat_center(a)
    except NotAzumayaError as exc:
        return "error", str(exc)


def purely_even_algebras():
    """Purely even inputs with center ``k`` (matrix algebras, quaternions,
    even Clifford parts) and larger (``k x k``, ``k[x]/x^2``, ``C`` over
    ``R``, upper-triangular matrices, products ``A x A``)."""
    out = []
    for field in (REAL, COMPLEX):
        ground = ground_algebra(field)
        out += [ground] + [end_graded(n, 0, field) for n in (1, 2, 3, 4)]
        out += [clifford(signature_form(p, q, field)).even_part()
                for p, q in ((0, 3), (2, 0), (1, 2), (3, 1), (0, 4))]
        out += [quadratic(field, False, 1), quadratic(field, False, 0),
                upper_triangular([0, 0], field), upper_triangular([0, 0, 0], field),
                product(ground, ground), product(product(ground, ground), ground),
                product(end_graded(2, 0, field), end_graded(2, 0, field))]
    quaternions = clifford(signature_form(0, 3)).even_part()
    out += [quadratic(REAL, False, -1), quadratic(REAL, False, -3),
            product(quaternions, quaternions)]
    out += [a for a in suite_algebras() + known_non_azumaya() if not a.dim_odd]
    return out


def test_purely_even_center_equals_the_stabilization_route():
    """``hat_center`` reads a purely even algebra's graded center off its
    own center; the (1|1)-stabilization gives the same normal form, or
    fails with the same message, on these algebras and on seeded dense
    changes of basis of them."""
    rng = random.Random(1964)
    seen = set()
    for a in purely_even_algebras():
        for b in (a, transport(a, rng)):
            assert not b.dim_odd
            want = center_outcome(m11(b))
            assert center_outcome(b) == want, repr(b)
            seen.add(want if isinstance(want, tuple) else "split")
    assert seen == {"split", ("error", "graded center has dimension 4, expected 2"),
                    ("error", "graded center has dimension 6, expected 2")}


def test_trace_gram_equals_traces_of_left_multiplication():
    """The sparse Gram rows hold ``tr(L_{e_i e_j})`` computed directly from
    dense products, and nothing else, after a dense change of basis too."""
    rng = random.Random(8)
    sources = [form(REAL, rng, 3), form(COMPLEX, rng, 2), end_graded(2, 1),
               quadratic(REAL, False, 0), upper_triangular([0, 1, 1], COMPLEX)]
    for a in sources + [transport(a, rng) for a in sources]:
        zero = a.field.zero()
        units = [a.basis_vector(k) for k in range(a.dim)]
        want = {}
        for i in range(a.dim):
            for j in range(a.dim):
                x = dense_mul(a, units[i], units[j])
                t = sum((dense_mul(a, x, units[k])[k] for k in range(a.dim)), zero)
                if t:
                    want.setdefault(i, {})[j] = t
        assert trace_gram(a) == want, repr(a)
