"""``is_azumaya`` against the sandwich-matrix oracle in ``sandwich_oracle``.

The library decides Azumaya from the trace form and the supercenter on
``dim x dim`` data; the oracle builds the ``dim**2 x dim**2`` matrix of
``a (x) a^op -> End(a)`` and takes its rank.  They must agree on every
algebra below: the families the rest of the suite builds, seeded
tensor products, opposites and relabelings up to dimension 64, and
known non-Azumaya inputs, some with a radical and some semisimple with
a supercenter bigger than the ground field.
"""

import random
from fractions import Fraction

import numpy as np
import pytest

from gradedbrauer.algebra import (GradedAlgebra, NotAzumayaError, _integral, end_graded,
                                  graded_tensor, ground_algebra, is_azumaya,
                                  opposite)
from gradedbrauer.clifford import DiagonalForm, clifford, relabel, signature_form
from gradedbrauer.invariants import bw_class
from gradedbrauer.scalars import COMPLEX, REAL, I
from centralizer_oracle import dense_rank, m11
from sandwich_oracle import rank_mod_prime, sandwich_is_azumaya

F = Fraction


def cl(p, q, field=REAL):
    return clifford(signature_form(p, q, field))


def quadratic(field, odd, square):
    """``k[x]/(x^2 - square)`` with ``x`` odd or even."""
    table = {(0, 0): {0: 1}, (0, 1): {1: 1}, (1, 0): {1: 1}}
    if square:
        table[(1, 1)] = {0: square}
    return GradedAlgebra(field, (0, 1 if odd else 0), table, (1, 0))


def upper_triangular(degrees, field):
    """Upper-triangular matrix units ``E_rc`` (``r <= c``), checkerboard graded."""
    n = len(degrees)
    units = [(r, c) for r in range(n) for c in range(r, n)]
    pos = {rc: i for i, rc in enumerate(units)}
    table = {}
    for (r, c), i in pos.items():
        for c2 in range(c, n):
            table[(i, pos[(c, c2)])] = {pos[(r, c2)]: 1}
    parity = [degrees[r] ^ degrees[c] for r, c in units]
    unit = [1 if r == c else 0 for r, c in units]
    return GradedAlgebra(field, parity, table, unit)


def product(a, b):
    """The direct product ``a x b``, componentwise; never Azumaya."""
    n = a.dim
    table = dict(a.table)
    for (i, j), cell in b.table.items():
        table[(n + i, n + j)] = {n + k: v for k, v in cell.items()}
    return GradedAlgebra(a.field, a.parity + b.parity, table,
                         list(a.unit) + list(b.unit))


def shuffled(a, rng):
    perm = list(range(a.dim))
    rng.shuffle(perm)
    return relabel(a, perm)


def generator_power(k):
    a = ground_algebra(REAL)
    for _ in range(k):
        a = graded_tensor(a, cl(1, 0))
    return a


def suite_algebras():
    """The algebras the rest of the suite builds, up to dimension 32."""
    out = [ground_algebra(REAL), ground_algebra(COMPLEX)]
    out += [cl(p, q) for p in range(6) for q in range(6 - p)]
    out += [cl(p, q, COMPLEX) for p, q in ((1, 0), (2, 0), (1, 1), (2, 1), (0, 3))]
    out += [generator_power(k) for k in range(6)]
    out += [opposite(cl(p, q)) for p, q in ((1, 0), (2, 0), (0, 2), (2, 1))]
    out += [m11(cl(p, q)) for p, q in ((0, 0), (1, 0), (2, 0), (1, 1), (0, 2))]
    out += [end_graded(ev, od) for ev, od in ((1, 0), (2, 0), (1, 1), (2, 1), (3, 2))]
    out += [end_graded(1, 1, COMPLEX), end_graded(2, 1, COMPLEX)]
    out += [clifford(DiagonalForm((F(7),))), clifford(DiagonalForm((F(-1, 4), F(-2))))]
    out += [graded_tensor(cl(1, 1), cl(0, 2)), graded_tensor(cl(2, 1), cl(1, 0))]
    return out


def gaussian_images():
    """Clifford algebras over C of forms with an entry ``i``, their
    opposites and their tensors with Cl(1): their integral images have
    Gaussian integer entries, which the eliminations meet with an integer
    seed."""
    forms = [clifford(DiagonalForm(entries, COMPLEX)) for entries in ((I, 2, -1), (I, I, 1, 3))]
    return forms + [opposite(a) for a in forms] \
        + [graded_tensor(a, cl(1, 0, COMPLEX)) for a in forms]


def dense_gaussian_transport():
    from test_centralizer_oracle import transport  # that module imports this one
    return transport(gaussian_images()[0], random.Random(1968))


def dimension_64():
    """A relabeled opposite of End(4|4) over R and a tensor over C."""
    real = shuffled(opposite(end_graded(4, 4)), random.Random(64))
    return [real, graded_tensor(graded_tensor(cl(1, 0, COMPLEX), end_graded(2, 2, COMPLEX)),
                                cl(0, 1, COMPLEX))]


def known_non_azumaya():
    rng = random.Random(7)
    out = []
    for field in (REAL, COMPLEX):
        out += [
            quadratic(field, False, 1),                     # k x k
            quadratic(field, False, 0),                     # k[x]/x^2, x even
            quadratic(field, True, 0),                      # k[x]/x^2, x odd
            upper_triangular([0, 1], field),
            upper_triangular([0, 0, 1], field),
            upper_triangular([rng.randint(0, 1) for _ in range(3)], field),
            product(cl(1, 0, field), cl(1, 0, field)),      # A x A
            product(end_graded(1, 1, field), end_graded(1, 1, field)),
            graded_tensor(quadratic(field, True, 0), cl(1, 1, field)),
        ]
    out += [
        quadratic(REAL, False, -1),                         # C over R, x even
        quadratic(REAL, False, -3),
        graded_tensor(quadratic(REAL, False, -1), cl(2, 0)),   # quadratic field (x) Cl
        graded_tensor(quadratic(REAL, False, -2), cl(1, 1)),
        graded_tensor(quadratic(COMPLEX, False, -1), cl(1, 0, COMPLEX)),
    ]
    return out


def seeded_algebras(seed, count):
    """Tensor products, opposites and relabelings of Clifford and graded
    matrix algebras, up to dimension 32 (16 over the complex point)."""
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        field = rng.choice((REAL, COMPLEX))
        top = 32 if field is REAL else 16

        def factor():
            if rng.random() < 0.6:
                entries = [F(rng.choice((1, -1, 2, -3, 5)), rng.choice((1, 2, 3)))
                           for _ in range(rng.randint(0, 3))]
                return clifford(DiagonalForm(tuple(entries), field))
            ev, od = rng.choice(((1, 0), (2, 0), (1, 1), (2, 1), (1, 2)))
            return end_graded(ev, od, field)

        a = factor()
        while rng.random() < 0.6:
            b = factor()
            if a.dim * b.dim > top:
                break
            a = graded_tensor(a, b) if rng.random() < 0.5 else graded_tensor(b, a)
        if rng.random() < 0.4:
            a = opposite(a)
        if rng.random() < 0.6:
            a = shuffled(a, rng)
        out.append(a)
    return out


def check_agreement(a):
    assert is_azumaya(a) == sandwich_is_azumaya(a), (
        f"disagreement on {a!r}: parity {a.parity}")


def test_agrees_with_the_oracle_on_the_suite_algebras():
    for a in suite_algebras() + gaussian_images():
        check_agreement(a)


def test_agrees_with_the_oracle_on_a_dense_gaussian_transport():
    moved = dense_gaussian_transport()
    for a in gaussian_images() + [moved]:
        assert _integral(a).field is COMPLEX  # an image with Gaussian entries
    check_agreement(moved)


def test_agrees_with_the_oracle_on_seeded_algebras():
    for a in seeded_algebras(seed=20190115, count=40):
        check_agreement(a)


def test_agrees_with_the_oracle_at_dimension_64():
    for a in dimension_64():
        assert a.dim == 64
        assert is_azumaya(a) and sandwich_is_azumaya(a)


def test_known_non_azumaya_inputs():
    rng = random.Random(3)
    for a in known_non_azumaya():
        assert not is_azumaya(a), repr(a)
        assert not sandwich_is_azumaya(a), repr(a)
        assert not is_azumaya(shuffled(a, rng))
        assert not is_azumaya(graded_tensor(a, cl(1, 0, a.field)))


def refuse_every_variant(field):
    """``bw_class`` raises on each ``known_non_azumaya()`` input over
    ``field``, shuffled and tensored with Cl(1); returns how many."""
    rng = random.Random(3)
    count = 0
    for a in known_non_azumaya():
        if a.field is not field:
            continue
        for variant in (a, shuffled(a, rng), graded_tensor(a, cl(1, 0, field))):
            count += 1
            with pytest.raises(NotAzumayaError):
                bw_class(variant)
    return count


def test_bw_class_refuses_every_real_non_azumaya_variant():
    """Over R the designated algebra of each of these has a degenerate
    trace form, or its center is too big; either way no class."""
    refuse_every_variant(REAL)


def test_bw_class_refuses_every_complex_non_azumaya_variant():
    """Over C there is no sign to read, but the designated algebra's trace
    form must still be nondegenerate, so the same inputs get no class."""
    assert refuse_every_variant(COMPLEX) == 30


def test_rank_mod_prime_matches_exact_rank():
    rows = [[F(1), F(2), F(3)], [F(2), F(4), F(6)], [F(0), F(1), F(1)]]
    mat = np.array([[1, 2, 3], [2, 4, 6], [0, 1, 1]], dtype=np.int64)
    assert rank_mod_prime(mat, 2147483629) == dense_rank(rows)


def test_rank_mod_prime_can_undercount_only_at_bad_primes():
    mat = np.array([[5]], dtype=np.int64)
    assert rank_mod_prime(mat, 5) == 0
    assert rank_mod_prime(mat, 7) == 1
