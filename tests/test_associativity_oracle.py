"""Light's associativity test in ``GradedAlgebra.validate`` against the
cubic loop in ``associativity_oracle``, and the sparse unit solve against
the dense one.

``validate`` checks ``(e_i e_j) e_k = e_i (e_j e_k)`` only for ``j`` in a
set of generators; the oracle checks every triple.  They must agree on
whether an algebra is associative, and a triple the library reports must
really fail.  The inputs are the algebras the rest of the suite builds,
seeded one-sign flips in Clifford and graded matrix tables, one perturbed
cell after a seeded dense change of basis, every one-term cell of the
small suite algebras negated and doubled, and hand-built
non-associative tables (the octonions among them, which are alternative,
so only triples of distinct imaginary units fail).  On monomial rows the
generators come from an index closure and the rows are compared whole;
the same tables stored as row dicts take the elimination and the
cell-by-cell compare, the oracle for both.  The constructor refuses a
non-associative table, so those are built through
:func:`associativity_oracle.unvalidated`.
"""

import io
import json
import random
import sys
from collections import Counter
from fractions import Fraction

import pytest

from gradedbrauer import algebra, linalg
from gradedbrauer.algebra import (AlgebraError, GradedAlgebra, _cell, _integral, _packed,
                                  end_graded, graded_tensor, hat_center, is_azumaya, opposite)
from gradedbrauer.cli import main
from gradedbrauer.clifford import DiagonalForm, clifford, relabel, signature_form
from gradedbrauer.invariants import bw_class
from gradedbrauer.scalars import COMPLEX, REAL
from associativity_oracle import associator, dense_unit, first_failing_triple, unvalidated
from test_azumaya_oracle import (cl, dense_gaussian_transport, dimension_64, gaussian_images,
                                 known_non_azumaya, product, seeded_algebras, suite_algebras)
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
    """Both checks agree, and on monomial rows the whole-row compare names
    the triple the row-dict compare names; returns whether ``a`` is
    associative."""
    a.check_unit_and_grading()  # the mutants below keep the unit and grading
    found = library_triple(a)
    want = first_failing_triple(a)
    assert (found is None) == (want is None), (a, found, want)
    if found is not None:
        assert associator(a, *found), found
    if type(a.rows[0]) is tuple:
        assert library_triple(as_row_dicts(a)) == found, (a, found)
    return found is None


def rebuilt(a, table):
    return unvalidated(a.field, a.parity, table, a.unit)


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


def as_row_dicts(a):
    """``a`` with the same table stored as row dicts, which take the
    elimination of ``_light_generators`` and the cell-by-cell compare."""
    rows = [{j: dict(cell) for j in range(a.dim) if (cell := _cell(row, j))} for row in a.rows]
    return GradedAlgebra._trusted(a.field, a.parity, rows, a.unit)


def test_monomial_generators_match_the_elimination():
    """The index closure on monomial rows gives the generators, in order,
    that the elimination gives on the same table as row dicts; graded
    matrix algebras and A x A have units of several terms."""
    algebras = suite_algebras() + known_non_azumaya() + gaussian_images() \
        + seeded_algebras(seed=28, count=30)
    algebras += [end_graded(ev, od, field) for field in (REAL, COMPLEX)
                 for ev in range(7) for od in range(7 - ev) if ev + od]
    algebras += [graded_tensor(end_graded(2, 1), cl(1, 1)), graded_tensor(cl(0, 1), end_graded(1, 2)),
                 opposite(end_graded(2, 2)), opposite(graded_tensor(cl(1, 0), end_graded(1, 1))),
                 product(end_graded(2, 0), end_graded(2, 0)), product(cl(2, 0), cl(0, 2))]
    monomial = [a for a in algebras if type(a.rows[0]) is tuple]
    assert len(monomial) > 120
    assert sum(1 for a in monomial if sum(map(bool, a.unit)) > 1) > 40
    for a in monomial:
        assert a._light_generators() == as_row_dicts(a)._light_generators(), a


@pytest.mark.parametrize("base, generators, products", [
    (cl(3, 2), [0, 1], 30), (end_graded(2, 2), [0, 1, 2], 26),
], ids=["Cl(3,2)", "End(2|2)"])
def test_row_dict_generators_take_no_product_of_the_unit(monkeypatch, base, generators,
                                                         products):
    """On row dicts the unit seeds the elimination but is no word: its
    product ``u e_g = e_g`` with each generator, always dependent, is not
    taken (32 and 29 products when it was)."""
    a = transport(base, random.Random(3))
    assert type(a.rows[0]) is dict
    calls = Counter()
    mul_into = algebra._mul_into

    def counted(*args):
        calls["_mul_into"] += 1
        return mul_into(*args)

    monkeypatch.setattr(algebra, "_mul_into", counted)
    assert a._light_generators() == generators
    assert calls["_mul_into"] == products


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


def test_one_perturbed_cell_is_refused_where_the_table_is_built():
    """The cell perturbed as above, in each Gaussian image, the dense
    Gaussian transport and the dim-64 inputs of ``test_azumaya_oracle``:
    ``GradedAlgebra(...)`` and ``from_json`` refuse the table with
    ``validate``'s message, over C and, when every value is real, over R."""
    rng, fields = random.Random(1964), set()
    for a in gaussian_images() + [dense_gaussian_transport()] + dimension_64():
        odd, even = a.degree_indices(1), a.degree_indices(0)
        i, j, k = rng.choice(odd), rng.choice(odd), rng.choice(even)
        table = {ij: dict(cell) for ij, cell in a.table.items()}
        cell = table.setdefault((i, j), {})
        cell[k] = cell.get(k, a.field.zero()) + a.field.coerce(F(1, 3))
        perturbed = rebuilt(a, table)
        doc = perturbed.to_json()
        strings = {}  # the table as the JSON renders it
        for r, c, t, v in doc["structure"]:
            strings.setdefault((r, c), {})[t] = v
        real = not any("i" in v for *_, v in doc["structure"])
        for field in (REAL, COMPLEX) if real else (COMPLEX,):
            doc["field"] = field.label
            fields.add(field)
            for build in (lambda: GradedAlgebra(field, doc["parity"], strings, doc["unit"]),
                          lambda: GradedAlgebra.from_json(doc)):
                with pytest.raises(AlgebraError, match="^" + PREFIX) as refused:
                    build()
                triple = str(refused.value)[len(PREFIX) + 1:-1].split(", ")
                assert associator(perturbed, *map(int, triple))
    assert fields == {REAL, COMPLEX}


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
    return unvalidated(field, (0,) * 8, table, (1,) + (0,) * 7)


def test_hand_built_non_associative_tables():
    # x^2 = y^2 = yx = 0, xy = x: (x y) y = x but x (y y) = 0
    small = unvalidated(REAL, (0, 0, 0),
                        {(0, 0): {0: 1}, (0, 1): {1: 1}, (0, 2): {2: 1},
                         (1, 0): {1: 1}, (2, 0): {2: 1}, (1, 2): {1: 1}},
                        (1, 0, 0))
    # the same with x last, so only triples with the last index on the left fail
    small_last = relabel(small, [0, 2, 1])
    assert first_failing_triple(small_last) == (2, 1, 1)
    # x^2 = y^2 = x, xy = yx = 0: (x y) y = 0 but x (y y) = x, a zero e_i e_j
    # for the generator j = y against a nonzero row e_i (e_j e_k)
    zero_left = unvalidated(REAL, (0, 0, 0),
                            {(0, 0): {0: 1}, (0, 1): {1: 1}, (0, 2): {2: 1}, (1, 0): {1: 1},
                             (2, 0): {2: 1}, (1, 1): {1: 1}, (2, 2): {1: 1}},
                            (1, 0, 0))
    assert first_failing_triple(zero_left) == library_triple(zero_left) == (1, 2, 2)
    for a in (small, small_last, zero_left, octonions(), octonions(COMPLEX)):
        assert not assert_same_verdict(a)
    found = library_triple(octonions())
    assert len(set(found)) == 3 and 0 not in found  # octonions are alternative


def standing_perturbations(build=GradedAlgebra):
    """Every one-term cell of the suite algebras of dimension at most 8,
    negated and, separately, doubled, built through ``build(field, parity,
    table, unit)``, ``GradedAlgebra`` by default: each table the
    constructor builds, or ``None`` where it refuses the unit or the
    grading."""
    for a in suite_algebras():
        if a.dim > 8:
            continue
        table = {ij: dict(cell) for ij, cell in a.table.items()}
        for ij, cell in table.items():
            if len(cell) != 1:
                continue
            (k, v), = cell.items()
            for w in (-v, v + v):
                try:
                    yield build(a.field, a.parity, {**table, ij: {k: w}}, a.unit)
                except AlgebraError:
                    yield None


def test_standing_perturbation_sweep():
    """Each table of :func:`standing_perturbations` that keeps its unit and
    grading gets the cubic oracle's verdict from ``validate``, and the
    constructor builds it exactly when it is associative: of the 1,498
    tables it refuses 488 for their unit or grading and the other 998
    for associativity, and builds 12.  Every later fast path of Light's
    test must pass this."""
    tables = refused = associative = 0
    for b, built in zip(standing_perturbations(unvalidated), standing_perturbations()):
        tables += 1
        if b is None:
            refused += 1
            assert built is None
        else:
            found = assert_same_verdict(b)
            associative += found
            assert (built is not None) == found, b
    assert (tables, refused, associative) == (1498, 488, 12)


def refuses(call, a):
    """Whether ``call(a)`` raises, on a copy of ``a`` that shares nothing
    it keeps from an earlier call."""
    try:
        call(GradedAlgebra._trusted(a.field, a.parity, a.rows, a.unit))
    except ValueError:  # AlgebraError, and an asymmetric trace form's
        return True
    return False


def test_standing_perturbations_refused_by_the_classification(capsys, monkeypatch):
    """The constructor builds 12 tables, all associative, and ``bw_class``,
    ``hat_center`` and ``is_azumaya`` refuse none of them.  Of the 1,010
    tables that keep their unit and grading, CLI ``invariants`` exits 2
    with ``validate``'s message on the 998 that are not associative, and
    prints the class ``bw_class`` gives on the other 12."""
    built = [b for b in standing_perturbations() if b is not None]
    counts = [len(built)]
    for call in (bw_class, hat_center, is_azumaya):
        counts.append(sum(refuses(call, b) for b in built))
    assert counts == [12, 0, 0, 0]
    printed = 0
    for b in standing_perturbations(unvalidated):
        if b is None:
            continue
        monkeypatch.setattr(sys, "stdin", io.StringIO(json.dumps(b.to_json())))
        code, out = main(["invariants", "--algebra", "-"]), json.loads(capsys.readouterr().out)
        if (found := library_triple(b)) is not None:
            assert (code, out["error"]["message"]) == (2, PREFIX + str(found)), b
        elif refuses(bw_class, b):
            assert code == 2 and "error" in out, b
        else:
            assert (code, out["bw"]) == (0, bw_class(b)), b
            printed += 1
    assert printed == 12


def associativity_calls(monkeypatch, a):
    """Calls of ``_cell``, ``_mul_into`` and ``Elimination.add`` made by
    ``_check_associative`` on the integral image of ``a``."""
    image, calls = _integral(a), Counter()

    def counted(name, function):
        def call(*args, **kwargs):
            calls[name] += 1
            return function(*args, **kwargs)
        return call

    monkeypatch.setattr(algebra, "_cell", counted("_cell", algebra._cell))
    monkeypatch.setattr(algebra, "_mul_into", counted("_mul_into", algebra._mul_into))
    monkeypatch.setattr(linalg.Elimination, "add", counted("add", linalg.Elimination.add))
    image._check_associative()
    monkeypatch.undo()
    return calls


@pytest.mark.parametrize("a", [
    clifford(signature_form(6, 0)), end_graded(4, 4), graded_tensor(cl(2, 1), end_graded(1, 1)),
    opposite(end_graded(3, 2)), gaussian_images()[2],
], ids=["Cl(6,0)", "End(4|4)", "Cl(2,1)xEnd(1|1)", "End(3|2)^op", "Cl(i,2,-1)^op/C"])
def test_monomial_rows_are_compared_without_cells_or_eliminations(monkeypatch, a):
    """On monomial rows, Light's test of an associative table reads targets
    and values only; a one-sign flip still raises, naming a triple that
    fails, the same one the row-dict compare names."""
    assert type(a.rows[0]) is tuple
    assert sum(associativity_calls(monkeypatch, a).values()) == 0
    (mutant,) = one_sign_flips(a, random.Random(a.dim), 1)
    assert type(mutant.rows[0]) is tuple
    found = library_triple(mutant)
    assert found is not None and associator(mutant, *found)
    assert library_triple(as_row_dicts(mutant)) == found


def rescaled(a, scales):
    """``a`` on the basis ``f_i = scales[i] e_i``: the rows stay monomial,
    and with distinct scales they hold about ``dim**2 / 2`` distinct values."""
    table = {(i, j): {k: c * scales[i] * scales[j] / scales[k] for k, c in cell.items()}
             for (i, j), cell in a.table.items()}
    return GradedAlgebra(a.field, a.parity, table, [u / s for u, s in zip(a.unit, scales)])


def filled_products(monkeypatch, image):
    """The products of two values that ``_check_associative`` of ``image``
    multiplies and codes: the entries filled in every ``_Times``."""
    made, init = [], algebra._Times.__init__

    def recorded(self, *args):
        init(self, *args)
        made.append(self)

    monkeypatch.setattr(algebra._Times, "__init__", recorded)
    try:
        image._check_associative()
    finally:
        monkeypatch.undo()
    return sum(len(times) - 1 for times in made)  # -1 -> -1 is there from the start


@pytest.mark.parametrize("p", [6, 7])
def test_many_valued_monomial_rows_take_only_the_products_read(monkeypatch, p):
    """A diagonally rescaled Cl(p,0) is associative and its rows monomial,
    with about ``dim**2 / 2`` distinct values: Light's test multiplies only
    the pairs of values the whole-row compare reads, at most two per cell
    of each generator's rows, and a one-sign flip still names a failing
    triple, the one the row-dict compare names."""
    base = clifford(signature_form(p, 0))
    a = rescaled(base, [F(i + 2, i + 1) for i in range(base.dim)])
    image = _integral(a)
    assert type(image.rows[0]) is tuple and len(image.rows[0][2]) > a.dim ** 2 // 4
    a.validate()
    r = len(image._light_generators())
    assert r == p and filled_products(monkeypatch, image) <= 2 * r * a.dim ** 2
    (mutant,) = one_sign_flips(a, random.Random(p), 1)
    found = library_triple(mutant)
    assert found is not None and associator(mutant, *found)
    assert library_triple(as_row_dicts(mutant)) == found


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
