"""The checks of an untrusted table: those of ``GradedAlgebra(...)``,
:meth:`GradedAlgebra.from_json` and :meth:`GradedAlgebra.validate`, whose
methods import this module when one of them first runs.  A process that
builds only the library's trusted algebras never loads it.
"""

from __future__ import annotations

from collections.abc import Mapping
from itertools import chain
from math import lcm
from operator import itemgetter, xor
from typing import Iterable, Optional, Sequence

from . import algebra, linalg
from .algebra import (AlgebraError, GradedAlgebra, Scalar, SparseVector, _cell,
                      _check_budget, _integral, _mul_into, _packed, _sparse, _terms)
from .scalars import Field, _div, field_from_label


def construct(a: GradedAlgebra, field: Field, parity: Sequence[int],
              table: Mapping[tuple[int, int], Mapping[int, object]],
              unit: Optional[Sequence[object]]) -> None:
    """``GradedAlgebra(field, parity, table, unit)``, into ``a``."""
    scalar = _start(a, field, parity)
    if not hasattr(table, "items"):
        raise AlgebraError(f"structure table must be a mapping, not {type(table).__name__}")

    def triples():  # an empty cell reads as a zero at k = 0, so its (i, j) is checked too
        for key, cell in table.items():
            try:
                i, j = key
            except (TypeError, ValueError):
                raise AlgebraError("structure key must be a pair of indices, not "
                                   f"{type(key).__name__} {key!r}") from None
            try:
                items = cell.items() or ((0, 0),)
            except AttributeError:
                raise AlgebraError(f"structure cell {key!r} must be a mapping, not "
                                   f"{type(cell).__name__} {cell!r}") from None
            for k, value in items:
                yield i, j, k, value

    _finish(a, triples(), unit, scalar)


def _start(a: GradedAlgebra, field: Field, parity: Sequence[int]):
    """Set and check the field and the parity bits (``int`` 0 or 1);
    return the function that brings a value into the field, keeping one
    object per value (1 is the shared unit), parsing each string once."""
    a.field = field
    a.parity = tuple(_json_int(p, "parity bit") for p in parity)
    a.dim = len(a.parity)
    if a.dim == 0:
        raise AlgebraError("algebra needs at least one basis element")
    if any(p not in (0, 1) for p in a.parity):
        raise AlgebraError("parity bits must be 0 or 1")
    coerce, one, zero = field.coerce, field.one(), field.zero()
    shared = {one: one, zero: zero}  # each value's (and string's) object

    def scalar(value: object) -> Scalar:  # a string is parsed once
        if type(value) is not str:  # hashed once: a Fraction's hash is slow
            v = coerce(value)
            return shared.setdefault(v, v)
        v = shared.get(value)
        if v is None:
            v = coerce(value)
            v = shared[value] = shared.setdefault(v, v)
        return v

    return scalar


def _finish(a: GradedAlgebra, triples: Iterable[Sequence], unit: Optional[Sequence[object]],
            scalar) -> None:
    """Read the structure constants ``(i, j, k, value)`` of ``triples``
    in one pass, refusing the first bad entry: not four items, an index
    not an ``int`` or outside ``0..dim-1`` (``(i, j)``, then ``k``), a
    triple given twice, zeros included.  Intern each value through
    ``scalar`` and drop zeros; refuse a table over the budgets
    (:func:`~gradedbrauer.algebra._check_budget`), over
    :data:`~gradedbrauer.algebra.MAX_WORK` as soon as the walk reaches it.
    Store row dicts of the nonzero cells (``_packed``), set the unit,
    solved for when ``None``, and :meth:`GradedAlgebra.validate`; the
    integral image Light's test builds stays in ``_image``."""
    dim = a.dim
    rows: list[dict[int, dict[int, Scalar]]] = [{} for _ in range(dim)]
    zeros: set[tuple[int, int, int]] = set()  # for the repeat check
    count, largest = 0, 1  # the triples read; the most terms in one cell
    for count, entry in enumerate(triples, 1):
        try:
            i, j, k, value = entry
        except (TypeError, ValueError):  # not four items
            i = None
        if type(i) is not int or type(j) is not int or type(k) is not int:
            if isinstance(entry, (list, tuple)) and len(entry) == 4:
                for index in (i, j, k):
                    _json_int(index, "structure index")
            raise AlgebraError(f"bad structure triple {entry!r}")
        if not (0 <= i < dim and 0 <= j < dim):
            raise AlgebraError(f"structure index ({i}, {j}) out of range")
        if not 0 <= k < dim:
            raise AlgebraError(f"structure index {k} out of range")
        cell = rows[i].get(j)
        if cell is not None and k in cell or zeros and (i, j, k) in zeros:
            raise AlgebraError(f"duplicate structure triple ({i}, {j}, {k})")
        if not (v := scalar(value)):
            zeros.add((i, j, k))
        elif cell is None:
            rows[i][j] = {k: v}
        else:
            cell[k] = v
            # the budget is read from its module each time, so a lowered one applies
            if (count - len(zeros)) * (largest := max(largest, len(cell))) > algebra.MAX_WORK:
                break  # refused below, the rest unread
    _check_budget(dim, "algebra", count - len(zeros), (count - len(zeros)) * largest)
    a.rows = _packed(rows)
    if unit is None:
        unit = _solve_unit(a)
        if unit is None:
            raise AlgebraError("structure table admits no two-sided unit")
    elif not hasattr(unit, "__len__"):
        raise AlgebraError(f"unit must be a list, not {type(unit).__name__}")
    elif len(unit) != a.dim:
        raise AlgebraError("unit vector has the wrong length")
    a.unit = tuple(map(scalar, unit))
    a._descriptor = a._ungraded = a._image = None
    a.validate()


def _json_int(value: object, what: str) -> int:
    """``value`` itself if it is an ``int`` (``dim``, a parity bit, an
    index); a float, a string or a ``True`` is refused, not truncated."""
    if type(value) is not int:
        raise AlgebraError(f"{what} must be an integer, not "
                           f"{type(value).__name__} {value!r}")
    return value


def _solve_unit(a: GradedAlgebra) -> Optional[list[Scalar]]:
    """The two-sided unit solved from the table, or ``None``.

    ``u`` is a two-sided unit iff ``u e_j = e_j = e_j u`` for every
    ``j``: a linear system whose column ``i`` holds the cells ``(i, j)``
    on rows ``(0, j, k)`` and ``(j, i)`` on rows ``(1, j, k)``.  Its
    right-hand side is the last column of a :class:`linalg.Elimination`:
    the system is consistent exactly when that column is no pivot, and
    its kernel vector carries the solution, which is unique.
    """
    n, one = a.dim, a.field.one()
    columns: list[SparseVector] = [{} for _ in range(n)]
    for i, j, k, v in _terms(a.rows):
        columns[i][(0, j, k)] = v
        columns[j][(1, i, k)] = v
    columns.append({(side, j, j): one for side in (0, 1) for j in range(n)})
    *_, combo = map(linalg.Elimination().add, columns)
    if combo is None:
        return None  # the constants column is independent: inconsistent
    own = -a.field.coerce(combo[n])  # so each quotient is of the field
    return [_div(combo[c], own) if c in combo else a.field.zero() for c in range(n)]


def from_json(cls: type[GradedAlgebra], data: Mapping) -> GradedAlgebra:
    """:meth:`GradedAlgebra.from_json`, into an instance of ``cls``."""
    if not isinstance(data, Mapping):
        raise AlgebraError("algebra JSON must be an object, not "
                           f"{type(data).__name__}")
    try:
        label, parity, structure = data["field"], data["parity"], data["structure"]
    except KeyError as exc:
        raise AlgebraError(f"algebra JSON is missing key {exc}") from None
    if not isinstance(label, str):
        raise AlgebraError(f"field must be a string label, not "
                           f"{type(label).__name__} {label!r}")
    field = field_from_label(label)
    if not (isinstance(parity, (list, tuple))
            and isinstance(structure, (list, tuple))):
        raise AlgebraError("parity and structure must be lists")
    unit = data.get("unit")
    if unit is not None and not isinstance(unit, (list, tuple)):
        raise AlgebraError(f"unit must be a list, not {type(unit).__name__}")
    dim = _json_int(data.get("dim", len(parity)), "dim")
    if dim != len(parity):
        raise AlgebraError("dim does not match the length of parity")
    # Sparse entries are flat [i, j, k, value] rows; a dense table nests
    # lists two deep before reaching scalars.  structure[0][0] separates
    # the two shapes unambiguously.
    dense = bool(structure) and isinstance(structure[0], list) \
        and bool(structure[0]) and isinstance(structure[0][0], list)
    _check_budget(dim, "algebra read from JSON", dim ** 3 if dense else len(structure))
    if dense and not (len(structure) == dim and all(
            isinstance(plane, (list, tuple)) and len(plane) == dim
            and all(isinstance(fiber, (list, tuple)) and len(fiber) == dim
                    for fiber in plane)
            for plane in structure)):
        raise AlgebraError("dense structure table has the wrong shape")
    a = cls.__new__(cls)
    scalar = _start(a, field, parity)
    # a dense table repeats no triple, so only its nonzero entries are
    # passed on: its up to dim**3 zeros are not kept for the repeat check
    _finish(a, ((i, j, k, value) for i, plane in enumerate(structure)
                for j, fiber in enumerate(plane)
                for k, value in enumerate(fiber) if scalar(value))
            if dense else structure, unit, scalar)
    return a


def _cell_ints(image: GradedAlgebra) -> Optional[tuple[int, list, dict[int, int], int]]:
    """``(w, cells, unit, den)`` for an integral image (:func:`_integral`)
    in row dicts of ``int`` constants whose cells pack into ints of about
    their own size; ``None`` for monomial rows, for a Gaussian image and
    for sparse cells.  ``cells[i][j]`` packs cell ``e_i e_j = sum c_k e_k``
    into the one int ``sum c_k 2**(w k)``; ``den`` is the common
    denominator of the image's unit and ``unit`` maps each nonzero ``i``
    to the int ``den u_i``.

    A balanced base-``2**w`` expansion is unique, so two packed sums of
    cells are equal exactly when every slot is, once each slot of both
    stays below ``2**(w - 1)`` in absolute value.  With ``M`` the largest
    ``|c|`` and ``U`` the largest ``|den u_i|``, a slot of a sum of at most
    ``dim`` products of two constants is at most ``dim M**2``, one of
    ``sum_i den u_i e_i e_j`` at most ``dim M U``, and one of ``den e_j``
    is ``den``: ``w`` is one bit more than the largest of the three needs.

    A cell takes ``w (max k + 1)`` bits packed, whatever its terms.  The
    cells are packed only while that sums to at most four times the bits
    of the image's terms, each counted as its constant's bits plus 512 (an
    entry of a cell's dict and an int's header, about 64 bytes): dense
    cells, of any constants, and sparse cells of narrow slots.  A million
    one-term cells at dim 1024, or a dense table with one huge constant,
    would take gigabytes packed; those keep the dict compare.
    """
    rows, n = image.rows, image.dim
    if type(rows[0]) is not dict or not image.field.is_real:
        return None
    den = lcm(*(u.denominator for u in image.unit if u))
    unit = {i: int(den * u) for i, u in enumerate(image.unit) if u}
    every = [cell for row in rows for cell in row.values()]
    constants = list(chain.from_iterable(map(dict.values, every)))
    top = max(map(abs, constants), default=0)
    w = int.bit_length(max(n * top * top, n * top * max(map(abs, unit.values()), default=0),
                           den)) + 1
    if w * (sum(map(max, every)) + len(every)) > 4 * (
            512 * len(constants) + sum(map(int.bit_length, constants))):
        return None  # sparse cells of wide slots
    shift = [w * k for k in range(n)]
    cells = []
    for row in rows:
        packed = {}
        for j, cell in row.items():
            p = 0
            for k, c in cell.items():
                p += c << shift[k]
            packed[j] = p
        cells.append(packed)
    return w, cells, unit, den


class _Times(dict):
    """``[y]``: a code of ``scale * values[y]``, multiplied and coded the
    first time it is read; ``[-1]``, a zero cell, stays ``-1``."""

    __slots__ = ("scale", "values", "code")

    def __init__(self, scale: Scalar, values: list, code: dict) -> None:
        super().__init__({-1: -1})
        self.scale, self.values, self.code = scale, values, code

    def __missing__(self, y: int) -> int:
        x = self[y] = self.code.setdefault(self.scale * self.values[y], len(self.code))
        return x


def validate(a: GradedAlgebra) -> None:
    """:meth:`GradedAlgebra.validate`: the full structural audit; raises
    :class:`AlgebraError` on failure.

    Checks what :func:`check_unit_and_grading` checks, with the same
    message, then runs :func:`_check_associative` on the integral image
    (:func:`_integral`), which is associative exactly when ``a`` is, with
    the same failing triples.  A table of the wrong grading takes
    :func:`check_unit_and_grading` alone, before any image is built.
    Otherwise, on row dicts, the unit check and Light's test read the
    image's cells packed once into ints (:func:`_cell_ints`), which live
    for this call only.
    """
    if not _graded(a):
        check_unit_and_grading(a)  # raises: the unit's failure first, as always
    image = _integral(a)
    ints = _cell_ints(image)
    _check_unit(a, ints)
    _check_associative(image, ints)


def _check_associative(a: GradedAlgebra, ints: Optional[tuple] = None) -> None:
    """Light's associativity test (Clifford & Preston, *The Algebraic
    Theory of Semigroups* I, AMS 1961, section 1.2).  The elements ``y``
    with ``(x y) z = x (y z)`` for all ``x, z`` form a subspace ``S``
    that holds the unit and is closed under the product: for ``y, w``
    in ``S``,

        (x (y w)) z = ((x y) w) z    as y is in S
                    = (x y) (w z)    as w is in S
                    = x (y (w z))    as y is in S
                    = x ((y w) z)    as w is in S.

    So ``(e_i e_j) e_k = e_i (e_j e_k)`` is checked for every ``i, k``
    but only for ``j`` in the ``r`` generators of
    :func:`_light_generators`, whose words span the algebra: ``dim**2
    * r`` triples instead of ``dim**3``.  The proof uses bilinearity
    alone and every word is a product in this table, so the verdict is
    exact on non-associative input too.  ``r`` is the rank for a
    Clifford algebra and ``2m - 1`` for graded ``m x m`` matrices.

    Both sides for ``i, j`` are rows ``k -> (e_i e_j) e_k`` and ``k ->
    e_i (e_j e_k)``.  On a monomial table, with ``e_j e_k = d_k
    e_{s_k}`` and ``e_i e_j = c e_t``, they are compared whole over the
    ``k`` with ``e_j e_k != 0``, each side read by one ``itemgetter``
    built per generator: first the targets of row ``t`` at the ``k``
    against those of row ``i`` at the ``s_k``; then the count of nonzero
    targets against row ``t``'s own, so that ``e_t e_k`` is zero at
    every other ``k``; then the coefficients ``c v_{t,k}`` against
    ``d_k v_{i,s_k}`` as codes.  Each cell's code (``-1`` for a zero
    cell) is sent through ``times[x]`` (:class:`_Times`) for the code
    ``x`` of the ``c`` or ``d``, which multiplies ``values[x]`` by a value
    and codes the product only the first time that pair is read.  So
    one product is taken per pair of codes read, never more than the
    ``2 r dim**2`` cells read: few on Clifford, graded matrix, tensor
    and opposite tables, which hold about ``dim`` distinct values or
    fewer, and within that bound after a diagonal rescaling of the
    basis, which can leave ``dim**2 / 2``.  Any pair of monomial rows
    that differ is compared as dicts of cells, which names the first
    failing triple ``(i, j, min k)``.

    Row dicts are compared as dicts of cells, unless :func:`validate`
    passes their cells packed into ints (``ints``, :func:`_cell_ints`:
    ``int`` constants in cells dense enough to pack).  Then ``(e_i e_j)
    e_k = sum_t b_t e_t e_k`` and ``e_i (e_j e_k) = sum_s d_ks e_i e_s``
    are one int each, made by one product a term, and kept for the
    ``k`` where they are nonzero.  Each slot of either is at most ``dim
    M**2``, within the width, so two ints are equal exactly when the
    cells are, and the least ``k`` where they differ names the same
    triple as the dict compare.  A Gaussian image and sparse cells keep
    the dict compare.
    """
    rows, n = a.rows, a.dim

    def row_dict(i: int) -> dict[int, SparseVector]:
        row = rows[i]
        return row if type(row) is dict else {j: c for j in range(n) if (c := _cell(row, j))}

    def check(i: int, j: int) -> None:  # rows k -> (e_i e_j) e_k, e_i (e_j e_k)
        row, lhs, rhs = row_dict(i), {}, {}
        for t, b in row.get(j, {}).items():
            for k, cell in row_dict(t).items():
                linalg._add_scaled(lhs.setdefault(k, {}), b, cell)
        for k, cell in row_dict(j).items():
            for s, d in cell.items():
                if s in row:
                    linalg._add_scaled(rhs.setdefault(k, {}), d, row[s])
        if bad := [k for k in lhs.keys() | rhs.keys() if lhs.get(k, {}) != rhs.get(k, {})]:
            raise AlgebraError(f"associativity fails on basis triple ({i}, {j}, {min(bad)})")

    if type(rows[0]) is dict:
        if ints is None:
            for j in _light_generators(a):
                for i in range(n):
                    check(i, j)
            return
        cells = ints[1]
        for j in _light_generators(a):
            right = rows[j].items()  # e_j e_k = sum_s d_ks e_s
            for i, row in enumerate(rows):
                lhs, rhs, packed = {}, {}, cells[i]
                for t, b in row.get(j, {}).items():  # e_i e_j = sum_t b_t e_t
                    for k, p in cells[t].items():
                        lhs[k] = lhs.get(k, 0) + b * p
                for k, cell in right:
                    v = 0
                    for s, d in cell.items():
                        if (p := packed.get(s)) is not None:
                            v += d * p
                    if v:
                        rhs[k] = v
                if lhs != rhs and (bad := [k for k in lhs.keys() | rhs.keys()
                                           if lhs.get(k, 0) != rhs.get(k, 0)]):
                    raise AlgebraError(
                        f"associativity fails on basis triple ({i}, {j}, {min(bad)})")
        return

    def getter(indices: list[int]):  # the tuple of a row's entries at indices
        return itemgetter(*indices) if len(indices) > 1 else \
            lambda row: tuple(row[k] for k in indices)

    values = rows[0][2]
    code = {v: x for x, v in enumerate(values)}
    size = [n - row[0].count(-1) for row in rows]
    full = [m == n for m in size]  # rows kept as tuples, made once per call
    targets = [tuple(row[0]) if f else row[0] for f, row in zip(full, rows)]
    held = [tuple(codes) if f else [c if k >= 0 else -1 for k, c in zip(t, codes)]
            for f, (t, codes, _) in zip(full, rows)]  # codes, -1 at a zero cell
    times: dict[int, _Times] = {}  # [x][y]: a code of values[x] * values[y]
    for j in _light_generators(a):
        ks = [k for k, s in enumerate(targets[j]) if s >= 0]  # e_j e_k != 0
        # at every k, a full row as it is (tuple() of a tuple is itself)
        at_k, at_s = tuple if full[j] else getter(ks), getter([targets[j][k] for k in ks])
        d, zeros = at_k(held[j]), (-1,) * len(ks)
        for x in {row[j] for row in held}.union(d) - times.keys() - {-1}:
            times[x] = _Times(values[x], values, code)
        by_d = [times[x] for x in d]
        for i, ti in enumerate(targets):
            t, found = ti[j], at_s(ti)  # found: the targets of e_i e_{s_k}
            if t < 0 and found == zeros or t >= 0 and at_k(targets[t]) == found \
                    and len(ks) - found.count(-1) == size[t] \
                    and [*map(times[held[i][j]].__getitem__, at_k(held[t]))] \
                    == [*map(dict.__getitem__, by_d, at_s(held[i]))]:
                continue
            check(i, j)  # the rows differ: find where


def _light_generators(a: GradedAlgebra) -> list[int]:
    """Basis indices whose words, with the unit, span the algebra.

    Indices are taken in order; one already in the span of the words
    found so far is skipped, any other becomes a generator, and the
    span is closed again under right multiplication by every
    generator.  Each word is the product, in this table, of a word and
    a generator.  The unit must already be checked: ``u e_g = e_g``, so
    the unit's products add nothing.

    On row dicts the products are :func:`_mul_into`'s, and a candidate
    extends the span exactly when it is a pivot of one
    :class:`linalg.Elimination` seeded with the unit, no word itself.
    On monomial rows every word but the unit is a nonzero scalar times
    one basis vector, so the span is ``span{u} + span{e_b : b in R}``
    for the set ``R`` of indices reached, and the word ``e_w`` times
    ``e_g`` is ``e_t`` for the target ``t = rows[w][0][g]`` up to its
    scalar, or zero when ``t`` is ``-1``.  ``e_a`` lies in that span
    exactly when ``a`` is in ``R`` or the unit's support outside ``R``
    is ``{a}`` alone: so that support is kept, and once it shrinks to
    one index, that index joins ``R``.  Either way the span after each
    generator is the least one that holds the unit and the generators
    and is closed under them, in whatever order the products are taken,
    so the generators are those of the elimination, with no scalar work.
    """
    n, rows = a.dim, a.rows
    generators: list[int] = []
    if type(rows[0]) is tuple:
        targets = [row[0] for row in rows]
        reached = [False] * n  # R
        loose = {i for i, u in enumerate(a.unit) if u}  # supp(u) outside R
        words: list[int] = []  # b for each word c e_b, the unit aside

        def reach(b: int) -> None:  # e_b joins the span, as a word
            reached[b] = True
            words.append(b)
            loose.discard(b)
            if len(loose) == 1:  # e_a for the one left is u minus the rest
                reached[loose.pop()] = True

        if len(loose) == 1:
            reached[loose.pop()] = True
        for j in range(n):
            if reached[j]:
                continue  # e_j is in the span already
            generators.append(j)
            reach(j)
            for w in words:  # each word times each generator, as words grows
                for g in generators:
                    if (t := targets[w][g]) >= 0 and not reached[t]:
                        reach(t)
        return generators
    elimination = linalg.Elimination()
    pivots, add = elimination.pivots, elimination.add  # None: a new pivot
    add(_sparse(a.unit))
    words: list[SparseVector] = []
    for j in range(n):
        word = {j: 1}
        if len(pivots) == n or add(word) is not None:
            continue  # e_j is in the span already
        generators.append(j)
        # the products not taken yet: each word times e_j, e_j times each
        # generator, and each word found later times each generator
        pending = [(w, j) for w in words] + [(word, g) for g in generators]
        words.append(word)
        for w, g in pending:  # in order, as pending grows
            if len(pivots) == n:
                break
            product: SparseVector = {}
            _mul_into(product, rows, w, {g: 1})
            if add(product) is None:
                words.append(product)
                pending += [(product, h) for h in generators]
    return generators


def check_unit_and_grading(a: GradedAlgebra) -> None:
    """:meth:`GradedAlgebra.check_unit_and_grading`: the unit is even and
    two-sided, and every product lands in the parity forced by the
    grading; :func:`validate` checks both, and Light's test after them.
    Raises :class:`AlgebraError` naming the first failure: an odd unit
    coordinate, then the first ``j`` with ``u e_j != e_j`` or ``e_j u !=
    e_j`` (:func:`_check_unit`), then the first structure constant of
    wrong parity in ``(i, j, k)`` order, found by a walk over each term
    that runs only when :func:`_graded` fails."""
    _check_unit(a)
    if not _graded(a):
        for i, j, k, _ in _terms(a.rows):
            if a.parity[k] != a.parity[i] ^ a.parity[j]:
                raise AlgebraError(
                    f"product e_{i} e_{j} has a component of wrong parity at {k}")


def _check_unit(a: GradedAlgebra, ints: Optional[tuple] = None) -> None:
    """The unit is even and two-sided, or :class:`AlgebraError` names an
    odd coordinate or the first ``j`` with ``u e_j != e_j`` or ``e_j u
    != e_j``.

    On monomial rows a one-term unit ``u e_s`` holds when row and column
    ``s`` target ``0..dim-1`` with codes of ``1/u`` alone.  With the
    cells of the integral image packed into ints (``ints``, which
    :func:`validate` passes, :func:`_cell_ints`), ``sum_i den u_i e_i
    e_j`` and ``sum_i den u_i e_j e_i`` are each one int against ``den
    2**(w j)``, on the image: the same ``j`` fails as here, since the
    image only rescales the basis.  Any other unit, and a one-term unit
    that fails, takes the cell loop: ``u e_j`` and ``e_j u`` add ``e_i
    e_j`` and ``e_j e_i`` scaled by each nonzero ``u_i``
    (:func:`gradedbrauer.linalg._add_scaled`; the shared 1 multiplies
    nothing)."""
    for i, u in enumerate(a.unit):
        if u and a.parity[i] == 1:
            raise AlgebraError("unit has a component in odd degree")
    rows, unit, one = a.rows, _sparse(a.unit), a.field.one()
    every = list(range(a.dim))
    if type(rows[0]) is tuple and len(unit) == 1:
        (s, u), = unit.items()
        values, inverse = rows[s][2], one if u is one else _div(one, u)
        if rows[s][0] == every == [row[0][s] for row in rows] and all(
                values[c] == inverse for c in {*rows[s][1], *(row[1][s] for row in rows)}):
            return
    elif ints is not None:
        w, cells, scaled, den = ints
        for j in every:
            want = den << (w * j)
            if sum(u * cells[i].get(j, 0) for i, u in scaled.items()) != want \
                    or sum(u * cells[j].get(i, 0) for i, u in scaled.items()) != want:
                raise AlgebraError(f"unit fails on basis element {j}")
        return
    for j in every:
        ej = {j: one}
        left: SparseVector = {}
        right: SparseVector = {}
        for i, u in unit.items():
            if cell := _cell(rows[i], j):
                linalg._add_scaled(left, u, cell)
            if cell := _cell(rows[j], i):
                linalg._add_scaled(right, u, cell)
        if left != ej or right != ej:
            raise AlgebraError(f"unit fails on basis element {j}")


def _graded(a: GradedAlgebra) -> bool:
    """Whether every product lands in the parity forced by the grading,
    without a walk over the terms: on monomial rows row ``i``'s targets'
    parities are ``p_i ^ p_j`` at its nonzero cells, and in row dicts
    the targets of each cell lie in the indices of parity ``p_i ^ p_j``,
    one set inclusion a cell."""
    rows, parity = a.rows, a.parity
    if type(rows[0]) is tuple:
        padded = (*parity, 2)  # row i's targets' parities: 2 at a zero cell's -1 and at the end
        grades = [(*g, 2) for g in (parity, [p ^ 1 for p in parity])]  # p_i ^ p_j, at p_i
        seen = (itemgetter(*row[0], -1)(padded) for row in rows)
        return all(got == grades[p] or 1 not in map(xor, got, grades[p])  # 1: wrong parity
                   for p, got in zip(parity, seen))
    of_parity = (set(a.degree_indices(0)), set(a.degree_indices(1)))
    return all(cell.keys() <= of_parity[p ^ parity[j]]
               for p, row in zip(parity, rows) for j, cell in row.items())
