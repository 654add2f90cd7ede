"""Finite-dimensional Z/2-graded algebras given by structure constants.

An algebra lives over one of the two ground-field contexts from
:mod:`gradedbrauer.scalars` and is described by a homogeneous basis:
a parity bit per basis index, a table of structure constants, and the
coordinates of the unit.  All graded constructions follow the Koszul
sign rule; the conventions are spelled out where they matter:

* graded tensor product:  ``(a (x) b)(a' (x) b') = (-1)^{|a'||b|} (aa' (x) bb')``
* graded opposite:        ``a * b = (-1)^{|a||b|} b a``
* sandwich representation, the test suite's reference oracle for
  :func:`is_azumaya`: ``phi(a (x) b)(c) = (-1)^{|b||c|} a c b``
* graded commutation (supercommutant): ``c s = (-1)^{|c||s|} s c``

The table is stored by row, sized to its data: row ``i`` holds the
products ``e_i e_j``.  When every cell holds one term and one cell in
eight at least is nonzero (Clifford algebras, graded matrix algebras up
to ``8 x 8``, and their tensors, opposites and relabelings), row ``i``
is ``(targets, codes, values)``: ``e_i e_j = values[codes[j]] e_k`` for
``k = targets[j]`` (``-1`` for a zero product, whose code is never read).
``values``, one list shared by every row, holds each coefficient once
and perhaps the negation of one that no cell holds
(:func:`_signed_codes`).  Any other table keeps one dict ``{j: {k: c}}``
per row.  The kind is read from the rows; :func:`_cell` reads either.
``GradedAlgebra.table`` is the read-only ``{(i, j): {k: c}}`` view of
the rows; it builds each cell when it is read.

Elements are sparse dicts ``{index: coeff}``, and kernels come from the
sparse elimination of :class:`gradedbrauer.linalg.Elimination`; only
:meth:`GradedAlgebra.mul` and :func:`graded_centralizer` take and return
coordinate lists.

The classification and the certificates (:func:`hat_center`,
:func:`graded_centralizer`, :func:`is_azumaya`, the trace forms of
:mod:`gradedbrauer.invariants` and :meth:`GradedAlgebra.validate`) are
decided on the integral image of an algebra (:func:`_integral`): the
same table on a basis scaled by the common denominator, an isomorphic
algebra with integer structure constants, built once per algebra.
"""

from __future__ import annotations

from collections.abc import Mapping
from fractions import Fraction
from math import lcm
from operator import itemgetter, xor
from typing import Iterable, Optional, Sequence, Union

from . import linalg
from .scalars import (COMPLEX, REAL, Field, GaussianRational, _div, _make,
                      field_from_label)

Scalar = Union[Fraction, GaussianRational]
Vector = Sequence[Scalar]
SparseVector = dict[int, Scalar]

# The largest dimension :func:`gradedbrauer.clifford.clifford`,
# :func:`end_graded` and :func:`graded_tensor` build, and the largest
# algebra :meth:`GradedAlgebra.from_json` reads.  Measured with CLI
# ``invariants`` on one CPU: the rank-10 Clifford algebra (dim 1024, a
# million structure cells in monomial rows) takes about 0.4-0.7 s and
# 34 MB peak RSS, and each step in rank quadruples the table.
MAX_DIM = 1024

# The most structure constants ``(i, j, k)`` that :func:`graded_tensor`
# builds and :meth:`GradedAlgebra.from_json` reads: the 2**20 one-term
# cells of Cl(10), the largest supported input.
MAX_TERMS = 1 << 20

# The most work (structure constants times the most in one cell) admitted
# before Light's test: a dense change of basis of Cl(6) (dim 64) holds 4.2
# million, validated in 3.4 s on one CPU; one of Cl(7) 67 million, 43.6 s.
MAX_WORK = 1 << 23


def _sparse(vec: Vector) -> SparseVector:
    """The nonzero coordinates of a dense vector, as ``{index: coeff}``."""
    return {i: v for i, v in enumerate(vec) if v}


def _dense(vec: SparseVector, dim: int, zero: Scalar) -> list[Scalar]:
    out = [zero] * dim
    for i, v in vec.items():
        out[i] = v
    return out


def _mul_into(acc: SparseVector, rows, x: SparseVector, y: SparseVector) -> None:
    """Add ``x y`` into ``acc``, in place: each cell ``e_i e_j`` (:func:`_cell`)
    scaled by ``x_i y_j`` (:func:`gradedbrauer.linalg._add_scaled`).

    ``x`` and ``y`` are sparse vectors without zeros; entries of ``acc``
    that cancel are removed.
    """
    for i, xi in x.items():
        row = rows[i]
        for j, yj in y.items():
            if cell := _cell(row, j):
                linalg._add_scaled(acc, xi * yj, cell)


def _cell(row, j: int) -> Optional[dict[int, Scalar]]:
    """Cell ``j`` of a row of either kind as ``{k: c}``, or ``None`` when
    it is zero.  A row dict's own cell is returned: it must not be written."""
    if type(row) is dict:
        return row.get(j)
    k = row[0][j]
    return {k: row[2][row[1][j]]} if k >= 0 else None


def _terms(rows):
    """Every structure constant ``(i, j, k, c)``, in ``(i, j, k)`` order."""
    for i, row in enumerate(rows):
        if type(row) is dict:
            yield from ((i, j, k, cell[k]) for j, cell in sorted(row.items())
                        for k in sorted(cell))
        else:
            yield from ((i, j, k, row[2][c]) for j, (k, c) in enumerate(zip(*row[:2])) if k >= 0)


def _packed(rows: list) -> list:
    """Row dicts ``{j: {k: c}}`` of nonzero cells as stored: coded monomial
    rows when every cell holds one term and one in eight at least is nonzero;
    the row dicts themselves, cheaper for a sparser table, otherwise."""
    dim = len(rows)
    if 8 * sum(map(len, rows)) < dim * dim or any(
            len(cell) != 1 for row in rows for cell in row.values()):
        return rows
    position: dict[Scalar, int] = {}  # each distinct value's code
    of_object: dict[int, int] = {}  # the code of each scalar object, by id
    packed = []
    for row in rows:
        targets, codes = [-1] * dim, [0] * dim
        for j, cell in row.items():
            (targets[j], c), = cell.items()
            if (x := of_object.get(id(c))) is None:
                x = of_object[id(c)] = position.setdefault(c, len(position))
            codes[j] = x
        packed.append((targets, codes))
    values = list(position)
    return [(targets, codes, values) for targets, codes in packed]


def _signed_codes(candidates: list) -> tuple[list, list, list]:
    """``(plus, minus, values)``: each distinct value of ``candidates`` and its
    negation once in ``values``, at ``plus[x]`` and ``minus[x]``."""
    position: dict[Scalar, int] = {}  # each distinct value's code
    plus = [position.setdefault(v, len(position)) for v in candidates]
    negated = [position.setdefault(-v, len(position)) for v in list(position)]
    return plus, [negated[x] for x in plus], list(position)


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


class _Table(Mapping):
    """The read-only ``{(i, j): {k: c}}`` view of a table's rows, in
    row-major order; :func:`_cell` reads each cell when it is asked for."""

    __slots__ = ("rows",)

    def __init__(self, rows) -> None:
        self.rows = rows

    def __getitem__(self, key):
        n = len(self.rows)
        try:
            i, j = key
            if 0 <= i < n and 0 <= j < n and (cell := _cell(self.rows[i], j)):
                return cell
        except (TypeError, ValueError):  # not a pair of indices
            pass
        raise KeyError(key)

    def __iter__(self):
        return iter(dict.fromkeys((i, j) for i, j, _, _ in _terms(self.rows)))

    def __len__(self) -> int:
        return sum(1 for _ in self)


class AlgebraError(ValueError):
    """Malformed algebra data, or a computation's preconditions failed."""


class NotAzumayaError(AlgebraError):
    """The graded center did not come out rank-two etale: raised by
    :func:`hat_center` on an input outside the graded Azumaya class."""


def _check_budget(dim: int, what: str, terms: int = 0, work: int = 0) -> None:
    """Refuse, before any table is built or checked, an algebra above
    :data:`MAX_DIM`, :data:`MAX_TERMS` structure constants or :data:`MAX_WORK`."""
    if dim > MAX_DIM:
        raise AlgebraError(f"{what} has dimension {dim}, above the size "
                           f"budget MAX_DIM = {MAX_DIM}")
    if terms > MAX_TERMS:
        raise AlgebraError(f"{what} has {terms} structure constants, above "
                           f"the term budget MAX_TERMS = {MAX_TERMS}")
    if work > MAX_WORK:
        raise AlgebraError(f"{what} reaches work {work} (structure constants times the most "
                           f"in one cell), above the work budget MAX_WORK = {MAX_WORK}")


class GradedAlgebra:
    """A unital Z/2-graded algebra over the real or complex point.

    Parameters
    ----------
    field:
        ``REAL`` or ``COMPLEX`` from :mod:`gradedbrauer.scalars`.
    parity:
        One ``int`` bit, 0 or 1, per basis index; degree-0 indices first
        is conventional but not required.
    table:
        ``{(i, j): {k: coefficient}}`` sparse structure constants.
        Zero coefficients and empty cells may be omitted.
    unit:
        Coordinates of the multiplicative unit.  When omitted, the unit
        is solved for from the table (and its absence is an error).

    Construction (:meth:`_start` and :meth:`_finish`, shared with
    :meth:`from_json`) refuses a table that is not a mapping, a unit with
    no length, a parity bit or index that is not an ``int`` and an index
    outside the basis, normalizes scalars into the field, keeping one
    object per value (1 is the field's shared unit, by which the unit
    check does not multiply), drops zeros, refuses a table over the
    budgets, stores the rows (:attr:`rows`, read as a mapping through
    :attr:`table`) and runs :meth:`validate`, keeping the integral image
    it builds: every algebra built here is associative, with a true, even
    unit and a graded table.  The library's own constructors
    (:func:`gradedbrauer.clifford.clifford`, :func:`end_graded`,
    :func:`graded_tensor`, :func:`opposite`, ...) build such rows and skip
    this pass through :meth:`_trusted`.

    An algebra must not be mutated after construction: its classification
    (read by :mod:`gradedbrauer.invariants`) is computed at most once and
    kept in the ``_descriptor`` and ``_ungraded`` slots, and its integral
    image (:func:`_integral`) in the ``_image`` slot.
    """

    __slots__ = ("field", "dim", "parity", "unit", "rows",
                 "_descriptor", "_ungraded", "_image")

    def __init__(self, field: Field, parity: Sequence[int],
                 table: Mapping[tuple[int, int], Mapping[int, object]],
                 unit: Optional[Sequence[object]] = None) -> None:
        scalar = self._start(field, parity)
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

        self._finish(triples(), unit, scalar)

    def _start(self, field: Field, parity: Sequence[int]):
        """Set and check the field and the parity bits (``int`` 0 or 1);
        return the function that brings a value into the field, keeping one
        object per value (1 is the shared unit), parsing each string once."""
        self.field = field
        self.parity = tuple(_json_int(p, "parity bit") for p in parity)
        self.dim = len(self.parity)
        if self.dim == 0:
            raise AlgebraError("algebra needs at least one basis element")
        if any(p not in (0, 1) for p in self.parity):
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

    def _finish(self, triples: Iterable[Sequence], unit: Optional[Sequence[object]],
                scalar) -> None:
        """Read the structure constants ``(i, j, k, value)`` of ``triples``
        in one pass, refusing the first bad entry: not four items, an index
        not an ``int`` or outside ``0..dim-1`` (``(i, j)``, then ``k``), a
        triple given twice, zeros included.  Intern each value through
        ``scalar`` and drop zeros; refuse a table over the budgets
        (:func:`_check_budget`), over :data:`MAX_WORK` as soon as the walk
        reaches it.  Store row dicts of the nonzero cells (:func:`_packed`),
        set the unit, solved for when ``None``, and :meth:`validate`; the
        integral image Light's test builds stays in ``_image``."""
        dim = self.dim
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
                if (count - len(zeros)) * (largest := max(largest, len(cell))) > MAX_WORK:
                    break  # refused below, the rest unread
        _check_budget(dim, "algebra", count - len(zeros), (count - len(zeros)) * largest)
        self.rows = _packed(rows)
        if unit is None:
            unit = self._solve_unit()
            if unit is None:
                raise AlgebraError("structure table admits no two-sided unit")
        elif not hasattr(unit, "__len__"):
            raise AlgebraError(f"unit must be a list, not {type(unit).__name__}")
        elif len(unit) != self.dim:
            raise AlgebraError("unit vector has the wrong length")
        self.unit = tuple(map(scalar, unit))
        self._descriptor = self._ungraded = self._image = None
        self.validate()

    @classmethod
    def _trusted(cls, field: Field, parity: tuple[int, ...], rows: list,
                 unit: tuple[Scalar, ...]) -> "GradedAlgebra":
        """An algebra on data the library built already normalized:
        tuples ``parity`` and ``unit``, and rows of one kind whose cells
        hold nonzero values of the field's own type, exactly what
        ``__init__`` would store.  They are stored without its checks."""
        a = cls.__new__(cls)
        a.field, a.parity, a.rows, a.unit = field, parity, rows, unit
        a.dim = len(parity)
        a._descriptor = a._ungraded = a._image = None
        return a

    @property
    def table(self) -> Mapping[tuple[int, int], dict[int, Scalar]]:
        """The read-only ``{(i, j): {k: c}}`` view of :attr:`rows`."""
        return _Table(self.rows)

    # ---------------------------------------------------------------- basics

    @property
    def dim_even(self) -> int:
        return self.parity.count(0)

    @property
    def dim_odd(self) -> int:
        return self.parity.count(1)

    def degree_indices(self, p: int) -> list[int]:
        return [i for i, q in enumerate(self.parity) if q == p]

    def _check_index(self, i: int) -> None:
        if not 0 <= i < self.dim:
            raise AlgebraError(f"basis index {i} is out of range for dimension {self.dim}")

    def basis_product(self, i: int, j: int) -> dict[int, Scalar]:
        """The product ``e_i e_j`` as a sparse ``{index: coefficient}``."""
        self._check_index(i)
        self._check_index(j)
        return dict(_cell(self.rows[i], j) or {})

    def basis_vector(self, i: int) -> list[Scalar]:
        self._check_index(i)
        v = [self.field.zero()] * self.dim
        v[i] = self.field.one()
        return v

    def mul(self, x: Vector, y: Vector) -> list[Scalar]:
        """Multiply two coordinate vectors of length ``dim``: :func:`_mul_into`
        on their sparse forms."""
        if len(x) != self.dim or len(y) != self.dim:
            raise AlgebraError(f"mul takes vectors of length {self.dim}, "
                               f"not {len(x)} and {len(y)}")
        product: SparseVector = {}
        _mul_into(product, self.rows, _sparse(x), _sparse(y))
        return _dense(product, self.dim, self.field.zero())

    def _solve_unit(self) -> Optional[list[Scalar]]:
        """The two-sided unit solved from the table, or ``None``.

        ``u`` is a two-sided unit iff ``u e_j = e_j = e_j u`` for every
        ``j``: a linear system whose column ``i`` holds the cells ``(i, j)``
        on rows ``(0, j, k)`` and ``(j, i)`` on rows ``(1, j, k)``.  Its
        right-hand side is the last column of a :class:`linalg.Elimination`:
        the system is consistent exactly when that column is no pivot, and
        its kernel vector carries the solution, which is unique.
        """
        n, one = self.dim, self.field.one()
        columns: list[SparseVector] = [{} for _ in range(n)]
        for i, j, k, v in _terms(self.rows):
            columns[i][(0, j, k)] = v
            columns[j][(1, i, k)] = v
        columns.append({(side, j, j): one for side in (0, 1) for j in range(n)})
        *_, combo = map(linalg.Elimination().add, columns)
        if combo is None:
            return None  # the constants column is independent: inconsistent
        own = -self.field.coerce(combo[n])  # so each quotient is of the field
        return [_div(combo[c], own) if c in combo else self.field.zero() for c in range(n)]

    # ------------------------------------------------------------ validation

    def validate(self) -> None:
        """Full structural audit; raises :class:`AlgebraError` on failure.

        Runs :meth:`check_unit_and_grading`, then :meth:`_check_associative`
        on the integral image (:func:`_integral`), which is associative
        exactly when this algebra is, with the same failing triples.
        """
        self.check_unit_and_grading()
        _integral(self)._check_associative()

    def _check_associative(self) -> None:
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
        :meth:`_light_generators`, whose words span the algebra: ``dim**2
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
        basis, which can leave ``dim**2 / 2``.  Row dicts, and any pair of
        rows that differ, are compared as dicts of cells, which names the
        first failing triple.
        """
        rows, n = self.rows, self.dim

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
            for j in self._light_generators():
                for i in range(n):
                    check(i, j)
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
        for j in self._light_generators():
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

    def _light_generators(self) -> list[int]:
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
        n, rows = self.dim, self.rows
        generators: list[int] = []
        if type(rows[0]) is tuple:
            targets = [row[0] for row in rows]
            reached = [False] * n  # R
            loose = {i for i, u in enumerate(self.unit) if u}  # supp(u) outside R
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
        add(_sparse(self.unit))
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

    def check_unit_and_grading(self) -> None:
        """The cheap part of :meth:`validate`, run by the constructor: the
        unit is even and two-sided, and every product lands in the parity
        forced by the grading.  Raises :class:`AlgebraError`.  On monomial
        rows a one-term unit ``u e_s`` holds when row and column ``s``
        target ``0..dim-1`` with codes of ``1/u`` alone, and row ``i`` is
        graded when its targets' parities are ``p_i ^ p_j`` at its nonzero
        cells.  Other units, row dicts and failures take the cell loop:
        ``u e_j`` and ``e_j u`` add ``e_i e_j`` and ``e_j e_i`` scaled by
        each nonzero ``u_i`` (:func:`gradedbrauer.linalg._add_scaled`; the
        shared 1 multiplies nothing), then each term's parity, in order."""
        for i, u in enumerate(self.unit):
            if u and self.parity[i] == 1:
                raise AlgebraError("unit has a component in odd degree")
        rows, unit, one = self.rows, _sparse(self.unit), self.field.one()
        monomial, every = type(rows[0]) is tuple, list(range(self.dim))
        if monomial and len(unit) == 1:
            (s, u), = unit.items()
            values, inverse = rows[s][2], one if u is one else _div(one, u)
            if rows[s][0] == every == [row[0][s] for row in rows] and all(
                    values[c] == inverse for c in {*rows[s][1], *(row[1][s] for row in rows)}):
                every = []  # the unit holds: no j is left for the cell loop
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
        if monomial:  # row i's targets' parities, 2 at a zero cell's -1 and at the end
            parity, padded = self.parity, (*self.parity, 2)
            grades = [(*g, 2) for g in (parity, [p ^ 1 for p in parity])]  # p_i ^ p_j, at p_i
            if all(seen == grades[p] or 1 not in map(xor, seen, grades[p])  # 1: wrong parity
                   for p, seen in zip(parity, (itemgetter(*row[0], -1)(padded) for row in rows))):
                return
        for i, j, k, _ in _terms(self.rows):
            if self.parity[k] != self.parity[i] ^ self.parity[j]:
                raise AlgebraError(
                    f"product e_{i} e_{j} has a component of wrong parity at {k}")

    # ------------------------------------------------------------- subparts

    def even_part(self) -> "GradedAlgebra":
        """The degree-0 subalgebra, reindexed and purely even."""
        keep = self.degree_indices(0)
        if not keep:
            raise AlgebraError("algebra needs at least one basis element")
        pos = {old: new for new, old in enumerate(keep)}
        rows = _packed([{pos[j]: {pos[k]: v for k, v in cell.items()} for j in keep
                         if (cell := _cell(self.rows[i], j))} for i in keep])
        unit = tuple(self.unit[i] for i in keep)
        return GradedAlgebra._trusted(self.field, (0,) * len(keep), rows, unit)

    # ----------------------------------------------------------------- dunder

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, GradedAlgebra):
            return NotImplemented
        return (self.field.label == other.field.label
                and self.parity == other.parity
                and self.unit == other.unit
                and self.table == other.table)

    __hash__ = None  # type: ignore[assignment]

    def __repr__(self) -> str:
        return (f"GradedAlgebra(field={self.field!r}, dim={self.dim}, "
                f"dim_even={self.dim_even}, dim_odd={self.dim_odd})")

    # ------------------------------------------------------------------ JSON

    def to_json(self) -> dict:
        """Serialize with exact scalar strings and sorted sparse triples."""
        rows, render = self.rows, self.field.render
        if type(rows[0]) is tuple:  # the rows over their values rendered once each
            shown = list(map(render, rows[0][2]))
            rows, render = [(targets, codes, shown) for targets, codes, _ in rows], str
        structure = [[i, j, k, render(c)] for i, j, k, c in _terms(rows)]
        return {
            "field": self.field.label,
            "dim": self.dim,
            "parity": list(self.parity),
            "unit": [self.field.render(v) for v in self.unit],
            "structure": structure,
        }

    @classmethod
    def from_json(cls, data: Mapping) -> "GradedAlgebra":
        """Inverse of :meth:`to_json`; also accepts a dense nested table.

        ``structure`` may be the sparse triple list this class emits or
        a dense ``dim x dim x dim`` nested list.  ``unit`` may be
        omitted, in which case it is solved for.  Scalars are strings or
        integers.  An algebra above :data:`MAX_DIM`, or a ``structure`` of
        more than :data:`MAX_TERMS` triples (``dim**3`` entries for a dense
        table), is refused before its table is built.  The parity bits and
        the entries then go through the constructor's checks
        (:meth:`_start`, :meth:`_finish`), which walk a sparse
        ``structure`` once and end in :meth:`validate`, whose integral
        image the algebra keeps.
        """
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
        scalar = a._start(field, parity)
        # a dense table repeats no triple, so only its nonzero entries are
        # passed on: its up to dim**3 zeros are not kept for the repeat check
        a._finish(((i, j, k, value) for i, plane in enumerate(structure)
                   for j, fiber in enumerate(plane)
                   for k, value in enumerate(fiber) if scalar(value))
                  if dense else structure, unit, scalar)
        return a


def _json_int(value: object, what: str) -> int:
    """``value`` itself if it is an ``int`` (``dim``, a parity bit, an
    index); a float, a string or a ``True`` is refused, not truncated."""
    if type(value) is not int:
        raise AlgebraError(f"{what} must be an integer, not "
                           f"{type(value).__name__} {value!r}")
    return value


def ground_algebra(field: Field) -> GradedAlgebra:
    """The ground field itself, as a one-dimensional even algebra."""
    one = field.one()
    return GradedAlgebra._trusted(field, (0,), [([0], [0], [one])], (one,))


def end_graded(dim_even: int, dim_odd: int, field: Field = REAL) -> GradedAlgebra:
    """Endomorphisms of a graded vector space ``k^{dim_even | dim_odd}``.

    Basis: matrix units ``E_{rc}`` (row ``r``, column ``c``) in
    row-major order, with parity ``deg(r) + deg(c)`` — the checkerboard
    grading.  ``E_{rc} E_{r'c'} = [c == r'] E_{rc'}``.
    """
    if dim_even < 0 or dim_odd < 0:
        raise AlgebraError(f"negative graded dimension {dim_even}|{dim_odd}")
    n = dim_even + dim_odd
    if n == 0:
        raise AlgebraError("graded endomorphism algebra of the zero space")
    _check_budget(n * n, f"graded endomorphism algebra of k^{{{dim_even}|{dim_odd}}}")
    deg = [0] * dim_even + [1] * dim_odd
    parity = tuple(deg[r] ^ deg[c] for r in range(n) for c in range(n))
    one, zero = field.one(), field.zero()
    rows = _packed([{c * n + c2: {r * n + c2: one} for c2 in range(n)}
                    for r in range(n) for c in range(n)])
    unit = tuple(one if r == c else zero for r in range(n) for c in range(n))
    return GradedAlgebra._trusted(field, parity, rows, unit)


def _integral(a: GradedAlgebra) -> GradedAlgebra:
    """The integral image of ``a``: its table on the basis ``D e_i``, with
    ``D`` the least common denominator of the structure constants.

    ``(D e_i)(D e_j) = sum_k (D c_ij^k)(D e_k)``, so every constant ``c``
    becomes the integer ``D c``: an ``int``, or a ``GaussianRational`` with
    ``int`` parts when a constant or the unit has an imaginary part (the
    image's field is then ``COMPLEX``, and ``REAL`` otherwise).  The unit
    is ``u / D``.  Rescaling the basis is an isomorphism: the image has the
    same graded center up to scale, the same associativity failures and
    the trace form times ``D**2``, and a rational matrix has the same rank
    over the rationals and the Gaussian rationals.  So the classification
    and the certificates are decided on the image, in integer arithmetic
    with :class:`linalg.Elimination` and :func:`linalg.congruence_diagonal`.
    A constant becomes ``numerator * (D // denominator)``: for monomial
    rows each of ``values`` (coefficients up to sign, so the same ``D``),
    and the image's rows share ``a``'s target and code lists; in row dicts
    every entry.  Built on first use (for ``GradedAlgebra(...)`` and
    :meth:`GradedAlgebra.from_json`, the constructor's :meth:`validate`)
    and kept in the ``_image`` slot of ``a`` (not of the image), so it
    dies with ``a``; image scalars are never returned to a caller.
    """
    if a._image is None:
        rows, real = a.rows, a.field.is_real
        monomial = type(rows[0]) is tuple
        every = rows[0][2] if monomial else [
            c for row in rows for cell in row.values() for c in cell.values()]
        gaussian = not real and any(v.im for v in [*every, *a.unit])
        parts = every if real else [c.re for c in every] + [c.im for c in every if gaussian]
        den = lcm(*{x.denominator for x in parts})

        def integer(x: Fraction) -> int:
            return x.numerator * (den // x.denominator)

        if real:
            convert = integer
        elif gaussian:
            def convert(c: GaussianRational) -> GaussianRational:
                return _make(integer(c.re), integer(c.im))
        else:  # a complex table with real constants gets an int image
            def convert(c: GaussianRational) -> int:
                return integer(c.re)
        if monomial:
            values = list(map(convert, every))
            rows = [(targets, codes, values) for targets, codes, _ in rows]
        else:
            rows = [{j: {k: convert(c) for k, c in cell.items()} for j, cell in row.items()}
                    for row in rows]
        unit = tuple(_div(u, den) if u else u for u in (
            a.unit if real or gaussian else (u.re for u in a.unit)))
        a._image = GradedAlgebra._trusted(COMPLEX if gaussian else REAL, a.parity, rows, unit)
    return a._image


def graded_tensor(a: GradedAlgebra, b: GradedAlgebra) -> GradedAlgebra:
    """Graded tensor product, with the Koszul sign.

    Basis element ``(i, p)`` (meaning ``x_i (x) y_p``) gets index
    ``i * b.dim + p``; the product carries the sign
    ``(-1)^{|x_j| |y_p|}`` from moving ``x_j`` past ``y_p``.  A product of
    more than :data:`MAX_TERMS` structure constants (the product of the
    factors' counts) is refused before it is built.  For two monomial
    tables the list of ``a``'s values is multiplied once by ``b``'s, with
    either sign, into a table of codes of the distinct products (1 as the
    shared unit).  Row ``(i, p)`` joins ``a.dim`` blocks built once per row
    ``p`` of ``b``: its targets moved to each block ``k`` of the basis (all
    ``-1`` for a zero cell of ``a``) and its codes times each signed value
    of ``a``.  Other pairs multiply term by term.
    """
    if a.field.label != b.field.label:
        raise AlgebraError("tensor factors live over different fields")
    nb = b.dim
    terms = [sum(1 for _ in _terms(x.rows)) if type(x.rows[0]) is dict
             else sum(len(t) - t.count(-1) for t, _, _ in x.rows) for x in (a, b)]
    _check_budget(a.dim * nb, f"graded tensor product of dimensions {a.dim} and {nb}",
                  terms[0] * terms[1])
    parity = tuple(pa ^ pb for pa in a.parity for pb in b.parity)
    one, zero = a.field.one(), a.field.zero()
    if type(a.rows[0]) is dict or type(b.rows[0]) is dict \
            or 8 * terms[0] * terms[1] < (a.dim * nb) ** 2:  # as _packed decides
        rows: list[dict[int, SparseVector]] = [{} for _ in range(a.dim * nb)]
        for i, j, k, x in _terms(a.rows):
            for p, q, r, y in _terms(b.rows):
                v = -x * y if a.parity[j] & b.parity[p] else x * y
                rows[i * nb + p].setdefault(j * nb + q, {})[k * nb + r] = v
        rows = _packed(rows)
    else:
        nv = len(b.rows[0][2])  # signed[s][x][y]: the code of (-1)^s (a's value x)(b's value y)
        *signs, values = _signed_codes([one if (v := x * y) == one else v
                                        for x in a.rows[0][2] for y in b.rows[0][2]])
        signed = [[codes[x:x + nv] for x in range(0, len(codes), nv)] for codes in signs]
        rows = [None] * (a.dim * nb)
        for p, (targets_b, codes_b, _) in enumerate(b.rows):
            moved = [[k * nb + r if r >= 0 else -1 for r in targets_b] for k in range(a.dim)]
            moved.append([-1] * nb)  # moved[-1]: for a's zero cells
            scaled = [[[*map(products.__getitem__, codes_b)] for products in table]
                      for table in signed[:b.parity[p] + 1]]  # scaled[s][x]: times (-1)^s value x
            by_column = [scaled[pa & b.parity[p]] for pa in a.parity]
            for i, (targets_a, codes_a, _) in enumerate(a.rows):
                targets: list[int] = []
                codes: list[int] = []
                for k in targets_a:
                    targets += moved[k]
                for block in map(list.__getitem__, by_column, codes_a):
                    codes += block
                rows[i * nb + p] = (targets, codes, values)
    unit = tuple((one if (u := ua * ub) == one else u) if ua and ub else zero
                 for ua in a.unit for ub in b.unit)
    return GradedAlgebra._trusted(a.field, parity, rows, unit)


def opposite(a: GradedAlgebra) -> GradedAlgebra:
    """The graded opposite: ``a * b = (-1)^{|a||b|} b a`` on the same basis.

    A monomial table is transposed, with each of its values negated once
    and the codes of its odd x odd block mapped to the negations."""
    odd = [i for i, p in enumerate(a.parity) if p]
    if type(a.rows[0]) is dict:
        rows: list[dict[int, SparseVector]] = [{} for _ in range(a.dim)]
        for i, j, k, c in _terms(a.rows):
            rows[j].setdefault(i, {})[k] = -c if a.parity[i] and a.parity[j] else c
        rows = _packed(rows)
    else:
        _, flip, values = _signed_codes(a.rows[0][2])
        codes = [list(column) for column in zip(*(c for _, c, _ in a.rows))]
        for i in odd:
            row = codes[i]
            for j in odd:
                row[j] = flip[row[j]]
        rows = [(list(t), c, values) for t, c in zip(zip(*(t for t, _, _ in a.rows)), codes)]
    return GradedAlgebra._trusted(a.field, a.parity, rows, a.unit)


def graded_centralizer(a: GradedAlgebra, elements: Iterable[tuple[Vector, int]]
                       ) -> list[tuple[list[Scalar], int]]:
    """Basis of the supercommutant of ``elements`` inside ``a``.

    ``elements`` are homogeneous ``(vector, parity)`` pairs.  The result
    lists homogeneous ``(vector, parity)`` pairs ``c`` with ``c s =
    (-1)^{|c||s|} s c`` for every given ``s``, degree-0 vectors first; on
    an associative table their span is a subalgebra.  This is the
    dense front end of :func:`_supercommutant` on the integral image
    (:func:`_integral`): it checks and coerces each element, and returns
    coordinate lists, each vector divided by its entry at its last
    nonzero coordinate, the basis index it started from.
    """
    constraints = []
    for vec, par in elements:
        if par not in (0, 1):
            raise AlgebraError("constraint parity must be 0 or 1")
        if len(vec) != a.dim:
            raise AlgebraError(f"constraint element has length {len(vec)}, "
                               f"expected {a.dim}")
        for idx, v in enumerate(vec):
            if v and a.parity[idx] != par:
                raise AlgebraError("constraint element is not homogeneous")
        constraint = _sparse([a.field.coerce(v) for v in vec])
        linalg._primitive(constraint)
        constraints.append((constraint, par))
    coerce, zero = a.field.coerce, a.field.zero()
    result = []
    for v, deg in _supercommutant(_integral(a), constraints):
        start = v[max(v)]  # the entry at the basis index v started from
        result.append((_dense({i: coerce(_div(x, start)) for i, x in v.items()}, a.dim, zero),
                       deg))
    return result


def _supercommutant(a: GradedAlgebra, constraints: list[tuple[SparseVector, int]]
                    ) -> list[tuple[SparseVector, int]]:
    """:func:`graded_centralizer` on sparse vectors, over an integral image
    (:func:`_integral`).

    ``constraints`` are homogeneous ``(sparse vector, parity)`` pairs with
    coordinates in the image's scalars; the result lists sparse
    primitive ``(vector, parity)`` pairs, degree-0 vectors first.

    The kernel is intersected one constraint at a time, so each
    constraint matrix has only as many columns as the *current* kernel,
    which collapses quickly: seconds instead of hours at dimension 256.
    The column of a kernel vector ``v`` is ``v s - (-1)^{|v||s|} s v``.
    For ``v = {i: 1}`` (every kernel vector of one entry is: a combination
    of two has an entry at each one's start index) and a one-term ``s = c
    e_m`` it is ``c`` times the cell ``e_m e_i``, negated unless both are
    odd, plus ``c`` times ``e_i e_m``; otherwise the sparse ``s v``, so
    negated, plus ``v s``.  On monomial rows, while every kernel vector is
    a basis vector, the two cells are read off their targets and codes
    with no product: as ``c`` is nonzero, a column is zero exactly when
    both targets are ``-1``, or they are equal and so are the two values
    (opposite when both are odd).  Nonzero columns with pairwise disjoint
    supports are independent, so the kernel is then the vectors whose
    column is zero: the objects, in the order, that elimination keeps, as
    a zero column's kernel vector names that column alone.  On monomial
    rows the supports are disjoint exactly when one set holds as many
    targets as the nonzero columns have entries.  Row dicts, and an
    overlap, build the columns, reading the cells with :func:`_cell`.
    Otherwise the primitive kernel vectors of
    :func:`gradedbrauer.linalg.column_kernel` give the basis dense
    elimination gives, up to scale: each vector's last nonzero coordinate
    is the basis index it started from, where no other vector of its
    degree is nonzero.  Closure is not checked: in an associative algebra
    the supercommutant of homogeneous elements is a subalgebra, as ``(c
    c') s = (-1)^{(|c|+|c'|)|s|} s (c c')`` for ``c``, ``c'`` in it (Wall,
    *Graded Brauer groups*, J. reine angew. Math. 213, 1964), and every
    algebra built is associative (:meth:`GradedAlgebra._finish`).
    """
    rows = a.rows
    monomial = type(rows[0]) is tuple
    result: list[tuple[SparseVector, int]] = []
    for deg in (0, 1):
        kernel: list[SparseVector] = [{i: 1} for i in a.degree_indices(deg)]
        basis = True  # every kernel vector is a basis vector {i: 1}
        for s_vec, s_par in constraints:
            if not kernel:
                break
            flip = bool(deg and s_par)
            if one_term := len(s_vec) == 1:
                (m, c), = s_vec.items()
                signed = c if flip else -c
            if one_term and basis and monomial:
                targets, codes, values = rows[m]
                opposed = [-x for x in values] if flip else values
                kept, seen, entries = [], {-1}, 1  # -1, a zero cell's target, is one entry
                for v in kernel:
                    (i,) = v
                    k, t = targets[i], rows[i][0][m]
                    if k == t and (k < 0 or values[codes[i]] == opposed[rows[i][1][m]]):
                        kept.append(v)
                    else:
                        seen.add(k)
                        seen.add(t)
                        entries += (k >= 0) + (t >= 0) - (k == t)
                if len(seen) == entries:
                    kernel = kept
                    continue
            columns = []
            for v in kernel:
                column: SparseVector = {}
                if one_term and len(v) == 1:
                    (i,) = v
                    for cell, f in ((_cell(rows[m], i), signed), (_cell(rows[i], m), c)):
                        if cell:
                            linalg._add_scaled(column, f, cell)
                else:
                    _mul_into(column, rows, s_vec, v)
                    if not flip:
                        column = {k: -x for k, x in column.items()}
                    _mul_into(column, rows, v, s_vec)
                columns.append(column)
            if len(set().union(*columns)) == sum(map(len, columns)):
                kernel = [v for v, column in zip(kernel, columns) if not column]
                continue
            kernel = [linalg.combine(combo, kernel) for combo in linalg.column_kernel(columns)]
            basis = all(len(v) == 1 for v in kernel)
        result.extend((v, deg) for v in kernel)
    return result


def hat_center(a: GradedAlgebra) -> GradedAlgebra:
    """The graded center, in quadratic normal form.

    The result is a two-dimensional algebra ``k[z]/(z^2 - s)`` on basis
    ``(1, z)`` with ``z`` homogeneous and ``s`` scaled to ``+1`` or ``-1``
    over the real point (``+1`` over the complex point) — the scaling is
    a unit-group normal form, not an equality of algebras over the
    rationals.  Raises :class:`NotAzumayaError` when the center is not
    rank-two etale over the ground field.

    For an input with nonzero odd part this is the supercommutant of the
    degree-0 part inside the algebra itself.  For a purely even input
    ``A`` it is that of the (1|1)-stabilization ``M = End(k^{1|1}) (x)
    A``, which has the Brauer-Wall class of ``A`` (Wall, *Graded Brauer
    groups*, J. reine angew. Math. 213, 1964) and is the ``2 x 2``
    matrices over ``A``, checkerboard graded.  An element ``(y_rc)``
    commuting with ``diag(x, 0)`` and ``diag(0, x)`` for all ``x`` in
    ``A`` has ``x y_12 = 0 = y_21 x`` (at ``x = 1``: no odd part) and
    diagonal entries in the center ``Z(A)``.  So the graded center is
    ``Z(A) x Z(A)``, of rank two exactly when ``Z(A)`` is the ground field,
    and then ``k x k``, generated by the even ``diag(1, -1)`` of square
    ``+1``.  Only ``Z(A)`` is computed, and ``M`` is never built.

    With an odd part, the even unit lies in the span of the two
    centralizer vectors, and one of them, ``z``, is not proportional to
    it.  One :class:`gradedbrauer.linalg.Elimination` of ``1``, the vectors
    up to the first pivot ``z``, and ``z^2``, in ``span{1, z}`` as the
    center is a subalgebra (a pivot raises :class:`AlgebraError`), gives
    ``z^2 = alpha + beta z`` as its kernel vector ``(c0, c1, c2)``:
    ``alpha = -c0 / c2``, ``beta = -c1 / c2`` (``0`` for an odd ``z``).
    Completing the square, ``(z - beta/2)^2 = (c1^2 - 4 c0 c2) / (4
    c2^2)``, whose sign is that of ``c1^2 - 4 c0 c2``.  All of it runs on
    the integral image (:func:`_integral`), whose ``z`` is a multiple of
    this one: the square changes by a square, so its sign stays.
    """
    field, image = a.field, _integral(a)
    cent = _supercommutant(image, [({i: 1}, 0) for i in a.degree_indices(0)])
    if not a.dim_odd:  # cent is Z(A), and the graded center Z(A) x Z(A)
        if len(cent) != 1:
            raise NotAzumayaError(
                f"graded center has dimension {2 * len(cent)}, expected 2"
            )
        return _quadratic(field, 0, field.one())
    if len(cent) != 2:
        raise NotAzumayaError(
            f"graded center has dimension {len(cent)}, expected 2"
        )
    columns = linalg.Elimination()  # 1, the center vectors up to z, z^2
    columns.add(_sparse(image.unit))
    z, z_parity = next((v, p) for v, p in cent if columns.add(v) is None)
    z_sq: SparseVector = {}
    _mul_into(z_sq, image.rows, z, z)
    if (combo := columns.add(z_sq)) is None:  # a pivot: z^2 is outside span{1, z}
        raise AlgebraError("centralizer failed to close under product")
    c0, c1, c2 = (combo.get(c, 0) for c in (0, columns.added - 2, columns.added - 1))
    square = c1 * c1 - 4 * c0 * c2
    if not square:
        raise NotAzumayaError("graded center generator squares to a non-unit")
    return _quadratic(field, z_parity,
                      field.coerce(1 if square > 0 else -1) if field.is_real else field.one())


def _quadratic(field: Field, z_parity: int, square: Scalar) -> GradedAlgebra:
    """``k[z]/(z^2 - square)`` on basis ``(1, z)``, ``z`` of parity ``z_parity``."""
    one = field.one()
    rows = _packed([{0: {0: one}, 1: {1: one}}, {0: {1: one}, 1: {0: square}}])
    return GradedAlgebra._trusted(field, (0, z_parity), rows, (one, field.zero()))


def is_azumaya(a: GradedAlgebra) -> bool:
    """Whether ``a`` is graded central simple (graded Azumaya over the point).

    Decided on ``dim x dim`` data by two exact facts, each a certificate:

    * the regular trace form (:func:`trace_gram`) is nondegenerate: its
      :func:`~gradedbrauer.linalg.congruence_diagonal` has ``dim``
      entries.  Over a field of characteristic 0 its radical is the
      Jacobson radical (Dieudonné), so this means ``a`` is semisimple; and
    * the supercenter, the supercommutant of the whole basis, is the
      ground field.  A semisimple graded algebra is a product of graded
      simple factors, and it is graded central simple exactly when its
      supercenter is the ground field (Wall, *Graded Brauer groups*, J.
      reine angew. Math. 213, 1964).

    Together they say that the sandwich map ``a (x) a^op -> End(a)``,
    ``x (x) y -> (c -> (-1)^{|y||c|} x c y)``, is bijective, as every
    algebra built is associative.  Both are decided on the integral image
    (:func:`_integral`).
    """
    image = _integral(a)
    if len(linalg.congruence_diagonal(trace_gram(image))) < a.dim:
        return False
    basis = [({i: 1}, p) for i, p in enumerate(a.parity)]
    return len(_supercommutant(image, basis)) == 1


def trace_gram(a: GradedAlgebra, indices: Optional[Sequence[int]] = None
               ) -> dict[int, dict[int, Scalar]]:
    """Gram matrix of the regular trace form ``(x, y) -> tr(L_{xy})``.

    Returned as sparse rows ``{i: {j: tr(L_{e_i e_j})}}`` holding only
    the nonzero entries (a zero row is absent); it is symmetric when
    ``a`` is associative.  Uses ``tr(L_{e_i e_j}) = sum_m c_{ij}^m
    tr(L_{e_m})``: one pass takes the traces of the basis
    left-multiplications, a second the cells whose targets have one.

    With ``indices``, basis indices whose span is a subalgebra ``B``
    (such as ``a.degree_indices(0)``, the even part), it is the trace form
    of ``B``, read in place: both passes visit only the rows and columns
    in ``indices``, which rows and columns keep.

    A monomial table with a one-term unit ``u e_s``, whose row and column
    ``s`` target ``0..dim-1``, is read as a group law when each row ``i``
    kept holds ``s`` at a column ``j`` kept: Gram row ``i`` is ``{j: v_ij
    tr(L_{e_s})}``.  Exact when ``a`` is associative (every algebra built
    is): each such ``e_i`` is right-invertible, so invertible and no cell
    is zero; the targets form a group, ``tr(L_{e_m}) = 0`` for ``m != s``
    and ``j = i^-1`` is unique.  Clifford algebras and their tensors,
    opposites and even parts are twisted group algebras of ``(Z/2)^n``
    (Albuquerque and Majid, J. Pure Appl. Algebra 171, 2002).
    """
    rows = a.rows
    keep = range(a.dim) if indices is None else indices
    inside = keep if indices is None else set(indices)
    monomial = type(rows[0]) is tuple
    values = rows[0][2] if monomial else None
    support = [i for i, u in enumerate(a.unit) if u]
    if monomial and len(support) == 1:  # one Gram entry a row, or the two passes
        (s,), (targets, codes, _) = support, rows[support[0]]
        if targets == list(range(a.dim)) == [row[0][s] for row in rows] \
                and (trace := sum(values[codes[c]] for c in keep)):
            try:  # the j of e_i e_j = v_ij e_s, for each i
                inverse = {i: rows[i][0].index(s) for i in keep}
                if all(j in inside for j in inverse.values()):
                    return {i: {j: values[rows[i][1][j]] * trace} for i, j in inverse.items()}
            except ValueError:  # a row without s: the two passes below
                pass
    traces: dict[int, Scalar] = {}
    for m in keep:
        row = rows[m]
        if monomial:
            terms = [values[row[1][c]] for c in keep if row[0][c] == c]
        else:
            terms = [cell[c] for c, cell in row.items() if c in inside and c in cell]
        if terms and (t := sum(terms)):
            traces[m] = t
    gram: dict[int, dict[int, Scalar]] = {}
    for i in keep:
        row = rows[i]
        if monomial:  # a cell that meets no nonzero trace costs no scalar work
            entries = {j: values[row[1][j]] * traces[k] for j in keep if (k := row[0][j]) in traces}
        else:
            entries = {j: acc for j, cell in row.items() if j in inside and (
                p := [c * traces[m] for m, c in cell.items() if m in traces])
                and (acc := sum(p))}
        if entries:
            gram[i] = entries
    return gram


def trace_signature(a: GradedAlgebra) -> int:
    """Signature (positives minus negatives) of the regular trace form.

    Only defined over the real point; the complex point has no signs.
    """
    if not a.field.is_real:
        raise AlgebraError("trace signature is only defined over the real point")
    diagonal = linalg.congruence_diagonal(trace_gram(_integral(a)))
    return sum(1 if d > 0 else -1 for d in diagonal)
