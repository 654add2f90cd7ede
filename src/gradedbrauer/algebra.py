"""Finite-dimensional Z/2-graded algebras given by structure constants.

An algebra lives over one of the two ground-field contexts from
:mod:`gradedbrauer.scalars` and is described by a homogeneous basis:
a parity bit per basis index, a sparse table of structure constants,
and the coordinates of the unit.  All graded constructions follow the
Koszul sign rule; the conventions are spelled out where they matter:

* graded tensor product:  ``(a (x) b)(a' (x) b') = (-1)^{|a'||b|} (aa' (x) bb')``
* graded opposite:        ``a * b = (-1)^{|a||b|} b a``
* sandwich representation, the test suite's reference oracle for
  :func:`is_azumaya`: ``phi(a (x) b)(c) = (-1)^{|b||c|} a c b``
* graded commutation (supercommutant): ``c s = (-1)^{|c||s|} s c``

The structure table is sparse — ``table[(i, j)]`` maps result index
``k`` to the coefficient of ``e_k`` in ``e_i e_j`` and absent cells are
zero — because dense ``dim**3`` tensors stop being practical right
where the interesting examples start (dim 256 means 16.7 million
entries).

Elements are sparse too: on the classification path (:func:`hat_center`,
:func:`is_azumaya`, the trace form) a vector is a dict ``{index: coeff}``
of its nonzero coordinates and a matrix a dict of such rows, products
(:func:`_mul_into`) visit only nonzero terms, and kernels come from the
sparse column elimination of :class:`gradedbrauer.linalg.Elimination`.
On Clifford and graded matrix algebras, where every cell holds one term,
a product of basis vectors is one dict entry instead of a ``dim``-long
list.  The public interface stays dense: :meth:`GradedAlgebra.mul` and
:func:`graded_centralizer` take and return coordinate lists.
"""

from __future__ import annotations

from fractions import Fraction
from operator import mul, truediv
from typing import Iterable, Mapping, Optional, Sequence, Union

from . import linalg
from .scalars import (_GAUSSIAN_ONE, _ONE, COMPLEX, Field, GaussianRational,
                      REAL, field_from_label)

Scalar = Union[Fraction, GaussianRational]
Vector = Sequence[Scalar]
SparseVector = dict[int, Scalar]

# The largest dimension :func:`gradedbrauer.clifford.clifford`,
# :func:`end_graded` and :func:`graded_tensor` build, and the largest
# algebra :meth:`GradedAlgebra.from_json` reads.  Measured with CLI
# ``invariants`` on one CPU: the rank-10 Clifford algebra (dim 1024, a
# million structure cells) takes about 3.5 s and 395 MB peak RSS, and
# each step in rank quadruples the table.
MAX_DIM = 1024


def _sparse(vec: Vector) -> SparseVector:
    """The nonzero coordinates of a dense vector, as ``{index: coeff}``."""
    return {i: v for i, v in enumerate(vec) if v}


def _dense(vec: SparseVector, dim: int, zero: Scalar) -> list[Scalar]:
    out = [zero] * dim
    for i, v in vec.items():
        out[i] = v
    return out


def _mul_into(acc: SparseVector, table, x: SparseVector, y: SparseVector) -> None:
    """Add ``x y`` into ``acc``, in place.

    ``x`` and ``y`` are sparse vectors without zeros and ``table`` a
    structure table (whose cells hold no zeros); entries of ``acc`` that
    cancel are removed, so the work is proportional to the nonzero
    terms, not to ``dim``.  A coordinate that *is* the field's shared
    unit (:meth:`~gradedbrauer.scalars.Field.one`; an identity test,
    never ``==``) is not multiplied: ``x_i y_j`` is then the other
    coordinate itself, and :func:`gradedbrauer.linalg._add_scaled` skips
    a unit factor the same way.
    """
    for i, xi in x.items():
        x_unit = xi is _ONE or xi is _GAUSSIAN_ONE
        for j, yj in y.items():
            cell = table.get((i, j))
            if cell:
                f = yj if x_unit else (
                    xi if yj is _ONE or yj is _GAUSSIAN_ONE else xi * yj)
                linalg._add_scaled(acc, f, cell)


class AlgebraError(ValueError):
    """Malformed algebra data, or a computation's preconditions failed."""


class NotAzumayaError(AlgebraError):
    """The graded center did not come out rank-two etale.

    Raised by :func:`hat_center` when the supercommutant it extracts is
    not two-dimensional with an invertible quadratic generator — the
    signature of an input outside the graded Azumaya class this package
    classifies.
    """


def _check_budget(dim: int, what: str) -> None:
    """Refuse, before any table is built, an algebra above :data:`MAX_DIM`."""
    if dim > MAX_DIM:
        raise AlgebraError(f"{what} has dimension {dim}, above the size "
                           f"budget MAX_DIM = {MAX_DIM}")


class GradedAlgebra:
    """A unital Z/2-graded algebra over the real or complex point.

    Parameters
    ----------
    field:
        ``REAL`` or ``COMPLEX`` from :mod:`gradedbrauer.scalars`.
    parity:
        One bit per basis index; degree-0 indices first is conventional
        but not required.
    table:
        ``{(i, j): {k: coefficient}}`` sparse structure constants.
        Zero coefficients and empty cells may be omitted.
    unit:
        Coordinates of the multiplicative unit.  When omitted, the unit
        is solved for from the table (and its absence is an error).

    Construction normalizes scalars into the field, drops zeros and runs
    :meth:`check_unit_and_grading`, so every algebra built here has a
    true, even unit and a table that respects the grading.  It does
    *not* verify associativity — call :meth:`validate` for the full
    audit, which checks associativity on ``dim**2 * r`` basis triples
    for ``r`` generators of the algebra (Light's test).
    The library's own constructors
    (:func:`gradedbrauer.clifford.clifford`, :func:`end_graded`,
    :func:`graded_tensor`, :func:`opposite`, ...) build normalized tables
    and skip this pass through :meth:`_trusted`.

    An algebra must not be mutated after construction: its classification
    (the graded-center descriptor and the division type read by
    :mod:`gradedbrauer.invariants`) is computed at most once per instance
    and kept in the ``_descriptor`` and ``_ungraded`` slots.
    """

    __slots__ = ("field", "dim", "parity", "unit", "table",
                 "_descriptor", "_ungraded")

    def __init__(self, field: Field, parity: Sequence[int],
                 table: Mapping[tuple[int, int], Mapping[int, object]],
                 unit: Optional[Sequence[object]] = None) -> None:
        self.field = field
        self.parity = tuple(int(p) for p in parity)
        self.dim = len(self.parity)
        if self.dim == 0:
            raise AlgebraError("algebra needs at least one basis element")
        if any(p not in (0, 1) for p in self.parity):
            raise AlgebraError("parity bits must be 0 or 1")
        dim, coerce = self.dim, field.coerce
        norm: dict[tuple[int, int], dict[int, Scalar]] = {}
        for (i, j), cell in table.items():
            if not (0 <= i < dim and 0 <= j < dim):
                raise AlgebraError(f"structure index ({i}, {j}) out of range")
            clean: dict[int, Scalar] = {}
            for k, value in cell.items():
                if not 0 <= k < dim:
                    raise AlgebraError(f"structure index {k} out of range")
                v = coerce(value)
                if v:
                    clean[k] = v
            if clean:
                norm[(i, j)] = clean
        self.table = norm
        if unit is None:
            solved = self._solve_unit()
            if solved is None:
                raise AlgebraError("structure table admits no two-sided unit")
            self.unit = tuple(solved)
        else:
            if len(unit) != self.dim:
                raise AlgebraError("unit vector has the wrong length")
            self.unit = tuple(field.coerce(v) for v in unit)
        self._descriptor = self._ungraded = None
        self.check_unit_and_grading()

    @classmethod
    def _trusted(cls, field: Field, parity: tuple[int, ...],
                 table: dict[tuple[int, int], dict[int, Scalar]],
                 unit: tuple[Scalar, ...]) -> "GradedAlgebra":
        """An algebra on data the library built already normalized.

        ``parity`` and ``unit`` are tuples, and every cell of ``table`` is
        a nonempty dict of nonzero values of the field's own type: exactly
        what ``__init__`` would store.  They are stored as given, without
        its checks.
        """
        a = cls.__new__(cls)
        a.field, a.parity, a.table, a.unit = field, parity, table, unit
        a.dim = len(parity)
        a._descriptor = a._ungraded = None
        return a

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
        return dict(self.table.get((i, j), {}))

    def basis_vector(self, i: int) -> list[Scalar]:
        self._check_index(i)
        v = [self.field.zero()] * self.dim
        v[i] = self.field.one()
        return v

    def mul(self, x: Vector, y: Vector) -> list[Scalar]:
        """Multiply two coordinate vectors through the structure table.

        Only the nonzero coordinates of ``x`` and ``y`` are visited: the
        product is :func:`_mul_into` on their sparse forms.  Both must have
        length ``dim``.
        """
        if len(x) != self.dim or len(y) != self.dim:
            raise AlgebraError(f"mul takes vectors of length {self.dim}, "
                               f"not {len(x)} and {len(y)}")
        product: SparseVector = {}
        _mul_into(product, self.table, _sparse(x), _sparse(y))
        return _dense(product, self.dim, self.field.zero())

    def _solve_unit(self) -> Optional[list[Scalar]]:
        """The two-sided unit solved from the table, or ``None``.

        ``u`` is a two-sided unit iff ``u e_j = e_j`` and ``e_j u = e_j``
        for every ``j``; both families are linear in ``u``'s coordinates.
        Column ``i`` of that system holds the cells ``(i, j)`` on rows
        ``(0, j, k)`` and the cells ``(j, i)`` on rows ``(1, j, k)``, so
        the columns carry the table's nonzeros and nothing else.  The
        right-hand side is the last column of a :class:`linalg.Elimination`:
        the system is consistent exactly when that column is no pivot, and
        its kernel vector carries the solution.  A two-sided unit is
        unique, so any solution is the unit.
        """
        n, one = self.dim, self.field.one()
        columns: list[SparseVector] = [{} for _ in range(n)]
        for (i, j), cell in self.table.items():
            for k, v in cell.items():
                columns[i][(0, j, k)] = v
                columns[j][(1, i, k)] = v
        columns.append({(side, j, j): one for side in (0, 1) for j in range(n)})
        *_, combo = map(linalg.Elimination(one).add, columns)
        if combo is None:
            return None  # the constants column is independent: inconsistent
        return [-combo[c] if c in combo else self.field.zero() for c in range(n)]

    # ------------------------------------------------------------ validation

    def validate(self) -> None:
        """Full structural audit; raises :class:`AlgebraError` on failure.

        Runs :meth:`check_unit_and_grading`, then Light's associativity
        test (Clifford & Preston, *The Algebraic Theory of Semigroups* I,
        AMS 1961, section 1.2).  The elements ``y`` with ``(x y) z =
        x (y z)`` for all ``x, z`` form a subspace ``S`` that holds the
        unit and is closed under the product: for ``y, w`` in ``S``,

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
        Clifford algebra and ``2m - 1`` for graded ``m x m`` matrices; at
        worst it is the whole basis.  For each pair ``i, j`` both sides are
        compared as whole rows ``k -> e_i e_j e_k``; when ``e_i e_j = c e_t``
        the left row is the table's row ``t`` and only the right one is
        divided by ``c``, so a table with one term per cell costs one dict
        entry per triple.
        """
        self.check_unit_and_grading()
        n = self.dim
        # Every scalar in ``rows`` is interned: equal values are one object,
        # so equal cells compare by identity rather than through the scalar
        # type's __eq__, and products and quotients are memoized on the ids
        # of their operands.  Only objects alive until return (table values,
        # ``one`` and the members of ``canon``) are keyed by id.
        canon: dict[Scalar, Scalar] = {}
        by_id: dict[int, Scalar] = {}
        results: dict[tuple[object, int, int], Scalar] = {}

        def interned(v: Scalar) -> Scalar:
            c = by_id.get(id(v))
            if c is None:
                c = by_id[id(v)] = canon.setdefault(v, v)
            return c

        def apply(op, c: Scalar, v: Scalar) -> Scalar:
            # op(c, v), interned, for interned c and v
            key = (op, id(c), id(v))
            p = results.get(key)
            if p is None:
                p = op(c, v)
                p = results[key] = canon.setdefault(p, p)
            return p

        one = interned(self.field.one())
        rows: list[dict[int, dict[int, Scalar]]] = [{} for _ in range(n)]
        for (i, k), cell in self.table.items():
            # a cell whose scalars are interned already is used as it is
            rows[i][k] = cell if all(interned(v) is v for v in cell.values()) \
                else {m: interned(v) for m, v in cell.items()}

        for j in self._light_generators():
            # e_j e_k = d e_s for the one-term cells, grouped by d
            monomial: dict[int, tuple[Scalar, list[tuple[int, int]]]] = {}
            general = []
            for k, cell in rows[j].items():
                if len(cell) == 1:
                    (s, d), = cell.items()
                    monomial.setdefault(id(d), (d, []))[1].append((k, s))
                else:
                    general.append((k, cell))
            for i in range(n):
                # lhs: k -> (e_i e_j) e_k / c, where c is the coefficient
                # of a one-term e_i e_j, so that lhs is a row of the table
                left = rows[i].get(j)
                c = one
                if not left:
                    lhs: dict[int, dict[int, Scalar]] = {}
                elif len(left) == 1:
                    (t, c), = left.items()
                    lhs = rows[t]
                else:
                    lhs = {}
                    for t, b in left.items():
                        for k, cell in rows[t].items():
                            linalg._add_scaled(lhs.setdefault(k, {}), b, cell)
                    lhs = {k: acc for k, acc in lhs.items() if acc}
                # rhs: k -> e_i (e_j e_k) / c
                row, rhs = rows[i], {}
                for d, pairs in monomial.values():
                    e = d if c is one else apply(truediv, d, c)
                    if e is one:
                        rhs.update({k: row[s] for k, s in pairs if s in row})
                    else:
                        rhs.update({k: {m: apply(mul, e, v) for m, v in row[s].items()}
                                    for k, s in pairs if s in row})
                for k, cell in general:
                    acc = {}
                    for s, d in cell.items():
                        if s in row:
                            e = d if c is one else apply(truediv, d, c)
                            linalg._add_scaled(acc, e, row[s])
                    if acc:
                        rhs[k] = acc
                if lhs != rhs:
                    k = min(k for k in lhs.keys() | rhs.keys()
                            if lhs.get(k) != rhs.get(k))
                    raise AlgebraError(
                        f"associativity fails on basis triple ({i}, {j}, {k})"
                    )

    def _light_generators(self) -> list[int]:
        """Basis indices whose words, with the unit, span the algebra.

        Indices are taken in order; one already in the span of the words
        found so far is skipped, any other becomes a generator, and the
        span is closed again under right multiplication by every
        generator.  Each word is the product, in this table
        (:func:`_mul_into`), of a word and a generator; a candidate extends
        the span exactly when it is a pivot of one :class:`linalg.Elimination`.
        The unit must already be checked.
        """
        n, table, one = self.dim, self.table, self.field.one()
        elimination = linalg.Elimination(one)
        pivots, add = elimination.pivots, elimination.add  # None: a new pivot
        words = [_sparse(self.unit)]
        add(words[0])
        generators: list[int] = []
        for j in range(n):
            word = {j: one}
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
                _mul_into(product, table, w, {g: one})
                if add(product) is None:
                    words.append(product)
                    pending += [(product, h) for h in generators]
        return generators

    def check_unit_and_grading(self) -> None:
        """The cheap part of :meth:`validate`, run by the constructor: the
        unit is even and two-sided, and every product lands in the parity
        forced by the grading.  Raises :class:`AlgebraError`.

        The products ``u e_j`` and ``e_j u`` visit only the unit's
        nonzero coordinates (:func:`_mul_into`)."""
        for i, u in enumerate(self.unit):
            if u and self.parity[i] == 1:
                raise AlgebraError("unit has a component in odd degree")
        unit, one = _sparse(self.unit), self.field.one()
        for j in range(self.dim):
            ej = {j: one}
            left: SparseVector = {}
            right: SparseVector = {}
            _mul_into(left, self.table, unit, ej)
            _mul_into(right, self.table, ej, unit)
            if left != ej or right != ej:
                raise AlgebraError(f"unit fails on basis element {j}")
        for (i, j), cell in self.table.items():
            want = self.parity[i] ^ self.parity[j]
            for k in cell:
                if self.parity[k] != want:
                    raise AlgebraError(
                        f"product e_{i} e_{j} has a component of wrong parity at {k}"
                    )

    # ------------------------------------------------------------- subparts

    def even_part(self) -> "GradedAlgebra":
        """The degree-0 subalgebra, reindexed and purely even."""
        keep = self.degree_indices(0)
        if not keep:
            raise AlgebraError("algebra needs at least one basis element")
        pos = {old: new for new, old in enumerate(keep)}
        table: dict[tuple[int, int], dict[int, Scalar]] = {}
        for a, i in enumerate(keep):
            for b, j in enumerate(keep):
                cell = self.table.get((i, j))
                if not cell:
                    continue
                table[(a, b)] = {pos[k]: v for k, v in cell.items()}
        unit = tuple(self.unit[i] for i in keep)
        return GradedAlgebra._trusted(self.field, (0,) * len(keep), table, unit)

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
        structure = []
        for (i, j) in sorted(self.table):
            cell = self.table[(i, j)]
            for k in sorted(cell):
                structure.append([i, j, k, self.field.render(cell[k])])
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
        integers.  An algebra above :data:`MAX_DIM` is refused before its
        table is built.  The constructor checks the unit and the grading
        (:meth:`check_unit_and_grading`); associativity is not checked.
        """
        if not isinstance(data, Mapping):
            raise AlgebraError("algebra JSON must be an object, not "
                               f"{type(data).__name__}")
        try:
            label = data["field"]
            parity = data["parity"]
            structure = data["structure"]
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
        for p in parity:
            _json_int(p, "parity bit")
        dim = _json_int(data.get("dim", len(parity)), "dim")
        if dim != len(parity):
            raise AlgebraError("dim does not match the length of parity")
        _check_budget(dim, "algebra read from JSON")
        table: dict[tuple[int, int], dict[int, object]] = {}
        # Sparse entries are flat [i, j, k, value] rows; a dense table nests
        # lists two deep before reaching scalars.  structure[0][0] separates
        # the two shapes unambiguously.
        dense = bool(structure) and isinstance(structure[0], list) \
            and bool(structure[0]) and isinstance(structure[0][0], list)
        if dense:
            # every plane and every fiber a list of dim entries (not a string)
            if not (len(structure) == dim and all(
                    isinstance(plane, (list, tuple)) and len(plane) == dim
                    and all(isinstance(fiber, (list, tuple)) and len(fiber) == dim
                            for fiber in plane)
                    for plane in structure)):
                raise AlgebraError("dense structure table has the wrong shape")
            for i, plane in enumerate(structure):
                for j, fiber in enumerate(plane):
                    table[(i, j)] = dict(enumerate(fiber))
        else:
            for entry in structure:
                if not isinstance(entry, (list, tuple)) or len(entry) != 4:
                    raise AlgebraError(f"bad structure triple {entry!r}")
                i, j, k, value = entry
                for index in (i, j, k):
                    _json_int(index, "structure index")
                cell = table.setdefault((i, j), {})
                if k in cell:
                    raise AlgebraError(f"duplicate structure triple ({i}, {j}, {k})")
                cell[k] = value
        return cls(field, parity, table, unit)


def _json_int(value: object, what: str) -> int:
    """``value`` itself if it is a JSON integer; a float or a ``true`` is
    refused rather than truncated."""
    if type(value) is not int:
        raise AlgebraError(f"{what} must be an integer, not "
                           f"{type(value).__name__} {value!r}")
    return value


def ground_algebra(field: Field) -> GradedAlgebra:
    """The ground field itself, as a one-dimensional even algebra."""
    one = field.one()
    return GradedAlgebra._trusted(field, (0,), {(0, 0): {0: one}}, (one,))


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
    one = field.one()
    table: dict[tuple[int, int], dict[int, Scalar]] = {}
    for r in range(n):
        for c in range(n):
            for c2 in range(n):
                table[(r * n + c, c * n + c2)] = {r * n + c2: one}
    zero = field.zero()
    unit = tuple(one if r == c else zero for r in range(n) for c in range(n))
    return GradedAlgebra._trusted(field, parity, table, unit)


def graded_tensor(a: GradedAlgebra, b: GradedAlgebra) -> GradedAlgebra:
    """Graded tensor product, with the Koszul sign.

    Basis element ``(i, p)`` (meaning ``x_i (x) y_p``) gets index
    ``i * b.dim + p``; the product carries the sign
    ``(-1)^{|x_j| |y_p|}`` from moving ``x_j`` past ``y_p``.

    Each ``±ca cb`` is computed once per pair of distinct values and
    shared by every cell that needs it: the factors' scalars are first
    interned by value (one hash per factor entry), and the memo is keyed
    by the ids of the interned objects, which ``canon`` keeps alive.  So
    it holds at most ``2 x`` (distinct values of ``a``) ``x`` (distinct
    values of ``b``) entries, whether or not the factors share objects.
    ``canon`` starts with the field's unit: an entry equal to 1 is the
    shared one, which :func:`_mul_into` does not multiply by.
    """
    if a.field.label != b.field.label:
        raise AlgebraError("tensor factors live over different fields")
    nb = b.dim
    _check_budget(a.dim * nb, f"graded tensor product of dimensions {a.dim} and {nb}")
    parity = tuple(pa ^ pb for pa in a.parity for pb in b.parity)
    one = a.field.one()
    canon: dict[Scalar, Scalar] = {one: one}  # each value's one object
    products: dict[tuple[int, int, int], Scalar] = {}
    table: dict[tuple[int, int], dict[int, Scalar]] = {}

    def interned(cell, scale):  # (scale k, the value's one object, its id)
        return [(k * scale, (c := canon.setdefault(v, v)), id(c))
                for k, v in cell.items()]

    cells_b = [(p, q, b.parity[p], interned(cell_b, 1))
               for (p, q), cell_b in b.table.items()]
    for (i, j), cell_a in a.table.items():
        sign_needed = a.parity[j]
        items_a = interned(cell_a, nb)
        for p, q, parity_p, items_b in cells_b:
            flip = sign_needed & parity_p
            cell: dict[int, Scalar] = {}
            for k, ca, id_a in items_a:
                for r, cb, id_b in items_b:
                    key = (id_a, id_b, flip)
                    v = products.get(key)
                    if v is None:
                        v = -(ca * cb) if flip else ca * cb
                        v = products[key] = canon.setdefault(v, v)
                    cell[k + r] = v
            table[(i * nb + p, j * nb + q)] = cell
    unit = tuple(canon.setdefault(u := ua * ub, u) for ua in a.unit for ub in b.unit)
    return GradedAlgebra._trusted(a.field, parity, table, unit)


def opposite(a: GradedAlgebra) -> GradedAlgebra:
    """The graded opposite: ``a * b = (-1)^{|a||b|} b a`` on the same basis.

    A cell that keeps its sign is ``a``'s own dict, shared (an algebra is
    never mutated after construction), and each distinct scalar object
    is negated once; a negated -1 is the field's shared unit."""
    one = a.field.one()
    negated: dict[int, Scalar] = {}  # id(v) -> -v, for v alive in a.table
    table: dict[tuple[int, int], dict[int, Scalar]] = {}
    for (i, j), cell in a.table.items():
        if a.parity[i] and a.parity[j]:  # entries are nonzero: `or` means a miss
            cell = {k: negated.get(id(v)) or negated.setdefault(
                        id(v), one if (m := -v) == one else m)
                    for k, v in cell.items()}
        table[(j, i)] = cell
    return GradedAlgebra._trusted(a.field, a.parity, table, a.unit)


def graded_centralizer(a: GradedAlgebra, elements: Iterable[tuple[Vector, int]]
                       ) -> list[tuple[list[Scalar], int]]:
    """Basis of the supercommutant of ``elements`` inside ``a``.

    ``elements`` are homogeneous ``(vector, parity)`` pairs.  The result
    lists homogeneous ``(vector, parity)`` pairs ``c`` with
    ``c s = (-1)^{|c||s|} s c`` for every given ``s``, degree-0 vectors
    first; a span not closed under the product raises AlgebraError.
    This is the dense front end of :func:`_supercommutant`: it checks
    that each element has length ``dim`` and is homogeneous of its
    parity, coerces its coordinates into the field, and returns
    coordinate lists.
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
        constraints.append((_sparse([a.field.coerce(v) for v in vec]), par))
    zero = a.field.zero()
    return [(_dense(v, a.dim, zero), deg)
            for v, deg in _supercommutant(a, constraints)]


def _supercommutant(a: GradedAlgebra, constraints: list[tuple[SparseVector, int]]
                    ) -> list[tuple[SparseVector, int]]:
    """:func:`graded_centralizer` on sparse vectors.

    ``constraints`` are homogeneous ``(sparse vector, parity)`` pairs with
    coordinates already in the field; the result lists sparse ``(vector,
    parity)`` pairs, degree-0 vectors first.

    The kernel is intersected one constraint at a time: each constraint
    matrix has only as many columns as the *current* kernel dimension,
    which collapses quickly for the algebras that matter here — that is
    the difference between seconds and hours at dimension 256.  The
    column of a kernel vector ``v`` is ``v s - (-1)^{|v||s|} s v``: the
    sparse ``s v``, negated as a whole unless both are odd, plus ``v s``,
    so neither product multiplies by a shared unit (:func:`_mul_into`).
    :func:`gradedbrauer.linalg.column_kernel` eliminates the columns one
    at a time.  On a table with one term per cell (Clifford and graded
    matrix algebras) a column is a single term, so the cost follows the
    nonzeros instead of ``dim`` times the kernel size.  The basis is the
    one dense elimination gives, so the result does not depend on the
    representation.  Closure is one more
    :class:`gradedbrauer.linalg.Elimination`, of the basis and then of each
    pairwise product as it is made: :class:`AlgebraError` is raised at the
    first product that is a pivot, outside the span.
    """
    one = a.field.one()
    result: list[tuple[SparseVector, int]] = []
    for deg in (0, 1):
        kernel: list[SparseVector] = [{i: one} for i in a.degree_indices(deg)]
        for s_vec, s_par in constraints:
            if not kernel:
                break
            flip = bool(deg and s_par)
            columns = []
            for v in kernel:
                column: SparseVector = {}
                _mul_into(column, a.table, s_vec, v)
                if not flip:
                    column = {k: -c for k, c in column.items()}
                _mul_into(column, a.table, v, s_vec)
                columns.append(column)
            kernel = [linalg.combine(combo, kernel)
                      for combo in linalg.column_kernel(columns, one)]
        result.extend((v, deg) for v in kernel)
    if len(result) < a.dim:
        span = [v for v, _ in result]
        add = linalg.Elimination(one).add
        for v in span:
            add(v)
        for u in span:
            for v in span:
                product: SparseVector = {}
                _mul_into(product, a.table, u, v)
                if add(product) is None:
                    raise AlgebraError("centralizer failed to close under product")
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
    ``A`` the graded center is defined through the (1|1)-stabilization
    ``M = End(k^{1|1}) (x) A``, which has the Brauer-Wall class of ``A``
    (Wall, *Graded Brauer groups*, J. reine angew. Math. 213, 1964), but
    ``M`` is never built.  With ``A`` purely even no Koszul sign arises,
    so ``M`` is the ``2 x 2`` matrices over ``A`` with the checkerboard
    grading: the even part is the diagonal ``A x A`` and the odd part
    the off-diagonal.  An element ``y = (y_rc)`` that commutes with
    ``diag(x, 0)`` and ``diag(0, x)`` for all ``x`` in ``A`` has
    ``x y_12 = 0 = y_21 x`` (so, at ``x = 1``, no odd part) and diagonal
    entries in the center ``Z(A)``.  The graded center is therefore
    ``Z(A) x Z(A)``, purely even of dimension ``2 dim Z(A)``.  It is
    rank two exactly when ``Z(A)`` is the ground field, and then it is
    ``k x k``, generated by the even ``diag(1, -1)`` of square ``+1``:
    the split normal form over both points.  So only ``Z(A)``, the
    commutant of ``A``'s basis, is computed (with the closure check),
    and a failure reports the dimension ``2 dim Z(A)``.

    With an odd part, the generator is read one way for both parities.
    The unit (checked by the constructor) is even and commutes with
    everything, so it lies in the span of the two centralizer vectors,
    and one of them, ``z``, is not proportional to it.  The closure check
    puts ``z^2`` in that span: ``z^2 = alpha + beta z``, read off the one
    kernel vector ``(-alpha, -beta, 1)`` of the columns ``(1, z, z^2)``.
    For an odd ``z`` the even ``z^2`` forces ``beta = 0``.
    """
    field = a.field
    one = field.one()
    cent = _supercommutant(a, [({i: one}, 0) for i in a.degree_indices(0)])
    if not a.dim_odd:  # cent is Z(A), and the graded center Z(A) x Z(A)
        if len(cent) != 1:
            raise NotAzumayaError(
                f"graded center has dimension {2 * len(cent)}, expected 2"
            )
        return _quadratic(field, 0, one)
    if len(cent) != 2:
        raise NotAzumayaError(
            f"graded center has dimension {len(cent)}, expected 2"
        )
    unit = _sparse(a.unit)
    z, z_parity = next((v, p) for v, p in cent if not linalg.column_kernel([unit, v], one))
    z_sq: SparseVector = {}
    _mul_into(z_sq, a.table, z, z)
    (combo,) = linalg.column_kernel([unit, z, z_sq], one)
    alpha = -combo.get(0, field.zero())
    beta = -combo.get(1, field.zero())
    # Complete the square: (z - beta/2)^2 = alpha + beta^2/4.
    lam = alpha + beta * beta * Fraction(1, 4)
    if not lam:
        raise NotAzumayaError("graded center generator squares to a non-unit")
    return _quadratic(field, z_parity,
                      field.coerce(field.sign(lam)) if field.is_real else one)


def _quadratic(field: Field, z_parity: int, square: Scalar) -> GradedAlgebra:
    """``k[z]/(z^2 - square)`` on basis ``(1, z)``, ``z`` of parity ``z_parity``."""
    one = field.one()
    table = {
        (0, 0): {0: one},
        (0, 1): {1: one},
        (1, 0): {1: one},
        (1, 1): {0: square},
    }
    return GradedAlgebra._trusted(field, (0, z_parity), table, (one, field.zero()))


def is_azumaya(a: GradedAlgebra) -> bool:
    """Whether ``a`` is graded central simple (graded Azumaya over the point).

    Decided on ``dim x dim`` data by two exact facts, each a certificate:

    * the regular trace form (:func:`trace_gram`) is nondegenerate: its
      :func:`~gradedbrauer.linalg.congruence_diagonal` has ``dim``
      entries.  Over a field of characteristic 0 its radical is the
      Jacobson radical (Dieudonné), so this means ``a`` is semisimple; and
    * the supercenter, the supercommutant of the whole basis, is the
      ground field.  A semisimple graded algebra is a product of graded
      simple factors, each contributing an even central idempotent, and
      it is graded central simple exactly when its supercenter is the
      ground field (Wall, *Graded Brauer groups*, J. reine angew. Math.
      213, 1964).

    Together they say that the sandwich map ``a (x) a^op -> End(a)``,
    ``x (x) y -> (c -> (-1)^{|y||c|} x c y)``, is bijective, without
    building its ``dim**2 x dim**2`` matrix.  Only a non-associative table
    fails a check: an asymmetric trace form raises ValueError at either
    point, and a supercenter not closed under the product AlgebraError.
    """
    if len(linalg.congruence_diagonal(trace_gram(a))) < a.dim:
        return False
    one = a.field.one()
    basis = [({i: one}, p) for i, p in enumerate(a.parity)]
    return len(_supercommutant(a, basis)) == 1


def trace_gram(a: GradedAlgebra, indices: Optional[Sequence[int]] = None
               ) -> dict[int, dict[int, Scalar]]:
    """Gram matrix of the regular trace form ``(x, y) -> tr(L_{xy})``.

    Returned as sparse rows ``{i: {j: tr(L_{e_i e_j})}}`` holding only
    the nonzero entries (a zero row is absent); it is symmetric when
    ``a`` is associative.  Uses ``tr(L_{e_i e_j}) = sum_m c_{ij}^m
    tr(L_{e_m})``: one pass over the table takes the traces of the basis
    left-multiplications, and a second reads, in each cell, only the
    result indices whose trace is nonzero (on a Clifford algebra, the
    unit alone).

    With ``indices``, basis indices whose span is a subalgebra ``B``
    (such as ``a.degree_indices(0)``, the even part), it is the regular
    trace form of ``B``, read in place: both passes visit only the cells
    ``(i, j)`` with ``i`` and ``j`` in ``indices``, ``tr(L_{e_m})`` is
    taken on ``B``, and rows and columns keep ``a``'s indices.  Reindexed,
    that is the Gram matrix of the subalgebra built on its own.
    """
    zero, table = a.field.zero(), a.table
    if indices is None:
        cells = table.items()
    else:
        keep = set(indices)
        cells = [(ij, cell) for ij, cell in table.items()
                 if ij[0] in keep and ij[1] in keep]
    traces: dict[int, Scalar] = {}
    for (m, c), cell in cells:
        v = cell.get(c)
        if v:
            traces[m] = traces.get(m, zero) + v
    traces = {m: t for m, t in traces.items() if t}
    rows: dict[int, dict[int, Scalar]] = {}
    for (i, j), cell in cells:
        acc = None  # a cell that meets no nonzero trace costs no scalar work
        for m, c in cell.items():
            t = traces.get(m)
            if t is not None:
                acc = c * t if acc is None else acc + c * t
        if acc:
            rows.setdefault(i, {})[j] = acc
    return rows


def trace_signature(a: GradedAlgebra) -> int:
    """Signature (positives minus negatives) of the regular trace form.

    Only defined over the real point; the complex point has no signs.
    """
    if not a.field.is_real:
        raise AlgebraError("trace signature is only defined over the real point")
    return sum(1 if d > 0 else -1 for d in linalg.congruence_diagonal(trace_gram(a)))
