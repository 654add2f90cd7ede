"""Clifford algebras of nondegenerate diagonal quadratic forms.

The Clifford algebra of ``<a_1, ..., a_n>`` has generators
``e_1, ..., e_n`` with ``e_i^2 = a_i`` and ``e_i e_j = -e_j e_i`` for
``i != j``, graded by word length mod 2.  The basis is indexed by
subsets of the generators, encoded as bitmasks: ``e_S e_T`` is a multiple
of ``e_{S xor T}``, and each row of the table is one block of columns
repeated (:func:`clifford`):

>>> from gradedbrauer.scalars import REAL
>>> alg = clifford(DiagonalForm((1, 1), REAL))
>>> alg.dim, alg.parity
(4, (0, 1, 1, 0))
>>> alg.basis_product(1, 2)  # e_1 e_2 is basis element 3 = 0b11
{3: Fraction(1, 1)}
>>> alg.basis_product(2, 1)  # e_2 e_1 = -e_1 e_2
{3: Fraction(-1, 1)}
>>> alg.basis_product(1, 1)  # e_1^2 = 1
{0: Fraction(1, 1)}
"""

from __future__ import annotations

from typing import Sequence

from .algebra import AlgebraError, GradedAlgebra, Scalar, _check_budget, _packed, _terms
from .scalars import Field, REAL


class DiagonalForm:
    """A nondegenerate diagonal quadratic form ``<entries>`` over ``field``.

    Immutable, compared and hashed by its entries and field.

    >>> from gradedbrauer.scalars import REAL
    >>> f = DiagonalForm((1, -1, 2), REAL)
    >>> f.rank
    3
    >>> f.signature()
    1
    >>> (f + DiagonalForm((-1,), REAL)).entries
    (Fraction(1, 1), Fraction(-1, 1), Fraction(2, 1), Fraction(-1, 1))
    """

    __slots__ = ("entries", "field")
    entries: tuple[Scalar, ...]
    field: Field

    def __init__(self, entries: Sequence, field: Field = REAL) -> None:
        coerced = tuple(field.coerce(v) for v in entries)
        if not all(coerced):
            raise ValueError("diagonal form must be nondegenerate (no zero entries)")
        object.__setattr__(self, "entries", coerced)
        object.__setattr__(self, "field", field)

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.entries, self.field) == (other.entries, other.field)

    def __hash__(self) -> int:
        return hash((self.entries, self.field))

    def __repr__(self) -> str:
        return f"DiagonalForm(entries={self.entries!r}, field={self.field!r})"

    def __reduce__(self):
        return DiagonalForm, (self.entries, self.field)

    @property
    def rank(self) -> int:
        return len(self.entries)

    def signature(self) -> int:
        """Positives minus negatives; real point only."""
        return sum(self.field.sign(v) for v in self.entries)

    def __add__(self, other: "DiagonalForm") -> "DiagonalForm":
        if not isinstance(other, DiagonalForm):
            return NotImplemented
        if self.field.label != other.field.label:
            raise ValueError("cannot sum forms over different fields")
        return DiagonalForm(self.entries + other.entries, self.field)

    def to_json(self) -> dict:
        return {
            "field": self.field.label,
            "entries": [self.field.render(v) for v in self.entries],
        }


def hyperbolic(n: int, field: Field = REAL) -> DiagonalForm:
    """The sum of ``n`` hyperbolic planes, ``<1, -1>^n``.

    >>> hyperbolic(2).entries
    (Fraction(1, 1), Fraction(-1, 1), Fraction(1, 1), Fraction(-1, 1))
    """
    if n < 0:
        raise ValueError("need a nonnegative number of planes")
    return DiagonalForm((1, -1) * n, field)


def signature_form(p: int, q: int, field: Field = REAL) -> DiagonalForm:
    """The form ``<1>^p + <-1>^q``."""
    if p < 0 or q < 0:
        raise ValueError("signature multiplicities must be nonnegative")
    return DiagonalForm((1,) * p + (-1,) * q, field)


def clifford(form: DiagonalForm) -> GradedAlgebra:
    """The Clifford algebra of ``form`` as a graded algebra.

    Basis index ``S`` (a bitmask) stands for the ascending product of
    the generators in ``S``; parity is ``popcount(S) mod 2``; index 0
    is the unit.  ``e_S e_T = sign * (prod of a_i for i in S & T) *
    e_{S xor T}``.

    Each distinct product of entries is computed once (that over ``m +
    2^k`` is that over ``m`` times ``a_k``) and coded with its negation,
    as :func:`gradedbrauer.algebra._signed_codes` codes the ``2^n``
    products.  Rows are built from whole blocks: let ``k`` be the top
    generator of ``S = S0 + d``, ``d = 2^k``, and ``T = T0 + d T1`` with
    ``T0 < d``.  Moving ``e_k`` past ``e_{T0}`` gives ``e_S e_T = (-1)^{|T0|}
    c a_k^{T1 mod 2} e_{S xor T}``, where ``e_{S0} e_{T0} = c e_{S0 xor T0}``.
    So row ``S`` is one block of ``2d`` columns repeated: the first ``d`` codes
    of row ``S0`` with the odd columns negated, then those times ``a_k``,
    each through a table of codes; its targets are those of row ``S0``
    with each pair of ``d``-blocks swapped.

    >>> from gradedbrauer.scalars import REAL
    >>> quat = clifford(DiagonalForm((-1, -1), REAL))
    >>> quat.basis_product(3, 3)  # (e_1 e_2)^2 = -e_1^2 e_2^2 = -1
    {0: Fraction(-1, 1)}
    """
    n = form.rank
    dim = 1 << n
    _check_budget(dim, f"Clifford algebra of rank {n}")
    field = form.field
    one = field.one()
    parity = tuple(s.bit_count() & 1 for s in range(dim))
    position = {one: 0}  # each distinct product of entries, by its code
    plus = [0]  # plus[m]: the code of the product of the a_i for i in m
    for a in form.entries:  # the product over m + d is that over m times a_k
        scaled = [position.setdefault(v * a, len(position)) for v in list(position)]
        plus += [*map(scaled.__getitem__, plus)]
    negated = [position.setdefault(-v, len(position)) for v in list(position)]
    negate = negated + [x for x, y in enumerate(negated) if y >= len(negated)]
    values, keep = list(position), list(range(len(position)))
    index = list(range(dim))  # one int object per basis index, shared by every row
    rows = [(index, [plus[0]] * dim, values)]
    signs, flipped = [keep], [negate]  # (-1)^{|t|}, as a code table, for t < d
    for k in range(n):
        d = 1 << k
        times = keep[:]  # the code of a value times a_k; equal values give equal codes
        for x, y in zip(plus[:d], plus[d:2 * d]):
            times[x], times[negate[x]] = y, negate[y]
        for targets, codes, _ in rows[:d]:  # the row of S0 gives the row of S0 + d
            block = list(map(list.__getitem__, signs, codes))
            block += [*map(times.__getitem__, block)]
            swapped = []
            for j in range(0, dim, 2 * d):
                swapped += targets[j + d:j + 2 * d]
                swapped += targets[j:j + d]
            rows.append((swapped, block * (dim // (2 * d)) if 2 * d < dim else block, values))
        signs, flipped = signs + flipped, flipped + signs
    unit = (one,) + (field.zero(),) * (dim - 1)
    return GradedAlgebra._trusted(field, parity, rows, unit)


def tensor_index_pairing(rank_left: int, rank_right: int) -> list[int]:
    """Basis bijection for ``clifford(f + g) ~ clifford(f) (x) clifford(g)``.

    Position ``S`` (a subset of the joint generators) maps to the index
    of ``e_{S_low} (x) e_{S_high}`` in the tensor-product basis, where
    ``S_low`` is the part of ``S`` in the first ``rank_left`` generators.
    The sign in both products agrees because the joint basis word is
    already sorted with the left block first, so the map is an honest
    isomorphism of graded algebras, not just a vector-space relabeling.
    """
    dim_right, low_mask = 1 << rank_right, (1 << rank_left) - 1
    return [(s & low_mask) * dim_right + (s >> rank_left)
            for s in range(1 << (rank_left + rank_right))]


def relabel(a: GradedAlgebra, perm: Sequence[int]) -> GradedAlgebra:
    """Transport ``a`` along a basis permutation (index ``i`` becomes
    ``perm[i]``), preserving products and grading."""
    if sorted(perm) != list(range(a.dim)):
        raise AlgebraError("relabeling must be a permutation of the basis")
    parity, unit = [0] * a.dim, [a.field.zero()] * a.dim
    for i, (p, u) in enumerate(zip(a.parity, a.unit)):
        parity[perm[i]], unit[perm[i]] = p, u
    rows: list[dict[int, dict[int, Scalar]]] = [{} for _ in range(a.dim)]
    for i, j, k, v in _terms(a.rows):
        rows[perm[i]].setdefault(perm[j], {})[perm[k]] = v
    return GradedAlgebra._trusted(a.field, tuple(parity), _packed(rows), tuple(unit))
