"""Brauer-Wall classification of graded Azumaya algebras at a point.

Over the real point the graded Brauer group is cyclic of order 8, over
the complex point of order 2.  A class is pinned down by a triple of
invariants, each computed from the algebra itself:

* ``parity``  — degree of the generator of the graded center (Z/2);
* ``q2``      — the class of the graded center as a graded quadratic
  algebra.  Over the real point this is Z/4, encoded from the
  generator's (parity, normalized square) as::

      0 <-> (even, +1)     2 <-> (even, -1)
      1 <-> (odd,  +1)     3 <-> (odd,  -1)

  and over the complex point it is just the parity (Z/2);
* ``ungraded`` — which of the two division-algebra types anchors the
  underlying ungraded Azumaya algebra (the whole algebra for an even
  class, its degree-0 part for an odd class), detected by the sign of
  the regular trace form: positive signature means the matrix type
  (class 0), negative means the quaternion type (class 1).  The signs
  are read from one congruence diagonal of the form, whose length also
  certifies that the form is nondegenerate at both points.  Over the
  complex point this invariant is identically 0.

The Z/8 (resp. Z/2) value of a class is *not* read off a transcribed
table: :func:`_calibration` computes, once per field and at runtime,
the invariant triples of the powers of the rank-one Clifford generator
``C<1>`` — which represents 1 by normalization — and of their graded
opposites (the inverses), and inverts that map.
The test suite pins the same correspondence against an independently
hand-derived table.
"""

from __future__ import annotations

from functools import lru_cache

from .algebra import (GradedAlgebra, NotAzumayaError, _integral, graded_tensor,
                      ground_algebra, hat_center, opposite, trace_gram)
from .clifford import DiagonalForm, clifford
from .linalg import congruence_diagonal
from .scalars import Field, field_from_label

_Q2_FROM_DESCRIPTOR = {(0, 1): 0, (1, 1): 1, (0, -1): 2, (1, -1): 3}


def quadratic_descriptor(a: GradedAlgebra) -> tuple[int, int]:
    """``(parity, square sign)`` of the graded-center generator.

    The square sign is ``+1`` or ``-1`` over the real point and always
    ``+1`` over the complex point, matching the normal form produced by
    :func:`gradedbrauer.algebra.hat_center`.  Computed once per algebra
    and kept on it; a :class:`~gradedbrauer.algebra.NotAzumayaError` is
    not kept, so every call raises it again.
    """
    if a._descriptor is None:
        h = hat_center(a)
        sign = 1 if h.table[(1, 1)][0] == h.field.one() else -1
        a._descriptor = (h.parity[1], sign)
    return a._descriptor


def q2_class(a: GradedAlgebra) -> int:
    """Class of the graded center: Z/4 over R, Z/2 over C."""
    par, sign = quadratic_descriptor(a)
    if a.field.is_real:
        return _Q2_FROM_DESCRIPTOR[(par, sign)]
    return par


def parity_class(a: GradedAlgebra) -> int:
    """The Z/2 invariant: parity of the graded-center generator."""
    return quadratic_descriptor(a)[0]


def q2_add(x: int, y: int, field: Field) -> int:
    """Composition in the graded quadratic group: Z/4 over R, Z/2 over C.

    This is what the product of graded quadratic algebras does to the
    encoded classes: generator parities add and squares multiply.  The
    encoding absorbs the Koszul sign for two odd generators: squares
    ``s`` and ``t`` give an even generator with square ``-st``, which is
    ``(1 + 1) % 4 = 2`` or ``(1 + 3) % 4 = 0``.
    """
    n = 4 if field.is_real else 2
    return (x + y) % n


def ungraded_class(a: GradedAlgebra) -> int:
    """The division-type invariant (0 = matrix type, 1 = quaternion type).

    Examines the regular trace form of the designated ungraded algebra:
    the input itself when its class is even, its degree-0 part when
    odd, read in place as the span of the even basis indices (no
    :meth:`~gradedbrauer.algebra.GradedAlgebra.even_part` is built).
    On graded Azumaya input that algebra is central simple: for an even
    class it is the input, and for an odd class the input is
    ``A_0 (x) k[z]/(z^2 - lambda)`` with ``z`` the odd generator of the
    graded center and ``lambda != 0``.  A central simple algebra in
    characteristic 0 has a nondegenerate trace form.  One
    :func:`~gradedbrauer.linalg.congruence_diagonal` of the form serves
    both points: a diagonal shorter than the dimension (a degenerate
    form) refuses the input at either point, and over the real point
    the signs of its entries give the signature, where a zero
    signature, which leaves no division-type anchor, refuses it too.
    Over the complex point the invariant is identically 0.  The form is
    taken on the integral image (:func:`~gradedbrauer.algebra._integral`),
    where it is ``D**2 > 0`` times this one: the same rank and inertia.
    Computed once per algebra and kept on it, like
    :func:`quadratic_descriptor`.
    """
    if a._ungraded is None:
        even = None if parity_class(a) == 0 else a.degree_indices(0)
        diagonal = congruence_diagonal(trace_gram(_integral(a), even))
        nullity = (a.dim if even is None else len(even)) - len(diagonal)
        if nullity:
            raise NotAzumayaError(
                f"regular trace form is degenerate (nullity {nullity}); "
                "the algebra is not graded Azumaya"
            )
        if not a.field.is_real:
            a._ungraded = 0
        else:
            signature = sum(1 if d > 0 else -1 for d in diagonal)
            if not signature:
                raise NotAzumayaError(
                    "regular trace form has zero signature; no division-type anchor"
                )
            a._ungraded = 0 if signature > 0 else 1
    return a._ungraded


def invariant_triple(a: GradedAlgebra) -> tuple[int, int, int]:
    """``(parity, q2, ungraded)`` — a complete invariant of the class.

    A read of what :func:`quadratic_descriptor` and :func:`ungraded_class`
    keep on the algebra, so it costs one classification per algebra
    however often it, :func:`bw_class` or the single invariants are
    asked for.
    """
    return parity_class(a), q2_class(a), ungraded_class(a)


@lru_cache(maxsize=None)
def _calibration(field_label: str) -> dict[tuple[int, int, int], int]:
    """Map invariant triples to group elements, from the generator ``C<1>``
    (the rank-one Clifford algebra, class 1).

    Classes up to half the group order are the tensor powers of ``C<1>``;
    the rest are graded opposites of those powers, since the opposite is
    the inverse.  Over the real point the largest algebra is ``C<1>^4``
    (dim 16) instead of ``C<1>^7`` (dim 128)."""
    field = field_from_label(field_label)
    count = group_order(field)
    generator = clifford(DiagonalForm((1,), field))
    powers = [ground_algebra(field)]
    for _ in range(count // 2):
        powers.append(graded_tensor(powers[-1], generator))
    table = {invariant_triple(power): k for k, power in enumerate(powers)}
    for k in range(count // 2 + 1, count):
        table[invariant_triple(opposite(powers[count - k]))] = k
    if len(table) != count:  # pragma: no cover - internal consistency
        raise RuntimeError("calibration triples collided; invariants are broken")
    return table


def group_order(field: Field) -> int:
    """Order of the graded Brauer group of the point: 8 over R, 2 over C."""
    return 8 if field.is_real else 2


def bw_class(a: GradedAlgebra) -> int:
    """The class of ``a`` in Z/8 (real point) or Z/2 (complex point).

    Normalized so that the rank-one Clifford algebra ``C<1>`` maps to 1:
    the :func:`invariant_triple` looked up in :func:`_calibration`.
    Raises :class:`~gradedbrauer.algebra.NotAzumayaError` when the
    computed invariants match no class — which for genuinely graded
    Azumaya input cannot happen.
    """
    triple = invariant_triple(a)
    table = _calibration(a.field.label)
    try:
        return table[triple]
    except KeyError:
        raise NotAzumayaError(
            f"invariant triple {triple} matches no Brauer-Wall class"
        ) from None


def witt_to_bw(form: DiagonalForm) -> int:
    """Clifford-algebra map from the Witt ring to the graded Brauer group.

    Over the real point this lands in Z/8 and equals the signature
    mod 8; over the complex point it is the rank mod 2.
    """
    return bw_class(clifford(form))
