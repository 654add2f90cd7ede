"""Cubic references for the checks of
:meth:`gradedbrauer.algebra.GradedAlgebra.validate` and for the unit
solve of ``GradedAlgebra(..., unit=None)``.

:func:`first_failing_triple` is the associativity check as it was before
Light's test: ``(e_i e_j) e_k`` against ``e_i (e_j e_k)`` on every basis
triple, in lexicographic order.  :func:`dense_unit` solves the dense
``2 dim**2 x dim`` system for a two-sided unit by the dense elimination
of ``centralizer_oracle``.  Neither shares product, generator or
elimination code with the library, and the tests require the same
verdict from both sides.  :func:`light_order_triple` takes the library's
generators to name the triple ``validate`` names, each triple still
decided by the associator.

:func:`unvalidated` builds a table as ``GradedAlgebra(...)`` does but
without its associativity check, so that a non-associative table reaches
``validate`` and the classification.
"""

from gradedbrauer.algebra import GradedAlgebra
from gradedbrauer.verify import _light_generators
from centralizer_oracle import dense_solve


class _Unvalidated(GradedAlgebra):
    """``GradedAlgebra(...)`` whose constructor checks the unit and the
    grading but runs no Light's test."""

    __slots__ = ()

    def validate(self) -> None:
        self.check_unit_and_grading()


def unvalidated(field, parity, table, unit=None):
    """The algebra ``GradedAlgebra(field, parity, table, unit)`` stores, with
    its unit and grading checked but not its associativity, kept through
    ``GradedAlgebra._trusted``."""
    b = _Unvalidated(field, parity, table, unit)
    return GradedAlgebra._trusted(b.field, b.parity, b.rows, b.unit)


def associator(a, i, j, k):
    """``(e_i e_j) e_k - e_i (e_j e_k)`` as a dict without zeros."""
    zero = a.field.zero()
    acc = {}
    for t, c in a.table.get((i, j), {}).items():
        for m, d in a.table.get((t, k), {}).items():
            acc[m] = acc.get(m, zero) + c * d
    for s, c in a.table.get((j, k), {}).items():
        for m, d in a.table.get((i, s), {}).items():
            acc[m] = acc.get(m, zero) - c * d
    return {m: v for m, v in acc.items() if v}


def first_failing_triple(a):
    """The first basis triple on which ``a`` is not associative, or ``None``."""
    for i in range(a.dim):
        for j in range(a.dim):
            for k in range(a.dim):
                if associator(a, i, j, k):
                    return i, j, k
    return None


def light_order_triple(a):
    """The triple ``validate`` names on ``a``: the first ``(i, j, k)``,
    with ``j`` running over ``_light_generators(a)`` and then ``i`` and
    ``k`` in order, on which :func:`associator` is nonzero, or ``None``.
    Only the order is the library's; each triple's verdict is the
    associator's.  It need not be :func:`first_failing_triple`, whose
    middle index runs over every basis element."""
    for j in _light_generators(a):
        for i in range(a.dim):
            for k in range(a.dim):
                if associator(a, i, j, k):
                    return i, j, k
    return None


def dense_unit(a):
    """The unit from ``u e_j = e_j`` and ``e_j u = e_j`` as one dense
    system of ``2 dim**2`` rows, or ``None`` when it has no solution."""
    n = a.dim
    zero, one = a.field.zero(), a.field.one()
    rows, rhs = [], []
    for j in range(n):
        for k in range(n):
            target = one if k == j else zero
            rows.append([a.table.get((i, j), {}).get(k, zero) for i in range(n)])
            rhs.append(target)
            rows.append([a.table.get((j, i), {}).get(k, zero) for i in range(n)])
            rhs.append(target)
    return dense_solve(rows, rhs, a.field)
