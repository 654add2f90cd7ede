"""Cell-loop reference for
:meth:`gradedbrauer.algebra.GradedAlgebra.check_unit_and_grading`.

:func:`cell_loop_check` is the unit and grading check as it was before
monomial rows were read whole: ``u e_j`` and ``e_j u`` are summed cell by
cell for every basis index ``j``, then the parity of every structure
constant is checked in ``(i, j, k)`` order.  It reads either kind of row
through ``_cell`` and ``_terms`` and never the targets or codes of a row
as a list, and the tests require the same verdict and the same message
from both sides.
"""

from gradedbrauer import linalg
from gradedbrauer.algebra import AlgebraError, _cell, _sparse, _terms


def cell_loop_check(a):
    """Raise the :class:`AlgebraError` that names the first failure: an
    odd unit coordinate, then the first ``j`` with ``u e_j != e_j`` or
    ``e_j u != e_j``, then the first structure constant of wrong parity."""
    for i, u in enumerate(a.unit):
        if u and a.parity[i] == 1:
            raise AlgebraError("unit has a component in odd degree")
    rows, unit, one = a.rows, _sparse(a.unit), a.field.one()
    for j in range(a.dim):
        left, right = {}, {}
        for i, u in unit.items():
            if cell := _cell(rows[i], j):
                linalg._add_scaled(left, u, cell)
            if cell := _cell(rows[j], i):
                linalg._add_scaled(right, u, cell)
        if left != {j: one} or right != {j: one}:
            raise AlgebraError(f"unit fails on basis element {j}")
    for i, j, k, _ in _terms(rows):
        if a.parity[k] != a.parity[i] ^ a.parity[j]:
            raise AlgebraError(f"product e_{i} e_{j} has a component of wrong parity at {k}")
