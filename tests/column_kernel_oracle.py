"""The column elimination of :func:`gradedbrauer.linalg.column_kernel` as
it was before it visited only the pivots a column touches: each new
column is reduced against every pivot kept so far, in kept order, and a
pivot is applied when its row is present at that moment.  The tests
require the same kernel basis, entry for entry and in the same order,
from both.
"""

from gradedbrauer.linalg import _add_scaled


def scan_column_kernel(columns, one):
    return scan_elimination(columns, one)[1]


def scan_elimination(columns, one):
    """The pivots ``(row, column scaled to 1 at row, combination)`` and the
    kernel vectors of the scan."""
    pivots = []  # (pivot row, reduced column, combination)
    kernel = []
    for j, column in enumerate(columns):
        reduced = {r: v for r, v in column.items() if v}
        combo = {j: one}
        for row, pivot, pivot_combo in pivots:
            f = reduced.get(row)
            if f is not None:
                _add_scaled(reduced, -f, pivot)
                _add_scaled(combo, -f, pivot_combo)
        if not reduced:
            kernel.append(combo)
            continue
        row, inv = next(iter(reduced.items()))
        if inv != 1:
            reduced = {r: v / inv for r, v in reduced.items()}
            combo = {c: v / inv for c, v in combo.items()}
        pivots.append((row, reduced, combo))
    return pivots, kernel
