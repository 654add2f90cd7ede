"""Exact linear algebra over the rationals and Gaussian rationals.

Entries must support field arithmetic and truthiness (zero is falsy),
which both scalar types in :mod:`gradedbrauer.scalars` do.  Everything
here is fraction-exact; nothing is numerically approximate.

Vectors are sparse: dicts ``{index: coefficient}`` holding only nonzero
entries.  A matrix is given by its columns, and one elimination,
:class:`Elimination`, takes them one at a time; kernels
(:func:`column_kernel`), linear systems and span tests all come from it
(a column is in the span of the columns before it exactly when it is
not a pivot, and its kernel vector then says how).  A symmetric matrix,
given by its sparse rows, is diagonalized by :func:`congruence_diagonal`,
whose diagonal gives its rank over either field and its inertia over
the rationals.
"""

from __future__ import annotations

from bisect import insort

from .scalars import _GAUSSIAN_ONE, _ONE  # what Field.one() returns


def _add_scaled(target, factor, source):
    """``target += factor * source`` on sparse vectors, in place.

    ``factor`` and the entries of ``source`` must be nonzero; entries of
    ``target`` that cancel are removed, so it stays free of zeros.  A
    ``factor`` that *is* a field's shared unit (an identity test, never
    ``==``) multiplies nothing: the entries of ``source`` are used as they
    are.  An equal value that is another object takes the general path,
    so the result is the same value either way.
    """
    unit = factor is _ONE or factor is _GAUSSIAN_ONE
    for k, v in source.items():
        if not unit:
            v = factor * v
        t = target.get(k)
        if t is None:
            target[k] = v
        else:
            t = t + v
            if t:
                target[k] = t
            else:
                del target[k]


class Elimination:
    """Sparse columns eliminated one at a time, left to right.

    :meth:`add` reduces column ``j`` against the pivot columns kept so
    far, in kept order, tracking its combination of the columns added.
    A column that stays nonzero is kept as a pivot, scaled to 1 at one of
    its rows, and ``add`` returns ``None``; one that reduces to zero gives
    its kernel vector ``e_j - (combination of earlier pivots)``.  So a
    column is a pivot exactly when it is independent of the columns
    before it, and the kernel vectors are the ones back-substitution on a
    row-echelon form gives, whichever row each pivot is scaled at.

    With ``kernel=False`` no combination is tracked (for callers that ask
    only whether a column is a pivot), and a dependent column gives ``{}``.

    Only the pivots whose row occurs in the column are visited, through
    a sorted queue of positions seeded from a map of pivot rows; a pivot
    queues the pivot rows it brings in.  A pivot is zero at the rows of
    the pivots kept before it, so those come later, and the queue applies
    the same pivots in the same order as a scan of every pivot would.
    """

    def __init__(self, one, kernel=True):
        # the field's unit; whether to track kernels; the next column's index
        self.one, self.kernel, self.added = one, kernel, 0
        self.pivots = []  # (pivot row, reduced column, combination)
        self.position = {}  # pivot row -> index in pivots

    def add(self, column):
        """The kernel vector of ``column``, or ``None`` if it is a pivot."""
        pivots, position = self.pivots, self.position
        reduced = {r: v for r, v in column.items() if v}
        combo = {self.added: self.one} if self.kernel else {}
        self.added += 1
        # negated positions, ascending, so that pop() gives the earliest
        queue = [-position[r] for r in reduced if r in position] if position else None
        if queue:
            queue.sort()
            while queue:
                row, pivot, pivot_combo = pivots[-queue.pop()]
                f = reduced.get(row)
                if f is None:  # cancelled since it was queued
                    continue
                f = -f
                for k, v in pivot.items():
                    t = reduced.get(k)
                    if t is None:
                        reduced[k] = f * v
                        if k in position:
                            insort(queue, -position[k])
                    else:
                        t = t + f * v
                        if t:
                            reduced[k] = t
                        else:
                            del reduced[k]
                if pivot_combo:
                    _add_scaled(combo, f, pivot_combo)
        if not reduced:
            return combo
        row, inv = next(iter(reduced.items()))
        if inv != 1:
            reduced = {r: v / inv for r, v in reduced.items()}
            combo = {c: v / inv for c, v in combo.items()}
        position[row] = len(pivots)
        pivots.append((row, reduced, combo))
        return None


def column_kernel(columns, one):
    """A basis of the kernel of the matrix with the given sparse columns:
    the kernel vectors one :class:`Elimination` of them returns, in column
    order, as sparse vectors over the column indices."""
    add = Elimination(one).add
    return [combo for combo in map(add, columns) if combo is not None]


def combine(combo, vectors):
    """The sparse vector ``sum(c * vectors[i] for i, c in combo.items())``."""
    out = {}
    for i, c in combo.items():
        _add_scaled(out, c, vectors[i])
    return out


def congruence_diagonal(rows):
    """The nonzero diagonal of a diagonal matrix congruent to the
    symmetric matrix given by its sparse rows ``{i: {j: m_ij}}``.

    Only nonzero entries are stored and a zero row may be absent.  The
    reduction is by symmetric congruence: pick a row ``p`` with a nonzero
    diagonal entry ``d``, keep ``d``, and subtract ``m_ip m_pk / d`` from
    every ``m_ik`` with ``i, k`` in the support of row ``p``, which clears
    row and column ``p``.  When no diagonal entry is nonzero but some
    ``m_ij`` is, replacing ``e_i`` by ``e_i + e_j`` makes the ``(i, i)``
    entry ``2 m_ij`` nonzero (characteristic 0), so the loop always makes
    progress.  The work follows the nonzeros: on a diagonal matrix it is
    one step per row.  Congruence keeps the rank, so the length of the
    list is the rank over the rationals and the Gaussian rationals alike;
    over the rationals the signs of its entries are the inertia
    (Sylvester's law).  A matrix that is not symmetric raises ValueError.
    """
    m = {i: dict(row) for i, row in rows.items() if row}
    if any(m.get(j, {}).get(i) != v for i, row in m.items() for j, v in row.items()):
        raise ValueError("congruence diagonal needs a symmetric matrix")
    diagonal = []
    while m:
        p = next((i for i, row in m.items() if i in row), None)
        if p is None:
            # e_i <- e_i + e_j, applied symmetrically: row and column i
            # gain row and column j, and the new (i, i) entry is 2 m_ij.
            i, row = next(iter(m.items()))
            j, mij = next(iter(row.items()))
            new = dict(row)
            _add_scaled(new, 1, m[j])
            new[i] = mij + mij
            for k in row.keys() | new.keys():
                if k == i:
                    continue
                if k in new:
                    m[k][i] = new[k]
                else:
                    del m[k][i]
            m[i] = new
            continue
        row = m.pop(p)
        d = row.pop(p)
        diagonal.append(d)
        for i in row:
            del m[i][p]
        for i, v in row.items():
            _add_scaled(m[i], -(v / d), row)
        for i in row:
            if not m[i]:
                del m[i]
    return diagonal
