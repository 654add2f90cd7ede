"""Exact dense linear algebra over the rationals and Gaussian rationals.

Matrices are plain lists of row lists.  Entries must support field
arithmetic and truthiness (zero is falsy), which both scalar types in
:mod:`gradedbrauer.scalars` do.  Everything here is fraction-exact
Gaussian elimination; nothing is numerically approximate.
"""

from __future__ import annotations


def _clone(rows):
    return [list(r) for r in rows]


def row_echelon(rows):
    """Reduce a copy of ``rows`` to row-echelon form.

    Returns ``(echelon, pivot_cols)`` where ``echelon`` has its pivot
    entries scaled to 1 and zeros below them (not above; this is not
    reduced echelon form), and ``pivot_cols`` lists the pivot column of
    each nonzero row in order.
    """
    m = _clone(rows)
    if not m:
        return m, []
    ncols = len(m[0])
    pivots = []
    r = 0
    for c in range(ncols):
        pivot_row = None
        for i in range(r, len(m)):
            if m[i][c]:
                pivot_row = i
                break
        if pivot_row is None:
            continue
        m[r], m[pivot_row] = m[pivot_row], m[r]
        inv = m[r][c]
        if inv != 1:
            m[r] = [x / inv for x in m[r]]
        for i in range(r + 1, len(m)):
            f = m[i][c]
            if f:
                m[i] = [a - f * b for a, b in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
        if r == len(m):
            break
    return m, pivots


def rank(rows) -> int:
    """Rank of the matrix, by exact elimination."""
    return len(row_echelon(rows)[1])


def nullspace(rows, field):
    """A basis of the right kernel, as a list of vectors.

    The basis comes out of back-substitution on the echelon form: one
    vector per free column, with a 1 in the free position.  ``field``
    supplies exact zero/one elements so the empty matrix and free
    coordinates are typed correctly.
    """
    if not rows:
        return []
    ncols = len(rows[0])
    echelon, pivots = row_echelon(rows)
    pivot_set = set(pivots)
    free_cols = [c for c in range(ncols) if c not in pivot_set]
    basis = []
    zero, one = field.zero(), field.one()
    for free in free_cols:
        v = [zero] * ncols
        v[free] = one
        # Walk pivots bottom-up; each pivot row determines one coordinate.
        for row_idx in range(len(pivots) - 1, -1, -1):
            pc = pivots[row_idx]
            if pc > free:
                continue
            row = echelon[row_idx]
            acc = zero
            for c in range(pc + 1, ncols):
                if row[c] and v[c]:
                    acc = acc + row[c] * v[c]
            v[pc] = -acc
        basis.append(v)
    return basis


def solve(rows, rhs, field):
    """Solve ``rows @ x == rhs`` exactly, or return ``None``.

    Returns one solution vector when the system is consistent (any
    solution if it is underdetermined).
    """
    if not rows:
        return []
    ncols = len(rows[0])
    aug = [list(r) + [b] for r, b in zip(rows, rhs)]
    echelon, pivots = row_echelon(aug)
    if ncols in pivots:
        return None  # pivot in the constants column: inconsistent
    zero = field.zero()
    x = [zero] * ncols
    for row_idx in range(len(pivots) - 1, -1, -1):
        pc = pivots[row_idx]
        row = echelon[row_idx]
        acc = row[ncols]
        for c in range(pc + 1, ncols):
            if row[c] and x[c]:
                acc = acc - row[c] * x[c]
        x[pc] = acc
    return x


def in_row_span(echelon, pivots, vector) -> bool:
    """Whether ``vector`` lies in the row span of a reduced matrix.

    ``echelon``/``pivots`` must come from :func:`row_echelon`.  The test
    subtracts the unique candidate combination and checks the residual.
    """
    v = list(vector)
    for row_idx, pc in enumerate(pivots):
        if v[pc]:
            f = v[pc]
            row = echelon[row_idx]
            v = [a - f * b for a, b in zip(v, row)]
    return not any(v)


def signature(sym):
    """Inertia ``(positive, negative, zero)`` of a symmetric rational matrix.

    Computed by symmetric congruence reduction: repeatedly pick a nonzero
    diagonal entry, clear its row and column, and count its sign.  When
    the diagonal is all zero but some off-diagonal entry ``m[i][j]`` is
    not, replacing ``e_i`` by ``e_i + e_j`` makes the ``(i, i)`` entry
    ``2*m[i][j]`` nonzero, and congruence leaves the inertia alone, so
    the loop always makes progress.  Entries must be rationals.
    """
    m = _clone(sym)
    n = len(m)
    for row in m:
        if len(row) != n:
            raise ValueError("signature needs a square matrix")
    pos = neg = zero = 0
    live = list(range(n))  # indices not yet eliminated
    while live:
        pivot = None
        for i in live:
            if m[i][i]:
                pivot = i
                break
        if pivot is None:
            hit = None
            for ii, i in enumerate(live):
                for j in live[ii + 1:]:
                    if m[i][j]:
                        hit = (i, j)
                        break
                if hit:
                    break
            if hit is None:
                zero += len(live)
                break
            i, j = hit
            # e_i <- e_i + e_j, applied symmetrically.
            for k in live:
                m[i][k] = m[i][k] + m[j][k]
            for k in live:
                m[k][i] = m[k][i] + m[k][j]
            continue
        d = m[pivot][pivot]
        if d > 0:
            pos += 1
        else:
            neg += 1
        live.remove(pivot)
        targets = [i for i in live if m[i][pivot]]
        for i in targets:
            f = m[i][pivot] / d
            mi, mp = m[i], m[pivot]
            for k in live:
                if mp[k]:
                    mi[k] = mi[k] - f * mp[k]
        for i in targets:
            m[i][pivot] = m[pivot][i] = 0
    return pos, neg, zero

