"""Exact linear algebra over the rationals and Gaussian rationals.

Entries must support field arithmetic and truthiness (zero is falsy),
which both scalar types in :mod:`gradedbrauer.scalars` do.  Everything
here is fraction-exact; nothing is numerically approximate.

Vectors are sparse: dicts ``{index: coefficient}`` holding only nonzero
entries.  A matrix is given by its columns, and one elimination,
:func:`column_kernel`, takes them one at a time; kernels, ranks, linear
systems and span tests all come from it.  :func:`nullspace`,
:func:`rank` and :func:`solve` take a dense matrix (a list of row lists)
and convert it.  :func:`signature` is a symmetric congruence reduction
on a dense matrix.
"""

from __future__ import annotations


def _columns(rows):
    """The columns of a dense matrix, as sparse vectors."""
    if not rows:
        return []
    return [{r: row[c] for r, row in enumerate(rows) if row[c]}
            for c in range(len(rows[0]))]


def _add_scaled(target, factor, source):
    """``target += factor * source`` on sparse vectors, in place.

    ``factor`` and the entries of ``source`` must be nonzero; entries of
    ``target`` that cancel are removed, so it stays free of zeros.
    """
    for k, v in source.items():
        t = target.get(k)
        if t is None:
            target[k] = factor * v
        else:
            t = t + factor * v
            if t:
                target[k] = t
            else:
                del target[k]


def column_kernel(columns, one):
    """A basis of the kernel of the matrix with the given sparse columns.

    The columns are eliminated one at a time, left to right.  Each new
    column is reduced against the pivot columns kept so far, in the order
    they were kept, while its combination of the original columns is
    tracked.  A column that stays nonzero is kept as a pivot column,
    scaled to 1 at one of its nonzero rows; a column ``j`` that reduces to
    zero yields the kernel vector ``e_j - (combination of earlier pivot
    columns)``.  That is the basis back-substitution on a row-echelon form
    gives: pivots chosen greedily from the left (a column is a pivot
    exactly when it is independent of the columns before it), a 1 at the
    free column and 0 at every other free column.  A kernel vector with
    those properties is unique, so the basis does not depend on which row
    each pivot is scaled at.  It is returned in column order, as sparse
    vectors over the column indices.  ``one`` is the field's unit, the
    coefficient of each free column in its own kernel vector.
    """
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
    return kernel


def combine(combo, vectors):
    """The sparse vector ``sum(c * vectors[i] for i, c in combo.items())``."""
    out = {}
    for i, c in combo.items():
        _add_scaled(out, c, vectors[i])
    return out


def in_span(vectors, vector, one) -> bool:
    """Whether the sparse ``vector`` is a combination of ``vectors``:
    whether it depends on them when appended as a last column."""
    kernel = column_kernel(list(vectors) + [vector], one)
    return bool(kernel) and len(vectors) in kernel[-1]


def rank(rows) -> int:
    """Rank of a dense matrix, by exact elimination."""
    columns = _columns(rows)
    return len(columns) - len(column_kernel(columns, 1))


def nullspace(rows, field):
    """A basis of the right kernel of a dense matrix, as dense vectors.

    One vector per free column, with a 1 in the free position and 0 at
    the other free positions: :func:`column_kernel` on the columns of
    ``rows``.  ``field`` supplies exact zero/one elements so the free
    coordinates are typed correctly.
    """
    if not rows:
        return []
    ncols = len(rows[0])
    zero = field.zero()
    basis = []
    for combo in column_kernel(_columns(rows), field.one()):
        v = [zero] * ncols
        for c, x in combo.items():
            v[c] = x
        basis.append(v)
    return basis


def solve(rows, rhs, field):
    """Solve ``rows @ x == rhs`` exactly, or return ``None``.

    Returns one solution vector when the system is consistent (any
    solution if it is underdetermined): the one that is zero at every
    column that depends on the columns before it.  ``rhs`` is appended
    as a last column; the system is consistent exactly when that column
    depends on the others, and its kernel vector ``e_rhs - sum x_c e_c``
    carries the solution.
    """
    if not rows:
        return []
    ncols = len(rows[0])
    columns = _columns(rows) + [{r: b for r, b in enumerate(rhs) if b}]
    kernel = column_kernel(columns, field.one())
    if not kernel or ncols not in kernel[-1]:
        return None  # the constants column is independent: inconsistent
    x = [field.zero()] * ncols
    for c, v in kernel[-1].items():
        if c != ncols:
            x[c] = -v
    return x


def signature(sym):
    """Inertia ``(positive, negative, zero)`` of a symmetric rational matrix.

    Computed by symmetric congruence reduction: repeatedly pick a nonzero
    diagonal entry, clear its row and column, and count its sign.  When
    the diagonal is all zero but some off-diagonal entry ``m[i][j]`` is
    not, replacing ``e_i`` by ``e_i + e_j`` makes the ``(i, i)`` entry
    ``2*m[i][j]`` nonzero, and congruence leaves the inertia alone, so
    the loop always makes progress.  Entries must be rationals.
    """
    m = [list(row) for row in sym]
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

