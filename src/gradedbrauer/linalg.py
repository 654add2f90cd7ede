"""Exact linear algebra over the rationals and Gaussian rationals, free
of fractions.

Entries may mix ``int``, ``Fraction`` and
:class:`~gradedbrauer.scalars.GaussianRational` (with ``int`` or
``Fraction`` parts); zero is falsy.  No step divides: each scales by a
nonzero number instead, as fraction-free elimination does (Bareiss,
*Sylvester's identity and multistep integer-preserving Gaussian
elimination*, Math. Comp. 22, 1968), and :func:`_primitive` divides
common factors out exactly (where Bareiss divides by the previous
pivot), turning any ``Fraction`` into integers.  So on an algebra's
integral image (:func:`gradedbrauer.algebra._integral`) all arithmetic
is on integers, and every kernel vector comes back primitive: the
vector division gives, up to a nonzero factor.

Vectors are sparse: dicts ``{index: coefficient}`` holding only nonzero
entries.  A matrix is given by its columns, and one elimination,
:class:`Elimination`, takes them one at a time; kernels
(:func:`column_kernel`), linear systems and span tests all come from it
(a column is in the span of the columns before it exactly when it is
not a pivot, and its kernel vector then says how).  A symmetric matrix,
given by its sparse rows, is diagonalized by :func:`congruence_diagonal`
up to positive factors, whose diagonal gives its rank over either field
and its inertia over the rationals.
"""

from __future__ import annotations

from bisect import insort
from math import gcd, lcm

from .scalars import (_GAUSSIAN_ONE, _ONE,  # what Field.one() returns
                      GaussianRational, _make)


def _add_scaled(target, factor, source):
    """``target += factor * source`` on sparse vectors, in place.

    ``factor`` and the entries of ``source`` must be nonzero; entries of
    ``target`` that cancel are removed, so it stays free of zeros.  A
    ``factor`` that *is* a field's shared unit (an identity test, never
    ``==``) multiplies nothing: the entries of ``source`` are used as they
    are.  An equal value that is another object takes the general path,
    so the result is the same value either way.  This keeps
    :meth:`gradedbrauer.algebra.GradedAlgebra.check_unit_and_grading` free
    of scalar products on a unit whose nonzero coordinates are shared 1s.
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


def _primitive(*vectors) -> None:
    """Scale sparse vectors, in place and all by one positive rational, to
    integer entries with no common factor: one gcd/lcm pass.

    An ``int`` or ``Fraction`` entry becomes an ``int``, and a
    ``GaussianRational`` one with ``int`` parts (the common factor is the
    gcd of all the parts, so this clears denominators but need not be
    primitive over the Gaussian integers).  Keys keep their order.
    """
    try:
        g = 0
        for vector in vectors:
            g = gcd(g, *vector.values())
    except TypeError:  # a Fraction or GaussianRational entry: clear denominators
        parts = [x for vector in vectors for v in vector.values()
                 for x in ((v.re, v.im) if type(v) is GaussianRational else (v,))]
        den = lcm(*(x.denominator for x in parts))
        g = gcd(*(x.numerator * (den // x.denominator) for x in parts))

        def scaled(x):
            return x.numerator * (den // x.denominator) // g

        for vector in vectors:
            for k, v in vector.items():
                vector[k] = _make(scaled(v.re), scaled(v.im)) \
                    if type(v) is GaussianRational else scaled(v)
        return
    if g > 1:
        for vector in vectors:
            for k, v in vector.items():
                vector[k] = v // g


def _cofactors(p, f):
    """``(a, b)`` with ``a f = b p`` and ``a`` nonzero, ``a > 0`` over the
    integers, and common factors divided out where ``p`` and ``f`` are
    integers (Gaussian integers with zero imaginary parts count)."""
    if type(p) is GaussianRational and not p.im and type(f) is GaussianRational \
            and not f.im:
        p, f = p.re, f.re
    if type(p) is int and type(f) is int:
        g = gcd(p, f)
        return (p // g, f // g) if p > 0 else (-p // g, -f // g)
    return p, f


class Elimination:
    """Sparse columns eliminated one at a time, left to right, free of
    fractions.

    :meth:`add` reduces column ``j`` against the pivot columns kept so
    far, in kept order, tracking its combination of the columns added.
    Against a pivot ``q`` with entry ``p`` at its row, where the column
    ``c`` has ``f``, ``c`` becomes ``a c - b q`` with ``a / b = p / f`` in
    lowest terms (:func:`_cofactors`).  A column that stays nonzero is
    kept as a pivot, made :func:`_primitive` with its combination, and
    ``add`` returns ``None``; one that reduces to zero gives its kernel
    vector ``e_j - (combination of earlier pivots)`` times a nonzero
    number, made :func:`_primitive`.  Each step only scales the column, so
    its nonzero entries, their order, the pivot rows and the kernel
    vectors up to scale are those of the elimination that scales every
    pivot to 1: a column is a pivot exactly when it is independent of the
    columns before it, and the kernel vectors are the ones
    back-substitution on a row-echelon form gives, up to scale.

    Only the pivots whose row occurs in the column are visited, through
    a sorted queue of positions seeded from a map of pivot rows; a pivot
    queues the pivot rows it brings in.  A pivot is zero at the rows of
    the pivots kept before it, so those come later, and the queue applies
    the same pivots in the same order as a scan of every pivot would.
    """

    def __init__(self):
        self.added = 0  # the next column's index
        self.pivots = []  # (pivot row, primitive reduced column, combination)
        self.position = {}  # pivot row -> index in pivots

    def add(self, column):
        """The primitive kernel vector of ``column``, nonzero at its own
        index, or ``None`` if it is a pivot."""
        pivots, position = self.pivots, self.position
        reduced = {r: v for r, v in column.items() if v}
        combo = {self.added: 1}
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
                a, f = _cofactors(pivot[row], f)
                if a != 1:
                    for k, v in reduced.items():
                        reduced[k] = a * v
                    for k, v in combo.items():
                        combo[k] = a * v
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
                _add_scaled(combo, f, pivot_combo)
        if reduced:
            _primitive(reduced, combo)
            row = next(iter(reduced))
            position[row] = len(pivots)
            pivots.append((row, reduced, combo))
            return None
        _primitive(combo)
        return combo


def column_kernel(columns):
    """A basis of the kernel of the matrix with the given sparse columns:
    the primitive kernel vectors one :class:`Elimination` of them returns,
    in column order, as sparse vectors over the column indices, each
    nonzero at its own column."""
    add = Elimination().add
    return [combo for combo in map(add, columns) if combo is not None]


def combine(combo, vectors):
    """The sparse vector ``sum(c * vectors[i] for i, c in combo.items())``
    up to a nonzero factor: made :func:`_primitive`, and for a one-term
    ``combo`` the vector it names, itself, which the caller must not
    change."""
    if len(combo) == 1:
        return vectors[next(iter(combo))]
    out = {}
    for i, c in combo.items():
        _add_scaled(out, c, vectors[i])
    _primitive(out)
    return out


def congruence_diagonal(rows):
    """The nonzero diagonal of a diagonal matrix congruent to the
    symmetric matrix given by its sparse rows ``{i: {j: m_ij}}``, up to
    positive factors.

    Only nonzero entries are stored and a zero row may be absent.  The
    reduction is by symmetric congruence: pick a row ``p`` with a nonzero
    diagonal entry ``d``, keep ``d``, and clear row and column ``p`` from
    every row ``i`` in the support of row ``p``.  When no diagonal entry
    is nonzero but some ``m_ij`` is, replacing ``e_i`` by ``e_i + e_j``
    makes the ``(i, i)`` entry ``2 m_ij`` nonzero (characteristic 0), so
    the loop always makes progress.  The work follows the nonzeros: a
    diagonal matrix (a Clifford algebra's trace form) is returned as it is.

    No entry is divided.  Row ``i`` is stored as ``n_i = l_i m_i``, times
    a factor ``l_i`` positive over the rationals, and made
    :func:`_primitive` whenever it changes.  Clearing it takes ``|d| n_i -
    sign(d) n_ip n_p``, which is ``l_i l_p |m_pp|`` times the row ``m_i -
    m_ip m_p / m_pp`` of the congruent matrix (over the Gaussian
    rationals, where only the rank is read, ``d n_i - n_ip n_p``).  So
    every kept ``d`` is a positive multiple of the pivot of the symmetric
    reduction.  Congruence keeps the rank, so the length of the list is
    the rank over the rationals and the Gaussian rationals alike; over
    the rationals the signs of its entries are the inertia (Sylvester's
    law).  A matrix that is not symmetric raises ValueError.
    """
    if all(len(row) == 1 and i in row for i, row in rows.items() if row):
        return [row[i] for i, row in rows.items() if row]
    m = {i: dict(row) for i, row in rows.items() if row}
    if any(m.get(j, {}).get(i) != v for i, row in m.items() for j, v in row.items()):
        raise ValueError("congruence diagonal needs a symmetric matrix")
    for row in m.values():
        _primitive(row)
    diagonal = []
    while m:
        p = next((i for i, row in m.items() if i in row), None)
        if p is None:
            # e_i <- e_i + e_j: row i becomes s (n_ji n_i + n_ij n_j), whose
            # factor l_i l_j |m_ij| is positive for s = sign(m_ij), with the
            # new (i, i) entry 2 m_ij; column i gains column j.
            i, row = next(iter(m.items()))
            j, nij = next(iter(row.items()))
            nji = m[j][i]
            s = -1 if type(nij) is not GaussianRational and nij < 0 else 1
            new = {k: s * nji * v for k, v in row.items()}
            _add_scaled(new, s * nij, m[j])
            new[i] = 2 * s * nij * nji
            for k in row.keys() | new.keys():
                if k != i:
                    column = m[k]
                    if t := column.get(i, 0) + column.get(j, 0):
                        column[i] = t
                    else:
                        del column[i]
            _primitive(new)
            m[i] = new
            continue
        row = m.pop(p)
        d = row.pop(p)
        diagonal.append(d)
        scale, s = (d, 1) if type(d) is GaussianRational else (abs(d), 1 if d > 0 else -1)
        for i in row:
            target = m[i]
            f = -s * target.pop(p)
            if scale != 1:
                for k, v in target.items():
                    target[k] = scale * v
            _add_scaled(target, f, row)
            if target:
                _primitive(target)
            else:
                del m[i]
    return diagonal
