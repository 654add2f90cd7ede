"""Dense reference for :func:`gradedbrauer.algebra.graded_centralizer`
and for the kernels of :mod:`gradedbrauer.linalg`, and the
(1|1)-stabilization :func:`m11`, the reference route for the graded
center of a purely even algebra.

This is the centralizer as it was before elements went sparse: every
product is a dense coordinate vector, every constraint column a dense
difference over all ``dim`` coordinates, and each kernel is read off the
row-echelon form by back-substitution.  Like the library, it does not
check that the result is closed under the product: on an associative
table it is, and associativity is ``validate``'s.  It shares no
elimination or product code with the library, and the tests require
the library to return exactly the same ``(vector, parity)`` list.
"""

from gradedbrauer.algebra import AlgebraError, end_graded, graded_tensor


def m11(a):
    """Tensor with the rank (1|1) graded matrix algebra.

    This is the stabilization ``End(k^{1|1}) (x) a`` that defines the
    graded center of an algebra whose odd part vanishes; the library
    computes that center from ``Z(a)`` instead (see ``hat_center``).
    """
    return graded_tensor(end_graded(1, 1, a.field), a)


def row_echelon(rows):
    """Reduce a copy of ``rows`` to row-echelon form: ``(echelon,
    pivot_cols)``, pivot entries scaled to 1 with zeros below them."""
    m = [list(r) for r in rows]
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


def in_row_span(echelon, pivots, vector):
    """Whether ``vector`` lies in the row span of :func:`row_echelon`'s
    output: subtract the unique candidate combination, test the rest."""
    v = list(vector)
    for row_idx, pc in enumerate(pivots):
        if v[pc]:
            f = v[pc]
            v = [a - f * b for a, b in zip(v, echelon[row_idx])]
    return not any(v)


def dense_rank(rows):
    return len(row_echelon(rows)[1])


def dense_solve(rows, rhs, field):
    """Back-substitution on the echelon form of ``[rows | rhs]``, free
    coordinates 0; ``None`` when the system is inconsistent."""
    if not rows:
        return []
    ncols = len(rows[0])
    echelon, pivots = row_echelon([list(r) + [b] for r, b in zip(rows, rhs)])
    if ncols in pivots:
        return None
    x = [field.zero()] * ncols
    for row_idx in range(len(pivots) - 1, -1, -1):
        pc = pivots[row_idx]
        row = echelon[row_idx]
        acc = row[ncols]
        for c in range(pc + 1, ncols):
            if row[c] and x[c]:
                acc = acc - row[c] * x[c]
        x[pc] = acc
    return x


def dense_mul(a, x, y):
    """``x y`` through the structure table, visiting every coordinate pair."""
    out = [a.field.zero()] * a.dim
    for i, xi in enumerate(x):
        if not xi:
            continue
        for j, yj in enumerate(y):
            if not yj:
                continue
            cell = a.table.get((i, j))
            if not cell:
                continue
            f = xi * yj
            for k, c in cell.items():
                out[k] = out[k] + f * c
    return out


def dense_nullspace(rows, field):
    """Right kernel by back-substitution on the echelon form: one vector
    per free column, with a 1 in the free position."""
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


def dense_centralizer(a, elements):
    """Supercommutant of the homogeneous ``(vector, parity)`` pairs, degree
    0 first, intersected one constraint at a time on dense vectors."""
    constraints = []
    for vec, par in elements:
        if par not in (0, 1):
            raise AlgebraError("constraint parity must be 0 or 1")
        for idx, v in enumerate(vec):
            if v and a.parity[idx] != par:
                raise AlgebraError("constraint element is not homogeneous")
        constraints.append(([a.field.coerce(v) for v in vec], par))
    result = []
    for deg in (0, 1):
        kernel = [a.basis_vector(i) for i in a.degree_indices(deg)]
        for s_vec, s_par in constraints:
            if not kernel:
                break
            flip = deg and s_par
            columns = []
            for v in kernel:
                left = dense_mul(a, v, s_vec)
                right = dense_mul(a, s_vec, v)
                if flip:
                    columns.append([x + y for x, y in zip(left, right)])
                else:
                    columns.append([x - y for x, y in zip(left, right)])
            rows = [[col[r] for col in columns] for r in range(a.dim)]
            new_kernel = []
            for combo in dense_nullspace(rows, a.field):
                vec = [a.field.zero()] * a.dim
                for c, basis_vec in zip(combo, kernel):
                    if c:
                        for r, x in enumerate(basis_vec):
                            if x:
                                vec[r] = vec[r] + c * x
                new_kernel.append(vec)
            kernel = new_kernel
        result.extend((v, deg) for v in kernel)
    return result
