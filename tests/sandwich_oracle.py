"""The sandwich-matrix Azumaya test: the reference oracle for
:func:`gradedbrauer.algebra.is_azumaya`.

An algebra ``a`` is graded Azumaya over the point exactly when the
sandwich map ``a (x) a^op -> End(a)``, ``x (x) y -> (c -> (-1)^{|y||c|}
x c y)``, is bijective, i.e. when its ``dim**2 x dim**2`` matrix has
full rank.  That is the definition itself, so it shares no code path
with the library's trace-form and supercenter criterion.  It is also
``O(dim**6)`` and needs ``8 * dim**4`` bytes, which is why it lives in
the tests and runs only up to dimension 64.

Rank is certified mod a few fixed word-sized primes first, with numpy:
full rank mod any single prime proves full rank over the field.  Only
when every prime reports deficiency does the check fall back to
fraction-exact elimination.
"""

import numpy as np

from gradedbrauer.scalars import GaussianRational
from centralizer_oracle import dense_rank

# A few word-sized primes congruent to 1 mod 4, so that -1 has a square
# root mod p and Gaussian scalars reduce too.  Fixed rather than random:
# a wrong "full rank" verdict is impossible either way.
CERTIFICATE_PRIMES = (2147483629, 2147483549, 2147483497, 2147483489)


def sqrt_minus_one(p):
    for a in range(2, 100):
        r = pow(a, (p - 1) // 4, p)
        if r * r % p == p - 1:
            return r
    raise RuntimeError(f"no fourth root found mod {p}")


class BadPrime(Exception):
    """A denominator vanishes mod the prime."""


def residue(value, p, root):
    if isinstance(value, GaussianRational):
        return (residue(value.re, p, root) + root * residue(value.im, p, root)) % p
    den = value.denominator % p
    if den == 0:
        raise BadPrime
    return value.numerator % p * pow(den, p - 2, p) % p


def rank_mod_prime(mat, p):
    """Rank of an integer matrix over GF(p), by in-place elimination.

    ``mat`` is copied to int64.  Row operations stay inside int64 range
    because every entry is reduced below ``p < 2**31`` first, so the
    products in the update step are below ``2**62``.
    """
    m = np.array(mat, dtype=np.int64) % p
    nrows, ncols = m.shape
    r = 0
    for c in range(ncols):
        if r == nrows:
            break
        nz = np.nonzero(m[r:, c])[0]
        if nz.size == 0:
            continue
        i = r + int(nz[0])
        if i != r:
            m[[r, i]] = m[[i, r]]
        inv = pow(int(m[r, c]), p - 2, p)
        m[r] = (m[r] * inv) % p
        below = m[r + 1:, c]
        hot = np.nonzero(below)[0]
        if hot.size:
            m[r + 1:][hot] = (m[r + 1:][hot] - np.outer(below[hot], m[r])) % p
        r += 1
    return r


def sandwich_entries(a):
    """Sparse matrix of ``x (x) y -> (c -> (-1)^{|y||c|} x c y)``.

    Row index ``m * dim + c`` (output coefficient ``m`` on input basis
    vector ``c``), column index ``i * dim + j`` for ``e_i (x) e_j``.
    """
    n = a.dim
    zero = a.field.zero()
    entries = {}
    for i in range(n):
        for c in range(n):
            u = a.table.get((i, c))
            if not u:
                continue
            for j in range(n):
                flip = a.parity[j] and a.parity[c]
                col = i * n + j
                for t, ct in u.items():
                    cell = a.table.get((t, j))
                    if not cell:
                        continue
                    for m, cm in cell.items():
                        v = ct * cm
                        key = (m * n + c, col)
                        acc = entries.get(key, zero) + (-v if flip else v)
                        if acc:
                            entries[key] = acc
                        else:
                            entries.pop(key, None)
    return entries


def sandwich_is_azumaya(a):
    """Whether the sandwich matrix of ``a`` has full rank ``dim**2``."""
    n = a.dim
    if n > 64:
        raise ValueError(f"the sandwich oracle needs {8 * n ** 4} bytes at dimension {n}")
    size = n * n
    entries = sandwich_entries(a)
    for p in CERTIFICATE_PRIMES:
        root = sqrt_minus_one(p)
        mat = np.zeros((size, size), dtype=np.int64)
        try:
            for (r, c), value in entries.items():
                mat[r, c] = residue(value, p, root)
        except BadPrime:
            continue
        if rank_mod_prime(mat, p) == size:
            return True
    zero = a.field.zero()
    rows = [[zero] * size for _ in range(size)]
    for (r, c), value in entries.items():
        rows[r][c] = value
    return dense_rank(rows) == size
