"""Exact integer lattice algorithms on plain list-of-list matrices.

Everything here works on rectangular grids of Python ints (row-major,
``a[i][j]``), the form in which FormMatrix keeps its coefficient grids.
These routines back the matrix layer and the integer steps of ``witt`` and
``complexes``, and they import nothing else from the package.

Determinism contract: the Smith form pivot is always a nonzero entry of
minimal absolute value in the live submatrix, ties broken row-major.  The
Hermite routines produce the canonical basis with positive pivots and
earlier-column entries reduced into ``[0, pivot)``, so equal lattices give
equal grids.

Both eliminations work on a live block only.  When the Smith form reaches
step t, rows and columns before t are zero outside the diagonal, so a row
operation touches columns >= t, and once column t is clear below the pivot
a column operation changes A in row t alone; V is kept transposed, so a
column operation on it is one row update.  A pivot of absolute value 1
ends the search and divides everything.  When the Hermite form reaches row
r, the unsettled columns are zero above r, so its column operations touch
rows >= r.

Determinants and inverses come from one fraction-free elimination on
[a | b] (Bareiss 1968).  After the step with pivot p_k every live entry is a
minor of [a | b], so each update (p_k·a_ij − a_ik·a_kj) / p_(k−1) divides
exactly, also in rows with a_ik = 0, which are only rescaled by
p_k / p_(k−1).  The last pivot is ±det a; reducing every row (Gauss–Jordan)
leaves ±det a times a^-1·b on the right.  Only ring operations and exact
divisions occur, so ``matrices`` runs the same elimination on Laurent
matrices packed into ints by z ↦ 2^B.

A wide product a·b packs each row of b into one int of base-2^(8·size) digits
(Kronecker substitution), each biased by 2^(8·size − 1) so that none is
negative; row i of a·b is then one sum of n products, and its digits come back
by one cast when they are 1, 2, 4 or 8 bytes.  The one rule ``_packs_wide``
picks that path; ``matrices`` reads its packed products with the same reader.

Determinants mod a prime (Brown 1971; Collins 1971) give group-ring
determinants an exact "no" at a fraction of an elimination's cost:
``cyclic_det_mod_p`` evaluates a matrix over Z[Z/m] at the m-th roots of
unity of F_p, for p = 1 (mod m) proved prime by a deterministic Miller-Rabin.
"""

from __future__ import annotations

import sys
from array import array
from functools import cache
from itertools import chain
from operator import mul


def zeros(m: int, n: int) -> list[list[int]]:
    return [[0] * n for _ in range(m)]


def identity(n: int) -> list[list[int]]:
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def copy_grid(a: list[list[int]]) -> list[list[int]]:
    return [row[:] for row in a]


def dims(a: list[list[int]]) -> tuple[int, int]:
    m = len(a)
    n = len(a[0]) if m else 0
    return m, n


def matmul(a: list[list[int]], b: list[list[int]]) -> list[list[int]]:
    m, n = dims(a)
    n2, k = dims(b)
    if n != n2 and m and k:
        raise ValueError("shape mismatch in integer matmul")
    if size := _packs_wide(a, b):
        return _packed_matmul(a, b, size)
    out = zeros(m, k)
    for i in range(m):
        ai = a[i]
        oi = out[i]
        for t in range(n):
            x = ai[t]
            if x:
                bt = b[t]
                for j in range(k):
                    oi[j] += x * bt[j]
    return out


def _packs_wide(a: list[list[int]], b: list[list[int]]) -> int:
    """The digit size in bytes if ``matmul`` packs a·b, else 0: the one shape rule,
    read off the ladder of both paths in CHANGES.md.  Packing pays from 16 rows,
    16 inner and 8 outer columns on, with at least half of a nonzero; its digits
    are twice as wide as the entries, so beyond 32 bytes the loop wins."""
    m, n = dims(a)
    if m < 16 or n < 16 or dims(b)[1] < 8 or 2 * sum(row.count(0) for row in a) > m * n:
        return 0
    size = _digit_size(a, b)
    return size if size <= 32 else 0


def _digit_size(a: list[list[int]], b: list[list[int]]) -> int:
    """Bytes per signed digit that hold every entry of b and of a·b; 1, 2, 4 or 8 if that suffices."""
    top_b = max(map(abs, chain.from_iterable(b)), default=0)
    size = (max(top_b, len(b) * max(map(abs, chain.from_iterable(a)), default=0) * top_b).bit_length() + 8) // 8
    return 1 << (size - 1).bit_length() if size <= 8 else size


def _packed_matmul(a: list[list[int]], b: list[list[int]], size: int) -> list[list[int]]:
    """a·b: with row t of b packed as B_t + bias, row i of a·b plus bias is
    sum_t a_it (B_t + bias) - (sum_t a_it - 1) bias."""
    k = dims(b)[1]
    bias, fmt = _bias(size, k), _CASTS.get(size)
    packed = [int.from_bytes(array(fmt, row).tobytes() if fmt else
                             b"".join([x.to_bytes(size, "little", signed=True) for x in row]), "little") ^ bias
              for row in b]
    flat = _signed_digits(b"".join([((sum(map(mul, row, packed)) - (sum(row) - 1) * bias) ^ bias)
                                    .to_bytes(size * k, "little") for row in a]), size)
    return [flat[i * k:(i + 1) * k] for i in range(len(a))]


def _bias(size: int, count: int) -> int:
    """count digits 2^(8 size - 1) of size bytes: added to signed digits it leaves each
    non-negative with no carry, and xor with it then gives each in two's complement."""
    return int.from_bytes((1 << 8 * size - 1).to_bytes(size, "little") * count, "little")


# digits of 1, 2, 4 or 8 bytes are written and read by one cast, in native byte order
_CASTS = {array(c).itemsize: c for c in "bhiq"} if sys.byteorder == "little" else {}


def _signed_digits(buf: bytes, size: int, first: int = 0, step: int = 1) -> list[int]:
    """Every step-th two's-complement little-endian digit of size bytes in buf, from digit first on."""
    if size in _CASTS:
        return memoryview(buf).cast(_CASTS[size])[first::step].tolist()
    return [int.from_bytes(buf[at:at + size], "little", signed=True)
            for at in range(first * size, len(buf), step * size)]


def transpose(a: list[list[int]]) -> list[list[int]]:
    m, n = dims(a)
    return [[a[i][j] for i in range(m)] for j in range(n)]


def _find_pivot(a, m, n, t):
    """(i, j) of a least nonzero |a_ij| with i, j >= t, first in row-major order."""
    best, at = 0, None
    for i in range(t, m):
        row = a[i]
        for j in range(t, n):
            x = row[j]
            if x:
                if x < 0:
                    x = -x
                if at is None or x < best:
                    if x == 1:
                        return i, j
                    best, at = x, (i, j)
    return at


def smith_normal_form(a: list[list[int]], want_u: bool = True, want_v: bool = True,
                      want_u_inverse: bool = False):
    """Return (U, D, V) with U·a·V = D diagonal, d1 | d2 | ..., di >= 0.

    U and V are unimodular (built from row and column operations only).  A
    transform the caller does not want is neither built nor updated and
    comes back as None; the pivots and D are the same either way.  With
    want_u_inverse, U^-1 comes back as a fourth item, built by the inverse
    column operations of U's row operations, kept transposed as V is.
    """
    m, n = dims(a)
    A = copy_grid(a)
    U = identity(m) if want_u else None
    W = identity(n) if want_v else None  # V transposed: its columns are rows here
    Y = identity(m) if want_u_inverse else None  # U^-1 transposed
    t = 0
    while t < min(m, n):
        piv = _find_pivot(A, m, n, t)
        if piv is None:
            break
        i0, j0 = piv
        if i0 != t:
            A[t], A[i0] = A[i0], A[t]
            if U:
                U[t], U[i0] = U[i0], U[t]
            if Y:
                Y[t], Y[i0] = Y[i0], Y[t]
        if j0 != t:
            for i in range(t, m):
                row = A[i]
                row[t], row[j0] = row[j0], row[t]
            if W:
                W[t], W[j0] = W[j0], W[t]
        At = A[t]
        d = At[t]
        dirty = False
        for i in range(t + 1, m):
            Ai = A[i]
            if Ai[t]:
                q = Ai[t] // d
                if q:
                    Ai[t:] = [x - q * y for x, y in zip(Ai[t:], At[t:])]
                    if U:
                        U[i] = [x - q * y for x, y in zip(U[i], U[t])]
                    if Y:
                        Y[t] = [x + q * y for x, y in zip(Y[t], Y[i])]
                if Ai[t]:
                    dirty = True
        if dirty:
            continue
        # column t is clear below the pivot, so a column operation changes row t only
        for j in range(t + 1, n):
            if At[j]:
                q = At[j] // d
                if q:
                    At[j] -= q * d
                    if W:
                        W[j] = [x - q * y for x, y in zip(W[j], W[t])]
                if At[j]:
                    dirty = True
        if dirty:
            continue
        if d not in (1, -1):
            bad = next((i for i in range(t + 1, m) if any(x % d for x in A[i][t + 1:])), None)
            if bad is not None:
                At[t:] = [x + y for x, y in zip(At[t:], A[bad][t:])]
                if U:
                    U[t] = [x + y for x, y in zip(U[t], U[bad])]
                if Y:
                    Y[bad] = [x - y for x, y in zip(Y[bad], Y[t])]
                continue
        if d < 0:
            At[t] = -d
            if U:
                U[t] = [-x for x in U[t]]
            if Y:
                Y[t] = [-x for x in Y[t]]
        t += 1
    out = U, A, None if W is None else transpose(W)
    return out + (transpose(Y),) if want_u_inverse else out


def diagonal_of(d: list[list[int]]) -> list[int]:
    m, n = dims(d)
    return [d[i][i] for i in range(min(m, n))]


def elementary_divisors(a: list[list[int]]) -> list[int]:
    """Nonzero diagonal entries of the Smith form, in the divisibility chain."""
    _, d, _ = smith_normal_form(a, False, False)
    return [x for x in diagonal_of(d) if x]


def is_split_injection(a: list[list[int]]) -> bool:
    """True iff the columns of a span a primitive sublattice of full column rank."""
    m, n = dims(a)
    if n == 0:
        return True
    divs = elementary_divisors(a)
    return len(divs) == n and all(x == 1 for x in divs)


def is_surjection(a: list[list[int]]) -> bool:
    m, _ = dims(a)
    divs = elementary_divisors(a)
    return len(divs) == m and all(x == 1 for x in divs)


def kernel_basis(a: list[list[int]]) -> list[list[int]]:
    """n×s grid whose columns form a basis of ker(a); the basis is primitive."""
    m, n = dims(a)
    _, d, v = smith_normal_form(a, want_u=False)
    r = sum(1 for x in diagonal_of(d) if x)
    return [[v[i][j] for j in range(r, n)] for i in range(n)]


def solve(a: list[list[int]], b: list[list[int]]):
    """Any integer X with a·X = b, or None when no integer solution exists."""
    return _smith_solve(a, b)[0]


def _smith_solve(a: list[list[int]], b: list[list[int]]):
    """(X or None, V, r) from one Smith form U·a·V = D of rank r: the solution
    ``solve`` returns, and V, whose columns r.. are a primitive basis of ker a."""
    m, n = dims(a)
    mb, k = dims(b)
    if m != mb:
        raise ValueError("shape mismatch in solve")
    u, d, v = smith_normal_form(a)
    ub = matmul(u, b)
    diag = diagonal_of(d)
    r = sum(1 for x in diag if x)
    y = zeros(n, k)
    for i in range(m):
        di = diag[i] if i < len(diag) else 0
        for c in range(k):
            if di:
                if ub[i][c] % di:
                    return None, v, r
                if i < n:
                    y[i][c] = ub[i][c] // di
            elif ub[i][c]:
                return None, v, r
    return matmul(v, y), v, r


def hermite_column_basis(a: list[list[int]]):
    """Canonical basis of the column lattice of a.

    Returns (h, pivots): h is an m×r grid whose columns are the basis,
    pivots[i] is the pivot row of column i (strictly increasing), each pivot
    entry is positive, and entries of earlier columns in a pivot row lie in
    [0, pivot).
    """
    m, n = dims(a)
    cols = [[a[i][j] for i in range(m)] for j in range(n)]
    settled = 0
    pivots: list[int] = []
    for r in range(m):
        while True:
            nz = [k for k in range(settled, len(cols)) if cols[k][r]]
            if len(nz) <= 1:
                break
            nz.sort(key=lambda k: (abs(cols[k][r]), k))
            k0, k1 = nz[0], nz[1]
            c0, c1 = cols[k0], cols[k1]
            q = c1[r] // c0[r]
            c1[r:] = [x - q * y for x, y in zip(c1[r:], c0[r:])]
        if not nz:
            continue
        j = nz[0]
        cols[settled], cols[j] = cols[j], cols[settled]
        if cols[settled][r] < 0:
            cols[settled] = [-x for x in cols[settled]]
        cs = cols[settled]
        g = cs[r]
        for ck in cols[:settled]:
            q = ck[r] // g
            if q:
                ck[r:] = [x - q * y for x, y in zip(ck[r:], cs[r:])]
        pivots.append(r)
        settled += 1
    h = [[cols[j][i] for j in range(settled)] for i in range(m)]
    return h, pivots


def same_span(a: list[list[int]], b: list[list[int]]) -> bool:
    """True iff the columns of a and b span the same sublattice."""
    if len(a) != len(b):
        return False
    ha, _ = hermite_column_basis(a)
    hb, _ = hermite_column_basis(b)
    return ha == hb


def reduce_mod_lattice(v: list[int], h: list[list[int]], pivots: list[int]) -> list[int]:
    """Canonical representative of v modulo the lattice with Hermite basis h: the one
    in its coset with entry pivots[i] in [0, h[pivots[i]][i]) for every i.

    Column i is zero above its pivot row, so reducing by it changes v only from that
    row on; going from the first pivot to the last leaves each reduced entry alone."""
    out = list(v)
    for i, p in enumerate(pivots):
        q = out[p] // h[p][i]
        if q:
            for r in range(p, len(out)):
                out[r] -= q * h[r][i]
    return out


def solve_reduced(a: list[list[int]], b: list[list[int]]):
    """Like solve, but the result is canonical: each column of X is reduced
    modulo the kernel lattice of a."""
    x, v, r = _smith_solve(a, b)
    if x is None:
        return None
    n, k = dims(x)
    ker = [row[r:] for row in v]
    if not ker or not ker[0]:
        return x
    h, pivots = hermite_column_basis(ker)
    cols = [reduce_mod_lattice([x[i][c] for i in range(n)], h, pivots) for c in range(k)]
    return [[cols[c][i] for c in range(k)] for i in range(n)]


def bareiss(a: list[list[int]], b: list[list[int]]):
    """(d, x) with d = +-det a and a·x = d·b for a square a, or (0, None) if a is singular.

    With b of width 0 only the rows below each pivot are reduced, for d alone.
    """
    n = len(a)
    rows = [ra + rb for ra, rb in zip(a, b)]
    full = bool(b and b[0])
    prev = 1
    for k in range(n):
        piv = next((i for i in range(k, n) if rows[i][k]), None)
        if piv is None:
            return 0, None
        rows[k], rows[piv] = rows[piv], rows[k]
        rk = rows[k]
        pk, tail = rk[k], rk[k + 1:]
        for i in range(0 if full else k + 1, n):
            row = rows[i]
            c = row[k]
            if i == k or (not c and pk == prev):
                continue
            if c:
                row[k + 1:] = [(pk * x - c * y) // prev for x, y in zip(row[k + 1:], tail)]
            else:  # only rescaled from p_(k-1) to p_k
                row[k + 1:] = [pk * x // prev for x in row[k + 1:]]
        prev = pk
    return prev, [row[n:] for row in rows]


def is_unimodular(a: list[list[int]]) -> bool:
    """True iff a is square with determinant +-1."""
    m, n = dims(a)
    return m == n and bareiss(a, [[]] * n)[0] in (1, -1)


def unimodular_solve(a: list[list[int]], b: list[list[int]]):
    """The X with a·X = b when a is unimodular, else None."""
    if dims(a) != (len(b), len(b)):
        return None
    d, x = bareiss(a, b)
    return [[d * v for v in row] for row in x] if d in (1, -1) else None


def inverse(a: list[list[int]]):
    """Exact inverse of a unimodular integer matrix, or None."""
    return unimodular_solve(a, identity(len(a)))


def complement_of_primitive(b: list[list[int]]):
    """For a primitive m×r sublattice basis b, return (c, p): c an m×(m-r)
    complement basis and p the (m-r)×m projection with p·c = I, p·b = 0."""
    m, r = dims(b)
    u, d, _, uinv = smith_normal_form(b, want_v=False, want_u_inverse=True)
    if r > m or any(d[i][i] != 1 for i in range(r)):  # not a split injection
        return None
    comp = [row[r:] for row in uinv]
    proj = [u[i][:] for i in range(r, m)]
    return comp, proj


def completion_of_primitive_vector(v: list[int]):
    """A unimodular matrix whose first column is the primitive vector v, or None.

    That is U^-1 for the Smith form U·v = (1, 0, ..., 0)': its V is 1 x 1 and
    only ever the identity, so U^-1 maps e_1 to v itself."""
    _, d, _, uinv = smith_normal_form([[x] for x in v], False, False, True)
    return uinv if d and d[0][0] == 1 else None


# -- determinants mod p ---------------------------------------------------------


# Miller-Rabin with these bases is exact below 3.1 * 10^23 (Sorenson-Webster 2017)
_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def is_prime(n: int) -> bool:
    """Whether n is prime, by a deterministic Miller-Rabin test; exact for n < 3.1 * 10^23."""
    if n < 2:
        return False
    for b in _WITNESSES:
        if n % b == 0:
            return n == b
    s = ((n - 1) & -(n - 1)).bit_length() - 1
    d = (n - 1) >> s
    for b in _WITNESSES:
        x = pow(b, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


@cache
def prime_and_root(order: int) -> tuple[int, int]:
    """(p, zeta): the least prime p > 2^29 with p = 1 (mod order), and the
    least-based zeta = b^((p-1)/order), b = 2, 3, ..., of multiplicative order
    exactly order.  For the orders files allow p < 2^30, so that every residue
    is one 30-bit digit of a Python int."""
    p = (2 ** 29 // order + 1) * order + 1
    while not is_prime(p):
        p += order
    factors = {q for q in range(2, order + 1) if order % q == 0 and all(q % r for r in range(2, q))}
    b = 2
    while True:
        zeta = pow(b, (p - 1) // order, p)
        if all(pow(zeta, order // q, p) != 1 for q in factors):
            return p, zeta
        b += 1


def det_mod(a: list[list[int]], p: int) -> int:
    """det a mod p, in [0, p), for a square grid of residues mod the prime p."""
    a = copy_grid(a)
    n, d = len(a), 1
    for k in range(n):
        piv = next((i for i in range(k, n) if a[i][k]), None)
        if piv is None:
            return 0
        if piv != k:
            a[k], a[piv] = a[piv], a[k]
            d = -d
        ak = a[k]
        d = d * ak[k] % p
        inv = pow(ak[k], -1, p)
        tail = ak[k + 1:]
        for i in range(k + 1, n):
            ai = a[i]
            if ai[k]:
                c = ai[k] * inv % p
                ai[k + 1:] = [(x - c * y) % p for x, y in zip(ai[k + 1:], tail)]
    return d % p


def cyclic_det_mod_p(grids: dict, n: int, order: int) -> tuple[int, int]:
    """(det R(M) mod p, p) for the n x n matrix M = sum_k grids[k] g^k over Z[Z/order],
    with (p, zeta) from ``prime_and_root``.  R(M) is its (n order)-wide integer regular
    representation, but only n x n determinants are taken: p = 1 (mod order), so
    F_p[Z/order] is F_p^order by g -> zeta^j, j < order, and det R(M) = prod_j det M(zeta^j)
    (mod p).  The product stops at its first zero factor."""
    p, zeta = prime_and_root(order)
    powers = [pow(zeta, e, p) for e in range(order)]
    keys = list(grids)
    # entry (i, j) as its coefficients at the keys, residues mod p
    coeffs = list(zip(*([x % p for x in chain.from_iterable(grids[k])] for k in keys))) or [()] * (n * n)
    out = 1
    for j in range(order):
        w = [powers[j * k % order] for k in keys]
        values = [sum(map(mul, c, w)) % p for c in coeffs]
        out = out * det_mod([values[i * n:(i + 1) * n] for i in range(n)], p) % p
        if not out:
            break
    return out, p
