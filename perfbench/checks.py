"""The benchmark's own exact arithmetic and the checks built on it.

Nothing here imports the package under test: every check recomputes what an
output must satisfy with plain Python ints, so a fault in the package cannot
also hide in its checker.  Matrices are lists of rows.  Ring elements are
plain ints over Z, length-m coefficient lists over Z[Z/m] (index k holds the
coefficient of g^k) and {exponent: coefficient} dicts over Z[z,z^-1], with
zero coefficients left out.  Each check returns None on success or a short
message naming the identity that failed.
"""

from __future__ import annotations

# -- integer matrices ---------------------------------------------------------


def identity(n):
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def transpose(a):
    return [list(col) for col in zip(*a)]


def matmul(a, b):
    """Integer matrix product; the shapes must agree."""
    if a and len(a[0]) != len(b):
        raise ValueError("shape mismatch in matmul")
    bt = transpose(b) if b else []
    return [[sum(x * y for x, y in zip(row, col)) for col in bt] for row in a]


def bareiss(a):
    """(determinant, rank) of a square integer matrix by fraction-free elimination."""
    n = len(a)
    m = [row[:] for row in a]
    sign, prev, rank = 1, 1, 0
    row = 0
    for col in range(n):
        piv = next((r for r in range(row, n) if m[r][col]), None)
        if piv is None:
            continue
        if piv != row:
            m[row], m[piv] = m[piv], m[row]
            sign = -sign
        p = m[row][col]
        for r in range(row + 1, n):
            for c in range(col + 1, n):
                m[r][c] = (m[r][c] * p - m[r][col] * m[row][c]) // prev
            m[r][col] = 0
        prev = p
        row += 1
        rank += 1
    det = sign * prev if rank == n else 0
    return det, rank


def block_diag(a, b):
    na, nb = len(a), len(b)
    return [row + [0] * nb for row in a] + [[0] * na + row for row in b]


def hyperbolic_lambda(eps, ell):
    """[[0, I], [eps*I, 0]] of rank 2*ell."""
    n = 2 * ell
    out = [[0] * n for _ in range(n)]
    for i in range(ell):
        out[i][ell + i] = 1
        out[ell + i][i] = eps
    return out


def mu_z(lam, mu, eps, x):
    """mu(x) on Z by the polarisation rule, as its class in Q_eps(Z)."""
    k = len(x)
    acc = 0
    for j in range(k):
        if x[j]:
            acc += x[j] * x[j] * mu[j]
            for l in range(j + 1, k):
                acc += x[j] * lam[j][l] * x[l]
    return acc if eps == 1 else acc % 2


def bits_max(obj):
    """Largest bit-length of any int inside nested lists, tuples and dicts."""
    best = 0
    stack = [obj]
    while stack:
        o = stack.pop()
        if isinstance(o, bool):
            continue
        if isinstance(o, int):
            best = max(best, o.bit_length())
        elif isinstance(o, dict):
            stack.extend(o.values())
        elif isinstance(o, (list, tuple)):
            stack.extend(o)
    return best


# -- rings with involution ------------------------------------------------------


class IntRing:
    kind = "Z"

    def zero(self):
        return 0

    def one(self):
        return 1

    def add(self, a, b):
        return a + b

    def neg(self, a):
        return -a

    def mul(self, a, b):
        return a * b

    def conj(self, a):
        return a

    def to_obj(self, a):
        return a

    def from_obj(self, o):
        return o

    def spec(self):
        return {"ring": "Z"}


class CyclicRing:
    """Z[Z/m] with involution g -> w*g^-1."""

    kind = "cyclic"

    def __init__(self, m, w):
        self.m, self.w = m, w

    def zero(self):
        return [0] * self.m

    def one(self):
        return [1] + [0] * (self.m - 1)

    def monomial(self, k, c):
        v = self.zero()
        v[k % self.m] = c
        return v

    def add(self, a, b):
        return [x + y for x, y in zip(a, b)]

    def neg(self, a):
        return [-x for x in a]

    def mul(self, a, b):
        m = self.m
        out = [0] * m
        for i, x in enumerate(a):
            if x:
                for j, y in enumerate(b):
                    out[(i + j) % m] += x * y
        return out

    def conj(self, a):
        m = self.m
        out = [0] * m
        for k, c in enumerate(a):
            out[(m - k) % m] += self.w ** k * c
        return out

    def to_obj(self, a):
        return list(a)

    def from_obj(self, o):
        return list(o)

    def spec(self):
        return {"ring": "cyclic", "m": self.m, "w": self.w}


class LaurentRing:
    """Z[z,z^-1] with involution z -> z^-1; elements are {exponent: coeff}."""

    kind = "laurent"

    def zero(self):
        return {}

    def one(self):
        return {0: 1}

    def monomial(self, k, c):
        return {k: c} if c else {}

    def add(self, a, b):
        out = dict(a)
        for k, c in b.items():
            s = out.get(k, 0) + c
            if s:
                out[k] = s
            else:
                out.pop(k, None)
        return out

    def neg(self, a):
        return {k: -c for k, c in a.items()}

    def mul(self, a, b):
        out = {}
        for i, x in a.items():
            for j, y in b.items():
                out[i + j] = out.get(i + j, 0) + x * y
        return {k: c for k, c in out.items() if c}

    def conj(self, a):
        return {-k: c for k, c in a.items()}

    def to_obj(self, a):
        if not a:
            return {"origin": 0, "coeffs": []}
        lo, hi = min(a), max(a)
        return {"origin": lo, "coeffs": [a.get(k, 0) for k in range(lo, hi + 1)]}

    def from_obj(self, o):
        return {o["origin"] + i: c for i, c in enumerate(o["coeffs"]) if c}

    def spec(self):
        return {"ring": "laurent"}


def ring_matmul(ring, a, b):
    out = []
    for row in a:
        orow = []
        for j in range(len(b[0])):
            acc = ring.zero()
            for t, x in enumerate(row):
                acc = ring.add(acc, ring.mul(x, b[t][j]))
            orow.append(acc)
        out.append(orow)
    return out


def ring_star(ring, a):
    """Conjugate transpose."""
    return [[ring.conj(a[i][j]) for i in range(len(a))] for j in range(len(a[0]))]


def ring_identity(ring, n):
    return [[ring.one() if i == j else ring.zero() for j in range(n)] for i in range(n)]


def ring_equal(ring, a, b):
    """Equality of elements (Laurent dicts compare with zeros dropped)."""
    if ring.kind == "laurent":
        return {k: c for k, c in a.items() if c} == {k: c for k, c in b.items() if c}
    return a == b


def ring_mat_equal(ring, a, b):
    return len(a) == len(b) and all(
        len(ra) == len(rb) and all(ring_equal(ring, x, y) for x, y in zip(ra, rb))
        for ra, rb in zip(a, b)
    )


def symmetrize(ring, x, eps):
    """x + eps * conj(x)."""
    c = ring.conj(x)
    return ring.add(x, c if eps == 1 else ring.neg(c))


# -- checks on outputs ----------------------------------------------------------


def check_lagrangian_extension(lam, mu, eps, basis, f):
    """f is an isometry from the hyperbolic form extending the given basis."""
    n = len(lam)
    ell = n // 2
    if len(f) != n or any(len(r) != n for r in f):
        return "isometry has the wrong shape"
    if matmul(matmul(transpose(f), lam), f) != hyperbolic_lambda(eps, ell):
        return "F*.lambda.F != lambda_H"
    if [row[:ell] for row in f] != basis:
        return "first columns of F are not the given lagrangian basis"
    for j in range(n):
        if mu_z(lam, mu, eps, [row[j] for row in f]):
            return f"mu(F e_{j}) != 0"
    det, _ = bareiss(f)
    if det not in (1, -1):
        return f"det F = {det}, not a unit"
    return None


def check_reduction(lam, mu, eps, r, residual_psi, f):
    """f is a unimodular isometry from H_eps(Z^r) + residual onto (lambda, mu):
    it carries lambda_H(r) + lambda_residual onto lambda, and mu of its
    columns is 0 on the hyperbolic block and [psi_ii] on the residual."""
    res_lam = [
        [residual_psi[i][j] + eps * residual_psi[j][i] for j in range(len(residual_psi))]
        for i in range(len(residual_psi))
    ]
    source = block_diag(hyperbolic_lambda(eps, r), res_lam)
    if len(f) != len(lam) or any(len(row) != len(source) for row in f):
        return "isometry has the wrong shape"
    if matmul(matmul(transpose(f), lam), f) != source:
        return "F*.lambda.F != lambda_H + lambda_residual"
    want = [0] * (2 * r) + [residual_psi[i][i] for i in range(len(residual_psi))]
    for j, w in enumerate(want):
        if mu_z(lam, mu, eps, [row[j] for row in f]) != (w if eps == 1 else w % 2):
            return f"mu(F e_{j}) != {w}"
    det, _ = bareiss(f)
    if det not in (1, -1):
        return f"det F = {det}, not a unit"
    return None


def check_cokernel(a, group, kernel_rank):
    """group is coker(a) and kernel_rank is rank ker(a), for square a.

    The ranks are checked always, the torsion orders (whose product is
    |det a|) only when a is nonsingular."""
    det, rank = bareiss(a)
    k = len(a)
    if group["free_rank"] != k - rank:
        return f"free rank {group['free_rank']} != {k - rank}"
    if kernel_rank != k - rank:
        return f"kernel rank {kernel_rank} != {k - rank}"
    prod = 1
    for t in group["torsion"]:
        prod *= t
    if det and prod != abs(det):
        return f"torsion orders multiply to {prod}, |det| = {abs(det)}"
    return None


def check_inverse(ring, m, inv):
    """m . inv is the identity over the ring."""
    n = len(m)
    if len(inv) != n or any(len(row) != n for row in inv):
        return "inverse has the wrong shape"
    if not ring_mat_equal(ring, ring_matmul(ring, m, inv), ring_identity(ring, n)):
        return "M . M^-1 != I"
    return None


def check_preimage(ring, a, eps, x):
    """x + eps * conj(x) = a."""
    if x is None:
        return "no preimage returned for an element of the image"
    if not ring_equal(ring, symmetrize(ring, x, eps), a):
        return "x + eps*conj(x) != a"
    return None


def check_reduction_class(ring, rep, rep_again, rep_moved):
    """Reduction is idempotent and constant on a coset of {x - eps*conj(x)}."""
    if not ring_equal(ring, rep_again, rep):
        return "q_eps_reduce is not idempotent"
    if not ring_equal(ring, rep_moved, rep):
        return "a and a + x - eps*conj(x) reduce to different classes"
    return None
