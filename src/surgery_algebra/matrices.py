"""Dense exact matrices over a ring with involution.

Morphisms follow the column convention: a map Lambda^m -> Lambda^n is an
n x m matrix acting on column vectors, composition is matrix product in
function order, and the dual of a map is its conjugate transpose.

Over every ring a matrix is stored as integer grids keyed by exponent,
M = sum_k M_k g^k (g = z over Z[z,z^-1]).  The exponent k is read mod m over
Z[Z/m], is any integer over Z[z,z^-1] and is 0 over Z.  Only the grids that
occur are kept (rows * cols ints per exponent; ``serialize`` caps that for
files), so a Laurent matrix with entries z^-N and z^N holds two grids, not
2N+1.  A sum that cancels may keep an all-zero grid, which equality,
hashing and ``is_zero`` skip.  One set of operations on the ints serves all
three rings: sums grid by grid, products as a convolution through
``_intlat.matmul`` of the pairs M_p N_q where a nonzero column of M_p meets
a nonzero row of N_q (exponents add), the dual by transposing grid k into
slot -k scaled by w^k.  Only the constructor, ``entry`` and ``entries``
convert between grids and RingElements.

Integer lattice questions (Smith form, kernels, splitness) are answered
exactly over the integers by the ``_intlat`` kernels, which read the stored
grid.  Invertibility over Z and Z[Z/m] is read off the integer regular
representation R(M), a block layout of the grids: the ring is commutative,
so M is invertible iff det R(M) = +-1.  ``is_unimodular`` computes only that
determinant; ``try_inverse`` solves for the n columns of R(M)^-1 that hold
the inverse's coefficients, by fraction-free (Bareiss) elimination.  Over
Z[z,z^-1] the same elimination on RingElements yields d = +-det and d times
the inverse; the units there are exactly +-z^k.  Lattice-splitting
questions over non-integer rings are refused rather than approximated;
callers there must supply witnesses.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass

from . import _intlat, rings
from .errors import SchemaError, SingularMatrixError, WrongRingError
from .rings import AbelianGroup, RingElement, RingSpec


@dataclass(frozen=True, init=False, eq=False, slots=True)
class FormMatrix:
    """An immutable rows x cols matrix sum_k M_k g^k, held as ``{k: M_k}``;
    ``FormMatrix(ring, rows, cols, entries)`` builds one from rows of
    RingElements.  Equality compares the nonzero grids."""

    ring: RingSpec
    rows: int
    cols: int
    _grids: dict

    def __new__(cls, ring: RingSpec, rows: int, cols: int, entries):
        if len(entries) != rows or any(len(r) != cols for r in entries):
            raise SchemaError("matrix entry grid does not match declared shape")
        if any(e.ring != ring for row in entries for e in row):
            raise WrongRingError("entry over wrong ring")
        grids = {}
        for i, row in enumerate(entries):
            for j, e in enumerate(row):
                k = e.shift
                for c in e.coeffs:
                    if c:
                        if k not in grids:
                            grids[k] = _intlat.zeros(rows, cols)
                        grids[k][i][j] = c
                    k += 1
        return _grid_matrix(ring, rows, cols, grids)

    def __eq__(self, other):
        if not isinstance(other, FormMatrix):
            return NotImplemented
        return ((self.ring, self.rows, self.cols, _nonzero(self))
                == (other.ring, other.rows, other.cols, _nonzero(other)))

    def __hash__(self):
        grids = frozenset((k, tuple(map(tuple, g))) for k, g in _nonzero(self).items())
        return hash((self.ring, self.rows, self.cols, grids))

    def __getnewargs__(self):  # copy and pickle rebuild through __new__
        return self.ring, self.rows, self.cols, self.entries

    # -- access ---------------------------------------------------------

    @property
    def entries(self) -> tuple[tuple[RingElement, ...], ...]:
        return tuple(tuple(self.entry(i, j) for j in range(self.cols)) for i in range(self.rows))

    def entry(self, i: int, j: int) -> RingElement:
        ring = self.ring
        if ring.kind == "Z":  # the common case, kept to one lookup
            g = self._grids.get(0)
            return RingElement(ring, (g[i][j] if g else 0,))
        terms = {k: g[i][j] for k, g in self._grids.items() if g[i][j]}
        lo, hi = (min(terms), max(terms)) if terms and ring.kind == "laurent" else (0, (ring.m or 1) - 1)
        return rings._mk(ring, [terms.get(k, 0) for k in range(lo, hi + 1)], lo)

    def column(self, j: int) -> "FormMatrix":
        return self.submatrix(range(self.rows), (j,))

    def submatrix(self, row_idx, col_idx) -> "FormMatrix":
        grids = {k: [[g[i][j] for j in col_idx] for i in row_idx] for k, g in self._grids.items()}
        return _grid_matrix(self.ring, len(row_idx), len(col_idx), grids)

    def is_zero(self) -> bool:
        return not _nonzero(self)

    def to_int_grid(self) -> list[list[int]]:
        """A fresh copy of the integer grid; the integers only."""
        if self.ring.kind != "Z":
            raise WrongRingError("integer grid view requires the integers")
        return [row[:] for row in _grid(self, 0)]

    # -- arithmetic -----------------------------------------------------

    def add(self, other: "FormMatrix") -> "FormMatrix":
        return self._zip(other, operator.add)

    def sub(self, other: "FormMatrix") -> "FormMatrix":
        return self._zip(other, operator.sub)

    def _zip(self, other: "FormMatrix", op) -> "FormMatrix":
        if self.ring != other.ring:
            raise WrongRingError("matrix arithmetic over mixed rings")
        if self.rows != other.rows or self.cols != other.cols:
            raise SchemaError(f"shape mismatch: {self.rows}x{self.cols} vs {other.rows}x{other.cols}")
        grids = {k: [list(map(op, ra, rb)) for ra, rb in zip(_grid(self, k), _grid(other, k))]
                 for k in self._grids.keys() | other._grids.keys()}
        return _grid_matrix(self.ring, self.rows, self.cols, grids)

    def neg(self) -> "FormMatrix":
        grids = {k: [list(map(operator.neg, row)) for row in g] for k, g in self._grids.items()}
        return _grid_matrix(self.ring, self.rows, self.cols, grids)

    def mul(self, other: "FormMatrix") -> "FormMatrix":
        if self.ring != other.ring:
            raise WrongRingError("matrix product over mixed rings")
        if self.cols != other.rows:
            raise SchemaError(f"shape mismatch: {self.rows}x{self.cols} times {other.rows}x{other.cols}")
        # M_p N_q vanishes unless a nonzero column of M_p meets a nonzero row of N_q
        left = [(p, a, tuple(map(any, zip(*a)))) for p, a in self._grids.items()]
        right = [(q, b, tuple(map(any, b))) for q, b in other._grids.items()]
        terms = ((p + q, _intlat.matmul(a, b)) for p, a, cols in left for q, b, rows in right
                 if any(map(operator.and_, cols, rows)))
        return _collect(self.ring, self.rows, other.cols, terms)

    def scale(self, a: RingElement) -> "FormMatrix":
        if a.ring != self.ring:
            raise WrongRingError(f"mixed rings {a.ring} and {self.ring}")
        mine = _nonzero(self).items()
        terms = ((p + q, [[s * x for x in row] for row in g])
                 for p, s in enumerate(a.coeffs, a.shift) if s for q, g in mine)
        return _collect(self.ring, self.rows, self.cols, terms)

    def scale_int(self, n: int) -> "FormMatrix":
        return self.scale(rings.from_int(self.ring, n))

    def star(self) -> "FormMatrix":
        """Conjugate transpose; the dual of the morphism."""
        # conj(g^k) = w^k g^-k, so grid k moves to slot -k with the sign w^k
        ring, out = self.ring, {}
        for k, g in self._grids.items():
            t = [list(c) for c in zip(*g)] if self.rows else [[] for _ in range(self.cols)]
            out[_exponent(ring, -k)] = t if ring.w == 1 or k % 2 == 0 else [[-x for x in r] for r in t]
        return _grid_matrix(ring, self.cols, self.rows, out)


_set = object.__setattr__


def _exponent(ring: RingSpec, k: int) -> int:
    """The key of g^k: k mod m over Z[Z/m], k itself over Z[z,z^-1] (and Z, where k = 0)."""
    return k % ring.m if ring.m else k


def _grid_matrix(ring: RingSpec, rows: int, cols: int, grids: dict) -> FormMatrix:
    """A matrix that takes ownership of its grids, which nobody may mutate afterwards."""
    # plain loops: this runs on every result, mostly of small matrices
    for k, g in grids.items():
        if k and (k != _exponent(ring, k) or ring.kind == "Z"):
            raise SchemaError(f"no grid at exponent {k} over {ring}")
        if len(g) != rows:
            raise SchemaError("matrix grids do not match declared shape")
        for r in g:
            if len(r) != cols:
                raise SchemaError("matrix grids do not match declared shape")
    m = object.__new__(FormMatrix)
    _set(m, "ring", ring)
    _set(m, "rows", rows)
    _set(m, "cols", cols)
    _set(m, "_grids", grids)
    return m


def _grid(m: FormMatrix, k: int) -> list[list[int]]:
    """The stored grid M_k, or a fresh zero grid if none is kept; the caller must not mutate it."""
    g = m._grids.get(k)
    return _intlat.zeros(m.rows, m.cols) if g is None else g


def _nonzero(m: FormMatrix) -> dict:
    """{k: M_k} for each grid with a nonzero entry."""
    return {k: g for k, g in m._grids.items() if any(map(any, g))}


def _collect(ring: RingSpec, rows: int, cols: int, terms) -> FormMatrix:
    """The rows x cols matrix sum of T g^k over the (k, T) in terms."""
    out = {}
    for k, t in terms:
        k = _exponent(ring, k)
        acc = out.get(k)
        out[k] = t if acc is None else [list(map(operator.add, ra, rb)) for ra, rb in zip(acc, t)]
    return _grid_matrix(ring, rows, cols, out)


def matrix(ring: RingSpec, data) -> FormMatrix:
    """Build a matrix from rows of RingElements or plain ints."""
    ents = [[e if isinstance(e, RingElement) else rings.from_int(ring, e) for e in row] for row in data]
    rows = len(ents)
    return FormMatrix(ring, rows, len(ents[0]) if rows else 0, ents)


def int_matrix(data) -> FormMatrix:
    return matrix(rings.Z, data)


def zero_matrix(ring: RingSpec, rows: int, cols: int) -> FormMatrix:
    return _grid_matrix(ring, rows, cols, {})


def identity_matrix(ring: RingSpec, n: int) -> FormMatrix:
    return _grid_matrix(ring, n, n, {0: _intlat.identity(n)})


def _keys(ms) -> set:
    return set().union(*(m._grids for m in ms))


def hstack(*ms: FormMatrix) -> FormMatrix:
    if not ms:
        raise SchemaError("hstack of nothing")
    rows = ms[0].rows
    ring = ms[0].ring
    if any(m.rows != rows or m.ring != ring for m in ms):
        raise SchemaError("hstack needs equal row counts over one ring")
    grids = {k: [[x for r in rs for x in r] for rs in zip(*(_grid(m, k) for m in ms))] for k in _keys(ms)}
    return _grid_matrix(ring, rows, sum(m.cols for m in ms), grids)


def vstack(*ms: FormMatrix) -> FormMatrix:
    if not ms:
        raise SchemaError("vstack of nothing")
    cols = ms[0].cols
    ring = ms[0].ring
    if any(m.cols != cols or m.ring != ring for m in ms):
        raise SchemaError("vstack needs equal column counts over one ring")
    grids = {k: [row for m in ms for row in _grid(m, k)] for k in _keys(ms)}
    return _grid_matrix(ring, sum(m.rows for m in ms), cols, grids)


def block_matrix(blocks) -> FormMatrix:
    """Assemble from a 2D grid of FormMatrix blocks with consistent sizes."""
    return vstack(*[hstack(*row) for row in blocks])


# -- integer lattice layer ------------------------------------------------


def _z_grid(m: FormMatrix, what: str) -> list[list[int]]:
    """The stored integer grid of m, which the caller must not mutate."""
    if m.ring.kind != "Z":
        raise WrongRingError(f"{what} is only decided over the integers; supply a witness instead")
    return _grid(m, 0)


def _z(grid: list[list[int]], rows: int, cols: int) -> FormMatrix:
    """A matrix over Z that takes ownership of an int grid from ``_intlat``."""
    return _grid_matrix(rings.Z, rows, cols, {0: grid})


def smith_normal_form(m: FormMatrix):
    """(U, D, V) with U·m·V = D, diagonal, divisibility chain, entries >= 0."""
    grid = _z_grid(m, "the Smith normal form")
    # the int-grid format cannot carry the width of a 0-row matrix
    if m.rows == 0 or m.cols == 0:
        return identity_matrix(m.ring, m.rows), m, identity_matrix(m.ring, m.cols)
    u, d, v = _intlat.smith_normal_form(grid)
    return _z(u, m.rows, m.rows), _z(d, m.rows, m.cols), _z(v, m.cols, m.cols)


def rank(m: FormMatrix) -> int:
    grid = _z_grid(m, "rank")
    if m.rows == 0 or m.cols == 0:
        return 0
    return _intlat.rank(grid)


def kernel_basis(m: FormMatrix) -> FormMatrix:
    """Columns form a primitive basis of the integer kernel."""
    grid = _z_grid(m, "the kernel")
    if m.rows == 0:
        return identity_matrix(m.ring, m.cols)
    k = _intlat.kernel_basis(grid)
    return _z(k, m.cols, len(k[0]) if k else 0)


def cokernel_presentation(m: FormMatrix) -> AbelianGroup:
    return rings._group_from_invariants(_intlat.cokernel_invariants(_z_grid(m, "the cokernel")))


def is_split_injection(m: FormMatrix) -> bool:
    grid = _z_grid(m, "split injectivity")
    if m.rows == 0:
        return m.cols == 0
    return _intlat.is_split_injection(grid)


def is_surjection(m: FormMatrix) -> bool:
    return _intlat.is_surjection(_z_grid(m, "surjectivity"))


def solve_right(a: FormMatrix, b: FormMatrix):
    """X with a·X = b over the integers, columns reduced against ker(a); None if unsolvable."""
    ga, gb = _z_grid(a, "linear solving"), _z_grid(b, "linear solving")
    if a.rows != b.rows:
        raise SchemaError("solve_right needs matching row counts")
    if a.rows == 0:
        return zero_matrix(a.ring, a.cols, b.cols)
    x = _intlat.solve_reduced(ga, gb)
    return None if x is None else _z(x, a.cols, b.cols)


def same_span(a: FormMatrix, b: FormMatrix) -> bool:
    ga, gb = _z_grid(a, "lattice comparison"), _z_grid(b, "lattice comparison")
    if a.rows != b.rows:
        return False
    return _intlat.same_span(ga, gb)


def complement_of_primitive(b: FormMatrix):
    """(complement, projection) for a primitive sublattice basis."""
    grid = _z_grid(b, "complementing a sublattice")
    if b.rows == 0 and b.cols > 0:
        raise SingularMatrixError("columns do not span a primitive sublattice")
    res = _intlat.complement_of_primitive(grid)
    if res is None:
        raise SingularMatrixError("columns do not span a primitive sublattice")
    comp, proj = res
    r = b.rows - b.cols
    return _z(comp, b.rows, r), _z(proj, r, b.rows)


def completion_of_primitive_vector(v: FormMatrix) -> FormMatrix:
    """Unimodular matrix whose first column is the given primitive column."""
    grid = _z_grid(v, "completing a vector to a basis")
    if v.cols != 1:
        raise SchemaError("expected a single column")
    w = _intlat.completion_of_primitive_vector([row[0] for row in grid])
    if w is None:
        raise SingularMatrixError("vector is not primitive")
    return _z(w, v.rows, v.rows)


# -- invertibility over every supported ring -------------------------------


def _regular_grid(m: FormMatrix) -> list[list[int]]:
    """Integer matrix of m acting on coefficient vectors: block (i, j) is the
    order x order circulant of entry (i, j), with grid k on its k-th diagonal.
    Over Z this is the stored grid, which the caller must not mutate."""
    order = m.ring.m or 1
    if order == 1:
        return _grid(m, 0)
    grid = _intlat.zeros(m.rows * order, m.cols * order)
    for k, g in m._grids.items():
        for i, row in enumerate(g):
            for j, x in enumerate(row):
                if x:
                    for c in range(order):
                        grid[i * order + (c + k) % order][j * order + c] = x
    return grid


def _scaled_inverse(m: FormMatrix):
    """(d, rows of d * m^-1) with d = +-det m over Z[z,z^-1], or None if m is singular.

    Fraction-free Gauss-Jordan elimination on [m | I] (Bareiss 1968).  After
    step k every row is p_k times its Gauss-Jordan row over the fraction
    field, p_k being the k-th pivot, so each new entry
    (p_k * a_ij - a_ik * a_kj) / p_(k-1) is a minor of [m | I] and the
    division is exact.  Columns up to k are never read again and are left
    stale, so the left block is not carried through to d * I.
    """
    n = m.rows
    zero, one = rings.zero(m.ring), rings.one(m.ring)
    a = [list(row) + [one if j == i else zero for j in range(n)] for i, row in enumerate(m.entries)]
    prev = one
    for k in range(n):
        piv = next((i for i in range(k, n) if a[i][k].coeffs), None)
        if piv is None:
            return None
        a[k], a[piv] = a[piv], a[k]
        pk, rk = a[k][k], a[k]
        for i, row in enumerate(a):
            if i == k:
                continue
            c = row[k]
            for j in range(k + 1, 2 * n):
                x = rings.sub(rings.mul(pk, row[j]), rings.mul(c, rk[j]))
                row[j] = rings.div_exact(x, prev) if k else x
        prev = pk
    return prev, [row[n:] for row in a]


def try_inverse(m: FormMatrix):
    """Exact two-sided inverse with ring entries, or None."""
    if m.rows != m.cols:
        return None
    if m.rows == 0:
        return m
    if m.ring.kind != "laurent":
        # column j * order of block (i, j) of the inverse holds the coefficients
        # of entry (i, j), so solve for those n columns only
        order, n = m.ring.m or 1, m.rows
        units = [[1 if r == j * order else 0 for j in range(n)] for r in range(n * order)]
        inv = _intlat.unimodular_solve(_regular_grid(m), units)
        if inv is None:
            return None
        grids = {r: [[inv[i * order + r][j] for j in range(n)] for i in range(n)] for r in range(order)}
        return _grid_matrix(m.ring, n, n, grids)
    scaled = _scaled_inverse(m)
    if scaled is None:
        return None
    d, rows = scaled
    if len(d.coeffs) != 1 or d.coeffs[0] not in (1, -1):  # the units are +-z^k
        return None
    out = FormMatrix(m.ring, m.rows, m.rows, rows).scale(rings.monomial(m.ring, -d.shift, d.coeffs[0]))
    if not m.mul(out).sub(identity_matrix(m.ring, m.rows)).is_zero():
        return None
    return out


def inverse(m: FormMatrix) -> FormMatrix:
    inv = try_inverse(m)
    if inv is None:
        raise SingularMatrixError("matrix has no inverse over its ring")
    return inv


def is_unimodular(m: FormMatrix) -> bool:
    """Invertibility over the ring, decided without building an inverse over Z and Z[Z/m]."""
    if m.ring.kind == "laurent":
        return try_inverse(m) is not None
    return m.rows == m.cols and _intlat.is_unimodular(_regular_grid(m))
