"""Dense exact matrices over a ring with involution.

Morphisms follow the column convention: a map Lambda^m -> Lambda^n is an
n x m matrix acting on column vectors, composition is matrix product in
function order, and the dual of a map is its conjugate transpose.

Over Z and Z[Z/m] a matrix is stored as m integer grids, M = sum_k M_k g^k,
Z being the case m = 1.  Arithmetic runs on the ints: sums grid by grid,
products as a cyclic convolution of grids through ``_intlat.matmul`` that
skips zero grids, the dual by transposing grid k into slot -k scaled by
w^k.  Over Z[z,z^-1] the one grid holds RingElements and the arithmetic
goes entry by entry through :mod:`surgery_algebra.rings`.  ``entry`` and
``entries`` return RingElements over every ring, built on demand.

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


def _order(ring: RingSpec) -> int:
    """Number of grids: the group order over Z[Z/m], else one (Z has m = 0)."""
    return ring.m or 1


def _boxed(ring: RingSpec) -> bool:
    """True over Z[z,z^-1], whose one grid holds RingElements instead of ints."""
    return ring.kind == "laurent"


@dataclass(frozen=True, init=False, slots=True)
class FormMatrix:
    """An immutable rows x cols matrix; ``FormMatrix(ring, rows, cols, entries)``
    builds one from rows of RingElements.  Equality compares the grids."""

    ring: RingSpec
    rows: int
    cols: int
    _grids: tuple

    def __new__(cls, ring: RingSpec, rows: int, cols: int, entries):
        if len(entries) != rows or any(len(r) != cols for r in entries):
            raise SchemaError("matrix entry grid does not match declared shape")
        if any(e.ring != ring for row in entries for e in row):
            raise WrongRingError("entry over wrong ring")
        if _boxed(ring):
            return _grid_matrix(ring, rows, cols, ([list(row) for row in entries],))
        grids = tuple([[e.coeffs[k] for e in row] for row in entries] for k in range(_order(ring)))
        return _grid_matrix(ring, rows, cols, grids)

    def __hash__(self):
        return hash((self.ring, self.rows, self.cols, tuple(tuple(map(tuple, g)) for g in self._grids)))

    def __getnewargs__(self):  # copy and pickle rebuild through __new__
        return self.ring, self.rows, self.cols, self.entries

    # -- access ---------------------------------------------------------

    @property
    def entries(self) -> tuple[tuple[RingElement, ...], ...]:
        if _boxed(self.ring):
            return tuple(map(tuple, self._grids[0]))
        ring = self.ring
        return tuple(tuple(RingElement(ring, c) for c in zip(*rows)) for rows in zip(*self._grids))

    def entry(self, i: int, j: int) -> RingElement:
        if _boxed(self.ring):
            return self._grids[0][i][j]
        return RingElement(self.ring, tuple([g[i][j] for g in self._grids]))

    def column(self, j: int) -> "FormMatrix":
        return _grid_matrix(self.ring, self.rows, 1, tuple([[r[j]] for r in g] for g in self._grids))

    def submatrix(self, row_idx, col_idx) -> "FormMatrix":
        grids = tuple([[g[i][j] for j in col_idx] for i in row_idx] for g in self._grids)
        return _grid_matrix(self.ring, len(row_idx), len(col_idx), grids)

    def is_zero(self) -> bool:
        if _boxed(self.ring):
            return not any(c for row in self._grids[0] for e in row for c in e.coeffs)
        return not any(any(map(any, g)) for g in self._grids)

    def to_int_grid(self) -> list[list[int]]:
        """A fresh copy of the integer grid; the integers only."""
        if self.ring.kind != "Z":
            raise WrongRingError("integer grid view requires the integers")
        return [row[:] for row in self._grids[0]]

    # -- arithmetic -----------------------------------------------------

    def add(self, other: "FormMatrix") -> "FormMatrix":
        return self._zip(other, rings.add if _boxed(self.ring) else operator.add)

    def sub(self, other: "FormMatrix") -> "FormMatrix":
        return self._zip(other, rings.sub if _boxed(self.ring) else operator.sub)

    def _zip(self, other: "FormMatrix", op) -> "FormMatrix":
        _same_shape(self, other)
        grids = tuple([list(map(op, ra, rb)) for ra, rb in zip(ga, gb)]
                      for ga, gb in zip(self._grids, other._grids))
        return _grid_matrix(self.ring, self.rows, self.cols, grids)

    def neg(self) -> "FormMatrix":
        op = rings.neg if _boxed(self.ring) else operator.neg
        grids = tuple([list(map(op, row)) for row in g] for g in self._grids)
        return _grid_matrix(self.ring, self.rows, self.cols, grids)

    def mul(self, other: "FormMatrix") -> "FormMatrix":
        if self.ring != other.ring:
            raise WrongRingError("matrix product over mixed rings")
        if self.cols != other.rows:
            raise SchemaError(f"shape mismatch: {self.rows}x{self.cols} times {other.rows}x{other.cols}")
        if _boxed(self.ring):
            z, right = rings.zero(self.ring), other._grids[0]
            out = []
            for ai in self._grids[0]:
                row = []
                for j in range(other.cols):
                    acc = z
                    for x, bt in zip(ai, right):
                        if not rings.is_zero(x):
                            acc = rings.add(acc, rings.mul(x, bt[j]))
                    row.append(acc)
                out.append(row)
            return _grid_matrix(self.ring, self.rows, other.cols, (out,))
        right = _nonzero(other._grids)
        terms = ((p + q, _intlat.matmul(a, b)) for p, a in _nonzero(self._grids) for q, b in right)
        return _collect(self.ring, self.rows, other.cols, terms)

    def scale(self, a: RingElement) -> "FormMatrix":
        if a.ring != self.ring:
            raise WrongRingError(f"mixed rings {a.ring} and {self.ring}")
        if _boxed(self.ring):
            grids = ([[rings.mul(a, e) for e in row] for row in self._grids[0]],)
            return _grid_matrix(self.ring, self.rows, self.cols, grids)
        mine = _nonzero(self._grids)
        terms = ((p + q, [[s * x for x in row] for row in g])
                 for p, s in enumerate(a.coeffs) if s for q, g in mine)
        return _collect(self.ring, self.rows, self.cols, terms)

    def scale_int(self, n: int) -> "FormMatrix":
        return self.scale(rings.from_int(self.ring, n))

    def star(self) -> "FormMatrix":
        """Conjugate transpose; the dual of the morphism."""
        def transpose(g):
            return [list(c) for c in zip(*g)] if self.rows else [[] for _ in range(self.cols)]

        if _boxed(self.ring):
            grids = ([list(map(rings.involute, r)) for r in transpose(self._grids[0])],)
            return _grid_matrix(self.ring, self.cols, self.rows, grids)
        # conj(g^k) = w^k g^-k, so grid k moves to slot -k with the sign w^k
        order, w = len(self._grids), self.ring.w
        out = [None] * order
        for k, t in enumerate(map(transpose, self._grids)):
            out[-k % order] = t if w ** k == 1 else [[-x for x in r] for r in t]
        return _grid_matrix(self.ring, self.cols, self.rows, tuple(out))


_set = object.__setattr__


def _grid_matrix(ring: RingSpec, rows: int, cols: int, grids: tuple) -> FormMatrix:
    """A matrix that takes ownership of its grids, which nobody may mutate afterwards."""
    # plain loops: this runs on every result, mostly of small matrices
    if len(grids) != _order(ring):
        raise SchemaError("matrix grids do not match the ring")
    for g in grids:
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


def _nonzero(grids) -> list:
    """(k, grid) for each grid with a nonzero entry."""
    return [(k, g) for k, g in enumerate(grids) if any(map(any, g))]


def _collect(ring: RingSpec, rows: int, cols: int, terms) -> FormMatrix:
    """The rows x cols matrix sum of T g^k over the (k, T) in terms; k is read mod the order."""
    order = _order(ring)
    out = [None] * order
    for k, t in terms:
        k %= order
        acc = out[k]
        out[k] = t if acc is None else [list(map(operator.add, ra, rb)) for ra, rb in zip(acc, t)]
    if None in out:
        zero = _intlat.zeros(rows, cols)
        out = [zero if g is None else g for g in out]
    return _grid_matrix(ring, rows, cols, tuple(out))


def _same_shape(a: FormMatrix, b: FormMatrix):
    if a.ring != b.ring:
        raise WrongRingError("matrix arithmetic over mixed rings")
    if a.rows != b.rows or a.cols != b.cols:
        raise SchemaError(f"shape mismatch: {a.rows}x{a.cols} vs {b.rows}x{b.cols}")


def matrix(ring: RingSpec, data) -> FormMatrix:
    """Build a matrix from rows of RingElements or plain ints."""
    ents = [[e if isinstance(e, RingElement) else rings.from_int(ring, e) for e in row] for row in data]
    rows = len(ents)
    cols = len(ents[0]) if rows else 0
    if any(len(r) != cols for r in ents):
        raise SchemaError("ragged matrix rows")
    return FormMatrix(ring, rows, cols, ents)


def int_matrix(data) -> FormMatrix:
    return matrix(rings.Z, data)


def zero_matrix(ring: RingSpec, rows: int, cols: int) -> FormMatrix:
    z = rings.zero(ring) if _boxed(ring) else 0
    return _grid_matrix(ring, rows, cols, ([[z] * cols for _ in range(rows)],) * _order(ring))


def identity_matrix(ring: RingSpec, n: int) -> FormMatrix:
    z, o = (rings.zero(ring), rings.one(ring)) if _boxed(ring) else (0, 1)
    eye = [[o if i == j else z for j in range(n)] for i in range(n)]
    return _grid_matrix(ring, n, n, (eye,) + (_intlat.zeros(n, n),) * (_order(ring) - 1))


def hstack(*ms: FormMatrix) -> FormMatrix:
    if not ms:
        raise SchemaError("hstack of nothing")
    rows = ms[0].rows
    ring = ms[0].ring
    if any(m.rows != rows or m.ring != ring for m in ms):
        raise SchemaError("hstack needs equal row counts over one ring")
    grids = tuple([[x for m in ms for x in m._grids[k][i]] for i in range(rows)]
                  for k in range(_order(ring)))
    return _grid_matrix(ring, rows, sum(m.cols for m in ms), grids)


def vstack(*ms: FormMatrix) -> FormMatrix:
    if not ms:
        raise SchemaError("vstack of nothing")
    cols = ms[0].cols
    ring = ms[0].ring
    if any(m.cols != cols or m.ring != ring for m in ms):
        raise SchemaError("vstack needs equal column counts over one ring")
    grids = tuple([row for m in ms for row in m._grids[k]] for k in range(_order(ring)))
    return _grid_matrix(ring, sum(m.rows for m in ms), cols, grids)


def block_matrix(blocks) -> FormMatrix:
    """Assemble from a 2D grid of FormMatrix blocks with consistent sizes."""
    return vstack(*[hstack(*row) for row in blocks])


# -- integer lattice layer ------------------------------------------------


def _z_grid(m: FormMatrix, what: str) -> list[list[int]]:
    """The stored integer grid of m, which the caller must not mutate."""
    if m.ring.kind != "Z":
        raise WrongRingError(f"{what} is only decided over the integers; supply a witness instead")
    return m._grids[0]


def _z(grid: list[list[int]], rows: int, cols: int) -> FormMatrix:
    """A matrix over Z that takes ownership of an int grid from ``_intlat``."""
    return _grid_matrix(rings.Z, rows, cols, (grid,))


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
    order = len(m._grids)
    if order == 1:
        return m._grids[0]
    grid = _intlat.zeros(m.rows * order, m.cols * order)
    for k, g in enumerate(m._grids):
        for i, row in enumerate(g):
            for j, x in enumerate(row):
                if x:
                    for c in range(order):
                        grid[i * order + (c + k) % order][j * order + c] = x
    return grid


def _laurent_unit_inverse(d: RingElement):
    if len(d.coeffs) == 1 and d.coeffs[0] in (1, -1):
        return rings.monomial(d.ring, -d.shift, d.coeffs[0])
    return None


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
    a = [list(row) + [one if j == i else zero for j in range(n)] for i, row in enumerate(m._grids[0])]
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
    if not _boxed(m.ring):
        # column j * order of block (i, j) of the inverse holds the coefficients
        # of entry (i, j), so solve for those n columns only
        order, n = len(m._grids), m.rows
        units = [[1 if r == j * order else 0 for j in range(n)] for r in range(n * order)]
        inv = _intlat.unimodular_solve(_regular_grid(m), units)
        if inv is None:
            return None
        grids = tuple([[inv[i * order + r][j] for j in range(n)] for i in range(n)]
                      for r in range(order))
        return _grid_matrix(m.ring, n, n, grids)
    scaled = _scaled_inverse(m)
    if scaled is None:
        return None
    d, rows = scaled
    dinv = _laurent_unit_inverse(d)
    if dinv is None:
        return None
    out = _grid_matrix(m.ring, m.rows, m.rows, (rows,)).scale(dinv)
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
    if _boxed(m.ring):
        return try_inverse(m) is not None
    return m.rows == m.cols and _intlat.is_unimodular(_regular_grid(m))
