"""Dense exact matrices over a ring with involution.

Morphisms follow the column convention: a map Lambda^m -> Lambda^n is an
n x m matrix acting on column vectors, composition is matrix product in
function order, and the dual of a map is its conjugate transpose.

Entries are RingElements over every ring.  Over Z, the arithmetic of
FormMatrix (sum, negation, product, scaling, dual; a difference is a sum
with a negation) reads the entries as plain ints once, computes on the ints
(the product through ``_intlat.matmul``) and boxes the result once; over
the group rings it goes entry by entry through :mod:`surgery_algebra.rings`.

Integer lattice questions (Smith form, kernels, splitness) are answered
exactly over the integers by the ``_intlat`` kernels.  Invertibility is
decided over every supported ring: via the Smith form over Z, via the
integer regular representation for cyclic group rings, and for the Laurent
ring by fraction-free (Bareiss) elimination, which yields d = +-det and
d times the inverse; the units of Z[z,z^-1] are exactly +-z^k.
Lattice-splitting questions over non-integer rings are refused rather than
approximated; callers there must supply witnesses.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import _intlat, rings
from .errors import SchemaError, SingularMatrixError, WrongRingError
from .rings import AbelianGroup, RingElement, RingSpec


@dataclass(frozen=True)
class FormMatrix:
    ring: RingSpec
    rows: int
    cols: int
    entries: tuple[tuple[RingElement, ...], ...]

    def __post_init__(self):
        if len(self.entries) != self.rows or any(len(r) != self.cols for r in self.entries):
            raise SchemaError("matrix entry grid does not match declared shape")

    # -- access ---------------------------------------------------------

    def entry(self, i: int, j: int) -> RingElement:
        return self.entries[i][j]

    def column(self, j: int) -> "FormMatrix":
        return FormMatrix(self.ring, self.rows, 1, tuple((r[j],) for r in self.entries))

    def submatrix(self, row_idx, col_idx) -> "FormMatrix":
        ents = tuple(tuple(self.entries[i][j] for j in col_idx) for i in row_idx)
        return FormMatrix(self.ring, len(row_idx), len(col_idx), ents)

    def is_zero(self) -> bool:
        return not any(c for row in self.entries for e in row for c in e.coeffs)

    def to_int_grid(self) -> list[list[int]]:
        if self.ring.kind != "Z":
            raise WrongRingError("integer grid view requires the integers")
        return [[e.coeffs[0] for e in row] for row in self.entries]

    # -- arithmetic -----------------------------------------------------

    def add(self, other: "FormMatrix") -> "FormMatrix":
        _same_shape(self, other)
        if self.ring.kind == "Z":
            pairs = zip(self.to_int_grid(), other.to_int_grid())
            grid = [[x + y for x, y in zip(ra, rb)] for ra, rb in pairs]
            return _z_matrix(grid, self.rows, self.cols)
        ents = tuple(
            tuple(rings.add(a, b) for a, b in zip(ra, rb))
            for ra, rb in zip(self.entries, other.entries)
        )
        return FormMatrix(self.ring, self.rows, self.cols, ents)

    def sub(self, other: "FormMatrix") -> "FormMatrix":
        return self.add(other.neg())

    def neg(self) -> "FormMatrix":
        if self.ring.kind == "Z":
            return _z_matrix([[-x for x in row] for row in self.to_int_grid()], self.rows, self.cols)
        ents = tuple(tuple(rings.neg(e) for e in row) for row in self.entries)
        return FormMatrix(self.ring, self.rows, self.cols, ents)

    def mul(self, other: "FormMatrix") -> "FormMatrix":
        if self.ring != other.ring:
            raise WrongRingError("matrix product over mixed rings")
        if self.cols != other.rows:
            raise SchemaError(f"shape mismatch: {self.rows}x{self.cols} times {other.rows}x{other.cols}")
        if self.ring.kind == "Z":
            # with no inner dimension, other has no rows and its grid no width
            if self.cols == 0:
                return zero_matrix(self.ring, self.rows, other.cols)
            return _z_matrix(_intlat.matmul(self.to_int_grid(), other.to_int_grid()), self.rows, other.cols)
        z = rings.zero(self.ring)
        out = []
        for i in range(self.rows):
            row = []
            for j in range(other.cols):
                acc = z
                for t in range(self.cols):
                    a = self.entries[i][t]
                    if not rings.is_zero(a):
                        acc = rings.add(acc, rings.mul(a, other.entries[t][j]))
                row.append(acc)
            out.append(tuple(row))
        return FormMatrix(self.ring, self.rows, other.cols, tuple(out))

    def scale(self, a: RingElement) -> "FormMatrix":
        if self.ring.kind == "Z" and a.ring == self.ring:
            x = a.coeffs[0]
            return _z_matrix([[x * y for y in row] for row in self.to_int_grid()], self.rows, self.cols)
        ents = tuple(tuple(rings.mul(a, e) for e in row) for row in self.entries)
        return FormMatrix(self.ring, self.rows, self.cols, ents)

    def scale_int(self, n: int) -> "FormMatrix":
        return self.scale(rings.from_int(self.ring, n))

    def star(self) -> "FormMatrix":
        """Conjugate transpose; the dual of the morphism."""
        if self.ring.kind == "Z":  # the involution of Z is the identity
            ents = tuple(zip(*self.entries)) if self.rows else ((),) * self.cols
            return FormMatrix(self.ring, self.cols, self.rows, ents)
        ents = tuple(
            tuple(rings.involute(self.entries[i][j]) for i in range(self.rows))
            for j in range(self.cols)
        )
        return FormMatrix(self.ring, self.cols, self.rows, ents)


def _z_matrix(grid: list[list[int]], rows: int, cols: int) -> FormMatrix:
    """A rows x cols matrix over Z from a grid of plain ints."""
    z = rings.Z
    ents = tuple(tuple([RingElement(z, (x,)) for x in row]) for row in grid)
    return FormMatrix(z, rows, cols, ents)


def _same_shape(a: FormMatrix, b: FormMatrix):
    if a.ring != b.ring:
        raise WrongRingError("matrix arithmetic over mixed rings")
    if a.rows != b.rows or a.cols != b.cols:
        raise SchemaError(f"shape mismatch: {a.rows}x{a.cols} vs {b.rows}x{b.cols}")


def matrix(ring: RingSpec, data) -> FormMatrix:
    """Build a matrix from rows of RingElements or plain ints."""
    ents = []
    for row in data:
        out = []
        for e in row:
            if isinstance(e, RingElement):
                if e.ring != ring:
                    raise WrongRingError("entry over wrong ring")
                out.append(e)
            else:
                out.append(rings.from_int(ring, e))
        ents.append(tuple(out))
    rows = len(ents)
    cols = len(ents[0]) if rows else 0
    if any(len(r) != cols for r in ents):
        raise SchemaError("ragged matrix rows")
    return FormMatrix(ring, rows, cols, tuple(ents))


def int_matrix(data) -> FormMatrix:
    return matrix(rings.Z, data)


def zero_matrix(ring: RingSpec, rows: int, cols: int) -> FormMatrix:
    z = rings.zero(ring)
    return FormMatrix(ring, rows, cols, tuple(tuple(z for _ in range(cols)) for _ in range(rows)))


def identity_matrix(ring: RingSpec, n: int) -> FormMatrix:
    z = rings.zero(ring)
    o = rings.one(ring)
    return FormMatrix(ring, n, n, tuple(tuple(o if i == j else z for j in range(n)) for i in range(n)))


def hstack(*ms: FormMatrix) -> FormMatrix:
    if not ms:
        raise SchemaError("hstack of nothing")
    rows = ms[0].rows
    ring = ms[0].ring
    if any(m.rows != rows or m.ring != ring for m in ms):
        raise SchemaError("hstack needs equal row counts over one ring")
    ents = tuple(tuple(e for m in ms for e in m.entries[i]) for i in range(rows))
    return FormMatrix(ring, rows, sum(m.cols for m in ms), ents)


def vstack(*ms: FormMatrix) -> FormMatrix:
    if not ms:
        raise SchemaError("vstack of nothing")
    cols = ms[0].cols
    ring = ms[0].ring
    if any(m.cols != cols or m.ring != ring for m in ms):
        raise SchemaError("vstack needs equal column counts over one ring")
    ents = tuple(row for m in ms for row in m.entries)
    return FormMatrix(ring, sum(m.rows for m in ms), cols, ents)


def block_matrix(blocks) -> FormMatrix:
    """Assemble from a 2D grid of FormMatrix blocks with consistent sizes."""
    return vstack(*[hstack(*row) for row in blocks])


# -- integer lattice layer ------------------------------------------------


def _require_z(m: FormMatrix, what: str):
    if m.ring.kind != "Z":
        raise WrongRingError(f"{what} is only decided over the integers; supply a witness instead")


def smith_normal_form(m: FormMatrix):
    """(U, D, V) with U·m·V = D, diagonal, divisibility chain, entries >= 0."""
    _require_z(m, "the Smith normal form")
    # the int-grid format cannot carry the width of a 0-row matrix
    if m.rows == 0 or m.cols == 0:
        return identity_matrix(m.ring, m.rows), m, identity_matrix(m.ring, m.cols)
    u, d, v = _intlat.smith_normal_form(m.to_int_grid())
    return _z_matrix(u, m.rows, m.rows), _z_matrix(d, m.rows, m.cols), _z_matrix(v, m.cols, m.cols)


def rank(m: FormMatrix) -> int:
    _require_z(m, "rank")
    if m.rows == 0 or m.cols == 0:
        return 0
    return _intlat.rank(m.to_int_grid())


def kernel_basis(m: FormMatrix) -> FormMatrix:
    """Columns form a primitive basis of the integer kernel."""
    _require_z(m, "the kernel")
    if m.rows == 0:
        return identity_matrix(m.ring, m.cols)
    k = _intlat.kernel_basis(m.to_int_grid())
    return _z_matrix(k, m.cols, len(k[0]) if k else 0)


def cokernel_presentation(m: FormMatrix) -> AbelianGroup:
    _require_z(m, "the cokernel")
    return rings._group_from_invariants(_intlat.cokernel_invariants(m.to_int_grid()))


def is_split_injection(m: FormMatrix) -> bool:
    _require_z(m, "split injectivity")
    if m.rows == 0:
        return m.cols == 0
    return _intlat.is_split_injection(m.to_int_grid())


def is_surjection(m: FormMatrix) -> bool:
    _require_z(m, "surjectivity")
    return _intlat.is_surjection(m.to_int_grid())


def solve_right(a: FormMatrix, b: FormMatrix):
    """X with a·X = b over the integers, columns reduced against ker(a); None if unsolvable."""
    _require_z(a, "linear solving")
    _require_z(b, "linear solving")
    if a.rows != b.rows:
        raise SchemaError("solve_right needs matching row counts")
    if a.rows == 0:
        return zero_matrix(a.ring, a.cols, b.cols)
    x = _intlat.solve_reduced(a.to_int_grid(), b.to_int_grid())
    return None if x is None else _z_matrix(x, a.cols, b.cols)


def same_span(a: FormMatrix, b: FormMatrix) -> bool:
    _require_z(a, "lattice comparison")
    _require_z(b, "lattice comparison")
    if a.rows != b.rows:
        return False
    return _intlat.same_span(a.to_int_grid(), b.to_int_grid())


def complement_of_primitive(b: FormMatrix):
    """(complement, projection) for a primitive sublattice basis."""
    _require_z(b, "complementing a sublattice")
    if b.rows == 0 and b.cols > 0:
        raise SingularMatrixError("columns do not span a primitive sublattice")
    res = _intlat.complement_of_primitive(b.to_int_grid())
    if res is None:
        raise SingularMatrixError("columns do not span a primitive sublattice")
    comp, proj = res
    r = b.rows - b.cols
    return _z_matrix(comp, b.rows, r), _z_matrix(proj, r, b.rows)


def completion_of_primitive_vector(v: FormMatrix) -> FormMatrix:
    """Unimodular matrix whose first column is the given primitive column."""
    _require_z(v, "completing a vector to a basis")
    if v.cols != 1:
        raise SchemaError("expected a single column")
    w = _intlat.completion_of_primitive_vector([row[0] for row in v.to_int_grid()])
    if w is None:
        raise SingularMatrixError("vector is not primitive")
    return _z_matrix(w, v.rows, v.rows)


# -- invertibility over every supported ring -------------------------------


def _regular_grid(m: FormMatrix) -> list[list[int]]:
    """Integer matrix of m acting on coefficient vectors (cyclic group rings)."""
    order = m.ring.m
    grid = _intlat.zeros(m.rows * order, m.cols * order)
    for i in range(m.rows):
        for j in range(m.cols):
            co = m.entries[i][j].coeffs
            for r in range(order):
                for c in range(order):
                    grid[i * order + r][j * order + c] = co[(r - c) % order]
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
    if m.ring.kind == "Z":
        inv = _intlat.inverse(m.to_int_grid())
        return None if inv is None else _z_matrix(inv, m.rows, m.rows)
    if m.ring.kind == "cyclic":
        order = m.ring.m
        inv = _intlat.inverse(_regular_grid(m))
        if inv is None:
            return None
        n = m.rows
        ents = []
        for i in range(n):
            row = []
            for j in range(n):
                co = [inv[i * order + r][j * order + 0] for r in range(order)]
                row.append(rings._mk(m.ring, co))
            ents.append(tuple(row))
        return FormMatrix(m.ring, n, n, tuple(ents))
    scaled = _scaled_inverse(m)
    if scaled is None:
        return None
    d, rows = scaled
    dinv = _laurent_unit_inverse(d)
    if dinv is None:
        return None
    out = FormMatrix(m.ring, m.rows, m.rows, tuple(map(tuple, rows))).scale(dinv)
    if not m.mul(out).sub(identity_matrix(m.ring, m.rows)).is_zero():
        return None
    return out


def inverse(m: FormMatrix) -> FormMatrix:
    inv = try_inverse(m)
    if inv is None:
        raise SingularMatrixError("matrix has no inverse over its ring")
    return inv


def is_unimodular(m: FormMatrix) -> bool:
    return try_inverse(m) is not None
