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
three rings: sums grid by grid, the dual by transposing grid k into slot -k
scaled by w^k, and products through ``_intlat.matmul``.  Two single grids
multiply directly (always so over Z); otherwise both factors are packed by
Kronecker substitution z -> 2^B, entry (i, j) becoming the int
sum_k M_k[i][j] 2^(B (k - lo)), with B wide enough that every coefficient
of the product is one signed base-2^B digit, and one integer product is
read back digit by digit (folded mod m over Z[Z/m]), skipping the digits no
entry uses.  That product costs time with the exponent window, not with the
grids present; ``serialize`` caps the window of files.  Where an operand gives
the answer no arithmetic is done: a product with I returns the other factor, I
being recognised by its structure (one grid, at exponent 0, equal to I), and a
sum or difference with a matrix that keeps no grids returns the first summand.
Both come after the ring and shape checks, and the result shares the operand's
grids, which is safe as nobody mutates a grid once a matrix owns it.  Only this
module writes grids, each rows x cols and keyed by k = ``_exponent(ring, k)``.  That is
checked where grids enter: ``from_windows`` (the constructor, the file reader and the
seeded builders), ``matrix`` on int rows and ``upper_triangle`` on its diagonal.  Every
other grid is built from checked operands, so ``_grid_matrix`` checks nothing.

Integer lattice questions (Smith form, kernels, splitness) are answered
exactly over the integers by the ``_intlat`` kernels, which read the stored
grid; over the other rings they are refused, and callers supply witnesses.
The rings are commutative, so M is invertible iff det M is a unit, and each
determinant comes from one fraction-free (Bareiss) elimination on ints, in one
of two layouts.  The regular one is the (m n)-wide integer regular
representation R(M), with M invertible iff det R(M) = +-1; it serves Z, and
Z[Z/m] off the packed shapes.  The packed one lifts M to Z[z], shifts each row
and column down to exponent 0 and packs the result at z = 2^B (``_packing``);
over Z[z,z^-1] M is invertible iff det P = +-z^k, over Z[Z/m] iff det P folded
mod g^m - 1 is a unit.  A Laurent inverse is checked on the packed ints it
came from, P x = 2^(B k) I, within a bound (see ``try_inverse``); every other
inverse by M M^-1 = I.  Each operation has its own shape rule over Z[Z/m],
read off the ladder in CHANGES.md: ``_packs_cyclic`` for ``try_inverse`` and
``_packs_cyclic_det`` for ``is_unimodular``.  Two exact tests may answer "no"
first: det M(1) = +-1 (z -> 1 maps units to units), before either layout, and
det R(M) mod a prime p = 1 (mod m), from m determinants of n x n matrices
mod p, before an elimination that costs far more (``_refused_mod_p``).  A
packed elimination beyond ``MAX_ELIMINATION_SIZE`` raises SchemaError.
"""

from __future__ import annotations

import operator
import re
from dataclasses import dataclass
from functools import reduce
from itertools import chain

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
        return from_windows(ring, rows, cols, [(e.shift, e.coeffs) for row in entries for e in row])

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
        terms = {k: g[i][j] for k, g in self._grids.items() if g[i][j]}
        lo, hi = (min(terms), max(terms)) if terms else (0, -1)
        return rings._mk(self.ring, [terms.get(k, 0) for k in range(lo, hi + 1)], lo)

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
        if not other._grids:  # x + 0 = x - 0 = x
            return self
        if not self._grids and op is operator.add:  # 0 + x = x; 0 - x is -x
            return other
        grids = {k: [list(map(op, ra, rb)) for ra, rb in zip(_grid(self, k), _grid(other, k))]
                 for k in self._grids.keys() | other._grids.keys()}
        return _grid_matrix(self.ring, self.rows, self.cols, grids)

    def neg(self) -> "FormMatrix":
        return self.scale_int(-1)

    def mul(self, other: "FormMatrix") -> "FormMatrix":
        if self.ring != other.ring:
            raise WrongRingError("matrix product over mixed rings")
        if self.cols != other.rows:
            raise SchemaError(f"shape mismatch: {self.rows}x{self.cols} times {other.rows}x{other.cols}")
        if _is_identity(self):
            return other
        if _is_identity(other):
            return self
        a, b = self._grids, other._grids
        if not (a and b and self.rows and self.cols and other.cols):
            return zero_matrix(self.ring, self.rows, other.cols)
        if len(a) == 1 and len(b) == 1:
            (p, ga), = a.items()
            (q, gb), = b.items()
            return _collect(self.ring, self.rows, other.cols, [(p + q, _intlat.matmul(ga, gb))])
        # z -> 2^width turns the convolution of the grids into one integer product; a
        # coefficient of the product sums one product of grids per pair of exponents that
        # add up to it, so at most min(grids) * inner products
        lo_a, lo_b = min(a), min(b)
        width = _width(_max_abs(a.values()) * _max_abs(b.values()) * self.cols * min(len(a), len(b)))
        prod = _intlat.matmul(_pack(a, [lo_a] * self.rows, width, self.cols),
                              _pack(b, [lo_b] * other.rows, width, other.cols))
        return _collect(self.ring, self.rows, other.cols, _unpack(prod, width, lo_a + lo_b).items())

    def scale(self, a: RingElement) -> "FormMatrix":
        if a.ring != self.ring:
            raise WrongRingError(f"mixed rings {a.ring} and {self.ring}")
        mine = _nonzero(self).items()
        terms = ((p + q, [[s * x for x in row] for row in g])
                 for p, s in enumerate(a.coeffs, a.shift) if s for q, g in mine)
        return _collect(self.ring, self.rows, self.cols, terms)

    def scale_int(self, n: int) -> "FormMatrix":
        if n == 1:
            return self
        grids = {k: [[n * x for x in row] for row in g] for k, g in self._grids.items() if n}
        return _grid_matrix(self.ring, self.rows, self.cols, grids)

    def star(self) -> "FormMatrix":
        """Conjugate transpose; the dual of the morphism."""
        # conj(g^k) = w^k g^-k, so grid k moves to slot -k with the sign w^k
        ring, out = self.ring, {}
        for k, g in self._grids.items():
            t = [list(c) for c in zip(*g)] if self.rows else [[] for _ in range(self.cols)]
            out[_exponent(ring, -k)] = t if ring.w == 1 or k % 2 == 0 else [[-x for x in r] for r in t]
        return _grid_matrix(ring, self.cols, self.rows, out)

    def is_eps_symmetric(self, sign: int) -> bool:
        """Whether M = sign·M*, grid by grid: grid -k against sign·w^k times the transpose of grid k."""
        ring = self.ring
        for k, g in self._grids.items():
            t = zip(*g) if sign * ring.w ** (k % 2) == 1 else zip(*([-x for x in row] for row in g))
            if not all(map(operator.eq, _grid(self, _exponent(ring, -k)), map(list, t))):
                return False
        return self.rows == self.cols


_set = object.__setattr__


def _exponent(ring: RingSpec, k: int) -> int:
    """The key of g^k: k mod m over Z[Z/m] and Z = Z[Z/1], k itself over Z[z,z^-1]."""
    return k if ring.kind == "laurent" else k % (ring.m or 1)


def _grid_matrix(ring: RingSpec, rows: int, cols: int, grids: dict) -> FormMatrix:
    """A matrix that owns its grids, which nobody may mutate afterwards.  It checks nothing:
    the caller vouches that each grid is rows x cols and each key k is ``_exponent(ring, k)``."""
    m = object.__new__(FormMatrix)
    _set(m, "ring", ring)
    _set(m, "rows", rows)
    _set(m, "cols", cols)
    _set(m, "_grids", grids)
    return m


def _is_identity(m: FormMatrix) -> bool:
    """Whether m is I by its structure: one grid, at exponent 0, with row i equal to e_i."""
    g = m._grids.get(0)
    if g is None or len(m._grids) != 1 or m.rows != m.cols:
        return False
    zeros = m.cols - 1
    for i, r in enumerate(g):  # a loop, not all(...), halves the cost of this test
        if r[i] != 1 or r.count(0) != zeros:
            return False
    return True


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


def _max_abs(grids) -> int:
    """The largest |x| over the entries of the grids."""
    return max(map(abs, chain.from_iterable(chain.from_iterable(grids))), default=0)


def _width(bound: int) -> int:
    """Bits per packed digit: whole bytes, so that every |c| <= bound is one signed digit."""
    return (bound.bit_length() + 8) // 8 * 8


def _pack(grids: dict, lows, width: int, cols: int) -> list[list[int]]:
    """The int grid of M at z = 2^width with row i shifted by z^-lows[i]: entry (i, j)
    is sum_k M_k[i][j] 2^(width (k - lows[i])); each lows[i] is at most row i's lowest exponent."""
    out = _intlat.zeros(len(lows), cols)
    for k, g in grids.items():
        for lo, o, row in zip(lows, out, g):
            s = width * (k - lo)
            for j, x in enumerate(row):
                if x:
                    o[j] += x << s
    return out


def _unpack(grid: list[list[int]], width: int, lo: int) -> dict:
    """{k: M_k} from a packed grid whose signed base-2^width digits, each in [-2^(width-1),
    2^(width-1)), are the coefficients of z^lo, z^(lo+1), ...; only nonzero grids.  Every
    int has d such digits once |x| < 2^(width d - 2)."""
    size = width // 8
    rows, cols = _intlat.dims(grid)
    digits = (_max_abs((grid,)).bit_length() + 1) // width + 1
    nbytes = size * digits
    bias = _intlat._bias(size, digits)
    flat = [(x + bias) ^ bias for row in grid for x in row]
    # the entries lie nbytes apart in buf, in row-major order, and digit t of each
    # starts t * size bytes in
    buf = b"".join([y.to_bytes(nbytes, "little") for y in flat])
    # only the runs of digits that some entry uses are read: a sparse product skips the rest
    used = reduce(operator.or_, flat).to_bytes(nbytes, "little")
    out = {}
    for run in re.finditer(rb"[^\0]+", used):
        for t in range(run.start() // size, (run.end() - 1) // size + 1):
            vals = _intlat._signed_digits(buf, size, t, digits)
            out[lo + t] = [vals[i * cols:(i + 1) * cols] for i in range(rows)]
    return out


def from_windows(ring: RingSpec, rows: int, cols: int, windows) -> FormMatrix:
    """The rows x cols matrix with entry (i, j) = sum_t c_t g^(k+t) for the window (k, (c_0,
    c_1, ...)) of ints at windows[i * cols + j], as a RingElement is (shift, coeffs).  Only
    exponents with a nonzero coefficient get a grid; one that keys no grid over the ring
    (other than 0 over Z, beyond m - 1 over Z[Z/m]) raises SchemaError."""
    n = rows * cols
    if rows < 0 or len(windows) != n:
        raise SchemaError("matrix entry grid does not match declared shape")
    flat, at = {}, 0  # exponent -> its grid in row-major order; the entry's index there
    for k, cs in windows:
        for c in cs:
            if c:
                f = flat.get(k)
                if f is None:
                    if k != _exponent(ring, k):
                        raise SchemaError(f"no grid at exponent {k} over {ring}")
                    f = flat[k] = [0] * n
                f[at] = c
            k += 1
        at += 1
    return _grid_matrix(ring, rows, cols, {t: [f[i:i + cols] for i in range(0, n, cols)] for t, f in flat.items()})


def matrix(ring: RingSpec, data) -> FormMatrix:
    """Build a matrix from rows of RingElements or ints, or return a FormMatrix as it is;
    ``rings.from_int`` refuses any other entry, a bool included."""
    if isinstance(data, FormMatrix):
        return data
    rows = len(data)
    cols = len(data[0]) if rows else 0
    if set(map(type, chain.from_iterable(data))) <= {int}:  # plain ints are grid 0
        if any(len(r) != cols for r in data):
            raise SchemaError("matrix entry grid does not match declared shape")
        return _grid_matrix(ring, rows, cols, {0: [list(r) for r in data]})
    ents = [[e if isinstance(e, RingElement) else rings.from_int(ring, e) for e in row] for row in data]
    return FormMatrix(ring, rows, cols, ents)


def upper_triangle(m: FormMatrix, diagonal) -> FormMatrix:
    """The strict upper triangle of the square m, copied grid by grid, with the ring elements
    diagonal on its diagonal, each written from its window (SchemaError beyond the ring's)."""
    n = m.rows
    if len(diagonal) != n:
        raise SchemaError("matrix entry grid does not match declared shape")
    if any(e.ring != m.ring for e in diagonal):
        raise WrongRingError("entry over wrong ring")
    grids = {k: [[0] * (i + 1) + row[i + 1:] for i, row in enumerate(g)] for k, g in m._grids.items()}
    for i, e in enumerate(diagonal):
        for k, c in enumerate(e.coeffs, e.shift):
            if c:
                if k not in grids:
                    if k != _exponent(m.ring, k):
                        raise SchemaError(f"no grid at exponent {k} over {m.ring}")
                    grids[k] = _intlat.zeros(n, n)
                grids[k][i][i] = c
    return _grid_matrix(m.ring, n, n, grids)


def int_matrix(data) -> FormMatrix:
    return matrix(rings.Z, data)


def zero_matrix(ring: RingSpec, rows: int, cols: int) -> FormMatrix:
    if rings._check_int(rows, "zero_matrix: rows") < 0 or rings._check_int(cols, "zero_matrix: cols") < 0:
        raise SchemaError(f"zero_matrix: rows and cols must be at least 0, got {rows} and {cols}")
    return _grid_matrix(ring, rows, cols, {})


def identity_matrix(ring: RingSpec, n: int) -> FormMatrix:
    if rings._check_int(n, "identity_matrix: n") < 0:
        raise SchemaError(f"identity_matrix: n must be at least 0, got {n}")
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


def block_diagonal(*ms: FormMatrix) -> FormMatrix:
    """The blocks ms on the diagonal, zero elsewhere."""
    return block_matrix([[m if i == j else zero_matrix(m.ring, m.rows, n.cols) for j, n in enumerate(ms)]
                         for i, m in enumerate(ms)])


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


def kernel_basis(m: FormMatrix) -> FormMatrix:
    """Columns form a primitive basis of the integer kernel."""
    grid = _z_grid(m, "the kernel")
    if m.rows == 0:
        return identity_matrix(m.ring, m.cols)
    k = _intlat.kernel_basis(grid)
    return _z(k, m.cols, len(k[0]) if k else 0)


def cokernel(m: FormMatrix) -> tuple[AbelianGroup, int]:
    """(Z^rows / column span of m, rank of m), read off one Smith diagonal."""
    divs = _intlat.elementary_divisors(_z_grid(m, "the cokernel"))
    return AbelianGroup(m.rows - len(divs), tuple(x for x in divs if x != 1)), len(divs)


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
    # more columns than rows spans no primitive sublattice; the int grid of a 0-row b cannot say so
    res = _intlat.complement_of_primitive(grid) if b.cols <= b.rows else None
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


def _regular_inverse(m: FormMatrix):
    """The inverse of a square m over Z or Z[Z/m] read off R(m)^-1, or None."""
    # column j * order of block (i, j) of the inverse holds the coefficients
    # of entry (i, j), so solve for those n columns only
    n, order = m.rows, m.ring.m or 1
    if _refused_mod_p(m, n * m.ring.m >= 64):
        return None
    units = [[1 if r == j * order else 0 for j in range(n)] for r in range(n * order)]
    inv = _intlat.unimodular_solve(_regular_grid(m), units)
    if inv is None:
        return None
    grids = {r: [[inv[i * order + r][j] for j in range(n)] for i in range(n)] for r in range(order)}
    return _grid_matrix(m.ring, n, n, grids)


def _regular_is_unit(m: FormMatrix) -> bool:
    """det R(m) = +-1, for a square m over Z or Z[Z/m]."""
    return not _refused_mod_p(m, m.rows * m.ring.m >= 64) and _intlat.is_unimodular(_regular_grid(m))


def _refused_mod_p(m: FormMatrix, costly: bool) -> bool:
    """Whether m over Z[Z/order] is shown no unit by det R(m) mod p, a product of order
    n x n determinants mod a prime p (``_intlat.cyclic_det_mod_p``), being other than +-1:
    an exact "no", tried in front of an elimination that is costly next to it, as read off
    the ladder in CHANGES.md: a regular one n order >= 64 wide, or a packed one of
    n^2 D >= 2^20 (see ``_packing``)."""
    if not costly:
        return False
    d, p = _intlat.cyclic_det_mod_p(m._grids, m.rows, m.ring.m)
    return d != 1 and d != p - 1


def _augmentation_is_unit(m: FormMatrix) -> bool:
    """det m(1) = +-1, m(1) = sum_k M_k: z -> 1 maps units to units, so no answer changes."""
    grids = list(m._grids.values())
    return _intlat.is_unimodular([[sum(c) for c in zip(*(g[i] for g in grids))] for i in range(m.rows)])


def _packs_cyclic(n: int, order: int) -> bool:
    """Whether ``try_inverse`` over Z[Z/order] takes the packed elimination over Z[z]
    for an n x n matrix, read off the ladder in CHANGES.md.  Its fixed cost (the
    packing, the fold, u^-1, the packed check m m^-1 = I) pays only on a wide
    enough regular representation, and beyond n = 8 its integers outgrow the
    (n order)^3 solve."""
    return 2 <= n <= 8 and order >= 4 and n * order >= 24


def _packs_cyclic_det(n: int, order: int) -> bool:
    """Whether ``is_unimodular`` over Z[Z/order] takes the packed elimination for an
    n x n matrix, read off the ladder in CHANGES.md.  Without the inverse's fixed costs
    it pays from n order = 15 on, every shape of ``_packs_cyclic`` among them, and
    loses to the regular path at order 2 and beyond n = 12."""
    return 2 <= n <= 12 and order >= 3 and n * order >= 15


# The packed elimination of an n x n matrix makes about n^3 operations on
# integers of up to D bits, D the sum over the rows of the packed P of its
# widest entry (Hadamard's bound, up to log2(n)/2 per row), and its time grows
# about as (n^2 D)^2.  On transported hyperbolic Laurent forms of rank 10 to
# 32 (Python 3.11, one core of a 2-vCPU x86 host), form-info took 0.25-1.1 s
# just under this bound, 1.2 s at n^2 D = 19.3 million and 7.2 s at 49
# million.  Matrices beyond it are refused once z -> 1 has not ruled them out.
MAX_ELIMINATION_SIZE = 2 ** 24


def _packing(m: FormMatrix):
    """(width, rlo, clo, P, size): P = diag(z^-rlo) m diag(z^-clo) packed at z = 2^width,
    and size = n^2 D, the measure ``MAX_ELIMINATION_SIZE`` caps.

    P is m with each row, then each column, shifted down to exponent 0, a matrix
    over Z[z]; over Z[Z/m] the grids keyed 0 .. m-1 are read as the lift with those
    exponents.  Every entry the elimination of P keeps is +- a minor f of P.  On
    |z| = 1 each entry of P is at most its l1 norm, so by Hadamard
    |f(z)| <= prod_i (sum_j ||P_ij||_1^2)^(1/2) (each factor at least 1: m(1) has
    no zero row, as det m(1) = +-1 was tested first), and also so by columns; each
    coefficient of f, and of f folded mod z^m - 1, is an average of f over points of
    |z| = 1, so none is larger.  width keeps each one signed digit.
    """
    grids = list(m._grids.values())
    rlo = [min(k for k, g in m._grids.items() if any(g[i])) for i in range(m.rows)]
    norms = [[sum(c) ** 2 for c in zip(*(map(abs, g[i]) for g in grids))] for i in range(m.rows)]
    # every coefficient is at most the square root of the smaller product, which is under 2^(bits/2)
    bits = min(reduce(operator.mul, map(sum, lines), 1) for lines in (norms, zip(*norms))).bit_length()
    width = _width((1 << (bits + 1) // 2) - 1)
    p = _pack(m._grids, rlo, width, m.cols)
    # the lowest set bit of a packed entry lies in its lowest nonzero digit
    clo = [min(((v & -v).bit_length() - 1) // width for v in col if v) for col in zip(*p)]
    p = [[v >> width * c for v, c in zip(row, clo)] for row in p]
    return width, rlo, clo, p, m.rows ** 2 * sum(max(map(int.bit_length, row)) for row in p)


def _packed_elimination(m: FormMatrix, b: list[list[int]], packing=None):
    """(width, rlo, clo, d, x) with P x = d b and d = +-det P != 0, for P from ``_packing``.
    The Bareiss elimination of [P | b] runs on P packed at z = 2^width, a ring map
    Z[z] -> Z: each exact division of polynomials is an exact division of ints, and a
    polynomial is zero iff its image is.  d and x are packed the same way.  d is never 0:
    every caller has shown det m(1) = +-1 (``_augmentation_is_unit``), and P(1) = m(1), so
    det P != 0, and d, its image, is nonzero as each of its coefficients is one digit."""
    width, rlo, clo, p, size = packing or _packing(m)
    if size > MAX_ELIMINATION_SIZE:
        raise SchemaError(f"a {m.rows}x{m.cols} matrix over {m.ring} packs into integers of up to "
                          f"{size // m.rows ** 2} bits, rank^2 * bits {size} beyond {MAX_ELIMINATION_SIZE}")
    d, x = _intlat.bareiss(p, b)
    return width, rlo, clo, d, x


def _laurent_elimination(m: FormMatrix, b: list[list[int]], packing=None):
    """(width, rlo, clo, k, x) with P x = z^k b when det m = +-z^(k + sum rlo + sum clo), else None."""
    width, rlo, clo, d, x = _packed_elimination(m, b, packing)
    e = abs(d)
    k, r = divmod(e.bit_length() - 1, width)
    if r or e & (e - 1):  # only +-2^(width k), the image of +-z^k, is a unit
        return None
    return width, rlo, clo, k, x if d > 0 else [[-v for v in row] for row in x]


def _folded(ring: RingSpec, grid: list[list[int]], width: int, shifts) -> FormMatrix:
    """The matrix over Z[Z/m] whose entry (i, j) is g^shifts[i][j] times the polynomial
    packed in grid[i][j], folded mod g^m - 1.

    At z = 2^width, z^m - 1 is N = 2^(width m) - 1, so the fold is the residue
    mod N: the folded coefficients of a minor of P stay within the bound that
    width covers (see ``_packing``), so the folded value is the
    residue of least absolute value."""
    big = (1 << width * ring.m) - 1
    out = []
    for row, srow in zip(grid, shifts):
        out.append(r := [])
        for v, s in zip(row, srow):
            v = (v << width * (s % ring.m)) % big
            r.append(v - big if v > big >> 1 else v)
    return _grid_matrix(ring, len(grid), len(grid[0]), _unpack(out, width, 0))


def _cyclic_elimination(m: FormMatrix, b: list[list[int]], packing=None):
    """(width, rlo, clo, u, x) as from the packed elimination of m's lift, with u
    the 1 x 1 matrix det P mod g^m - 1, which is a unit iff m is invertible; None when
    ``_refused_mod_p`` shows m no unit first."""
    packing = packing or _packing(m)
    if _refused_mod_p(m, packing[4] >= 2 ** 20):
        return None
    width, rlo, clo, d, x = _packed_elimination(m, b, packing)
    return width, rlo, clo, _folded(m.ring, [[d]], width, [[0]]), x


def try_inverse(m: FormMatrix):
    """Exact two-sided inverse with ring entries, or None.

    Over Z, and over Z[Z/m] for the shapes the rule ``_packs_cyclic`` keeps
    there, the inverse is read off R(m)^-1.  Otherwise it comes from the packed
    elimination of [P | I]: x = d P^-1 over Z[z], so over Z[z,z^-1], where
    d = +-z^k, m^-1 = diag(z^-clo) z^-k x diag(z^-rlo), and over Z[Z/m], where
    u = d mod g^m - 1 must be a unit, m^-1 = u^-1 diag(g^-clo) x diag(g^-rlo)
    folded mod g^m - 1, with u^-1 the 1 x 1 inverse read off R(u)^-1.  A matrix
    whose packed elimination would exceed ``MAX_ELIMINATION_SIZE`` raises SchemaError.

    The Laurent result is certified by P x = 2^(B k) I on the ints, B the width,
    when |m| |m^-1| n min(grids of m, of m^-1) < 2^(B-1) - 1 (|.| the largest
    coefficient): X(2^B) = x for X the polynomial of x's digits, and every
    coefficient of P X - z^k I is then under 2^(B-1), so it is 0 iff its value at
    2^B is.  Past that bound, and over Z[Z/m], m m^-1 = I checks the result.
    """
    if m.rows != m.cols or (m.ring.kind != "Z" and not _augmentation_is_unit(m)):
        return None
    if m.rows == 0:
        return m
    n, ring = m.rows, m.ring
    if ring.kind == "laurent":
        packing = _packing(m)
        found = _laurent_elimination(m, _intlat.identity(n), packing)
        if found is None:
            return None
        width, rlo, clo, k, x = found
        # entry (i, j) moves up by z^(top - clo[i] - rlo[j]), never down, so that
        # every entry starts at z^(-k - top)
        top = max(clo) + max(rlo)
        shifted = [[v << width * (top - c - r) for v, r in zip(row, rlo)] for row, c in zip(x, clo)]
        out = _grid_matrix(ring, n, n, _unpack(shifted, width, -k - top))
        a, b = m._grids, out._grids
        if _max_abs(a.values()) * _max_abs(b.values()) * n * min(len(a), len(b)) < (1 << width - 1) - 1:
            eye = [[v << width * k for v in r] for r in _intlat.identity(n)]
            return out if _intlat.matmul(packing[3], x) == eye else None
    elif ring.kind == "cyclic" and _packs_cyclic(n, ring.m):
        found = _cyclic_elimination(m, _intlat.identity(n))
        uinv = found and _regular_inverse(found[3])
        if uinv is None:
            return None
        width, rlo, clo, _, x = found
        out = _folded(ring, x, width, [[-c - r for r in rlo] for c in clo]).scale(uinv.entry(0, 0))
    else:
        return _regular_inverse(m)
    if not m.mul(out).sub(identity_matrix(ring, n)).is_zero():
        return None
    return out


def inverse(m: FormMatrix) -> FormMatrix:
    inv = try_inverse(m)
    if inv is None:
        raise SingularMatrixError("matrix has no inverse over its ring")
    return inv


def is_unimodular(m: FormMatrix) -> bool:
    """Invertibility over the ring, decided by a determinant without building an inverse:
    det R(m) = +-1 over Z, and over Z[Z/m] off the shapes of ``_packs_cyclic_det``;
    det P = +-z^k over Z[z,z^-1]; otherwise over Z[Z/m], det P folded mod g^m - 1 a
    unit, which det R of that 1 x 1 matrix = +-1 decides.  The packed elimination
    raises SchemaError beyond ``MAX_ELIMINATION_SIZE``, except on the shapes that
    only ``_packs_cyclic_det`` packs, which then take the regular path."""
    n, ring = m.rows, m.ring
    if n != m.cols or (ring.kind != "Z" and not _augmentation_is_unit(m)):
        return False
    if ring.kind == "laurent":
        return _laurent_elimination(m, [[]] * n) is not None
    if ring.kind == "cyclic" and _packs_cyclic_det(n, ring.m):
        packing = _packing(m)
        if packing[4] <= MAX_ELIMINATION_SIZE or _packs_cyclic(n, ring.m):
            found = _cyclic_elimination(m, [[]] * n, packing)
            # u is a unit iff its m x m circulant has determinant +-1
            return found is not None and _regular_is_unit(found[3])
    return _regular_is_unit(m)
