"""The integer elimination kernels in ``_intlat``, against the Smith-form paths they replace."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from surgery_algebra import _intlat
from surgery_algebra import matrices as mx
from surgery_algebra import rings
from surgery_algebra.generators import matrix as random_matrix

from conftest import random_unimodular
from test_matrices import det_int

Z = rings.integers()


def smith_inverse(a):
    """The Smith-form inverse that the Bareiss elimination replaced, frozen here."""
    m, n = _intlat.dims(a)
    if m != n:
        return None
    u, d, v = _intlat.smith_normal_form(a)
    if any(x != 1 for x in _intlat.diagonal_of(d)) or len(_intlat.diagonal_of(d)) != n:
        return None
    return _intlat.matmul(v, u)


def square_grid(rng, kind, n):
    """An n x n integer grid: unimodular, singular, of determinant +-2, or dense."""
    if kind == "dense":
        return [[rng.randint(-3, 3) for _ in range(n)] for _ in range(n)]
    a = random_unimodular(rng, Z, n).to_int_grid()
    if kind == "singular" and n:
        i, j = rng.randrange(n), rng.randrange(n)
        a[i] = [x + y for x, y in zip(a[j], a[j])] if i != j else [0] * n
    elif kind == "det2" and n:
        a[0] = [rng.choice((2, -2)) * x for x in a[0]]
        a = _intlat.matmul(a, random_unimodular(rng, Z, n).to_int_grid())
    return a


KINDS = st.sampled_from(["unimodular", "singular", "det2", "dense"])


@given(KINDS, st.integers(0, 8), st.integers(0, 3), st.integers(0, 2**32))
def test_elimination_agrees_with_the_smith_inverse(kind, n, width, seed):
    rng = random.Random(seed)
    a = square_grid(rng, kind, n)
    b = [[rng.randint(-5, 5) for _ in range(width)] for _ in range(n)]
    expected = smith_inverse(a)
    assert _intlat.inverse(a) == expected
    assert _intlat.is_unimodular(a) == (expected is not None)
    x = _intlat.unimodular_solve(a, b)
    assert x == (None if expected is None else _intlat.matmul(expected, b))
    if kind != "dense" and n:
        assert (expected is not None) == (kind == "unimodular")


@given(KINDS, st.integers(0, 6), st.integers(1, 3), st.integers(0, 2**32))
def test_elimination_yields_the_determinant_up_to_sign(kind, n, width, seed):
    rng = random.Random(seed)
    a = square_grid(rng, kind, n)
    b = [[rng.randint(-5, 5) for _ in range(width)] for _ in range(n)]
    d, _ = _intlat.bareiss(a, [[]] * n)
    assert abs(d) == abs(det_int(a))
    full, x = _intlat.bareiss(a, b)
    assert full == d
    if d:
        assert _intlat.matmul(a, x) == [[d * v for v in row] for row in b]


@pytest.mark.parametrize("a, inv, det", [
    # zero first pivot: the rows must be swapped
    ([[0, 1], [1, 0]], [[0, 1], [1, 0]], -1),
    ([[0, 0, 1], [1, 0, 0], [0, 1, 0]], [[0, 1, 0], [0, 0, 1], [1, 0, 0]], 1),
    # a zero below the pivots 2 and -1: row 3 is only rescaled, by 2 and then by -1/2
    ([[2, 1, 0], [1, 0, 0], [0, 0, 1]], [[0, 1, 0], [1, -2, 0], [0, 0, 1]], -1),
    ([[2, 1, 0], [1, 0, 0], [0, 0, 3]], None, -3),
    ([[3, 2, 0, 0], [1, 1, 0, 0], [0, 0, 1, 0], [0, 0, 5, 1]],
     [[1, -2, 0, 0], [-1, 3, 0, 0], [0, 0, 1, 0], [0, 0, -5, 1]], 1),
])
def test_elimination_on_row_swaps_and_rows_that_are_only_rescaled(a, inv, det):
    assert _intlat.inverse(a) == inv == smith_inverse(a)
    assert _intlat.is_unimodular(a) == (inv is not None)
    assert abs(_intlat.bareiss(a, [[]] * len(a))[0]) == abs(det) == abs(det_int(a))


def test_elimination_on_empty_and_non_square_grids():
    assert _intlat.inverse([]) == []
    assert _intlat.is_unimodular([])
    assert _intlat.unimodular_solve([], []) == []
    assert _intlat.unimodular_solve([[1]], [[]]) == [[]]
    assert not _intlat.is_unimodular([[1, 0]])
    assert _intlat.inverse([[1, 0]]) is None
    assert _intlat.unimodular_solve([[1, 0], [0, 1]], [[1]]) is None


# -- Z[Z/m] through the regular representation --------------------------------


def frozen_cyclic_inverse(m):
    """try_inverse over Z[Z/m] as it was: the Smith inverse of the whole regular
    representation, built here from the entries."""
    order, n = m.ring.m, m.rows
    grid = [[0] * (n * order) for _ in range(n * order)]
    for i in range(n):
        for j in range(n):
            for k, x in enumerate(m.entry(i, j).coeffs):
                for c in range(order):
                    grid[i * order + (c + k) % order][j * order + c] = x
    inv = smith_inverse(grid)
    if inv is None:
        return None
    return mx.matrix(m.ring, [[rings.RingElement(m.ring, tuple(inv[i * order + r][j * order]
                                                                for r in range(order)))
                               for j in range(n)] for i in range(n)])


# w = -1 needs an even order
CYCLIC_RINGS = [rings.cyclic(m, w) for m in range(1, 7) for w in (1, -1) if w == 1 or m % 2 == 0]


@given(st.sampled_from(CYCLIC_RINGS), st.integers(0, 4), st.sampled_from(["unit", "random", "scaled"]),
       st.integers(0, 2**32))
def test_cyclic_inverse_agrees_with_the_regular_smith_path(ring, n, kind, seed):
    rng = random.Random(seed)
    if kind == "random":
        m = random_matrix(rng, ring, n, n)
    else:
        m = random_unimodular(rng, ring, n, steps=n + 2)
        if kind == "scaled" and n:
            # 1 + g has no inverse in Z[Z/m] for m > 1; in Z[Z/1] it is 2
            m = m.mul(mx.matrix(ring, [[rings.add(rings.one(ring), rings.monomial(ring, 1))
                                        if i == j == 0 else int(i == j) for j in range(n)]
                                       for i in range(n)]))
    expected = frozen_cyclic_inverse(m)
    assert mx.try_inverse(m) == expected
    assert mx.is_unimodular(m) == (expected is not None)
    if kind == "unit":
        assert expected is not None
    if kind == "scaled" and n:
        assert expected is None


# -- Smith forms that build only the transforms their caller reads -------------


@given(st.integers(0, 6), st.integers(0, 6), st.integers(0, 2**32))
def test_smith_without_transforms_keeps_the_diagonal(rows, cols, seed):
    rng = random.Random(seed)
    a = [[rng.choice((0, 0, rng.randint(-9, 9))) for _ in range(cols)] for _ in range(rows)]
    u, d, v = _intlat.smith_normal_form(a)
    for want_u in (True, False):
        for want_v in (True, False):
            u2, d2, v2 = _intlat.smith_normal_form(a, want_u, want_v)
            assert d2 == d
            assert u2 == (u if want_u else None)
            assert v2 == (v if want_v else None)
    divs = [x for x in _intlat.diagonal_of(d) if x]
    assert _intlat.elementary_divisors(a) == divs
    assert mx.cokernel(mx.matrix(Z, a) if rows else mx.zero_matrix(Z, 0, cols))[1] == len(divs)


# -- live-block Smith and Hermite forms against the full-width ones they replace ----


def frozen_find_pivot(a, m, n, t):
    best = None
    for i in range(t, m):
        for j in range(t, n):
            x = a[i][j]
            if x and (best is None or abs(x) < abs(a[best[0]][best[1]])):
                best = (i, j)
    return best


def frozen_smith_normal_form(a, want_u=True, want_v=True):
    """The Smith form whose row and column operations ran over whole rows and
    columns of A, U and V, frozen here."""
    m, n = _intlat.dims(a)
    A = _intlat.copy_grid(a)
    U = _intlat.identity(m) if want_u else None
    V = _intlat.identity(n) if want_v else None
    t = 0
    while t < min(m, n):
        piv = frozen_find_pivot(A, m, n, t)
        if piv is None:
            break
        i0, j0 = piv
        if i0 != t:
            A[t], A[i0] = A[i0], A[t]
            if U:
                U[t], U[i0] = U[i0], U[t]
        if j0 != t:
            for row in A:
                row[t], row[j0] = row[j0], row[t]
            if V:
                for row in V:
                    row[t], row[j0] = row[j0], row[t]
        d = A[t][t]
        dirty = False
        for i in range(t + 1, m):
            if A[i][t]:
                q = A[i][t] // d
                if q:
                    for j in range(n):
                        A[i][j] -= q * A[t][j]
                    if U:
                        U[i] = [x - q * y for x, y in zip(U[i], U[t])]
                if A[i][t]:
                    dirty = True
        if dirty:
            continue
        for j in range(t + 1, n):
            if A[t][j]:
                q = A[t][j] // d
                if q:
                    for i in range(m):
                        A[i][j] -= q * A[i][t]
                    if V:
                        for i in range(n):
                            V[i][j] -= q * V[i][t]
                if A[t][j]:
                    dirty = True
        if dirty:
            continue
        bad = None
        for i in range(t + 1, m):
            for j in range(t + 1, n):
                if A[i][j] % d:
                    bad = i
                    break
            if bad is not None:
                break
        if bad is not None:
            for j in range(n):
                A[t][j] += A[bad][j]
            if U:
                U[t] = [x + y for x, y in zip(U[t], U[bad])]
            continue
        if A[t][t] < 0:
            for j in range(n):
                A[t][j] = -A[t][j]
            if U:
                U[t] = [-x for x in U[t]]
        t += 1
    return U, A, V


def frozen_hermite_column_basis(a):
    """The Hermite form whose column operations ran over every row, frozen here."""
    m, n = _intlat.dims(a)
    cols = [[a[i][j] for i in range(m)] for j in range(n)]
    settled = 0
    pivots = []
    for r in range(m):
        while True:
            nz = [k for k in range(settled, len(cols)) if cols[k][r]]
            if len(nz) <= 1:
                break
            nz.sort(key=lambda k: (abs(cols[k][r]), k))
            k0, k1 = nz[0], nz[1]
            q = cols[k1][r] // cols[k0][r]
            for i in range(m):
                cols[k1][i] -= q * cols[k0][i]
        if not nz:
            continue
        j = nz[0]
        cols[settled], cols[j] = cols[j], cols[settled]
        if cols[settled][r] < 0:
            cols[settled] = [-x for x in cols[settled]]
        g = cols[settled][r]
        for k in range(settled):
            q = cols[k][r] // g
            if q:
                for i in range(m):
                    cols[k][i] -= q * cols[settled][i]
        pivots.append(r)
        settled += 1
    h = [[cols[j][i] for j in range(settled)] for i in range(m)]
    return h, pivots


def frozen_complement_of_primitive(b):
    """The complement that first ran a separate Smith form to test split
    injectivity, frozen here on the frozen Smith form."""
    m, r = _intlat.dims(b)
    if r:
        _, d, _ = frozen_smith_normal_form(b, False, False)
        divs = [x for x in _intlat.diagonal_of(d) if x]
        if len(divs) != r or any(x != 1 for x in divs):
            return None
    u, d, _ = frozen_smith_normal_form(b, want_v=False)
    uinv = _intlat.inverse(u)
    comp = [[uinv[i][j] for j in range(r, m)] for i in range(m)]
    proj = [u[i][:] for i in range(r, m)]
    return comp, proj


GRID_KINDS = st.sampled_from(["sparse", "dense", "wide", "primitive"])


def lattice_grid(rng, kind, rows, cols):
    """A rows x cols grid: mostly zero, dense small, wide-entried, or the first
    columns of a unimodular matrix (a split injection when cols <= rows)."""
    if kind == "primitive" and rows:
        p = random_unimodular(rng, Z, max(rows, cols)).to_int_grid()
        return [row[:cols] for row in p[:rows]]
    if kind == "sparse":
        return [[rng.choice((0, 0, 0, rng.randint(-9, 9))) for _ in range(cols)] for _ in range(rows)]
    if kind == "wide":
        return [[rng.choice((0, rng.randint(-2**70, 2**70))) for _ in range(cols)] for _ in range(rows)]
    return [[rng.randint(-9, 9) for _ in range(cols)] for _ in range(rows)]


@given(GRID_KINDS, st.integers(0, 8), st.integers(0, 8), st.integers(0, 2**32))
def test_live_block_smith_form_matches_the_full_width_one(kind, rows, cols, seed):
    a = lattice_grid(random.Random(seed), kind, rows, cols)
    for want_u in (True, False):
        for want_v in (True, False):
            assert _intlat.smith_normal_form(a, want_u, want_v) == \
                frozen_smith_normal_form(a, want_u, want_v)


@given(GRID_KINDS, st.integers(0, 8), st.integers(0, 8), st.integers(0, 2**32))
def test_live_block_hermite_form_matches_the_full_width_one(kind, rows, cols, seed):
    a = lattice_grid(random.Random(seed), kind, rows, cols)
    assert _intlat.hermite_column_basis(a) == frozen_hermite_column_basis(a)


@given(GRID_KINDS, st.integers(0, 8), st.integers(0, 8), st.integers(0, 2**32))
def test_complement_reads_split_injectivity_off_its_own_smith_form(kind, rows, cols, seed):
    b = lattice_grid(random.Random(seed), kind, rows, cols)
    got = _intlat.complement_of_primitive(b)
    assert got == frozen_complement_of_primitive(b)
    if kind == "primitive" and cols <= rows:
        assert got is not None


# -- the packed product against the loop it replaces on wide shapes -------------


def frozen_loop_matmul(a, b):
    """The triple loop that was the only integer product, frozen here."""
    m, n = _intlat.dims(a)
    n2, k = _intlat.dims(b)
    if n != n2 and m and k:
        raise ValueError("shape mismatch in integer matmul")
    out = _intlat.zeros(m, k)
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


def product_grid(rng, rows, cols, bits, density):
    """Entries of up to bits bits, each nonzero with the given probability, and
    some all-zero rows."""
    top = (1 << bits) - 1
    grid = [[rng.randint(-top, top) if rng.random() < density else 0 for _ in range(cols)]
            for _ in range(rows)]
    for i in range(rows):
        if rng.random() < 0.1:
            grid[i] = [0] * cols
    return grid


WIDTHS = st.sampled_from([1, 2, 7, 8, 20, 43, 63, 64, 100, 200])
DENSITIES = st.sampled_from([0.0, 0.5, 1.0])


@given(st.integers(0, 20), st.integers(0, 20), st.integers(0, 20), WIDTHS, WIDTHS, DENSITIES,
       st.integers(0, 2**32))
def test_the_packed_product_equals_the_loop(m, n, k, bits_a, bits_b, density, seed):
    rng = random.Random(seed)
    a = product_grid(rng, m, n, bits_a, density)
    b = product_grid(rng, n, k, bits_b, density)
    want = frozen_loop_matmul(a, b)
    assert _intlat._packed_matmul(a, b, _intlat._digit_size(a, b)) == want
    assert _intlat.matmul(a, b) == want


@given(st.sampled_from([(16, 16, 8), (15, 16, 8), (16, 15, 8), (16, 16, 7), (24, 17, 9)]),
       st.sampled_from([1, 43, 100, 124, 140, 400]), DENSITIES, st.integers(0, 2**32))
@settings(max_examples=40)
def test_both_sides_of_the_wide_product_rule_give_the_loop_product(shape, bits, density, seed):
    m, n, k = shape
    rng = random.Random(seed)
    a, b = product_grid(rng, m, n, bits, density), product_grid(rng, n, k, bits, density)
    assert _intlat.matmul(a, b) == frozen_loop_matmul(a, b)
    assert _intlat._packed_matmul(a, b, _intlat._digit_size(a, b)) == frozen_loop_matmul(a, b)


def test_the_wide_product_rule_reads_shape_density_and_entry_width():
    ones = lambda m, n: [[1] * n for _ in range(m)]
    assert _intlat._packs_wide(ones(16, 16), ones(16, 8)) == 1
    for a, b in [(ones(15, 16), ones(16, 8)), (ones(16, 15), ones(15, 8)), (ones(16, 16), ones(16, 7))]:
        assert not _intlat._packs_wide(a, b)
    # fewer than half of a nonzero
    sparse = [[1 if (i + j) % 2 else 0 for j in range(16)] for i in range(16)]
    sparse[0][0] = 1
    assert _intlat._packs_wide(sparse, ones(16, 8))
    sparse[0][0] = 0
    sparse[0][1] = 0
    assert not _intlat._packs_wide(sparse, ones(16, 8))
    # digits of more than 32 bytes: entries of about 125 bits at n = 32
    wide = [[1 << 124] * 32 for _ in range(32)]
    wider = [[1 << 125] * 32 for _ in range(32)]
    assert _intlat._packs_wide(wide, wide) == 32
    assert not _intlat._packs_wide(wider, wider)


def test_digits_of_every_size_read_back_signed():
    for size in (1, 2, 3, 4, 5, 8, 9, 16):
        half = 1 << 8 * size - 1
        values = [0, 1, -1, half - 1, -half, 5, -7]
        buf = b"".join(v.to_bytes(size, "little", signed=True) for v in values)
        assert len(buf) == size * len(values)
        assert _intlat._signed_digits(buf, size) == values
        assert _intlat._signed_digits(buf, size, 1, 3) == values[1::3]
        # the bias makes every digit non-negative without carries
        biased = int.from_bytes(buf, "little") ^ _intlat._bias(size, len(values))
        assert biased == sum((v + half) << 8 * size * i for i, v in enumerate(values))


# -- one Smith form per lattice answer, against the bodies that ran more ----------


def frozen_solve_reduced(a, b):
    """solve_reduced that took its kernel from a second Smith form, frozen here."""
    x = _intlat.solve(a, b)
    if x is None:
        return None
    n, k = _intlat.dims(x)
    ker = _intlat.kernel_basis(a)
    if not ker or not ker[0]:
        return x
    h, pivots = _intlat.hermite_column_basis(ker)
    cols = [_intlat.reduce_mod_lattice([x[i][c] for i in range(n)], h, pivots) for c in range(k)]
    return [[cols[c][i] for c in range(k)] for i in range(n)]


def frozen_completion_of_primitive_vector(v):
    """The completion that inverted U by a Bareiss solve, frozen here."""
    m = len(v)
    col = [[x] for x in v]
    u, d, _ = _intlat.smith_normal_form(col, want_v=False)
    if not (d and d[0][0] == 1):
        return None
    w = _intlat.inverse(u)
    if _intlat.matmul(w, [[1]] + [[0]] * (m - 1)) != col:
        w = [[-w[i][0]] + w[i][1:] for i in range(m)]
    return w


def counting(monkeypatch, name):
    """Record the row count of every call of _intlat.name from here on."""
    calls, real = [], getattr(_intlat, name)
    monkeypatch.setattr(_intlat, name, lambda a, *rest, **kw: calls.append(len(a)) or real(a, *rest, **kw))
    return calls


@given(GRID_KINDS, st.integers(1, 7), st.integers(0, 7), st.integers(0, 3), st.integers(0, 2**32))
def test_solve_reduced_reads_the_kernel_off_its_own_smith_form(kind, rows, cols, width, seed):
    rng = random.Random(seed)
    a = lattice_grid(rng, kind, rows, cols)
    # half the right-hand sides lie in the column span, so both outcomes occur
    x0 = [[rng.randint(-3, 3) for _ in range(width)] for _ in range(cols)]
    b = _intlat.matmul(a, x0) if rng.random() < 0.5 and cols else \
        [[rng.randint(-5, 5) for _ in range(width)] for _ in range(rows)]
    assert _intlat.solve_reduced(a, b) == frozen_solve_reduced(a, b)


@given(GRID_KINDS, st.integers(0, 8), st.integers(0, 2**32))
def test_completion_is_the_inverse_of_the_smith_transform(kind, rows, seed):
    v = [row[0] for row in lattice_grid(random.Random(seed), kind, rows, 1)] if rows else []
    assert _intlat.completion_of_primitive_vector(v) == frozen_completion_of_primitive_vector(v)


def test_each_lattice_answer_runs_only_the_eliminations_it_reads(monkeypatch):
    rng = random.Random(43)
    p = random_unimodular(rng, Z, 6).to_int_grid()
    a = [row[:4] for row in p[:3]]
    smith, bareiss = counting(monkeypatch, "smith_normal_form"), counting(monkeypatch, "bareiss")
    assert _intlat.solve_reduced(a, [[1], [2], [3]]) is not None
    assert smith == [3]
    assert _intlat.complement_of_primitive([row[:2] for row in p]) is not None
    assert _intlat.completion_of_primitive_vector([row[0] for row in p]) is not None
    assert smith == [3, 6, 6] and bareiss == []
    # a cokernel is one Smith form, unimodular or not
    assert mx.cokernel(mx.int_matrix(p)) == (rings.AbelianGroup(0, ()), 6)
    assert mx.cokernel(mx.int_matrix([[2, 0], [0, 3]])) == (rings.AbelianGroup(0, (6,)), 2)
    assert smith == [3, 6, 6, 6, 2] and bareiss == []


# -- the canonical representative modulo a lattice ---------------------------------


@settings(max_examples=100)
@given(GRID_KINDS, st.integers(1, 7), st.integers(0, 6), st.integers(0, 2**32))
def test_the_reduction_mod_a_lattice_does_not_depend_on_the_representative(kind, rows, cols, seed):
    rng = random.Random(seed)
    a = lattice_grid(rng, kind, rows, cols)
    h, pivots = _intlat.hermite_column_basis(a)
    v = [rng.randint(-50, 50) for _ in range(rows)]
    out = _intlat.reduce_mod_lattice(v, h, pivots)
    # out lies in the coset of v and in the fundamental domain of the pivots
    assert _intlat.solve(a, [[x - y] for x, y in zip(v, out)]) is not None
    assert all(0 <= out[p] < h[p][i] for i, p in enumerate(pivots))
    for _ in range(3):  # another representative, v plus a lattice vector
        c = [[rng.randint(-9, 9)] for _ in range(cols)]
        w = [x + row[0] for x, row in zip(v, _intlat.matmul(a, c))] if cols else v
        assert _intlat.reduce_mod_lattice(w, h, pivots) == out


# -- determinants mod p ---------------------------------------------------------------


def test_the_primality_test_matches_trial_division():
    small = [n for n in range(3000) if n > 1 and all(n % d for d in range(2, int(n ** 0.5) + 1))]
    assert [n for n in range(3000) if _intlat.is_prime(n)] == small
    # strong pseudoprimes to several of the bases, and primes near 2^30 and 2^61
    for n in (3215031751, 2152302898747, 3474749660383, 341550071728321, 3825123056546413051):
        assert not _intlat.is_prime(n)
    for n in (2 ** 30 - 35, 2 ** 31 - 1, 2 ** 61 - 1):
        assert _intlat.is_prime(n)
    assert not _intlat.is_prime(2 ** 61 + 1)


@pytest.mark.parametrize("order", [1, 2, 3, 4, 12, 25, 64, 97, 128, 210, 256])
def test_the_prime_has_a_root_of_unity_of_the_order(order):
    p, zeta = _intlat.prime_and_root(order)
    assert _intlat.is_prime(p) and 2 ** 29 < p < 2 ** 30 and p % order == 1 % order
    assert pow(zeta, order, p) == 1
    assert all(pow(zeta, k, p) != 1 for k in range(1, order))


@given(st.integers(1, 9), st.integers(0, 4), st.sampled_from(["dense", "unit", "singular"]), st.integers(0, 2**32))
def test_the_determinant_mod_p_is_that_of_the_regular_representation(order, n, kind, seed):
    rng = random.Random(seed)
    ring = rings.cyclic(order)
    if kind == "dense":
        m = random_matrix(rng, ring, n, n, -3, 3)
    else:
        m = random_unimodular(rng, ring, n)
        if kind == "singular" and n:
            m = mx.vstack(m.submatrix(range(n - 1), range(n)), m.submatrix([0], range(n)))
    d, p = _intlat.cyclic_det_mod_p(m._grids, n, order)
    exact = _intlat.bareiss(mx._regular_grid(m), [[]] * (n * order))[0] if n else 1
    assert 0 <= d < p and d in (exact % p, -exact % p)
    if kind == "unit":
        assert d in (1, p - 1)


def test_the_determinant_mod_p_of_a_grid():
    p = 101
    assert _intlat.det_mod([], p) == 1
    assert _intlat.det_mod([[0, 1], [1, 0]], p) == p - 1
    assert _intlat.det_mod([[2, 4], [1, 2]], p) == 0
    rng = random.Random(3)
    for n in range(1, 7):
        a = [[rng.randrange(p) for _ in range(n)] for _ in range(n)]
        assert _intlat.det_mod(a, p) == det_int(a) % p
