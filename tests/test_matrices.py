"""Exact matrix algebra and the integer lattice kernel."""

import os
import pickle
import random
import time
from functools import reduce
from itertools import combinations
from math import gcd
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from surgery_algebra import _intlat
from surgery_algebra import matrices as mx
from surgery_algebra import rings
from surgery_algebra import serialize as sz
from surgery_algebra.errors import SchemaError, SingularMatrixError, WrongRingError
from surgery_algebra.rings import AbelianGroup
from surgery_algebra.generators import element as random_element, matrix as random_matrix

from conftest import random_unimodular

Z = rings.integers()
C2 = rings.cyclic(2, 1)
C4 = rings.cyclic(4, -1)

E8_ROWS = [
    [2, 0, 0, 1, 0, 0, 0, 0],
    [0, 2, 1, 0, 0, 0, 0, 0],
    [0, 1, 2, 1, 0, 0, 0, 0],
    [1, 0, 1, 2, 1, 0, 0, 0],
    [0, 0, 0, 1, 2, 1, 0, 0],
    [0, 0, 0, 0, 1, 2, 1, 0],
    [0, 0, 0, 0, 0, 1, 2, 1],
    [0, 0, 0, 0, 0, 0, 1, 2],
]


def det_int(grid):
    n = len(grid)
    if n == 0:
        return 1
    if n == 1:
        return grid[0][0]
    total = 0
    for j in range(n):
        if grid[0][j] == 0:
            continue
        minor = [row[:j] + row[j + 1:] for row in grid[1:]]
        total += (-1) ** j * grid[0][j] * det_int(minor)
    return total


def invariant_factors_by_minors(grid):
    """d_k = gcd of all k-minors; factors are the successive quotients."""
    rows = len(grid)
    cols = len(grid[0]) if rows else 0
    out = []
    prev = 1
    for k in range(1, min(rows, cols) + 1):
        g = 0
        for rs in combinations(range(rows), k):
            for cs in combinations(range(cols), k):
                g = gcd(g, det_int([[grid[i][j] for j in cs] for i in rs]))
        if g == 0:
            break
        out.append(g // prev)
        prev = g
    return out


def test_conj_transpose_over_integers_is_plain_transpose():
    m = mx.int_matrix([[1, 2], [3, 4]])
    assert m.star().to_int_grid() == [[1, 3], [2, 4]]
    assert m.star().star() == m


def test_conj_transpose_applies_the_involution_entrywise():
    g = rings.monomial(C2, 1)
    assert mx.matrix(C2, [[g]]).star() == mx.matrix(C2, [[g]])
    a, b, c, d = (rings.monomial(C4, k) for k in range(4))
    m = mx.matrix(C4, [[a, b], [c, d]])
    star = m.star()
    assert star.entry(0, 0) == rings.involute(a)
    assert star.entry(0, 1) == rings.involute(c)
    assert star.entry(1, 0) == rings.involute(b)
    assert star.entry(1, 1) == rings.involute(d)


def test_conj_transpose_reverses_products():
    rng = random.Random(41)
    for _ in range(25):
        m = random_matrix(rng, C4, 2, 3)
        n = random_matrix(rng, C4, 3, 2)
        assert m.mul(n).star() == n.star().mul(m.star())


def test_smith_normal_form_fixed_values():
    _, d, _ = mx.smith_normal_form(mx.int_matrix([[2, 0], [0, 3]]))
    assert d.to_int_grid() == [[1, 0], [0, 6]]
    _, d, _ = mx.smith_normal_form(mx.int_matrix([[1]]))
    assert d.to_int_grid() == [[1]]
    _, d, _ = mx.smith_normal_form(mx.int_matrix(E8_ROWS))
    assert d == mx.identity_matrix(Z, 8)


def test_smith_normal_form_random_matrices():
    rng = random.Random(42)
    for _ in range(40):
        rows, cols = rng.randint(1, 4), rng.randint(1, 4)
        grid = [[rng.randint(-9, 9) for _ in range(cols)] for _ in range(rows)]
        m = mx.int_matrix(grid)
        u, d, v = mx.smith_normal_form(m)
        assert u.mul(m).mul(v) == d
        assert mx.is_unimodular(u) and mx.is_unimodular(v)
        diag = [d.entry(i, i).coeffs[0] for i in range(min(rows, cols))]
        nonzero = [x for x in diag if x != 0]
        assert diag == nonzero + [0] * (len(diag) - len(nonzero))
        for a, b in zip(nonzero, nonzero[1:]):
            assert b % a == 0
        assert nonzero == invariant_factors_by_minors(grid)


def test_kernel_basis_values():
    k = mx.kernel_basis(mx.int_matrix([[1, 0]]))
    assert mx.same_span(k, mx.int_matrix([[0], [1]]))
    assert mx.kernel_basis(mx.int_matrix([[2]])).cols == 0
    k = mx.kernel_basis(mx.int_matrix([[1, 1], [1, 1]]))
    assert mx.same_span(k, mx.int_matrix([[1], [-1]]))


def test_kernel_basis_is_primitive():
    rng = random.Random(43)
    for _ in range(30):
        rows, cols = rng.randint(1, 4), rng.randint(1, 4)
        m = mx.int_matrix([[rng.randint(-4, 4) for _ in range(cols)] for _ in range(rows)])
        k = mx.kernel_basis(m)
        assert m.mul(k).is_zero()
        if k.cols:
            assert mx.is_split_injection(k)
            comp, proj = mx.complement_of_primitive(k)
            assert mx.is_unimodular(mx.hstack(k, comp))
            assert proj.mul(comp) == mx.identity_matrix(Z, comp.cols)
            assert proj.mul(k).is_zero()


def test_cokernel_presentation_values():
    assert mx.cokernel(mx.int_matrix([[2]])) == (AbelianGroup(0, (2,)), 1)
    assert mx.cokernel(mx.int_matrix(E8_ROWS)) == (AbelianGroup(0, ()), 8)
    assert mx.cokernel(mx.int_matrix([[0]])) == (AbelianGroup(1, ()), 0)


def test_unimodularity_and_inverse():
    m = mx.int_matrix([[0, 1], [-1, 0]])
    assert mx.is_unimodular(m)
    assert mx.inverse(m).to_int_grid() == [[0, -1], [1, 0]]
    assert mx.try_inverse(mx.int_matrix([[2]])) is None
    with pytest.raises(SingularMatrixError):
        mx.inverse(mx.int_matrix([[1, 1], [1, 1]]))


def test_split_injection_detects_the_content_gcd():
    assert mx.is_split_injection(mx.int_matrix([[2], [3]]))
    assert not mx.is_split_injection(mx.int_matrix([[2], [4]]))


def test_lattice_algorithms_refuse_other_rings():
    m = mx.matrix(C2, [[rings.monomial(C2, 1)]])
    with pytest.raises(WrongRingError):
        mx.smith_normal_form(m)
    with pytest.raises(WrongRingError):
        mx.kernel_basis(m)


def test_solve_right_finds_exact_solutions():
    a = mx.int_matrix([[2, 1], [0, 1]])
    b = mx.int_matrix([[3], [1]])
    x = mx.solve_right(a, b)
    assert x is not None and a.mul(x) == b
    assert mx.solve_right(mx.int_matrix([[2]]), mx.int_matrix([[1]])) is None


def test_rank_agrees_with_the_normal_form():
    rng = random.Random(44)
    for _ in range(30):
        grid = [[rng.randint(-5, 5) for _ in range(3)] for _ in range(3)]
        m = mx.int_matrix(grid)
        _, d, _ = mx.smith_normal_form(m)
        nonzero = sum(1 for i in range(3) if d.entry(i, i).coeffs[0] != 0)
        assert mx.cokernel(m)[1] == nonzero


def test_empty_shapes_survive_the_basic_operations():
    wide = mx.zero_matrix(Z, 0, 3)
    tall = mx.zero_matrix(Z, 3, 0)
    assert wide.mul(tall).to_int_grid() == []
    prod = tall.mul(wide)
    assert prod.rows == 3 and prod.cols == 3 and prod.is_zero()
    assert mx.is_unimodular(mx.identity_matrix(Z, 0))
    assert mx.kernel_basis(wide).cols == 3


# -- arithmetic over Z against the entrywise ring definitions ------------------

# small values, and values far past a machine word
Z_VALUES = st.one_of(st.integers(-3, 3), st.integers(-2**70, 2**70))


def z_matrix(grid, rows, cols):
    """Build entry by entry through rings, so the shape survives 0 rows."""
    return mx.FormMatrix(Z, rows, cols, tuple(tuple(rings.from_int(Z, x) for x in row)
                                              for row in grid))


def draw_grid(data, rows, cols):
    return [[data.draw(Z_VALUES) for _ in range(cols)] for _ in range(rows)]


def entrywise(rows, cols, f):
    return mx.FormMatrix(Z, rows, cols, tuple(tuple(f(i, j) for j in range(cols))
                                              for i in range(rows)))


SIZES = st.integers(0, 4)


@given(st.data(), SIZES, SIZES, SIZES)
def test_arithmetic_over_z_matches_the_ring_definitions(data, rows, inner, cols):
    ga, gb, gc = draw_grid(data, rows, inner), draw_grid(data, rows, inner), draw_grid(data, inner, cols)
    a, b, c = z_matrix(ga, rows, inner), z_matrix(gb, rows, inner), z_matrix(gc, inner, cols)
    s = rings.from_int(Z, data.draw(Z_VALUES))
    e = lambda m, i, j: m.entries[i][j]

    assert a.add(b) == entrywise(rows, inner, lambda i, j: rings.add(e(a, i, j), e(b, i, j)))
    assert a.sub(b) == entrywise(rows, inner, lambda i, j: rings.sub(e(a, i, j), e(b, i, j)))
    assert a.neg() == entrywise(rows, inner, lambda i, j: rings.neg(e(a, i, j)))
    assert a.scale(s) == entrywise(rows, inner, lambda i, j: rings.mul(s, e(a, i, j)))
    assert a.star() == entrywise(inner, rows, lambda i, j: rings.involute(e(a, j, i)))

    def product_entry(i, j):
        acc = rings.zero(Z)
        for t in range(inner):
            acc = rings.add(acc, rings.mul(e(a, i, t), e(c, t, j)))
        return acc

    prod = a.mul(c)
    assert prod == entrywise(rows, cols, product_entry)
    if inner:  # an int grid with no columns cannot carry the width of the product
        assert prod.to_int_grid() == _intlat.matmul(ga, gc)


@given(st.data(), st.integers(1, 3), st.integers(1, 3))
def test_arithmetic_over_z_keeps_its_ring_and_shape_checks(data, rows, cols):
    a = z_matrix(draw_grid(data, rows, cols), rows, cols)
    other = mx.FormMatrix(C2, rows, cols, tuple(tuple(rings.monomial(C2, 1) for _ in range(cols))
                                                 for _ in range(rows)))
    for left, right in ((a, other), (other, a)):
        with pytest.raises(WrongRingError):
            left.add(right)
        with pytest.raises(WrongRingError):
            left.sub(right)
        with pytest.raises(WrongRingError):
            left.mul(right.star())
    with pytest.raises(WrongRingError):
        a.scale(rings.monomial(C2, 1))

    wrong = z_matrix(draw_grid(data, rows + 1, cols), rows + 1, cols)
    with pytest.raises(SchemaError):
        a.add(wrong)
    with pytest.raises(SchemaError):
        a.sub(wrong)
    with pytest.raises(SchemaError):
        a.mul(z_matrix(draw_grid(data, cols + 1, rows), cols + 1, rows))


# -- inverses over the group rings --------------------------------------------

L = rings.laurent()
C3 = rings.cyclic(3, 1)


def unit_lu(rng, ring, n):
    """L·U with unit monomials on the diagonal of L and dense monomials off it; invertible."""
    def mono():
        return rings.monomial(ring, rng.randint(-1, 1), rng.choice((1, -1)))

    lower = [[mono() if j <= i else 0 for j in range(n)] for i in range(n)]
    upper = [[mono() if j > i else int(i == j) for j in range(n)] for i in range(n)]
    return mx.matrix(ring, lower).mul(mx.matrix(ring, upper))


def sparse_monomials(rng, ring, n):
    """Entries 0 or +-z^e, so that elimination meets zero pivots."""
    return mx.matrix(ring, [[rings.monomial(ring, rng.randint(-1, 1), rng.choice((1, -1)))
                             if rng.random() < 0.5 else 0 for _ in range(n)] for _ in range(n)])


def cofactor_det(m):
    if m.rows == 0:
        return rings.one(m.ring)
    acc = rings.zero(m.ring)
    for j in range(m.cols):
        minor = m.submatrix(range(1, m.rows), [c for c in range(m.cols) if c != j])
        term = rings.mul(m.entry(0, j), cofactor_det(minor))
        acc = rings.add(acc, term if j % 2 == 0 else rings.neg(term))
    return acc


def cofactor_inverse(m):
    """adj(m) / det(m) over Z[z,z^-1] when det(m) is a unit +-z^k, else None."""
    d = cofactor_det(m)
    if len(d.coeffs) != 1 or d.coeffs[0] not in (1, -1):
        return None
    dinv = rings.monomial(L, -d.shift, d.coeffs[0])
    n = m.rows

    def adjugate_entry(i, j):
        c = cofactor_det(m.submatrix([r for r in range(n) if r != j], [c for c in range(n) if c != i]))
        return rings.mul(dinv, c if (i + j) % 2 == 0 else rings.neg(c))

    return mx.FormMatrix(L, n, n, tuple(tuple(adjugate_entry(i, j) for j in range(n)) for i in range(n)))


def assert_two_sided_inverse(m, inv):
    eye = mx.identity_matrix(m.ring, m.rows)
    assert m.mul(inv) == eye
    assert inv.mul(m) == eye


@given(st.sampled_from([L, C4, C3]), st.integers(1, 6), st.integers(0, 2**32))
def test_group_ring_inverse_is_two_sided(ring, n, seed):
    m = unit_lu(random.Random(seed), ring, n)
    inv = mx.try_inverse(m)
    assert inv is not None
    assert_two_sided_inverse(m, inv)


@given(st.integers(1, 4), st.integers(0, 2**32), st.sampled_from(["unit-lu", "dense", "sparse"]))
def test_laurent_inverse_matches_the_cofactor_formula(n, seed, kind):
    rng = random.Random(seed)
    if kind == "unit-lu":
        m = unit_lu(rng, L, n)
    elif kind == "dense":
        m = random_matrix(rng, L, n, n, -1, 1)
    else:
        m = sparse_monomials(rng, L, n)
    assert mx.try_inverse(m) == cofactor_inverse(m)


def test_laurent_matrices_without_a_unit_determinant_have_no_inverse():
    z, zinv = rings.monomial(L, 1), rings.monomial(L, -1)
    one_plus_z = rings.add(rings.one(L), z)
    assert mx.try_inverse(mx.matrix(L, [[1, 0], [0, one_plus_z]])) is None
    assert mx.try_inverse(mx.matrix(L, [[2, 0], [0, 1]])) is None
    assert mx.try_inverse(mx.matrix(L, [[z, 1], [1, zinv]])) is None  # rank 1
    # det m(1) = 1 passes the test at z = 1, but det m = 2z - 1 is no unit
    two_z_minus_one = rings.sub(rings.monomial(L, 1, 2), rings.one(L))
    diag = mx.matrix(L, [[1, 0], [0, two_z_minus_one]])
    assert mx.try_inverse(diag) is None and not mx.is_unimodular(diag)
    with pytest.raises(SingularMatrixError):
        mx.inverse(mx.matrix(L, [[0, 0], [0, 1]]))


def test_cyclic_matrices_without_a_unit_determinant_have_no_inverse():
    one_plus_g = rings.add(rings.one(C2), rings.monomial(C2, 1))  # a zero divisor
    assert mx.try_inverse(mx.matrix(C2, [[1, 0], [0, one_plus_g]])) is None
    assert mx.try_inverse(mx.matrix(C4, [[2, 0], [0, 1]])) is None


def test_laurent_inverse_with_determinant_a_power_of_z():
    z = lambda k: rings.monomial(L, k)
    m = mx.matrix(L, [[z(1), 1], [0, rings.neg(z(2))]])  # det -z^3
    assert mx.inverse(m) == mx.matrix(L, [[z(-1), z(-3)], [0, rings.neg(z(-2))]])
    swapped = mx.matrix(L, [[0, z(2)], [z(1), 1]])  # det -z^3, zero first pivot
    assert mx.inverse(swapped) == mx.matrix(L, [[rings.neg(z(-3)), z(-1)], [z(-2), 0]])
    assert_two_sided_inverse(swapped, mx.inverse(swapped))


@pytest.mark.parametrize("ring", [L, C4])
def test_group_ring_inverse_of_empty_and_non_square_matrices(ring):
    empty = mx.identity_matrix(ring, 0)
    assert mx.try_inverse(empty) == empty
    assert mx.is_unimodular(empty)
    assert mx.try_inverse(mx.zero_matrix(ring, 2, 3)) is None
    assert mx.try_inverse(mx.matrix(ring, [[1, 0]])) is None


NON_UNITS = [[(2, 0)], [(1, 0), (1, 1)], [(-1, 0), (2, 1)], [(1, -1), (-1, 0), (1, 1)]]


@given(st.integers(1, 5), st.integers(0, 2**32),
       st.sampled_from(["unit-lu", "non-unit", "singular", "dense", "sparse"]))
def test_laurent_unimodularity_agrees_with_the_inverse(n, seed, kind):
    rng = random.Random(seed)
    if kind in ("unit-lu", "non-unit", "singular"):
        m = unit_lu(rng, L, n)
        rows = [list(r) for r in m.entries]
        if kind == "non-unit":  # a row times 2, 1 + z, 2z - 1 or z^-1 - 1 + z, which are not units
            c = rings.zero(L)
            for coeff, k in rng.choice(NON_UNITS):
                c = rings.add(c, rings.monomial(L, k, coeff))
            rows[0] = [rings.mul(c, x) for x in rows[0]]
        elif kind == "singular":
            rows[-1] = rows[0] if n > 1 else [rings.zero(L)]
        m = mx.matrix(L, rows)
    elif kind == "dense":
        m = random_matrix(rng, L, n, n, -1, 1)
    else:
        m = sparse_monomials(rng, L, n)
    inv = mx.try_inverse(m)
    assert mx.is_unimodular(m) == (inv is not None)
    if kind != "dense" and kind != "sparse":
        assert (inv is not None) == (kind == "unit-lu")
    if inv is not None:
        assert_two_sided_inverse(m, inv)


def test_dense_laurent_inverse_at_rank_12():
    m = unit_lu(random.Random(12), L, 12)
    assert_two_sided_inverse(m, mx.inverse(m))


# -- the certificate of a Laurent inverse: P x = 2^(width k) I on the packed ints ---------

@given(st.sampled_from(range(8, 73, 8)), st.data())
def test_unpacked_digits_rebuild_every_int(width, data):
    """The packed check reads x as X(2^width), X the polynomial of x's digits, so the
    balanced digits of ``_unpack`` must give back every int, however far beyond one digit."""
    half = 1 << width - 1
    # +-2^(width t + width - 1) + d: the edges of t + 1 digits, 0x7f..ff among them
    edges = st.builds(lambda s, t, d: s * (half << width * t) + d, st.sampled_from([1, -1]), st.integers(0, 6),
                      st.integers(-1, 1))
    entry = st.one_of(st.integers(-1, 1), edges, st.integers(-4 * half, 4 * half), st.integers(-2 ** 600, 2 ** 600))
    rows, cols = data.draw(st.integers(1, 4)), data.draw(st.integers(1, 4))
    grid = data.draw(st.lists(st.lists(entry, min_size=cols, max_size=cols), min_size=rows, max_size=rows))
    digits = mx._unpack(grid, width, 0)
    assert all(-half <= d < half for g in digits.values() for row in g for d in row)
    assert [[sum(g[i][j] << width * t for t, g in digits.items()) for j in range(cols)] for i in range(rows)] == grid
    assert mx._pack(digits, [0] * rows, width, cols) == grid


def wide_unit(rng, n, bound):
    """L·U with unit diagonals and off-diagonal coefficients of z^-1, 1, z in [-bound, bound]:
    a unit whose inverse soon has coefficients past one 8-bit digit."""
    lower, upper = (random_matrix(rng, L, n, n, -bound, bound).entries for _ in range(2))
    return mx.matrix(L, [[lower[i][j] if j < i else int(i == j) for j in range(n)] for i in range(n)]).mul(
        mx.matrix(L, [[upper[i][j] if j > i else int(i == j) for j in range(n)] for i in range(n)]))


def narrowed_packing(shrink):
    """``_packing`` with its width w replaced by shrink(w): a mis-derived width bound."""
    real_packing, real_width = mx._packing, mx._width

    def packing(m):
        with mock.patch.object(mx, "_width", lambda bound: shrink(real_width(bound))):
            return real_packing(m)
    return packing


@pytest.mark.parametrize("shrink", [lambda w: 8, lambda w: max(8, w - 8)], ids=["8-bit", "one-byte-narrower"])
def test_a_too_narrow_packing_width_never_yields_a_wrong_inverse(shrink):
    """At too narrow a width the digits of x are no longer the coefficients of m^-1, yet
    P x = 2^(width k) I still holds on the ints; the bound sends those to the product check."""
    rng, seen = random.Random(26), set()
    for _ in range(80):
        n = rng.randint(2, 4)
        m = wide_unit(rng, n, 4)
        if rng.random() < 0.5:  # a row times 2, 1 + z, 2z - 1 or z^-1 - 1 + z: no unit
            rows = [list(r) for r in m.entries]
            rows[0] = [rings.mul(cyclic_element(L, rng.choice(NON_UNITS)), x) for x in rows[0]]
            m = mx.matrix(L, rows)
        want = mx.try_inverse(m)
        with mock.patch.object(mx, "_packing", narrowed_packing(shrink)):
            got = mx.try_inverse(m)
        assert got is None or got == want
        seen.add((want is not None, got is not None))
    assert seen == {(False, False), (True, False), (True, True)}


def test_a_coefficient_summed_from_many_small_products_is_left_to_the_product_check():
    """m^-1 = [[1, -f, f g], [0, 1, -g], [0, 0, 1]] for f = sum z^(i^2), g = sum z^(-i^2), i < 130:
    f g has the constant coefficient 130 and small others.  At 8 bits x holds it as the digit
    -126 and a carry, so |m| |x's digits| = 126 is under 2^7 - 1, and only the factor
    n min(grids) of the bound keeps the wrong candidate from the packed check."""
    top = 129 ** 2
    squares = [int(int(k ** 0.5) ** 2 == k) for k in range(top + 1)]
    f, g = (mx.from_windows(L, 1, 1, [w]).entry(0, 0) for w in [(0, squares), (-top, squares[::-1])])
    m = mx.matrix(L, [[1, f, 0], [0, 1, g], [0, 0, 1]])
    with mock.patch.object(mx, "_packing", narrowed_packing(lambda w: 8)):
        assert mx.try_inverse(m) is None


def count_products(monkeypatch):
    calls = []
    real = mx.FormMatrix.mul
    monkeypatch.setattr(mx.FormMatrix, "mul", lambda a, b: calls.append((a, b)) or real(a, b))
    return calls


def test_a_10_by_10_laurent_inverse_is_certified_on_the_packed_ints(monkeypatch):
    m = unit_lu(random.Random(10), L, 10)
    calls = count_products(monkeypatch)
    inv = mx.try_inverse(m)
    assert inv is not None and not calls
    assert_two_sided_inverse(m, inv)


def test_the_packed_check_refuses_a_wrong_x(monkeypatch):
    m = unit_lu(random.Random(10), L, 10)
    real = mx._laurent_elimination

    def off_by_one(*args):
        width, rlo, clo, k, x = real(*args)
        return width, rlo, clo, k, [[x[0][0] + 1] + x[0][1:]] + x[1:]
    monkeypatch.setattr(mx, "_laurent_elimination", off_by_one)
    calls = count_products(monkeypatch)
    assert mx.try_inverse(m) is None and not calls


def test_a_laurent_inverse_past_the_bound_is_checked_by_the_product(monkeypatch):
    # |m| |m^-1| n min(grids) = 20 * 20 * 2 * 1 is past 2^7 - 1, and Hadamard's bound gives 8 bits
    m = mx.matrix(L, [[1, rings.monomial(L, 1, 20)], [0, 1]])
    assert mx._packing(m)[0] == 8
    calls = count_products(monkeypatch)
    assert mx.try_inverse(m) == mx.matrix(L, [[1, rings.monomial(L, 1, -20)], [0, 1]])
    assert len(calls) == 1


# -- the two cyclic paths: the packed lift and the regular representation -------


def on_both_cyclic_paths(f, m):
    """(f(m) with every shape on the regular path, f(m) with every shape on the packed path),
    under the shape rules of both operations."""
    out = []
    for packs in (False, True):
        with mock.patch.object(mx, "_packs_cyclic", lambda n, order, packs=packs: packs), \
                mock.patch.object(mx, "_packs_cyclic_det", lambda n, order, packs=packs: packs):
            out.append(f(m))
    return tuple(out)


def cyclic_element(ring, terms):
    """sum of c g^k over the (c, k) in terms."""
    out = rings.zero(ring)
    for c, k in terms:
        out = rings.add(out, rings.monomial(ring, k, c))
    return out


def assert_paths_agree(m, invertible=None):
    inverses = on_both_cyclic_paths(mx.try_inverse, m)
    assert inverses[0] == inverses[1]
    assert on_both_cyclic_paths(mx.is_unimodular, m) == ((inverses[0] is not None),) * 2
    if invertible is not None:
        assert (inverses[0] is not None) == invertible
    if inverses[0] is not None:
        assert_two_sided_inverse(m, inverses[0])


def cyclic_draw(rng, ring, n, kind):
    """A unit L·U, that unit with a row times a non-unit, a repeated row, or a dense draw."""
    if kind == "dense":
        return random_matrix(rng, ring, n, n, -1, 1)
    rows = [list(r) for r in unit_lu(rng, ring, n).entries]
    if kind == "non-unit":  # 2 - g^k passes z -> 1, but its norm is not +-1
        c = cyclic_element(ring, [(2, 0), (-1, rng.randrange(1, ring.m))])
        rows[0] = [rings.mul(c, x) for x in rows[0]]
    elif kind == "singular":
        rows[-1] = rows[0] if n > 1 else [rings.zero(ring)]
    return mx.matrix(ring, rows)


CYCLIC_RINGS = [rings.cyclic(m, w) for m in range(2, 10) for w in (1, -1) if w == 1 or m % 2 == 0]
CYCLIC_KINDS = ["unit-lu", "non-unit", "singular", "dense"]


@given(st.sampled_from(CYCLIC_RINGS), st.integers(1, 6), st.integers(0, 2**32), st.sampled_from(CYCLIC_KINDS))
def test_the_packed_and_regular_cyclic_paths_agree(ring, n, seed, kind):
    m = cyclic_draw(random.Random(seed), ring, n, kind)
    assert_paths_agree(m, {"unit-lu": True, "dense": None}.get(kind, False))


# shapes the rule sends to the packed path, then to the regular one
@pytest.mark.parametrize("n, order", [(2, 16), (3, 8), (4, 8), (6, 4), (8, 4), (5, 6),
                                      (1, 8), (2, 8), (4, 4), (8, 3), (12, 2)])
@given(seed=st.integers(0, 2**32), w=st.sampled_from([1, -1]), kind=st.sampled_from(CYCLIC_KINDS))
@settings(max_examples=4)
def test_the_cyclic_paths_agree_on_each_side_of_the_shape_rule(n, order, seed, w, kind):
    ring = rings.cyclic(order, w if order % 2 == 0 else 1)
    m = cyclic_draw(random.Random(seed), ring, n, kind)
    assert_paths_agree(m, {"unit-lu": True, "dense": None}.get(kind, False))


# each operation's own shape rule and the mod-p filter, over the ladder's range


def filtered(f, m, on):
    """f(m) with the mod-p filter tried in front of every elimination (on) or of none."""
    real = mx._refused_mod_p
    with mock.patch.object(mx, "_refused_mod_p", lambda a, costly: real(a, on)):
        return f(m)


def ladder_draw(rng, ring, n, kind):
    """A unit from the generators' elements, that unit with a row times 2 - g^e (which passes
    z -> 1, while det R is +-(2^m - 1) mod p), or with a repeated row (singular)."""
    unit = random_unimodular(rng, ring, n)
    if kind == "unit":
        return unit
    rows = [list(r) for r in unit.entries]
    if kind == "non-unit":
        c = cyclic_element(ring, [(2, 0), (-1, rng.randrange(1, ring.m))])
        rows[0] = [rings.mul(c, x) for x in rows[0]]
    else:
        rows[-1] = rows[0] if n > 1 else [rings.zero(ring)]
    return mx.matrix(ring, rows)


# three orders for each n = 1 ... 9, together every order 2 ... 16
LADDER_SHAPES = [(n, 2 + (4 * n + 5 * j) % 15) for n in range(1, 10) for j in range(3)]


@pytest.mark.parametrize("n, order", LADDER_SHAPES)
@pytest.mark.parametrize("kind", ["unit", "non-unit", "singular"])
def test_the_rules_the_forced_paths_and_the_filter_agree(n, order, kind):
    ring = rings.cyclic(order, -1 if order % 2 == 0 and n % 2 else 1)
    m = ladder_draw(random.Random(f"{n}-{order}-{kind}"), ring, n, kind)
    unit = kind == "unit"
    # the filter's verdict is exact here: +-1 on units, 0 or +-(2^m - 1) < p on the rest
    assert mx._refused_mod_p(m, True) == (not unit)
    inverses = on_both_cyclic_paths(mx.try_inverse, m) + (mx.try_inverse(m), filtered(mx.try_inverse, m, False))
    assert inverses == (inverses[0],) * 4 and (inverses[0] is not None) == unit
    answers = on_both_cyclic_paths(mx.is_unimodular, m) + (mx.is_unimodular(m), filtered(mx.is_unimodular, m, False))
    assert answers == (unit,) * 4
    if unit:
        assert_two_sided_inverse(m, inverses[0])


def test_each_operation_has_its_own_shape_rule():
    # the ladder in CHANGES.md: is_unimodular packs from n order = 15 at order >= 3, up to
    # n = 12, and try_inverse only where its fixed costs pay
    det = {(n, o) for n in range(1, 17) for o in range(2, 33) if mx._packs_cyclic_det(n, o)}
    inv = {(n, o) for n in range(1, 17) for o in range(2, 33) if mx._packs_cyclic(n, o)}
    assert inv < det
    assert {(4, 4), (4, 5), (3, 5), (2, 8), (12, 16)} <= det - inv
    assert not {(1, 32), (8, 2), (12, 2), (13, 16), (4, 3), (3, 4)} & det
    # the workloads' form-info shapes, 4 x 4 from order 4 on, pack; criterion 4's Z[Z/2] does not
    assert [o for o in range(2, 9) if mx._packs_cyclic_det(4, o)] == [4, 5, 6, 7, 8]


def test_the_determinant_past_the_cap_takes_the_regular_path_only_where_the_inverse_does_not_pack():
    # I + N, N nilpotent with 60,000-bit coefficients and N(1) = 0, packs past MAX_ELIMINATION_SIZE at
    # 4 x 4 and 8 x 8 over Z[Z/4]; the first shape only the determinant packs, so it takes the regular
    # path as before, and the second raises as before
    for n, packs in ((4, False), (8, True)):
        ring = rings.cyclic(4)
        big = cyclic_element(ring, [(2 ** 60000, 1), (-2 ** 60000, 2)])
        m = mx.identity_matrix(ring, n).add(mx.matrix(ring, [[big if j == i + 1 else 0 for j in range(n)]
                                                             for i in range(n)]))
        assert mx._packs_cyclic_det(n, 4) and mx._packs_cyclic(n, 4) == packs
        assert mx._packing(m)[4] > mx.MAX_ELIMINATION_SIZE
        if packs:
            with pytest.raises(SchemaError, match="beyond"):
                mx.is_unimodular(m)
        else:
            assert mx.is_unimodular(m)


C5 = rings.cyclic(5, 1)


def test_a_nontrivial_unit_of_the_cyclic_group_ring_of_order_5():
    # (g + g^4 - 1)(g^2 + g^3 - 1) = 1 in Z[Z/5]: a unit that is no +-g^k
    u, v = cyclic_element(C5, [(1, 1), (1, 4), (-1, 0)]), cyclic_element(C5, [(1, 2), (1, 3), (-1, 0)])
    assert on_both_cyclic_paths(mx.try_inverse, mx.matrix(C5, [[u]])) == (mx.matrix(C5, [[v]]),) * 2
    rng = random.Random(5)
    a, b = random_unimodular(rng, C5, 3), random_unimodular(rng, C5, 3)
    m = a.mul(mx.matrix(C5, [[u, 0, 0], [0, 1, 0], [0, 0, 1]])).mul(b)
    assert_paths_agree(m, True)
    assert mx.try_inverse(m) == mx.inverse(b).mul(mx.matrix(C5, [[v, 0, 0], [0, 1, 0], [0, 0, 1]])).mul(mx.inverse(a))


def test_cyclic_non_units_that_pass_the_augmentation():
    # 1 + g over Z[Z/2] is a zero divisor: (1 + g)(1 - g) = 0
    assert_paths_agree(mx.matrix(C2, [[cyclic_element(C2, [(1, 0), (1, 1)])]]), False)
    assert_paths_agree(mx.matrix(C2, [[1, 0], [0, cyclic_element(C2, [(1, 0), (1, 1)])]]), False)
    for order in (2, 3, 5, 8):
        # 2 - g has augmentation 1 and norm 2^m - 1, so it is no unit
        ring = rings.cyclic(order)
        two_minus_g = cyclic_element(ring, [(2, 0), (-1, 1)])
        assert_paths_agree(mx.matrix(ring, [[two_minus_g]]), False)
        assert_paths_agree(mx.matrix(ring, [[1, 0, 0], [0, two_minus_g, 0], [0, 0, 1]]), False)


def test_a_cyclic_matrix_whose_lift_is_singular_has_no_inverse():
    # [[1, g], [g, g^2]] lifts to a matrix of determinant 0 over Z[z]
    ring = rings.cyclic(8)
    g = rings.monomial(ring, 1)
    assert_paths_agree(mx.matrix(ring, [[1, g], [g, rings.mul(g, g)]]), False)


@pytest.mark.parametrize("ring", [L, rings.cyclic(16, -1)], ids=["laurent", "cyclic"])
def test_a_packed_elimination_with_wide_coefficients(ring):
    # [[1 + ab, a], [b, 1]] = [[1, a], [0, 1]] [[1, 0], [b, 1]] has inverse [[1, -a], [-b, 1 + ab]]:
    # coefficients of about 80 bits, which a packing digit must hold whole
    c = 2 ** 40
    a = cyclic_element(ring, [(c, k) for k in range(5)])
    b = cyclic_element(ring, [(c, 0), (-c, 1)])
    one = rings.one(ring)
    m = mx.matrix(ring, [[rings.add(one, rings.mul(a, b)), a], [b, one]])
    want = mx.matrix(ring, [[one, rings.neg(a)], [rings.neg(b), rings.add(one, rings.mul(a, b))]])
    if ring == L:
        assert mx.try_inverse(m) == want and mx.is_unimodular(m)
    else:
        assert on_both_cyclic_paths(mx.try_inverse, m) == (want, want)
        assert on_both_cyclic_paths(mx.is_unimodular, m) == (True, True)


def test_cyclic_unimodularity_at_8_by_8_over_the_group_of_order_32_is_quick():
    # the packed path; the 256 x 256 regular representation took about 0.3 s
    ring = rings.cyclic(32)
    m = unit_lu(random.Random(32), ring, 8)
    assert mx._packs_cyclic_det(8, 32)
    start = time.process_time()
    assert mx.is_unimodular(m)
    assert time.process_time() - start < 0.15


# -- grid storage against the entrywise ring definitions ----------------------

GRID_RINGS = ([Z] + [rings.cyclic(m) for m in range(1, 7)] + [rings.cyclic(m, -1) for m in (2, 4, 6)]
              + [L])
COEFFS = st.one_of(st.just(0), st.integers(-3, 3), st.integers(-2**70, 2**70))
# Laurent supports straddle 0, reach below it and leave gaps, some of them wide;
# they vary the most, so half of the draws are Laurent
LAURENT_EXPONENTS = st.integers(-6, 6) | st.sampled_from([-40, 40])
GRID_RING_DRAWS = st.sampled_from(GRID_RINGS) | st.just(L)


def exponents(ring):
    return LAURENT_EXPONENTS if ring.kind == "laurent" else st.integers(0, (ring.m or 1) - 1)


def draw_element(data, ring, support):
    """An element with coefficients only at the exponents in support."""
    out = rings.zero(ring)
    for k in sorted(support):
        out = rings.add(out, rings.monomial(ring, k, data.draw(COEFFS)))
    return out


def draw_matrix(data, ring, rows, cols):
    """Drawn entry by entry, so the shape survives 0 rows; a drawn support leaves some grids zero."""
    support = data.draw(st.sets(exponents(ring)))
    return mx.FormMatrix(ring, rows, cols, tuple(tuple(draw_element(data, ring, support)
                                                       for _ in range(cols)) for _ in range(rows)))


def ref_entrywise(ring, rows, cols, f):
    return mx.FormMatrix(ring, rows, cols, tuple(tuple(f(i, j) for j in range(cols))
                                                 for i in range(rows)))


def ref_product(a, c):
    """The frozen entrywise product: sums of rings.mul over the inner index."""
    def entry(i, j):
        acc = rings.zero(a.ring)
        for t in range(a.cols):
            acc = rings.add(acc, rings.mul(a.entries[i][t], c.entries[t][j]))
        return acc
    return ref_entrywise(a.ring, a.rows, c.cols, entry)


@settings(max_examples=120)
@given(st.data(), GRID_RING_DRAWS, SIZES, SIZES, SIZES)
def test_grid_arithmetic_matches_the_ring_definitions(data, ring, rows, inner, cols):
    a, b = draw_matrix(data, ring, rows, inner), draw_matrix(data, ring, rows, inner)
    c = draw_matrix(data, ring, inner, cols)
    s = draw_element(data, ring, range(ring.m or 1) if ring.kind != "laurent"
                     else data.draw(st.sets(exponents(ring), max_size=3)))
    e = lambda m, i, j: m.entries[i][j]

    assert a.add(b) == ref_entrywise(ring, rows, inner, lambda i, j: rings.add(e(a, i, j), e(b, i, j)))
    assert a.sub(b) == ref_entrywise(ring, rows, inner, lambda i, j: rings.sub(e(a, i, j), e(b, i, j)))
    assert a.neg() == ref_entrywise(ring, rows, inner, lambda i, j: rings.neg(e(a, i, j)))
    assert a.scale(s) == ref_entrywise(ring, rows, inner, lambda i, j: rings.mul(s, e(a, i, j)))
    assert a.star() == ref_entrywise(ring, inner, rows, lambda i, j: rings.involute(e(a, j, i)))
    assert a.mul(c) == ref_product(a, c)
    for m in (a, a.mul(c), a.star()):
        assert m.is_zero() == all(rings.is_zero(x) for row in m.entries for x in row)


@settings(max_examples=120)
@given(st.data(), GRID_RING_DRAWS, SIZES, SIZES)
def test_grid_equality_hash_and_entries_follow_the_ring_elements(data, ring, rows, cols):
    a, b = draw_matrix(data, ring, rows, cols), draw_matrix(data, ring, rows, cols)
    assert (a == b) == (a.entries == b.entries)
    for copy in (mx.FormMatrix(ring, rows, cols, a.entries), pickle.loads(pickle.dumps(a))):
        assert copy == a and hash(copy) == hash(a) and copy.cols == cols
    for i in range(rows):
        for j in range(cols):
            x = a.entry(i, j)
            assert isinstance(x, rings.RingElement) and x.ring == ring and x == a.entries[i][j]
    # the same matrix from int grids: as sum_k G_k g^k through the public API
    # and handed to the grid constructor directly
    def coeff(x, k):
        return x.coeffs[k - x.shift] if 0 <= k - x.shift < len(x.coeffs) else 0

    exps = sorted({x.shift + t for row in a.entries for x in row for t, c in enumerate(x.coeffs) if c}
                  if ring.kind == "laurent" else range(ring.m or 1))
    grids = {k: [[coeff(x, k) for x in row] for row in a.entries] for k in exps}
    total = mx.zero_matrix(ring, rows, cols)
    for k, g in grids.items():
        part = ref_entrywise(ring, rows, cols, lambda i, j: rings.from_int(ring, g[i][j]))
        total = total.add(part.scale(rings.monomial(ring, k)))
    assert total == a
    # explicit all-zero grids change neither equality nor the hash
    zero = [[0] * cols for _ in range(rows)]
    kept = {k: g for k, g in grids.items() if any(map(any, g))}
    spare = range(ring.m or 1) if ring.kind != "laurent" else (-99, 99)
    padded = {**{k: zero for k in spare}, **kept}
    for layout in (grids, kept, padded):
        m = mx._grid_matrix(ring, rows, cols, layout)
        assert m == a and hash(m) == hash(a) and m.is_zero() == a.is_zero()


def test_construction_checks_shape_and_ring():
    x = rings.monomial(C4, 1)
    with pytest.raises(SchemaError):
        mx.FormMatrix(C4, 1, 2, ((x,),))
    with pytest.raises(SchemaError):
        mx.FormMatrix(C4, 2, 1, ((x,),))
    with pytest.raises(WrongRingError):
        mx.FormMatrix(C4, 1, 1, ((rings.monomial(C2, 1),),))
    with pytest.raises(WrongRingError):
        mx.matrix(C4, [[rings.one(Z)]])
    # the grid constructor checks nothing; the three places where grids enter refuse
    with pytest.raises(SchemaError, match=r"^no grid at exponent 4 over Z\[Z/4\]\^-$"):
        mx.from_windows(C4, 1, 1, [(4, [1])])  # a grid at exponent m over Z[Z/m]
    with pytest.raises(SchemaError, match=r"^no grid at exponent -1 over Z\[Z/4\]\^-$"):
        mx.upper_triangle(mx.zero_matrix(C4, 1, 1), [rings.RingElement(C4, (1,), -1)])
    with pytest.raises(SchemaError, match="^no grid at exponent 1 over Z$"):
        mx.upper_triangle(mx.zero_matrix(Z, 1, 1), [rings.RingElement(Z, (1,), 1)])  # a nonzero exponent over Z
    with pytest.raises(SchemaError, match="^matrix entry grid does not match declared shape$"):
        mx.matrix(Z, [[1], [2, 3]])
    with pytest.raises(WrongRingError):
        mx.matrix(C4, [[x]]).scale(rings.one(Z))
    with pytest.raises(WrongRingError):
        mx.matrix(C4, [[x]]).to_int_grid()
    m = mx.int_matrix([[1, 2]])
    grid = m.to_int_grid()
    grid[0][0] = 99  # a fresh copy: the matrix does not change
    assert m == mx.int_matrix([[1, 2]])


def constant_grids(ring, rows, cols, value, span, alternate):
    """Every entry value * sum_{k <= span} g^k, with the sign of g^k alternating if asked."""
    x = rings.zero(ring)
    for k in range(span + 1):
        x = rings.add(x, rings.monomial(ring, k, -value if alternate and k % 2 else value))
    return mx.matrix(ring, [[x] * cols for _ in range(rows)])


# |a| |b| inner (min span + 1) is 2^7 or 2^15: a bound short of it by one span would
# pick a digit one byte too narrow for the middle coefficient
@pytest.mark.parametrize("ring", [C4, L], ids=["cyclic", "laurent"])
@pytest.mark.parametrize("a, b, inner, span_a, span_b", [
    (8, 8, 1, 1, 1), (4, 4, 2, 3, 3), (4, 4, 2, 3, 1), (64, 64, 2, 3, 3),
])
@pytest.mark.parametrize("signs", ["equal", "negative", "alternating"])
def test_a_packed_product_whose_coefficient_reaches_the_bound(ring, a, b, inner, span_a, span_b, signs):
    left = constant_grids(ring, 2, inner, a, span_a, signs == "alternating")
    right = constant_grids(ring, inner, 3, -b if signs == "negative" else b, span_b,
                           signs == "alternating")
    prod = left.mul(right)
    assert prod == ref_product(left, right)
    if ring == L:
        middle = prod.entry(0, 0).coeffs[min(span_a, span_b)]
        assert abs(middle) == a * b * inner * (min(span_a, span_b) + 1)


def test_a_product_of_many_sparse_laurent_grids_is_quick():
    # lambda_ij = z^(22 i + j) above the diagonal and its conjugate below: 463 grids of 22 x 22,
    # each with one or two nonzero entries; only about n pairs of grids per grid meet
    n = 22
    rows = [[rings.from_int(L, 2) if i == j else rings.monomial(L, n * i + j) if i < j
             else rings.monomial(L, -(n * j + i)) for j in range(n)] for i in range(n)]
    lam = mx.matrix(L, rows)
    start = time.monotonic()
    square = lam.mul(lam)
    assert time.monotonic() - start < 2.0
    ref = [[rings.zero(L)] * n for _ in range(n)]
    for i in range(n):
        for j in range(n):
            for t in range(n):
                ref[i][j] = rings.add(ref[i][j], rings.mul(rows[i][t], rows[t][j]))
    assert square == mx.matrix(L, ref)


def grid_by_grid_product(a, c):
    """sum over pairs of grids of A_p C_q z^(p+q), each pair one integer product."""
    out = mx.zero_matrix(a.ring, a.rows, c.cols)
    for p, ga in a._grids.items():
        for q, gc in c._grids.items():
            part = mx._grid_matrix(a.ring, a.rows, c.cols, {p + q: _intlat.matmul(ga, gc)})
            out = out.add(part)
    return out


def test_a_square_at_the_exponent_cap_is_quick():
    # (z^-N + 2 + z^N)^2 with N the widest exponent a file may hold: one entry of 2N + 1 digits
    n = sz.MAX_LAURENT_EXPONENT
    x = rings.add(rings.add(rings.monomial(L, -n), rings.from_int(L, 2)), rings.monomial(L, n))
    m = mx.matrix(L, [[x]])
    start = time.monotonic()
    square = m.mul(m)
    assert time.monotonic() - start < 1.0
    assert square == mx.matrix(L, [[rings.mul(x, x)]])


def test_a_sparse_product_at_the_window_cap_is_quick():
    # 22 x 22 entries drawn from z^-h, +-2 and z^h, with (2h + 1) * 22 * 22 just under the window
    # cap: three grids each, but every packed entry is 2h + 1 digits wide
    n = 22
    h = (sz.MAX_LAURENT_WINDOW_CELLS // (n * n) - 1) // 2
    rng = random.Random(7)
    choices = [rings.monomial(L, -h), rings.from_int(L, 2), rings.from_int(L, -2), rings.monomial(L, h)]
    m = mx.matrix(L, [[rng.choice(choices) for _ in range(n)] for _ in range(n)])
    assert (2 * h + 1) * n * n <= sz.MAX_LAURENT_WINDOW_CELLS
    start = time.monotonic()
    square = m.mul(m)
    assert time.monotonic() - start < 2.0
    assert square == grid_by_grid_product(m, m)
    assert sorted(square._grids) == [-2 * h, -h, 0, h, 2 * h]


# -- form identities on the grids against the RingElement versions -------------


def frozen_upper_triangle(m, diagonal):
    """The strict upper triangle built entry by entry through RingElements, frozen here."""
    k, z = m.rows, rings.zero(m.ring)
    rows = [[m.entry(i, j) if i < j else diagonal[i] if i == j else z for j in range(k)]
            for i in range(k)]
    return mx.FormMatrix(m.ring, k, k, rows)


def frozen_grid_upper_triangle(m, diagonal):
    """The triangle that read the diagonal's grids off a 1 x n matrix of it, frozen here."""
    d = mx.FormMatrix(m.ring, 1, m.rows, [diagonal])._grids
    grids = {k: [[0] * i + [d[k][0][i] if k in d else 0] + row[i + 1:] for i, row in enumerate(mx._grid(m, k))]
             for k in m._grids.keys() | d.keys()}
    return mx._grid_matrix(m.ring, m.rows, m.rows, grids)


def frozen_is_eps_symmetric(m, sign):
    """M - sign·M* = 0 through a dual, a scaled copy and a difference, frozen here."""
    return m.sub(m.star().scale(rings.from_int(m.ring, sign))).is_zero()


# both signs of w, m = 2 and odd m
IDENTITY_RINGS = [Z, rings.cyclic(1), C2, rings.cyclic(2, -1), C3, C4, rings.cyclic(5),
                  rings.cyclic(6, -1), L]


@settings(max_examples=150)
@given(st.data(), st.sampled_from(IDENTITY_RINGS), SIZES, st.sampled_from([1, -1]),
       st.sampled_from(["symmetric", "perturbed", "drawn"]))
def test_grid_symmetry_test_and_upper_triangle_match_the_ring_elements(data, ring, n, sign, kind):
    t = draw_matrix(data, ring, n, n)
    m = t.add(t.star().scale_int(sign)) if kind != "drawn" else t
    if kind == "perturbed" and n:
        i, j = data.draw(st.integers(0, n - 1)), data.draw(st.integers(0, n - 1))
        e = rings.monomial(ring, data.draw(exponents(ring)))
        bump = mx.FormMatrix(ring, n, n, tuple(tuple(e if (r, c) == (i, j) else rings.zero(ring)
                                                     for c in range(n)) for r in range(n)))
        m = m.add(bump)
    for s in (1, -1):
        assert m.is_eps_symmetric(s) == frozen_is_eps_symmetric(m, s)
    if kind == "symmetric":
        assert m.is_eps_symmetric(sign)
    diagonal = [draw_element(data, ring, data.draw(st.sets(exponents(ring), max_size=3)))
                for _ in range(n)]
    got = mx.upper_triangle(m, diagonal)
    assert got == frozen_upper_triangle(m, diagonal)
    assert got.entries == frozen_upper_triangle(m, diagonal).entries
    assert got._grids == frozen_grid_upper_triangle(m, diagonal)._grids


@pytest.mark.parametrize("ring", [Z, C3, C4, L], ids=str)
def test_upper_triangle_refuses_a_diagonal_of_another_length_or_ring(ring):
    m = mx.identity_matrix(ring, 2)
    other = rings.one(C2)
    for diagonal, error, message in (([rings.one(ring)], SchemaError, "matrix entry grid does not match declared shape"),
                                     ([rings.one(ring)] * 3, SchemaError, "matrix entry grid does not match declared shape"),
                                     ([rings.one(ring), other], WrongRingError, "entry over wrong ring"),
                                     ([other], SchemaError, "matrix entry grid does not match declared shape")):
        for build in (mx.upper_triangle, frozen_grid_upper_triangle):
            with pytest.raises(error) as err:
                build(m, diagonal)
            assert (err.type, str(err.value)) == (error, message)


def test_symmetry_of_non_square_and_empty_matrices():
    assert not mx.zero_matrix(Z, 1, 2).is_eps_symmetric(1)
    for ring in (Z, C4, L):
        assert mx.zero_matrix(ring, 0, 0).is_eps_symmetric(-1)
        assert mx.upper_triangle(mx.zero_matrix(ring, 0, 0), []).rows == 0


@given(st.data(), GRID_RING_DRAWS, SIZES, SIZES, st.integers(-3, 3))
def test_integer_scaling_scales_the_grids(data, ring, rows, cols, n):
    a = draw_matrix(data, ring, rows, cols)
    got = a.scale_int(n)
    assert got == a.scale(rings.from_int(ring, n))
    assert (got.rows, got.cols, got.ring) == (rows, cols, ring)
    if n == 1:
        assert got is a
    if n == 0:
        assert got.is_zero() and got == mx.zero_matrix(ring, rows, cols)


def test_int_rows_build_grid_zero_directly():
    for ring in (Z, C4, L):
        m = mx.matrix(ring, [[1, -2], [0, 3]])
        assert m == mx.matrix(ring, [[rings.from_int(ring, x) for x in row] for row in [[1, -2], [0, 3]]])
    assert mx.matrix(Z, []).rows == 0
    with pytest.raises(SchemaError, match="matrix entry grid does not match declared shape"):
        mx.matrix(Z, [[1, 2], [3]])
    with pytest.raises(SchemaError, match="matrix entry grid does not match declared shape"):
        mx.matrix(C4, [[1], [2, 3]])


# -- counts at the boundary -----------------------------------------------------

@pytest.mark.parametrize("rows, cols", [(-1, 3), (3, -1), (-2, -2)])
def test_a_negative_zero_matrix_shape_is_refused_by_name(rows, cols):
    with pytest.raises(SchemaError, match=rf"^zero_matrix: rows and cols must be at least 0, got {rows} and {cols}$"):
        mx.zero_matrix(Z, rows, cols)


def test_a_negative_identity_size_is_refused_by_name():
    with pytest.raises(SchemaError, match=r"^identity_matrix: n must be at least 0, got -1$"):
        mx.identity_matrix(rings.cyclic(3), -1)


# -- one builder from coefficient windows to grids --------------------------------

WINDOW_RINGS = [Z, rings.cyclic(1), rings.cyclic(3), C4, L]


@st.composite
def windows(draw, ring):
    """(rows, cols, windows): each window (k, coefficients) inside the exponents of ring,
    zeros and empty windows included."""
    rows, cols = draw(st.integers(0, 3)), draw(st.integers(0, 3))
    coeff = st.integers(-2, 2) | st.integers(-2**70, 2**70)
    out = []
    for _ in range(rows * cols):
        if ring.kind == "laurent":
            out.append((draw(st.integers(-5, 5)), draw(st.lists(coeff, max_size=4))))
        else:
            top = ring.m or 1
            k = draw(st.integers(0, top))
            out.append((k, draw(st.lists(coeff, max_size=top - k))))
    return rows, cols, out


@settings(max_examples=40)
@given(data=st.data())
@pytest.mark.parametrize("ring", WINDOW_RINGS, ids=str)
def test_windows_fill_one_grid_per_exponent_with_a_nonzero_coefficient(ring, data):
    rows, cols, ws = data.draw(windows(ring))
    m = mx.from_windows(ring, rows, cols, ws)
    want = {}
    for at, (k, cs) in enumerate(ws):
        for t, c in enumerate(cs, k):
            if c:
                want.setdefault(t, [[0] * cols for _ in range(rows)])[at // cols][at % cols] = c
    assert (m.ring, m.rows, m.cols, m._grids) == (ring, rows, cols, want)  # no zero grid is kept
    sums = [reduce(rings.add, (rings.monomial(ring, t, c) for t, c in enumerate(cs, k)), rings.zero(ring))
            for k, cs in ws]
    assert [e for row in m.entries for e in row] == sums


@pytest.mark.parametrize("ring", WINDOW_RINGS, ids=str)
def test_ring_elements_build_through_their_windows(ring):
    rng = random.Random(7)
    for rows, cols in ((0, 0), (0, 3), (2, 0), (2, 3)):
        entries = [[random_element(rng, ring) for _ in range(cols)] for _ in range(rows)]
        flat = [(e.shift, e.coeffs) for row in entries for e in row]
        assert mx.FormMatrix(ring, rows, cols, entries)._grids == mx.from_windows(ring, rows, cols, flat)._grids


@pytest.mark.parametrize("rows, cols, ws", [
    (-1, 0, []), (-1, -1, []), (2, -1, []), (1, 2, [(0, [1])]), (1, 1, [(0, [1]), (0, [2])]),
])
def test_windows_that_do_not_fill_the_shape_are_refused(rows, cols, ws):
    with pytest.raises(SchemaError, match="^matrix entry grid does not match declared shape$"):
        mx.from_windows(Z, rows, cols, ws)


@pytest.mark.parametrize("ring, window", [
    (Z, (1, [1])), (Z, (0, [1, 1])), (Z, (-1, [1])), (C4, (0, [0, 0, 0, 0, 1])), (C4, (-1, [1])),
])
def test_windows_beyond_the_exponents_of_the_ring_are_refused(ring, window):
    with pytest.raises(SchemaError, match="^no grid at exponent -?[0-9]+ over "):
        mx.from_windows(ring, 1, 1, [window])
    k, cs = window
    assert mx.from_windows(ring, 1, 1, [(k, [0] * len(cs))])._grids == {}  # zeros make no grid


def test_an_all_zero_draw_keeps_no_grid():
    for ring in WINDOW_RINGS:
        m = random_matrix(random.Random(1), ring, 2, 3, 0, 0)
        assert m._grids == {} and m.is_zero() and m == mx.zero_matrix(ring, 2, 3)
        assert hash(m) == hash(mx.zero_matrix(ring, 2, 3))


# -- exact coefficients only ---------------------------------------------------------

@pytest.mark.parametrize("build, message", [
    (lambda: mx.int_matrix([[1.5, 0], [0, 1]]), "coefficient must be an integer, got float"),
    (lambda: mx.int_matrix([[1.0]]), "coefficient must be an integer, got float"),
    (lambda: mx.int_matrix([[1, True]]), "coefficient must be an integer, got bool"),
    (lambda: mx.matrix(rings.cyclic(3), [[1, "x"]]), "coefficient must be an integer, got str"),
    (lambda: mx.matrix(C4, [[rings.one(C4), None], [1.5, 2]]), "coefficient must be an integer, got NoneType"),
    (lambda: rings.from_int(Z, 0.5), "coefficient must be an integer, got float"),
    (lambda: rings.from_int(C4, False), "coefficient must be an integer, got bool"),
    (lambda: rings.monomial(L, 1, 0.5), "coefficient must be an integer, got float"),
    (lambda: rings.monomial(C4, 1.0), "exponent must be an integer, got float"),
], ids=["int_matrix-float", "int_matrix-one-float", "int_matrix-bool", "matrix-str", "matrix-none",
        "from_int-float", "from_int-bool", "monomial-coeff", "monomial-exponent"])
def test_coefficients_that_are_no_ints_are_refused_by_type(build, message):
    with pytest.raises(SchemaError) as err:
        build()
    assert str(err.value) == message


def test_int_subclasses_are_coefficients_as_the_file_reader_takes_them():
    class Int(int):
        pass

    assert mx.int_matrix([[Int(2), 0]]) == mx.int_matrix([[2, 0]])
    assert mx.matrix(C4, [[rings.one(C4), Int(3)]]) == mx.matrix(C4, [[rings.one(C4), 3]])
    assert rings.from_int(L, Int(-1)) == rings.from_int(L, -1)
    assert rings.monomial(C4, Int(5), Int(2)) == rings.monomial(C4, 1, 2)


# -- who writes the grid layout ------------------------------------------------------

def test_only_the_matrices_module_writes_the_grid_layout():
    pkg = os.path.dirname(mx.__file__)
    names = sorted(n for n in os.listdir(pkg) if n.endswith(".py") and n != "matrices.py")
    assert "serialize.py" in names and "generators.py" in names
    offenders = {}
    for name in names:
        with open(os.path.join(pkg, name), encoding="utf-8") as fh:
            text = fh.read()
        found = [word for word in ("_grid_matrix", "._grids", "_intlat.zeros") if word in text]
        if found:
            offenders[name] = found
    assert offenders == {}


# -- the grid contract ---------------------------------------------------------------

# both w, and orders 8 and 6 so that try_inverse takes the packed cyclic path from n = 3 or 4
CONTRACT_RINGS = [Z, C3, C4, rings.cyclic(6, -1), rings.cyclic(8), rings.cyclic(8, -1), L]


def assert_grid_contract(m):
    """What ``_grid_matrix`` takes on trust: every grid rows x cols, every key its own exponent."""
    assert isinstance(m, mx.FormMatrix)
    for k, g in m._grids.items():
        assert k == mx._exponent(m.ring, k), (m.ring, k)
        assert len(g) == m.rows and all(len(r) == m.cols for r in g), (m.rows, m.cols, k)


@settings(max_examples=150, deadline=None)
@given(st.data(), st.sampled_from(CONTRACT_RINGS), SIZES, SIZES, SIZES, st.integers(0, 2**32))
def test_every_result_keeps_the_grid_contract(data, ring, rows, cols, inner, seed):
    rng = random.Random(seed)
    a, b, c = draw_matrix(data, ring, rows, cols), draw_matrix(data, ring, rows, cols), draw_matrix(data, ring, cols, inner)
    square = draw_matrix(data, ring, rows, rows)
    support = data.draw(st.sets(exponents(ring), max_size=3))
    diagonal = [draw_element(data, ring, support) for _ in range(rows)]
    picks = [data.draw(st.lists(st.integers(0, n - 1), max_size=4)) if n else [] for n in (rows, cols)]
    wr, wc, ws = data.draw(windows(ring))
    unit = random_unimodular(rng, ring, data.draw(st.integers(0, 4)))
    results = [a.add(b), a.sub(b), a.neg(), a.mul(c), a.scale(draw_element(data, ring, support)),
               a.scale_int(data.draw(st.integers(-3, 3))), a.star(), a.submatrix(*picks),
               mx.hstack(a, b), mx.vstack(a, b), mx.block_diagonal(a, c), mx.upper_triangle(square, diagonal),
               mx.from_windows(ring, wr, wc, ws), mx.matrix(ring, [[rng.randint(-2, 2)] * cols] * rows),
               mx.try_inverse(unit), mx.try_inverse(square), mx.identity_matrix(ring, rows)]
    if ring == Z:  # the lattice wrappers, on grids from _intlat
        r = data.draw(st.integers(0, rows))
        results += [*mx.smith_normal_form(a), mx.kernel_basis(a), mx.solve_right(a, a.mul(c)),
                    mx.completion_of_primitive_vector(unit.column(0)) if unit.rows else unit]
        results += mx.complement_of_primitive(random_unimodular(rng, Z, rows).submatrix(range(rows), range(r)))
    for m in results:
        if m is not None:
            assert_grid_contract(m)


@pytest.mark.parametrize("ring, n, path", [(Z, 3, "regular"), (C4, 3, "regular"), (rings.cyclic(8), 3, "packed"),
                                           (rings.cyclic(8, -1), 4, "packed"), (L, 3, "laurent")], ids=str)
def test_each_inverse_path_keeps_the_grid_contract(ring, n, path):
    assert (ring.kind == "laurent", ring.kind == "cyclic" and mx._packs_cyclic(n, ring.m)) == \
        (path == "laurent", path == "packed")
    rng = random.Random(n)
    for _ in range(10):
        inv = mx.try_inverse(random_unimodular(rng, ring, n))
        assert inv is not None
        assert_grid_contract(inv)


# -- complements of primitive sublattices ----------------------------------------------

@settings(max_examples=300)
@given(st.integers(0, 5), st.integers(0, 5), st.sampled_from([(-2, 2), (-1, 1), (0, 1)]), st.integers(0, 2**32))
def test_a_complement_is_refused_exactly_when_the_columns_are_no_split_injection(rows, cols, span, seed):
    b = random_matrix(random.Random(seed), Z, rows, cols, *span)
    try:
        comp, proj = mx.complement_of_primitive(b)
    except SingularMatrixError:
        assert not mx.is_split_injection(b)
        return
    assert mx.is_split_injection(b)
    assert (comp.rows, comp.cols, proj.rows, proj.cols) == (rows, rows - cols, rows - cols, rows)
    assert proj.mul(b).is_zero() and proj.mul(comp) == mx.identity_matrix(Z, rows - cols)


PACKED_RINGS = [L] + CYCLIC_RINGS


@given(st.sampled_from(PACKED_RINGS), st.integers(1, 5), st.integers(0, 2**32), st.booleans())
@settings(max_examples=200)
def test_the_packed_elimination_never_meets_a_zero_pivot_after_z_to_1(ring, n, seed, unit):
    """A matrix that passes z -> 1 has det P(1) = +-1, so the last Bareiss pivot +-det P is not 0:
    units from the generators' elements, and non-units with a row times 2 - g^e, e != 0 mod m,
    which passes z -> 1 while its determinant has norm 2^d - 1 > 1 for d the order of g^e."""
    rng = random.Random(seed)
    m = random_unimodular(rng, ring, n)
    if not unit:
        e = rng.choice((-1, 1)) * rng.randrange(1, 4) if ring == L else rng.randrange(1, ring.m)
        rows, i = [list(r) for r in m.entries], rng.randrange(n)
        rows[i] = [rings.mul(cyclic_element(ring, [(2, 0), (-1, e)]), x) for x in rows[i]]
        m = mx.matrix(ring, rows)
    assert mx._augmentation_is_unit(m)
    for b in ([[]] * n, _intlat.identity(n)):
        width, rlo, clo, d, x = mx._packed_elimination(m, b)
        assert d != 0 and x is not None
    assert mx.is_unimodular(m) == unit
    assert (mx.try_inverse(m) is not None) == unit
