"""Involution arithmetic and the quadratic quotient groups."""

import time
from functools import lru_cache

import pytest
from hypothesis import given, settings, strategies as st

from surgery_algebra import _intlat, matrices, rings
from surgery_algebra.errors import DomainError
from surgery_algebra.rings import (
    AbelianGroup,
    RingElement,
    add,
    class_add,
    class_is_zero,
    class_neg,
    class_twist,
    cyclic,
    from_int,
    in_symmetrize_image,
    integers,
    involute,
    laurent,
    monomial,
    mul,
    one,
    q_eps_group,
    q_eps_reduce,
    sub,
    symmetrize,
    symmetrize_preimage,
    zero,
)

Z = integers()
C2 = cyclic(2, 1)
C4 = cyclic(4, -1)
L = laurent()


def el(ring, pairs):
    """Sum of coeff * monomial(k) terms."""
    out = zero(ring)
    for coeff, k in pairs:
        out = add(out, mul(from_int(ring, coeff), monomial(ring, k)))
    return out


def test_involution_on_integers_is_identity():
    assert involute(from_int(Z, 5)) == from_int(Z, 5)
    assert involute(from_int(Z, -9)) == from_int(Z, -9)


def test_twisted_involution_on_cyclic_four():
    # w(g) = -1, so g goes to -g^(-1) = -g^3
    g = monomial(C4, 1)
    assert involute(g) == el(C4, [(-1, 3)])
    assert involute(monomial(C4, 2)) == monomial(C4, 2)


def test_laurent_involution_inverts_the_variable():
    a = el(L, [(2, 1), (3, 0)])
    assert involute(a) == el(L, [(2, -1), (3, 0)])


def test_symmetrize_values():
    assert symmetrize(one(Z), 1) == from_int(Z, 2)
    assert symmetrize(from_int(Z, 7), -1) == zero(Z)
    assert symmetrize(monomial(C2, 1), 1) == el(C2, [(2, 1)])


def test_reduce_over_integers():
    assert q_eps_reduce(from_int(Z, 3), -1).rep == one(Z)
    assert q_eps_reduce(from_int(Z, 4), -1).rep == zero(Z)
    assert q_eps_reduce(from_int(Z, 3), 1).rep == from_int(Z, 3)


def test_reduce_over_cyclic_two_drops_doubled_coefficients():
    a = el(C2, [(1, 0), (3, 1)])
    assert q_eps_reduce(a, -1).rep == el(C2, [(1, 0), (1, 1)])


def test_q_groups_over_integers():
    assert q_eps_group(Z, 1) == AbelianGroup(1, ())
    assert q_eps_group(Z, -1) == AbelianGroup(0, (2,))


def test_q_group_over_cyclic_two():
    assert q_eps_group(C2, -1) == AbelianGroup(0, (2, 2))


def test_q_group_over_laurent_needs_a_window():
    with pytest.raises(DomainError):
        q_eps_group(L, 1)
    # window 1 lattice: span{z - z^(-1)} for +1, span{2, z + z^(-1)} for -1
    assert q_eps_group(L, 1, window=1) == AbelianGroup(2, ())
    assert q_eps_group(L, -1, window=1) == AbelianGroup(1, (2,))


RING_STRATEGY = st.sampled_from([Z, C2, C4, cyclic(3, 1), cyclic(6, -1), L])


@st.composite
def ring_and_elements(draw, count=2):
    ring = draw(RING_STRATEGY)
    elems = []
    for _ in range(count):
        if ring.kind == "Z":
            elems.append(from_int(ring, draw(st.integers(-9, 9))))
        elif ring.kind == "cyclic":
            coeffs = draw(st.lists(st.integers(-4, 4), min_size=ring.m, max_size=ring.m))
            elems.append(el(ring, [(c, k) for k, c in enumerate(coeffs)]))
        else:
            coeffs = draw(st.lists(st.integers(-4, 4), min_size=5, max_size=5))
            elems.append(el(ring, [(c, k - 2) for k, c in enumerate(coeffs)]))
    return ring, elems


@given(ring_and_elements())
def test_involution_axioms(data):
    ring, (a, b) = data
    assert involute(add(a, b)) == add(involute(a), involute(b))
    assert involute(mul(a, b)) == mul(involute(b), involute(a))
    assert involute(involute(a)) == a
    assert involute(one(ring)) == one(ring)


@given(ring_and_elements(), st.sampled_from([1, -1]))
def test_reduce_is_constant_on_cosets(data, eps):
    ring, (a, b) = data
    shifted = add(a, sub(b, mul(from_int(ring, eps), involute(b))))
    assert q_eps_reduce(a, eps) == q_eps_reduce(shifted, eps)
    again = q_eps_reduce(q_eps_reduce(a, eps).rep, eps)
    assert again == q_eps_reduce(a, eps)


@given(ring_and_elements(count=1), st.sampled_from([1, -1]))
def test_symmetrize_lands_in_the_fixed_set(data, eps):
    ring, (a,) = data
    s = symmetrize(a, eps)
    assert mul(from_int(ring, eps), involute(s)) == s
    assert in_symmetrize_image(s, eps)


@given(ring_and_elements(), st.sampled_from([1, -1]))
def test_class_arithmetic_matches_representative_arithmetic(data, eps):
    ring, (a, b) = data
    ca, cb = q_eps_reduce(a, eps), q_eps_reduce(b, eps)
    assert class_add(ca, cb) == q_eps_reduce(add(a, b), eps)
    assert class_neg(ca) == q_eps_reduce(sub(zero(ring), a), eps)
    assert class_is_zero(class_add(ca, class_neg(ca)))


@given(ring_and_elements(count=2), st.sampled_from([1, -1]))
def test_twist_is_the_quadratic_substitution(data, eps):
    ring, (a, x) = data
    cls = q_eps_reduce(x, eps)
    assert class_twist(cls, a) == q_eps_reduce(mul(mul(a, x), involute(a)), eps)


# -- the orbit fold against a frozen copy of the lattice code it replaced -----

@lru_cache(maxsize=None)
def _lattice_q_lattice(kind, m, w, epsilon, window):
    """Hermite basis of the sublattice {a - eps*conj(a)} in coefficient coordinates."""
    if kind == "cyclic":
        ring = rings.RingSpec(kind, m, w)
        n = m
        gens = []
        for k in range(n):
            e = monomial(ring, k)
            v = sub(e, RingElement(ring, tuple(epsilon * c for c in involute(e).coeffs)))
            gens.append(list(v.coeffs))
        grid = [[gens[j][i] for j in range(n)] for i in range(n)]
    else:
        n = 2 * window + 1
        grid = _intlat.zeros(n, n)
        for k in range(window + 1):
            col = [0] * n
            col[window + k] += 1
            col[window - k] -= epsilon
            for i in range(n):
                grid[i][k] = col[i]
    return _intlat.hermite_column_basis(grid)


def lattice_q_eps_reduce(a, epsilon):
    ring = a.ring
    if ring.kind == "cyclic":
        h, piv = _lattice_q_lattice("cyclic", ring.m, ring.w, epsilon, 0)
        return rings._mk(ring, _intlat.reduce_mod_lattice(list(a.coeffs), h, piv))
    if not a.coeffs:
        return a
    b = max(abs(a.shift), abs(a.shift + len(a.coeffs) - 1))
    h, piv = _lattice_q_lattice("laurent", 0, 1, epsilon, b)
    full = [0] * (2 * b + 1)
    for i, c in enumerate(a.coeffs):
        full[a.shift + i + b] = c
    return rings._mk(ring, _intlat.reduce_mod_lattice(full, h, piv), -b)


def lattice_symmetrize_preimage(a, epsilon):
    ring = a.ring
    if ring.kind == "cyclic":
        m = ring.m
        t = _intlat.zeros(m, m)
        for k in range(m):
            t[(m - k) % m][k] = ring.w ** k
        mat = [[(1 if i == j else 0) + epsilon * t[i][j] for j in range(m)] for i in range(m)]
        sol = _intlat.solve(mat, [[c] for c in a.coeffs])
        return None if sol is None else rings._mk(ring, [row[0] for row in sol])
    if not a.coeffs:
        return a
    b = max(abs(a.shift), abs(a.shift + len(a.coeffs) - 1))
    full = [0] * (2 * b + 1)
    for i, c in enumerate(a.coeffs):
        full[a.shift + i + b] = c
    a0 = full[b]
    if epsilon == 1 and a0 % 2:
        return None
    if epsilon == -1 and a0 != 0:
        return None
    x = [0] * (2 * b + 1)
    x[b] = a0 // 2 if epsilon == 1 else 0
    for k in range(1, b + 1):
        if full[b - k] != epsilon * full[b + k]:
            return None
        x[b + k] = full[b + k]
    return rings._mk(L, x, -b)


def lattice_q_eps_group(ring, epsilon, window=None):
    if ring.kind == "cyclic":
        m = ring.m
        gens = []
        for k in range(m):
            e = monomial(ring, k)
            gens.append(list(sub(e, RingElement(ring, tuple(epsilon * c for c in involute(e).coeffs))).coeffs))
        grid = [[gens[j][i] for j in range(m)] for i in range(m)]
        return matrices.cokernel(matrices.int_matrix(grid))[0]
    n = 2 * window + 1
    grid = _intlat.zeros(n, n)
    for k in range(window + 1):
        grid[window + k][k] += 1
        grid[window - k][k] -= epsilon
    return matrices.cokernel(matrices.int_matrix(grid))[0]


ALL_CYCLIC = [cyclic(m, w) for m in range(1, 17) for w in (1, -1) if w == 1 or m % 2 == 0]


@st.composite
def cyclic_elements(draw):
    ring = draw(st.sampled_from(ALL_CYCLIC))
    return rings._mk(ring, draw(st.lists(st.integers(-9, 9), min_size=ring.m, max_size=ring.m)))


@st.composite
def laurent_windows(draw):
    """Laurent elements with support below 0, above 0, or straddling 0."""
    coeffs = draw(st.lists(st.integers(-9, 9), min_size=1, max_size=8))
    side = draw(st.sampled_from(["below", "above", "straddling"]))
    if side == "below":
        shift = draw(st.integers(-27, -len(coeffs)))
    elif side == "above":
        shift = draw(st.integers(1, 27))
    else:
        shift = draw(st.integers(1 - len(coeffs), 0))
    return rings._mk(L, coeffs, shift)


@st.composite
def symmetrize_targets(draw, elements):
    """Images under 1 + T_eps, some of them perturbed in one coefficient."""
    eps = draw(st.sampled_from([1, -1]))
    a = symmetrize(draw(elements), eps)
    if draw(st.booleans()):
        a = add(a, monomial(a.ring, draw(st.integers(-3, 3)), draw(st.integers(-2, 2))))
    return a, eps


ELEMENTS = st.one_of(cyclic_elements(), laurent_windows())


@settings(max_examples=400)
@given(ELEMENTS, st.sampled_from([1, -1]))
def test_reduce_is_the_lattice_representative(a, eps):
    assert q_eps_reduce(a, eps).rep == lattice_q_eps_reduce(a, eps)


@settings(max_examples=400)
@given(st.one_of(symmetrize_targets(ELEMENTS), st.tuples(ELEMENTS, st.sampled_from([1, -1]))))
def test_preimage_is_the_lattice_solution(data):
    a, eps = data
    assert symmetrize_preimage(a, eps) == lattice_symmetrize_preimage(a, eps)


@pytest.mark.parametrize("ring", ALL_CYCLIC, ids=str)
@pytest.mark.parametrize("eps", [1, -1])
def test_cyclic_q_group_is_the_lattice_cokernel(ring, eps):
    assert q_eps_group(ring, eps) == lattice_q_eps_group(ring, eps)


@pytest.mark.parametrize("eps", [1, -1])
def test_laurent_q_group_is_the_lattice_cokernel(eps):
    for window in range(30):
        assert q_eps_group(L, eps, window=window) == lattice_q_eps_group(L, eps, window)
    with pytest.raises(DomainError):
        q_eps_group(L, eps, window=-1)


def test_a_far_exponent_folds_in_bounded_time():
    n = 10 ** 9
    start = time.process_time()
    assert q_eps_reduce(monomial(L, -n), 1).rep == monomial(L, n)
    assert q_eps_reduce(monomial(L, -n), -1).rep == monomial(L, n, -1)
    assert q_eps_reduce(el(L, [(1, -n), (2, 1 - n)]), 1).rep == el(L, [(2, n - 1), (1, n)])
    assert symmetrize_preimage(monomial(L, -n), 1) is None
    assert time.process_time() - start < 0.5
