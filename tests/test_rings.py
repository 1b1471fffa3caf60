"""Involution arithmetic and the quadratic quotient groups."""

import inspect
import os
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
    desymmetrize,
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


# -- one normal form: the ring operations against verbatim copies of their per-ring branches --

def frozen_pairs(m):
    return [(p, m - p) for p in range(1, (m + 1) // 2)]


def frozen_self_conjugate(m):
    return (0, m // 2) if m % 2 == 0 else (0,)


def frozen_mk(ring, coeffs, shift=0):
    if ring.kind == "laurent":
        lo = 0
        hi = len(coeffs)
        while lo < hi and coeffs[lo] == 0:
            lo += 1
        while hi > lo and coeffs[hi - 1] == 0:
            hi -= 1
        if lo == hi:
            return RingElement(ring, (), 0)
        return RingElement(ring, tuple(coeffs[lo:hi]), shift + lo)
    return RingElement(ring, tuple(coeffs), 0)


def frozen_zero(ring):
    if ring.kind == "Z":
        return RingElement(ring, (0,))
    if ring.kind == "cyclic":
        return RingElement(ring, (0,) * ring.m)
    return RingElement(ring, ())


def frozen_from_int(ring, n):
    if ring.kind == "Z":
        return RingElement(ring, (n,))
    if ring.kind == "cyclic":
        return frozen_mk(ring, (n,) + (0,) * (ring.m - 1))
    return frozen_mk(ring, (n,), 0)


def frozen_monomial(ring, k, coeff=1):
    if ring.kind == "Z":
        if k != 0:
            raise DomainError("the integers have no nontrivial monomials")
        return RingElement(ring, (coeff,))
    if ring.kind == "cyclic":
        v = [0] * ring.m
        v[k % ring.m] = coeff
        return frozen_mk(ring, v)
    return frozen_mk(ring, (coeff,), k)


def frozen_add(a, b):
    ring = a.ring
    if ring.kind != "laurent":
        return frozen_mk(ring, tuple(x + y for x, y in zip(a.coeffs, b.coeffs)))
    if not a.coeffs:
        return b
    if not b.coeffs:
        return a
    lo = min(a.shift, b.shift)
    hi = max(a.shift + len(a.coeffs), b.shift + len(b.coeffs))
    v = [0] * (hi - lo)
    for i, c in enumerate(a.coeffs):
        v[a.shift - lo + i] += c
    for i, c in enumerate(b.coeffs):
        v[b.shift - lo + i] += c
    return frozen_mk(ring, v, lo)


def frozen_neg(a):
    return RingElement(a.ring, tuple(-c for c in a.coeffs), a.shift)


def frozen_mul(a, b):
    ring = a.ring
    if ring.kind == "Z":
        return RingElement(ring, (a.coeffs[0] * b.coeffs[0],))
    if ring.kind == "cyclic":
        m = ring.m
        v = [0] * m
        for i, x in enumerate(a.coeffs):
            if x:
                for j, y in enumerate(b.coeffs):
                    if y:
                        v[(i + j) % m] += x * y
        return frozen_mk(ring, v)
    if not a.coeffs or not b.coeffs:
        return frozen_zero(ring)
    v = [0] * (len(a.coeffs) + len(b.coeffs) - 1)
    for i, x in enumerate(a.coeffs):
        if x:
            for j, y in enumerate(b.coeffs):
                v[i + j] += x * y
    return frozen_mk(ring, v, a.shift + b.shift)


def frozen_involute(a):
    ring = a.ring
    if ring.kind == "Z":
        return a
    if ring.kind == "cyclic":
        m = ring.m
        v = [0] * m
        for k, c in enumerate(a.coeffs):
            v[(m - k) % m] += (ring.w ** k) * c
        return frozen_mk(ring, v)
    if not a.coeffs:
        return a
    return frozen_mk(ring, tuple(reversed(a.coeffs)), -(a.shift + len(a.coeffs) - 1))


def frozen_symmetrize(a, epsilon):
    if epsilon == 1:
        return frozen_add(a, frozen_involute(a))
    return frozen_add(a, frozen_neg(frozen_involute(a)))


def frozen_symmetrize_preimage(a, epsilon):
    ring = a.ring
    if ring.kind == "Z":
        n = a.coeffs[0]
        if epsilon == 1:
            return frozen_from_int(ring, n // 2) if n % 2 == 0 else None
        return frozen_zero(ring) if n == 0 else None
    if ring.kind == "cyclic":
        m, c = ring.m, a.coeffs
        x = [0] * m
        for p, e in frozen_pairs(m):
            if c[e] != epsilon * ring.w ** p * c[p]:
                return None
            x[p] = c[p]
        for e in frozen_self_conjugate(m):
            if epsilon * ring.w ** e == 1 and c[e] % 2 == 0:
                x[e] = c[e] // 2
            elif c[e]:
                return None
        return frozen_mk(ring, x)
    if not a.coeffs:
        return a
    b = a.shift + len(a.coeffs) - 1
    if a.shift != -b:
        return None
    c = a.coeffs
    if any(c[b - k] != epsilon * c[b + k] for k in range(1, b + 1)):
        return None
    if c[b] % 2 if epsilon == 1 else c[b]:
        return None
    return frozen_mk(ring, (c[b] // 2,) + c[b + 1:], 0)


def frozen_q_eps_reduce(a, epsilon):
    ring = a.ring
    if ring.kind == "Z":
        n = a.coeffs[0]
        return a if epsilon == 1 else frozen_from_int(ring, n % 2)
    if ring.kind == "cyclic":
        m, c = ring.m, a.coeffs
        v = [0] * m
        for p, e in frozen_pairs(m):
            v[e] = c[e] + epsilon * ring.w ** e * c[p]
        for e in frozen_self_conjugate(m):
            v[e] = c[e] if epsilon * ring.w ** e == 1 else c[e] % 2
        return frozen_mk(ring, v)
    if not a.coeffs:
        return a
    lo, hi = a.shift, a.shift + len(a.coeffs) - 1
    base = 0 if lo <= 0 <= hi else min(abs(lo), abs(hi))
    v = [0] * (max(abs(lo), abs(hi)) - base + 1)
    for i, c in enumerate(a.coeffs):
        e = lo + i
        if e >= 0:
            v[e - base] += c
        else:
            v[-e - base] += epsilon * c
    if base == 0 and epsilon == -1:
        v[0] %= 2
    return frozen_mk(ring, v, base)


def frozen_q_eps_group(ring, epsilon, window=None):
    if ring.kind == "Z":
        ring = cyclic(1)
    if ring.kind == "cyclic":
        pairs, signs = len(frozen_pairs(ring.m)), [epsilon * ring.w ** e for e in frozen_self_conjugate(ring.m)]
    else:
        pairs, signs = window, [epsilon]
    return AbelianGroup(pairs + signs.count(1), (2,) * signs.count(-1))


def window_of(a):
    """Everything an element holds, so that equal means the same coefficients at the same shift."""
    return None if a is None else (a.ring, type(a.coeffs), a.coeffs, a.shift)


def element_over(ring):
    """Elements of ring: any coefficients over Z and Z[Z/m]; over Z[z, z^-1] windows below,
    straddling and above 0, and the zero element, whose shift 0 is no exponent."""
    if ring.kind == "laurent":
        return st.one_of(laurent_windows(), st.just(frozen_zero(L)))
    m = ring.m or 1
    return st.lists(st.integers(-9, 9), min_size=m, max_size=m).map(lambda cs: frozen_mk(ring, cs))


EVERY_RING = st.one_of(st.just(Z), st.sampled_from(ALL_CYCLIC), st.just(L))


@st.composite
def ring_triples(draw):
    ring = draw(EVERY_RING)
    return tuple(draw(element_over(ring)) for _ in range(3))


@settings(max_examples=500)
@given(ring_triples(), st.integers(-40, 40), st.integers(-9, 9), st.sampled_from([1, -1]))
def test_each_ring_operation_gives_what_its_per_ring_branches_gave(elements, k, n, eps):
    a, b, _ = elements
    ring = a.ring
    assert window_of(rings.zero(ring)) == window_of(frozen_zero(ring))
    assert window_of(from_int(ring, n)) == window_of(frozen_from_int(ring, n))
    if ring != Z or k == 0:
        assert window_of(monomial(ring, k, n)) == window_of(frozen_monomial(ring, k, n))
    for x, y in ((a, b), (b, a), (a, a)):
        assert window_of(add(x, y)) == window_of(frozen_add(x, y))
        assert window_of(sub(x, y)) == window_of(frozen_add(x, frozen_neg(y)))
        assert window_of(mul(x, y)) == window_of(frozen_mul(x, y))
    for x in (a, b, symmetrize(a, eps), symmetrize(a, -eps)):
        assert window_of(rings.neg(x)) == window_of(frozen_neg(x))
        assert window_of(involute(x)) == window_of(frozen_involute(x))
        assert window_of(symmetrize(x, eps)) == window_of(frozen_symmetrize(x, eps))
        assert window_of(symmetrize_preimage(x, eps)) == window_of(frozen_symmetrize_preimage(x, eps))
        assert window_of(desymmetrize(x, eps)) == window_of(frozen_symmetrize_preimage(x, -eps))
        assert window_of(q_eps_reduce(x, eps).rep) == window_of(frozen_q_eps_reduce(x, eps))
    window = abs(k) if ring == L else None
    assert q_eps_group(ring, eps, window) == frozen_q_eps_group(ring, eps, window)


@settings(max_examples=300)
@given(ring_triples())
def test_addition_and_multiplication_satisfy_the_ring_axioms(elements):
    a, b, c = elements
    ring = a.ring
    zero, unit = rings.zero(ring), one(ring)
    assert add(add(a, b), c) == add(a, add(b, c))
    assert mul(mul(a, b), c) == mul(a, mul(b, c))
    assert add(a, b) == add(b, a) and mul(a, b) == mul(b, a)
    assert mul(a, add(b, c)) == add(mul(a, b), mul(a, c))
    assert mul(add(a, b), c) == add(mul(a, c), mul(b, c))
    assert add(a, zero) == a == add(zero, a) and mul(a, unit) == a == mul(unit, a)
    assert mul(a, zero) == zero and sub(a, a) == zero and rings.is_zero(add(a, rings.neg(a)))


@pytest.mark.parametrize("eps", [0, 2, -3])
@pytest.mark.parametrize("ring", [Z, cyclic(1), C2, cyclic(3), C4, L], ids=str)
def test_an_epsilon_other_than_plus_or_minus_one_is_refused(ring, eps):
    a = one(ring)
    calls = {
        "symmetrize": lambda: symmetrize(a, eps),
        "symmetrize_preimage": lambda: symmetrize_preimage(a, eps),
        "desymmetrize": lambda: desymmetrize(a, eps),
        "in_symmetrize_image": lambda: in_symmetrize_image(a, eps),
        "q_eps_reduce": lambda: q_eps_reduce(a, eps),
        "q_eps_group": lambda: q_eps_group(ring, eps, window=2),
        "q_eps_group without a window": lambda: q_eps_group(ring, eps),
    }
    for name, call in calls.items():
        with pytest.raises(DomainError) as err:
            call()
        assert (name, str(err.value)) == (name, "epsilon must be +1 or -1")


def test_only_the_normal_form_builds_a_ring_element():
    pkg = os.path.dirname(rings.__file__)
    names = sorted(n for n in os.listdir(pkg) if n.endswith(".py"))
    assert {"rings.py", "matrices.py", "serialize.py"} <= set(names)
    builds = {}
    for name in names:
        with open(os.path.join(pkg, name), encoding="utf-8") as fh:
            count = fh.read().count("RingElement(")
        if count:
            builds[name] = count
    assert builds == {"rings.py": inspect.getsource(rings._mk).count("RingElement(")}
