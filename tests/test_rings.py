"""Involution arithmetic and the quadratic quotient groups."""

import pytest
from hypothesis import given, strategies as st

from surgery_algebra import rings
from surgery_algebra.errors import DomainError, WrongRingError
from surgery_algebra.rings import (
    AbelianGroup,
    add,
    class_add,
    class_is_zero,
    class_neg,
    class_twist,
    cyclic,
    div_exact,
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


@st.composite
def laurent_elements(draw, nonzero=False):
    coeffs = draw(st.lists(st.integers(-9, 9), min_size=1, max_size=5))
    if nonzero and not any(coeffs):
        coeffs[-1] = 1
    shift = draw(st.integers(-6, 6))
    return el(L, [(c, shift + k) for k, c in enumerate(coeffs)])


LAURENT_UNITS = st.builds(monomial, st.just(L), st.integers(-6, 6), st.sampled_from([1, -1]))


@given(laurent_elements(), st.one_of(laurent_elements(nonzero=True), LAURENT_UNITS))
def test_exact_laurent_division_undoes_multiplication(a, b):
    assert div_exact(mul(a, b), b) == a


@pytest.mark.parametrize("a, b", [
    ([(1, 0), (2, 1)], [(2, 0), (1, 1)]),   # (1+2z)/(2+z): nonzero remainder
    ([(1, 0), (1, 2)], [(1, 0), (1, 1)]),   # (1+z^2)/(1+z): nonzero remainder
    ([(1, 1)], [(2, 0)]),                   # z/2: the coefficient does not divide
    ([(1, 0)], [(1, -1), (1, 0)]),          # 1/(z^-1+1): the divisor is wider
    ([(1, 0)], []),                         # division by zero
])
def test_inexact_laurent_division_raises(a, b):
    with pytest.raises(DomainError):
        div_exact(el(L, a), el(L, b))


def test_exact_division_is_refused_off_the_laurent_ring():
    with pytest.raises(WrongRingError):
        div_exact(from_int(Z, 4), from_int(Z, 2))
