"""Automorphisms of the hyperbolic form: generators, membership, inverses."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from surgery_algebra import matrices as mx, rings, unitary
from surgery_algebra.errors import DomainError, SchemaError, SingularMatrixError, WrongRingError
from surgery_algebra.unitary import (
    UnitaryAutomorphism,
    compose,
    elementary_diag,
    elementary_lower,
    elementary_upper,
    identity_unitary,
    inverse,
    sigma_eps,
    unitary_from_matrix,
    unitary_membership,
)
from surgery_algebra.generators import hessian_corner, shears, word as random_word

from test_closed_forms import ALL_RINGS

Z = rings.integers()


def test_sigma_blocks_and_membership():
    for eps in (1, -1):
        s = sigma_eps(Z, eps, 2)
        assert s.alpha.is_zero() and s.delta.is_zero()
        assert s.beta == mx.identity_matrix(Z, 2)
        assert s.gamma == mx.identity_matrix(Z, 2).scale_int(eps)
        assert unitary_membership(s)


def test_diagonal_generator():
    beta = mx.int_matrix([[1, 1], [0, 1]])
    u = elementary_diag(beta, -1)
    assert unitary_membership(u)
    assert u.alpha == beta and u.beta.is_zero() and u.gamma.is_zero()
    assert u.delta == mx.inverse(beta.star())
    with pytest.raises(SingularMatrixError):
        elementary_diag(mx.int_matrix([[2]]), -1)


def test_lower_generator_rejects_odd_corners():
    with pytest.raises(DomainError):
        elementary_lower(mx.int_matrix([[1]]), -1)
    with pytest.raises(DomainError):
        elementary_upper(mx.int_matrix([[1]]), 1)
    # 2 = 1 - (-1)*1 is a legitimate hessian difference when eps = -1
    u = elementary_lower(mx.int_matrix([[2]]), -1)
    assert unitary_membership(u)
    v = elementary_upper(mx.int_matrix([[0, 1], [-1, 0]]), 1)
    assert unitary_membership(v)
    assert v.alpha == mx.identity_matrix(Z, 2) and v.gamma.is_zero()


def test_upper_is_the_flip_conjugate_of_lower():
    rng = random.Random(61)
    for eps in (1, -1):
        n = hessian_corner(rng, Z, 2, eps)
        sig = sigma_eps(Z, eps, 2)
        want = compose(compose(sig, elementary_lower(n.scale_int(eps), eps)), inverse(sig))
        got = elementary_upper(n, eps)
        assert got.matrix() == want.matrix()
        assert got.beta == n


def test_words_stay_in_the_group():
    rng = random.Random(62)
    for _ in range(20):
        eps = rng.choice((1, -1))
        k = rng.randint(1, 3)
        u = random_word(rng, eps, k, rng.randint(1, 6))
        assert unitary_membership(u)
        v = inverse(u)
        assert unitary_membership(v)
        prod = compose(u, v)
        assert prod.matrix() == mx.identity_matrix(Z, 2 * k)
        assert compose(v, u).matrix() == mx.identity_matrix(Z, 2 * k)


def test_membership_rejects_shears_that_skip_the_quadratic_condition():
    one = mx.identity_matrix(Z, 1)
    skewed = UnitaryAutomorphism(Z, -1, one, one, mx.zero_matrix(Z, 1, 1), one)
    assert not unitary_membership(skewed)
    with pytest.raises(DomainError):
        inverse(skewed)


def test_membership_needs_the_exact_pairing():
    two = mx.int_matrix([[2]])
    broken = UnitaryAutomorphism(Z, 1, two, mx.zero_matrix(Z, 1, 1),
                                 mx.zero_matrix(Z, 1, 1), two)
    assert not unitary_membership(broken)


def test_matrix_round_trip_through_blocks():
    rng = random.Random(63)
    u = random_word(rng, -1, 2, 4)
    again = unitary_from_matrix(Z, -1, u.matrix())
    assert again == u


def test_generators_preserve_the_hyperbolic_pairing():
    rng = random.Random(64)
    for eps in (1, -1):
        k = 2
        lam = mx.block_matrix([
            [mx.zero_matrix(Z, k, k), mx.identity_matrix(Z, k)],
            [mx.identity_matrix(Z, k).scale_int(eps), mx.zero_matrix(Z, k, k)],
        ])
        for _ in range(10):
            m = random_word(rng, eps, k, 5).matrix()
            assert m.star().mul(lam).mul(m) == lam


def test_a_flip_of_negative_rank_is_refused_by_name():
    with pytest.raises(SchemaError, match=r"^identity_matrix: n must be at least 0, got -1$"):
        unitary.sigma_eps(Z, 1, -1)


def test_an_identity_automorphism_of_negative_rank_is_refused_by_name():
    with pytest.raises(SchemaError, match=r"^identity_matrix: n must be at least 0, got -3$"):
        unitary.identity_unitary(Z, -1, -3)


@pytest.mark.parametrize("eps", [0, 2, -3])
def test_an_automorphism_refuses_any_other_epsilon_as_the_forms_do(eps):
    """The kind and message of the form classes, at every rank, before the blocks are read."""
    for k in range(3):
        blocks = [mx.identity_matrix(Z, k)] * 4
        with pytest.raises(DomainError, match=r"^epsilon must be \+1 or -1$") as exc:
            UnitaryAutomorphism(Z, eps, *blocks)
        assert exc.type is DomainError
    with pytest.raises(DomainError, match=r"^epsilon must be \+1 or -1$"):
        UnitaryAutomorphism(Z, eps, mx.identity_matrix(Z, 1), mx.zero_matrix(Z, 2, 2),
                            mx.zero_matrix(rings.cyclic(3), 1, 1), mx.identity_matrix(Z, 1))


def test_a_block_over_another_ring_is_a_wrong_ring_error():
    """Each block's shape is tested before its ring, block by block, as before."""
    one, other = mx.identity_matrix(Z, 1), mx.identity_matrix(rings.cyclic(3), 1)
    for place in range(4):
        blocks = [one] * 4
        blocks[place] = other
        name = ("alpha", "beta", "gamma", "delta")[place]
        with pytest.raises(WrongRingError, match=f"^block {name} lives over the wrong ring$"):
            UnitaryAutomorphism(Z, 1, *blocks)
    with pytest.raises(SchemaError, match="^block beta must be 1x1$"):
        UnitaryAutomorphism(Z, 1, one, mx.identity_matrix(rings.cyclic(3), 2), one, other)


# -- the group laws over every ring ---------------------------------------------------


@pytest.mark.parametrize("ring", ALL_RINGS, ids=str)
@settings(max_examples=100, deadline=None)
@given(st.integers(1, 3), st.sampled_from([1, -1]), st.integers(0, 2**32))
def test_the_generators_obey_the_group_laws(ring, k, eps, seed):
    """sigma^2 = eps I; the elementary corners add and the diagonal blocks multiply, in that
    order; u composed with its inverse is the identity, and membership is closed under
    both.  Every membership test desymmetrizes the diagonals of two corners over the ring."""
    rng = random.Random(seed)
    x, y = hessian_corner(rng, ring, k, eps), hessian_corner(rng, ring, k, eps)
    b1, b2 = shears(rng, ring, k, 4), shears(rng, ring, k, 4)
    sig = sigma_eps(ring, eps, k)
    assert compose(sig, sig).matrix() == mx.identity_matrix(ring, 2 * k).scale_int(eps)
    for elementary in (elementary_lower, elementary_upper):
        assert compose(elementary(x, eps), elementary(y, eps)) == elementary(x.add(y), eps)
    assert compose(elementary_diag(b1, eps), elementary_diag(b2, eps)) == elementary_diag(b1.mul(b2), eps)
    u = compose(compose(elementary_lower(x, eps), elementary_diag(b1, eps)), elementary_upper(y, eps))
    v = compose(sig, elementary_diag(b2, eps))
    ident = identity_unitary(ring, eps, k)
    for w in (u, v, compose(u, v), compose(v, u)):
        assert unitary_membership(w) and unitary_membership(inverse(w))
        assert compose(w, inverse(w)) == ident == compose(inverse(w), w)
