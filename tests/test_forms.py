"""Quadratic and split forms: constructors, conversions, morphism checks."""

import random

import pytest
from hypothesis import given, strategies as st

from surgery_algebra import forms, matrices as mx, rings, serialize
from surgery_algebra.errors import DomainError, PreconditionError, WrongRingError
from surgery_algebra.forms import (
    FormIsometry,
    direct_sum,
    direct_sum_split,
    hyperbolic_quadratic,
    hyperbolic_split,
    is_even,
    is_isometry,
    is_split_morphism,
    mu_value,
    negate,
    negate_split,
    quadratic_form,
    quadratic_to_split,
    split_form,
    split_from_projection,
    split_hessian_witness,
    split_to_quadratic,
    symmetric_form,
)
from surgery_algebra.generators import hessian_corner, matrix as random_matrix

from conftest import random_split, random_unimodular
from test_matrices import E8_ROWS

Z = rings.integers()
C2 = rings.cyclic(2, 1)


def arf_form():
    return split_to_quadratic(split_form(Z, -1, [[1, 1], [0, 1]]))


def test_hyperbolic_matrices():
    h = hyperbolic_quadratic(Z, -1, 1)
    assert h.lam.to_int_grid() == [[0, 1], [-1, 0]]
    assert all(rings.class_is_zero(m) for m in h.mu)
    assert hyperbolic_quadratic(Z, 1, 1).lam.to_int_grid() == [[0, 1], [1, 0]]
    assert hyperbolic_quadratic(Z, 1, 0).rank == 0


def test_split_to_quadratic_values():
    q = arf_form()
    assert q.lam.to_int_grid() == [[0, 1], [-1, 0]]
    assert [rings.class_is_zero(m) for m in q.mu] == [False, False]

    zero = split_to_quadratic(split_form(Z, -1, [[0, 0], [0, 0]]))
    assert zero.lam.is_zero() and all(rings.class_is_zero(m) for m in zero.mu)

    weight = split_to_quadratic(split_form(Z, 1, [[1]]))
    assert weight.lam.to_int_grid() == [[2]]
    assert weight.mu[0].rep == rings.one(Z)


def test_quadratic_to_split_takes_the_upper_lift():
    assert quadratic_to_split(arf_form()).psi.to_int_grid() == [[1, 1], [0, 1]]
    assert quadratic_to_split(hyperbolic_quadratic(Z, 1, 1)).psi.to_int_grid() == [[0, 1], [0, 0]]
    zero = quadratic_form(Z, -1, [[0, 0], [0, 0]], [0, 0])
    assert quadratic_to_split(zero).psi.is_zero()


def test_evenness():
    assert is_even(symmetric_form(Z, 1, E8_ROWS))
    assert not is_even(symmetric_form(Z, 1, [[1]]))
    assert is_even(symmetric_form(Z, -1, [[0, 3], [-3, 0]]))


def test_isometry_checks():
    h = hyperbolic_quadratic(Z, -1, 1)
    ident = FormIsometry(mx.identity_matrix(Z, 2))
    assert is_isometry(ident, h, h)
    rot = FormIsometry(mx.int_matrix([[0, 1], [-1, 0]]))
    assert is_isometry(rot, h, h)
    # same bilinear pairing, distinct quadratic refinements
    assert not is_isometry(ident, h, arf_form())
    assert not is_isometry(FormIsometry(mx.int_matrix([[1, 0], [0, 2]])), h, h)


def test_split_morphism_checks():
    s = hyperbolic_split(Z, -1, 1)
    ident = FormIsometry(mx.identity_matrix(Z, 2), chi=mx.zero_matrix(Z, 2, 2))
    assert is_split_morphism(ident, s, s)

    rng = random.Random(7)
    chi = random_matrix(rng, Z, 2, 2)
    shifted = split_form(Z, -1, s.psi.add(chi.sub(chi.star().scale_int(-1))))
    assert is_split_morphism(FormIsometry(mx.identity_matrix(Z, 2)), s, shifted)
    assert is_split_morphism(FormIsometry(mx.identity_matrix(Z, 2), chi=chi), s, shifted)

    odd = split_form(Z, -1, s.psi.add(mx.int_matrix([[1, 0], [0, 0]])))
    assert not is_split_morphism(FormIsometry(mx.identity_matrix(Z, 2)), s, odd)


def test_direct_sum_and_negate():
    h = hyperbolic_quadratic(Z, -1, 1)
    hh = direct_sum(h, h)
    assert hh.rank == 4
    assert negate(negate(arf_form())) == arf_form()
    other = hyperbolic_quadratic(C2, -1, 1)
    with pytest.raises(WrongRingError):
        direct_sum(h, other)


def test_split_from_projection_values():
    h = hyperbolic_quadratic(Z, -1, 1)
    out = split_from_projection(h, mx.int_matrix([[0, 0], [0, 1]]))
    assert out.psi.to_int_grid() == [[0, 1], [0, 0]]
    # the complementary projection gives an equivalent split form
    other = split_from_projection(h, mx.int_matrix([[1, 0], [0, 0]]))
    assert other.psi.to_int_grid() == [[0, 0], [-1, 0]]
    assert split_to_quadratic(other) == split_to_quadratic(out) == h

    zero = quadratic_form(Z, -1, [[0]], [0])
    assert split_from_projection(zero, mx.int_matrix([[0]])).psi.is_zero()


def test_split_from_projection_rejects_non_morphisms():
    h = hyperbolic_quadratic(Z, -1, 1)
    with pytest.raises(PreconditionError):
        split_from_projection(h, mx.int_matrix([[1, 1], [0, 0]]))


def test_split_from_projection_inverse_pairing_round_trip():
    rng = random.Random(8)
    for _ in range(20):
        s = random_split(rng, Z, rng.choice((1, -1)), rng.randint(1, 2))
        q = split_to_quadratic(s)
        proj = mx.inverse(q.lam).mul(s.psi)
        assert split_to_quadratic(split_from_projection(q, proj)) == q


def test_conversion_round_trip():
    rng = random.Random(9)
    for ring in (Z, C2):
        for _ in range(40):
            eps = rng.choice((1, -1))
            k = rng.randint(0, 4)
            psi = random_matrix(rng, ring, k, k)
            q = split_to_quadratic(split_form(ring, eps, psi))
            assert split_to_quadratic(quadratic_to_split(q)) == q
            chi = random_matrix(rng, ring, k, k)
            shifted = psi.add(chi.sub(chi.star().scale_int(eps)))
            assert split_to_quadratic(split_form(ring, eps, shifted)) == q


def test_mu_polarization():
    rng = random.Random(10)
    for _ in range(30):
        eps = rng.choice((1, -1))
        q = split_to_quadratic(split_form(Z, eps, random_matrix(rng, Z, 3, 3)))
        x = random_matrix(rng, Z, 3, 1)
        y = random_matrix(rng, Z, 3, 1)
        lhs = mu_value(q, x.add(y))
        rhs = rings.class_add(rings.class_add(mu_value(q, x), mu_value(q, y)),
                              rings.q_eps_reduce(x.star().mul(q.lam).mul(y).entry(0, 0), eps))
        assert lhs == rhs


def test_hyperbolic_is_even_and_nonsingular():
    for eps in (1, -1):
        for k in (1, 2, 3):
            h = hyperbolic_quadratic(Z, eps, k)
            assert forms.is_nonsingular(h)
            assert is_even(symmetric_form(Z, eps, h.lam.to_int_grid()))


@pytest.mark.parametrize("ring", [Z, rings.cyclic(3), rings.cyclic(4, -1), rings.laurent()], ids=str)
@pytest.mark.parametrize("eps", [1, -1])
def test_the_hyperbolic_form_equals_its_validated_construction(ring, eps):
    zero = rings.q_eps_reduce(rings.zero(ring), eps)
    for k in range(7):
        grid = [[0] * (2 * k) for _ in range(2 * k)]
        for i in range(k):
            grid[i][k + i], grid[k + i][i] = 1, eps
        validated = forms.QuadraticForm(ring, eps, mx.matrix(ring, grid), (zero,) * (2 * k))
        h = hyperbolic_quadratic(ring, eps, k)
        assert type(h) is forms.QuadraticForm and h == validated and hash(h) == hash(validated)
        assert (h.ring, h.epsilon, h.lam, h.mu) == (ring, eps, validated.lam, validated.mu)
        # read back from the wire format through every check of QuadraticForm
        assert serialize.form_from_obj(serialize.form_to_obj(h)) == h
    with pytest.raises(DomainError):
        hyperbolic_quadratic(ring, 2, 1)


def test_hessian_witness_exists_exactly_on_differences():
    rng = random.Random(11)
    for _ in range(25):
        eps = rng.choice((1, -1))
        n = hessian_corner(rng, Z, 3, eps)
        w = split_hessian_witness(n, eps)
        assert w is not None and w.sub(w.star().scale_int(eps)) == n
    assert split_hessian_witness(mx.int_matrix([[1]]), -1) is None


def test_isometries_compose_and_invert():
    rng = random.Random(12)
    q = arf_form()
    p1 = random_unimodular(rng, Z, 2)
    moved = quadratic_form(Z, -1, p1.star().mul(q.lam).mul(p1),
                           [mu_value(q, p1.column(j)) for j in range(2)])
    f = FormIsometry(p1)
    assert is_isometry(f, moved, q)
    assert is_isometry(FormIsometry(mx.inverse(p1)), q, moved)


def test_split_sum_and_negation_shapes():
    a = hyperbolic_split(Z, 1, 1)
    b = split_form(Z, 1, [[3]])
    s = direct_sum_split(a, b)
    assert s.psi.to_int_grid() == [[0, 1, 0], [0, 0, 0], [0, 0, 3]]
    assert negate_split(b).psi.to_int_grid() == [[-3]]


# -- mu in closed form against the polarisation expansion ----------------------

def mu_by_polarisation(q, x):
    """The frozen entry-by-entry expansion: sum of x_j mu_j conj(x_j) and conj(x_j) lam_jl x_l, j < l."""
    acc = rings.zero(q.ring)
    for j in range(q.rank):
        xj = x.entry(j, 0)
        if rings.is_zero(xj):
            continue
        acc = rings.add(acc, rings.mul(rings.mul(xj, q.mu[j].rep), rings.involute(xj)))
        for l in range(j + 1, q.rank):
            xl = x.entry(l, 0)
            if not rings.is_zero(xl):
                term = rings.mul(rings.mul(rings.involute(xj), q.lam.entry(j, l)), xl)
                acc = rings.add(acc, term)
    return rings.q_eps_reduce(acc, q.epsilon)


@given(st.sampled_from([Z, rings.cyclic(4, -1), rings.laurent()]), st.sampled_from([1, -1]),
       st.integers(1, 4), st.integers(0, 4), st.integers(0, 2**32))
def test_mu_values_match_the_polarisation_expansion(ring, eps, k, cols, seed):
    rng = random.Random(seed)
    q = split_to_quadratic(split_form(ring, eps, random_matrix(rng, ring, k, k)))
    f = random_matrix(rng, ring, k, cols) if cols else mx.zero_matrix(ring, k, 0)
    expected = tuple(mu_by_polarisation(q, f.column(j)) for j in range(cols))
    assert forms.mu_values(q, f) == expected
    assert tuple(mu_value(q, f.column(j)) for j in range(cols)) == expected
    # the pullback along f carries exactly those classes, so f is a morphism onto q
    pullback = forms.QuadraticForm(ring, eps, f.star().mul(q.lam).mul(f), expected)
    assert forms.is_quadratic_morphism(f, pullback, q)
