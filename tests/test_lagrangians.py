"""Lagrangian extension, reduction, and surgery on forms."""

import itertools
import random

import pytest
from hypothesis import given, settings, strategies as st

from surgery_algebra import forms, matrices as mx, rings
from surgery_algebra.errors import DomainError, PreconditionError, SingularMatrixError
from surgery_algebra.forms import (
    FormIsometry,
    direct_sum,
    direct_sum_split,
    hyperbolic_quadratic,
    hyperbolic_split,
    is_isometry,
    is_split_morphism,
    negate,
    quadratic_form,
    quadratic_to_split,
    split_form,
    split_to_quadratic,
)
from surgery_algebra.lagrangians import (
    LagrangianInclusion,
    diagonal_splitting,
    extend_lagrangian,
    is_lagrangian,
    is_sublagrangian,
    orthogonal,
    sublagrangian_reduction,
    surgery_on_form,
)

from conftest import random_lagrangian, random_split_and_transport, random_unimodular
from test_forms import arf_form
from test_closed_forms import ALL_RINGS
from test_matrices import E8_ROWS

Z = rings.integers()


def brute_isometry(src, dst, bound=2):
    """Small exhaustive search; the oracle for rank-2 recognition."""
    k = src.rank
    if k != dst.rank:
        return None
    for vals in itertools.product(range(-bound, bound + 1), repeat=k * k):
        p = mx.int_matrix([list(vals[i * k:(i + 1) * k]) for i in range(k)])
        if mx.is_unimodular(p) and is_isometry(FormIsometry(p), src, dst):
            return p
    return None


def test_orthogonal_values():
    h = hyperbolic_quadratic(Z, -1, 1)
    e1 = mx.int_matrix([[1], [0]])
    assert mx.same_span(orthogonal(h, e1), e1)

    weighted = quadratic_form(Z, 1, [[2]], [1])
    assert orthogonal(weighted, mx.zero_matrix(Z, 1, 0)).to_int_grid() == [[1]]

    e8 = quadratic_form(Z, 1, E8_ROWS, [1] * 8)
    perp = orthogonal(e8, mx.int_matrix([[1]] + [[0]] * 7))
    assert perp.cols == 7
    assert mx.int_matrix([E8_ROWS[0]]).mul(perp).is_zero()


def test_lagrangian_predicates():
    h = hyperbolic_quadratic(Z, -1, 1)
    assert is_lagrangian(h, mx.int_matrix([[1], [0]]))
    # graph of an even symmetric 1x1 form inside the rank-2 hyperbolic
    assert is_lagrangian(h, mx.int_matrix([[1], [2]]))
    assert not is_sublagrangian(h, mx.int_matrix([[1], [1]]))
    singular = quadratic_form(Z, -1, [[0, 0], [0, 0]], [0, 0])
    with pytest.raises(DomainError):
        is_lagrangian(singular, mx.int_matrix([[1], [0]]))


def test_lagrangian_needs_half_rank():
    h4 = hyperbolic_quadratic(Z, -1, 2)
    first = mx.int_matrix([[1], [0], [0], [0]])
    assert is_sublagrangian(h4, first)
    assert not is_lagrangian(h4, first)


def test_extend_lagrangian_on_the_standard_block():
    s = hyperbolic_split(Z, -1, 1)
    ext = extend_lagrangian(s, mx.int_matrix([[1], [0]]))
    assert is_split_morphism(ext, s, s)
    assert mx.is_unimodular(ext.f)
    assert ext.f.submatrix(range(2), range(1)).to_int_grid() == [[1], [0]]


def test_extend_lagrangian_on_the_diagonal_of_a_sum_with_its_negative():
    q = direct_sum(arf_form(), negate(arf_form()))
    s = quadratic_to_split(q)
    diag = mx.vstack(mx.identity_matrix(Z, 2), mx.identity_matrix(Z, 2))
    assert is_lagrangian(q, diag)
    ext = extend_lagrangian(s, diag)
    assert is_split_morphism(ext, hyperbolic_split(Z, -1, 2), s)
    assert mx.is_unimodular(ext.f)
    assert ext.f.submatrix(range(4), range(2)) == diag


def test_extend_lagrangian_on_a_graph():
    h = hyperbolic_quadratic(Z, -1, 1)
    graph = mx.int_matrix([[1], [2]])
    ext = extend_lagrangian(quadratic_to_split(h), graph)
    assert is_split_morphism(ext, hyperbolic_split(Z, -1, 1), quadratic_to_split(h))
    assert ext.f.submatrix(range(2), range(1)) == graph


def test_reduction_by_a_full_lagrangian_leaves_nothing():
    s = hyperbolic_split(Z, -1, 1)
    residual, iso = sublagrangian_reduction(s, mx.int_matrix([[1], [0]]))
    assert residual.rank == 0
    assert is_split_morphism(iso, s, s)


def test_reduction_of_the_rank_four_hyperbolic():
    big = hyperbolic_quadratic(Z, -1, 2)
    residual, iso = sublagrangian_reduction(
        quadratic_to_split(big), mx.int_matrix([[1], [0], [0], [0]]))
    assert residual.psi.to_int_grid() == [[0, 1], [0, 0]]
    assert brute_isometry(split_to_quadratic(residual),
                          hyperbolic_quadratic(Z, -1, 1)) is not None
    recombined = direct_sum_split(hyperbolic_split(Z, -1, 1), residual)
    assert is_split_morphism(iso, recombined, quadratic_to_split(big))
    assert mx.is_unimodular(iso.f)


def test_reduction_peels_off_a_hyperbolic_block():
    q = direct_sum(hyperbolic_quadratic(Z, -1, 1), arf_form())
    residual, _ = sublagrangian_reduction(
        quadratic_to_split(q), mx.int_matrix([[1], [0], [0], [0]]))
    assert brute_isometry(split_to_quadratic(residual), arf_form()) is not None


def test_reduction_rejects_non_sublagrangians():
    s = quadratic_to_split(arf_form())
    with pytest.raises(DomainError):
        sublagrangian_reduction(s, mx.int_matrix([[1], [0]]))


def test_diagonal_splitting():
    for s in (hyperbolic_split(Z, 1, 1), quadratic_to_split(arf_form())):
        iso = diagonal_splitting(s)
        h = hyperbolic_split(s.ring, s.epsilon, s.rank)
        both = direct_sum_split(s, forms.negate_split(s))
        assert is_split_morphism(iso, h, both)
        assert mx.is_unimodular(iso.f)
    with pytest.raises(SingularMatrixError):
        diagonal_splitting(split_form(Z, 1, [[1]]))


def test_surgery_on_form_values():
    h = hyperbolic_quadratic(Z, -1, 1)
    assert surgery_on_form(h, [1, 0]).rank == 0

    big = hyperbolic_quadratic(Z, -1, 2)
    out = surgery_on_form(big, [1, 0, 0, 0])
    assert out.rank == 2 and forms.is_nonsingular(out)
    assert brute_isometry(out, h) is not None

    with pytest.raises(DomainError):
        surgery_on_form(arf_form(), [1, 0])
    with pytest.raises(DomainError):
        surgery_on_form(big, [2, 0, 0, 0])


def test_extension_verifies_for_transported_lagrangians():
    rng = random.Random(55)
    for _ in range(25):
        eps = rng.choice((1, -1))
        half = rng.randint(1, 2)
        p = random_unimodular(rng, Z, 2 * half)
        psi = p.star().mul(hyperbolic_split(Z, eps, half).psi).mul(p)
        s = split_form(Z, eps, psi)
        # the standard first block, carried back through the transport
        lagr = mx.inverse(p).submatrix(range(2 * half), range(half))
        inc = LagrangianInclusion(lagr)
        ext = extend_lagrangian(s, inc)
        assert is_split_morphism(ext, hyperbolic_split(Z, eps, half), s)
        assert mx.is_unimodular(ext.f)


@pytest.mark.parametrize("ring", [rings.cyclic(3), rings.cyclic(4, -1), rings.laurent()], ids=str)
@pytest.mark.parametrize("eps", [1, -1])
def test_extension_off_the_integers_takes_a_splitting_witness(ring, eps):
    rng = random.Random(56)
    for half in (1, 2):
        # L and its dual in H, carried back through the transport: P^-1 pairs them to the identity
        s, p = random_split_and_transport(rng, ring, eps, half)
        pinv, rows = mx.inverse(p), range(2 * half)
        basis = pinv.submatrix(rows, range(half))
        jprime = pinv.submatrix(rows, range(half, 2 * half))
        ext = extend_lagrangian(s, basis, jprime)
        assert is_split_morphism(ext, hyperbolic_split(ring, eps, half), s)
        assert mx.is_unimodular(ext.f)
        with pytest.raises(PreconditionError, match="^basis is not lambda-isotropic$"):
            extend_lagrangian(s, pinv.submatrix(rows, [0, half]), jprime)
        with pytest.raises(PreconditionError, match="^jprime is not a splitting"):
            extend_lagrangian(s, basis, jprime.scale_int(2))
        with pytest.raises(DomainError, match="supply a jprime witness") as exc:
            extend_lagrangian(s, basis)
        assert exc.type is DomainError


# -- laws: the witness is the constructions' only certificate ------------------

@pytest.mark.parametrize("ring", ALL_RINGS, ids=str)
@settings(max_examples=100)
@given(eps=st.sampled_from([1, -1]), half=st.integers(0, 3), seed=st.integers(0, 2**32))
def test_the_extension_is_an_isometry_from_the_hyperbolic_form(ring, eps, half, seed):
    """On a transported lagrangian, with a splitting witness and, over Z, without one:
    (i | j) starts with i and passes the isometry test, which knows nothing of chi."""
    s, basis, jprime = random_lagrangian(random.Random(seed), ring, eps, half)
    source, target = hyperbolic_quadratic(ring, eps, half), split_to_quadratic(s)
    for witness in ([None, jprime] if ring.kind == "Z" else [jprime]):
        ext = extend_lagrangian(s, basis, witness)
        assert is_isometry(ext, source, target)
        assert ext.f.submatrix(range(2 * half), range(half)) == basis


@settings(max_examples=100)
@given(st.sampled_from([1, -1]), st.integers(0, 4), st.integers(0, 4), st.integers(0, 2**32))
def test_the_reduction_recombines_to_an_isometry(eps, half, r, seed):
    """r columns of a transported lagrangian, mixed: hyperbolic(r) + residual maps onto
    the form by a unimodular f that passes the isometry test, with a residual of rank
    2(half - r)."""
    rng = random.Random(seed)
    s, basis, _ = random_lagrangian(rng, Z, eps, half)
    r = min(r, half)
    sub = basis.submatrix(range(2 * half), range(r)).mul(random_unimodular(rng, Z, r))
    residual, iso = sublagrangian_reduction(s, sub)
    source = direct_sum(hyperbolic_quadratic(Z, eps, r), split_to_quadratic(residual))
    assert residual.rank == 2 * (half - r)
    assert mx.is_unimodular(iso.f)
    assert is_isometry(iso, source, split_to_quadratic(s))
    assert iso.f.submatrix(range(2 * half), range(r)) == sub
