"""The standard hyperbolic objects in closed form, against frozen copies of the
general constructions they replaced, and the orthogonal test of a lagrangian."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from surgery_algebra import forms, formations, lagrangians, matrices as mx, rings, unitary
from surgery_algebra.errors import DomainError, SingularMatrixError, SurgeryAlgebraError
from surgery_algebra.forms import SplitForm
from surgery_algebra.generators import hessian_corner, matrix as random_matrix

from conftest import random_split_and_transport, random_unimodular

Z = rings.integers()
ALL_RINGS = [Z, rings.cyclic(3), rings.cyclic(4, -1), rings.laurent()]
EPS = st.sampled_from([1, -1])
seeds = st.integers(0, 2**32)


# -- frozen copies of the block-built constructions ---------------------------

def frozen_hyperbolic_quadratic(ring, epsilon, k):
    i = mx.identity_matrix(ring, k)
    z = mx.zero_matrix(ring, k, k)
    lam = mx.block_matrix([[z, i], [i.scale_int(epsilon), z]])
    zero_class = rings.q_eps_reduce(rings.zero(ring), epsilon)
    return forms.QuadraticForm(ring, epsilon, lam, tuple(zero_class for _ in range(2 * k)))


def frozen_hyperbolic_split(ring, epsilon, k):
    i = mx.identity_matrix(ring, k)
    z = mx.zero_matrix(ring, k, k)
    return SplitForm(ring, epsilon, mx.block_matrix([[z, i], [z, z]]))


def frozen_standard_f(ring, k):
    return mx.vstack(mx.identity_matrix(ring, k), mx.zero_matrix(ring, k, k))


def frozen_standard_dual(ring, k):
    return mx.vstack(mx.zero_matrix(ring, k, k), mx.identity_matrix(ring, k))


def frozen_elementary_upper(n, epsilon):
    """sigma·[[1, 0], [eps*n, 1]]·sigma^-1, composed block by block."""
    if forms.split_hessian_witness(n, epsilon) is None:
        raise DomainError("corner matrix is not of the form theta - eps*conj_transpose(theta)")
    sig = unitary.sigma_eps(n.ring, epsilon, n.rows)
    lower = unitary.elementary_lower(n.scale_int(epsilon), epsilon)
    return unitary.compose(unitary.compose(sig, lower), unitary.inverse(sig))


def frozen_sublagrangian_reduction(s, L):
    """The reduction that extended the standard lagrangian of phi = [[0, I], [0, J]]."""
    basis, _ = lagrangians._as_basis(L)
    q = forms.split_to_quadratic(s)
    if not forms.is_nonsingular(q):
        raise SingularMatrixError("sublagrangian reduction needs a nonsingular form")
    pairing = lagrangians._sublagrangian_pairing(q, basis)
    if pairing is None:
        raise DomainError("basis is not a sublagrangian")
    ell = basis.cols
    comp, _ = mx.complement_of_primitive(mx.kernel_basis(pairing))
    einv = mx.try_inverse(pairing.mul(comp))
    if einv is None:
        raise SingularMatrixError("orthogonal complement does not pair invertibly with L")
    j = comp.mul(einv)
    zero = mx.zero_matrix(s.ring, ell, ell)
    ident = mx.identity_matrix(s.ring, ell)
    phi = mx.block_matrix([[zero, ident], [zero, j.star().mul(s.psi).mul(j)]])
    g = mx.hstack(basis, j)
    inner = lagrangians.extend_lagrangian(SplitForm(s.ring, s.epsilon, phi), mx.vstack(ident, zero))
    perp_of_image = mx.kernel_basis(g.star().mul(q.lam))
    residual = SplitForm(s.ring, s.epsilon, perp_of_image.star().mul(s.psi).mul(perp_of_image))
    f = mx.hstack(g.mul(inner.f), perp_of_image)
    source = forms.direct_sum_split(frozen_hyperbolic_split(s.ring, s.epsilon, ell), residual)
    iso = forms.split_morphism_witness(f, source, s)
    if not mx.is_unimodular(f):
        raise SingularMatrixError("reduction isometry is not invertible")
    return residual, iso


def outcome(fn, *args):
    """fn(*args), or the type and message of the library error it raises."""
    try:
        return fn(*args)
    except SurgeryAlgebraError as e:
        return type(e), str(e)


# -- the hyperbolic forms and the standard lagrangians ------------------------

@pytest.mark.parametrize("ring", ALL_RINGS, ids=str)
@pytest.mark.parametrize("eps", [1, -1])
def test_hyperbolic_forms_and_standard_lagrangians_match_the_block_builds(ring, eps):
    for k in range(7):
        q = forms.hyperbolic_quadratic(ring, eps, k)
        assert q == frozen_hyperbolic_quadratic(ring, eps, k)
        assert q.lam.entries == frozen_hyperbolic_quadratic(ring, eps, k).lam.entries
        s = forms.hyperbolic_split(ring, eps, k)
        assert s == frozen_hyperbolic_split(ring, eps, k)
        assert forms.split_to_quadratic(s) == q
        assert formations._standard_f(ring, k) == frozen_standard_f(ring, k)
        assert formations._standard_dual(ring, k) == frozen_standard_dual(ring, k)
        assert formations.trivial_formation(ring, eps, k).g == frozen_standard_dual(ring, k)


# -- the upper elementary generator -------------------------------------------

@given(st.sampled_from(ALL_RINGS), EPS, st.integers(0, 6), st.booleans(), seeds)
def test_upper_generator_matches_the_flip_conjugate(ring, eps, k, corner, seed):
    rng = random.Random(seed)
    # a hessian difference, or a corner that fails: odd, non-square or of the wrong symmetry
    n = hessian_corner(rng, ring, k, eps) if corner else random_matrix(rng, ring, k, rng.choice((k, k + 1)))
    got, want = outcome(unitary.elementary_upper, n, eps), outcome(frozen_elementary_upper, n, eps)
    if isinstance(want, tuple):
        assert got == want
    else:
        assert got.matrix() == want.matrix() and got.beta == n
        assert (got.alpha, got.beta, got.gamma, got.delta) == (want.alpha, want.beta, want.gamma, want.delta)


# -- the inner extension of sublagrangian reduction ---------------------------

@settings(max_examples=80)
@given(EPS, st.integers(0, 3), st.integers(0, 3), st.sampled_from(["sub", "random", "twice"]), seeds)
def test_reduction_matches_the_inner_extension(eps, half, ell, kind, seed):
    rng = random.Random(seed)
    s, p = random_split_and_transport(rng, Z, eps, half)
    ell = min(ell, half)
    pinv = mx.inverse(p)
    if kind == "sub":  # a sublagrangian: ell columns of L, mixed by a unimodular ell x ell
        basis = pinv.submatrix(range(2 * half), range(ell)).mul(random_unimodular(rng, Z, ell))
    elif kind == "twice":  # primitive, but pairs nontrivially with itself when half > 0
        basis = pinv.submatrix(range(2 * half), [0, half] if half else [])
    else:
        basis = random_matrix(rng, Z, 2 * half, ell)
    got = outcome(lagrangians.sublagrangian_reduction, s, basis)
    want = outcome(frozen_sublagrangian_reduction, s, basis)
    if isinstance(want, tuple):
        assert got == want
    else:
        (residual, iso), (want_residual, want_iso) = got, want
        assert residual == want_residual
        assert iso.f == want_iso.f and iso.chi == want_iso.chi


@pytest.mark.parametrize("ring", ALL_RINGS[1:], ids=str)
@pytest.mark.parametrize("eps", [1, -1])
def test_reduction_refuses_the_group_rings_as_before(ring, eps):
    rng = random.Random(17)
    for half in range(3):
        s, p = random_split_and_transport(rng, ring, eps, half)
        basis = mx.inverse(p).submatrix(range(2 * half), range(half))
        got = outcome(lagrangians.sublagrangian_reduction, s, basis)
        assert isinstance(got, tuple)
        assert got == outcome(frozen_sublagrangian_reduction, s, basis)


# -- the orthogonal test of _is_lagrangian ------------------------------------

@given(EPS, st.integers(1, 4), seeds)
def test_an_isotropic_half_rank_basis_spans_its_orthogonal(eps, half, seed):
    """Over Z, with lambda nonsingular, a split-injective, lambda- and mu-isotropic
    basis of half rank spans its own orthogonal; a proper sublagrangian lies
    strictly inside it, by rank count."""
    rng = random.Random(seed)
    s, p = random_split_and_transport(rng, Z, eps, half)
    q = forms.split_to_quadratic(s)
    pinv = mx.inverse(p)
    # one of e_i, f_i for each i (a lagrangian of H), or any half of the columns
    cols = [i + half * rng.randrange(2) for i in range(half)]
    if rng.random() < 0.5:
        cols = sorted(rng.sample(range(2 * half), half))
    ell = rng.randint(1, half)
    for basis in (pinv.submatrix(range(2 * half), cols).mul(random_unimodular(rng, Z, half)),
                  pinv.submatrix(range(2 * half), cols[:ell])):
        pairing = lagrangians._sublagrangian_pairing(q, basis)
        if pairing is None:
            continue
        perp = mx.kernel_basis(pairing)
        assert perp.cols == 2 * half - basis.cols
        assert mx.solve_right(perp, basis) is not None
        assert mx.same_span(perp, basis) == (2 * basis.cols == q.rank)
        assert lagrangians.is_lagrangian(s, basis) == (2 * basis.cols == q.rank)
