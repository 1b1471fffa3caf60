"""The lagrangian constructions certified by the witness they return, against verbatim
copies of the versions that tested their inputs first, on valid and invalid inputs
over every ring, rank 0 included."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from surgery_algebra import _intlat, forms, lagrangians, matrices as mx
from surgery_algebra.errors import DomainError, PreconditionError, SingularMatrixError
from surgery_algebra.forms import SplitForm
from surgery_algebra.generators import matrix as random_matrix
from surgery_algebra.lagrangians import LagrangianInclusion

from conftest import random_lagrangian, random_unimodular, transported_lagrangian
from test_checked_once import count_calls
from test_closed_forms import ALL_RINGS, outcome

Z = ALL_RINGS[0]
EPS = st.sampled_from([1, -1])
seeds = st.integers(0, 2**32)


# -- frozen copies of the constructions that tested their inputs first ---------

def frozen_checked_extension(s, L, jprime=None):
    basis, theta = lagrangians._as_basis(L)
    q = forms.split_to_quadratic(s)
    if not mx.is_unimodular(q.lam):
        raise SingularMatrixError("hyperbolic extension needs a nonsingular split form")
    if theta is not None:
        lagrangians._check_theta(s, basis, theta)
    ell = basis.cols
    ident = mx.identity_matrix(s.ring, ell)
    pairing = basis.star().mul(q.lam)
    if jprime is None:
        if s.ring.kind != "Z":
            raise DomainError(
                "splitting not found: supply a jprime witness over this ring"
            )
        if not lagrangians._is_lagrangian(q, basis, pairing):
            raise DomainError("basis is not a lagrangian of the split form")
        jprime = mx.solve_right(pairing, ident)
        if jprime is None:
            raise SingularMatrixError("lagrangian pairing admits no integral splitting")
    else:
        if not pairing.mul(basis).is_zero():
            raise PreconditionError("basis is not lambda-isotropic")
        if not pairing.mul(jprime).sub(ident).is_zero():
            raise PreconditionError("jprime is not a splitting: i'·lambda·jprime != 1")
    k = jprime.star().mul(s.psi).mul(jprime).scale_int(-s.epsilon)
    j = jprime.add(basis.mul(k))
    f = mx.hstack(basis, j)
    iso = forms.split_morphism_witness(f, forms.hyperbolic_split(s.ring, s.epsilon, ell), s)
    if 2 * ell != s.rank:
        raise SingularMatrixError("extension matrix is not invertible; inputs were inconsistent")
    return iso


def frozen_checked_reduction(s, L):
    basis, _ = lagrangians._as_basis(L)
    q = forms.split_to_quadratic(s)
    if not forms.is_nonsingular(q):
        raise SingularMatrixError("sublagrangian reduction needs a nonsingular form")
    pairing = lagrangians._sublagrangian_pairing(q, basis)
    if pairing is None:
        raise DomainError("basis is not a sublagrangian")
    comp, _ = mx.complement_of_primitive(mx.kernel_basis(pairing))
    j = comp.mul(mx.inverse(pairing.mul(comp)))
    jpsij = j.star().mul(s.psi).mul(j)
    perp_of_image = mx.kernel_basis(mx.hstack(basis, j).star().mul(q.lam))
    residual = SplitForm(s.ring, s.epsilon, perp_of_image.star().mul(s.psi).mul(perp_of_image))
    f = mx.hstack(basis, j.sub(basis.mul(jpsij).scale_int(s.epsilon)), perp_of_image)
    source = forms.direct_sum_split(forms.hyperbolic_split(s.ring, s.epsilon, basis.cols), residual)
    return residual, forms.split_morphism_witness(f, source, s)


# -- inputs -----------------------------------------------------------------------

def split_forms(rng, s):
    """s, s with psi doubled (singular once the rank is positive), and a random form of
    one rank more, which no basis of s fits."""
    n = s.rank
    return [s, SplitForm(s.ring, s.epsilon, s.psi.scale_int(2)),
            SplitForm(s.ring, s.epsilon, random_matrix(rng, s.ring, n + 1, n + 1, -1, 1))]


def lagrangian_bases(rng, s, basis, jprime):
    """The lagrangian; not primitive; a column swapped for one of jprime, which pairs
    with it; a random draw; a proper sublagrangian; one column past half rank; a wrong
    row count (a 1 x 0 basis at rank 0); and the lagrangian with a hessian theta that
    holds and with a random one."""
    ring, n, half = s.ring, s.rank, basis.cols
    rows = range(n)
    swapped = mx.hstack(basis.submatrix(rows, range(half - 1)), jprime.submatrix(rows, range(1))) \
        if half else basis
    theta = forms.split_hessian_witness(basis.star().mul(s.psi).mul(basis), s.epsilon)
    return [basis, basis.scale_int(2), swapped, random_matrix(rng, ring, n, half, -1, 1),
            basis.submatrix(rows, range(max(half - 1, 0))), random_matrix(rng, ring, n, half + 1, -1, 1),
            random_matrix(rng, ring, n + 1, half, -1, 1), LagrangianInclusion(basis, theta),
            LagrangianInclusion(basis, random_matrix(rng, ring, half, half, -1, 1))]


def splittings(rng, s, jprime):
    """None; a splitting; twice it; a random draw; a wrong row count; a wrong column count."""
    n, half = s.rank, jprime.cols
    return [None, jprime, jprime.scale_int(2), random_matrix(rng, s.ring, n, half, -1, 1),
            random_matrix(rng, s.ring, n + 1, half, -1, 1), random_matrix(rng, s.ring, n, half + 1, -1, 1)]


def same(got, want):
    if isinstance(want, tuple) and not isinstance(want[1], forms.FormIsometry):
        return got == want
    if isinstance(want, forms.FormIsometry):
        return isinstance(got, forms.FormIsometry) and (got.f, got.chi) == (want.f, want.chi)
    (residual, iso), (want_residual, want_iso) = got, want
    return residual == want_residual and (iso.f, iso.chi) == (want_iso.f, want_iso.chi)


# -- the extension ------------------------------------------------------------------

def split_pairs(s, lag, dual):
    """(basis, jprime) on s that pass both splitting tests: the first r < half columns of
    L and D, which fill no square f; and L with e_0 moved to e_0 + f_0, split by D,
    lambda-isotropic with mu(e_0 + f_0) = 1 when eps = -1, so that only the witness fails."""
    half, rows = lag.cols, range(lag.rows)
    pairs = [(lag.submatrix(rows, range(r)), dual.submatrix(rows, range(r))) for r in range(half)]
    if half:
        corner = mx.matrix(s.ring, [[int(i == j == 0) for j in range(half)] for i in range(half)])
        pairs.append((lag.add(dual.mul(corner)), dual))
    return pairs


@pytest.mark.parametrize("ring", ALL_RINGS, ids=str)
@settings(max_examples=30)
@given(eps=EPS, half=st.integers(0, 2), seed=seeds)
def test_the_certified_extension_matches_the_checked_one(ring, eps, half, seed):
    rng = random.Random(seed)
    s, basis, jprime = random_lagrangian(rng, ring, eps, half)
    for form in split_forms(rng, s):
        for inc in lagrangian_bases(rng, s, basis, jprime):
            for witness in splittings(rng, s, jprime):
                got = outcome(lagrangians.extend_lagrangian, form, inc, witness)
                assert same(got, outcome(frozen_checked_extension, form, inc, witness))
    s, lag, dual = transported_lagrangian(rng, ring, eps, half)
    for form in split_forms(rng, s):
        for inc, witness in split_pairs(s, lag, dual):
            for w in (witness, None):
                assert same(outcome(lagrangians.extend_lagrangian, form, inc, w),
                            outcome(frozen_checked_extension, form, inc, w))


def test_a_basis_with_a_row_too_many_on_the_rank_zero_form_fails_at_the_pairing():
    s = forms.hyperbolic_split(Z, 1, 0)
    for witness in (None, mx.zero_matrix(Z, 1, 0)):
        got = outcome(lagrangians.extend_lagrangian, s, mx.zero_matrix(Z, 1, 0), witness)
        assert got == outcome(frozen_checked_extension, s, mx.zero_matrix(Z, 1, 0), witness)
    assert got[1] == "shape mismatch: 0x1 times 0x0"


# -- the reduction ------------------------------------------------------------------

def sublagrangian_bases(rng, s, basis, jprime):
    """Every count r of columns of the lagrangian, mixed (r = 0 and the whole lagrangian
    among them); not primitive; pairing with itself; a random draw; a wrong row count."""
    ring, n, half = s.ring, s.rank, basis.cols
    rows = range(n)
    subs = [basis.submatrix(rows, range(r)).mul(random_unimodular(rng, ring, r)) for r in range(half + 1)]
    paired = mx.hstack(basis.submatrix(rows, range(1)), jprime.submatrix(rows, range(1)))
    return subs + [basis.scale_int(2), paired, random_matrix(rng, ring, n, rng.randint(0, half), -1, 1),
                   random_matrix(rng, ring, n + 1, half, -1, 1)]


@pytest.mark.parametrize("ring", ALL_RINGS, ids=str)
@settings(max_examples=40)
@given(eps=EPS, half=st.integers(0, 3), seed=seeds)
def test_the_certified_reduction_matches_the_checked_one(ring, eps, half, seed):
    rng = random.Random(seed)
    s, basis, jprime = random_lagrangian(rng, ring, eps, half)
    for form in split_forms(rng, s):
        for sub in sublagrangian_bases(rng, s, basis, jprime):
            got = outcome(lagrangians.sublagrangian_reduction, form, sub)
            assert same(got, outcome(frozen_checked_reduction, form, sub))


# -- the work each one does -----------------------------------------------------------

def record_sizes(monkeypatch, name):
    sizes, real = [], getattr(_intlat, name)
    monkeypatch.setattr(_intlat, name, lambda a, *rest, **kw: sizes.append(len(a)) or real(a, *rest, **kw))
    return sizes


def test_a_valid_reduction_runs_no_entry_check_and_one_determinant_of_the_residual(monkeypatch):
    """The r x r inverse of the construction and the (n - 2r)-square residual's determinant:
    no n-square determinant of lambda, no split-injectivity test."""
    rng = random.Random(24)
    s, basis, _ = random_lagrangian(rng, Z, 1, 4)
    checks = count_calls(monkeypatch, lagrangians, "_reduction_entry_checks")
    eliminations = record_sizes(monkeypatch, "bareiss")
    for r in range(5):
        eliminations.clear()
        residual, _ = lagrangians.sublagrangian_reduction(s, basis.submatrix(range(8), range(r)))
        assert eliminations == [r] * (r > 0) + [8 - 2 * r] and residual.rank == 8 - 2 * r
    assert checks == []


def test_an_invalid_reduction_reports_the_first_failing_entry_check(monkeypatch):
    rng = random.Random(25)
    s, basis, jprime = random_lagrangian(rng, Z, -1, 3)
    checks = count_calls(monkeypatch, lagrangians, "_reduction_entry_checks")
    with pytest.raises(DomainError, match="^basis is not a sublagrangian$"):
        lagrangians.sublagrangian_reduction(s, mx.hstack(basis.submatrix(range(6), range(1)),
                                                         jprime.submatrix(range(6), range(1))))
    singular = SplitForm(Z, -1, s.psi.scale_int(2))
    with pytest.raises(SingularMatrixError, match="^sublagrangian reduction needs a nonsingular form$"):
        lagrangians.sublagrangian_reduction(singular, basis.scale_int(2))
    assert len(checks) == 2
