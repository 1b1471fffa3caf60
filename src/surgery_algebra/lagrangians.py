"""Sublagrangians, lagrangians, and the constructive splitting algorithms.

The centrepiece: a lagrangian of a nonsingular split form extends to an
isomorphism from the hyperbolic form, computed here as explicit matrices
over the integers (other rings accept witness data instead of searching).
On top of that sit sublagrangian reduction, the hyperbolic splitting of
(K,psi) + (K,-psi), and surgery on a form below an isotropic vector.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import forms, matrices, rings
from .errors import DomainError, PreconditionError, SchemaError, SingularMatrixError, SurgeryAlgebraError
from .forms import FormIsometry, QuadraticForm, SplitForm
from .matrices import FormMatrix


@dataclass(frozen=True)
class LagrangianInclusion:
    """Columns of basis include a (sub)lagrangian L into the form's module."""

    basis: FormMatrix
    theta: FormMatrix | None = None


def _as_basis(L) -> tuple[FormMatrix, FormMatrix | None]:
    if isinstance(L, LagrangianInclusion):
        return L.basis, L.theta
    return L, None


def _as_quadratic(form) -> QuadraticForm:
    if isinstance(form, SplitForm):
        return forms.split_to_quadratic(form)
    return form


def orthogonal(form, L: FormMatrix) -> FormMatrix:
    """Basis of the orthogonal sublattice ker(conj_transpose(L)·lambda)."""
    q = _as_quadratic(form)
    if not matrices.is_split_injection(L):
        raise DomainError("orthogonal complement needs a primitive independent basis")
    return matrices.kernel_basis(L.star().mul(q.lam))


def _sublagrangian_pairing(q: QuadraticForm, basis: FormMatrix, pairing=None):
    """basis*·lambda when basis is a sublagrangian of q, else None.

    Each fact is tested once: rank, split injectivity, then the one product
    basis*·lambda, which a caller that holds it already passes in.
    """
    if basis.rows != q.rank or not matrices.is_split_injection(basis):
        return None
    if pairing is None:
        pairing = basis.star().mul(q.lam)
    if not pairing.mul(basis).is_zero():
        return None
    if not all(rings.class_is_zero(m) for m in forms.mu_values(q, basis)):
        return None
    return pairing


def _is_lagrangian(q: QuadraticForm, basis: FormMatrix, pairing=None) -> bool:
    """is_lagrangian for a nonsingular q: a half-rank sublagrangian, since over Z (other
    rings are refused) L^perp = ker(basis*·lambda) is primitive of rank ell and holds L."""
    pairing = _sublagrangian_pairing(q, basis, pairing)
    return pairing is not None and 2 * basis.cols == q.rank


def is_sublagrangian(form, L) -> bool:
    """Primitive, lambda-isotropic, mu-isotropic."""
    basis, _ = _as_basis(L)
    return _sublagrangian_pairing(_as_quadratic(form), basis) is not None


def is_lagrangian(form, L) -> bool:
    """Sublagrangian whose orthogonal is itself; form must be nonsingular."""
    basis, _ = _as_basis(L)
    q = _as_quadratic(form)
    if not forms.is_nonsingular(q):
        raise DomainError("the lagrangian test needs a nonsingular form")
    return _is_lagrangian(q, basis)


def _check_theta(s: SplitForm, basis: FormMatrix, theta: FormMatrix):
    n = basis.star().mul(s.psi).mul(basis)
    cob = theta.sub(theta.star().scale_int(s.epsilon))
    if not n.sub(cob).is_zero():
        raise PreconditionError("theta is not a hessian witness: i'psi i != theta - eps*theta'")


def _extension_entry_checks(s: SplitForm, q: QuadraticForm, basis: FormMatrix, theta, jprime):
    """The input tests of ``extend_lagrangian``, in their order, each raising its own error.

    They run only once the construction or its certificate has failed, on the lambda of q
    that the construction used, so that the first input fault is the one reported.
    """
    if not matrices.is_unimodular(q.lam):
        raise SingularMatrixError("hyperbolic extension needs a nonsingular split form")
    if theta is not None:
        _check_theta(s, basis, theta)
    pairing = basis.star().mul(q.lam)
    if jprime is None:
        if s.ring.kind != "Z":
            raise DomainError("splitting not found: supply a jprime witness over this ring")
        if not _is_lagrangian(q, basis, pairing):
            raise DomainError("basis is not a lagrangian of the split form")
    else:
        if not pairing.mul(basis).is_zero():
            raise PreconditionError("basis is not lambda-isotropic")
        if not pairing.mul(jprime).sub(matrices.identity_matrix(s.ring, basis.cols)).is_zero():
            raise PreconditionError("jprime is not a splitting: i'·lambda·jprime != 1")


def extend_lagrangian(s: SplitForm, L, jprime: FormMatrix | None = None) -> FormIsometry:
    """Extend a lagrangian inclusion i to an isomorphism (i j) from the hyperbolic form.

    Over the integers the splitting j' of conj_transpose(i)·(psi+eps*psi') is
    computed deterministically; over other rings it must be supplied.  The
    correction j = j' + i·k with k = -eps·j''·psi·j' makes the second block
    isotropic for both lambda and mu.

    The result is built first and certified by the witness it returns.  A theta is
    tested in front, as nothing else implies it.  The hessian witness chi of f = (i | j)
    gives f*·psi·f = psi_H + chi - eps*chi*, so f*·lambda·f = lambda_H and mu(f e_t) =
    [psi_H,tt] = 0.  With f square, conj(det f)·det lambda·det f = det lambda_H = +-1,
    so lambda and f are invertible.  Hence i, the first half of an isometry from H,
    is split injective, lambda- and mu-isotropic and of half rank: a lagrangian; and
    i*·lambda·j' = i*·lambda·j = I, the corner of lambda_H, as i*·lambda·i = 0.  So every
    entry test holds once f passes.  When a step or the certificate fails, the entry
    tests run in their order (``_extension_entry_checks``) and the first to fail raises;
    when all pass, the step's own error is raised.
    """
    basis, theta = _as_basis(L)
    q = forms.split_to_quadratic(s)
    ell = basis.cols
    try:
        if theta is not None:
            _check_theta(s, basis, theta)
        split = jprime
        if split is None:  # solve_right refuses other rings, and the entry tests name the fault
            split = matrices.solve_right(basis.star().mul(q.lam), matrices.identity_matrix(s.ring, ell))
            if split is None:
                raise SingularMatrixError("lagrangian pairing admits no integral splitting")
        k = split.star().mul(s.psi).mul(split).scale_int(-s.epsilon)
        f = matrices.hstack(basis, split.add(basis.mul(k)))
        iso = forms.split_morphism_witness(f, forms.hyperbolic_split(s.ring, s.epsilon, ell), s)
        if 2 * ell != s.rank:
            raise SingularMatrixError("extension matrix is not invertible; inputs were inconsistent")
        return iso
    except SurgeryAlgebraError:
        _extension_entry_checks(s, q, basis, theta, jprime)
        raise


def _reduction_entry_checks(q: QuadraticForm, basis: FormMatrix):
    """The input tests of ``sublagrangian_reduction``, in their order, each raising its own
    error; run only once the construction or its certificate has failed."""
    if not forms.is_nonsingular(q):
        raise SingularMatrixError("sublagrangian reduction needs a nonsingular form")
    if _sublagrangian_pairing(q, basis) is None:
        raise DomainError("basis is not a sublagrangian")


def sublagrangian_reduction(s: SplitForm, L) -> tuple[SplitForm, FormIsometry]:
    """Split off a hyperbolic block below a sublagrangian.

    Returns the residual form on the subquotient (orthogonal of L over L) and
    an isometry from hyperbolic + residual onto s.  With j pairing to the
    identity with L, g = (basis | j) pulls psi back to phi = [[0, I], [0, J]],
    J = j'·psi·j, and lambda_phi = [[0, I], [eps*I, J + eps*J']].  Its
    lagrangian [I; 0] pairs by [0, I], with reduced solution j' = [0; I], so
    k = -eps*J and extend_lagrangian would return [[I, -eps*J], [0, I]], with no
    test that can fail on a phi built here: g times it is (basis | j - eps·basis·J).
    Nor can the rest fail on a sublagrangian: pairing maps the complement of its kernel
    onto Z^ell, and as lambda_phi is unimodular, Z^n = span g + ker(g*·lambda), so the
    square f is invertible.

    The result is built first and certified by the witness it returns.  The witness
    gives f*·lambda·f = lambda_H(r) + lambda_res and mu(f e_t) = 0 for t < 2r.  With f
    square, conj(det f)·det lambda·det f = +-det lambda_res, so one determinant of the
    (n - 2r)-square residual, 0 x 0 when r = ell, shows lambda and f invertible.  Then
    basis, the first r columns of f, is split injective, lambda- and mu-isotropic and
    of the form's rank: a sublagrangian, and every entry test holds.  When a step or the
    certificate fails, the entry tests run in their order (``_reduction_entry_checks``)
    and the first to fail raises; when both pass, the step's own error is raised.
    """
    basis, _ = _as_basis(L)
    q = forms.split_to_quadratic(s)
    try:
        pairing = basis.star().mul(q.lam)
        comp, _ = matrices.complement_of_primitive(matrices.kernel_basis(pairing))
        j = comp.mul(matrices.inverse(pairing.mul(comp)))
        jpsij = j.star().mul(s.psi).mul(j)
        perp_of_image = matrices.kernel_basis(matrices.hstack(basis, j).star().mul(q.lam))
        residual = SplitForm(s.ring, s.epsilon, perp_of_image.star().mul(s.psi).mul(perp_of_image))
        f = matrices.hstack(basis, j.sub(basis.mul(jpsij).scale_int(s.epsilon)), perp_of_image)
        source = forms.direct_sum_split(forms.hyperbolic_split(s.ring, s.epsilon, basis.cols), residual)
        iso = forms.split_morphism_witness(f, source, s)
        if f.rows != f.cols or not forms.is_nonsingular(residual):
            raise SingularMatrixError("reduction isometry is not invertible")
        return residual, iso
    except SurgeryAlgebraError:
        _reduction_entry_checks(q, basis)
        raise


def diagonal_splitting(s: SplitForm) -> FormIsometry:
    """The explicit isomorphism from the hyperbolic form onto (K,psi) + (K,-psi)."""
    lam = s.bilinear()
    laminv = matrices.try_inverse(lam)
    if laminv is None:
        raise SingularMatrixError("psi + eps*psi' must be invertible for the diagonal splitting")
    k = s.rank
    tilde = laminv.mul(s.psi).mul(laminv)
    ident = matrices.identity_matrix(s.ring, k)
    f = matrices.block_matrix(
        [
            [ident, tilde.star().scale_int(s.epsilon)],
            [ident, tilde.neg()],
        ]
    )
    target = forms.direct_sum_split(s, forms.negate_split(s))
    return forms.split_morphism_witness(f, forms.hyperbolic_split(s.ring, s.epsilon, k), target)


def surgery_on_form(form: QuadraticForm, x) -> QuadraticForm:
    """Kill a primitive mu-isotropic vector: the induced form on its orthogonal over it."""
    if not isinstance(x, FormMatrix):
        x = matrices.matrix(form.ring, [[c] for c in x])
    if x.cols != 1 or x.rows != form.rank:
        raise SchemaError("expected a single column of matching rank")
    if not forms.is_nonsingular(form):
        raise SingularMatrixError("surgery on a form needs a nonsingular input")
    if not matrices.is_split_injection(x):
        raise DomainError("vector is not primitive and cannot be killed")
    if not rings.class_is_zero(forms.mu_value(form, x)):
        raise DomainError("vector has nonzero self-intersection class mu(x)")
    perp = matrices.kernel_basis(x.star().mul(form.lam))  # orthogonal(form, x); x is primitive
    coords = matrices.solve_right(perp, x)
    if coords is None:
        raise DomainError("vector does not lie in its own orthogonal")
    w = matrices.completion_of_primitive_vector(coords)
    quotient = perp.mul(w).submatrix(range(perp.rows), range(1, w.cols))
    lam = quotient.star().mul(form.lam).mul(quotient)
    return QuadraticForm(form.ring, form.epsilon, lam, forms.mu_values(form, quotient))
