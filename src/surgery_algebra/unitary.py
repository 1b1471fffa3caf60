"""Automorphisms of the hyperbolic eps-quadratic form, in four blocks.

An automorphism of H_eps(Lambda^k) is stored as k x k blocks
[[alpha, beta], [gamma, delta]] acting on columns of Lambda^k plus its
dual.  Membership is decided block-wise: alpha'delta + eps*gamma'beta
must be the identity, and the pullback matrices alpha'gamma and
beta'delta must vanish as eps-quadratic forms, i.e. be hessian
differences chi - eps*chi'.  Membership already forces invertibility;
the inverse is the explicit matrix [[delta', eps*beta'], [eps*gamma',
alpha']], conjugate of the adjoint by the hyperbolic pairing.
The generators are closed forms; the upper elementary [[1, n], [0, 1]] is
the flip-conjugate sigma·[[1, 0], [eps*n, 1]]·sigma^-1 of a lower one.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import forms, matrices, rings
from .errors import DomainError, SchemaError, WrongRingError
from .matrices import FormMatrix
from .rings import RingSpec


@dataclass(frozen=True)
class UnitaryAutomorphism:
    ring: RingSpec
    epsilon: int
    alpha: FormMatrix
    beta: FormMatrix
    gamma: FormMatrix
    delta: FormMatrix

    def __post_init__(self):
        rings._check_epsilon(self.epsilon)
        k = self.alpha.rows
        for name in ("alpha", "beta", "gamma", "delta"):
            b = getattr(self, name)
            if b.rows != k or b.cols != k:
                raise SchemaError(f"block {name} must be {k}x{k}")
            if b.ring != self.ring:
                raise WrongRingError(f"block {name} lives over the wrong ring")

    @property
    def k(self) -> int:
        return self.alpha.rows

    def matrix(self) -> FormMatrix:
        return matrices.block_matrix([[self.alpha, self.beta], [self.gamma, self.delta]])


def unitary_from_matrix(ring: RingSpec, epsilon: int, m: FormMatrix) -> UnitaryAutomorphism:
    if m.rows != m.cols or m.rows % 2 != 0:
        raise SchemaError("a block automorphism matrix must be square of even size")
    k = m.rows // 2
    lo, hi = list(range(k)), list(range(k, 2 * k))
    return UnitaryAutomorphism(
        ring, epsilon,
        m.submatrix(lo, lo), m.submatrix(lo, hi),
        m.submatrix(hi, lo), m.submatrix(hi, hi),
    )


def unitary_membership(u: UnitaryAutomorphism) -> bool:
    ident = matrices.identity_matrix(u.ring, u.k)
    pairing = u.alpha.star().mul(u.delta).add(u.gamma.star().mul(u.beta).scale_int(u.epsilon))
    if not pairing.sub(ident).is_zero():
        return False
    if forms.split_hessian_witness(u.alpha.star().mul(u.gamma), u.epsilon) is None:
        return False
    return forms.split_hessian_witness(u.beta.star().mul(u.delta), u.epsilon) is not None


def _require_member(u: UnitaryAutomorphism, what: str) -> UnitaryAutomorphism:
    if not unitary_membership(u):
        raise DomainError(f"{what} is not an automorphism of the hyperbolic form")
    return u


def identity_unitary(ring: RingSpec, epsilon: int, k: int) -> UnitaryAutomorphism:
    i = matrices.identity_matrix(ring, k)
    z = matrices.zero_matrix(ring, k, k)
    return UnitaryAutomorphism(ring, epsilon, i, z, z, i)


def sigma_eps(ring: RingSpec, epsilon: int, k: int = 1) -> UnitaryAutomorphism:
    """The flip [[0, 1], [eps, 0]], stabilised to rank k."""
    i = matrices.identity_matrix(ring, k)
    z = matrices.zero_matrix(ring, k, k)
    return UnitaryAutomorphism(ring, epsilon, z, i, i.scale_int(epsilon), z)


def elementary_diag(beta: FormMatrix, epsilon: int) -> UnitaryAutomorphism:
    """[[beta, 0], [0, conj_transpose(beta)^-1]] for invertible beta."""
    inv_star = matrices.inverse(beta.star())
    z = matrices.zero_matrix(beta.ring, beta.rows, beta.rows)
    return UnitaryAutomorphism(beta.ring, epsilon, beta, z, z, inv_star)


def _check_corner(n: FormMatrix, epsilon: int):
    """The one test of both elementary generators: n is a hessian difference theta - eps*theta'."""
    if forms.split_hessian_witness(n, epsilon) is None:
        raise DomainError("corner matrix is not of the form theta - eps*conj_transpose(theta)")


def elementary_lower(n: FormMatrix, epsilon: int) -> UnitaryAutomorphism:
    """[[1, 0], [n, 1]]; the corner must be a hessian difference theta - eps*theta'."""
    _check_corner(n, epsilon)
    i = matrices.identity_matrix(n.ring, n.rows)
    z = matrices.zero_matrix(n.ring, n.rows, n.rows)
    return UnitaryAutomorphism(n.ring, epsilon, i, z, n, i)


def compose(outer: UnitaryAutomorphism, inner: UnitaryAutomorphism) -> UnitaryAutomorphism:
    """Matrix product outer·inner: inner acts first."""
    if outer.ring != inner.ring or outer.epsilon != inner.epsilon or outer.k != inner.k:
        raise SchemaError("composition needs matching ring, epsilon, and rank")
    a = outer.alpha.mul(inner.alpha).add(outer.beta.mul(inner.gamma))
    b = outer.alpha.mul(inner.beta).add(outer.beta.mul(inner.delta))
    c = outer.gamma.mul(inner.alpha).add(outer.delta.mul(inner.gamma))
    d = outer.gamma.mul(inner.beta).add(outer.delta.mul(inner.delta))
    return UnitaryAutomorphism(outer.ring, outer.epsilon, a, b, c, d)


def inverse(u: UnitaryAutomorphism) -> UnitaryAutomorphism:
    """[[delta', eps*beta'], [eps*gamma', alpha']]; exact for members."""
    _require_member(u, "the matrix to invert")
    e = u.epsilon
    return UnitaryAutomorphism(
        u.ring, e,
        u.delta.star(), u.beta.star().scale_int(e),
        u.gamma.star().scale_int(e), u.alpha.star(),
    )


def elementary_upper(n: FormMatrix, epsilon: int) -> UnitaryAutomorphism:
    """[[1, n], [0, 1]] in closed form; the corner must again be a hessian difference."""
    _check_corner(n, epsilon)
    i = matrices.identity_matrix(n.ring, n.rows)
    return UnitaryAutomorphism(n.ring, epsilon, i, n, matrices.zero_matrix(n.ring, n.rows, n.rows), i)
