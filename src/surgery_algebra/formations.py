"""Formations: a nonsingular quadratic form with an ordered pair of lagrangians.

This is the form-and-lagrangian presentation of the two-term complexes in
complexes.py; the two sides translate into each other losslessly and the
odd-dimensional obstruction theory is usually easier to state here.  The
boundary of a (-eps)-quadratic form, the graph lagrangian, triviality and
boundary detection by complementary-lagrangian witnesses, and the formation
attached to a hyperbolic automorphism all follow the classical recipes,
with every isomorphism returned as an explicit matrix.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import complexes, forms, lagrangians, matrices, rings, unitary
from .errors import DomainError, PreconditionError, SchemaError, WrongRingError
from .forms import FormIsometry, QuadraticForm
from .matrices import FormMatrix
from .rings import AbelianGroup, RingSpec


@dataclass(frozen=True)
class Formation:
    """(Q, phi; F, G): columns of f and g are bases of the two lagrangians."""

    ring: RingSpec
    epsilon: int
    q: QuadraticForm
    f: FormMatrix
    g: FormMatrix

    def __post_init__(self):
        if self.q.ring != self.ring or self.q.epsilon != self.epsilon:
            raise WrongRingError("form does not match the formation's ring and epsilon")
        for m in (self.f, self.g):
            if m.ring != self.ring:
                raise WrongRingError("lagrangian basis over the wrong ring")
            if m.rows != self.q.rank:
                raise SchemaError("lagrangian basis does not live in the form's module")

    @property
    def rank(self) -> int:
        return self.q.rank


def formation(ring: RingSpec, epsilon: int, q: QuadraticForm, f, g) -> Formation:
    return Formation(ring, epsilon, q, matrices.matrix(ring, f), matrices.matrix(ring, g))


def formation_violations(phi: Formation) -> tuple[str, ...]:
    out = []
    if not forms.is_nonsingular(phi.q):
        out.append("underlying form is singular")
        return tuple(out)
    if not lagrangians._is_lagrangian(phi.q, phi.f):
        out.append("F is not a lagrangian")
    if not lagrangians._is_lagrangian(phi.q, phi.g):
        out.append("G is not a lagrangian")
    return tuple(out)


def validate_formation(phi: Formation) -> bool:
    return not formation_violations(phi)


def _validated(phi: Formation) -> Formation:
    bad = formation_violations(phi)
    if bad:
        raise DomainError("; ".join(bad))
    return phi


def _standard_f(ring: RingSpec, k: int) -> FormMatrix:  # L and L* in H(L): columns of I_2k
    return matrices.vstack(matrices.identity_matrix(ring, k), matrices.zero_matrix(ring, k, k))


def _standard_dual(ring: RingSpec, k: int) -> FormMatrix:
    return matrices.vstack(matrices.zero_matrix(ring, k, k), matrices.identity_matrix(ring, k))


def trivial_formation(ring: RingSpec, epsilon: int, k: int) -> Formation:
    """(H_eps(L); L, L*) on L of rank k."""
    q = forms.hyperbolic_quadratic(ring, epsilon, k)
    return Formation(ring, epsilon, q, _standard_f(ring, k), _standard_dual(ring, k))


def boundary_formation(k: QuadraticForm) -> Formation:
    """The boundary of a (-eps)-form: (H_eps(K); K, graph of lambda).

    A (-eps)-form of rank k gives an eps-formation of rank 2k.  The input
    may be singular; its graph is a lagrangian regardless.
    """
    eps = -k.epsilon
    q = forms.hyperbolic_quadratic(k.ring, eps, k.rank)
    graph = matrices.vstack(matrices.identity_matrix(k.ring, k.rank), k.lam)
    return Formation(k.ring, eps, q, _standard_f(k.ring, k.rank), graph)


def direct_sum_formation(a: Formation, b: Formation) -> Formation:
    if a.ring != b.ring or a.epsilon != b.epsilon:
        raise WrongRingError("formation sum needs one ring and one epsilon")
    ka = a.rank // 2
    kb = b.rank // 2
    # interleave so the result is again based on the standard hyperbolic
    def stack(ma, mb):
        ca, cb = range(ma.cols), range(mb.cols)
        top = matrices.block_diagonal(ma.submatrix(range(ka), ca), mb.submatrix(range(kb), cb))
        bottom = matrices.block_diagonal(ma.submatrix(range(ka, 2 * ka), ca), mb.submatrix(range(kb, 2 * kb), cb))
        return matrices.vstack(top, bottom)

    if a.rank == 2 * ka and b.rank == 2 * kb and _is_standard_hyperbolic(a.q) and _is_standard_hyperbolic(b.q):
        q = forms.hyperbolic_quadratic(a.ring, a.epsilon, ka + kb)
        return Formation(a.ring, a.epsilon, q, stack(a.f, b.f), stack(a.g, b.g))
    q = forms.direct_sum(a.q, b.q)
    return Formation(a.ring, a.epsilon, q, matrices.block_diagonal(a.f, b.f), matrices.block_diagonal(a.g, b.g))


def negate_formation(phi: Formation) -> Formation:
    """(Q, -phi; F, G): the additive inverse in the cobordism group.

    eps is kept, since -lambda is again eps-symmetric.  The result lives on
    -Q rather than on the standard hyperbolic form, so formation_to_complex
    needs normalize_formation first.
    """
    return Formation(phi.ring, phi.epsilon, forms.negate(phi.q), phi.f, phi.g)


def _is_standard_hyperbolic(q: QuadraticForm) -> bool:
    k = q.rank // 2
    if q.rank != 2 * k or q.lam != forms.hyperbolic_quadratic(q.ring, q.epsilon, k).lam:
        return False
    return all(rings.class_is_zero(m) for m in q.mu)


def formation_homology(phi: Formation) -> tuple[AbelianGroup, int]:
    """(Q/(F+G) as an abelian group, rank of F cap G)."""
    if phi.ring.kind != "Z":
        raise WrongRingError("formation homology is computed over the integers")
    coker, rank = matrices.cokernel(matrices.hstack(phi.f, phi.g))
    return coker, phi.f.cols + phi.g.cols - rank


def complex_to_formation(c: complexes.OddComplex) -> Formation:
    """(H_eps(C_{n+1}); C_{n+1}, im(psi0; d*)) for a valid complex, whose conditions make G a
    lagrangian: pi·incl = 0 is lambda-isotropy, the chain condition mu-isotropy, the rest half rank."""
    bad = complexes.complex_violations(c)
    if bad:
        raise DomainError("complex is invalid: " + "; ".join(bad))
    k = c.rank_top
    q = forms.hyperbolic_quadratic(c.ring, c.epsilon, k)
    return Formation(c.ring, c.epsilon, q, _standard_f(c.ring, k), complexes.duality_inclusion(c))


def formation_to_complex(phi: Formation) -> complexes.OddComplex:
    """Read (d, psi0, psi1) = (mu*, gamma, eps*theta) off the second lagrangian.

    Requires the standard hyperbolic presentation with F the first summand;
    normalize_formation produces one.  theta is the canonical split lift of
    gamma*·mu, strict upper triangle plus diagonal representatives.
    """
    if not _is_standard_hyperbolic(phi.q):
        raise PreconditionError(
            "formation_to_complex needs the standard hyperbolic form; normalize first"
        )
    k = phi.q.rank // 2
    if not matrices.same_span(phi.f, _standard_f(phi.ring, k)):
        raise PreconditionError(
            "first lagrangian must be the standard summand; normalize first"
        )
    gamma = phi.g.submatrix(range(k), range(phi.g.cols))
    mu = phi.g.submatrix(range(k, 2 * k), range(phi.g.cols))
    theta = forms.split_hessian_witness(gamma.star().mul(mu), phi.epsilon)
    if theta is None:
        raise DomainError(
            "gamma*·mu admits no split lift; G is not a lagrangian of the quadratic form"
        )
    parity = 0 if phi.epsilon == 1 else 1
    c = complexes.OddComplex(phi.ring, parity, mu.star(), gamma, theta.scale_int(phi.epsilon))
    bad = complexes.complex_violations(c)
    if bad:
        raise DomainError("formation data is not lagrangian: " + "; ".join(bad))
    return c


def _inverse_from_hyperbolic(t: FormMatrix, q: QuadraticForm) -> FormMatrix:
    """T^-1 = lambda_H^-1·T*·lambda for an isometry T from H_eps(k) onto (Q, lambda):
    lambda_H^-1 = [[0, eps*I], [I, 0]] swaps the block rows of T*·lambda, scaling the new top by eps."""
    t_lam = t.star().mul(q.lam)
    k, cols = t.cols // 2, range(t_lam.cols)
    return matrices.vstack(t_lam.submatrix(range(k, 2 * k), cols).scale_int(q.epsilon),
                           t_lam.submatrix(range(k), cols))


def normalize_formation(phi: Formation) -> tuple[Formation, FormIsometry]:
    """An isomorphic formation on the standard hyperbolic form, plus the isometry.

    The returned isometry maps the normalized formation onto the input one:
    its matrix sends the standard first summand to F and the transported
    second lagrangian to G.
    """
    _validated(phi)
    ext = lagrangians.extend_lagrangian(forms.quadratic_to_split(phi.q), phi.f)
    k = phi.f.cols
    q = forms.hyperbolic_quadratic(phi.ring, phi.epsilon, k)
    g = _inverse_from_hyperbolic(ext.f, phi.q).mul(phi.g)
    return Formation(phi.ring, phi.epsilon, q, _standard_f(phi.ring, k), g), ext


def is_trivial_formation(phi: Formation):
    """The explicit trivializing isometry when F and G are complements, else None.

    The isometry maps (H_eps(F); F, F*) onto (Q, phi; F, G): the F summand by
    the basis of F, the dual summand by G·(F*·lambda·G)^{-1}.
    """
    return _trivializer(_validated(phi))


def _trivializer(phi: Formation):
    """``is_trivial_formation`` of a formation already known to be valid.

    F and G are lagrangians, so (F | G)*·lambda·(F | G) = [[0, P], [eps*P*, 0]] for
    P = F*·lambda·G: (F | G) is unimodular, F and G complementary, iff P is, which
    one elimination decides: ``try_inverse`` is None exactly when P is no unit.
    When F is the standard summand of the standard hyperbolic form, F*·lambda = (0 | I),
    so P is the bottom k rows of G, read off with no product.
    """
    k = phi.f.cols
    if phi.q.lam == forms.hyperbolic_quadratic(phi.ring, phi.epsilon, k).lam and phi.f == _standard_f(phi.ring, k):
        pairing = phi.g.submatrix(range(k, 2 * k), range(phi.g.cols))
    else:
        pairing = phi.f.star().mul(phi.q.lam).mul(phi.g)
    pinv = matrices.try_inverse(pairing)
    return None if pinv is None else FormIsometry(matrices.hstack(phi.f, phi.g.mul(pinv)))


def boundary_witness(phi: Formation, h: FormMatrix) -> tuple[QuadraticForm, FormIsometry]:
    """Present phi as the boundary of a (-eps)-form, given a lagrangian h
    complementary to both F and G.

    Returns the recovered form (K, lambda, mu) on K = F and the isometry
    carrying the boundary formation onto phi (identity on F; the graph of
    lambda lands on G).
    """
    return _boundary_witness(_validated(phi), h)


def _boundary_witness(phi: Formation, h: FormMatrix) -> tuple[QuadraticForm, FormIsometry]:
    """``boundary_witness`` of a formation already known to be valid.

    As in ``_trivializer``, h complements x = F or G iff x*·lambda·h is invertible.
    For F that is the pairing P, and T = (F | h·P^-1) is an isometry of quadratic forms
    from H_eps(F).  The top of W = T^-1·G is eps·(P^-1)*·h*·lambda·G, invertible iff h
    complements G.  T carries the graph (I; bottom·top^-1) = W·top^-1 to G·top^-1, which
    spans G, so the graph is a lagrangian: lambda desymmetrizes on the diagonal.
    """
    if not lagrangians._is_lagrangian(phi.q, h):
        raise PreconditionError("witness is not a lagrangian of the form")
    pinv = matrices.try_inverse(phi.f.star().mul(phi.q.lam).mul(h))
    if pinv is None:
        raise PreconditionError("witness is not complementary to F")
    trivializer = matrices.hstack(phi.f, h.mul(pinv))
    w = _inverse_from_hyperbolic(trivializer, phi.q).mul(phi.g)
    k = phi.f.cols
    top = w.submatrix(range(k), range(w.cols))
    bottom = w.submatrix(range(k, 2 * k), range(w.cols))
    topinv = matrices.try_inverse(top)
    if topinv is None:
        raise PreconditionError("witness is not complementary to G")
    lam = bottom.mul(topinv)
    mu = [rings.desymmetrize(lam.entry(i, i), phi.epsilon) for i in range(k)]
    return forms.quadratic_form(phi.ring, -phi.epsilon, lam, mu), FormIsometry(trivializer)


def formation_from_automorphism(u) -> Formation:
    """(H_eps(k); first summand, image of the first block column of u)."""
    if not unitary.unitary_membership(u):
        raise DomainError("the blocks do not satisfy the hyperbolic automorphism conditions")
    q = forms.hyperbolic_quadratic(u.ring, u.epsilon, u.k)
    g = matrices.vstack(u.alpha, u.gamma)
    return Formation(u.ring, u.epsilon, q, _standard_f(u.ring, u.k), g)


def null_cobordism_of_boundary(k: QuadraticForm) -> tuple[complexes.OddComplex, complexes.Cobordism]:
    """The complex of a boundary formation with its explicit null-cobordism.

    j is the identity on C_{n+1} and delta_psi0 = 0; validity does not need
    the form to be nonsingular.
    """
    c = formation_to_complex(boundary_formation(k))
    ident = matrices.identity_matrix(k.ring, k.rank)
    cob = complexes.Cobordism(
        ident,
        matrices.zero_matrix(k.ring, k.rank, 0),
        matrices.zero_matrix(k.ring, k.rank, k.rank),
    )
    return c, cob


def verify_formation_isomorphism(a: Formation, b: Formation, f: FormMatrix) -> bool:
    """f is an isometry of the forms carrying F to F' and G to G'."""
    if a.ring != b.ring or a.epsilon != b.epsilon:
        return False
    if f.rows != b.rank or f.cols != a.rank:
        return False
    if not forms.is_isometry(FormIsometry(f), a.q, b.q):  # tests f unimodular first
        return False
    return matrices.same_span(f.mul(a.f), b.f) and matrices.same_span(f.mul(a.g), b.g)


def verify_stable_isomorphism(a: Formation, b: Formation, f: FormMatrix,
                              pad_a: int = 0, pad_b: int = 0) -> bool:
    """f realizes a + trivial(pad_a) ~ b + trivial(pad_b) as an isomorphism."""
    for name, pad in (("pad_a", pad_a), ("pad_b", pad_b)):
        if pad < 0:
            raise SchemaError(f"{name} must be at least 0, got {pad}")
    # the shape of f bounds the work: no padded formation is built for a pad it cannot match
    if f.rows != b.rank + 2 * pad_b or f.cols != a.rank + 2 * pad_a:
        return False
    sa = direct_sum_formation(a, trivial_formation(a.ring, a.epsilon, pad_a)) if pad_a else a
    sb = direct_sum_formation(b, trivial_formation(b.ring, b.epsilon, pad_b)) if pad_b else b
    return verify_formation_isomorphism(sa, sb, f)
