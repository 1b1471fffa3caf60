"""Epsilon-symmetric, epsilon-quadratic, and split forms.

A form lives on a based free module Lambda^k.  The pairing of columns x, y
under a matrix lam is conj(x)^T · lam · y, so eps-symmetry reads
lam = eps * conj_transpose(lam).  Quadratic refinements store the
self-values mu only on basis vectors; every other value follows from the
polarisation rule  mu(x + y) - mu(x) - mu(y) = lambda(x, y).

A split form is a bare square matrix psi; it determines the quadratic form
with lambda = psi + eps*psi' and mu_i = [psi_ii].  Morphisms of split forms
are measured by the hessian difference N = f'psi f - psi, which must be a
coboundary chi - eps*chi'; over the commutative rings supported here that
is equivalent to N = -eps*N' with all diagonal classes zero, and the
canonical witness chi is built from the strict upper triangle.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache, wraps

from . import matrices, rings
from .errors import PreconditionError, SchemaError, WrongRingError
from .matrices import FormMatrix
from .rings import QEpsilonClass, RingSpec


def _check_form(ring: RingSpec, epsilon: int, m: FormMatrix):
    """What every form class refuses, at every rank: eps other than +-1, a matrix over
    another ring than the form's, a matrix that is not square."""
    rings._check_epsilon(epsilon)
    if m.ring != ring:
        raise WrongRingError("form matrix over another ring than the form's")
    if m.rows != m.cols:
        raise SchemaError("form matrix must be square")


def _check_eps_symmetric(lam: FormMatrix, epsilon: int):
    if not lam.is_eps_symmetric(epsilon):
        raise PreconditionError("matrix is not eps-symmetric: lambda != eps * conj_transpose(lambda)")


@dataclass(frozen=True)
class SymmetricForm:
    """An eps-symmetric form (K, lambda)."""

    ring: RingSpec
    epsilon: int
    lam: FormMatrix

    def __post_init__(self):
        _check_form(self.ring, self.epsilon, self.lam)
        _check_eps_symmetric(self.lam, self.epsilon)

    @property
    def rank(self) -> int:
        return self.lam.rows


@dataclass(frozen=True)
class QuadraticForm:
    """An eps-quadratic form (K, lambda, mu)."""

    ring: RingSpec
    epsilon: int
    lam: FormMatrix
    mu: tuple[QEpsilonClass, ...]

    def __post_init__(self):
        _check_form(self.ring, self.epsilon, self.lam)
        _check_eps_symmetric(self.lam, self.epsilon)
        if len(self.mu) != self.lam.rows:
            raise SchemaError("one mu class per basis vector required")
        for i, m in enumerate(self.mu):
            if m.ring != self.ring or m.epsilon != self.epsilon:
                raise WrongRingError("mu class over wrong ring or epsilon")
            if rings.symmetrize(m.rep, self.epsilon) != self.lam.entry(i, i):
                raise PreconditionError(
                    f"mu[{i}] + eps*conj(mu[{i}]) != lambda[{i}][{i}]"
                )

    @property
    def rank(self) -> int:
        return self.lam.rows

    def symmetric(self) -> SymmetricForm:
        return SymmetricForm(self.ring, self.epsilon, self.lam)


@dataclass(frozen=True)
class SplitForm:
    """A split form (K, psi); psi is any square matrix over the form's ring."""

    ring: RingSpec
    epsilon: int
    psi: FormMatrix

    def __post_init__(self):
        _check_form(self.ring, self.epsilon, self.psi)

    @property
    def rank(self) -> int:
        return self.psi.rows

    def bilinear(self) -> FormMatrix:
        return self.psi.add(self.psi.star().scale_int(self.epsilon))


@dataclass(frozen=True)
class FormIsometry:
    """A form morphism f, optionally with the hessian witness chi."""

    f: FormMatrix
    chi: FormMatrix | None = None


def symmetric_form(ring: RingSpec, epsilon: int, lam_rows) -> SymmetricForm:
    return SymmetricForm(ring, epsilon, matrices.matrix(ring, lam_rows))


def quadratic_form(ring: RingSpec, epsilon: int, lam_rows, mu_entries) -> QuadraticForm:
    mus = []
    for m in mu_entries:
        if isinstance(m, QEpsilonClass):
            mus.append(m)
        elif isinstance(m, rings.RingElement):
            mus.append(rings.q_eps_reduce(m, epsilon))
        else:
            mus.append(rings.q_eps_reduce(rings.from_int(ring, m), epsilon))
    return QuadraticForm(ring, epsilon, matrices.matrix(ring, lam_rows), tuple(mus))


def split_form(ring: RingSpec, epsilon: int, psi_rows) -> SplitForm:
    return SplitForm(ring, epsilon, matrices.matrix(ring, psi_rows))


def _memoized(build):
    """build(ring, epsilon, k), memoized per (ring, epsilon, k) for k <= 32 in an LRU memo
    of 64 entries.  A run asks for few hyperbolic forms, many times over: one pass of the
    acceptance suite for 16 split and 10 quadratic ones, in about 2,300 and 800 calls, all
    with k <= 8.  64 entries keep all of them with room for more rings and ranks.  The rank
    bound keeps what the memo holds under about 6 MB: a form's grids grow as k^2, and a
    split form with its quadratic form takes 0.1 MB at k = 32 and 72 MB at k = 1024.
    A refusal is raised again on each call; a k that is no int is refused before the memo."""
    memo = lru_cache(maxsize=64, typed=True)(build)
    what = f"{build.__name__}: k"

    @wraps(build)
    def memoized(ring: RingSpec, epsilon: int, k: int):
        return (memo if rings._check_int(k, what) <= 32 else build)(ring, epsilon, k)

    memoized.memo = memo
    return memoized


@_memoized
def hyperbolic_quadratic(ring: RingSpec, epsilon: int, k: int) -> QuadraticForm:
    """The hyperbolic form on Lambda^k + its dual: lambda = [[0,I],[eps*I,0]], mu = 0.
    Memoized and shared as ``hyperbolic_split`` is."""
    return split_to_quadratic(hyperbolic_split(ring, epsilon, k))


@_memoized
def hyperbolic_split(ring: RingSpec, epsilon: int, k: int) -> SplitForm:
    """psi = [[0, I], [0, 0]] on Lambda^k + its dual, written as one int grid.
    Memoized per (ring, eps, k) for k <= 32, in at most 64 entries (``_memoized`` gives
    the reasons).  Every caller gets the one object, which is safe because forms and their
    matrices are immutable."""
    if k < 0:
        raise SchemaError(f"hyperbolic_split: k must be at least 0, got {k}")
    grid = [[0] * (2 * k) for _ in range(2 * k)]
    for i in range(k):
        grid[i][k + i] = 1
    return SplitForm(ring, epsilon, matrices.matrix(ring, grid))


def split_to_quadratic(s: SplitForm) -> QuadraticForm:
    """(K, psi + eps*psi*, [psi_ii]), the one form built without ``QuadraticForm``'s checks.
    They hold for every ``SplitForm``, whose psi is square and over its ring, with eps = +-1:
    eps*(psi + eps*psi*)* = psi + eps*psi*, and [psi_ii] = [psi_ii + a - eps*conj(a)]
    symmetrises to psi_ii + eps*conj(psi_ii) = lambda_ii, as 1 + T_eps kills a - eps*conj(a)."""
    q = object.__new__(QuadraticForm)  # a frozen dataclass: its fields go straight into __dict__
    q.__dict__.update(ring=s.ring, epsilon=s.epsilon, lam=s.bilinear(),
                      mu=tuple(rings.q_eps_reduce(s.psi.entry(i, i), s.epsilon) for i in range(s.rank)))
    return q


def quadratic_to_split(q: QuadraticForm) -> SplitForm:
    """Canonical lift: strict upper triangle of lambda, mu representatives on the diagonal."""
    return SplitForm(q.ring, q.epsilon, matrices.upper_triangle(q.lam, [m.rep for m in q.mu]))


def is_even(s: SymmetricForm) -> bool:
    """True iff each diagonal value is a symmetrisation, i.e. the form is even: as lambda
    is eps-symmetric, iff lambda has a split hessian witness at -eps."""
    return split_hessian_witness(s.lam, -s.epsilon) is not None


def is_nonsingular(form) -> bool:
    lam = form.lam if hasattr(form, "lam") else form.bilinear()
    return matrices.is_unimodular(lam)


def mu_values(q: QuadraticForm, f: FormMatrix) -> tuple[QEpsilonClass, ...]:
    """mu of every column of f, read off the diagonal of f'·psi·f.

    psi = quadratic_to_split(q).psi carries the mu representatives on its
    diagonal and lambda on its strict upper triangle, so conj(x)'·psi·x is
    the polarisation sum of mu_j·conj(x_j)·x_j over j and
    conj(x_j)·lambda_jl·x_l over j < l.
    """
    if f.rows != q.rank:
        raise SchemaError("mu_values expects columns of matching rank")
    d = f.star().mul(quadratic_to_split(q).psi).mul(f)
    return tuple(rings.q_eps_reduce(d.entry(i, i), q.epsilon) for i in range(f.cols))


def mu_value(q: QuadraticForm, x: FormMatrix) -> QEpsilonClass:
    """mu of an arbitrary column."""
    if x.cols != 1 or x.rows != q.rank:
        raise SchemaError("mu_value expects a single column of matching rank")
    return mu_values(q, x)[0]


def is_quadratic_morphism(f: FormMatrix, source: QuadraticForm, target: QuadraticForm) -> bool:
    """Preserves lambda and mu; invertibility not required."""
    if source.ring != target.ring or source.epsilon != target.epsilon:
        return False
    if f.rows != target.rank or f.cols != source.rank:
        return False
    if not f.star().mul(target.lam).mul(f).sub(source.lam).is_zero():
        return False
    return mu_values(target, f) == tuple(source.mu)


def is_isometry(iso: FormIsometry, source: QuadraticForm, target: QuadraticForm) -> bool:
    f = iso.f if isinstance(iso, FormIsometry) else iso
    if not matrices.is_unimodular(f):
        return False
    return is_quadratic_morphism(f, source, target)


def split_hessian_witness(n: FormMatrix, epsilon: int):
    """chi with chi - eps*chi' = n, or None.

    Exists iff n = -eps*n' and every diagonal entry desymmetrises; chi is the
    strict upper triangle of n plus diagonal preimages.
    """
    if n.rows != n.cols:
        return None
    if not n.is_eps_symmetric(-epsilon):
        return None
    diagonal = [rings.desymmetrize(n.entry(i, i), epsilon) for i in range(n.rows)]
    if any(d is None for d in diagonal):
        return None
    return matrices.upper_triangle(n, diagonal)


def is_split_morphism(iso: FormIsometry, source: SplitForm, target: SplitForm) -> bool:
    f = iso.f
    if source.ring != target.ring or source.epsilon != target.epsilon:
        return False
    if f.rows != target.rank or f.cols != source.rank:
        return False
    n = f.star().mul(target.psi).mul(f).sub(source.psi)
    if iso.chi is not None:
        cob = iso.chi.sub(iso.chi.star().scale_int(source.epsilon))
        return n.sub(cob).is_zero()
    return split_hessian_witness(n, source.epsilon) is not None


def split_morphism_witness(f: FormMatrix, source: SplitForm, target: SplitForm) -> FormIsometry:
    """FormIsometry carrying the canonical chi; raises when f is no morphism."""
    n = f.star().mul(target.psi).mul(f).sub(source.psi)
    chi = split_hessian_witness(n, source.epsilon)
    if chi is None:
        raise PreconditionError("f'psi f - psi is not a coboundary chi - eps*chi'")
    return FormIsometry(f, chi)


def direct_sum(a: QuadraticForm, b: QuadraticForm) -> QuadraticForm:
    if a.ring != b.ring or a.epsilon != b.epsilon:
        raise WrongRingError("direct sum needs one ring and one epsilon")
    return QuadraticForm(a.ring, a.epsilon, matrices.block_diagonal(a.lam, b.lam), a.mu + b.mu)


def direct_sum_split(a: SplitForm, b: SplitForm) -> SplitForm:
    if a.ring != b.ring or a.epsilon != b.epsilon:
        raise WrongRingError("direct sum needs one ring and one epsilon")
    return SplitForm(a.ring, a.epsilon, matrices.block_diagonal(a.psi, b.psi))


def negate(a: QuadraticForm) -> QuadraticForm:
    return QuadraticForm(a.ring, a.epsilon, a.lam.neg(), tuple(rings.class_neg(m) for m in a.mu))


def negate_split(a: SplitForm) -> SplitForm:
    return SplitForm(a.ring, a.epsilon, a.psi.neg())


def split_from_projection(form: QuadraticForm, s: FormMatrix) -> SplitForm:
    """Split form (K, lambda*s) cut out by a projection-like endomorphism s.

    Requires the column map (s, 1-s) to be a morphism
    (K,0,0) -> (K,lambda,mu) + (K,-lambda,-mu); the failed identity is named
    in the error.
    """
    k = form.rank
    if s.rows != k or s.cols != k:
        raise SchemaError("projection matrix must match the form rank")
    f = matrices.vstack(s, matrices.identity_matrix(form.ring, k).sub(s))
    both = direct_sum(form, negate(form))
    lam_pull = f.star().mul(both.lam).mul(f)
    if not lam_pull.is_zero():
        raise PreconditionError("s'·lambda·s != (1-s)'·lambda·(1-s): pairing identity failed")
    for i, m in enumerate(mu_values(both, f)):
        if not rings.class_is_zero(m):
            raise PreconditionError(f"mu(s·e_{i}) - mu((1-s)·e_{i}) != 0: quadratic identity failed")
    return SplitForm(form.ring, form.epsilon, form.lam.mul(s))
