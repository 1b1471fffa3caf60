"""Two-term chain complexes with quadratic structure, cobordism, surgery.

A complex here is a single differential d: C_{n+1} -> C_n together with
quadratic data (psi0, psi1); validity means the chain condition
d·psi0 + psi1 + (-1)^(n+1)·psi1' = 0 and exactness of the duality
sequence 0 -> C^n -> C_{n+1} + C^(n+1) -> C_n -> 0.  Only the parity of
n matters.  Cobordisms share a target module D_{n+1} and are verified
through invertibility of a 3x3 block matrix; surgery modifies a complex
by (j, delta_psi0) and its trace is the induced cobordism.  Everything
is exact; over rings other than the integers the exactness conditions
require caller-supplied contraction witnesses.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import _intlat, forms, lagrangians, matrices, rings, unitary
from .errors import DomainError, SchemaError, SingularMatrixError, WrongRingError
from .matrices import FormMatrix
from .rings import AbelianGroup, RingSpec


@dataclass(frozen=True)
class OddComplex:
    ring: RingSpec
    parity: int
    d: FormMatrix
    psi0: FormMatrix
    psi1: FormMatrix

    def __post_init__(self):
        if rings._check_int(self.parity, "parity") not in (0, 1):
            raise SchemaError("parity must be 0 or 1")
        c0, c1 = self.d.rows, self.d.cols
        if self.psi0.rows != c1 or self.psi0.cols != c0:
            raise SchemaError("psi0 must map C^n -> C_(n+1)")
        if self.psi1.rows != c0 or self.psi1.cols != c0:
            raise SchemaError("psi1 must map C^n -> C_n")
        for m in (self.d, self.psi0, self.psi1):
            if m.ring != self.ring:
                raise WrongRingError("complex matrices live over the wrong ring")

    @property
    def epsilon(self) -> int:
        return 1 if self.parity == 0 else -1

    @property
    def rank_top(self) -> int:
        """Rank of C_(n+1)."""
        return self.d.cols

    @property
    def rank_bottom(self) -> int:
        """Rank of C_n."""
        return self.d.rows


def odd_complex(ring: RingSpec, parity: int, d, psi0, psi1) -> OddComplex:
    return OddComplex(ring, parity, *(matrices.matrix(ring, m) for m in (d, psi0, psi1)))


def zero_complex(ring: RingSpec, parity: int) -> OddComplex:
    z = matrices.zero_matrix(ring, 0, 0)
    return OddComplex(ring, parity, z, z, z)


def duality_inclusion(c: OddComplex) -> FormMatrix:
    """(psi0; d'): C^n -> C_(n+1) + C^(n+1)."""
    return matrices.vstack(c.psi0, c.d.star())


def duality_projection(c: OddComplex) -> FormMatrix:
    """(d, (-1)^n psi0'): C_(n+1) + C^(n+1) -> C_n."""
    return matrices.hstack(c.d, c.psi0.star().scale_int(c.epsilon))


def complex_violations(c: OddComplex, witness=None) -> tuple[str, ...]:
    """Empty tuple iff the complex is valid; entries name failed conditions.
    Over Z one Smith form decides exactness: pi = incl*·[[0, eps*I], [I, 0]], a unit times
    incl*, is onto iff incl is split injective, and both messages name that one failure.

    Off the integers a witness pair (gamma0, gamma1) contracting the
    duality sequence must be supplied: gamma0: C_n -> C_(n+1) + C^(n+1)
    and gamma1: C_(n+1) + C^(n+1) -> C^n with pi·gamma0 = 1,
    gamma1·incl = 1, incl·gamma1 + gamma0·pi = 1.
    """
    out = []
    eps = c.epsilon
    chain = c.d.mul(c.psi0).add(c.psi1).add(c.psi1.star().scale_int(-eps))
    if not chain.is_zero():
        out.append("chain condition d·psi0 + psi1 + (-1)^(n+1)·psi1' != 0")
    inc = duality_inclusion(c)
    pi = duality_projection(c)
    if not pi.mul(inc).is_zero():
        out.append("duality composite pi·incl != 0")
    if c.ring.kind == "Z" and witness is None:
        if c.rank_top != c.rank_bottom:
            out.append("rank balance fails: rank C_(n+1) != rank C_n")
        if not matrices.is_split_injection(inc):
            out.append("duality inclusion (psi0; d') is not split injective")
            out.append("duality projection (d, (-1)^n psi0') is not onto")
    else:
        if witness is None:
            raise WrongRingError(
                "duality exactness needs a contraction witness over this ring"
            )
        gamma0, gamma1 = witness
        ident_bot = matrices.identity_matrix(c.ring, c.rank_bottom)
        ident_mid = matrices.identity_matrix(c.ring, 2 * c.rank_top)
        if not pi.mul(gamma0).sub(ident_bot).is_zero():
            out.append("witness fails pi·gamma0 = 1")
        if not gamma1.mul(inc).sub(matrices.identity_matrix(c.ring, inc.cols)).is_zero():
            out.append("witness fails gamma1·incl = 1")
        if not inc.mul(gamma1).add(gamma0.mul(pi)).sub(ident_mid).is_zero():
            out.append("witness fails incl·gamma1 + gamma0·pi = 1")
    return tuple(out)


def validate_complex(c: OddComplex, witness=None) -> bool:
    return not complex_violations(c, witness)


def complex_homology(c: OddComplex) -> tuple[AbelianGroup, int]:
    """(H_n as cokernel of d, rank of H_(n+1) as kernel of d)."""
    if c.ring.kind != "Z":
        raise WrongRingError("homology is only computed over the integers")
    coker, rank = matrices.cokernel(c.d)
    return coker, c.rank_top - rank


def is_contractible(c: OddComplex) -> bool:
    return matrices.is_unimodular(c.d)


def _as_map_pair(f):
    if isinstance(f, FormMatrix):
        raise SchemaError("a complex map needs both components (f_top, f_bottom)")
    top, bottom = f
    return top, bottom


def _chi_solvable(d: FormMatrix, n0: FormMatrix, n1, chi1, epsilon: int) -> bool:
    """Whether an integer chi0 solves (chi0 - eps*chi0')·d' = n0 and, unless n1 is None,
    makes m = n1 + d·chi0·d' equal chi1 + eps*chi1', for the given chi1 or for some.

    Where the first identity holds, m - eps*m' = n1 - eps*n1' + d·n0 whatever chi0 is.  So
    some chi1 exists iff that is 0 and, at eps = +1, m's diagonal is even: a row per
    diagonal entry, with a slack column of 2.  With d of shape b x t, that is one integer
    system of at most tb + b rows and t^2 + b columns, decided by one Smith form; a given
    chi1 asks for all b^2 entries of d·chi0·d' and no slack."""
    t, b = d.cols, d.rows
    pairs, r1, free = [], None, chi1 is None
    if n1 is not None and not free:
        pairs = [(r, s) for r in range(b) for s in range(b)]
        r1 = chi1.add(chi1.star().scale_int(epsilon)).sub(n1).to_int_grid()
    elif n1 is not None:
        if not n1.sub(n1.star().scale_int(epsilon)).add(d.mul(n0)).is_zero():
            return False
        pairs, r1 = [(r, r) for r in range(b) if epsilon == 1], n1.neg().to_int_grid()
    dg, slack = d.to_int_grid(), len(pairs) if free else 0
    # a column per entry chi0_pq, then the slacks; a row per entry (i, s) of (chi0 - eps*chi0')·d',
    # then per entry (r, s) of d·chi0·d', less 2 times its slack
    rows = [[(p == i) * dg[s][q] - epsilon * (q == i) * dg[s][p] for p in range(t) for q in range(t)]
            + [0] * slack for i in range(t) for s in range(b)]
    rows += [[dg[r][p] * dg[s][q] for p in range(t) for q in range(t)] + [-2 * (k == l) for l in range(slack)]
             for k, (r, s) in enumerate(pairs)]
    rhs = [x for row in n0.to_int_grid() for x in row] + [r1[r][s] for r, s in pairs]
    if not any(rhs):
        return True
    return t * t + slack > 0 and _intlat.solve(rows, [[x] for x in rhs]) is not None


def verify_map(f, chi0, chi1, source: OddComplex, target: OddComplex, weak: bool = False) -> bool:
    """Chain map plus the two quadratic identities; weak drops the psi1 one.

    chi0 = None asks whether some chi0 exists.  Which chi0 satisfies the psi1 identity
    depends on that identity, so over the integers ``_chi_solvable`` decides chi0 together
    with that identity, and with chi1 when chi1 = None, in one integer system.  Its Smith
    form is the cost: for C_(n+1) of rank t and C_n of rank b it has t^2 + b columns, where
    a given chi0 costs a few matrix products.  Off the integers chi0 = 0 is tried, and a
    WrongRingError asks for a chi0 witness when it fails an identity the call checks.
    chi1 = None asks whether some chi1 exists.
    """
    if source.ring != target.ring or source.parity != target.parity:
        return False
    f_top, f_bot = _as_map_pair(f)
    eps = source.epsilon
    if f_top.rows != target.rank_top or f_top.cols != source.rank_top:
        return False
    if f_bot.rows != target.rank_bottom or f_bot.cols != source.rank_bottom:
        return False
    if not target.d.mul(f_top).sub(f_bot.mul(source.d)).is_zero():
        return False
    n0 = f_top.mul(source.psi0).mul(f_bot.star()).sub(target.psi0)
    n1 = None if weak else f_bot.mul(source.psi1).mul(f_bot.star()).sub(target.psi1)
    if chi0 is None and source.ring.kind == "Z":
        return _chi_solvable(target.d, n0, n1, chi1, eps)
    guessed = chi0 is None
    if guessed:
        chi0 = matrices.zero_matrix(source.ring, target.rank_top, target.rank_top)
    holds = n0.sub(chi0.sub(chi0.star().scale_int(eps)).mul(target.d.star())).is_zero()
    if holds and n1 is not None:
        m = n1.add(target.d.mul(chi0).mul(target.d.star()))
        if chi1 is not None:
            holds = m.sub(chi1.add(chi1.star().scale_int(eps))).is_zero()
        else:
            holds = forms.split_hessian_witness(m, -eps) is not None
    if guessed and not holds:
        raise WrongRingError("supply a chi0 witness over this ring")
    return holds


def is_homotopy_equivalence(f, source: OddComplex, target: OddComplex,
                            chi0=None, chi1=None, weak: bool = False) -> bool:
    """A (weak) map whose mapping cone is exact over the integers."""
    if not verify_map(f, chi0, chi1, source, target, weak=weak):
        return False
    if source.ring.kind != "Z":
        raise WrongRingError("the mapping cone test runs over the integers")
    f_top, f_bot = _as_map_pair(f)
    d2 = matrices.vstack(source.d.neg(), f_top)
    d1 = matrices.hstack(f_bot, target.d)
    if source.rank_bottom + target.rank_top != source.rank_top + target.rank_bottom:
        return False
    return matrices.is_split_injection(d2) and matrices.is_surjection(d1)


# -- surgery ---------------------------------------------------------------


@dataclass(frozen=True)
class SurgeryData:
    j: FormMatrix
    delta_psi0: FormMatrix

    def __post_init__(self):
        if self.delta_psi0.rows != self.j.rows or self.delta_psi0.cols != self.j.rows:
            raise SchemaError("delta_psi0 must be square on the target of j")


def _surgery_surjection(c: OddComplex, s: SurgeryData) -> FormMatrix:
    return matrices.hstack(c.d, c.psi0.star().mul(s.j.star()))


def surgery_admissible(c: OddComplex, s: SurgeryData) -> bool:
    if s.j.cols != c.rank_top or s.j.ring != c.ring:
        raise SchemaError("surgery data does not fit the complex")
    return matrices.is_surjection(_surgery_surjection(c, s))


def surgery_effect(c: OddComplex, s: SurgeryData) -> OddComplex:
    if not surgery_admissible(c, s):
        raise DomainError("surgery not admissible: (d, psi0'·j') is not onto")
    eps = c.epsilon
    dim_d = s.j.rows
    pj = c.psi0.star().mul(s.j.star())
    d_new = matrices.block_matrix([
        [c.d, pj],
        [s.j.scale_int(-eps), s.delta_psi0.add(s.delta_psi0.star().scale_int(-eps))],
    ])
    psi0_new = matrices.block_diagonal(c.psi0, matrices.identity_matrix(c.ring, dim_d))
    psi1_new = matrices.block_matrix([
        [c.psi1, pj.neg()],
        [matrices.zero_matrix(c.ring, dim_d, c.rank_bottom), s.delta_psi0.neg()],
    ])
    return OddComplex(c.ring, c.parity, d_new, psi0_new, psi1_new)


# -- cobordism -------------------------------------------------------------


@dataclass(frozen=True)
class Cobordism:
    """Maps j, j' of two complexes into a common D_(n+1), plus delta_psi0."""

    j: FormMatrix
    jprime: FormMatrix
    delta_psi0: FormMatrix

    def __post_init__(self):
        if self.jprime.rows != self.j.rows:
            raise SchemaError("j and j' must share a target")
        if self.delta_psi0.rows != self.j.rows or self.delta_psi0.cols != self.j.rows:
            raise SchemaError("delta_psi0 must be square on the shared target")


def duality_matrix(c: OddComplex, cprime: OddComplex, cob: Cobordism) -> FormMatrix:
    """The 3x3 block matrix whose invertibility defines a valid cobordism."""
    eps = c.epsilon
    ring = c.ring
    dim_d = cob.j.rows
    z01 = matrices.zero_matrix(ring, c.rank_bottom, cprime.rank_bottom)
    z10 = matrices.zero_matrix(ring, cprime.rank_top, c.rank_top)
    # The (3,2) entry carries the minus of the second summand in the glued
    # quadratic structure (psi, -psi'); without it surgery traces on
    # complexes with nontrivial psi1 fail to validate and reversal symmetry
    # breaks down.
    return matrices.block_matrix([
        [c.d, z01, c.psi0.star().mul(cob.j.star())],
        [z10, cprime.d.star(), cob.jprime.star()],
        [cob.j.scale_int(-eps), cob.jprime.mul(cprime.psi0).neg(),
         cob.delta_psi0.add(cob.delta_psi0.star().scale_int(-eps))],
    ])


def _check_cobordism_shapes(c: OddComplex, cprime: OddComplex, cob: Cobordism):
    if c.ring != cprime.ring or c.parity != cprime.parity:
        raise SchemaError("cobordant complexes need one ring and one parity")
    if cob.j.cols != c.rank_top:
        raise SchemaError("j does not start on C_(n+1)")
    if cob.jprime.cols != cprime.rank_top:
        raise SchemaError("j' does not start on C'_(n+1)")


def validate_cobordism(c: OddComplex, cprime: OddComplex, cob: Cobordism) -> bool:
    _check_cobordism_shapes(c, cprime, cob)
    m = duality_matrix(c, cprime, cob)
    return matrices.is_unimodular(m)


def surgery_on_complex(c: OddComplex, s: SurgeryData) -> tuple[OddComplex, Cobordism]:
    """(effect, trace), the trace joining c to the effect; off Z ``surgery_effect`` refuses the ring first."""
    effect = surgery_effect(c, s)
    basis = matrices.kernel_basis(_surgery_surjection(c, s))
    section = matrices.solve_right(basis.star(), matrices.identity_matrix(c.ring, basis.cols))
    if section is None:
        raise SingularMatrixError("kernel basis admits no retraction; input was inconsistent")
    retraction = section.star()
    dim = basis.cols
    j_c = retraction.submatrix(range(dim), range(c.rank_top))  # retraction·[I; 0]
    cob = Cobordism(j_c, retraction, matrices.zero_matrix(c.ring, dim, dim))
    return effect, cob


def reverse_cobordism(cob: Cobordism) -> Cobordism:
    return Cobordism(cob.jprime, cob.j, cob.delta_psi0.neg())


def union_cobordisms(c: OddComplex, cmid: OddComplex, cprime: OddComplex,
                     cob1: Cobordism, cob2: Cobordism) -> Cobordism:
    """Glue cobordisms c -> cmid and cmid -> cprime along the middle complex."""
    _check_cobordism_shapes(c, cmid, cob1)
    _check_cobordism_shapes(cmid, cprime, cob2)
    if c.ring.kind != "Z":
        raise WrongRingError("the union construction runs over the integers")
    ring = c.ring
    d1 = cob1.j.rows
    d2 = cob2.j.rows
    mid = cmid.rank_bottom
    inc = matrices.vstack(cob1.jprime, cmid.d, cob2.j)
    try:  # it refuses exactly the inclusions that are not split injective
        _, proj = matrices.complement_of_primitive(inc)
    except SingularMatrixError:
        raise DomainError(
            "the glued inclusion (j1'; d; j2) has non-free cokernel; inputs are not valid cobordisms"
        ) from None
    # The middle row needs the glueing cross terms: without them the
    # symmetrized block degenerates whenever both ends are small (glue a
    # trace to its reversal and the whole pairing would vanish).  With
    # psi1 in the centre the chain condition turns the symmetrization
    # into -d.psi0, which is what duality of the glued pair wants; the
    # cross term carries the parity sign.
    eps = c.epsilon
    delta_big = matrices.block_matrix([
        [cob1.delta_psi0, matrices.zero_matrix(ring, d1, mid), matrices.zero_matrix(ring, d1, d2)],
        [cmid.psi0.star().mul(cob1.jprime.star()).scale_int(eps), cmid.psi1,
         matrices.zero_matrix(ring, mid, d2)],
        [matrices.zero_matrix(ring, d2, d1), matrices.zero_matrix(ring, d2, mid), cob2.delta_psi0],
    ])
    # proj·[I; 0; 0] and proj·[0; 0; I] are the first d1 and the last d2 columns of proj
    j_new = proj.submatrix(range(proj.rows), range(d1)).mul(cob1.j)
    jprime_new = proj.submatrix(range(proj.rows), range(d1 + mid, proj.cols)).mul(cob2.jprime)
    delta_new = proj.mul(delta_big).mul(proj.star())
    return Cobordism(j_new, jprime_new, delta_new)


def reflexive_cobordism(c: OddComplex) -> tuple[OddComplex, Cobordism]:
    """A cobordism from c to its dual-side twin, from a hyperbolic extension.

    The twin has d = (-1)^n psi0', psi0 = d', psi1 = -psi1.  The lagrangian
    (psi0; d') of the hyperbolic split form on C_(n+1) extends to an
    isomorphism whose new block column (psi0~; d~') provides j = d~ and
    j' = psi0~'.  delta_psi0 = d~.psi0~ is forced: with zero instead the
    duality matrix drops rank whenever the extension column has a
    nontrivial self-pairing, which already happens for upper-triangular
    hyperbolic automorphisms.
    """
    eps = c.epsilon
    cprime = OddComplex(c.ring, c.parity, c.psi0.star().scale_int(eps), c.d.star(), c.psi1.neg())
    h = forms.hyperbolic_split(c.ring, eps, c.rank_top)
    incl = lagrangians.LagrangianInclusion(duality_inclusion(c), c.psi1.scale_int(eps))
    ext = lagrangians.extend_lagrangian(h, incl)
    cols = range(c.rank_bottom, 2 * c.rank_top)
    top = ext.f.submatrix(range(c.rank_top), cols)
    bottom = ext.f.submatrix(range(c.rank_top, 2 * c.rank_top), cols)
    cob = Cobordism(bottom.star(), top.star(), bottom.star().mul(top))
    return cprime, cob


def cobordism_from_automorphism(u: unitary.UnitaryAutomorphism) -> tuple[OddComplex, OddComplex, Cobordism]:
    """Complexes and cobordism read off the four blocks of an automorphism.

    The automorphism epsilon fixes the parity.  The first complex has
    d = gamma', psi0 = alpha; the second d = alpha', psi0 = eps·gamma;
    the cobordism data is (delta', beta', delta'·beta).  The hessian
    theta lifts alpha'·gamma.  delta_psi0 = delta'·beta vanishes on
    lower-triangular generators but not on upper-triangular ones, and
    zero in its place makes the duality matrix singular there.
    """
    unitary._require_member(u)
    eps = u.epsilon
    parity = 0 if eps == 1 else 1
    theta = forms.split_hessian_witness(u.alpha.star().mul(u.gamma), eps)
    c = OddComplex(u.ring, parity, u.gamma.star(), u.alpha, theta.scale_int(eps))
    cprime = OddComplex(u.ring, parity, u.alpha.star(), u.gamma.scale_int(eps),
                        theta.scale_int(-eps))
    cob = Cobordism(u.delta.star(), u.beta.star(), u.delta.star().mul(u.beta))
    return c, cprime, cob
