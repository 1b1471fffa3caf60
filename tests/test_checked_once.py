"""Each fact checked once: the rewritten checks against verbatim copies of the
code that tested the same facts again, on inputs that reach every failure."""

import operator
import random
from functools import reduce
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from surgery_algebra import _intlat, complexes as cx, forms, formations as fm, lagrangians, matrices as mx, rings
from surgery_algebra.errors import DomainError, PreconditionError, SchemaError, SingularMatrixError, WrongRingError
from surgery_algebra.forms import FormIsometry
from surgery_algebra.generators import hessian_corner, matrix as random_matrix, word as random_word
from surgery_algebra.lagrangians import LagrangianInclusion

from conftest import random_complex, random_split_and_transport, random_unimodular
from test_closed_forms import ALL_RINGS, outcome
from test_matrices import cyclic_element, unit_lu, wide_unit

Z = rings.integers()
EPS = st.sampled_from([1, -1])
seeds = st.integers(0, 2**32)


# -- frozen copies of the checks as they were ---------------------------------

def frozen_is_lagrangian(q, basis, pairing=None):
    pairing = lagrangians._sublagrangian_pairing(q, basis, pairing)
    return (pairing is not None and 2 * basis.cols == q.rank
            and mx.same_span(mx.kernel_basis(pairing), basis))


def frozen_extend_lagrangian(s, L, jprime=None):
    basis, theta = lagrangians._as_basis(L)
    lam = s.bilinear()
    if not mx.is_unimodular(lam):
        raise SingularMatrixError("hyperbolic extension needs a nonsingular split form")
    if theta is not None:
        lagrangians._check_theta(s, basis, theta)
    ell = basis.cols
    ident = mx.identity_matrix(s.ring, ell)
    pairing = basis.star().mul(lam)
    if jprime is None:
        if s.ring.kind != "Z":
            raise DomainError(
                "splitting not found: supply a jprime witness over this ring"
            )
        if not frozen_is_lagrangian(forms.split_to_quadratic(s), basis, pairing):
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
    if not mx.is_unimodular(f):
        raise SingularMatrixError("extension matrix is not invertible; inputs were inconsistent")
    return iso


def frozen_formation_violations(phi):
    out = []
    if not forms.is_nonsingular(phi.q):
        out.append("underlying form is singular")
        return tuple(out)
    if not frozen_is_lagrangian(phi.q, phi.f):
        out.append("F is not a lagrangian")
    if not frozen_is_lagrangian(phi.q, phi.g):
        out.append("G is not a lagrangian")
    return tuple(out)


def frozen_validated(phi):
    bad = frozen_formation_violations(phi)
    if bad:
        raise DomainError("; ".join(bad))
    return phi


def frozen_complex_to_formation(c):
    bad = cx.complex_violations(c)
    if bad:
        raise DomainError("complex is invalid: " + "; ".join(bad))
    k = c.rank_top
    q = forms.hyperbolic_quadratic(c.ring, c.epsilon, k)
    g = cx.duality_inclusion(c)
    phi = fm.Formation(c.ring, c.epsilon, q, fm._standard_f(c.ring, k), g)
    if frozen_formation_violations(phi):
        raise DomainError("complex does not produce lagrangian data; psi is inconsistent")
    return phi


def frozen_normalize_formation(phi):
    frozen_validated(phi)
    s = forms.quadratic_to_split(phi.q)
    ext = frozen_extend_lagrangian(s, phi.f)
    inv = mx.try_inverse(ext.f)
    if inv is None:
        raise SingularMatrixError("lagrangian extension failed to be invertible")
    k = phi.f.cols
    q = forms.hyperbolic_quadratic(phi.ring, phi.epsilon, k)
    norm = fm.Formation(phi.ring, phi.epsilon, q, fm._standard_f(phi.ring, k), inv.mul(phi.g))
    return norm, ext


def frozen_trivializer(phi):
    if not mx.is_unimodular(mx.hstack(phi.f, phi.g)):
        return None
    pairing = phi.f.star().mul(phi.q.lam).mul(phi.g)
    pinv = mx.try_inverse(pairing)
    if pinv is None:
        return None
    iso = mx.hstack(phi.f, phi.g.mul(pinv))
    return FormIsometry(iso)


def frozen_boundary_witness(phi, h):
    if not frozen_is_lagrangian(phi.q, h):  # phi.q is nonsingular
        raise PreconditionError("witness is not a lagrangian of the form")
    if not mx.is_unimodular(mx.hstack(phi.f, h)):
        raise PreconditionError("witness is not complementary to F")
    if not mx.is_unimodular(mx.hstack(phi.g, h)):
        raise PreconditionError("witness is not complementary to G")
    pairing = phi.f.star().mul(phi.q.lam).mul(h)
    pinv = mx.try_inverse(pairing)
    if pinv is None:
        raise SingularMatrixError("complementary lagrangians failed to pair invertibly")
    trivializer = mx.hstack(phi.f, h.mul(pinv))
    tinv = mx.try_inverse(trivializer)
    if tinv is None:
        raise SingularMatrixError("trivializing matrix is not invertible")
    w = tinv.mul(phi.g)
    k = phi.f.cols
    top = w.submatrix(range(k), range(w.cols))
    bottom = w.submatrix(range(k, 2 * k), range(w.cols))
    topinv = mx.try_inverse(top)
    if topinv is None:
        raise PreconditionError("transported G is not a graph over F; witness unusable")
    lam = bottom.mul(topinv)
    theta = forms.split_hessian_witness(lam, phi.epsilon)
    if theta is None:
        raise DomainError("graph pairing admits no split lift; inputs inconsistent")
    eps_prime = -phi.epsilon
    mu = tuple(rings.q_eps_reduce(theta.entry(i, i), eps_prime) for i in range(k))
    recovered = forms.QuadraticForm(phi.ring, eps_prime, lam, mu)
    graph = mx.vstack(mx.identity_matrix(phi.ring, k), lam)
    if not mx.same_span(trivializer.mul(graph), phi.g):
        raise DomainError("recovered graph does not span G; witness inconsistent")
    return recovered, FormIsometry(trivializer)


def frozen_verify_formation_isomorphism(a, b, f):
    if a.ring != b.ring or a.epsilon != b.epsilon:
        return False
    if f.rows != b.rank or f.cols != a.rank:
        return False
    if not mx.is_unimodular(f):
        return False
    if not forms.is_isometry(FormIsometry(f), a.q, b.q):
        return False
    return mx.same_span(f.mul(a.f), b.f) and mx.same_span(f.mul(a.g), b.g)


def frozen_packed_elimination(m, b):
    grids = list(m._grids.values())
    # z -> 1 maps units to units (over Z[Z/m] it is the augmentation), and m(1)
    # is cheap to test; it also has no zero row or column
    if not _intlat.is_unimodular([[sum(c) for c in zip(*(g[i] for g in grids))] for i in range(m.rows)]):
        return None
    rlo = [min(k for k, g in m._grids.items() if any(g[i])) for i in range(m.rows)]
    norms = [[sum(c) ** 2 for c in zip(*(map(abs, g[i]) for g in grids))] for i in range(m.rows)]
    # every coefficient is at most the square root of the smaller product, which is under 2^(bits/2)
    bits = min(reduce(operator.mul, map(sum, lines), 1) for lines in (norms, zip(*norms))).bit_length()
    width = mx._width((1 << (bits + 1) // 2) - 1)
    p = mx._pack(m._grids, rlo, width, m.cols)
    # the lowest set bit of a packed entry lies in its lowest nonzero digit
    clo = [min(((v & -v).bit_length() - 1) // width for v in col if v) for col in zip(*p)]
    p = [[v >> width * c for v, c in zip(row, clo)] for row in p]
    size = m.rows ** 2 * sum(max(map(int.bit_length, row)) for row in p)
    if size > mx.MAX_ELIMINATION_SIZE:
        raise SchemaError(f"a {m.rows}x{m.cols} matrix over {m.ring} packs into integers of up to "
                          f"{size // m.rows ** 2} bits, rank^2 * bits {size} beyond {mx.MAX_ELIMINATION_SIZE}")
    d, x = _intlat.bareiss(p, b)
    return (width, rlo, clo, d, x) if d else None


def frozen_laurent_elimination(m, b):
    found = frozen_packed_elimination(m, b)
    if found is None:
        return None
    width, rlo, clo, d, x = found
    e = abs(d)
    k, r = divmod(e.bit_length() - 1, width)
    if r or e & (e - 1):  # only +-2^(width k), the image of +-z^k, is a unit
        return None
    return width, rlo, clo, k, x if d > 0 else [[-v for v in row] for row in x]


def frozen_cyclic_elimination(m, b):
    found = frozen_packed_elimination(m, b)
    if found is None:
        return None
    width, rlo, clo, d, x = found
    return width, rlo, clo, mx._folded(m.ring, [[d]], width, [[0]]), x


def frozen_try_inverse(m):
    if m.rows != m.cols:
        return None
    if m.rows == 0:
        return m
    n, ring = m.rows, m.ring
    if ring.kind == "laurent":
        found = frozen_laurent_elimination(m, _intlat.identity(n))
        if found is None:
            return None
        width, rlo, clo, k, x = found
        # entry (i, j) moves up by z^(top - clo[i] - rlo[j]), never down, so that
        # every entry starts at z^(-k - top)
        top = max(clo) + max(rlo)
        x = [[v << width * (top - c - r) for v, r in zip(row, rlo)] for row, c in zip(x, clo)]
        out = mx._grid_matrix(ring, n, n, mx._unpack(x, width, -k - top))
    elif ring.kind == "cyclic" and mx._packs_cyclic(n, ring.m):
        found = frozen_cyclic_elimination(m, _intlat.identity(n))
        uinv = found and mx._regular_inverse(found[3])
        if uinv is None:
            return None
        width, rlo, clo, _, x = found
        out = mx._folded(ring, x, width, [[-c - r for r in rlo] for c in clo]).scale(uinv.entry(0, 0))
    else:
        return mx._regular_inverse(m)
    if not m.mul(out).sub(mx.identity_matrix(ring, n)).is_zero():
        return None
    return out


def frozen_is_unimodular(m):
    if m.rows != m.cols:
        return False
    if m.ring.kind == "laurent":
        return frozen_laurent_elimination(m, [[]] * m.rows) is not None
    if m.ring.kind == "cyclic" and mx._packs_cyclic(m.rows, m.ring.m):
        found = frozen_cyclic_elimination(m, [[]] * m.rows)
        # u is a unit iff its m x m circulant has determinant +-1
        return found is not None and _intlat.is_unimodular(mx._regular_grid(found[3]))
    return _intlat.is_unimodular(mx._regular_grid(m))


# -- builders -------------------------------------------------------------------

def half_rank_bases(rng, pinv, half):
    """Bases in a form that P^-1 carries H_eps(Z^half) onto: a lagrangian mixed by a
    unimodular, half-rank sets that are no lagrangian (a pair e_0, f_0; twice a
    lagrangian; a random draw), and the wrong ranks (a proper sublagrangian, one
    column past half rank, a wrong row count)."""
    rows = range(2 * half)
    lagrangian = pinv.submatrix(rows, range(half))
    return [
        lagrangian.mul(random_unimodular(rng, Z, half)),
        pinv.submatrix(rows, [0, half] + list(range(1, half - 1)) if half > 1 else range(half)),
        lagrangian.scale_int(2),
        random_matrix(rng, Z, 2 * half, half),
        pinv.submatrix(rows, range(half - 1 if half else 0)),
        pinv.submatrix(rows, range(half + 1)) if half else random_matrix(rng, Z, 0, 1),
        random_matrix(rng, Z, 2 * half + 1, half),
    ]


def draw_formation(rng, kind, eps, k):
    """(phi, t): a valid formation and the isometry t from H_eps(Z^k) onto its form.

    "boundary" is the boundary of a random (-eps)-form, "automorphism" the formation
    of a random word, and "transported" a random word's formation carried along
    P^-1 onto a transported form, its first lagrangian mixed by a unimodular.
    """
    if kind == "boundary":
        lam = hessian_corner(rng, Z, k, eps)
        mu = [rings.symmetrize_preimage(lam.entry(i, i), -eps) for i in range(k)]
        phi = fm.boundary_formation(forms.quadratic_form(Z, -eps, lam, mu))
        return phi, mx.identity_matrix(Z, 2 * k)
    u = random_word(rng, eps, k, rng.randint(1, 2 * k + 1)) if k else None
    phi = fm.formation_from_automorphism(u) if k else fm.trivial_formation(Z, eps, 0)
    if kind == "automorphism":
        return phi, mx.identity_matrix(Z, 2 * k)
    s, p = random_split_and_transport(rng, Z, eps, k)
    t = mx.inverse(p)
    f = t.mul(phi.f).mul(random_unimodular(rng, Z, k))
    return fm.Formation(Z, eps, forms.split_to_quadratic(s), f, t.mul(phi.g)), t


def witnesses(rng, phi, t, eps, k):
    """Candidate common complements, carried along t: the dual summand (mixed), F, G,
    a graph over F, and a random draw that is no lagrangian."""
    dual = fm._standard_dual(Z, k)
    graph = mx.vstack(mx.identity_matrix(Z, k), hessian_corner(rng, Z, k, eps))
    return [t.mul(dual.mul(random_unimodular(rng, Z, k))), phi.f, phi.g, t.mul(graph),
            random_matrix(rng, Z, 2 * k, k, -1, 1)]


FORMATION_KINDS = ["boundary", "automorphism", "transported"]


# -- lagrangians ------------------------------------------------------------------

@settings(max_examples=80)
@given(EPS, st.integers(0, 4), seeds)
def test_the_lagrangian_test_and_its_extension_match_the_old_checks(eps, half, seed):
    rng = random.Random(seed)
    s, p = random_split_and_transport(rng, Z, eps, half)
    q = forms.split_to_quadratic(s)
    for basis in half_rank_bases(rng, mx.inverse(p), half):
        assert outcome(lagrangians._is_lagrangian, q, basis) == outcome(frozen_is_lagrangian, q, basis)
        got, want = outcome(lagrangians.extend_lagrangian, s, basis), outcome(frozen_extend_lagrangian, s, basis)
        if isinstance(want, tuple):
            assert got == want
        else:
            assert (got.f, got.chi) == (want.f, want.chi)
    theta = LagrangianInclusion(mx.inverse(p).submatrix(range(2 * half), range(half)),
                                random_matrix(rng, Z, half, half))
    assert outcome(lagrangians.extend_lagrangian, s, theta) == outcome(frozen_extend_lagrangian, s, theta)


@settings(max_examples=60)
@given(st.sampled_from(ALL_RINGS), EPS, st.integers(1, 3), st.integers(0, 3), seeds)
def test_the_extension_by_a_splitting_witness_matches_the_old_checks(ring, eps, half, ell, seed):
    """ell columns of L with the matching columns of its dual: a hyperbolic summand,
    which fills the form only when ell = half, so that below it the old closing
    determinant refused a rectangular extension."""
    rng = random.Random(seed)
    s, p = random_split_and_transport(rng, ring, eps, half)
    pinv, rows, ell = mx.inverse(p), range(2 * half), min(ell, half)
    basis = pinv.submatrix(rows, range(ell))
    q = forms.split_to_quadratic(s)  # off Z split injectivity refuses the ring first
    assert outcome(lagrangians._is_lagrangian, q, basis) == outcome(frozen_is_lagrangian, q, basis)
    for jprime in (pinv.submatrix(rows, range(half, half + ell)), pinv.submatrix(rows, range(ell))):
        got, want = outcome(lagrangians.extend_lagrangian, s, basis, jprime), \
            outcome(frozen_extend_lagrangian, s, basis, jprime)
        if isinstance(want, tuple):
            assert got == want
        else:
            assert (got.f, got.chi) == (want.f, want.chi)
    if ring.kind == "Z" and ell < half:  # over Z the splitting is found, and a sublagrangian refused
        assert outcome(lagrangians.extend_lagrangian, s, basis) == outcome(frozen_extend_lagrangian, s, basis)


# -- formations -------------------------------------------------------------------

@settings(max_examples=60)
@given(EPS, st.integers(0, 4), st.sampled_from(FORMATION_KINDS), seeds)
def test_normalization_and_triviality_match_the_old_checks(eps, k, kind, seed):
    rng = random.Random(seed)
    phi, _ = draw_formation(rng, kind, eps, k)
    # the formation itself, and one whose second lagrangian is a random draw
    for psi in (phi, fm.Formation(Z, eps, phi.q, phi.f, random_matrix(rng, Z, 2 * k, k))):
        got, want = outcome(fm.normalize_formation, psi), outcome(frozen_normalize_formation, psi)
        if isinstance(want, tuple):
            assert got == want
        else:
            (norm, ext), (want_norm, want_ext) = got, want
            assert norm == want_norm and (ext.f, ext.chi) == (want_ext.f, want_ext.chi)
            assert fm.verify_formation_isomorphism(norm, psi, ext.f)
    got, want = fm._trivializer(phi), frozen_trivializer(phi)
    assert (got is None) == (want is None)
    assert got is None or got.f == want.f


@given(st.integers(0, 1), st.integers(0, 4), st.sampled_from(["valid", "psi1", "psi0", "d", "cyclic"]), seeds)
def test_the_formation_of_a_complex_matches_the_old_checks(parity, k, change, seed):
    """A valid complex, one with a random psi1, psi0 or d in its place, or one over Z[Z/3]."""
    rng = random.Random(seed)
    c = random_complex(rng, parity, k, rng.randint(1, 2 * k + 1)) if k else random_complex(rng, parity, 1, 1)
    parts = {"d": c.d, "psi0": c.psi0, "psi1": c.psi1}
    if change in parts:
        parts[change] = random_matrix(rng, Z, parts[change].rows, parts[change].cols, -1, 1)
    ring = rings.cyclic(3) if change == "cyclic" else Z
    c = cx.OddComplex(ring, parity, *(mx.matrix(ring, parts[n].to_int_grid()) for n in ("d", "psi0", "psi1")))
    got = outcome(fm.complex_to_formation, c)
    assert got == outcome(frozen_complex_to_formation, c)
    assert isinstance(got, tuple) or fm.validate_formation(got)


@settings(max_examples=60)
@given(EPS, st.integers(0, 4), st.sampled_from(FORMATION_KINDS), seeds)
def test_the_boundary_witness_matches_the_old_checks(eps, k, kind, seed):
    rng = random.Random(seed)
    phi, t = draw_formation(rng, kind, eps, k)
    for h in witnesses(rng, phi, t, eps, k):
        got, want = outcome(fm._boundary_witness, phi, h), outcome(frozen_boundary_witness, phi, h)
        if isinstance(want, tuple):
            assert got == want
        else:
            (form, iso), (want_form, want_iso) = got, want
            assert form == want_form and iso.f == want_iso.f


@settings(max_examples=60)
@given(EPS, st.integers(0, 3), st.sampled_from(FORMATION_KINDS), seeds)
def test_the_formation_isomorphism_test_matches_the_old_checks(eps, k, kind, seed):
    rng = random.Random(seed)
    phi, _ = draw_formation(rng, kind, eps, k)
    norm, ext = fm.normalize_formation(phi)
    other = fm.trivial_formation(Z, -eps, k)
    n = 2 * k
    for a, b, f in [(norm, phi, ext.f), (phi, norm, mx.inverse(ext.f)), (phi, phi, mx.identity_matrix(Z, n)),
                    (phi, phi, mx.identity_matrix(Z, n).scale_int(2)), (phi, phi, random_unimodular(rng, Z, n)),
                    (phi, phi, random_matrix(rng, Z, n, n)), (phi, norm, ext.f),
                    (phi, phi, random_matrix(rng, Z, n, n + 1)), (other, phi, mx.identity_matrix(Z, n))]:
        assert fm.verify_formation_isomorphism(a, b, f) == frozen_verify_formation_isomorphism(a, b, f)


# -- invertibility over the group rings -----------------------------------------

def group_ring_draw(rng, ring, n, kind):
    """A unit L·U; that unit with a row times 2 - g (which passes z -> 1, no unit)
    or times 3 (which does not pass); a repeated row; or a dense draw."""
    rows = [list(r) for r in unit_lu(rng, ring, n).entries]
    if kind == "dense":
        return random_matrix(rng, ring, n, n, -1, 1)
    if kind in ("non-unit", "augmentation"):
        c = cyclic_element(ring, [(2, 0), (-1, rng.randrange(1, ring.m or 3))] if kind == "non-unit" else [(3, 0)])
        rows[0] = [rings.mul(c, x) for x in rows[0]]
    elif kind == "singular":
        rows[-1] = rows[0] if n > 1 else [rings.zero(ring)]
    return mx.matrix(ring, rows)


GROUP_RINGS = [rings.cyclic(m, w) for m in range(2, 9) for w in (1, -1) if w == 1 or m % 2 == 0] + [rings.laurent()]


@settings(max_examples=80)
@given(st.sampled_from(GROUP_RINGS), st.integers(1, 9), seeds,
       st.sampled_from(["unit", "non-unit", "augmentation", "singular", "dense"]))
def test_group_ring_invertibility_matches_the_old_paths(ring, n, seed, kind):
    m = group_ring_draw(random.Random(seed), ring, n, kind)
    assert outcome(mx.is_unimodular, m) == outcome(frozen_is_unimodular, m)
    assert outcome(mx.try_inverse, m) == outcome(frozen_try_inverse, m)


@settings(max_examples=150)
@given(st.integers(1, 10), seeds, st.sampled_from(["unit", "wide", "non-unit", "augmentation", "singular", "dense"]),
       st.sampled_from([mx.MAX_ELIMINATION_SIZE, 2 ** 10]))
def test_laurent_invertibility_matches_the_product_checked_path(n, seed, kind, cap):
    """Laurent inverses certified on the packed ints against the path that checked each by
    m m^-1 = I; "wide" units' larger coefficients send some to the product check past the
    bound, and the lower cap brings in refusals."""
    rng = random.Random(seed)
    m = wide_unit(rng, n, 4) if kind == "wide" else group_ring_draw(rng, rings.laurent(), n, kind)
    with mock.patch.object(mx, "MAX_ELIMINATION_SIZE", cap):
        assert outcome(mx.is_unimodular, m) == outcome(frozen_is_unimodular, m)
        assert outcome(mx.try_inverse, m) == outcome(frozen_try_inverse, m)


# -- one Smith form per complex, one elimination per trivializer, one split-to-quadratic constructor
#    (frozen copies of the code that built or tested each fact twice)

def frozen_complex_violations(c, witness=None):
    out = []
    eps = c.epsilon
    chain = c.d.mul(c.psi0).add(c.psi1).add(c.psi1.star().scale_int(-eps))
    if not chain.is_zero():
        out.append("chain condition d·psi0 + psi1 + (-1)^(n+1)·psi1' != 0")
    inc = cx.duality_inclusion(c)
    pi = cx.duality_projection(c)
    if not pi.mul(inc).is_zero():
        out.append("duality composite pi·incl != 0")
    if c.ring.kind == "Z" and witness is None:
        if c.rank_top != c.rank_bottom:
            out.append("rank balance fails: rank C_(n+1) != rank C_n")
        if not mx.is_split_injection(inc):
            out.append("duality inclusion (psi0; d') is not split injective")
        if not mx.is_surjection(pi):
            out.append("duality projection (d, (-1)^n psi0') is not onto")
    else:
        if witness is None:
            raise WrongRingError(
                "duality exactness needs a contraction witness over this ring"
            )
        gamma0, gamma1 = witness
        ident_bot = mx.identity_matrix(c.ring, c.rank_bottom)
        ident_mid = mx.identity_matrix(c.ring, 2 * c.rank_top)
        if not pi.mul(gamma0).sub(ident_bot).is_zero():
            out.append("witness fails pi·gamma0 = 1")
        if not gamma1.mul(inc).sub(mx.identity_matrix(c.ring, inc.cols)).is_zero():
            out.append("witness fails gamma1·incl = 1")
        if not inc.mul(gamma1).add(gamma0.mul(pi)).sub(ident_mid).is_zero():
            out.append("witness fails incl·gamma1 + gamma0·pi = 1")
    return tuple(out)


def frozen_pairing_trivializer(phi):
    pairing = phi.f.star().mul(phi.q.lam).mul(phi.g)
    if not mx.is_unimodular(pairing):
        return None
    return FormIsometry(mx.hstack(phi.f, phi.g.mul(mx.inverse(pairing))))


def frozen_split_to_quadratic(s):
    lam = s.bilinear()
    mu = tuple(rings.q_eps_reduce(s.psi.entry(i, i), s.epsilon) for i in range(s.rank))
    return forms.QuadraticForm(s.ring, s.epsilon, lam, mu)


def frozen_hyperbolic(ring, k, c):
    grid = [[0] * (2 * k) for _ in range(2 * k)]
    for i in range(k):
        grid[i][k + i], grid[k + i][i] = 1, c
    return mx.matrix(ring, grid)


def frozen_unchecked_hyperbolic_quadratic(ring, epsilon, k):
    zero_class = rings.q_eps_reduce(rings.zero(ring), epsilon)
    q = object.__new__(forms.QuadraticForm)
    for name, value in (("ring", ring), ("epsilon", epsilon), ("lam", frozen_hyperbolic(ring, k, epsilon)),
                        ("mu", (zero_class,) * (2 * k))):
        object.__setattr__(q, name, value)
    return q


def frozen_extend_by_two_bilinears(s, L, jprime=None):
    basis, theta = lagrangians._as_basis(L)
    lam = s.bilinear()
    if not mx.is_unimodular(lam):
        raise SingularMatrixError("hyperbolic extension needs a nonsingular split form")
    if theta is not None:
        lagrangians._check_theta(s, basis, theta)
    ell = basis.cols
    ident = mx.identity_matrix(s.ring, ell)
    pairing = basis.star().mul(lam)
    if jprime is None:
        if s.ring.kind != "Z":
            raise DomainError(
                "splitting not found: supply a jprime witness over this ring"
            )
        if not lagrangians._is_lagrangian(frozen_split_to_quadratic(s), basis, pairing):
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


def frozen_surgery_on_complex(c, s):
    effect = cx.surgery_effect(c, s)
    if c.ring.kind != "Z":
        raise WrongRingError("the trace construction runs over the integers")
    basis = mx.kernel_basis(cx._surgery_surjection(c, s))
    section = mx.solve_right(basis.star(), mx.identity_matrix(c.ring, basis.cols))
    if section is None:
        raise SingularMatrixError("kernel basis admits no retraction; input was inconsistent")
    retraction = section.star()
    inc_c = mx.vstack(
        mx.identity_matrix(c.ring, c.rank_top),
        mx.zero_matrix(c.ring, s.j.rows, c.rank_top),
    )
    j_c = retraction.mul(inc_c)
    dim = basis.cols
    cob = cx.Cobordism(j_c, retraction, mx.zero_matrix(c.ring, dim, dim))
    return effect, cob


def arbitrary_complex(rng, ring, parity, bottom, top, lo=-1, hi=1):
    """d, psi0 and psi1 drawn on their own: mostly neither exact nor chain, and unbalanced
    when bottom != top."""
    return cx.OddComplex(ring, parity, random_matrix(rng, ring, bottom, top, lo, hi),
                         random_matrix(rng, ring, top, bottom, lo, hi), random_matrix(rng, ring, bottom, bottom, lo, hi))


def count_calls(monkeypatch, owner, name):
    calls = []
    real = getattr(owner, name)
    monkeypatch.setattr(owner, name, lambda *a, **k: calls.append(name) or real(*a, **k))
    return calls


RANKS = st.integers(0, 4)


@settings(max_examples=200)
@given(st.integers(0, 1), RANKS, RANKS, st.integers(1, 2), seeds)
def test_the_projection_is_onto_exactly_when_the_inclusion_splits(parity, bottom, top, bound, seed):
    """pi = incl*·[[0, eps*I], [I, 0]]: any complex over Z, valid or not."""
    c = arbitrary_complex(random.Random(seed), Z, parity, bottom, top, -bound, bound)
    assert mx.is_split_injection(cx.duality_inclusion(c)) == mx.is_surjection(cx.duality_projection(c))


@settings(max_examples=120)
@given(st.integers(0, 1), RANKS, RANKS, st.sampled_from(["arbitrary", "valid", "cyclic", "witness"]), seeds)
def test_the_complex_violations_match_the_old_checks(parity, bottom, top, kind, seed):
    """Arbitrary complexes over Z of every shape up to rank 4, valid ones, and complexes
    over Z[Z/m] without a witness or, like a Z complex with one, with a random one."""
    rng = random.Random(seed)
    if kind == "valid":
        c = random_complex(rng, parity, top, rng.randint(1, 2 * top + 1)) if top else cx.zero_complex(Z, parity)
    else:
        ring = rings.cyclic(rng.randint(2, 4)) if kind == "cyclic" else Z
        c = arbitrary_complex(rng, ring, parity, bottom, top)
    witness = None
    if kind == "witness" or (kind == "cyclic" and rng.random() < 0.5):
        witness = (random_matrix(rng, c.ring, 2 * c.rank_top, c.rank_bottom, -1, 1),
                   random_matrix(rng, c.ring, c.rank_bottom, 2 * c.rank_top, -1, 1))
    assert outcome(cx.complex_violations, c, witness) == outcome(frozen_complex_violations, c, witness)


def test_a_complex_over_z_is_decided_by_one_smith_form(monkeypatch):
    rng = random.Random(19)
    complexes = [random_complex(rng, p, k, 3) for p in (0, 1) for k in (1, 3)]
    complexes += [arbitrary_complex(rng, Z, p, b, t) for p in (0, 1) for b in range(4) for t in range(4)]
    calls = count_calls(monkeypatch, _intlat, "smith_normal_form")
    for c in complexes:
        calls.clear()
        cx.complex_violations(c)
        assert len(calls) <= 1


@settings(max_examples=60)
@given(EPS, st.integers(0, 4), st.sampled_from(FORMATION_KINDS), seeds)
def test_the_trivializer_matches_the_determinant_then_inverse(eps, k, kind, seed):
    """Valid formations, trivial or not: G replaced by a lagrangian that meets F (F itself,
    or F mixed by a unimodular) makes the pairing singular."""
    rng = random.Random(seed)
    phi, t = draw_formation(rng, kind, eps, k)
    others = [phi.g, phi.f, phi.f.mul(random_unimodular(rng, Z, k)), t.mul(fm._standard_dual(Z, k))]
    for g in others:
        psi = fm.Formation(Z, eps, phi.q, phi.f, g)
        got, want = outcome(fm.is_trivial_formation, psi), outcome(frozen_pairing_trivializer, psi)
        assert got == want
    random_g = fm.Formation(Z, eps, phi.q, phi.f, random_matrix(rng, Z, 2 * k, k))
    assert outcome(fm.is_trivial_formation, random_g) == outcome(lambda p: frozen_pairing_trivializer(
        fm._validated(p)), random_g)


def frozen_two_product_trivializer(phi):
    pinv = mx.try_inverse(phi.f.star().mul(phi.q.lam).mul(phi.g))
    return None if pinv is None else FormIsometry(mx.hstack(phi.f, phi.g.mul(pinv)))


@settings(max_examples=40)
@given(st.sampled_from(ALL_RINGS), EPS, st.integers(0, 3), seeds)
def test_the_trivializer_reads_the_pairing_off_g_on_the_standard_summand(ring, eps, k, seed):
    """F the standard summand of the standard hyperbolic form, with G the dual summand
    mixed, or a random draw; and the two-product pairing where F or the form is another."""
    rng = random.Random(seed)
    h = forms.hyperbolic_quadratic(ring, eps, k)
    standard, dual = fm._standard_f(ring, k), fm._standard_dual(ring, k)
    gs = [dual.mul(random_unimodular(rng, ring, k)), random_matrix(rng, ring, 2 * k, k, -1, 1),
          dual.add(standard.mul(hessian_corner(rng, ring, k, eps)))]
    fs = [standard, standard.mul(random_unimodular(rng, ring, k)), dual]
    for q in (h, forms.negate(h)):
        for f in fs:
            for g in gs:
                phi = fm.Formation(ring, eps, q, f, g)
                got, want = outcome(fm._trivializer, phi), outcome(frozen_two_product_trivializer, phi)
                assert got == want
                assert got is None or isinstance(got, tuple) or got.f.entries == want.f.entries


def test_the_trivializer_of_a_standard_formation_makes_one_product(monkeypatch):
    """G·P^-1 alone: P is read off G, on the formations of automorphisms as on the
    formations that the rank ladder's verbs read."""
    rng = random.Random(26)
    formations = [fm.formation_from_automorphism(random_word(rng, eps, k, 2 * k + 1)) for eps in (1, -1)
                  for k in (1, 3, 5)] + [fm.trivial_formation(Z, eps, 3) for eps in (1, -1)]
    assert any(fm._trivializer(phi) is not None for phi in formations)
    products = count_calls(monkeypatch, mx.FormMatrix, "mul")
    for phi in formations:
        products.clear()
        triv = fm._trivializer(phi)
        assert len(products) == (0 if triv is None else 1)


def test_the_trivializer_runs_one_elimination(monkeypatch):
    rng = random.Random(20)
    formations = [draw_formation(rng, kind, eps, 3)[0] for kind in FORMATION_KINDS for eps in (1, -1)]
    formations += [fm.trivial_formation(Z, eps, 3) for eps in (1, -1)]
    assert any(fm._trivializer(phi) is None for phi in formations)
    assert any(fm._trivializer(phi) is not None for phi in formations)
    calls = count_calls(monkeypatch, _intlat, "bareiss")
    for phi in formations:
        calls.clear()
        fm._trivializer(phi)
        assert calls == ["bareiss"]


@settings(max_examples=80)
@given(st.sampled_from(ALL_RINGS), EPS, st.integers(0, 4), seeds)
def test_split_to_quadratic_matches_the_checked_construction(ring, eps, k, seed):
    rng = random.Random(seed)
    s = forms.SplitForm(ring, eps, random_matrix(rng, ring, k, k))
    assert outcome(forms.split_to_quadratic, s) == outcome(frozen_split_to_quadratic, s)
    # a psi over another ring than the form's: the split form itself is refused, at every rank
    other = Z if ring != Z else rings.cyclic(3)
    psi = random_matrix(rng, ring, k, k)
    with pytest.raises(WrongRingError, match="^form matrix over another ring than the form's$"):
        forms.SplitForm(other, eps, psi)


@pytest.mark.parametrize("eps", [0, 2, -3])
@pytest.mark.parametrize("ring", ALL_RINGS, ids=str)
def test_split_to_quadratic_refuses_any_other_epsilon_at_every_rank(ring, eps):
    """No split form has such an epsilon: its construction is refused, at every rank."""
    rng = random.Random(21)
    for k in range(4):
        psi = random_matrix(rng, ring, k, k)
        with pytest.raises(DomainError, match="^epsilon must be \\+1 or -1$"):
            forms.split_to_quadratic(forms.SplitForm(ring, eps, psi))


@pytest.mark.parametrize("eps", [1, -1, 2])
@pytest.mark.parametrize("ring", ALL_RINGS, ids=str)
def test_the_hyperbolic_form_matches_its_unchecked_construction(ring, eps):
    for k in range(6):
        got, want = outcome(forms.hyperbolic_quadratic, ring, eps, k), \
            outcome(frozen_unchecked_hyperbolic_quadratic, ring, eps, k)
        assert got == want
        assert isinstance(got, tuple) or got.lam.entries == want.lam.entries


def test_split_to_quadratic_and_the_hyperbolic_form_skip_the_form_checks(monkeypatch):
    rng = random.Random(22)
    splits = [forms.SplitForm(ring, eps, random_matrix(rng, ring, k, k))
              for ring in ALL_RINGS for eps in (1, -1) for k in range(4)]
    calls = count_calls(monkeypatch, forms.QuadraticForm, "__post_init__")
    for s in splits:
        forms.split_to_quadratic(s)
    # An earlier test may have memoized these forms; empty the memo so each is built here.
    forms.hyperbolic_quadratic.memo.cache_clear()
    for ring in ALL_RINGS:
        forms.hyperbolic_quadratic(ring, -1, 3)
    assert forms.hyperbolic_quadratic.memo.cache_info().misses == len(ALL_RINGS)
    assert calls == []


@settings(max_examples=60)
@given(EPS, st.integers(0, 4), seeds)
def test_the_extension_matches_the_one_that_built_lambda_twice(eps, half, seed):
    rng = random.Random(seed)
    s, p = random_split_and_transport(rng, Z, eps, half)
    pinv, rows = mx.inverse(p), range(2 * half)
    for basis in half_rank_bases(rng, pinv, half):
        assert outcome(lagrangians.extend_lagrangian, s, basis) == outcome(frozen_extend_by_two_bilinears, s, basis)
    theta = LagrangianInclusion(pinv.submatrix(rows, range(half)), random_matrix(rng, Z, half, half))
    assert outcome(lagrangians.extend_lagrangian, s, theta) == outcome(frozen_extend_by_two_bilinears, s, theta)
    singular = forms.SplitForm(Z, eps, s.psi.scale_int(2))
    basis = pinv.submatrix(rows, range(half))
    assert outcome(lagrangians.extend_lagrangian, singular, basis) == \
        outcome(frozen_extend_by_two_bilinears, singular, basis)


@settings(max_examples=40)
@given(st.sampled_from(ALL_RINGS), EPS, st.integers(1, 3), seeds)
def test_the_extension_by_a_witness_matches_the_one_that_built_lambda_twice(ring, eps, half, seed):
    rng = random.Random(seed)
    s, p = random_split_and_transport(rng, ring, eps, half)
    pinv, rows = mx.inverse(p), range(2 * half)
    basis = pinv.submatrix(rows, range(half))
    for jprime in (pinv.submatrix(rows, range(half, 2 * half)), pinv.submatrix(rows, range(half))):
        assert outcome(lagrangians.extend_lagrangian, s, basis, jprime) == \
            outcome(frozen_extend_by_two_bilinears, s, basis, jprime)
    assert outcome(lagrangians.extend_lagrangian, s, basis) == outcome(frozen_extend_by_two_bilinears, s, basis)


def test_the_extension_builds_lambda_once_and_checks_no_form(monkeypatch):
    rng = random.Random(23)
    s, p = random_split_and_transport(rng, Z, -1, 3)
    basis = mx.inverse(p).submatrix(range(6), range(3))
    bilinear = count_calls(monkeypatch, forms.SplitForm, "bilinear")
    checks = count_calls(monkeypatch, forms.QuadraticForm, "__post_init__")
    lagrangians.extend_lagrangian(s, basis)
    assert (len(bilinear), checks) == (1, [])


def test_the_extension_checks_its_inputs_on_the_lambda_it_built_only_when_it_fails(monkeypatch):
    """A lagrangian runs no entry check.  A basis that pairs e_0 with f_0 is split but fails
    the witness; the entry checks then get the one lambda the construction built."""
    rng = random.Random(23)
    s, p = random_split_and_transport(rng, Z, -1, 3)
    pinv = mx.inverse(p)
    built, checked = [], []
    bilinear, entry_checks = forms.SplitForm.bilinear, lagrangians._extension_entry_checks
    monkeypatch.setattr(forms.SplitForm, "bilinear", lambda self: built.append(bilinear(self)) or built[-1])
    monkeypatch.setattr(lagrangians, "_extension_entry_checks",
                        lambda s, q, *rest: checked.append(q.lam) or entry_checks(s, q, *rest))
    form_checks = count_calls(monkeypatch, forms.QuadraticForm, "__post_init__")
    lagrangians.extend_lagrangian(s, pinv.submatrix(range(6), range(3)))
    assert (len(built), checked) == (1, [])
    built.clear()
    with pytest.raises(DomainError, match="^basis is not a lagrangian of the split form$"):
        lagrangians.extend_lagrangian(s, pinv.submatrix(range(6), [0, 3, 1]))
    assert len(built) == len(checked) == 1 and checked[0] is built[0]
    assert form_checks == []


@settings(max_examples=60)
@given(st.integers(0, 1), st.integers(0, 3), st.integers(0, 3), st.sampled_from(["Z", "cyclic"]), seeds)
def test_surgery_on_a_complex_matches_the_old_ring_check(parity, k, m, ring, seed):
    """Valid complexes and random surgery data, admissible or not; over Z[Z/m] the
    surjectivity test refuses the ring before the trace's own check could."""
    rng = random.Random(seed)
    c = random_complex(rng, parity, k, rng.randint(1, 2 * k + 1)) if k else cx.zero_complex(Z, parity)
    if ring == "cyclic":
        cyc = rings.cyclic(rng.randint(2, 4))
        c = cx.OddComplex(cyc, parity, *(mx.matrix(cyc, x.to_int_grid()) for x in (c.d, c.psi0, c.psi1)))
    s = cx.SurgeryData(random_matrix(rng, c.ring, m, k, -1, 1), random_matrix(rng, c.ring, m, m, -1, 1))
    assert outcome(cx.surgery_on_complex, c, s) == outcome(frozen_surgery_on_complex, c, s)
