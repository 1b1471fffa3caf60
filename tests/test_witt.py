"""Signature, Arf, and the stable class of a nonsingular form."""

import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from surgery_algebra import _intlat, complexes, formations, forms, generators, lagrangians, matrices as mx
from surgery_algebra import plumbing, rings, witt
from surgery_algebra.errors import DomainError, PreconditionError, SchemaError, SingularMatrixError, WrongRingError
from surgery_algebra.forms import (
    FormIsometry,
    direct_sum,
    hyperbolic_quadratic,
    mu_value,
    negate,
    quadratic_form,
    symmetric_form,
)
from surgery_algebra.lagrangians import surgery_on_form
from surgery_algebra.witt import WittClass, arf, signature, witt_class

from conftest import random_split, random_unimodular
from test_forms import arf_form
from test_closed_forms import outcome
from test_matrices import E8_ROWS

Z = rings.integers()


# -- the integer symplectic basis, the reference for the mod-2 Arf invariant ----


def _symplectic_pairs(g: list[list[int]]) -> list[list[int]]:
    """Grid B with columns u_1..u_m, v_1..v_m and B'·g·B = [[0, I], [-I, 0]].

    Each level pairs u = e_1 with a v solving row 1 of g against 1.  The rows
    u'g and v'g cut out the orthogonal complement of the pair, with primitive
    kernel basis comp, and the next level's live block is its Gram matrix
    comp'·g·comp, two ranks smaller.  The deeper pairs come back as the
    columns of S in comp's coordinates, so one product comp·S lifts them all
    to the original coordinates.
    """
    k = len(g)
    if k == 0:
        return []
    if k % 2 == 1:
        raise SingularMatrixError("an odd-rank antisymmetric form is singular")
    sol = _intlat.solve([g[0]], [[1]])
    if sol is None:
        raise SingularMatrixError("no vector pairs to a unit: the form is not unimodular")
    v = [x for (x,) in sol]
    comp = _intlat.kernel_basis([g[0], _intlat.matmul([v], g)[0]])
    sub = _intlat.matmul(_intlat.transpose(comp), _intlat.matmul(g, comp))
    lifted = _intlat.matmul(comp, _symplectic_pairs(sub))
    h = k // 2 - 1
    return [[int(r == 0)] + lifted[r][:h] + [v[r]] + lifted[r][h:] for r in range(k)]


def symplectic_basis(form) -> mx.FormMatrix:
    """Change of basis B with B'·lambda·B = [[0, I], [-I, 0]].

    Column i pairs with column i+m to the value 1.  Requires a unimodular
    antisymmetric form over the integers.  This is the O(k^4) integer basis,
    one Smith form and k x k products per pair, whose entries grow with the
    rank.  Nothing in the package needs the basis itself, so it lives here as
    the reference for the mod-2 Arf invariant, ``witt._arf_mod2``.
    """
    grid = witt._int_symmetric(form, -1, "the symplectic basis")
    if not _intlat.is_unimodular(grid):
        raise SingularMatrixError("the symplectic basis needs a unimodular form")
    return mx.int_matrix(_symplectic_pairs(grid))


def e8_quadratic():
    return quadratic_form(Z, 1, E8_ROWS, [1] * 8)


def brute_arf(q):
    """Democratic count over the mod-2 reduction: N_0 = 2^(2m-1) + 2^(m-1)(-1)^arf."""
    k = q.rank
    m = k // 2
    lam = q.lam.to_int_grid()
    mu = [0 if rings.class_is_zero(c) else 1 for c in q.mu]
    n0 = 0
    for x in itertools.product((0, 1), repeat=k):
        val = sum(x[i] * mu[i] for i in range(k))
        val += sum(x[i] * x[j] * lam[i][j] for i in range(k) for j in range(i + 1, k))
        n0 += (val % 2 == 0)
    assert n0 in (2 ** (2 * m - 1) + 2 ** (m - 1), 2 ** (2 * m - 1) - 2 ** (m - 1))
    return 0 if n0 > 2 ** (2 * m - 1) else 1


def transported(q, p):
    return quadratic_form(q.ring, q.epsilon, p.star().mul(q.lam).mul(p),
                          [mu_value(q, p.column(j)) for j in range(p.cols)])


def test_signature_values():
    assert signature(symmetric_form(Z, 1, [[1]])) == 1
    assert signature(e8_quadratic()) == 8
    assert signature(hyperbolic_quadratic(Z, 1, 1)) == 0
    assert signature(negate(e8_quadratic())) == -8
    assert signature(symmetric_form(Z, 1, [[1, 0, 0], [0, 1, 0], [0, 0, -1]])) == 1
    with pytest.raises(SingularMatrixError):
        signature(symmetric_form(Z, 1, [[0]]))


def test_signature_is_additive():
    rng = random.Random(21)
    pieces = [(e8_quadratic(), 8), (negate(e8_quadratic()), -8),
              (hyperbolic_quadratic(Z, 1, 2), 0)]
    for _ in range(10):
        a = rng.choice(pieces)
        b = rng.choice(pieces)
        assert signature(direct_sum(a[0], b[0])) == a[1] + b[1]


def test_symplectic_basis():
    std = symmetric_form(Z, -1, [[0, 1], [-1, 0]])
    assert symplectic_basis(std) == mx.identity_matrix(Z, 2)

    interleaved = symmetric_form(Z, -1, [[0, 1, 0, 0], [-1, 0, 0, 0],
                                         [0, 0, 0, 1], [0, 0, -1, 0]])
    b = symplectic_basis(interleaved)
    assert b.star().mul(interleaved.lam).mul(b).to_int_grid() == [
        [0, 0, 1, 0], [0, 0, 0, 1], [-1, 0, 0, 0], [0, -1, 0, 0]]

    with pytest.raises(SingularMatrixError):
        symplectic_basis(symmetric_form(Z, -1, [[0, 3], [-3, 0]]))


def test_arf_values():
    assert arf(hyperbolic_quadratic(Z, -1, 1)) == 0
    assert arf(arf_form()) == 1
    assert arf(direct_sum(arf_form(), arf_form())) == 0


def test_arf_matches_the_counting_oracle():
    rng = random.Random(22)
    for _ in range(30):
        base = hyperbolic_quadratic(Z, -1, rng.randint(1, 2))
        if rng.random() < 0.5:
            base = direct_sum(base, arf_form())
        q = transported(base, random_unimodular(rng, Z, base.rank))
        assert arf(q) == brute_arf(q)


def test_arf_is_an_isometry_invariant():
    rng = random.Random(23)
    for base in (hyperbolic_quadratic(Z, -1, 2), direct_sum(arf_form(), hyperbolic_quadratic(Z, -1, 1))):
        want = arf(base)
        for _ in range(15):
            p = random_unimodular(rng, Z, base.rank)
            moved = transported(base, p)
            assert forms.is_isometry(FormIsometry(p), moved, base)
            assert arf(moved) == want


def test_witt_class_values():
    assert witt_class(e8_quadratic()) == WittClass(1, 1)
    assert witt_class(hyperbolic_quadratic(Z, -1, 3)) == WittClass(-1, 0)
    assert witt_class(arf_form()) == WittClass(-1, 1)
    for q in (e8_quadratic(), arf_form()):
        assert witt_class(direct_sum(q, negate(q))).value == 0


@pytest.mark.parametrize("half", [0, 1, 3, 8])
def test_the_antisymmetric_witt_class_eliminates_once(half, monkeypatch):
    rng = random.Random(40 + half)
    base = direct_sum(arf_form(), hyperbolic_quadratic(Z, -1, half))
    q = transported(base, random_unimodular(rng, Z, base.rank))
    calls = []
    bareiss = _intlat.bareiss
    monkeypatch.setattr(_intlat, "bareiss", lambda a, b: calls.append(len(a)) or bareiss(a, b))
    assert witt_class(q) == WittClass(-1, 1)
    assert calls == [q.rank]
    # the public arf keeps its own nonsingularity test
    assert arf(q) == 1 and calls == [q.rank, q.rank]


def test_stable_hyperbolicity():
    assert witt_class(e8_quadratic()).value != 0
    assert witt_class(hyperbolic_quadratic(Z, 1, 2)).value == 0
    assert witt_class(arf_form()).value != 0


def test_witt_class_survives_surgery():
    q = direct_sum(e8_quadratic(), hyperbolic_quadratic(Z, 1, 1))
    out = surgery_on_form(q, [0] * 8 + [1, 0])
    assert out.rank == 8
    assert witt_class(out) == witt_class(q) == WittClass(1, 1)

    rng = random.Random(24)
    for _ in range(10):
        p = random_unimodular(rng, Z, 4)
        moved = transported(hyperbolic_quadratic(Z, -1, 2), p)
        x = mx.inverse(p).submatrix(range(4), range(1))
        assert witt_class(surgery_on_form(moved, x)) == witt_class(moved)


def fraction_signature(grid):
    """The signature as it was computed before: congruence steps over the rationals."""
    k = len(grid)
    g = [[Fraction(x) for x in row] for row in grid]
    live = list(range(k))
    sig = 0
    while live:
        p = live[0]
        if g[p][p] == 0:
            j = next((c for c in live[1:] if g[p][c] != 0), None)
            if j is None:
                raise SingularMatrixError("signature needs a nonsingular form")
            for t in (1, -1):
                if g[p][p] + 2 * t * g[p][j] + g[j][j] != 0:
                    break
            for r in live:
                g[r][p] += t * g[r][j]
            for c in live:
                g[p][c] += t * g[j][c]
        d = g[p][p]
        sig += 1 if d > 0 else -1
        live = live[1:]
        for r in live:
            if g[r][p] == 0:
                continue
            f = g[r][p] / d
            for c in live:
                g[r][c] -= f * g[p][c]
            g[r][p] = Fraction(0)
        for c in live:
            g[p][c] = Fraction(0)
    return sig


@st.composite
def symmetric_grids(draw):
    """Symmetric integer grids, often with zero diagonal entries and often singular."""
    n = draw(st.integers(0, 9))
    entries = st.integers(-3, 3)
    g = [[0] * n for _ in range(n)]
    for i in range(n):
        g[i][i] = draw(st.just(0) | entries)
        for j in range(i + 1, n):
            g[i][j] = g[j][i] = draw(entries)
    return g


@settings(max_examples=300)
@given(symmetric_grids())
def test_signature_matches_the_rational_diagonalisation(grid):
    try:
        want = fraction_signature(grid)
    except SingularMatrixError:
        with pytest.raises(SingularMatrixError):
            signature(mx.int_matrix(grid))
        return
    assert signature(mx.int_matrix(grid)) == want


def test_signature_repairs_zero_pivots_fraction_free():
    # a zero first pivot; then Bareiss pivots 2, -1, -4, where the last is a
    # positive rational pivot because the one before it is negative
    assert signature(mx.int_matrix([[0, 1], [1, 0]])) == 0
    assert signature(mx.int_matrix([[2, 1, 0], [1, 0, 1], [0, 1, 2]])) == 1
    assert signature(mx.int_matrix([[0, 2, 1], [2, 0, 1], [1, 1, 0]])) == fraction_signature(
        [[0, 2, 1], [2, 0, 1], [1, 1, 0]])
    big = direct_sum(transported(e8_quadratic(), random_unimodular(random.Random(9), Z, 8, 40)),
                     hyperbolic_quadratic(Z, 1, 12))
    assert signature(big) == fraction_signature(big.lam.to_int_grid()) == 8


def drawn_symmetric(rng):
    """A transported nonsingular even form: E8, -E8, a hyperbolic plane or a random split form."""
    base = rng.choice([e8_quadratic, lambda: negate(e8_quadratic()),
                       lambda: hyperbolic_quadratic(Z, 1, 1),
                       lambda: forms.split_to_quadratic(random_split(rng, Z, 1, rng.randint(1, 2)))])()
    return transported(base, random_unimodular(rng, Z, base.rank))


def assert_hyperbolic_with_the_diagonal(q):
    """q + (-q) is stably hyperbolic, and its diagonal is a lagrangian that witnesses it."""
    s = direct_sum(q, negate(q))
    assert witt_class(s).value == 0
    assert lagrangians.is_lagrangian(s, mx.vstack(mx.identity_matrix(Z, q.rank), mx.identity_matrix(Z, q.rank)))


def assert_boundary_is_trivial(q):
    """The boundary formation of a nonsingular form is trivial, with the isometry checked."""
    phi = formations.boundary_formation(q)
    iso = formations.is_trivial_formation(phi)
    assert iso is not None
    trivial = formations.trivial_formation(Z, phi.epsilon, q.rank)
    assert formations.verify_formation_isomorphism(trivial, phi, iso.f)


def drawn_antisymmetric(rng):
    """A transported nonsingular (-1)-quadratic form, of Arf invariant 0 or 1."""
    base = rng.choice([arf_form, lambda: hyperbolic_quadratic(Z, -1, 1),
                       lambda: forms.split_to_quadratic(random_split(rng, Z, -1, rng.randint(1, 2)))])()
    return transported(base, random_unimodular(rng, Z, base.rank))


seeds = st.integers(0, 2**32)


@settings(max_examples=25)
@given(seeds)
def test_symmetric_witt_invariants_on_drawn_forms(seed):
    rng = random.Random(seed)
    a, b = drawn_symmetric(rng), drawn_symmetric(rng)
    assert signature(direct_sum(a, b)) == signature(a) + signature(b)
    assert signature(negate(a)) == -signature(a)
    assert_hyperbolic_with_the_diagonal(a)
    assert_boundary_is_trivial(a)


@settings(max_examples=25)
@given(seeds)
def test_antisymmetric_witt_invariants_on_drawn_forms(seed):
    rng = random.Random(seed)
    a, b = drawn_antisymmetric(rng), drawn_antisymmetric(rng)
    assert arf(direct_sum(a, b)) == (arf(a) + arf(b)) % 2
    assert arf(negate(a)) == arf(a)
    assert_hyperbolic_with_the_diagonal(a)
    assert_boundary_is_trivial(a)


def frozen_symplectic_pairs(g):
    """The recursion that lifted each deeper vector by its own sum, frozen here."""
    k = len(g)
    if k == 0:
        return []
    row = [g[0][c] for c in range(k)]
    sol = _intlat.solve([row], [[1]])
    u = [1 if r == 0 else 0 for r in range(k)]
    v = [sol[r][0] for r in range(k)]
    vg = [sum(v[r] * g[r][c] for r in range(k)) for c in range(k)]
    comp = _intlat.kernel_basis([row, vg])
    sub = _intlat.matmul(_intlat.transpose(comp), _intlat.matmul(g, comp))

    def lift(x):
        return [sum(comp[r][i] * x[i] for i in range(len(x))) for r in range(k)]

    pairs = [(u, v)]
    for su, sv in frozen_symplectic_pairs(sub):
        pairs.append((lift(su), lift(sv)))
    return pairs


@pytest.mark.parametrize("half", range(1, 17))
def test_one_product_per_level_lifts_the_symplectic_pairs_as_before(half):
    rng = random.Random(500 + half)
    hyp = hyperbolic_quadratic(Z, -1, half)
    q = transported(hyp, random_unimodular(rng, Z, 2 * half))
    pairs = frozen_symplectic_pairs(q.lam.to_int_grid())
    cols = [u for u, _ in pairs] + [v for _, v in pairs]
    b = symplectic_basis(q)
    assert b.to_int_grid() == [[c[i] for c in cols] for i in range(2 * half)]
    assert b.star().mul(q.lam).mul(b) == hyp.lam


# -- each invariant from one elimination, against the code it replaced ----------


def frozen_signature(grid):
    """The fraction-free signature that ran its own pass beside a Bareiss determinant, frozen here."""
    g = [row[:] for row in grid]
    live = list(range(len(g)))
    sig, prev = 0, 1
    while live:
        p = live[0]
        if g[p][p] == 0:
            j = next((c for c in live[1:] if g[p][c] != 0), None)
            if j is None:
                raise SingularMatrixError("signature needs a nonsingular form")
            for t in (1, -1):
                if g[p][p] + 2 * t * g[p][j] + g[j][j] != 0:
                    break
            for r in live:
                g[r][p] += t * g[r][j]
            for c in live:
                g[p][c] += t * g[j][c]
        d = g[p][p]
        sig += 1 if (d > 0) == (prev > 0) else -1
        live = live[1:]
        gp = g[p]
        for r in live:
            gr, grp = g[r], g[r][p]
            for c in live:
                gr[c] = (d * gr[c] - grp * gp[c]) // prev
        prev = d
    return sig


@settings(max_examples=300)
@given(symmetric_grids())
def test_one_pass_gives_the_old_signature_and_the_determinant(grid):
    n = len(grid)
    sig, det = witt.signature_and_det(mx.int_matrix(grid))
    assert abs(det) == abs(_intlat.bareiss(grid, [[]] * n)[0])
    try:
        want = frozen_signature(grid)
    except SingularMatrixError:
        assert det == 0
        with pytest.raises(SingularMatrixError, match="^signature needs a nonsingular form$"):
            signature(mx.int_matrix(grid))
        return
    assert signature(mx.int_matrix(grid)) == sig == want
    # the sign of det lambda is (-1)^(negative count)
    assert det * (-1) ** ((n - sig) // 2) > 0


def frozen_arf(q):
    """The Arf invariant read off the integer symplectic basis, frozen here."""
    b = symplectic_basis(q)
    m = b.cols // 2
    bits = [0 if rings.class_is_zero(v) else 1 for v in forms.mu_values(q, b)]
    return sum(bits[i] * bits[i + m] for i in range(m)) % 2


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 8), st.integers(0, 2**32))
def test_the_mod_2_arf_matches_the_symplectic_basis(half, seed):
    rng = random.Random(seed)
    p = random_unimodular(rng, Z, 2 * half)
    lam = p.star().mul(hyperbolic_quadratic(Z, -1, half).lam).mul(p)
    q = quadratic_form(Z, -1, lam, [rng.randint(0, 1) for _ in range(2 * half)])
    assert arf(q) == witt_class(q).value == frozen_arf(q)


def test_the_symmetric_witt_class_reads_det_off_the_signature_pass(monkeypatch):
    big = transported(e8_quadratic(), random_unimodular(random.Random(41), Z, 8))
    monkeypatch.setattr(_intlat, "bareiss", lambda a, b: pytest.fail("bareiss was called"))
    assert witt_class(big) == WittClass(1, 1)
    with pytest.raises(SingularMatrixError, match="^witt class needs a nonsingular form$"):
        witt_class(quadratic_form(Z, 1, [[2, 2], [2, 2]], [1, 1]))


def test_witt_class_and_arf_never_build_the_symplectic_basis(monkeypatch):
    q = transported(direct_sum(arf_form(), hyperbolic_quadratic(Z, -1, 3)),
                    random_unimodular(random.Random(42), Z, 8))
    assert not hasattr(witt, "_symplectic_pairs") and not hasattr(witt, "symplectic_basis")
    # each level of the basis solves for its v and takes the kernel of the pair's rows
    for name in ("solve", "kernel_basis"):
        monkeypatch.setattr(_intlat, name, lambda *a, name=name: pytest.fail(f"_intlat.{name} was called"))
    assert witt_class(q) == WittClass(-1, 1)
    assert arf(q) == 1


@pytest.mark.parametrize("fn, eps, grid, error", [
    (symplectic_basis, -1, [[0, 1], [1, 0]], PreconditionError),
    (symplectic_basis, -1, [[0, 1]], SchemaError),
    (signature, 1, [[0, 1], [-1, 0]], PreconditionError),
    (witt.signature_and_det, 1, [[1], [2]], SchemaError),
    (witt.signature_and_det, 1, [[1, 2], [3, 1]], PreconditionError),
], ids=["symplectic-symmetric", "symplectic-not-square", "signature-antisymmetric", "det-not-square",
        "det-not-symmetric"])
def test_a_bare_matrix_is_refused_as_a_symmetric_form_refuses_it(fn, eps, grid, error):
    m = mx.int_matrix(grid)
    got = outcome(fn, m)
    assert got[0] is error and got == outcome(forms.SymmetricForm, Z, eps, m)


def test_a_bare_matrix_that_is_a_form_is_still_answered():
    assert signature(mx.int_matrix(E8_ROWS)) == 8
    g = mx.int_matrix([[0, 1], [-1, 0]])
    b = symplectic_basis(g)
    assert b.star().mul(g).mul(b) == g


def test_arf_names_itself_in_its_errors():
    cases = [(quadratic_form(Z, -1, [[0, 2], [-2, 0]], [0, 0]), SingularMatrixError, "needs a unimodular form"),
             (hyperbolic_quadratic(Z, 1, 1), DomainError, "needs epsilon = -1, got +1"),
             (hyperbolic_quadratic(rings.cyclic(3), -1, 1), WrongRingError, "is only computed over the integers")]
    for q, error, tail in cases:
        assert outcome(arf, q) == (error, "the Arf invariant " + tail)
        assert outcome(symplectic_basis, q) == (error, "the symplectic basis " + tail)


@pytest.mark.parametrize("eps", [0, 2, -3])
def test_a_witt_class_refuses_any_other_epsilon_as_the_forms_do(eps):
    for value in (0, 1, 5):
        with pytest.raises(DomainError, match=r"^epsilon must be \+1 or -1$") as exc:
            WittClass(eps, value)
        assert exc.type is DomainError
    with pytest.raises(SchemaError, match="^the antisymmetric class is a single bit$"):
        WittClass(-1, 2)


# -- one error for "only over the integers" ---------------------------------------------


@pytest.mark.parametrize("ring", [rings.cyclic(2), rings.laurent()], ids=str)
@pytest.mark.parametrize("name", ["formation_homology", "boundary_homology", "complex_homology",
                                  "union_cobordisms", "signature", "arf", "witt_class"])
def test_every_integers_only_entry_point_refuses_another_ring_with_a_wrong_ring_error(ring, name):
    zero = complexes.zero_complex(ring, 0)
    none = mx.zero_matrix(ring, 0, 0)
    calls = {
        "formation_homology": lambda: formations.formation_homology(formations.trivial_formation(ring, 1, 1)),
        "boundary_homology": lambda: plumbing.boundary_homology(hyperbolic_quadratic(ring, 1, 1)),
        "complex_homology": lambda: complexes.complex_homology(complexes.odd_complex(ring, 0, [[0]], [[1]], [[0]])),
        "union_cobordisms": lambda: complexes.union_cobordisms(zero, zero, zero, *[complexes.Cobordism(none, none, none)] * 2),
        "signature": lambda: signature(hyperbolic_quadratic(ring, 1, 1)),
        "arf": lambda: arf(hyperbolic_quadratic(ring, -1, 1)),
        "witt_class": lambda: witt_class(hyperbolic_quadratic(ring, 1, 1)),
    }
    with pytest.raises(WrongRingError, match="over the integers$") as err:
        calls[name]()
    assert err.type is WrongRingError


# -- laws of the Witt class over Z -----------------------------------------------------


def witt_base(rng, eps):
    """(k, H_eps(k) + X) for k = 1..3, with X nothing, E8 or -E8 at eps = +1 and nothing
    or the Arf form at eps = -1; the hyperbolic block comes first, so e_1 .. e_k span a
    lagrangian of it."""
    k = rng.randint(1, 3)
    extras = [None, e8_quadratic, lambda: negate(e8_quadratic())] if eps == 1 else [None, arf_form]
    extra = rng.choice(extras)
    h = hyperbolic_quadratic(Z, eps, k)
    return k, h if extra is None else direct_sum(h, extra())


def witt_sum(eps, a, b):
    """The class of a direct sum: the signatures add at eps = +1, the Arf bits at eps = -1."""
    return a.value + b.value if eps == 1 else a.value ^ b.value


@settings(max_examples=100, deadline=None)
@given(seed=seeds)
@pytest.mark.parametrize("eps", [1, -1])
def test_the_witt_class_laws_over_the_integers(eps, seed):
    rng = random.Random(seed)
    k, q = witt_base(rng, eps)
    want = witt_class(q)
    assert witt_class(hyperbolic_quadratic(Z, eps, k)).value == 0
    # transported along shears P, with a coboundary: q' = P* q P, so P x = e_i for x = P^-1 e_i
    p = generators.shears(rng, Z, q.rank, 2 * q.rank)
    s = generators.transport(rng, forms.quadratic_to_split(q), p)
    moved = forms.split_to_quadratic(s)
    assert witt_class(moved) == want
    _, other = witt_base(rng, eps)
    assert witt_class(direct_sum(moved, other)) == WittClass(eps, witt_sum(eps, want, witt_class(other)))
    pinv = mx.inverse(p)
    assert witt_class(surgery_on_form(moved, pinv.column(0))) == want
    r = rng.randint(1, k)
    residual, _ = lagrangians.sublagrangian_reduction(s, pinv.submatrix(range(q.rank), range(r)))
    assert residual.rank == q.rank - 2 * r
    assert witt_class(forms.split_to_quadratic(residual)) == want
