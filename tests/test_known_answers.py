"""Work skipped where the operands already give the answer: products with I, sums with
a matrix that keeps no grids, the builders that draw straight into int grids and the
memoized hyperbolic forms, against verbatim copies of the code they replaced."""

import operator
import random

import pytest
from hypothesis import given, settings, strategies as st

from surgery_algebra import _intlat, acceptance, forms, generators, matrices as mx, rings
from surgery_algebra.errors import SchemaError, WrongRingError
from surgery_algebra.forms import SplitForm
from surgery_algebra.matrices import FormMatrix

from test_checked_once import count_calls
from test_closed_forms import ALL_RINGS

Z = rings.integers()
seeds = st.integers(0, 2**32)


# -- frozen copies of the code as it was ----------------------------------------

def frozen_zip(self, other, op):
    if self.ring != other.ring:
        raise WrongRingError("matrix arithmetic over mixed rings")
    if self.rows != other.rows or self.cols != other.cols:
        raise SchemaError(f"shape mismatch: {self.rows}x{self.cols} vs {other.rows}x{other.cols}")
    grids = {k: [list(map(op, ra, rb)) for ra, rb in zip(mx._grid(self, k), mx._grid(other, k))]
             for k in self._grids.keys() | other._grids.keys()}
    return mx._grid_matrix(self.ring, self.rows, self.cols, grids)


def frozen_mul(self, other):
    if self.ring != other.ring:
        raise WrongRingError("matrix product over mixed rings")
    if self.cols != other.rows:
        raise SchemaError(f"shape mismatch: {self.rows}x{self.cols} times {other.rows}x{other.cols}")
    a, b = self._grids, other._grids
    if not (a and b and self.rows and self.cols and other.cols):
        return mx.zero_matrix(self.ring, self.rows, other.cols)
    if len(a) == 1 and len(b) == 1:
        (p, ga), = a.items()
        (q, gb), = b.items()
        return mx._collect(self.ring, self.rows, other.cols, [(p + q, _intlat.matmul(ga, gb))])
    lo_a, lo_b = min(a), min(b)
    width = mx._width(mx._max_abs(a.values()) * mx._max_abs(b.values()) * self.cols * min(len(a), len(b)))
    prod = _intlat.matmul(mx._pack(a, [lo_a] * self.rows, width, self.cols),
                          mx._pack(b, [lo_b] * other.rows, width, other.cols))
    return mx._collect(self.ring, self.rows, other.cols, mx._unpack(prod, width, lo_a + lo_b).items())


def frozen_matrix(rng, ring, rows, cols, lo=-2, hi=2):
    return FormMatrix(ring, rows, cols, [[generators.element(rng, ring, lo, hi) for _ in range(cols)]
                                         for _ in range(rows)])


def frozen_element(rng, ring, lo=-2, hi=2):
    if ring.kind == "Z":
        return rings.from_int(ring, rng.randint(lo, hi))
    out = rings.zero(ring)
    for k in range(ring.m) if ring.kind == "cyclic" else (-1, 0, 1):
        out = rings.add(out, rings.monomial(ring, k, rng.randint(lo, hi)))
    return out


def frozen_shears(rng, ring, k, steps):
    p = mx.identity_matrix(ring, k)
    for _ in range(steps):
        i, j = rng.randrange(k), rng.randrange(k)
        if i != j:
            rows = [[1 if r == c else 0 for c in range(k)] for r in range(k)]
            rows[i][j] = rng.randint(-2, 2)
            p = frozen_mul(p, mx.matrix(ring, rows))
    return p


def frozen_hyperbolic_split(ring, epsilon, k):
    if k < 0:
        raise SchemaError(f"hyperbolic_split: k must be at least 0, got {k}")
    grid = [[0] * (2 * k) for _ in range(2 * k)]
    for i in range(k):
        grid[i][k + i] = 1
    return SplitForm(ring, epsilon, mx.matrix(ring, grid))


def frozen_hyperbolic_quadratic(ring, epsilon, k):
    return forms.split_to_quadratic(frozen_hyperbolic_split(ring, epsilon, k))


def outcome(fn, *args):
    """fn(*args), or the type and message of whatever it raises (the builders raise
    random's ValueError on an empty range)."""
    try:
        return fn(*args)
    except Exception as e:  # noqa: BLE001 - the exception itself is what is compared
        return type(e), str(e)


# -- operands ---------------------------------------------------------------------

def near_identities(ring, n):
    """Matrices that look like I and are not: I with one more entry, a permutation,
    -I, and over the group rings g·I and (1 + g)·I (z for g over Z[z,z^-1])."""
    out = []
    if n >= 2:
        extra = _intlat.identity(n)
        extra[0][n - 1] = 1
        perm = _intlat.identity(n)
        perm[0], perm[1] = perm[1], perm[0]
        out += [extra, perm]
    if n >= 1:
        out.append([[-x for x in row] for row in _intlat.identity(n)])
    out = [mx._grid_matrix(ring, n, n, {0: g}) for g in out]
    if n >= 1 and ring.kind != "Z":
        out += [mx._grid_matrix(ring, n, n, {1: _intlat.identity(n)}),
                mx._grid_matrix(ring, n, n, {0: _intlat.identity(n), 1: _intlat.identity(n)})]
    return out


def operands(rng, ring, rows, cols):
    """A random rows x cols matrix, the zero matrix with no grids and with a zero grid,
    and, when square, I and the near-identities."""
    out = [generators.matrix(rng, ring, rows, cols), mx.zero_matrix(ring, rows, cols),
           mx._grid_matrix(ring, rows, cols, {0: _intlat.zeros(rows, cols)})]
    if rows == cols:
        out += [mx.identity_matrix(ring, rows)] + near_identities(ring, rows)
    return out


DIMS = st.integers(0, 4)


@settings(max_examples=60)
@given(st.sampled_from(ALL_RINGS), DIMS, DIMS, DIMS, seeds)
def test_products_match_the_old_product(ring, rows, inner, cols, seed):
    """Identity, zero and near-identity factors on either side, every shape with 0."""
    rng = random.Random(seed)
    for a in operands(rng, ring, rows, inner):
        for b in operands(rng, ring, inner, cols):
            assert a.mul(b) == frozen_mul(a, b)


@settings(max_examples=60)
@given(st.sampled_from(ALL_RINGS), DIMS, DIMS, seeds)
def test_sums_and_differences_match_the_old_ones(ring, rows, cols, seed):
    rng = random.Random(seed)
    for a in operands(rng, ring, rows, cols):
        for b in operands(rng, ring, rows, cols):
            assert a.add(b) == frozen_zip(a, b, operator.add)
            assert a.sub(b) == frozen_zip(a, b, operator.sub)


@pytest.mark.parametrize("ring", ALL_RINGS, ids=str)
def test_identity_and_zero_operands_give_the_other_operand_itself(ring):
    rng = random.Random(1)
    for n in range(1, 5):  # at n = 0 the draw is I as well
        a, ident, zero = generators.matrix(rng, ring, n, n), mx.identity_matrix(ring, n), mx.zero_matrix(ring, n, n)
        assert ident.mul(a) is a and a.mul(ident) is a
        assert a.add(zero) is a and a.sub(zero) is a
        for near in near_identities(ring, n):
            assert not mx._is_identity(near)
            assert near.mul(a) is not a and a.mul(near) is not a


@pytest.mark.parametrize("ring", ALL_RINGS, ids=str)
def test_a_gridless_left_summand_gives_the_right_one_itself(ring):
    """0 + x is x itself; 0 - x is -x; the ring error comes before the shape error, and
    each names the operands in their order."""
    rng = random.Random(3)
    for rows, cols in ((1, 1), (2, 3), (4, 4)):
        a, zero = generators.matrix(rng, ring, rows, cols), mx.zero_matrix(ring, rows, cols)
        assert not a.is_zero()
        assert zero.add(a) is a and a.add(zero) is a
        assert zero.sub(a) is not a and zero.sub(a) == a.neg() == frozen_zip(zero, a, operator.sub)
    other = Z if ring != Z else rings.cyclic(3)
    zero, a = mx.zero_matrix(ring, 2, 3), generators.matrix(rng, ring, 3, 2)
    assert outcome(zero.add, a) == (SchemaError, "shape mismatch: 2x3 vs 3x2")
    assert outcome(a.add, zero) == (SchemaError, "shape mismatch: 3x2 vs 2x3")
    for x, y in ((mx.zero_matrix(other, 2, 3), a), (a, mx.zero_matrix(other, 2, 3)),
                 (mx.zero_matrix(other, 3, 2), a), (a, mx.zero_matrix(other, 3, 2))):
        assert outcome(x.add, y) == outcome(frozen_zip, x, y, operator.add) == \
            (WrongRingError, "matrix arithmetic over mixed rings")


@pytest.mark.parametrize("ring", ALL_RINGS[1:], ids=str)
def test_shortcuts_keep_the_old_ring_and_shape_errors(ring):
    rng = random.Random(2)
    mixed = [(mx.identity_matrix(Z, 2), generators.matrix(rng, ring, 2, 2)),
             (generators.matrix(rng, ring, 2, 2), mx.identity_matrix(Z, 2)),
             (mx.zero_matrix(Z, 2, 2), generators.matrix(rng, ring, 2, 2)),
             (generators.matrix(rng, ring, 2, 2), mx.zero_matrix(Z, 2, 2))]
    shapes = [(mx.identity_matrix(ring, 2), generators.matrix(rng, ring, 3, 2)),
              (generators.matrix(rng, ring, 2, 3), mx.identity_matrix(ring, 2)),
              (mx.zero_matrix(ring, 2, 3), generators.matrix(rng, ring, 3, 2)),
              (generators.matrix(rng, ring, 2, 3), mx.zero_matrix(ring, 3, 2))]
    for a, b in mixed + shapes:
        assert outcome(a.mul, b) == outcome(frozen_mul, a, b)
        assert outcome(a.add, b) == outcome(frozen_zip, a, b, operator.add)
        assert outcome(a.sub, b) == outcome(frozen_zip, a, b, operator.sub)
        assert isinstance(outcome(a.add, b), tuple)


@pytest.mark.parametrize("ring", ALL_RINGS, ids=str)
def test_the_random_matrix_draws_as_it_did(ring):
    """The same matrix, shape and generator state after it; 0 x k stays 0 x k."""
    for rows in range(-1, 4):
        for cols in range(-1, 4):
            for lo, hi in ((-2, 2), (-1, 1), (0, 0), (1, 0)):
                new, old = random.Random(rows * 10 + cols), random.Random(rows * 10 + cols)
                got, want = outcome(generators.matrix, new, ring, rows, cols, lo, hi), \
                    outcome(frozen_matrix, old, ring, rows, cols, lo, hi)
                assert got == want
                assert isinstance(got, tuple) or (got.rows, got.cols) == (rows, cols)
                assert new.getstate() == old.getstate()


@pytest.mark.parametrize("ring", ALL_RINGS, ids=str)
def test_the_random_element_draws_as_it_did(ring):
    """The same element and generator state, as the entry of a 1 x 1 matrix draw."""
    for seed in range(40):
        for lo, hi in ((-2, 2), (-1, 1), (0, 0), (1, 0)):
            new, old = random.Random(seed), random.Random(seed)
            assert outcome(generators.element, new, ring, lo, hi) == outcome(frozen_element, old, ring, lo, hi)
            assert new.getstate() == old.getstate()


@pytest.mark.parametrize("ring", ALL_RINGS, ids=str)
def test_the_shears_draw_as_they_did(ring):
    """The same product and generator state; k = 0 draws nothing or fails as it did."""
    for k in range(-1, 6):
        for steps in range(9):
            new, old = random.Random(k * 100 + steps), random.Random(k * 100 + steps)
            got, want = outcome(generators.shears, new, ring, k, steps), outcome(frozen_shears, old, ring, k, steps)
            assert got == want
            assert new.getstate() == old.getstate()


@pytest.mark.parametrize("eps", [1, -1, 2])
@pytest.mark.parametrize("ring", ALL_RINGS, ids=str)
def test_the_memoized_hyperbolic_forms_match_a_fresh_build(ring, eps):
    """Up to k = 32 a second call returns the same object; beyond it, and on a refusal,
    nothing is kept."""
    for k in [-1, 0, 1, 2, 3, 32, 33]:
        kept = [build.memo.cache_info().currsize for build in (forms.hyperbolic_split, forms.hyperbolic_quadratic)]
        split, quadratic = outcome(forms.hyperbolic_split, ring, eps, k), \
            outcome(forms.hyperbolic_quadratic, ring, eps, k)
        assert split == outcome(frozen_hyperbolic_split, ring, eps, k)
        assert quadratic == outcome(frozen_hyperbolic_quadratic, ring, eps, k)
        memoized = isinstance(split, SplitForm) and k <= 32
        assert (outcome(forms.hyperbolic_split, ring, eps, k) is split) == memoized
        assert (outcome(forms.hyperbolic_quadratic, ring, eps, k) is quadratic) == memoized
        if not memoized:
            assert kept == [build.memo.cache_info().currsize
                            for build in (forms.hyperbolic_split, forms.hyperbolic_quadratic)]


def assert_unchanged(cached, fresh):
    """The same fields and the same stored grids, zero grids included."""
    assert cached == fresh
    for name in ("psi", "lam"):
        if hasattr(fresh, name):
            assert getattr(cached, name)._grids == getattr(fresh, name)._grids


def test_no_caller_of_the_acceptance_suite_changes_a_shared_hyperbolic_form(monkeypatch):
    forms.hyperbolic_split.memo.cache_clear()
    forms.hyperbolic_quadratic.memo.cache_clear()
    keys = {}
    for name in ("hyperbolic_split", "hyperbolic_quadratic"):
        real, seen = getattr(forms, name), keys.setdefault(name, set())
        monkeypatch.setattr(forms, name, lambda *a, real=real, seen=seen: seen.add(a) or real(*a))
    acceptance.run_all()
    monkeypatch.undo()
    assert len(keys["hyperbolic_split"]) == forms.hyperbolic_split.memo.cache_info().currsize >= 16
    assert len(keys["hyperbolic_quadratic"]) == forms.hyperbolic_quadratic.memo.cache_info().currsize >= 10
    for key in keys["hyperbolic_split"]:
        assert_unchanged(forms.hyperbolic_split(*key), frozen_hyperbolic_split(*key))
    for key in keys["hyperbolic_quadratic"]:
        assert_unchanged(forms.hyperbolic_quadratic(*key), frozen_hyperbolic_quadratic(*key))
    assert forms.hyperbolic_split.memo.cache_info().misses == len(keys["hyperbolic_split"])


def test_a_warm_pass_of_the_acceptance_suite_does_this_much_work(monkeypatch):
    """Per pass, once the memo holds the hyperbolic forms: 18,716 integer products,
    1,233 split-to-quadratic conversions and 38,112 ring elements before the known
    answers; 12,379 products and 25,342 ring elements before the lagrangian
    constructions were certified by their witness; 10,989 products and 24,092 ring
    elements before the group-ring draws went straight to coefficient windows and the
    cobordism constructions read slices in place of products with [I; 0]; 19,212 ring
    elements before q_eps_reduce returned an operand that was already its own
    representative."""
    acceptance.run_all()
    products = count_calls(monkeypatch, _intlat, "matmul")
    conversions = count_calls(monkeypatch, forms, "split_to_quadratic")
    elements = count_calls(monkeypatch, rings.RingElement, "__init__")
    acceptance.run_all()
    assert (len(products), len(conversions), len(elements)) == (10761, 450, 18034)
