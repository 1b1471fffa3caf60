"""Each checker accepts a right output and rejects it with any one entry changed.

    python3 -m pytest perfbench/test_checks.py -q

The right outputs are built here from their definitions, without the package.
"""

from __future__ import annotations

import copy
import itertools
import random

import checks
import gen


def one_entry_changes(grid):
    """Copies of a matrix of ints with one entry increased by 1, for every entry."""
    for i, row in enumerate(grid):
        for j in range(len(row)):
            bad = copy.deepcopy(grid)
            bad[i][j] += 1
            yield bad


def leibniz(a):
    n = len(a)
    total = 0
    for perm in itertools.permutations(range(n)):
        sign = 1
        for i in range(n):
            for j in range(i + 1, n):
                if perm[i] > perm[j]:
                    sign = -sign
        term = sign
        for i in range(n):
            term *= a[i][perm[i]]
        total += term
    return total


def test_matmul_and_bareiss_agree_with_definitions():
    rng = random.Random(5)
    for _ in range(20):
        a = [[rng.randint(-4, 4) for _ in range(4)] for _ in range(4)]
        b = [[rng.randint(-4, 4) for _ in range(4)] for _ in range(4)]
        assert checks.matmul(a, b) == [[sum(a[i][t] * b[t][j] for t in range(4))
                                        for j in range(4)] for i in range(4)]
        det, rank = checks.bareiss(a)
        assert det == leibniz(a)
        assert (rank == 4) == (det != 0)
    singular = [[1, 2, 3], [2, 4, 6], [0, 1, 1]]
    assert checks.bareiss(singular) == (0, 2)
    assert checks.bareiss([[0, 0], [0, 0]]) == (0, 0)


def test_lagrangian_extension_check():
    rng = random.Random(1)
    for eps in (1, -1):
        ell = 2
        p, pinv = gen.unimodular(rng, 2 * ell, 10)
        lam = checks.matmul(checks.matmul(checks.transpose(p), checks.hyperbolic_lambda(eps, ell)), p)
        mu = [sum(p[a][i] * p[a + ell][i] for a in range(ell)) for i in range(2 * ell)]
        mu = mu if eps == 1 else [m % 2 for m in mu]
        basis = [row[:ell] for row in pinv]
        assert checks.check_lagrangian_extension(lam, mu, eps, basis, pinv) is None
        for bad in one_entry_changes(pinv):
            assert checks.check_lagrangian_extension(lam, mu, eps, basis, bad) is not None


def test_mu_on_z_catches_an_isometry_of_lambda_alone():
    lam = [[0, 1], [-1, 0]]
    f = [[1, 0], [1, 1]]  # preserves lambda, but mu(e1 + e2) = 1 on H_-1(Z)
    assert checks.matmul(checks.matmul(checks.transpose(f), lam), f) == lam
    assert checks.mu_z(lam, [0, 0], -1, [1, 1]) == 1
    assert checks.check_lagrangian_extension(lam, [0, 0], -1, [[1], [1]], f) == "mu(F e_0) != 0"


def test_reduction_check():
    rng = random.Random(2)
    eps, ell, r = -1, 3, 1
    p, pinv = gen.unimodular(rng, 2 * ell, 12)
    lam = checks.matmul(checks.matmul(checks.transpose(p), checks.hyperbolic_lambda(eps, ell)), p)
    mu = [sum(p[a][i] * p[a + ell][i] for a in range(ell)) % 2 for i in range(2 * ell)]
    # reorder H(ell) as H(r) + H(ell - r)
    order = list(range(r)) + list(range(ell, ell + r)) + list(range(r, ell)) + list(range(ell + r, 2 * ell))
    q = [[1 if order[j] == i else 0 for j in range(2 * ell)] for i in range(2 * ell)]
    f = checks.matmul(pinv, q)
    k = ell - r
    residual = [[1 if j == i + k else 0 for j in range(2 * k)] for i in range(2 * k)]
    assert checks.check_reduction(lam, mu, eps, r, residual, f) is None
    for bad in one_entry_changes(f):
        assert checks.check_reduction(lam, mu, eps, r, residual, bad) is not None
    for bad in one_entry_changes(residual):
        assert checks.check_reduction(lam, mu, eps, r, bad, f) is not None


def test_cokernel_check():
    a = [[2, 0, 0], [0, 3, 0], [0, 0, 0]]  # singular: only the ranks are checked
    good = {"free_rank": 1, "torsion": [6]}
    assert checks.check_cokernel(a, good, 1) is None
    assert checks.check_cokernel(a, {"free_rank": 2, "torsion": [6]}, 1) is not None
    assert checks.check_cokernel(a, good, 0) is not None
    b = [[2, 1], [0, 3]]
    assert checks.check_cokernel(b, {"free_rank": 0, "torsion": [6]}, 0) is None
    assert checks.check_cokernel(b, {"free_rank": 0, "torsion": [7]}, 0) is not None
    assert checks.check_cokernel(b, {"free_rank": 1, "torsion": [6]}, 0) is not None
    assert checks.check_cokernel(b, {"free_rank": 0, "torsion": [6]}, 1) is not None


def elementary_pair(ring, n, i, j, a):
    """E = 1 + a*e_ij and its inverse 1 - a*e_ij."""
    e = checks.ring_identity(ring, n)
    einv = checks.ring_identity(ring, n)
    e[i][j], einv[i][j] = a, ring.neg(a)
    return e, einv


def ring_case(ring, rng):
    """A dense invertible matrix and its inverse, as products of elementaries."""
    n = 3
    m = checks.ring_identity(ring, n)
    inv = checks.ring_identity(ring, n)
    for _ in range(6):
        i, j = rng.sample(range(n), 2)
        e, einv = elementary_pair(ring, n, i, j, gen.random_element(rng, ring, 2, 1))
        m = checks.ring_matmul(ring, m, e)
        inv = checks.ring_matmul(ring, einv, inv)
    return m, inv


def bumped(ring, x):
    """x with one coefficient increased by 1."""
    if ring.kind == "laurent":
        k = next(iter(x), 0)
        return ring.add(x, {k: 1})
    if ring.kind == "Z":
        return x + 1
    return [x[0] + 1] + x[1:]


def test_inverse_check_over_every_ring():
    rng = random.Random(3)
    for ring in (checks.IntRing(), checks.CyclicRing(4, -1), checks.CyclicRing(5, 1),
                 checks.LaurentRing()):
        if ring.kind == "Z":
            m, inv = gen.unimodular(rng, 3, 6)
        else:
            m, inv = ring_case(ring, rng)
        assert checks.check_inverse(ring, m, inv) is None
        for i, j in itertools.product(range(3), repeat=2):
            bad = copy.deepcopy(inv)
            bad[i][j] = bumped(ring, bad[i][j])
            assert checks.check_inverse(ring, m, bad) is not None


def test_cyclic_and_laurent_products():
    c = checks.CyclicRing(4, -1)
    g = c.monomial(1, 1)
    assert c.mul(c.monomial(3, 2), g) == [2, 0, 0, 0]  # 2 g^3 * g = 2
    assert c.conj(g) == [0, 0, 0, -1]  # g -> w g^-1 = -g^3
    lr = checks.LaurentRing()
    assert lr.mul({-1: 1, 1: 1}, {-1: 1, 1: -1}) == {-2: 1, 2: -1}  # (z^-1 + z)(z^-1 - z)
    assert lr.from_obj(lr.to_obj({-3: 2, 1: -1})) == {-3: 2, 1: -1}


def test_preimage_check():
    rng = random.Random(4)
    for ring, eps in ((checks.LaurentRing(), 1), (checks.LaurentRing(), -1),
                      (checks.CyclicRing(6, -1), 1), (checks.CyclicRing(3, 1), -1)):
        x = gen.random_element(rng, ring, 5, 4)
        if ring.kind == "laurent":
            x = ring.add(x, {3: 1})  # a coefficient off the symmetric centre
            bad = ring.add(x, {3: 1})
        else:
            bad = list(x)
            bad[1] += 1
        a = checks.symmetrize(ring, x, eps)
        assert checks.check_preimage(ring, a, eps, x) is None
        assert checks.check_preimage(ring, a, eps, bad) is not None
        assert checks.check_preimage(ring, a, eps, None) is not None


def test_reduction_class_check():
    lr = checks.LaurentRing()
    rep = {0: 1, 2: 3}
    assert checks.check_reduction_class(lr, rep, dict(rep), dict(rep)) is None
    assert checks.check_reduction_class(lr, rep, {0: 1, 2: 4}, dict(rep)) is not None
    assert checks.check_reduction_class(lr, rep, dict(rep), {0: 2, 2: 3}) is not None
