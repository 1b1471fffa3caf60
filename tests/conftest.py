"""Shared deterministic builders for the test suite.

The builders that the acceptance suite and the fixture tool also use live in
``surgery_algebra.generators``; the ones here are used by the tests alone.
"""

import random

from hypothesis import settings

from surgery_algebra import complexes as cx
from surgery_algebra import forms, generators, matrices, rings

settings.register_profile("suite", deadline=None, derandomize=True, max_examples=60)
settings.load_profile("suite")


def random_unimodular(rng: random.Random, ring, k, steps=None):
    """Product of shears and signed swaps; always invertible over the ring."""
    m = matrices.identity_matrix(ring, k)
    if k == 0:
        return m
    for _ in range(steps if steps is not None else 2 * k + 2):
        grid = [[m.entry(i, j) for j in range(k)] for i in range(k)]
        i, j = rng.randrange(k), rng.randrange(k)
        if i == j or rng.random() < 0.25:
            sign = rng.choice((1, -1))
            a, b = rng.randrange(k), rng.randrange(k)
            grid[a], grid[b] = grid[b], [rings.mul(rings.from_int(ring, sign), e)
                                         for e in grid[a]]
        else:
            c = generators.element(rng, ring, -1, 1)
            grid[i] = [rings.add(grid[i][t], rings.mul(c, grid[j][t])) for t in range(k)]
        m = matrices.matrix(ring, grid)
    return m


def random_split_and_transport(rng: random.Random, ring, eps, half):
    """(s, P): s = P'·H·P plus a coboundary, so the lagrangian L of H sits in s as columns of P^-1."""
    p = random_unimodular(rng, ring, 2 * half)
    return generators.transport(rng, forms.hyperbolic_split(ring, eps, half), p), p


def transported_lagrangian(rng: random.Random, ring, eps, half):
    """(s, L, D): the lagrangian L of H and its dual summand D carried into a transported s,
    so that L*·lambda·D = I and D is a lagrangian as well."""
    s, p = random_split_and_transport(rng, ring, eps, half)
    pinv, rows = matrices.inverse(p), range(2 * half)
    return s, pinv.submatrix(rows, range(half)), pinv.submatrix(rows, range(half, 2 * half))


def random_lagrangian(rng: random.Random, ring, eps, half):
    """(s, basis, jprime): L mixed by a unimodular U, and a splitting jprime = D·(U*)^-1 +
    basis·X with basis*·lambda·jprime = I, for a random X."""
    s, lag, dual = transported_lagrangian(rng, ring, eps, half)
    u = random_unimodular(rng, ring, half)
    basis = lag.mul(u)
    return s, basis, dual.mul(matrices.inverse(u.star())).add(basis.mul(generators.matrix(rng, ring, half, half, -1, 1)))


def random_split(rng: random.Random, ring, eps, half):
    """Nonsingular split form: a transported hyperbolic plus a coboundary."""
    return random_split_and_transport(rng, ring, eps, half)[0]


def random_complex(rng: random.Random, parity, k, length):
    """Valid complex read off a random automorphism word."""
    eps = 1 if parity == 0 else -1
    c, _, _ = cx.cobordism_from_automorphism(generators.word(rng, eps, k, length))
    return c
