"""Shared deterministic builders for the test suite."""

import random

from hypothesis import settings

from surgery_algebra import complexes as cx
from surgery_algebra import forms, matrices, rings, unitary

settings.register_profile("suite", deadline=None, derandomize=True, max_examples=60)
settings.load_profile("suite")

Z = rings.integers()


def ring_element(rng: random.Random, ring, lo=-2, hi=2):
    if ring.kind == "Z":
        return rings.from_int(ring, rng.randint(lo, hi))
    if ring.kind == "cyclic":
        coeffs = [rng.randint(lo, hi) for _ in range(ring.m)]
        out = rings.zero(ring)
        for k, c in enumerate(coeffs):
            out = rings.add(out, rings.mul(rings.from_int(ring, c), rings.monomial(ring, k)))
        return out
    out = rings.zero(ring)
    for k in (-1, 0, 1):
        out = rings.add(out, rings.mul(rings.from_int(ring, rng.randint(lo, hi)),
                                       rings.monomial(ring, k)))
    return out


def random_matrix(rng: random.Random, ring, rows, cols, lo=-2, hi=2):
    return matrices.matrix(ring, [[ring_element(rng, ring, lo, hi) for _ in range(cols)]
                                  for _ in range(rows)])


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
            c = ring_element(rng, ring, -1, 1)
            grid[i] = [rings.add(grid[i][t], rings.mul(c, grid[j][t])) for t in range(k)]
        m = matrices.matrix(ring, grid)
    return m


def hessian_corner(rng: random.Random, ring, k, eps):
    """Random t - eps*t* for a k x k matrix t.

    The result is (-eps)-symmetric with diagonal entries t_ii - eps*conj(t_ii),
    which over Z is (1 - eps)*t_ii.  A (-eps)-quadratic form built on it takes
    mu_i = rings.symmetrize_preimage(lam_ii, -eps), so that
    mu_i - eps*conj(mu_i) = lam_ii.  It does not take q_eps_reduce(lam_ii, -eps):
    for eps = -1 that class is represented by lam_ii itself, and lam_ii + lam_ii
    is not lam_ii unless lam_ii = 0.
    """
    t = random_matrix(rng, ring, k, k)
    return t.sub(t.star().scale_int(eps))


def random_word(rng: random.Random, eps, k, length, ring=Z):
    """Word in the generators of the hyperbolic automorphism group."""
    u = unitary.identity_unitary(ring, eps, k)
    for _ in range(length):
        kind = rng.randrange(4)
        if kind == 0:
            u = unitary.compose(u, unitary.elementary_diag(
                random_unimodular(rng, ring, k), eps))
        elif kind == 1:
            u = unitary.compose(u, unitary.elementary_lower(
                hessian_corner(rng, ring, k, eps), eps))
        elif kind == 2:
            u = unitary.compose(u, unitary.elementary_upper(
                hessian_corner(rng, ring, k, eps), eps))
        else:
            u = unitary.compose(u, unitary.sigma_eps(ring, eps, k))
    return u


def random_split_and_transport(rng: random.Random, ring, eps, half):
    """(s, P): s = P'·H·P plus a coboundary, so the lagrangian L of H sits in s as columns of P^-1."""
    k = 2 * half
    p = random_unimodular(rng, ring, k)
    psi = p.star().mul(forms.hyperbolic_split(ring, eps, half).psi).mul(p)
    chi = random_matrix(rng, ring, k, k, -1, 1)
    return forms.split_form(ring, eps, psi.add(chi.sub(chi.star().scale_int(eps)))), p


def random_split(rng: random.Random, ring, eps, half):
    """Nonsingular split form: a transported hyperbolic plus a coboundary."""
    return random_split_and_transport(rng, ring, eps, half)[0]


def random_complex(rng: random.Random, parity, k, length):
    """Valid complex read off a random automorphism word."""
    eps = 1 if parity == 0 else -1
    c, _, _ = cx.cobordism_from_automorphism(random_word(rng, eps, k, length))
    return c
