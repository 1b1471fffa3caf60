"""Seeded inputs, built with plain ints and the benchmark's own arithmetic.

Every builder takes a ``random.Random`` and returns plain data in the
package's JSON wire format (or the benchmark's own ring encodings from
``checks``), so the inputs do not depend on the code under test and are the
same on every commit for a given seed.
"""

from __future__ import annotations

from checks import (
    block_diag,
    hyperbolic_lambda,
    identity,
    matmul,
    ring_identity,
    ring_matmul,
    ring_star,
    transpose,
)

E8 = [
    [2, 0, 0, 1, 0, 0, 0, 0],
    [0, 2, 1, 0, 0, 0, 0, 0],
    [0, 1, 2, 1, 0, 0, 0, 0],
    [1, 0, 1, 2, 1, 0, 0, 0],
    [0, 0, 0, 1, 2, 1, 0, 0],
    [0, 0, 0, 0, 1, 2, 1, 0],
    [0, 0, 0, 0, 0, 1, 2, 1],
    [0, 0, 0, 0, 0, 0, 1, 2],
]


def unimodular(rng, n, steps):
    """(P, P^-1): a product of `steps` elementary matrices I + c*e_i*e_j', c = +-1."""
    p = identity(n)
    pinv = identity(n)
    for _ in range(steps):
        i, j = rng.sample(range(n), 2)
        c = rng.choice((1, -1))
        for row in p:  # P <- P*E: column j += c * column i
            row[j] += c * row[i]
        pinv[i] = [x - c * y for x, y in zip(pinv[i], pinv[j])]  # E^-1 * P^-1
    return p, pinv


def z_form_obj(eps, lam, mu):
    return {"ring": {"ring": "Z"}, "epsilon": eps, "lambda": lam, "mu": mu}


def transported_hyperbolic(rng, eps, ell, steps):
    """(lambda, mu, lagrangian basis) of H_eps(Z^ell) transported by a random P.

    lambda = P'.lambda_H.P and mu_i = mu_H(P e_i); the columns of P^-1 that
    map to the first summand span a lagrangian.
    """
    n = 2 * ell
    p, pinv = unimodular(rng, n, steps)
    lam = matmul(matmul(transpose(p), hyperbolic_lambda(eps, ell)), p)
    mu = []
    for i in range(n):
        v = sum(p[a][i] * p[a + ell][i] for a in range(ell))
        mu.append(v if eps == 1 else v % 2)
    basis = [row[:ell] for row in pinv]
    return lam, mu, basis


def transported_e8(rng, n, steps):
    """(lambda, mu) of E8 + H_+1(Z^((n-8)/2)) transported by a random P."""
    p, _ = unimodular(rng, n, steps)
    base = block_diag(E8, hyperbolic_lambda(1, (n - 8) // 2))
    lam = matmul(matmul(transpose(p), base), p)
    return lam, [lam[i][i] // 2 for i in range(n)]


def _hessian_corner(rng, eps, k, entries):
    """N = T - eps*T' for a sparse random T; corners of this shape keep H_eps."""
    t = [[0] * k for _ in range(k)]
    for _ in range(entries):
        t[rng.randrange(k)][rng.randrange(k)] = rng.choice((1, -1))
    return [[t[i][j] - eps * t[j][i] for j in range(k)] for i in range(k)]


def automorphism_word(rng, eps, k, length):
    """A 2k x 2k automorphism of H_eps(Z^k): a product of `length` random
    elementary generators (diagonal, lower, upper, flip), as int blocks."""
    u = identity(2 * k)
    for _ in range(length):
        kind = rng.randrange(4)
        g = identity(2 * k)
        if kind == 0:
            a, ainv = unimodular(rng, k, 2)
            ainv_t = transpose(ainv)
            for i in range(k):
                g[i][:k] = a[i]
                g[k + i][k:] = ainv_t[i]
        elif kind in (1, 2):
            nmat = _hessian_corner(rng, eps, k, 2)
            for i in range(k):
                for j in range(k):
                    if kind == 1:
                        g[k + i][j] = nmat[i][j]
                    else:
                        g[i][k + j] = nmat[i][j]
        else:
            g = [[0] * (2 * k) for _ in range(2 * k)]
            for i in range(k):
                g[i][k + i] = 1
                g[k + i][i] = eps
        u = matmul(u, g)
    return {
        "alpha": [row[:k] for row in u[:k]],
        "beta": [row[k:] for row in u[:k]],
        "gamma": [row[:k] for row in u[k:]],
        "delta": [row[k:] for row in u[k:]],
    }


def formation_obj(eps, blocks):
    """(H_eps(Z^k); Z^k + 0, image of the first block column) as a formation file."""
    k = len(blocks["alpha"])
    form = z_form_obj(eps, hyperbolic_lambda(eps, k), [0] * (2 * k))
    f = identity(k) + [[0] * k for _ in range(k)]
    return {"epsilon": eps, "form": form, "f": f, "g": blocks["alpha"] + blocks["gamma"]}


def complex_obj(eps, blocks):
    """The two-term complex of the same formation: d = gamma', psi0 = alpha,
    psi1 = eps*theta with theta the split lift of alpha'.gamma."""
    alpha, gamma = blocks["alpha"], blocks["gamma"]
    k = len(alpha)
    n = matmul(transpose(alpha), gamma)
    theta = [[0] * k for _ in range(k)]
    for i in range(k):
        for j in range(i + 1, k):
            theta[i][j] = n[i][j]
        theta[i][i] = n[i][i] // 2 if eps == -1 else 0
    return {
        "ring": {"ring": "Z"},
        "parity": 0 if eps == 1 else 1,
        "d": transpose(gamma),
        "psi0": alpha,
        "psi1": [[eps * x for x in row] for row in theta],
    }


# -- group rings ------------------------------------------------------------------


def random_element(rng, ring, terms, span):
    """A sum of `terms` monomials +-g^e; Laurent exponents lie in [-span, span]."""
    out = ring.zero()
    for _ in range(terms):
        e = rng.randint(-span, span) if ring.kind == "laurent" else rng.randrange(ring.m)
        out = ring.add(out, ring.monomial(e, rng.choice((1, -1))))
    return out


def ring_unimodular(rng, ring, n, terms, span):
    """A dense invertible n x n matrix L.U: L unit lower triangular, U upper
    triangular with units +-g^e on the diagonal."""
    lower = ring_identity(ring, n)
    upper = ring_identity(ring, n)
    for i in range(n):
        for j in range(n):
            if i > j:
                lower[i][j] = random_element(rng, ring, terms, span)
            elif i < j:
                upper[i][j] = random_element(rng, ring, terms, span)
        upper[i][i] = random_element(rng, ring, 1, 1)
    return ring_matmul(ring, lower, upper)


def spanning_element(rng, lo, hi):
    """A Laurent element whose support runs exactly from z^lo to z^hi."""
    out = {k: rng.randint(-3, 3) for k in range(lo, hi + 1)}
    out[lo] = out[hi] = rng.choice((1, -1))
    return {k: c for k, c in out.items() if c}


def ring_hyperbolic(rng, ring, eps, ell, terms, span):
    """(lambda, mu) of H_eps(ring^ell) transported by a random invertible P."""
    n = 2 * ell
    p = ring_unimodular(rng, ring, n, terms, span)
    lam_h = [[ring.zero()] * n for _ in range(n)]
    for i in range(ell):
        lam_h[i][ell + i] = ring.one()
        lam_h[ell + i][i] = ring.one() if eps == 1 else ring.neg(ring.one())
    lam = ring_matmul(ring, ring_matmul(ring, ring_star(ring, p), lam_h), p)
    mu = []
    for i in range(n):
        acc = ring.zero()
        for a in range(ell):
            acc = ring.add(acc, ring.mul(ring.conj(p[a][i]), p[a + ell][i]))
        mu.append(acc)
    return lam, mu
