"""Weighted graphs, their intersection forms, and sphere arithmetic."""

import random

import pytest

from surgery_algebra import _intlat, rings
from surgery_algebra.errors import DomainError, SchemaError
from surgery_algebra.forms import direct_sum, hyperbolic_quadratic, is_even, negate, symmetric_form
from surgery_algebra.plumbing import (
    boundary_homology,
    e8_graph,
    exotic7_class,
    graph_to_form,
    is_homotopy_sphere_boundary,
    milnor_sphere,
    plumbing_graph,
    sphere_class,
)
from surgery_algebra.rings import AbelianGroup

from test_forms import arf_form
from test_matrices import E8_ROWS
from test_witt import e8_quadratic

Z = rings.integers()


def test_interval_graph_forms():
    untwisted = graph_to_form(plumbing_graph(1, (0, 0), [(0, 1)]))
    assert untwisted == hyperbolic_quadratic(Z, -1, 1)
    twisted = graph_to_form(plumbing_graph(1, (1, 1), [(0, 1)]))
    assert twisted == arf_form()


def test_e8_graph_matches_the_fixed_matrix():
    g = e8_graph()
    assert g.parity == 0 and g.weights == (1,) * 8
    assert set(g.edges) == {(0, 3), (1, 2), (2, 3), (3, 4), (4, 5), (5, 6), (6, 7)}
    q = graph_to_form(g)
    assert q.lam.to_int_grid() == E8_ROWS
    assert q == e8_quadratic()


def test_multiple_edges_accumulate():
    q = graph_to_form(plumbing_graph(1, (1, 0), [(0, 1), (1, 0)]))
    assert q.lam.to_int_grid() == [[0, 2], [-2, 0]]
    assert [rings.class_is_zero(m) for m in q.mu] == [False, True]


def test_single_vertex_forms():
    assert graph_to_form(plumbing_graph(0, (1,), [])).lam.to_int_grid() == [[2]]
    assert graph_to_form(plumbing_graph(1, (2, 3), [(0, 1)])).mu[0].rep == rings.zero(Z)


def test_graph_validation():
    with pytest.raises(DomainError):
        plumbing_graph(1, (0, 0), [(1, 1)])
    with pytest.raises(SchemaError):
        plumbing_graph(1, (0, 0), [(0, 2)])
    with pytest.raises(SchemaError):
        plumbing_graph(2, (0,), [])


def test_diagonal_rule_and_symmetry():
    rng = random.Random(31)
    for _ in range(25):
        parity = rng.randrange(2)
        k = rng.randint(1, 5)
        weights = [rng.randint(-2, 2) for _ in range(k)]
        edges = [(i, j) for i in range(k) for j in range(i + 1, k) if rng.random() < 0.4]
        q = graph_to_form(plumbing_graph(parity, weights, edges))
        eps = 1 if parity == 0 else -1
        for i in range(k):
            assert q.lam.entry(i, i).coeffs[0] == (1 + eps) * weights[i]
        assert q.lam.star().scale_int(eps) == q.lam
        assert is_even(symmetric_form(Z, eps, q.lam.to_int_grid()))


def test_trees_are_recoverable_from_their_forms():
    rng = random.Random(32)
    for _ in range(20):
        k = rng.randint(2, 6)
        edges = [(rng.randrange(i), i) for i in range(1, k)]
        q = graph_to_form(plumbing_graph(1, [0] * k, edges))
        seen = [(i, j) for i in range(k) for j in range(i + 1, k)
                if q.lam.entry(i, j).coeffs[0] != 0]
        assert sorted(seen) == sorted((min(a, b), max(a, b)) for a, b in edges)


def test_boundary_homology_values():
    assert boundary_homology(e8_quadratic()) == (AbelianGroup(0, ()), 0)
    disk = graph_to_form(plumbing_graph(0, (1,), []))
    assert boundary_homology(disk) == (AbelianGroup(0, (2,)), 0)
    flat = graph_to_form(plumbing_graph(0, (0,), []))
    assert boundary_homology(flat) == (AbelianGroup(1, ()), 1)


def test_sphere_detection():
    assert is_homotopy_sphere_boundary(e8_quadratic())
    assert is_homotopy_sphere_boundary(hyperbolic_quadratic(Z, -1, 1))
    assert not is_homotopy_sphere_boundary(graph_to_form(plumbing_graph(0, (1,), [])))


def test_exotic_class_values():
    assert exotic7_class(e8_quadratic()) == 1
    assert exotic7_class(direct_sum(e8_quadratic(), negate(e8_quadratic()))) == 0
    stack = e8_quadratic()
    for m in (2, 3):
        stack = direct_sum(stack, e8_quadratic())
        assert exotic7_class(stack) == m
    with pytest.raises(DomainError, match="^the dimension-7 class needs a \\+1-quadratic form$"):
        exotic7_class(arf_form())
    not_sphere = "^the boundary is not a homotopy sphere: form is not unimodular$"
    for q in (graph_to_form(plumbing_graph(0, (0,), [])),  # singular
              graph_to_form(plumbing_graph(0, (1,), [])),  # det 2
              graph_to_form(plumbing_graph(0, (1, 1), [(0, 1)])),  # A2, det 3
              hyperbolic_quadratic(rings.cyclic(2), 1, 1)):
        with pytest.raises(DomainError, match=not_sphere):
            exotic7_class(q)
        assert sphere_class(q) is None
    assert sphere_class(stack) == 3
    assert sphere_class(direct_sum(e8_quadratic(), hyperbolic_quadratic(Z, 1, 1))) == 1  # det -1


def test_the_exotic_class_is_one_signature_pass(monkeypatch):
    monkeypatch.setattr(_intlat, "bareiss", lambda a, b: pytest.fail("bareiss was called"))
    assert exotic7_class(direct_sum(e8_quadratic(), hyperbolic_quadratic(Z, 1, 2))) == 1


def test_milnor_table():
    table = {1: (0, False), 3: (8, True), 5: (24, True), 7: (20, True),
             9: (24, True), 11: (8, True), 13: (0, False), 15: (0, False)}
    for ell, want in table.items():
        assert milnor_sphere(ell) == want
    with pytest.raises(DomainError):
        milnor_sphere(4)


def test_milnor_criteria_agree_on_all_small_indices():
    for ell in range(1, 100, 2):
        cls, exotic = milnor_sphere(ell)
        assert exotic == (ell % 7 not in (1, 6))
        assert (cls == 0) == (not exotic)
