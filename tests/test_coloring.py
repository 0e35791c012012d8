"""Tests for KS colorability: assignment checking and the backtracking search."""

from __future__ import annotations

import random

import pytest

from conftest import (
    brute_force_colorable,
    make_single_basis_instance,
    make_synthetic_instance,
)
from kscertify.coloring import (
    DefinitionMode,
    check_colorable,
    is_ks_set,
    verify_assignment,
)
from kscertify.rayset import CompatibilityGraph, ProblemInstance

ORIGINAL = DefinitionMode.ORIGINAL
EXTENDED = DefinitionMode.EXTENDED


def lone_edge_instance() -> ProblemInstance:
    """One basis {0,1,2} plus an orthogonal pair {3,4} outside any basis."""
    edges = {(0, 1), (0, 2), (1, 2), (3, 4)}
    graph = CompatibilityGraph(vertex_count=5, edges=frozenset(edges))
    return ProblemInstance(rayset=None, graph=graph, bases=((0, 1, 2),))


class TestVerifyAssignment:
    def test_single_basis_valid(self):
        inst = make_single_basis_instance()
        assert verify_assignment(inst, (1, 0, 0), ORIGINAL)
        assert verify_assignment(inst, (0, 1, 0), EXTENDED)

    def test_all_zero_violates_condition_two(self):
        inst = make_single_basis_instance()
        assert not verify_assignment(inst, (0, 0, 0), ORIGINAL)
        assert not verify_assignment(inst, (0, 0, 0), EXTENDED)

    def test_two_ones_in_basis_violate_condition_two(self):
        inst = make_single_basis_instance()
        assert not verify_assignment(inst, (1, 1, 0), EXTENDED)

    def test_lone_edge_distinguishes_modes(self):
        inst = lone_edge_instance()
        f = (1, 0, 0, 1, 1)
        assert not verify_assignment(inst, f, ORIGINAL)
        assert verify_assignment(inst, f, EXTENDED)

    def test_length_checked(self):
        inst = make_single_basis_instance()
        with pytest.raises(ValueError, match="length"):
            verify_assignment(inst, (1, 0), ORIGINAL)

    def test_values_checked(self):
        inst = make_single_basis_instance()
        with pytest.raises(ValueError, match="0 or 1"):
            verify_assignment(inst, (1, 0, 2), ORIGINAL)


class TestCheckColorable:
    def test_single_basis_deterministic_witness(self):
        result = check_colorable(make_single_basis_instance(), ORIGINAL)
        assert result.colorable
        assert result.witness == (1, 0, 0)
        assert result.nodes_explored == 1

    def test_no_basis_rejected(self):
        graph = CompatibilityGraph(vertex_count=2, edges=frozenset({(0, 1)}))
        inst = ProblemInstance(rayset=None, graph=graph, bases=())
        with pytest.raises(ValueError, match="basis"):
            check_colorable(inst, ORIGINAL)

    def test_matches_brute_force_both_modes(self):
        rng = random.Random(314159)
        for _ in range(60):
            inst = make_synthetic_instance(rng, max_vertices=14, max_bases=6)
            for mode in (ORIGINAL, EXTENDED):
                result = check_colorable(inst, mode)
                assert result.colorable == brute_force_colorable(inst, mode)
                if result.colorable:
                    assert verify_assignment(inst, result.witness, mode)

    def test_deterministic_repeat(self):
        rng = random.Random(777)
        for _ in range(10):
            inst = make_synthetic_instance(rng)
            for mode in (ORIGINAL, EXTENDED):
                a = check_colorable(inst, mode)
                b = check_colorable(inst, mode)
                assert (a.colorable, a.witness, a.nodes_explored) == (
                    b.colorable,
                    b.witness,
                    b.nodes_explored,
                )

    def test_growing_an_uncolorable_instance_keeps_it_uncolorable(self):
        rng = random.Random(1618)
        checked = 0
        while checked < 12:
            inst = make_synthetic_instance(rng, max_vertices=12, max_bases=8)
            if check_colorable(inst, ORIGINAL).colorable:
                continue
            checked += 1
            n = inst.graph.vertex_count
            # New vertex adjacent to a few old ones: constraints only grow.
            extra = frozenset({(rng.randrange(n), n), (0, n)})
            grown = ProblemInstance(
                rayset=None,
                graph=CompatibilityGraph(
                    vertex_count=n + 1, edges=inst.graph.edges | extra
                ),
                bases=inst.bases,
            )
            assert not check_colorable(grown, ORIGINAL).colorable

    def test_extended_ks_implies_original_ks(self):
        rng = random.Random(2718)
        for _ in range(40):
            inst = make_synthetic_instance(rng, max_vertices=12)
            if is_ks_set(inst, EXTENDED):
                assert is_ks_set(inst, ORIGINAL)


class TestDeepSearch:
    def test_many_disjoint_triangles_need_no_recursion(self):
        # 1200 disjoint bases put 1200 branch frames on the search stack at
        # once, past the interpreter's recursion limit.
        k = 1200
        edges = frozenset(
            (3 * t + a, 3 * t + b) for t in range(k) for a, b in ((0, 1), (0, 2), (1, 2))
        )
        inst = ProblemInstance(
            rayset=None,
            graph=CompatibilityGraph(vertex_count=3 * k, edges=edges),
            bases=tuple((3 * t, 3 * t + 1, 3 * t + 2) for t in range(k)),
        )
        for mode in (ORIGINAL, EXTENDED):
            result = check_colorable(inst, mode)
            assert result.colorable
            assert result.witness == (1, 0, 0) * k
            assert result.nodes_explored == k


class TestPeres33:
    def test_original_uncolorable(self, peres33_instance):
        result = check_colorable(peres33_instance, ORIGINAL)
        assert not result.colorable
        assert result.witness is None
        assert is_ks_set(peres33_instance, ORIGINAL)

    def test_extended_colorable_with_valid_witness(self, peres33_instance):
        result = check_colorable(peres33_instance, EXTENDED)
        assert result.colorable
        assert verify_assignment(peres33_instance, result.witness, EXTENDED)
        assert not is_ks_set(peres33_instance, EXTENDED)
        # The witness must break condition (I) somewhere, otherwise the
        # original search would have found it too.
        assert not verify_assignment(peres33_instance, result.witness, ORIGINAL)
