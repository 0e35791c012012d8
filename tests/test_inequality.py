"""Tests for weights, the exact independence bound, and the inequality."""

from __future__ import annotations

import functools
import itertools
import random
import sys
import time

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import kscertify.inequality
from conftest import (
    make_integer_family,
    make_quadratic_family,
    make_single_basis_instance,
    make_synthetic_instance,
    transformed,
)
from kscertify.algebra import exact_ray
from kscertify.catalog import load_rayset
from kscertify.coloring import DefinitionMode, check_colorable
from kscertify.inequality import (
    Inequality,
    StateSpec,
    build_inequality,
    compute_weights,
    edge_weights,
    operator_sum_check,
    quantum_value,
    weighted_independence_number,
)
from kscertify.rayset import (
    CompatibilityGraph,
    ProblemInstance,
    ScalarMode,
    build_instance,
    prune_unbased,
    symmetries,
    validate_rayset,
)

from oracles import (
    brute_force_alpha,
    fraction_operator_sum,
    networkx_alpha,
    weight_sum_alpha,
)


def graph(n: int, edges) -> CompatibilityGraph:
    return CompatibilityGraph(vertex_count=n, edges=frozenset(edges))


def random_graph_and_weights(rng: random.Random, max_n: int = 14):
    n = rng.randint(4, max_n)
    density = rng.uniform(0.2, 0.6)
    edges = {
        (i, j)
        for i, j in itertools.combinations(range(n), 2)
        if rng.random() < density
    }
    weights = tuple(rng.randint(1, 9) for _ in range(n))
    return graph(n, edges), weights


def permuted(g: CompatibilityGraph, weights, perm: list[int]):
    """The same weighted graph with vertex v renamed perm[v]."""
    new_weights = [0] * len(weights)
    for v, w in enumerate(weights):
        new_weights[perm[v]] = w
    edges = {tuple(sorted((perm[i], perm[j]))) for i, j in g.edges}
    return graph(g.vertex_count, edges), tuple(new_weights)


def shared_vertex_instance() -> ProblemInstance:
    rays = [
        exact_ray([1, 0, 0], disc=2),
        exact_ray([0, 1, 0], disc=2),
        exact_ray([0, 0, 1], disc=2),
        exact_ray([1, 1, 0], disc=2),
        exact_ray([1, -1, 0], disc=2),
    ]
    return build_instance(validate_rayset(rays, name="shared", mode=ScalarMode.exact(2)))


class TestWeights:
    def test_single_basis(self):
        assert compute_weights(make_single_basis_instance()) == (1, 1, 1)

    def test_shared_vertex(self):
        # Bases {0,1,2} and {2,3,4}: the shared ray is counted twice.
        assert compute_weights(shared_vertex_instance()) == (1, 1, 2, 1, 1)

    def test_weight_sum_equals_total_basis_size(self):
        rng = random.Random(87)
        for _ in range(40):
            inst = make_synthetic_instance(rng)
            assert sum(compute_weights(inst)) == sum(len(b) for b in inst.bases)

    def test_peres_weight_histogram_frozen(self, peres33_instance):
        w = compute_weights(peres33_instance)
        assert sum(w) == 48
        assert sorted(w.count(x) for x in sorted(set(w))) == sorted([3, 6, 24])
        assert {x: w.count(x) for x in set(w)} == {4: 3, 2: 6, 1: 24}

    def test_edge_weights_are_maxima(self):
        g = graph(3, {(0, 1), (1, 2)})
        assert edge_weights((1, 2, 3), g) == {(0, 1): 2, (1, 2): 3}

    def test_edge_weights_length_checked(self):
        with pytest.raises(ValueError, match="length"):
            edge_weights((1, 2), graph(3, {(0, 1)}))


class TestIndependenceNumber:
    def test_path(self):
        # Path 0-1-2: either the middle vertex or both ends.
        assert weighted_independence_number(graph(3, {(0, 1), (1, 2)}), (1, 3, 1)) == 3
        assert weighted_independence_number(graph(3, {(0, 1), (1, 2)}), (2, 3, 2)) == 4

    def test_triangle_takes_heaviest(self):
        g = graph(3, {(0, 1), (0, 2), (1, 2)})
        assert weighted_independence_number(g, (2, 5, 3)) == 5

    def test_empty_graph_takes_everything(self):
        assert weighted_independence_number(graph(4, set()), (1, 2, 3, 4)) == 10
        assert brute_force_alpha(graph(4, set()), (1, 2, 3, 4)) == 10

    def test_complete_graph(self):
        g = graph(4, set(itertools.combinations(range(4), 2)))
        assert weighted_independence_number(g, (1, 1, 1, 1)) == 1
        assert brute_force_alpha(g, (2, 7, 1, 1)) == 7

    def test_zero_weights_allowed(self):
        g = graph(3, {(0, 1)})
        assert weighted_independence_number(g, (0, 0, 0)) == 0

    def test_matches_brute_force_randomized(self):
        rng = random.Random(6060)
        for _ in range(60):
            g, w = random_graph_and_weights(rng)
            expected = brute_force_alpha(g, w)
            assert weighted_independence_number(g, w) == expected
            assert weight_sum_alpha(g, w) == expected

    def test_scaling_homogeneity(self):
        rng = random.Random(11)
        for _ in range(20):
            g, w = random_graph_and_weights(rng, max_n=10)
            k = rng.randint(2, 5)
            scaled = tuple(k * x for x in w)
            assert weighted_independence_number(g, scaled) == k * weighted_independence_number(g, w)

    def test_weight_validation(self):
        g = graph(3, {(0, 1)})
        with pytest.raises(ValueError, match="integer"):
            weighted_independence_number(g, (1.5, 1, 1))
        with pytest.raises(ValueError, match="integer"):
            weighted_independence_number(g, (-1, 1, 1))
        with pytest.raises(ValueError, match="length"):
            weighted_independence_number(g, (1, 1))

    def test_brute_force_size_limit(self):
        g = graph(26, set())
        with pytest.raises(ValueError, match="25"):
            brute_force_alpha(g, tuple([1] * 26))

    def test_witness_is_an_optimal_independent_set(self):
        rng = random.Random(4242)
        for _ in range(40):
            g, w = random_graph_and_weights(rng)
            alpha, members = kscertify.inequality._max_weight_independent_set(g, w)
            assert not any((i, j) in g.edges for i, j in itertools.combinations(members, 2))
            assert sum(w[v] for v in members) == alpha == brute_force_alpha(g, w)

    @pytest.mark.parametrize(
        "witness, message",
        [((1, [0, 1]), "not independent"), ((2, [0]), "weighs 1, not 2")],
    )
    def test_bad_witness_raises(self, monkeypatch, witness, message):
        # The single basis is a triangle of weight-1 vertices.
        monkeypatch.setattr(
            kscertify.inequality, "_max_weight_independent_set", lambda g, w, group: witness
        )
        with pytest.raises(RuntimeError, match=message):
            build_inequality(make_single_basis_instance())

    def test_deep_search_has_no_recursion_ceiling(self):
        # A heavy path a-b-c (weights 20, 30, 20) ahead of k disjoint light
        # edges: the greedy incumbent takes b, the optimum takes a and c, and
        # the search reaches it only by branching on one vertex of every edge,
        # more levels deep than the interpreter's recursion limit.
        k = sys.getrecursionlimit() + 100
        edges = {(0, 1), (1, 2)} | {(3 + 2 * i, 4 + 2 * i) for i in range(k)}
        weights = (20, 30, 20) + (1,) * (2 * k)
        assert weighted_independence_number(graph(3 + 2 * k, edges), weights) == 40 + k

    @settings(max_examples=60, deadline=None)
    @given(st.randoms(use_true_random=False))
    def test_invariant_under_relabelling(self, rng):
        inst = make_synthetic_instance(rng, max_vertices=20)
        n = inst.graph.vertex_count
        w = tuple(rng.randint(0, 9) for _ in range(n))
        perm = list(range(n))
        rng.shuffle(perm)
        alpha = weighted_independence_number(inst.graph, w)
        assert weighted_independence_number(*permuted(inst.graph, w, perm)) == alpha
        assert brute_force_alpha(inst.graph, w) == alpha

    @pytest.mark.parametrize("seed", range(3))
    @pytest.mark.parametrize(
        "dim, values, n_rays, n_bases, alpha",
        [
            (3, (1, 2, 4), 73, 44, 42),
            (3, (1, 2, 3), 97, 50, 48),
            (5, (1,), 105, 136, 112),
        ],
    )
    def test_integer_families_match_networkx(self, dim, values, n_rays, n_bases, alpha, seed):
        inst = prune_unbased(build_instance(make_integer_family(dim, values)))
        assert (inst.graph.vertex_count, inst.n_bases) == (n_rays, n_bases)
        perm = list(range(n_rays))
        random.Random(seed).shuffle(perm)
        g, w = permuted(inst.graph, compute_weights(inst), perm)
        assert weighted_independence_number(g, w) == networkx_alpha(g, w) == alpha

    def test_counting_bound_on_instances(self):
        # Every basis is a clique, so an independent set meets each basis at
        # most once and alpha(G, w) <= N.
        rng = random.Random(5150)
        for _ in range(40):
            inst = make_synthetic_instance(rng)
            w = compute_weights(inst)
            assert weighted_independence_number(inst.graph, w) <= inst.n_bases


_ALPHA_SETS = {
    "int3{0,+-1,+-2,+-4}": (lambda: make_integer_family(3, (1, 2, 4)), 42),
    "int3{0,+-1,+-2,+-3}": (lambda: make_integer_family(3, (1, 2, 3)), 48),
    "q2_3{0,+-1,+-r2}": (lambda: make_quadratic_family(3, ((1, 0), (0, 1)), 2), 15),
    "peres-33": (lambda: load_rayset("peres-33"), 15),
    "conway-kochen-31": (lambda: load_rayset("conway-kochen-31"), 16),
    "ceg-18": (lambda: load_rayset("ceg-18"), 8),
}


class TestOrbitalAlpha:
    """Alpha with the ray set's symmetry group against the plain search."""

    @pytest.mark.parametrize("seed", range(3))
    @pytest.mark.parametrize("name", list(_ALPHA_SETS))
    def test_invariant_under_reordering_and_signed_permutations(self, name, seed):
        make, alpha = _ALPHA_SETS[name]
        rayset = transformed(make(), random.Random(seed))
        inst = prune_unbased(build_instance(rayset))
        w = compute_weights(inst)
        assert build_inequality(inst).classical_bound == alpha
        assert weighted_independence_number(inst.graph, w) == alpha
        assert networkx_alpha(inst.graph, w) == alpha

    def test_int4_pinned(self):
        inst = build_instance(make_integer_family(4, (1, 2)))
        assert (inst.graph.vertex_count, inst.n_bases) == (272, 380)
        assert build_inequality(inst).classical_bound == 313

    @pytest.mark.slow
    def test_int4_matches_the_trivial_group(self):
        inst = build_instance(make_integer_family(4, (1, 2)))
        w = compute_weights(inst)
        assert weighted_independence_number(inst.graph, w) == 313
        assert weighted_independence_number(inst.graph, w, symmetries(inst.rayset)) == 313

    @pytest.mark.slow
    def test_int3_up_to_4(self):
        # The open wall of the ladder: 205 rays after pruning, 110 bases.
        inst = prune_unbased(build_instance(make_integer_family(3, (1, 2, 3, 4))))
        start = time.perf_counter()
        alpha = build_inequality(inst).classical_bound
        print(f"int3{{0,±1..±4}}: alpha {alpha} in {time.perf_counter() - start:.1f} s")
        assert (alpha, inst.n_bases) == (103, 110)


class TestBuildInequality:
    def test_single_basis(self):
        ineq = build_inequality(make_single_basis_instance())
        assert ineq.vertex_weights == (1, 1, 1)
        assert ineq.edge_terms == ((0, 1, 1), (0, 2, 1), (1, 2, 1))
        assert ineq.classical_bound == 1
        assert ineq.quantum_value == 1

    def test_shared_vertex_alpha(self):
        ineq = build_inequality(shared_vertex_instance())
        assert ineq.vertex_weights == (1, 1, 2, 1, 1)
        # {0, 3} or {1, 4} pick one ray per basis: alpha = N = 2, no gap.
        assert ineq.classical_bound == 2
        assert ineq.quantum_value == 2

    def test_unpruned_input_rejected(self):
        rays = [
            exact_ray([1, 0, 0], disc=2),
            exact_ray([0, 1, 0], disc=2),
            exact_ray([0, 0, 1], disc=2),
            exact_ray([1, 1, 1], disc=2),
        ]
        inst = build_instance(validate_rayset(rays, name="x", mode=ScalarMode.exact(2)))
        with pytest.raises(ValueError, match="prune"):
            build_inequality(inst)

    def test_no_bases_rejected(self):
        inst = ProblemInstance(rayset=None, graph=graph(3, set()), bases=())
        with pytest.raises(ValueError, match="basis"):
            build_inequality(inst)

    def test_peres_inequality_frozen(self, peres33_instance):
        ineq = build_inequality(peres33_instance)
        assert ineq.classical_bound == 15
        assert ineq.quantum_value == 16
        assert len(ineq.edge_terms) == 72
        for i, j, w in ineq.edge_terms:
            assert w == max(ineq.vertex_weights[i], ineq.vertex_weights[j])

    def test_invariants_enforced_by_type(self):
        with pytest.raises(ValueError, match="below"):
            Inequality((2, 2), ((0, 1, 1),), 1, 1)
        with pytest.raises(ValueError, match="sorted"):
            Inequality((1, 1, 1), ((0, 2, 1), (0, 1, 1)), 1, 1)
        with pytest.raises(ValueError, match="classical"):
            Inequality((1, 1), ((0, 1, 1),), 3, 2)


class TestGapReport:
    def test_single_basis_no_gap(self):
        report = build_inequality(make_single_basis_instance())
        assert (report.quantum_value, report.classical_bound) == (1, 1)
        assert report.gap == 0
        assert not report.is_original_ks

    def test_peres_gap(self, peres33_instance):
        report = build_inequality(peres33_instance)
        assert report.quantum_value == 16
        assert report.classical_bound == 15
        assert report.gap == 1
        assert report.is_original_ks

    def test_gap_matches_coloring_verdict(self):
        rng = random.Random(909)
        for _ in range(40):
            inst = prune_unbased(make_synthetic_instance(rng, max_vertices=12))
            report = build_inequality(inst)
            colorable = check_colorable(inst, DefinitionMode.ORIGINAL).colorable
            assert report.is_original_ks == (not colorable)
            assert (report.gap == 0) == colorable


class TestQuantumValue:
    def test_mixed_state_gives_basis_count(self, peres33_instance):
        ineq = build_inequality(peres33_instance)
        w = quantum_value(peres33_instance, ineq.vertex_weights, StateSpec.maximally_mixed())
        assert abs(w - 16) <= 1e-12

    def test_any_pure_state_gives_basis_count(self):
        inst = shared_vertex_instance()
        ineq = build_inequality(inst)
        rho = np.zeros((3, 3), dtype=complex)
        rho[0, 0] = 1.0
        w = quantum_value(inst, ineq.vertex_weights, StateSpec.explicit(rho))
        assert abs(w - 2) <= 1e-12

    def test_random_pure_states_reproducible(self, peres33_instance):
        ineq = build_inequality(peres33_instance)
        a = quantum_value(peres33_instance, ineq.vertex_weights, StateSpec.random_pure(42))
        b = quantum_value(peres33_instance, ineq.vertex_weights, StateSpec.random_pure(42))
        assert a == b
        assert abs(a - 16) <= 1e-9

    def test_explicit_state_validation(self):
        inst = make_single_basis_instance()
        rays = [
            exact_ray([1, 0, 0], disc=2),
            exact_ray([0, 1, 0], disc=2),
            exact_ray([0, 0, 1], disc=2),
        ]
        inst = build_instance(validate_rayset(rays, name="axes", mode=ScalarMode.exact(2)))
        ineq = build_inequality(inst)
        bad_trace = np.eye(3, dtype=complex)
        with pytest.raises(ValueError, match="trace"):
            quantum_value(inst, ineq.vertex_weights, StateSpec.explicit(bad_trace))
        non_hermitian = np.eye(3, dtype=complex) / 3
        non_hermitian[0, 1] = 0.5
        with pytest.raises(ValueError, match="Hermitian"):
            quantum_value(inst, ineq.vertex_weights, StateSpec.explicit(non_hermitian))
        non_psd = np.diag([1.5, -0.5, 0.0]).astype(complex)
        with pytest.raises(ValueError, match="positive"):
            quantum_value(inst, ineq.vertex_weights, StateSpec.explicit(non_psd))

    def test_weight_length_checked(self, peres33_instance):
        with pytest.raises(ValueError, match="length"):
            quantum_value(peres33_instance, (1,) * 32, StateSpec.maximally_mixed())

    def test_requires_rays(self):
        inst = make_single_basis_instance()
        ineq = build_inequality(inst)
        with pytest.raises(ValueError, match="ray set"):
            quantum_value(inst, ineq.vertex_weights, StateSpec.maximally_mixed())


class TestOperatorSum:
    def test_single_basis_exact(self):
        rays = [
            exact_ray([1, 0, 0], disc=2),
            exact_ray([0, 1, 0], disc=2),
            exact_ray([0, 0, 1], disc=2),
        ]
        inst = build_instance(validate_rayset(rays, name="axes", mode=ScalarMode.exact(2)))
        assert operator_sum_check(inst, compute_weights(inst))

    def test_peres_exact(self, peres33_instance):
        assert operator_sum_check(peres33_instance, compute_weights(peres33_instance))

    def test_corrupted_basis_list_fails(self, peres33_instance):
        w = compute_weights(peres33_instance)
        corrupted = ProblemInstance(
            rayset=peres33_instance.rayset,
            graph=peres33_instance.graph,
            bases=peres33_instance.bases[:-1],
        )
        assert not operator_sum_check(corrupted, w)

    def test_numeric_mode(self):
        from kscertify.algebra import numeric_ray

        rays = [
            numeric_ray([1.0, 0.0, 0.0]),
            numeric_ray([0.0, 1.0, 0.0]),
            numeric_ray([0.0, 0.0, 1.0]),
        ]
        inst = build_instance(
            validate_rayset(rays, name="axes", mode=ScalarMode.numeric(1e-9))
        )
        assert operator_sum_check(inst, compute_weights(inst))


@functools.cache
def _opsum_family(name: str):
    if name == "int3{0,1,2,4}":
        return make_integer_family(3, (1, 2, 4))
    if name == "q2_3{0,1,r2,1+r2}":
        return make_quadratic_family(3, ((1, 0), (0, 1), (1, 1)), disc=2)
    return load_rayset(name)


def _opsum_instance(name: str, seed: int | None) -> ProblemInstance:
    """The pruned family, or a pruned seeded 70-90 % subset of it."""
    rayset = _opsum_family(name)
    if seed is not None:
        rng = random.Random(seed)
        rays = list(rayset.rays)
        rng.shuffle(rays)
        keep = rays[: int(len(rays) * rng.uniform(0.7, 0.9))]
        rayset = validate_rayset(keep, name=rayset.name, mode=rayset.mode)
    return prune_unbased(build_instance(rayset))


class TestOperatorSumAgainstOracle:
    """The integer accumulation against Fraction pairs over Q(sqrt(m)),
    whose norms include irrational ones such as 3 + 2*sqrt(2)."""

    @pytest.mark.parametrize(
        "name, seed",
        [("peres-33", None), ("conway-kochen-31", None), ("ceg-18", None)]
        + [(family, seed) for family in ("int3{0,1,2,4}", "q2_3{0,1,r2,1+r2}")
           for seed in (None, 1, 2)],
    )
    def test_basis_counts_pass_and_wrong_weights_fail(self, name, seed):
        inst = _opsum_instance(name, seed)
        assert inst.n_bases >= 1
        w = compute_weights(inst)
        rng = random.Random(f"{name}/{seed}")
        v = rng.randrange(len(w))
        cases = [(inst, w, True), (inst, tuple(2 * x for x in w), False)]
        for delta in (1, -1):
            changed = list(w)
            changed[v] += delta
            cases.append((inst, tuple(changed), False))
        dropped = ProblemInstance(rayset=inst.rayset, graph=inst.graph, bases=inst.bases[:-1])
        cases.append((dropped, w, False))
        for instance, weights, expected in cases:
            assert fraction_operator_sum(instance, weights) is expected
            assert operator_sum_check(instance, weights) is expected

    def test_weight_moved_to_conjugate_ray_fails(self):
        # Conjugation sqrt(2) -> -sqrt(2) keeps orthogonality, so B and its
        # conjugate are both bases.  A projector and its conjugate share
        # their rational parts, so moving weight from a ray to its conjugate
        # leaves only the sqrt(2) parts of the sum wrong.
        basis = [[(1, 1), (1, 0), (1, 0)], [(1, 0), (-1, -1), (0, 0)], [(1, 1), (1, 0), (-4, -2)]]
        conjugate = [[(a, -b) for a, b in ray] for ray in basis]
        rays = [exact_ray(ray, disc=2) for ray in basis + conjugate]
        inst = build_instance(validate_rayset(rays, name="conj", mode=ScalarMode.exact(2)))
        assert inst.n_bases == 2
        for weights, expected in (((1,) * 6, True), ((2, 1, 1, 0, 1, 1), False)):
            assert fraction_operator_sum(inst, weights) is expected
            assert operator_sum_check(inst, weights) is expected

    def test_weight_moved_to_mirror_ray_fails(self):
        # (1, 1, 0) and (1, -1, 0) have equal diagonal projector entries,
        # so only the off-diagonal entries of the sum go wrong.
        rays = [exact_ray(ray, disc=1) for ray in ([1, 1, 0], [1, -1, 0], [0, 0, 1])]
        inst = build_instance(validate_rayset(rays, name="mirror", mode=ScalarMode.integer()))
        for weights, expected in (((1, 1, 1), True), ((2, 0, 1), False)):
            assert fraction_operator_sum(inst, weights) is expected
            assert operator_sum_check(inst, weights) is expected

    def test_parts_beyond_32_bits(self):
        # (a + c*sqrt(2), b, 0) and (-b, a + c*sqrt(2), 0) are orthogonal
        # for any a, b, c; the norm a^2 + 2c^2 + b^2 + 2ac*sqrt(2) is
        # irrational and every product overflows int64.
        a, b, c = 2**40 + 1, 2**33 + 7, 3**25
        rays = [
            exact_ray([(a, c), (b, 0), (0, 0)], disc=2),
            exact_ray([(-b, 0), (a, c), (0, 0)], disc=2),
            exact_ray([0, 0, 1], disc=2),
        ]
        rayset = validate_rayset(rays, name="big", mode=ScalarMode.exact(2))
        assert max(abs(x.rat_part) for r in rayset.rays for x in r.coords) > 2**32
        inst = build_instance(rayset)
        assert inst.n_bases == 1
        assert fraction_operator_sum(inst, (1, 1, 1))
        assert operator_sum_check(inst, (1, 1, 1))
        assert not fraction_operator_sum(inst, (1, 2, 1))
        assert not operator_sum_check(inst, (1, 2, 1))
