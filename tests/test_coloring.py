"""Tests for KS colorability: assignment checking and the exact-cover search."""

from __future__ import annotations

import random
import time

import pytest

import kscertify.coloring
from conftest import (
    brute_force_colorable,
    make_integer_family,
    make_quadratic_family,
    make_single_basis_instance,
    make_synthetic_instance,
)
from kscertify.catalog import catalog_entries, load_rayset
from kscertify.coloring import (
    DefinitionMode,
    check_colorable,
    is_ks_set,
    verify_assignment,
)
from kscertify.inequality import compute_weights, weighted_independence_number
from kscertify.rayset import (
    CompatibilityGraph,
    ProblemInstance,
    build_instance,
    prune_unbased,
    validate_rayset,
)
from oracles import milp_colorable

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


class TestWitnessRecheck:
    @pytest.mark.parametrize(
        "mode, chosen",
        [
            # Rays 0, 3 and 4 cover the basis once, but 3 and 4 are orthogonal.
            (ORIGINAL, 0b11001),
            # Rays 0 and 1 cover the basis twice.
            (EXTENDED, 0b00011),
        ],
    )
    def test_invalid_cover_raises(self, monkeypatch, mode, chosen):
        monkeypatch.setattr(kscertify.coloring, "_exact_cover", lambda inst, m: (chosen, 1))
        with pytest.raises(RuntimeError, match=mode.value):
            check_colorable(lone_edge_instance(), mode)


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


# The ladder: whole families intD{S} / q2_D{S} (see conftest) and peres-33.
# The first three are the families whose extended search used to take from
# milliseconds to more than 20 s depending on the ray order.
FAMILIES = {
    "int4{0,1,2}": lambda: make_integer_family(4, (1, 2)),
    "int6{0,1}": lambda: make_integer_family(6, (1,)),
    "q2_4{0,1,r2}": lambda: make_quadratic_family(4, ((1, 0), (0, 1)), disc=2),
    "int3{0,1,2,4}": lambda: make_integer_family(3, (1, 2, 4)),
    "int3{0,1,2,3}": lambda: make_integer_family(3, (1, 2, 3)),
    "int5{0,1}": lambda: make_integer_family(5, (1,)),
    "int3{0,1,2,3,4}": lambda: make_integer_family(3, (1, 2, 3, 4)),
    "peres-33": lambda: load_rayset("peres-33"),
}
ORDER_SENSITIVE = ("int4{0,1,2}", "int6{0,1}", "q2_4{0,1,r2}")
SEARCH_SECONDS = 2.0


@pytest.fixture(scope="module")
def families():
    return {name: make() for name, make in FAMILIES.items()}


def reordered_instance(rayset, shuffle_seed) -> ProblemInstance:
    """The instance of a ray set in its own order (seed None) or shuffled."""
    rays = list(rayset.rays)
    if shuffle_seed is not None:
        random.Random(shuffle_seed).shuffle(rays)
    return build_instance(validate_rayset(rays, name=rayset.name, mode=rayset.mode))


def random_subset(rayset, seed: int) -> ProblemInstance:
    """A seeded subset of 70-95 % of the rays, pruned to its bases."""
    rng = random.Random(seed)
    rays = rng.sample(rayset.rays, round(rng.uniform(0.70, 0.95) * len(rayset.rays)))
    return prune_unbased(build_instance(validate_rayset(rays, name=rayset.name, mode=rayset.mode)))


class TestOrderRobustness:
    @pytest.mark.parametrize("mode", [ORIGINAL, EXTENDED], ids=lambda m: m.value)
    @pytest.mark.parametrize("shuffle_seed", [None, 1, 2, 3])
    @pytest.mark.parametrize("name", ORDER_SENSITIVE)
    def test_ks_within_time_bound(self, families, name, shuffle_seed, mode):
        inst = reordered_instance(families[name], shuffle_seed)
        start = time.perf_counter()
        result = check_colorable(inst, mode)
        elapsed = time.perf_counter() - start
        assert not result.colorable
        assert elapsed < SEARCH_SECONDS, f"{name} {mode.value} took {elapsed:.2f} s"


    # Subsets on which the search without its memory of refuted states ran
    # past 3 s; with it each takes at most 0.2 s.
    @pytest.mark.parametrize(
        "name, seed", [("q2_4{0,1,r2}", 5), ("int6{0,1}", 1), ("int6{0,1}", 8), ("int6{0,1}", 11)]
    )
    def test_refuted_states_are_not_searched_again(self, families, name, seed):
        inst = random_subset(families[name], seed)
        start = time.perf_counter()
        result = check_colorable(inst, EXTENDED)
        elapsed = time.perf_counter() - start
        assert not result.colorable
        assert elapsed < SEARCH_SECONDS, f"{name} subset {seed} took {elapsed:.2f} s"


class TestAgainstMilp:
    # The HiGHS program needs about 5 s for int6{0,1} under ORIGINAL; that
    # row is covered by the order-robustness tests instead.
    @pytest.mark.parametrize(
        "name, mode",
        [
            pytest.param(name, mode, id=f"{name}-{mode.value}")
            for name in FAMILIES
            for mode in (ORIGINAL, EXTENDED)
            if (name, mode) != ("int6{0,1}", ORIGINAL)
        ],
    )
    def test_ladder_rows(self, families, name, mode):
        inst = prune_unbased(build_instance(families[name]))
        assert check_colorable(inst, mode).colorable == milp_colorable(inst, mode)

    def test_random_subsets_reach_both_verdicts(self, families):
        verdicts = {ORIGINAL: set(), EXTENDED: set()}
        for seed in range(6):
            inst = random_subset(families["int5{0,1}"], seed)
            for mode, seen in verdicts.items():
                colorable = check_colorable(inst, mode).colorable
                assert colorable == milp_colorable(inst, mode), (seed, mode)
                seen.add(colorable)
        assert verdicts == {ORIGINAL: {True, False}, EXTENDED: {True, False}}


class TestAlphaIdentity:
    """An independent set weighs the number of bases it meets, so
    alpha(G, w) = N exactly when an ORIGINAL coloring exists."""

    @staticmethod
    def assert_identity(inst: ProblemInstance) -> bool:
        alpha = weighted_independence_number(inst.graph, compute_weights(inst))
        colorable = check_colorable(inst, ORIGINAL).colorable
        assert (alpha == inst.n_bases) == colorable
        return colorable

    @pytest.mark.parametrize("entry_id", [e.id for e in catalog_entries()])
    def test_catalog(self, entry_id):
        assert not self.assert_identity(build_instance(load_rayset(entry_id)))

    @pytest.mark.parametrize("name", ["int3{0,1,2,4}", "int3{0,1,2,3}", "int5{0,1}"])
    def test_integer_families(self, families, name):
        assert not self.assert_identity(prune_unbased(build_instance(families[name])))

    def test_random_subsets_reach_both_verdicts(self, families):
        subsets = (random_subset(families["int5{0,1}"], seed) for seed in range(6))
        assert {self.assert_identity(inst) for inst in subsets} == {True, False}
