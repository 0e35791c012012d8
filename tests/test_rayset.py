"""Tests for ray-set validation, graph construction, bases, and pruning."""

from __future__ import annotations

import collections
import itertools
import math
import random

import numpy as np
import pytest

from conftest import make_integer_family, make_quadratic_family, transformed
from kscertify.algebra import (
    DEFAULT_TOLERANCE,
    RayVector,
    exact_ray,
    is_orthogonal,
    numeric_ray,
)
from kscertify.catalog import catalog_entries, load_rayset
from kscertify.inequality import build_inequality, compute_weights, weighted_independence_number
from kscertify.rayset import (
    CompatibilityGraph,
    DuplicateRayError,
    InvalidGeometryError,
    ProblemInstance,
    ScalarMode,
    _exact_parts,
    build_graph,
    build_instance,
    covered_vertices,
    enumerate_bases,
    prune_unbased,
    symmetries,
    validate_rayset,
)
from oracles import fraction_duplicate_pair, signed_permutation_group

E2 = ScalarMode.exact(2)

# The largest coordinate part for which the Gram matrix of dimension-3
# integer rays still fits int64: 3 * M^2 * (1 + 1) < 2**63.
INT64_LIMIT_3D = math.isqrt((2**63 - 1) // 6)


def validated_dropping_duplicates(rays, mode):
    """Validate, dropping the second ray of each colinear pair found."""
    rays = list(rays)
    while True:
        try:
            return validate_rayset(rays, name="random", mode=mode)
        except DuplicateRayError as err:
            del rays[err.index_b]


def pairwise_edges(rayset, tol=1e-9):
    """The orthogonality edges by one ``is_orthogonal`` call per pair."""
    n = len(rayset.rays)
    return frozenset(
        (i, j)
        for i, j in itertools.combinations(range(n), 2)
        if is_orthogonal(rayset.rays[i], rayset.rays[j], tol=tol)
    )


def axes(disc: int = 2):
    return [
        exact_ray([1, 0, 0], disc=disc),
        exact_ray([0, 1, 0], disc=disc),
        exact_ray([0, 0, 1], disc=disc),
    ]


class TestValidate:
    def test_accepts_and_canonicalizes(self):
        rs = validate_rayset(
            [exact_ray([2, 0, 0], disc=2), exact_ray([0, -1, 0], disc=2)],
            name="pair",
            mode=E2,
        )
        assert rs.dimension == 3
        assert rs.rays[0] == exact_ray([1, 0, 0], disc=2)
        assert rs.rays[1] == exact_ray([0, 1, 0], disc=2)

    def test_colinear_duplicates_named(self):
        with pytest.raises(DuplicateRayError) as err:
            validate_rayset(
                [exact_ray([1, 0, 0], disc=2), exact_ray([-3, 0, 0], disc=2)],
                name="dup",
                mode=E2,
            )
        assert (err.value.index_a, err.value.index_b) == (0, 1)
        assert "0" in str(err.value) and "1" in str(err.value)

    def test_irrational_multiples_are_duplicates(self):
        # (sqrt(2), sqrt(2), 0) = sqrt(2) * (1, 1, 0): one ray, although no
        # rational factor relates the two canonical forms.
        with pytest.raises(DuplicateRayError) as err:
            validate_rayset(
                [
                    exact_ray([1, 1, 0], disc=2),
                    exact_ray([0, 1, 0], disc=2),
                    exact_ray([(0, 1), (0, 1), 0], disc=2),
                ],
                name="dup",
                mode=E2,
            )
        assert (err.value.index_a, err.value.index_b) == (0, 2)
        with pytest.raises(DuplicateRayError):
            # (1 + sqrt(2)) * (1, sqrt(2), 0) = (1 + sqrt(2), 2 + sqrt(2), 0)
            validate_rayset(
                [exact_ray([(1, 1), (2, 1), 0], disc=2), exact_ray([1, (0, 1), 0], disc=2)],
                name="dup",
                mode=E2,
            )

    def test_exact_duplicates_match_the_fraction_oracle(self):
        # Seeded lists over m in {1, 2, 3, 5, 6, 7} and d in {3, 4}.  About a
        # quarter of the rays are Q(sqrt(m))-multiples of earlier ones; in
        # one list out of five the factor has a part near 2**40, which the
        # canonical form keeps, so the keys of m > 1 go past the int64 guard
        # of _exact_parts to Python ints.
        seen = collections.Counter()
        for seed in range(600):
            rng = random.Random(seed)
            m, d = rng.choice((1, 2, 3, 5, 6, 7)), rng.choice((3, 4))
            big = 2**40 if rng.random() < 0.2 else 0
            rays = []
            for _ in range(rng.randint(3, 12)):
                if rays and rng.random() < 0.25:
                    c, e = rng.choice(((2, -1), (0, 1), (-3, 0), (1, 2), (1, 1)))
                    c += big
                    coords = [(a * c + m * b * e, a * e + b * c) for a, b in rng.choice(rays).coords]
                else:
                    coords = [(rng.randint(-2, 2), rng.randint(-2, 2)) for _ in range(d)]
                if any(a or b for a, b in coords) and (m > 1 or any(a + b for a, b in coords)):
                    rays.append(RayVector(tuple(coords), m))
            expected = fraction_duplicate_pair(rays, m)
            try:
                validate_rayset(rays, name="r", mode=ScalarMode.exact(m))
                found = None
            except DuplicateRayError as err:
                found = (err.index_a, err.index_b)
            assert found == expected, seed
            seen["duplicate" if expected else "distinct"] += 1
            rat, _ = _exact_parts(rays, m)
            seen["object"] += m > 1 and rat.dtype == object
        assert min(seen.values()) >= 40, seen

    def test_numeric_near_duplicates_rejected(self):
        with pytest.raises(DuplicateRayError):
            validate_rayset(
                [numeric_ray([1.0, 0.0, 0.0]), numeric_ray([1.0, 1e-8, 0.0])],
                name="near",
                mode=ScalarMode.numeric(1e-9),
            )

    def test_numeric_duplicate_pair_matches_row_scan(self):
        # The first pair met by scanning j upward, then i < j upward.
        rng = random.Random(5)
        for _ in range(50):
            base = [[rng.randint(-2, 2) for _ in range(3)] for _ in range(8)]
            base = [v for v in base if any(v)]
            scales = [rng.choice([-1.5, 2.0]) for _ in base]
            rays = [numeric_ray([c * x for x in v]) for c, v in zip(scales, base)]
            units = [tuple(x / math.hypot(*v) for x in v) for v in base]
            expected = next(
                (
                    (i, j)
                    for j in range(len(units))
                    for i in range(j)
                    if abs(sum(a * b for a, b in zip(units[i], units[j]))) > 1.0 - 1e-9
                ),
                None,
            )
            if expected is None:
                validate_rayset(rays, name="r", mode=ScalarMode.numeric(1e-9))
                continue
            with pytest.raises(DuplicateRayError) as err:
                validate_rayset(rays, name="r", mode=ScalarMode.numeric(1e-9))
            assert (err.value.index_a, err.value.index_b) == expected

    @pytest.mark.parametrize("tol", [float("nan"), float("inf"), -float("inf"), -1.0, -1e-12])
    def test_bad_numeric_tolerance_rejected(self, tol):
        with pytest.raises(ValueError, match="tolerance"):
            ScalarMode.numeric(tol)

    @pytest.mark.parametrize(
        "mode", [("exact", 4), ("exact", 0), ("exact", -3), ("exact", None), ("exact", True)]
    )
    def test_bad_discriminant_rejected(self, mode):
        with pytest.raises(ValueError, match="is not a positive square-free integer"):
            ScalarMode(*mode)

    def test_discriminant_bound(self):
        with pytest.raises(ValueError, match=r"discriminant 2147483648 is not below 2\*\*31"):
            ScalarMode.exact(2**31)
        # 2**31 - 1 is prime.
        assert ScalarMode.exact(2**31 - 1).disc == 2**31 - 1

    @pytest.mark.parametrize(
        "mode, message",
        [
            (("exact", 2, 0.5), "exact scalar mode takes no tolerance, got 0.5"),
            (("exact", 1, DEFAULT_TOLERANCE), "exact scalar mode takes no tolerance"),
            (("numeric", 3), "numeric scalar mode takes no discriminant, got 3"),
            (("numeric", 1, 1e-6), "numeric scalar mode takes no discriminant, got 1"),
        ],
    )
    def test_field_of_the_other_kind_rejected(self, mode, message):
        # A field the mode's kind does not use would be lost by a round trip
        # through the file format, which writes only the kind's own field.
        with pytest.raises(ValueError, match=message):
            ScalarMode(*mode)

    def test_numeric_mode_defaults_its_tolerance(self):
        assert ScalarMode("numeric") == ScalarMode.numeric(DEFAULT_TOLERANCE)

    def test_dimension_below_three_rejected(self):
        with pytest.raises(ValueError, match="dimension"):
            validate_rayset([exact_ray([1, 0], disc=2)], name="d2", mode=E2)

    def test_inconsistent_dimension_rejected(self):
        with pytest.raises(ValueError, match="dimension"):
            validate_rayset(
                [exact_ray([1, 0, 0], disc=2), exact_ray([1, 0, 0, 0], disc=2)],
                name="mixed",
                mode=E2,
            )

    def test_empty_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            validate_rayset([], name="none", mode=E2)

    def test_mode_mismatch_rejected(self):
        with pytest.raises(ValueError, match="mode"):
            validate_rayset([numeric_ray([1, 0, 0])], name="x", mode=E2)
        with pytest.raises(ValueError, match="discriminant"):
            validate_rayset([exact_ray([1, 0, 0], disc=3)], name="x", mode=E2)


class TestGraph:
    def test_axes_form_triangle(self):
        rs = validate_rayset(axes(), name="axes", mode=E2)
        g = build_graph(rs)
        assert g.edges == frozenset({(0, 1), (0, 2), (1, 2)})

    def test_no_edges(self):
        rs = validate_rayset(
            [exact_ray([1, 1, 0], disc=2), exact_ray([1, 0, 0], disc=2)],
            name="skew",
            mode=E2,
        )
        assert build_graph(rs).edges == frozenset()

    def test_permutation_equivariance(self):
        rng = random.Random(11)
        rays = []
        while len(rays) < 8:
            cand = [(rng.randint(-3, 3), rng.randint(-3, 3)) for _ in range(3)]
            if any(c != (0, 0) for c in cand):
                rays.append(cand)
        try:
            rs = validate_rayset(
                [exact_ray(r, disc=2) for r in rays], name="a", mode=E2
            )
        except DuplicateRayError:
            pytest.skip("random draw collided")
        perm = list(range(8))
        rng.shuffle(perm)
        rs_p = validate_rayset(
            [exact_ray(rays[perm[i]], disc=2) for i in range(8)], name="b", mode=E2
        )
        g, g_p = build_graph(rs), build_graph(rs_p)
        inv = {perm[i]: i for i in range(8)}
        expected = frozenset(tuple(sorted((inv[i], inv[j]))) for i, j in g.edges)
        assert g_p.edges == expected

    def test_edge_validation(self):
        with pytest.raises(ValueError, match="ordered"):
            CompatibilityGraph(vertex_count=3, edges=frozenset({(1, 0)}))

    @pytest.mark.parametrize("disc", [1, 2, 3, 5, 6])
    @pytest.mark.parametrize("dim", [3, 4])
    def test_gram_matches_pair_oracle_exact(self, disc, dim):
        rng = random.Random(100 * disc + dim)

        def part(p):
            # Sparse parts in [-4, 4], so that orthogonal pairs are common.
            return rng.randint(-4, 4) if rng.random() < p else 0

        total = 0
        for _ in range(5):
            rays = []
            while len(rays) < 40:
                cand = [(part(0.6), part(0.3) if disc > 1 else 0) for _ in range(dim)]
                if any(c != (0, 0) for c in cand):
                    rays.append(exact_ray(cand, disc=disc))
            rs = validated_dropping_duplicates(rays, ScalarMode.exact(disc))
            edges = build_graph(rs).edges
            assert edges == pairwise_edges(rs)
            total += len(edges)
        assert total, "no draw has an orthogonal pair; the check would be vacuous"

    @pytest.mark.parametrize("dim", [3, 4, 5])
    def test_gram_matches_pair_oracle_numeric(self, dim):
        rng = random.Random(dim)
        for tol in (1e-9, 0.3):
            # Scaled integer rays (exactly orthogonal pairs) and generic ones.
            integer = [[rng.randint(-2, 2) for _ in range(dim)] for _ in range(40)]
            rays = [
                numeric_ray([rng.uniform(0.5, 3.0) * x for x in v]) for v in integer if any(v)
            ] + [numeric_ray([rng.gauss(0.0, 1.0) for _ in range(dim)]) for _ in range(20)]
            rs = validated_dropping_duplicates(rays, ScalarMode.numeric(tol))
            edges = build_graph(rs).edges
            assert edges == pairwise_edges(rs, tol=tol)
            assert edges

    def test_int64_overflow_falls_back_to_exact_ints(self):
        # (2^32, 1, 0) . (2^32, 0, 1) = 2^64, which wraps to 0 in int64.
        big = 2**32
        rs = validate_rayset(
            [exact_ray([big, 1, 0], disc=1), exact_ray([big, 0, 1], disc=1),
             exact_ray([0, 0, 1], disc=1)],
            name="big",
            mode=ScalarMode.integer(),
        )
        rational, _ = _exact_parts(rs.rays, 1)
        assert rational.dtype == object
        assert (rational @ rational.T)[0, 1] == 2**64
        assert build_graph(rs).edges == frozenset({(0, 2)}) == pairwise_edges(rs)

    def test_int64_path_just_under_guard(self):
        m = INT64_LIMIT_3D
        rays = [[m, 1, 0], [1, -m, 0], [m, m, 1], [m, m, -1], [1, -1, 0], [m - 1, m, 1]]
        rs = validate_rayset(
            [exact_ray(r, disc=1) for r in rays], name="edge", mode=ScalarMode.integer()
        )
        rational, _ = _exact_parts(rs.rays, 1)
        assert rational.dtype == np.int64
        assert build_graph(rs).edges == pairwise_edges(rs)
        assert (0, 1) in build_graph(rs).edges
        # One more unit on the largest part crosses the guard.
        over = validate_rayset(
            [exact_ray([m + 1, 1, 0], disc=1), exact_ray([1, -m - 1, 0], disc=1)],
            name="over",
            mode=ScalarMode.integer(),
        )
        assert _exact_parts(over.rays, 1)[0].dtype == object
        assert build_graph(over).edges == frozenset({(0, 1)}) == pairwise_edges(over)


class TestBases:
    def test_single_basis(self):
        rs = validate_rayset(axes(), name="axes", mode=E2)
        g = build_graph(rs)
        assert enumerate_bases(rs, g) == ((0, 1, 2),)

    def test_two_bases_sharing_a_ray(self):
        rays = axes() + [exact_ray([1, 1, 0], disc=2), exact_ray([1, -1, 0], disc=2)]
        rs = validate_rayset(rays, name="shared", mode=E2)
        g = build_graph(rs)
        assert enumerate_bases(rs, g) == ((0, 1, 2), (2, 3, 4))

    def test_no_bases(self):
        rs = validate_rayset(
            [exact_ray([1, 0, 0], disc=2), exact_ray([0, 1, 0], disc=2)],
            name="pair",
            mode=E2,
        )
        assert enumerate_bases(rs, build_graph(rs)) == ()

    def test_lexicographic_order_and_sorted_tuples(self, peres33_instance):
        bases = peres33_instance.bases
        assert all(tuple(sorted(b)) == b for b in bases)
        assert list(bases) == sorted(bases)

    def test_absurd_numeric_tolerance_raises_invalid_geometry(self):
        # With tol = 0.6 the four rays below are pairwise "orthogonal", which
        # would be a 4-clique in dimension 3.
        s = 3 ** -0.5
        rs = validate_rayset(
            [
                numeric_ray([1.0, 0.0, 0.0]),
                numeric_ray([0.0, 1.0, 0.0]),
                numeric_ray([0.0, 0.0, 1.0]),
                numeric_ray([s, s, s]),
            ],
            name="degenerate",
            mode=ScalarMode.numeric(0.6),
        )
        g = build_graph(rs)
        with pytest.raises(InvalidGeometryError, match="orthogonal"):
            enumerate_bases(rs, g)


class TestPeres33Pipeline:
    def test_ray_count(self, peres33):
        assert len(peres33.rays) == 33

    def test_edge_count_frozen(self, peres33_instance):
        assert len(peres33_instance.graph.edges) == 72

    def test_basis_count_matches_triple_scan_oracle(self, peres33, peres33_instance):
        n = len(peres33.rays)
        oracle = tuple(
            (i, j, k)
            for i, j, k in itertools.combinations(range(n), 3)
            if is_orthogonal(peres33.rays[i], peres33.rays[j])
            and is_orthogonal(peres33.rays[i], peres33.rays[k])
            and is_orthogonal(peres33.rays[j], peres33.rays[k])
        )
        assert peres33_instance.bases == oracle
        assert peres33_instance.n_bases == 16

    def test_every_basis_resolves_identity(self, peres33, peres33_instance):
        # For d mutually orthogonal rays the normalized projectors sum to I.
        d = peres33.dimension
        for basis in peres33_instance.bases:
            total = np.zeros((d, d))
            for v in basis:
                u = np.array(peres33.rays[v].to_floats())
                total += np.outer(u, u) / (u @ u)
            assert np.max(np.abs(total - np.eye(d))) < 1e-12

    def test_already_pruned(self, peres33_instance):
        assert covered_vertices(peres33_instance) == list(range(33))
        assert prune_unbased(peres33_instance) == peres33_instance


class TestPrune:
    def test_removes_unbased_ray(self):
        rays = axes() + [exact_ray([1, 1, 1], disc=2)]
        inst = build_instance(validate_rayset(rays, name="extra", mode=E2))
        pruned = prune_unbased(inst)
        assert pruned.graph.vertex_count == 3
        assert pruned.bases == ((0, 1, 2),)
        assert pruned.rayset is not None and len(pruned.rayset.rays) == 3

    def test_reindexing_preserves_edges(self):
        # Vertex 0 is unbased; vertices 1..3 form the basis.
        rays = [exact_ray([1, 1, 1], disc=2)] + axes()
        inst = build_instance(validate_rayset(rays, name="shift", mode=E2))
        pruned = prune_unbased(inst)
        assert pruned.bases == ((0, 1, 2),)
        assert pruned.graph.edges == frozenset({(0, 1), (0, 2), (1, 2)})

    def test_error_when_no_bases(self):
        rays = [exact_ray([1, 0, 0], disc=2), exact_ray([0, 1, 0], disc=2)]
        inst = build_instance(validate_rayset(rays, name="pair", mode=E2))
        with pytest.raises(ValueError, match="prun"):
            prune_unbased(inst)

    def test_idempotent_on_synthetics(self):
        from conftest import make_synthetic_instance

        rng = random.Random(2126)
        for _ in range(50):
            inst = make_synthetic_instance(rng)
            once = prune_unbased(inst)
            assert prune_unbased(once) == once


def assert_automorphisms(instance: ProblemInstance, group) -> None:
    """Each element maps edges to edges, bases to bases and keeps weights."""
    n = instance.graph.vertex_count
    edges = instance.graph.edges
    weights = compute_weights(instance)
    for g in group:
        assert sorted(g) == list(range(n))
        assert {tuple(sorted((g[i], g[j]))) for i, j in edges} == edges
        images = sorted(tuple(sorted(g[v] for v in basis)) for basis in instance.bases)
        assert images == list(instance.bases)
        assert tuple(weights[g[v]] for v in range(n)) == weights


def assert_group(group) -> None:
    """Distinct permutations, the identity first, closed under composition."""
    members = set(group)
    assert len(members) == len(group)
    assert group[0] == tuple(range(len(group[0])))
    for g in group:
        for h in group:
            assert tuple(g[v] for v in h) in members


class TestSymmetries:
    @pytest.mark.parametrize(
        "dim, values, disc, order",
        [
            (3, ((1, 0), (2, 0)), 1, 24),
            (3, ((1, 0), (2, 0), (4, 0)), 1, 24),
            (3, ((1, 0), (0, 1)), 2, 24),
            (3, ((1, 0), (0, 1)), 3, 24),
            (4, ((1, 0),), 1, 192),
            (4, ((1, 0), (2, 0)), 1, 192),
        ],
    )
    def test_whole_families(self, dim, values, disc, order):
        rayset = make_quadratic_family(dim, values, disc)
        group = symmetries(rayset)
        assert len(group) == order
        assert_group(group)
        assert_automorphisms(build_instance(rayset), group)
        if len(rayset.rays) <= 60:
            assert set(group) == signed_permutation_group(rayset)

    @pytest.mark.parametrize("seed", range(4))
    def test_transformed_family_keeps_its_group(self, seed):
        rayset = transformed(make_integer_family(3, (1, 2)), random.Random(seed))
        group = symmetries(rayset)
        assert len(group) == 24
        assert set(group) == signed_permutation_group(rayset)
        assert_automorphisms(build_instance(rayset), group)

    @pytest.mark.parametrize("entry", [e.id for e in catalog_entries()])
    def test_catalog_sets_match_the_oracle(self, entry):
        rayset = load_rayset(entry)
        group = symmetries(rayset)
        assert_group(group)
        assert set(group) == signed_permutation_group(rayset)
        assert_automorphisms(build_instance(rayset), group)

    @pytest.mark.parametrize("seed", range(6))
    def test_subsets_match_the_oracle(self, seed):
        # 70-99 % of a family keeps only part of the group, often none of it.
        rng = random.Random(seed)
        family = (make_integer_family(3, (1, 2)), make_quadratic_family(3, ((1, 0), (0, 1)), 2))
        rayset = transformed(family[seed % 2], rng, keep=rng.uniform(0.7, 0.99))
        group = symmetries(rayset)
        assert_group(group)
        assert set(group) == signed_permutation_group(rayset)

    @pytest.mark.parametrize("seed", range(4))
    def test_symmetry_breaking_subsets_get_the_trivial_group(self, seed):
        rng = random.Random(seed)
        family = make_integer_family(3, (1, 2, 4 if seed % 2 else 3))
        rayset = transformed(family, rng, keep=rng.uniform(0.7, 0.9))
        assert symmetries(rayset) == (tuple(range(len(rayset.rays))),)

    @pytest.mark.parametrize("seed", [43, 85])
    def test_identity_alone_surviving_the_first_rays(self, seed):
        # Only the identity maps the first rays into the set, so the keys of
        # the whole set are computed for one element.
        rng = random.Random(seed)
        rayset = transformed(make_integer_family(3, (1, 2)), rng, keep=rng.uniform(0.7, 0.99))
        assert symmetries(rayset) == (tuple(range(len(rayset.rays))),)
        assert signed_permutation_group(rayset) == {tuple(range(len(rayset.rays)))}
        pruned = prune_unbased(build_instance(rayset))
        assert build_inequality(pruned).quantum_value == pruned.n_bases

    def test_parts_past_the_int64_guard_get_the_trivial_group(self):
        rayset = make_integer_family(3, (1, 2**32))
        assert _exact_parts(rayset.rays, 1)[0].dtype == object
        assert symmetries(rayset) == (tuple(range(len(rayset.rays))),)

    def test_numeric_and_high_dimension_sets_get_the_trivial_group(self):
        family = make_integer_family(3, (1, 2))
        numeric = validate_rayset(
            [numeric_ray(ray.to_floats()) for ray in family.rays],
            name="numeric",
            mode=ScalarMode.numeric(),
        )
        assert symmetries(numeric) == (tuple(range(49)),)
        assert symmetries(make_integer_family(5, (1,))) == (tuple(range(121)),)

    @pytest.mark.parametrize(
        "group, message",
        [
            ([(0, 1, 2)], "length 3, not 4"),
            ([(0, 1, 2, 2)], "symmetry 0 is not a permutation"),
            ([(0, 1, 2, 3), (1, 0, 2, 3)], "symmetry 1 changes a weight"),
            ([(3, 1, 2, 0)], "symmetry 0 maps an edge to a non-edge"),
        ],
    )
    def test_non_automorphisms_are_rejected(self, group, message):
        # The path 0-1-2-3 with weights 1, 2, 2, 1: its one automorphism
        # besides the identity is the reversal (3, 2, 1, 0).
        graph = CompatibilityGraph(4, frozenset({(0, 1), (1, 2), (2, 3)}))
        weights = (1, 2, 2, 1)
        assert weighted_independence_number(graph, weights, [(0, 1, 2, 3), (3, 2, 1, 0)]) == 3
        with pytest.raises(ValueError, match=message):
            weighted_independence_number(graph, weights, group)

    def test_a_set_that_is_not_a_group_is_rejected(self):
        # Rotations of a triangle: one of them without its square is no group.
        graph = CompatibilityGraph(3, frozenset({(0, 1), (0, 2), (1, 2)}))
        rotations = [(0, 1, 2), (1, 2, 0), (2, 0, 1)]
        assert weighted_independence_number(graph, (1, 1, 1), rotations) == 1
        with pytest.raises(ValueError, match="not closed under composition"):
            weighted_independence_number(graph, (1, 1, 1), rotations[:2])
