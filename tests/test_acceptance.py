"""End-to-end acceptance checks.

Nine criteria, one test and one printed PASS/FAIL line each.  Every claim is
checked against an independent method: brute-force enumeration, a second
branch and bound with another bounding function (both in ``oracles.py``),
exact operator sums, or the command-line interface driven through temporary
files.
"""

from __future__ import annotations

import random
import time

import pytest

from kscertify.algebra import RayVector
from kscertify.catalog import catalog_entries, load_rayset, load_text
from kscertify.cli import run_command
from kscertify.coloring import DefinitionMode, check_colorable, verify_assignment
from kscertify.inequality import (
    StateSpec,
    build_inequality,
    compute_weights,
    operator_sum_check,
    quantum_value,
    weighted_independence_number,
)
from kscertify.rayset import (
    CompatibilityGraph,
    ProblemInstance,
    build_instance,
    covered_vertices,
    prune_unbased,
    validate_rayset,
)

from conftest import brute_force_colorable, make_synthetic_instance
from oracles import brute_force_alpha, weight_sum_alpha

import io


def _finish(capsys, number: int, name: str, ok: bool, detail: str = "") -> None:
    suffix = f" ({detail})" if detail else ""
    with capsys.disabled():
        print(f"acceptance {number} {name}: {'PASS' if ok else 'FAIL'}{suffix}")
    assert ok, f"acceptance criterion {number} ({name}) failed"


def _run_cli(argv) -> tuple[int, str]:
    out = io.StringIO()
    status = run_command(argv, out=out)
    return status, out.getvalue()


def _catalog_instances():
    return [
        (entry, build_instance(load_rayset(entry.id)))
        for entry in catalog_entries()
    ]


def _synthetic_instances(seed_base: int, count: int = 200):
    return [
        make_synthetic_instance(random.Random(seed_base + k)) for k in range(count)
    ]


def _random_weighted_graph(rng: random.Random):
    n = rng.randint(8, 20)
    density = rng.uniform(0.2, 0.6)
    edges = frozenset(
        (i, j)
        for i in range(n)
        for j in range(i + 1, n)
        if rng.random() < density
    )
    graph = CompatibilityGraph(vertex_count=n, edges=edges)
    weights = tuple(rng.randint(1, 9) for _ in range(n))
    return graph, weights


def _maximum_cliques(graph: CompatibilityGraph) -> list[tuple[int, ...]]:
    """All cliques of maximum size, found by exhaustive extension."""
    found: list[tuple[int, ...]] = []

    def extend(clique: tuple[int, ...], candidates: list[int]) -> None:
        found.append(clique)
        for k, v in enumerate(candidates):
            extend(clique + (v,), [w for w in candidates[k + 1 :] if graph.has_edge(v, w)])

    extend((), list(range(graph.vertex_count)))
    best = max(len(c) for c in found)
    return [c for c in found if len(c) == best]


def test_acceptance_1_peres33_cli_verification(tmp_path, capsys):
    """CLI certifies Peres-33: KS under ORIGINAL, colorable under EXTENDED."""
    path = tmp_path / "peres-33.ks"
    path.write_text(load_text("peres-33"), encoding="utf-8")

    start = time.monotonic()
    status_original, text_original = _run_cli(
        ["verify", str(path), "--mode", "original"]
    )
    elapsed_original = time.monotonic() - start

    start = time.monotonic()
    status_extended, text_extended = _run_cli(
        ["verify", str(path), "--mode", "extended"]
    )
    elapsed_extended = time.monotonic() - start

    ok = status_original == 0 and "KS" in text_original.splitlines()
    ok = ok and status_extended == 1 and "COLORABLE" in text_extended.splitlines()
    witness_line = next(
        (l for l in text_extended.splitlines() if l.startswith("witness ")), None
    )
    ok = ok and witness_line is not None
    if ok:
        witness = tuple(int(tok) for tok in witness_line.split()[1:])
        instance = build_instance(load_rayset("peres-33"))
        ok = verify_assignment(instance, witness, DefinitionMode.EXTENDED)
        ok = ok and not verify_assignment(instance, witness, DefinitionMode.ORIGINAL)
    ok = ok and elapsed_original < 60 and elapsed_extended < 60
    _finish(
        capsys,
        1,
        "peres-33 CLI verification",
        ok,
        f"original {elapsed_original:.2f}s, extended {elapsed_extended:.2f}s",
    )


def test_acceptance_2_classical_bound_cross_checked(capsys):
    """alpha(G,w) <= N - 1 on catalog sets, confirmed by a second method."""
    ok = True
    details = []
    for entry, instance in _catalog_instances():
        weights = compute_weights(instance)
        alpha = weighted_independence_number(instance.graph, weights)
        if instance.graph.vertex_count <= 25:
            second = brute_force_alpha(instance.graph, weights)
            method = "brute force"
        else:
            second = weight_sum_alpha(instance.graph, weights)
            method = "weight-sum branch and bound"
        ok = ok and alpha == second and alpha <= instance.n_bases - 1
        details.append(f"{entry.id} alpha={alpha}<{instance.n_bases} [{method}]")
    _finish(capsys, 2, "classical bound strict and cross-checked", ok, "; ".join(details))


def test_acceptance_3_quantum_value_state_independent(capsys):
    """W = N for the mixed state (1e-12) and 100 random pure states (1e-9)."""
    ok = True
    worst = 0.0
    for entry, instance in _catalog_instances():
        inequality = build_inequality(instance)
        n = inequality.quantum_value
        weights = inequality.vertex_weights
        mixed = quantum_value(instance, weights, StateSpec.maximally_mixed())
        ok = ok and abs(mixed - n) <= 1e-12
        for seed in range(100):
            value = quantum_value(instance, weights, StateSpec.random_pure(seed))
            worst = max(worst, abs(value - n))
            ok = ok and abs(value - n) <= 1e-9
        ok = ok and operator_sum_check(instance, compute_weights(instance))
    _finish(
        capsys,
        3,
        "quantum value equals basis count",
        ok,
        f"max |W-N| over 300 random states {worst:.2e}",
    )


def test_acceptance_4_extended_implies_original(capsys):
    """No instance is extended-KS without also being original-KS."""
    instances = [inst for _, inst in _catalog_instances()]
    instances += _synthetic_instances(4000)
    violations = 0
    for instance in instances:
        extended_ks = not check_colorable(instance, DefinitionMode.EXTENDED).colorable
        original_ks = not check_colorable(instance, DefinitionMode.ORIGINAL).colorable
        if extended_ks and not original_ks:
            violations += 1
    _finish(
        capsys,
        4,
        "extended-KS implies original-KS",
        violations == 0,
        f"{len(instances)} instances, {violations} violations",
    )


def test_acceptance_5_coloring_matches_brute_force(capsys):
    """Backtracking verdicts equal 2^n enumeration on 200 random instances."""
    mismatches = 0
    for instance in _synthetic_instances(5000):
        for mode in (DefinitionMode.ORIGINAL, DefinitionMode.EXTENDED):
            fast = check_colorable(instance, mode).colorable
            slow = brute_force_colorable(instance, mode)
            if fast != slow:
                mismatches += 1
    _finish(
        capsys,
        5,
        "coloring search equals brute force",
        mismatches == 0,
        f"200 instances x 2 modes, {mismatches} mismatches",
    )


def test_acceptance_6_alpha_matches_brute_force(capsys):
    """Branch-and-bound alpha equals the subset-DP oracle on 200 graphs.

    The weight-sum oracle that acceptance 2 uses beyond 25 vertices is held
    to the same brute force on the same graphs.
    """
    mismatches = 0
    for k in range(200):
        rng = random.Random(6000 + k)
        graph, weights = _random_weighted_graph(rng)
        exact = brute_force_alpha(graph, weights)
        for solver in (weighted_independence_number, weight_sum_alpha):
            if solver(graph, weights) != exact:
                mismatches += 1
    _finish(
        capsys,
        6,
        "independence number equals brute force",
        mismatches == 0,
        f"200 graphs x 2 solvers, {mismatches} mismatches",
    )


def test_acceptance_7_colorable_iff_alpha_equals_n(capsys):
    """ORIGINAL-colorability coincides with alpha(G,w) = N after pruning."""
    instances = [inst for _, inst in _catalog_instances()]
    instances += _synthetic_instances(4000)
    instances += _synthetic_instances(5000)
    for k in range(200):
        rng = random.Random(6000 + k)
        graph, _ = _random_weighted_graph(rng)
        bases = tuple(_maximum_cliques(graph))
        instances.append(ProblemInstance(rayset=None, graph=graph, bases=bases))
    violations = 0
    checked = 0
    for instance in instances:
        if not instance.bases:
            continue
        pruned = prune_unbased(instance)
        checked += 1
        colorable = check_colorable(pruned, DefinitionMode.ORIGINAL).colorable
        weights = compute_weights(pruned)
        alpha = weighted_independence_number(pruned.graph, weights)
        if colorable != (alpha == pruned.n_bases):
            violations += 1
    _finish(
        capsys,
        7,
        "colorability equals zero inequality gap",
        violations == 0,
        f"{checked} pruned instances, {violations} violations",
    )


def test_acceptance_8_pruning_idempotent_and_verdict_preserving(capsys):
    """prune_unbased is idempotent and never changes a catalog verdict."""
    ok = True
    for instance in _synthetic_instances(4000, count=100):
        if not covered_vertices(instance):
            continue
        once = prune_unbased(instance)
        twice = prune_unbased(once)
        ok = ok and twice is once
    for entry, instance in _catalog_instances():
        pruned = prune_unbased(instance)
        ok = ok and pruned is instance  # catalog sets have no unbased rays
        for mode in (DefinitionMode.ORIGINAL, DefinitionMode.EXTENDED):
            before = check_colorable(instance, mode).colorable
            after = check_colorable(pruned, mode).colorable
            ok = ok and before == after
    _finish(capsys, 8, "pruning idempotent, verdicts preserved", ok)


def test_acceptance_9_supersets_stay_ks(capsys):
    """Adding 5 random rays to Peres-33 never destroys the KS verdict."""
    base = load_rayset("peres-33")
    successes = 0
    for trial in range(20):
        rng = random.Random(9000 + trial)
        rays = list(base.rays)
        while len(rays) < len(base.rays) + 5:
            coords = tuple((rng.randint(-2, 2), rng.randint(-2, 2)) for _ in range(3))
            if all(c == (0, 0) for c in coords):
                continue
            candidate = rays + [RayVector(coords, 2)]
            try:
                validate_rayset(candidate, name="superset", mode=base.mode)
            except ValueError:
                continue  # duplicate of an existing ray; draw again
            rays = candidate
        superset = validate_rayset(rays, name="superset", mode=base.mode)
        instance = build_instance(superset)
        if not check_colorable(instance, DefinitionMode.ORIGINAL).colorable:
            successes += 1
    _finish(
        capsys,
        9,
        "supersets preserve original-KS",
        successes == 20,
        f"{successes}/20 trials",
    )
