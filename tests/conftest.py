"""Shared fixtures: reference ray sets, synthetic instances, brute oracles."""

from __future__ import annotations

import itertools
import math
import random

import numpy as np
import pytest

from kscertify import cli
from kscertify.algebra import RayVector, canonicalize_ray, exact_ray
from kscertify.coloring import DefinitionMode
from kscertify.rayset import (
    Basis,
    CompatibilityGraph,
    ProblemInstance,
    RaySet,
    ScalarMode,
    build_instance,
    validate_rayset,
)


def _orbit(seed: tuple[tuple[int, int], ...], disc: int) -> set[tuple[tuple[int, int], ...]]:
    """All distinct canonical rays generated from a seed vector by coordinate
    permutations and sign flips."""
    out = set()
    n = len(seed)
    for perm in itertools.permutations(range(n)):
        for signs in itertools.product((1, -1), repeat=n):
            coords = tuple(
                (signs[k] * seed[perm[k]][0], signs[k] * seed[perm[k]][1]) for k in range(n)
            )
            if all(c == (0, 0) for c in coords):
                continue
            out.add(canonicalize_ray(RayVector(coords, disc)).coords)
    return out


def make_peres33() -> RaySet:
    """The 33-ray set in dimension 3 with components from {0, +-1, +-sqrt(2)}:
    the orbit, under coordinate permutations and sign flips, of the four seed
    vectors (0,0,1), (0,1,1), (0,1,sqrt(2)) and (1,1,sqrt(2))."""
    z, o, r2 = (0, 0), (1, 0), (0, 1)
    seeds = [(z, z, o), (z, o, o), (z, o, r2), (o, o, r2)]
    keys = set()
    for seed in seeds:
        keys |= _orbit(seed, disc=2)
    rays = [
        RayVector(key, 2)
        for key in sorted(keys)
    ]
    return validate_rayset(rays, name="peres-33", mode=ScalarMode.exact(2))


def make_quadratic_family(
    dim: int, values: tuple[tuple[int, int], ...], disc: int
) -> RaySet:
    """The family qM_D{0, +-values} over Z[sqrt(disc)]: every nonzero vector
    of dimension ``dim`` with components in {0} and +-values, one per class
    of vectors colinear over Q(sqrt(disc)), sorted.

    A value (a, b) means a + b*sqrt(disc).  Each class is represented by the
    vector times the conjugate of its first nonzero component (which makes
    that component rational), divided by the gcd of all parts and signed so
    that component is positive.
    """
    components = sorted({(0, 0)} | {(s * a, s * b) for a, b in values for s in (1, -1)})
    keys = set()
    for vec in itertools.product(components, repeat=dim):
        if not any(a or b for a, b in vec):
            continue
        a0, b0 = next((a, b) for a, b in vec if a or b)
        scaled = [(a * a0 - disc * b * b0, b * a0 - a * b0) for a, b in vec]
        g = math.gcd(*(x for pair in scaled for x in pair))
        if next(a for a, b in scaled if a or b) < 0:
            g = -g
        keys.add(tuple((a // g, b // g) for a, b in scaled))
    rays = [exact_ray(list(key), disc=disc) for key in sorted(keys)]
    name = f"int{dim}" if disc == 1 else f"q{disc}_{dim}"
    return validate_rayset(rays, name=name, mode=ScalarMode.exact(disc))


def make_integer_family(dim: int, values: tuple[int, ...]) -> RaySet:
    """The family intD{0, +-values}: every nonzero integer vector of dimension
    ``dim`` with components in {0} and +-values, one per ray (divided by the
    gcd of its components, first nonzero component positive), sorted."""
    return make_quadratic_family(dim, tuple((v, 0) for v in values), disc=1)


def transformed(rayset: RaySet, rng: random.Random, keep: float | None = None) -> RaySet:
    """The ray set after a seeded signed coordinate permutation, ray order
    and ray signs, validated again; with ``keep``, only that share of its
    rays (at least d), taken in the new order."""
    d = rayset.dimension
    perm = list(range(d))
    rng.shuffle(perm)
    flips = [rng.choice((1, -1)) for _ in range(d)]
    order = list(range(len(rayset.rays)))
    rng.shuffle(order)
    if keep is not None:
        order = order[: max(d, round(keep * len(order)))]
    rays = []
    for i in order:
        sign = rng.choice((1, -1))
        coords = [rayset.rays[i].coords[k] for k in perm]
        rays.append(RayVector(
            tuple((sign * f * a, sign * f * b) for f, (a, b) in zip(flips, coords)),
            rayset.mode.disc,
        ))
    return validate_rayset(rays, name=rayset.name, mode=rayset.mode)


@pytest.fixture(autouse=True)
def _empty_instance_table() -> None:
    """Start every test with no loaded instances in the CLI, so that a test
    that patches ``cli.parse_rayset`` or ``cli.build_instance`` sees every
    load it makes."""
    cli._instances.clear()


@pytest.fixture(scope="session")
def peres33() -> RaySet:
    return make_peres33()


@pytest.fixture(scope="session")
def peres33_instance(peres33: RaySet) -> ProblemInstance:
    return build_instance(peres33)


def make_synthetic_instance(
    rng: random.Random, max_vertices: int = 18, max_bases: int = 8
) -> ProblemInstance:
    """A random abstract instance: a handful of size-d bases plus noise edges.

    The graph contains every within-basis edge (bases must be cliques) plus
    extra random edges, mimicking orthogonality constraints that do not close
    into a complete basis.  No ray set is attached.
    """
    n = rng.randint(6, max_vertices)
    d = rng.choice([3, 3, 4])
    n_bases = rng.randint(1, max_bases)
    bases = set()
    for _ in range(n_bases):
        bases.add(tuple(sorted(rng.sample(range(n), d))))
    edges = set()
    for basis in bases:
        for i, j in itertools.combinations(basis, 2):
            edges.add((i, j))
    for i, j in itertools.combinations(range(n), 2):
        if rng.random() < 0.12:
            edges.add((i, j))
    graph = CompatibilityGraph(vertex_count=n, edges=frozenset(edges))
    return ProblemInstance(rayset=None, graph=graph, bases=tuple(sorted(bases)))


def make_single_basis_instance(d: int = 3) -> ProblemInstance:
    """d mutually orthogonal vertices forming exactly one basis."""
    edges = frozenset(
        (i, j) for i in range(d) for j in range(i + 1, d)
    )
    graph = CompatibilityGraph(vertex_count=d, edges=edges)
    return ProblemInstance(rayset=None, graph=graph, bases=(tuple(range(d)),))


def brute_force_colorable(instance: ProblemInstance, mode: DefinitionMode) -> bool:
    """Independent oracle: enumerate all 2^n assignments with numpy."""
    n = instance.graph.vertex_count
    if n > 22:
        raise ValueError("brute-force coloring oracle limited to 22 vertices")
    table = (
        (np.arange(1 << n, dtype=np.uint32)[:, None] >> np.arange(n)[None, :]) & 1
    ).astype(bool)
    ok = np.ones(1 << n, dtype=bool)
    for basis in instance.bases:
        ok &= table[:, list(basis)].sum(axis=1) == 1
    if mode is DefinitionMode.ORIGINAL:
        for i, j in instance.graph.edges:
            ok &= ~(table[:, i] & table[:, j])
    return bool(ok.any())
