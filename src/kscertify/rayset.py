"""Ray-set validation, the orthogonality graph, and complete-basis enumeration.

A validated ray set induces a compatibility graph whose vertices are rays and
whose edges join orthogonal pairs, read off the Gram matrix of all rays at
once.  In dimension d a complete measurement basis is a set of d mutually
orthogonal rays, i.e. a d-clique of the graph.
The problem instance bundles the ray set with its graph and the full list of
bases; rays that belong to no basis can be pruned without changing any
certification verdict.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import cached_property
from typing import Sequence

import numpy as np

from .algebra import DEFAULT_TOLERANCE, RayVector, check_discriminant


class DuplicateRayError(ValueError):
    """Two input rays are colinear: one is a nonzero multiple of the other."""

    def __init__(self, index_a: int, index_b: int) -> None:
        self.index_a = index_a
        self.index_b = index_b
        super().__init__(f"rays {index_a} and {index_b} are colinear duplicates")


class InvalidGeometryError(ValueError):
    """More mutually orthogonal rays were found than the dimension allows."""


@dataclass(frozen=True, slots=True)
class ScalarMode:
    """Coordinate field of a ray set: exact ring Z[sqrt(disc)] or floats.

    An exact mode needs a positive square-free ``disc`` and takes no
    ``tol``; a numeric mode takes no ``disc``, and without a tolerance gets
    ``DEFAULT_TOLERANCE``.  So every ray of a set has ``ray.disc == mode.disc``.
    """

    kind: str
    disc: int | None = None
    tol: float | None = None

    def __post_init__(self) -> None:
        if self.kind not in ("exact", "numeric"):
            raise ValueError(f"unknown scalar mode {self.kind!r}")
        if self.kind == "exact":
            check_discriminant(self.disc)
            if self.tol is not None:
                raise ValueError(f"exact scalar mode takes no tolerance, got {self.tol!r}")
            return
        if self.disc is not None:
            raise ValueError(f"numeric scalar mode takes no discriminant, got {self.disc!r}")
        if self.tol is None:
            object.__setattr__(self, "tol", DEFAULT_TOLERANCE)
        if not (math.isfinite(self.tol) and self.tol >= 0):
            raise ValueError(f"numeric tolerance {self.tol!r} is not a finite number >= 0")

    @classmethod
    def exact(cls, disc: int) -> ScalarMode:
        return cls("exact", disc=disc)

    @classmethod
    def integer(cls) -> ScalarMode:
        return cls("exact", disc=1)

    @classmethod
    def numeric(cls, tol: float = DEFAULT_TOLERANCE) -> ScalarMode:
        return cls("numeric", tol=tol)

    @property
    def is_exact(self) -> bool:
        return self.kind == "exact"


@dataclass(frozen=True, slots=True)
class RaySet:
    """A named, validated list of canonical rays of one dimension and mode."""

    name: str
    dimension: int
    mode: ScalarMode
    rays: tuple[RayVector, ...]


def validate_rayset(rays: Sequence[RayVector], name: str, mode: ScalarMode) -> RaySet:
    """Cross-check rays, each already in canonical form, into a RaySet.

    Raises ValueError for an empty list, dimension below 3, inconsistent
    dimensions, or rays that do not match the declared scalar mode, and
    DuplicateRayError (naming both indices) for colinear duplicates.
    """
    if len(rays) == 0:
        raise ValueError("ray set is empty")
    dimension = rays[0].dimension
    if dimension < 3:
        raise ValueError(f"dimension {dimension} is below 3")
    for i, ray in enumerate(rays):
        if ray.dimension != dimension:
            raise ValueError(f"ray {i} has dimension {ray.dimension}, expected {dimension}")
        if ray.disc != mode.disc:
            raise ValueError(
                f"ray {i} has discriminant {ray.disc}, not {mode.disc} of scalar mode {mode.kind}"
            )
    if mode.is_exact:
        m = mode.disc
        # A canonical integer ray is its own colinearity key.  For m > 1 the
        # canonical form keeps factors such as sqrt(2), which the key removes.
        keys = [ray.coords for ray in rays]
        if m > 1:
            keys = map(tuple, _colinearity_rows(*_exact_parts(rays, m), m).tolist())
        seen: dict[tuple, int] = {}
        for i, key in enumerate(keys):
            first = seen.setdefault(key, i)
            if first != i:
                raise DuplicateRayError(first, i)
    else:
        # Canonical numeric rays are unit vectors, so colinearity reads
        # directly off the Gram matrix.  np.nonzero walks the strict lower
        # triangle in row-major order: the pair reported has the smallest j,
        # then the smallest i.
        x = np.array([ray.coords for ray in rays], dtype=float)
        j, i = np.nonzero(np.tril(np.abs(x @ x.T) > 1.0 - 1e-9, -1))
        if len(j):
            raise DuplicateRayError(int(i[0]), int(j[0]))
    return RaySet(name=name, dimension=dimension, mode=mode, rays=tuple(rays))


@dataclass(frozen=True)
class CompatibilityGraph:
    """Graph on ray indices with an edge for every orthogonal pair."""

    vertex_count: int
    edges: frozenset[tuple[int, int]]

    def __post_init__(self) -> None:
        for i, j in self.edges:
            if not (0 <= i < j < self.vertex_count):
                raise ValueError(f"edge ({i}, {j}) is not an ordered vertex pair")

    @cached_property
    def neighbors(self) -> tuple[int, ...]:
        """Neighbour bitmasks: bit j of entry i is set when (i, j) is an edge.

        The one form of the graph that every solver reads, built once from
        ``edges``.
        """
        masks = [0] * self.vertex_count
        for i, j in self.edges:
            masks[i] |= 1 << j
            masks[j] |= 1 << i
        return tuple(masks)

    def sorted_edges(self) -> list[tuple[int, int]]:
        return sorted(self.edges)


def _exact_parts(rays: Sequence[RayVector], m: int) -> tuple[np.ndarray, np.ndarray]:
    """The matrices R and I of rational and sqrt(m) coordinate parts of exact rays.

    The pairwise inner products are
    (R + sqrt(m) I)(R + sqrt(m) I)^T = (R R^T + m I I^T) + sqrt(m) (R I^T + I R^T).
    No entry exceeds d * M^2 * (1 + m) in absolute value, M the largest
    |part|; int64 is used only below 2**63, because NumPy's integer matmul
    wraps silently, and exact Python ints (object dtype) otherwise.
    """
    rat = [[a for a, _ in ray.coords] for ray in rays]
    irr = [[b for _, b in ray.coords] for ray in rays]
    largest = max(abs(v) for row in rat + irr for v in row)
    dtype = np.int64 if len(rat[0]) * largest**2 * (1 + m) < 2**63 else object
    return np.array(rat, dtype=dtype), np.array(irr, dtype=dtype)


def build_graph(rayset: RaySet) -> CompatibilityGraph:
    """Compute the orthogonality graph of a ray set from its Gram matrix.

    Exact rays are orthogonal when both parts of their inner product in the
    ring are zero; numeric rays when the inner product is at most the
    scalar mode's tolerance relative to the product of the Euclidean norms.
    ``algebra.is_orthogonal`` decides the same for a single pair.
    """
    rays = rayset.rays
    if rayset.mode.is_exact:
        m = rayset.mode.disc
        r, i = _exact_parts(rays, m)
        orthogonal = (r @ r.T + m * (i @ i.T) == 0) & (r @ i.T + i @ r.T == 0)
    else:
        x = np.array([ray.coords for ray in rays], dtype=float)
        norms = np.linalg.norm(x, axis=1)
        orthogonal = np.abs(x @ x.T) <= rayset.mode.tol * np.outer(norms, norms)
    rows, cols = np.nonzero(np.triu(orthogonal, 1))
    edges = frozenset(zip(rows.tolist(), cols.tolist()))
    return CompatibilityGraph(vertex_count=len(rays), edges=edges)


Basis = tuple[int, ...]


def enumerate_bases(rayset: RaySet, graph: CompatibilityGraph) -> tuple[Basis, ...]:
    """List every complete basis (d-clique of the graph) in lexicographic order.

    Every d-clique must be maximal: a clique of more than d mutually
    orthogonal rays is geometrically impossible in dimension d and raises
    InvalidGeometryError (it can only arise from a degenerate numeric input).
    """
    d = rayset.dimension
    neighbors = graph.neighbors
    found: list[Basis] = []

    def extend(clique: list[int], common: int, candidates: int) -> None:
        # common: the vertices orthogonal to every clique member; candidates:
        # those of them above the last member, which may still extend it.
        if len(clique) == d:
            if common:
                v = (common & -common).bit_length() - 1
                raise InvalidGeometryError(
                    f"rays {clique + [v]} are mutually orthogonal, exceeding dimension {d}"
                )
            found.append(tuple(clique))
            return
        while candidates:
            low = candidates & -candidates
            candidates ^= low
            v = low.bit_length() - 1
            rest = candidates & neighbors[v]
            if len(clique) + 1 + rest.bit_count() >= d:
                extend(clique + [v], common & neighbors[v], rest)

    everything = (1 << graph.vertex_count) - 1
    extend([], everything, everything)
    return tuple(found)


def _colinearity_rows(rat: np.ndarray, irr: np.ndarray, m: int) -> np.ndarray:
    """Per ray along the last axis, a key row shared by exactly the rays
    colinear over Q(sqrt(m)): the ray times the conjugate of its first
    nonzero coordinate a + b*sqrt(m), which makes that coordinate the
    rational a^2 - m*b^2, divided by the row's gcd signed like it.
    ``rat`` and ``irr`` are the parts as ``_exact_parts`` returns them."""
    first = ((rat != 0) | (irr != 0)).argmax(axis=-1)[..., None]
    a = np.take_along_axis(rat, first, -1)
    b = np.take_along_axis(irr, first, -1)
    x = rat * a - m * irr * b
    key = np.concatenate([x, irr * a - rat * b], axis=-1)
    g = np.gcd.reduce(key, axis=-1, keepdims=True)
    key //= np.where(np.take_along_axis(x, first, -1) < 0, -g, g)
    return key


def symmetries(rayset: RaySet) -> tuple[tuple[int, ...], ...]:
    """The vertex permutations induced by the signed coordinate permutations
    that map an exact ray set onto itself, the identity first.

    A signed coordinate permutation is orthogonal, so each one maps bases to
    bases and keeps the orthogonality graph and the basis-count weights.
    The image of every ray is looked up by its colinearity key; an element
    that sends some ray outside the set is dropped, most of them after the
    first few rays.  u and -u are the same ray, so the first sign is fixed:
    2^(d-1) d! elements are tried, and the permutations they induce form a
    group.  Numeric sets, d >= 5 (1920 elements in d = 5 cost more to try
    than they save) and parts too large for int64 keys get the trivial
    group, which is always correct.
    """
    n = len(rayset.rays)
    identity = tuple(range(n))
    d = rayset.dimension
    if not rayset.mode.is_exact or d > 4:
        return (identity,)
    m = rayset.mode.disc
    # Under the guard of _exact_parts every key entry fits int64 as well.
    rat, irr = _exact_parts(rayset.rays, m)
    if rat.dtype == object:
        return (identity,)

    def void_rows(key: np.ndarray) -> np.ndarray:
        # Each key row as one void scalar, hashed and compared as bytes.  The
        # view needs C order, which fancy indexing by a single element's
        # permutation does not give.
        key = np.ascontiguousarray(key)
        return key.view(f"V{key.shape[-1] * key.itemsize}")[..., 0]

    index = {key: i for i, key in enumerate(void_rows(_colinearity_rows(rat, irr, m)).tolist())}
    elements = [
        ((1, *signs), perm)
        for perm in itertools.permutations(range(d))
        for signs in itertools.product((1, -1), repeat=d - 1)
    ]

    def image_keys(rays: slice, elements: list) -> list[list[bytes]]:
        """Per element, the keys of the images of the rays."""
        signs, perms = (np.array(column) for column in zip(*elements))
        key = _colinearity_rows(rat[rays][:, perms] * signs, irr[rays][:, perms] * signs, m)
        return void_rows(key).T.tolist()

    # Try every element on the first rays, then the survivors on all of them.
    head = image_keys(slice(8), elements)
    elements = [e for e, keys in zip(elements, head) if all(map(index.__contains__, keys))]
    found = dict.fromkeys([identity])
    for keys in image_keys(slice(None), elements):
        image = tuple(map(index.get, keys))
        if None not in image:
            found[image] = None
    return tuple(found)


@dataclass(frozen=True)
class ProblemInstance:
    """A ray set together with its compatibility graph and basis list.

    ``rayset`` may be None for synthetic instances used in combinatorial
    tests; the quantum-side operations require actual rays.
    """

    rayset: RaySet | None
    graph: CompatibilityGraph
    bases: tuple[Basis, ...]

    @property
    def n_bases(self) -> int:
        return len(self.bases)


def build_instance(rayset: RaySet) -> ProblemInstance:
    graph = build_graph(rayset)
    bases = enumerate_bases(rayset, graph)
    return ProblemInstance(rayset=rayset, graph=graph, bases=bases)


def covered_vertices(instance: ProblemInstance) -> list[int]:
    """Vertices that occur in at least one complete basis, ascending."""
    covered = set()
    for basis in instance.bases:
        covered.update(basis)
    return sorted(covered)


def prune_unbased(instance: ProblemInstance) -> ProblemInstance:
    """Restrict an instance to the rays covered by at least one basis.

    Vertices are reindexed in ascending order of their old index; the basis
    list is unchanged up to that reindexing.  Raises ValueError when no
    vertex lies in any basis.  Idempotent.
    """
    kept = covered_vertices(instance)
    if not kept:
        raise ValueError("empty after pruning: no ray belongs to any complete basis")
    if len(kept) == instance.graph.vertex_count:
        return instance
    new_index = {old: new for new, old in enumerate(kept)}
    keep = set(kept)
    edges = frozenset(
        (new_index[i], new_index[j])
        for i, j in instance.graph.edges
        if i in keep and j in keep
    )
    graph = CompatibilityGraph(vertex_count=len(kept), edges=edges)
    bases = tuple(tuple(new_index[v] for v in basis) for basis in instance.bases)
    rayset = instance.rayset
    if rayset is not None:
        rayset = RaySet(
            name=rayset.name,
            dimension=rayset.dimension,
            mode=rayset.mode,
            rays=tuple(rayset.rays[old] for old in kept),
        )
    return ProblemInstance(rayset=rayset, graph=graph, bases=bases)
