"""State-independent noncontextuality inequality synthesized from a ray set.

Give every ray the weight w_i = number of complete bases that contain it and
every orthogonal pair the weight w_ij = max(w_i, w_j).  For noncontextual
hidden-variable models the functional

    W = sum_i w_i P_i - sum_(i,j) w_ij P_i P_j

is bounded by the weighted independence number alpha(G, w) of the
compatibility graph, because within one basis at most one projector can take
value 1.  Quantum mechanically the weighted projectors of N bases sum to
N times the identity, so W = N for every state.  A strict gap alpha < N
certifies the ray set as an original KS set.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .rayset import CompatibilityGraph, ProblemInstance, covered_vertices, symmetries

WeightVector = tuple[int, ...]


def compute_weights(instance: ProblemInstance) -> WeightVector:
    """Per-vertex basis cover counts; their sum is the total basis size."""
    weights = [0] * instance.graph.vertex_count
    for basis in instance.bases:
        for v in basis:
            weights[v] += 1
    return tuple(weights)


def edge_weights(
    weights: WeightVector, graph: CompatibilityGraph
) -> dict[tuple[int, int], int]:
    """The minimal admissible edge weights max(w_i, w_j)."""
    if len(weights) != graph.vertex_count:
        raise ValueError("weight vector length does not match vertex count")
    return {(i, j): max(weights[i], weights[j]) for i, j in graph.sorted_edges()}


def _validate_weights(weights: WeightVector, n: int) -> None:
    if len(weights) != n:
        raise ValueError("weight vector length does not match vertex count")
    for w in weights:
        if not isinstance(w, int) or isinstance(w, bool) or w < 0:
            raise ValueError("weights must be nonnegative integers")


def _max_weight_independent_set(
    graph: CompatibilityGraph,
    weights: WeightVector,
    symmetries: Sequence[Sequence[int]] = (),
) -> tuple[int, list[int]]:
    """Exact orbital branch and bound: alpha(G, w) and the vertices of a set
    reaching it.

    Vertices are renumbered once by (-w, index), so the lowest set bit of any
    candidate mask is its heaviest candidate v.  Each node carries a group of
    automorphisms (the given group to begin with) that fixes every vertex it
    has taken and maps its candidates onto themselves, and branches on v
    (Ostrowski, Linderoth, Rossi and Smriglio 2011, *Orbital branching*):
    either v is taken, and the child keeps the elements that fix v, or v's
    whole orbit is dropped, and the child keeps the group.  Dropping the
    orbit loses nothing: a set of the node that takes u = g(v) has an image
    under g^-1, a set of the node of the same weight, that takes v.  With
    the trivial group the orbit is {v}.  The nodes come from an explicit
    stack (no recursion-depth ceiling).  A node is pruned when a greedy clique
    cover of its candidates, each clique counted at its heaviest member,
    cannot add more than the incumbent already has: an independent set takes
    at most one vertex per clique, so the returned value is exact.
    ``symmetries`` must be a group of automorphisms of (graph, weights);
    ``weighted_independence_number`` checks that before calling.
    """
    n = graph.vertex_count
    _validate_weights(weights, n)
    order = sorted(range(n), key=lambda v: (-weights[v], v))
    rank = [0] * n
    for r, v in enumerate(order):
        rank[v] = r
    w = [weights[v] for v in order]
    adj = [0] * n
    for i, j in graph.edges:
        adj[rank[i]] |= 1 << rank[j]
        adj[rank[j]] |= 1 << rank[i]
    # The group in the new numbering, without the identity.
    identity = tuple(range(n))
    renumbered = (tuple(map(rank.__getitem__, map(g.__getitem__, order))) for g in symmetries)
    group = tuple(g for g in dict.fromkeys(renumbered) if g != identity)

    # Greedy independent set, heaviest first: the initial incumbent.
    best = best_set = 0
    free = (1 << n) - 1
    while free:
        low = free & -free
        v = low.bit_length() - 1
        best += w[v]
        best_set |= low
        free &= ~low & ~adj[v]

    # Each frame: (candidates, weight taken, vertices taken, group).
    stack = [((1 << n) - 1, 0, 0, group)]
    while stack:
        cand, current, taken, group = stack.pop()
        if current > best:
            best, best_set = current, taken
        # Sequential clique cover of the candidates, stopped as soon as it
        # exceeds the slack best - current (the node then has to branch).
        slack = best - current
        cover = 0
        uncovered = cand
        while uncovered:
            low = uncovered & -uncovered
            v = low.bit_length() - 1
            cover += w[v]
            if cover > slack:
                break
            uncovered ^= low
            clique = uncovered & adj[v]
            while clique:
                low = clique & -clique
                uncovered ^= low
                clique &= adj[low.bit_length() - 1]
        else:
            continue
        low = cand & -cand
        v = low.bit_length() - 1
        orbit = low
        for g in group:
            orbit |= 1 << g[v]
        stack.append((cand & ~orbit, current, taken, group))
        stabilizer = tuple(g for g in group if g[v] == v) if group else group
        stack.append((cand & ~low & ~adj[v], current + w[v], taken | low, stabilizer))
    return best, [order[r] for r in range(n) if best_set >> r & 1]


def _check_group(
    graph: CompatibilityGraph, weights: WeightVector, symmetries: Sequence[Sequence[int]]
) -> None:
    """Raise ValueError unless the permutations form a group of automorphisms.

    Each must permute the vertices, keep every weight and map every edge to
    an edge (so, the graph being finite, onto the edge set), and the set,
    with the identity, must be closed under composition.  Otherwise dropping
    an orbit could drop every optimal set, giving too low an alpha that no
    witness check sees.
    """
    n = graph.vertex_count
    for k, g in enumerate(symmetries):
        if len(g) != n:
            raise ValueError(f"symmetry {k} has length {len(g)}, not {n}")
    identity = tuple(range(n))
    moving = [k for k, g in enumerate(symmetries) if tuple(g) != identity]
    if not moving:
        return
    perms = np.array([symmetries[k] for k in moving], dtype=np.int64)
    w = np.array(weights)
    edges = np.array(list(graph.edges), dtype=np.int64).reshape(-1, 2)
    adjacency = np.zeros((n, n), dtype=bool)
    adjacency[edges[:, 0], edges[:, 1]] = adjacency[edges[:, 1], edges[:, 0]] = True
    for problem, bad in (
        ("is not a permutation of the vertices", lambda: np.sort(perms, axis=1) != np.arange(n)),
        ("changes a weight", lambda: w[perms] != w),
        ("maps an edge to a non-edge",
         lambda: ~adjacency[perms[:, edges[:, 0]], perms[:, edges[:, 1]]]),
    ):
        failed = np.flatnonzero(bad().any(axis=1))
        if len(failed):
            raise ValueError(f"symmetry {moving[failed[0]]} {problem}")

    def rows(a: np.ndarray) -> list[bytes]:
        return a.view(f"V{n * a.itemsize}").ravel().tolist()

    # g[perms] holds g composed with every element.
    members = set(rows(perms)) | {np.arange(n, dtype=np.int64).tobytes()}
    for g in perms:
        if not members.issuperset(rows(g[perms])):
            raise ValueError("symmetries are not closed under composition")


def weighted_independence_number(
    graph: CompatibilityGraph,
    weights: WeightVector,
    symmetries: Sequence[Sequence[int]] = (),
) -> int:
    """Exact maximum total weight of an independent set.

    ``symmetries`` is a group of vertex permutations that keep the weights
    and the edges, such as ``rayset.symmetries`` gives; it only makes the
    search faster, and it is checked first (ValueError when it is not such a
    group).  The optimal set the search found is re-checked against the
    graph, for independence and for its weight, before the value is
    returned; a failed check raises RuntimeError.
    """
    _validate_weights(weights, graph.vertex_count)
    _check_group(graph, weights, symmetries)
    alpha, members = _max_weight_independent_set(graph, weights, symmetries)
    mask = sum(1 << v for v in members)
    for v in members:
        if graph.neighbors[v] & mask:
            raise RuntimeError(f"alpha witness is not independent at vertex {v}")
    total = sum(weights[v] for v in members)
    if total != alpha:
        raise RuntimeError(f"alpha witness weighs {total}, not {alpha}")
    return alpha


@dataclass(frozen=True)
class Inequality:
    """Vertex and edge weights with the classical and quantum values."""

    vertex_weights: WeightVector
    edge_terms: tuple[tuple[int, int, int], ...]
    classical_bound: int
    quantum_value: int

    def __post_init__(self) -> None:
        for i, j, w in self.edge_terms:
            if w < max(self.vertex_weights[i], self.vertex_weights[j]):
                raise ValueError(
                    f"edge weight {w} on ({i}, {j}) is below max(w_i, w_j)"
                )
        if list(self.edge_terms) != sorted(self.edge_terms):
            raise ValueError("edge terms must be sorted")
        if self.classical_bound > self.quantum_value:
            raise ValueError("classical bound cannot exceed the quantum value")

    @property
    def gap(self) -> int:
        """N - alpha, the quantum value minus the classical bound."""
        return self.quantum_value - self.classical_bound

    @property
    def is_original_ks(self) -> bool:
        """A strictly positive gap certifies an original KS set."""
        return self.gap >= 1


def pruned_weights(instance: ProblemInstance) -> WeightVector:
    """The weights of a pruned instance, the only kind an inequality is built on.

    Raises ValueError when the instance has no basis, or has rays outside
    every basis (zero-weight terms would be dead weight), advising to prune.
    """
    if not instance.bases:
        raise ValueError("instance has no complete basis")
    weights = compute_weights(instance)
    if any(w == 0 for w in weights):
        raise ValueError(
            "instance has rays outside every basis; run prune_unbased first"
        )
    return weights


def build_inequality(instance: ProblemInstance) -> Inequality:
    """Synthesize the inequality of a pruned instance (see pruned_weights)."""
    weights = pruned_weights(instance)
    ew = edge_weights(weights, instance.graph)
    group = () if instance.rayset is None else symmetries(instance.rayset)
    alpha = weighted_independence_number(instance.graph, weights, group)
    return Inequality(
        vertex_weights=weights,
        edge_terms=tuple((i, j, w) for (i, j), w in sorted(ew.items())),
        classical_bound=alpha,
        quantum_value=instance.n_bases,
    )


@dataclass(frozen=True, eq=False)
class StateSpec:
    """A quantum state: maximally mixed, seeded random pure, or explicit."""

    kind: str
    seed: int | None = None
    matrix: np.ndarray | None = None

    @classmethod
    def maximally_mixed(cls) -> StateSpec:
        return cls(kind="mixed")

    @classmethod
    def random_pure(cls, seed: int) -> StateSpec:
        return cls(kind="random_pure", seed=seed)

    @classmethod
    def explicit(cls, matrix: np.ndarray) -> StateSpec:
        return cls(kind="explicit", matrix=np.asarray(matrix, dtype=complex))


def _density_matrix(state: StateSpec, dimension: int) -> np.ndarray:
    if state.kind == "mixed":
        return np.eye(dimension, dtype=complex) / dimension
    if state.kind == "random_pure":
        rng = np.random.default_rng(state.seed)
        psi = rng.standard_normal(dimension) + 1j * rng.standard_normal(dimension)
        psi /= np.linalg.norm(psi)
        return np.outer(psi, psi.conj())
    if state.kind == "explicit":
        rho = state.matrix
        if rho is None or rho.shape != (dimension, dimension):
            raise ValueError(f"density matrix must be {dimension}x{dimension}")
        if np.max(np.abs(rho - rho.conj().T)) > 1e-9:
            raise ValueError("density matrix is not Hermitian")
        if abs(np.trace(rho) - 1.0) > 1e-9:
            raise ValueError("density matrix trace is not 1")
        if np.linalg.eigvalsh(rho).min() < -1e-9:
            raise ValueError("density matrix is not positive semidefinite")
        return rho
    raise ValueError(f"unknown state kind {state.kind!r}")


def _unit_ray_matrix(instance: ProblemInstance) -> np.ndarray:
    if instance.rayset is None:
        raise ValueError("instance carries no ray set")
    rows = np.array([ray.to_floats() for ray in instance.rayset.rays])
    return rows / np.linalg.norm(rows, axis=1, keepdims=True)


def quantum_value(
    instance: ProblemInstance, weights: WeightVector, state: StateSpec
) -> float:
    """Evaluate the inequality functional W on a quantum state.

    The edge operators pair orthogonal projectors, so their expectations
    vanish identically and W reduces to the weighted sum of projector
    expectations sum_i w_i Tr(rho Pi_i): only the vertex weights enter.
    """
    rows = _unit_ray_matrix(instance)
    _validate_weights(weights, rows.shape[0])
    rho = _density_matrix(state, rows.shape[1])
    expectations = np.einsum("ij,jk,ik->i", rows.conj(), rho, rows).real
    return float(np.dot(weights, expectations))


def operator_sum_check(instance: ProblemInstance, weights: WeightVector) -> bool:
    """Verify sum_i w_i |u_i><u_i| / <u_i|u_i> = N * identity.

    Exact ray sets are checked in integer arithmetic; numeric ray sets to an
    absolute tolerance of 1e-12.
    """
    rayset = instance.rayset
    if rayset is None:
        raise ValueError("instance carries no ray set")
    _validate_weights(weights, len(rayset.rays))
    d = rayset.dimension
    n_bases = instance.n_bases
    if not rayset.mode.is_exact:
        rows = _unit_ray_matrix(instance)
        total = (rows.T * np.asarray(weights)) @ rows
        return bool(np.max(np.abs(total - n_bases * np.eye(d))) <= 1e-12)
    m = rayset.mode.disc
    pairs = [(j, k) for j in range(d) for k in range(j, d)]
    # A ray u = a + b*sqrt(m) has <u|u> = P + Q*sqrt(m), whose inverse is
    # (P - Q*sqrt(m)) / D with D = P^2 - m*Q^2 > 0 (the product of <u|u>
    # and its conjugate, both sums of real squares).  So entry (j, k) of
    # w*u*u^T/<u|u> is an integer pair over D; the pairs are summed per D.
    sums: dict[int, list[list[int]]] = {}
    for w, ray in zip(weights, rayset.rays):
        if w == 0:
            continue
        a = [c.rat_part for c in ray.coords]
        b = [c.irr_part for c in ray.coords]
        p = sum(x * x + m * y * y for x, y in zip(a, b))
        q = 2 * sum(x * y for x, y in zip(a, b))
        den = p * p - m * q * q
        g = math.gcd(p, q, den)
        wp, wq, den = w * p // g, w * q // g, den // g
        entries = sums.setdefault(den, [[0, 0] for _ in pairs])
        for entry, (j, k) in zip(entries, pairs):
            x = a[j] * a[k] + m * b[j] * b[k]
            y = a[j] * b[k] + b[j] * a[k]
            entry[0] += x * wp - m * y * wq
            entry[1] += y * wp - x * wq
    lcm = math.lcm(*sums)
    for i, (j, k) in enumerate(pairs):
        rational = irrational = 0
        for den, entries in sums.items():
            rational += lcm // den * entries[i][0]
            irrational += lcm // den * entries[i][1]
        if rational != (n_bases * lcm if j == k else 0) or irrational != 0:
            return False
    return True
