"""Independent oracles that the library is checked against.

The independence-number oracles read only ``graph.edges``, never the
solver's own neighbour masks; the operator-sum oracle reads only the ray
coordinates.  None shares code with ``kscertify.inequality``.  The
colorability oracle hands the bases and ``graph.edges`` to HiGHS and shares
no code with ``kscertify.coloring``.
"""

from __future__ import annotations

import itertools
from fractions import Fraction

import numpy as np
import pytest

from kscertify.rayset import CompatibilityGraph, ProblemInstance


def _check_weights(graph: CompatibilityGraph, weights) -> None:
    if len(weights) != graph.vertex_count:
        raise ValueError("weight vector length does not match vertex count")


def brute_force_alpha(graph: CompatibilityGraph, weights) -> int:
    """Evaluate every one of the 2^n vertex subsets.

    Restricted to 25 vertices.  Subsets are built up one vertex at a time;
    a subset is independent iff the subset without its highest vertex is
    independent and that vertex has no neighbor among the rest.
    """
    n = graph.vertex_count
    _check_weights(graph, weights)
    if n > 25:
        raise ValueError(f"brute force is limited to 25 vertices, got {n}")
    low_adj = [0] * n
    for i, j in graph.edges:
        low_adj[max(i, j)] |= 1 << min(i, j)
    independent = np.ones(1, dtype=bool)
    total = np.zeros(1, dtype=np.int32)
    for k in range(n):
        prefixes = np.arange(1 << k, dtype=np.uint32)
        compatible = (prefixes & np.uint32(low_adj[k])) == 0
        independent = np.concatenate([independent, independent & compatible])
        total = np.concatenate([total, total + np.int32(weights[k])])
    return int(total[independent].max())


def weight_sum_alpha(graph: CompatibilityGraph, weights) -> int:
    """Plain branch and bound whose bound is the sum of the remaining weights.

    Exact at any size, only slower than the library's clique-cover bound;
    it is the second method for graphs beyond brute force's 25 vertices.
    """
    n = graph.vertex_count
    _check_weights(graph, weights)
    adj = [0] * n
    for i, j in graph.edges:
        adj[i] |= 1 << j
        adj[j] |= 1 << i
    best = 0
    # (candidates, weight so far) pairs still to explore, depth first.
    stack = [((1 << n) - 1, 0)]
    while stack:
        mask, current = stack.pop()
        best = max(best, current)
        if mask == 0:
            continue
        if current + sum(weights[v] for v in range(n) if mask >> v & 1) <= best:
            continue
        v = (mask & -mask).bit_length() - 1
        bit = 1 << v
        stack.append((mask & ~bit, current))
        stack.append((mask & ~bit & ~adj[v], current + weights[v]))
    return best


def networkx_alpha(graph: CompatibilityGraph, weights) -> int:
    """Maximum weight clique of the complement graph, by networkx.

    Exact at the sizes of whole ``intD{S}`` families (about 100 vertices);
    the calling test is skipped when networkx is not installed.
    """
    nx = pytest.importorskip("networkx")
    n = graph.vertex_count
    _check_weights(graph, weights)
    complement = nx.Graph()
    for v in range(n):
        complement.add_node(v, weight=weights[v])
    complement.add_edges_from(
        pair for pair in itertools.combinations(range(n), 2) if pair not in graph.edges
    )
    _, weight = nx.max_weight_clique(complement, weight="weight")
    return int(weight)


def signed_permutation_group(rayset) -> set[tuple[int, ...]]:
    """Every vertex permutation induced by a signed coordinate permutation
    that maps an exact ray set onto itself.

    Each ray is identified by itself divided by its first nonzero
    coordinate, computed in Q(sqrt(m)) with Fractions; all 2^d d! signed
    permutations are tried on every ray.
    """
    m = rayset.mode.disc
    d = rayset.dimension

    def key(vector):
        c, e = next(x for x in vector if x != (0, 0))
        norm = c * c - m * e * e
        return tuple(
            (Fraction(a * c - m * b * e, norm), Fraction(b * c - a * e, norm))
            for a, b in vector
        )

    vectors = [[(x.rat_part, x.irr_part) for x in ray.coords] for ray in rayset.rays]
    index = {key(v): i for i, v in enumerate(vectors)}
    group = set()
    for perm in itertools.permutations(range(d)):
        for signs in itertools.product((1, -1), repeat=d):
            image = [
                index.get(key([(s * v[k][0], s * v[k][1]) for s, k in zip(signs, perm)]))
                for v in vectors
            ]
            if None not in image:
                group.add(tuple(image))
    return group


def fraction_operator_sum(instance: ProblemInstance, weights) -> bool:
    """Exact sum_i w_i |u_i><u_i| / <u_i|u_i> == N * identity over Q(sqrt(m)).

    Each field element is a pair (p, q) of Fractions meaning p + q*sqrt(m),
    and every term is added entry by entry; slow, but it shares nothing with
    the library's integer accumulation.
    """
    rayset = instance.rayset
    m = rayset.mode.disc

    def mul(x, y):
        return (x[0] * y[0] + m * x[1] * y[1], x[0] * y[1] + x[1] * y[0])

    def inverse(x):
        norm = x[0] * x[0] - m * x[1] * x[1]
        return (x[0] / norm, -x[1] / norm)

    d = rayset.dimension
    zero = (Fraction(0), Fraction(0))
    entries = [[zero] * d for _ in range(d)]
    for w, ray in zip(weights, rayset.rays):
        u = [(Fraction(c.rat_part), Fraction(c.irr_part)) for c in ray.coords]
        norm = zero
        for c in u:
            square = mul(c, c)
            norm = (norm[0] + square[0], norm[1] + square[1])
        scale = mul(inverse(norm), (Fraction(w), Fraction(0)))
        for j in range(d):
            for k in range(d):
                term = mul(mul(u[j], u[k]), scale)
                entries[j][k] = (entries[j][k][0] + term[0], entries[j][k][1] + term[1])
    n = instance.n_bases
    return all(
        entries[j][k] == ((n if j == k else 0), 0) for j in range(d) for k in range(d)
    )


def milp_colorable(instance: ProblemInstance, mode) -> bool:
    """Decide colorability as a 0/1 feasibility program solved by HiGHS.

    One equality row per basis (its rays sum to 1) and, under the original
    definition, one row x_i + x_j <= 1 per orthogonal pair; reads only
    ``instance.bases`` and ``graph.edges``.  The calling test is skipped
    when scipy is not installed.
    """
    optimize = pytest.importorskip("scipy.optimize")
    sparse = pytest.importorskip("scipy.sparse")
    n = instance.graph.vertex_count
    rows = [list(basis) for basis in instance.bases]
    upper = [1] * len(rows)
    lower = [1] * len(rows)
    if mode.value == "original":
        rows += [[i, j] for i, j in instance.graph.edges]
        upper += [1] * len(instance.graph.edges)
        lower += [0] * len(instance.graph.edges)
    matrix = sparse.csr_array(
        (
            np.ones(sum(len(row) for row in rows)),
            (np.repeat(np.arange(len(rows)), [len(row) for row in rows]), np.concatenate(rows)),
        ),
        shape=(len(rows), n),
    )
    result = optimize.milp(
        np.zeros(n),
        constraints=optimize.LinearConstraint(matrix, lower, upper),
        integrality=np.ones(n),
        bounds=optimize.Bounds(0, 1),
    )
    if result.status not in (0, 2):
        raise RuntimeError(f"HiGHS stopped without a verdict: {result.message}")
    return result.status == 0
