"""Independent independence-number oracles that the library is checked against.

All read only ``graph.edges``, never the solver's own neighbour masks, and
share no code with ``kscertify.inequality``.
"""

from __future__ import annotations

import itertools

import numpy as np
import pytest

from kscertify.rayset import CompatibilityGraph


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
