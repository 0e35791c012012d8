"""Reference answers computed without kscertify.

Edges come from integer Gram matrices: rays with rational parts R and
sqrt(m) parts I are orthogonal exactly when R.R^T + m I.I^T and
R.I^T + I.R^T both vanish (object dtype, so nothing can overflow).  Bases
are the d-cliques found by networkx, verdicts and the weighted independence
number come from scipy's MILP solver (HiGHS).

``python3 kscbench/oracle.py --freeze`` recomputes ``families.json``, the
answers of every whole family the benchmark uses.  They do not depend on ray
order or on a signed coordinate permutation, so runs read them from there.
"""

from __future__ import annotations

import json
import sys
from dataclasses import dataclass
from pathlib import Path

import networkx as nx
import numpy as np
from scipy.optimize import Bounds, LinearConstraint, milp
from scipy.sparse import lil_matrix

sys.path.insert(0, str(Path(__file__).resolve().parent))
import gen  # noqa: E402

FROZEN = Path(__file__).resolve().parent / "families.json"


def parse_ks(text: str) -> tuple[int, int | None, list[tuple]]:
    """Read ``.ks`` text: (dim, disc or None for numeric, rays).

    Exact rays are tuples of (a, b) pairs, numeric rays tuples of floats.
    """
    dim, disc, rays = None, None, []
    numeric = False
    for raw in text.splitlines():
        tokens = raw.split("#", 1)[0].split()
        if not tokens:
            continue
        if tokens[0] == "dim":
            dim = int(tokens[1])
        elif tokens[0] == "scalar":
            numeric = tokens[1] == "numeric"
            disc = None if numeric else (1 if tokens[1] == "int" else int(tokens[2]))
        elif tokens[0] == "ray":
            if numeric:
                rays.append(tuple(float(t) for t in tokens[1:]))
            else:
                pairs = []
                for t in tokens[1:]:
                    a, _, b = t.partition(":")
                    pairs.append((int(a), int(b or 0)))
                rays.append(tuple(pairs))
    if dim is None or (disc is None and not numeric):
        raise ValueError("missing dim or scalar line")
    return dim, disc, rays


def unit_floats(rays: list[tuple], disc: int | None) -> np.ndarray:
    """Rows of unit length, for matching rays across files."""
    if disc is not None:
        rows = np.array([[gen.to_float(x, disc) for x in v] for v in rays])
    else:
        rows = np.array(rays, dtype=float)
    return rows / np.linalg.norm(rows, axis=1, keepdims=True)


def match_rays(found: np.ndarray, expected: np.ndarray) -> list[int]:
    """For each row of ``found``, the index of the one colinear row of
    ``expected``; raises ValueError when a row has no match or several."""
    cos = np.abs(found @ expected.T)
    hits = cos > 1.0 - 1e-9
    if not np.all(hits.sum(axis=1) == 1):
        raise ValueError("rays do not match the input rays one to one")
    index = hits.argmax(axis=1).tolist()
    if len(set(index)) != len(index):
        raise ValueError("two rays match the same input ray")
    return index


def gram_edges(rays: list[tuple], disc: int) -> list[tuple[int, int]]:
    rat = np.array([[x[0] for x in v] for v in rays], dtype=object)
    irr = np.array([[x[1] for x in v] for v in rays], dtype=object)
    even = rat.dot(rat.T) + disc * irr.dot(irr.T)
    odd = rat.dot(irr.T) + irr.dot(rat.T)
    ortho = (even == 0) & (odd == 0)
    i, j = np.nonzero(np.triu(ortho, 1))
    return list(zip(i.tolist(), j.tolist()))


@dataclass
class Structure:
    """Orthogonality graph and complete bases of one ray list."""

    n: int
    edges: list[tuple[int, int]]
    bases: list[tuple[int, ...]]

    @classmethod
    def of(cls, rays: list[tuple], disc: int, dim: int) -> Structure:
        edges = gram_edges(rays, disc)
        graph = nx.Graph()
        graph.add_nodes_from(range(len(rays)))
        graph.add_edges_from(edges)
        bases = []
        for clique in nx.find_cliques(graph):
            if len(clique) > dim:
                raise ValueError(f"{len(clique)} mutually orthogonal rays in dimension {dim}")
            if len(clique) == dim:
                bases.append(tuple(sorted(clique)))
        return cls(len(rays), edges, sorted(bases))

    def weights(self) -> list[int]:
        counts = [0] * self.n
        for basis in self.bases:
            for v in basis:
                counts[v] += 1
        return counts

    def covered(self) -> list[int]:
        return [v for v, w in enumerate(self.weights()) if w > 0]

    def _rows(self, rows: list[tuple[int, ...]]) -> lil_matrix:
        matrix = lil_matrix((len(rows), self.n))
        for r, members in enumerate(rows):
            for v in members:
                matrix[r, v] = 1
        return matrix

    def colorable(self, original: bool) -> bool:
        """Is there a 0/1 assignment with one 1 per basis (and, under the
        original definition, no two orthogonal 1s)?"""
        constraints = [LinearConstraint(self._rows(self.bases), 1, 1)]
        if original and self.edges:
            constraints.append(LinearConstraint(self._rows(self.edges), 0, 1))
        res = milp(np.zeros(self.n), constraints=constraints,
                   integrality=np.ones(self.n), bounds=Bounds(0, 1))
        if res.status == 0:
            return True
        if res.status == 2:
            return False
        raise RuntimeError(f"MILP colorability ended with status {res.status}: {res.message}")

    def alpha(self, time_limit: float | None = None) -> int | None:
        """Weighted independence number with basis counts as weights; None
        when HiGHS does not prove optimality within ``time_limit``."""
        weights = np.array(self.weights(), dtype=float)
        constraints = [LinearConstraint(self._rows(self.bases + self.edges), 0, 1)]
        options = {} if time_limit is None else {"time_limit": time_limit}
        res = milp(-weights, constraints=constraints, integrality=np.ones(self.n),
                   bounds=Bounds(0, 1), options=options)
        if res.status != 0:
            return None
        return int(round(-res.fun))


def answers(
    rays: list[tuple], disc: int, dim: int, alpha_limit: float | None = None
) -> tuple[dict, list[int]]:
    """Every checked quantity of one input, pruned the way kscertify prunes,
    and the indices of the rays that pruning keeps."""
    kept = Structure.of(rays, disc, dim).covered()
    out = {"rays": len(rays), "kept": len(kept), "edges": 0, "bases": 0,
           "original_ks": False, "extended_ks": False, "alpha": None}
    if kept:
        pruned = Structure.of([rays[k] for k in kept], disc, dim)
        out["edges"] = len(pruned.edges)
        out["bases"] = len(pruned.bases)
        out["original_ks"] = not pruned.colorable(original=True)
        out["extended_ks"] = not pruned.colorable(original=False)
        out["alpha"] = pruned.alpha(alpha_limit)
    return out, kept


def freeze(names: list[str], alpha_limit: float) -> dict:
    frozen = {}
    for name in names:
        family = gen.FAMILIES[name]
        rays = gen.enumerate_family(family)
        result, kept = answers(rays, family.disc, family.dim, alpha_limit)
        result["removed"] = sorted(set(range(len(rays))) - set(kept))
        frozen[name] = result
        print(name, {k: v for k, v in result.items() if k != "removed"}, flush=True)
    return frozen


if __name__ == "__main__":
    if sys.argv[1:] != ["--freeze"]:
        sys.exit("usage: python3 kscbench/oracle.py --freeze")
    data = freeze(sorted(gen.FAMILIES), alpha_limit=120.0)
    lines = [f"{json.dumps(name)}: {json.dumps(data[name], sort_keys=True)}" for name in data]
    FROZEN.write_text("{\n" + ",\n".join(lines) + "\n}\n")
