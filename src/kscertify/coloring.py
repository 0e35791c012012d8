"""Noncontextual 0/1 colorability of a ray set under two KS definitions.

A coloring assigns 0 or 1 to every ray subject to:

  (I)  orthogonal rays are never both 1, and
  (II) every complete basis contains exactly one ray assigned 1.

The ORIGINAL definition enforces both conditions; the EXTENDED definition
drops condition (I) and keeps only (II) on complete bases.  A ray set is a
KS set for a definition when no such coloring exists.  Since ORIGINAL adds
constraints on top of EXTENDED, every extended KS set is an original KS set.

The search is a deterministic backtracker: branch on the lowest-index
unassigned vertex, value 1 before 0, with unit propagation of three rules:
a 1 zeroes its basis mates (and, under ORIGINAL, all graph neighbors); a
basis with all but one vertex at 0 forces the last to 1; an all-zero basis
is a conflict.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

from .rayset import ProblemInstance

Assignment = tuple[int, ...]


class DefinitionMode(Enum):
    ORIGINAL = "original"
    EXTENDED = "extended"


@dataclass(frozen=True)
class ColoringResult:
    colorable: bool
    witness: Assignment | None
    nodes_explored: int
    mode: DefinitionMode


def verify_assignment(
    instance: ProblemInstance, assignment: Assignment, mode: DefinitionMode
) -> bool:
    """Check an explicit assignment against the constraints of a mode."""
    n = instance.graph.vertex_count
    if len(assignment) != n:
        raise ValueError(f"assignment has length {len(assignment)}, expected {n}")
    if any(v not in (0, 1) for v in assignment):
        raise ValueError("assignment values must be 0 or 1")
    for basis in instance.bases:
        if sum(assignment[v] for v in basis) != 1:
            return False
    if mode is DefinitionMode.ORIGINAL:
        for i, j in instance.graph.edges:
            if assignment[i] + assignment[j] > 1:
                return False
    return True


def check_colorable(instance: ProblemInstance, mode: DefinitionMode) -> ColoringResult:
    """Decide colorability and return a witness when one exists.

    Raises ValueError when the instance has no complete basis, because
    condition (II) would be vacuous.  Deterministic: verdict, witness, and
    node count depend only on the instance and mode.
    """
    bases = instance.bases
    if not bases:
        raise ValueError("instance has no complete basis; colorability is vacuous")
    n = instance.graph.vertex_count
    neighbors = instance.graph.neighbors
    original = mode is DefinitionMode.ORIGINAL

    vertex_bases: list[list[int]] = [[] for _ in range(n)]
    for bi, basis in enumerate(bases):
        for v in basis:
            vertex_bases[v].append(bi)
    basis_size = [len(b) for b in bases]

    values: list[int | None] = [None] * n
    ones = [0] * len(bases)
    zeros = [0] * len(bases)
    trail: list[int] = []
    nodes = 0

    def assign(root: int, value: int) -> bool:
        work = [(root, value)]
        while work:
            u, x = work.pop()
            cur = values[u]
            if cur is not None:
                if cur != x:
                    return False
                continue
            values[u] = x
            trail.append(u)
            # Update every counter before evaluating any rule so that the
            # trail-based undo (which decrements all of u's bases) stays
            # symmetric even when a conflict aborts this call.
            for bi in vertex_bases[u]:
                if x == 1:
                    ones[bi] += 1
                else:
                    zeros[bi] += 1
            for bi in vertex_bases[u]:
                if x == 1:
                    if ones[bi] > 1:
                        return False
                    for w in bases[bi]:
                        if w != u:
                            work.append((w, 0))
                else:
                    if zeros[bi] == basis_size[bi]:
                        return False
                    if zeros[bi] == basis_size[bi] - 1 and ones[bi] == 0:
                        forced = next(w for w in bases[bi] if values[w] is None)
                        work.append((forced, 1))
            if x == 1 and original:
                rest = neighbors[u]
                while rest:
                    low = rest & -rest
                    rest ^= low
                    work.append((low.bit_length() - 1, 0))
        return True

    def undo(mark: int) -> None:
        while len(trail) > mark:
            u = trail.pop()
            x = values[u]
            values[u] = None
            for bi in vertex_bases[u]:
                if x == 1:
                    ones[bi] -= 1
                else:
                    zeros[bi] -= 1

    def first_free(start: int) -> int:
        return next((i for i in range(start, n) if values[i] is None), -1)

    # Depth-first search with an explicit stack (no recursion-depth ceiling).
    # Each frame is a branch taken: (vertex, trail mark, value).  The branch
    # vertex is the lowest unassigned one, tried with 1 before 0; vertices
    # below it stay assigned in every deeper frame.
    frames: list[tuple[int, int, int]] = []
    v, value = first_free(0), 1
    while v >= 0:
        nodes += 1
        mark = len(trail)
        if assign(v, value):
            frames.append((v, mark, value))
            v, value = first_free(v), 1
            continue
        undo(mark)
        while value == 0:
            if not frames:
                return ColoringResult(
                    colorable=False, witness=None, nodes_explored=nodes, mode=mode
                )
            v, mark, value = frames.pop()
            undo(mark)
        value = 0
    witness = tuple(values)  # type: ignore[arg-type]
    return ColoringResult(colorable=True, witness=witness, nodes_explored=nodes, mode=mode)


def is_ks_set(instance: ProblemInstance, mode: DefinitionMode) -> bool:
    """A ray set is a KS set exactly when it admits no coloring."""
    return not check_colorable(instance, mode).colorable
