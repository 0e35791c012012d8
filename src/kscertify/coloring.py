"""Noncontextual 0/1 colorability of a ray set under two KS definitions.

A coloring assigns 0 or 1 to every ray subject to:

  (I)  orthogonal rays are never both 1, and
  (II) every complete basis contains exactly one ray assigned 1.

The ORIGINAL definition enforces both conditions; the EXTENDED definition
drops condition (I) and keeps only (II) on complete bases.  A ray set is a
KS set for a definition when no such coloring exists.  Since ORIGINAL adds
constraints on top of EXTENDED, every extended KS set is an original KS set.

A coloring in either mode is an exact cover: a set of rays (those assigned
1) that meets every basis exactly once.  The mode only changes which rays a
chosen ray rules out: under EXTENDED, every ray sharing a basis with it;
under ORIGINAL, every ray orthogonal to it, which includes its basis mates.
The search is Knuth's Algorithm X on bitmasks with an explicit stack: it
branches on the open basis with the fewest live rays (lowest index on a
tie) and tries those rays in ascending index; a node is one ray tried.  A
state (live rays, open bases) whose branches all failed is remembered and
cut when another set of choices reaches it.  Rays in no basis get 0.
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


def _exact_cover(instance: ProblemInstance, mode: DefinitionMode) -> tuple[int | None, int]:
    """Search for a set of rays hitting every basis once; return its bitmask
    (None when there is none) and the number of rays tried."""
    bases = instance.bases
    members = [sum(1 << v for v in basis) for basis in bases]
    bases_of = [0] * instance.graph.vertex_count
    for b, basis in enumerate(bases):
        for v in basis:
            bases_of[v] |= 1 << b
    # kill[v]: the rays that choosing v rules out, v included.
    if mode is DefinitionMode.ORIGINAL:
        kill = [mask | 1 << v for v, mask in enumerate(instance.graph.neighbors)]
    else:
        kill = [0] * len(bases_of)
        for b, basis in enumerate(bases):
            for v in basis:
                kill[v] |= members[b]

    live, open_, chosen, nodes = (1 << len(bases_of)) - 1, (1 << len(bases)) - 1, 0, 0
    # Each frame holds the state before a ray of the branching basis was
    # chosen and the rays of that basis not yet tried; a frame popped with
    # none left is a refuted state.
    frames: list[tuple[int, int, int, int]] = []
    refuted: set[tuple[int, int]] = set()
    while open_:
        untried = 0
        if (live, open_) not in refuted:
            fewest, rest = len(bases_of) + 1, open_
            while rest:
                low = rest & -rest
                rest ^= low
                candidates = members[low.bit_length() - 1] & live
                count = candidates.bit_count()
                if count < fewest:
                    fewest, untried = count, candidates
                    if not count:
                        break
        while not untried:
            if not frames:
                return None, nodes
            live, open_, chosen, untried = frames.pop()
            if not untried:
                refuted.add((live, open_))
        low = untried & -untried
        v = low.bit_length() - 1
        nodes += 1
        frames.append((live, open_, chosen, untried ^ low))
        live &= ~kill[v]
        open_ &= ~bases_of[v]
        chosen |= low
    return chosen, nodes


def check_colorable(instance: ProblemInstance, mode: DefinitionMode) -> ColoringResult:
    """Decide colorability and return a witness when one exists.

    Raises ValueError when the instance has no complete basis, because
    condition (II) would be vacuous.  Deterministic: verdict, witness, and
    node count depend only on the instance and mode.  The witness is
    re-checked with verify_assignment before it is returned.
    """
    if not instance.bases:
        raise ValueError("instance has no complete basis; colorability is vacuous")
    chosen, nodes = _exact_cover(instance, mode)
    if chosen is None:
        return ColoringResult(colorable=False, witness=None, nodes_explored=nodes, mode=mode)
    witness = tuple(chosen >> v & 1 for v in range(instance.graph.vertex_count))
    if not verify_assignment(instance, witness, mode):
        raise RuntimeError(f"coloring witness breaks the {mode.value} definition")
    return ColoringResult(colorable=True, witness=witness, nodes_explored=nodes, mode=mode)


def is_ks_set(instance: ProblemInstance, mode: DefinitionMode) -> bool:
    """A ray set is a KS set exactly when it admits no coloring."""
    return not check_colorable(instance, mode).colorable
