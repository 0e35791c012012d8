"""Seeded ray-set instances for the benchmark.

A family ``intD{S}`` is every nonzero vector of dimension D with components
in S, taken up to a projective scale; ``q2_D{S}`` is the same over Z[sqrt 2].
Two vectors are the same ray when they agree after dividing by their first
nonzero coordinate in Q(sqrt m).  Of each class the representative with the
smallest Euclidean norm (then the first in enumeration order) is kept, so
(sqrt2, sqrt2, 0) and (2, 2, 0) both become (1, 1, 0).

An instance applies a seeded signed coordinate permutation, a seeded sign per
ray and a seeded ray order to a family, optionally keeps a seeded subset, and
is written as a ``.ks`` file in exact or numeric form.  Scalars are pairs
(a, b) meaning a + b*sqrt(m); this module shares no code with kscertify.
"""

from __future__ import annotations

import hashlib
import itertools
import math
import random
from dataclasses import dataclass
from fractions import Fraction

Scalar = tuple[int, int]
Vector = tuple[Scalar, ...]

_ONE, _R2, _ONE_R2 = (1, 0), (0, 1), (1, 1)


def _signed(*values: Scalar) -> tuple[Scalar, ...]:
    out = [(0, 0)]
    for a, b in values:
        out += [(a, b), (-a, -b)]
    return tuple(out)


@dataclass(frozen=True)
class Family:
    name: str
    dim: int
    disc: int
    components: tuple[Scalar, ...]


FAMILIES = {
    f.name: f
    for f in (
        Family("int3{0,1,2}", 3, 1, _signed((1, 0), (2, 0))),
        Family("int4{0,1}", 4, 1, _signed(_ONE)),
        Family("q2_3{0,1,r2}", 3, 2, _signed(_ONE, _R2)),
        Family("int3{0,1,2,4}", 3, 1, _signed((1, 0), (2, 0), (4, 0))),
        Family("int5{0,1}", 5, 1, _signed(_ONE)),
        Family("int3{0,1,2,3,4}", 3, 1, _signed((1, 0), (2, 0), (3, 0), (4, 0))),
        Family("q2_3{0,1,r2,1+r2}", 3, 2, _signed(_ONE, _R2, _ONE_R2)),
    )
}


def _div(x: Scalar, y: Scalar, m: int) -> tuple[Fraction, Fraction]:
    """(a + b sqrt m) / (c + d sqrt m) in Q(sqrt m)."""
    a, b = x
    c, d = y
    norm = c * c - m * d * d
    return Fraction(a * c - m * b * d, norm), Fraction(b * c - a * d, norm)


def projective_key(vector: Vector, m: int) -> tuple:
    """The vector divided by its first nonzero coordinate, as exact pairs."""
    pivot = next(x for x in vector if x != (0, 0))
    return tuple(_div(x, pivot, m) for x in vector)


def to_float(x: Scalar, m: int) -> float:
    return x[0] + x[1] * math.sqrt(m)


def norm_squared(vector: Vector, m: int) -> float:
    return sum(to_float(x, m) ** 2 for x in vector)


def enumerate_family(family: Family) -> list[Vector]:
    """The family's rays, one representative per projective class."""
    best: dict[tuple, Vector] = {}
    for vector in itertools.product(family.components, repeat=family.dim):
        if all(x == (0, 0) for x in vector):
            continue
        key = projective_key(vector, family.disc)
        held = best.get(key)
        if held is None or norm_squared(vector, family.disc) < norm_squared(held, family.disc):
            best[key] = vector
    return list(best.values())


def rng_for(*parts: object) -> random.Random:
    """A generator seeded by a stable hash of its parts."""
    text = "/".join(str(p) for p in parts)
    return random.Random(hashlib.sha256(text.encode()).digest())


@dataclass(frozen=True)
class Instance:
    """One generated input: family rays in file order, after the transform.

    ``origin[k]`` is the family index of the k-th ray written; ``whole``
    says whether every ray of the family was kept.
    """

    name: str
    family: str
    dim: int
    disc: int
    rays: tuple[Vector, ...]
    origin: tuple[int, ...]
    whole: bool


def make_instance(
    family_name: str, rng: random.Random, name: str, keep: tuple[float, float] | None = None
) -> Instance:
    """Apply a seeded signed permutation, ray signs, order and subset."""
    family = FAMILIES[family_name]
    base = enumerate_family(family)
    perm = list(range(family.dim))
    rng.shuffle(perm)
    flips = [rng.choice((1, -1)) for _ in range(family.dim)]
    order = list(range(len(base)))
    rng.shuffle(order)
    if keep is not None:
        share = rng.uniform(*keep)
        order = order[: max(family.dim, round(share * len(base)))]
    rays = []
    for index in order:
        sign = rng.choice((1, -1))
        vector = base[index]
        rays.append(
            tuple(
                (sign * flips[k] * vector[perm[k]][0], sign * flips[k] * vector[perm[k]][1])
                for k in range(family.dim)
            )
        )
    return Instance(
        name, family_name, family.dim, family.disc, tuple(rays), tuple(order), len(order) == len(base)
    )


def render(instance: Instance, numeric: bool) -> str:
    """The instance as ``.ks`` text: exact pairs or 17-digit floats."""
    if numeric:
        scalar = "scalar numeric 1e-09"
    elif instance.disc == 1:
        scalar = "scalar int"
    else:
        scalar = f"scalar quad {instance.disc}"
    lines = ["ksset 1", f"name {instance.name}", f"dim {instance.dim}", scalar]
    for vector in instance.rays:
        if numeric:
            parts = [repr(to_float(x, instance.disc)) for x in vector]
        else:
            parts = [str(a) if b == 0 else f"{a}:{b}" for a, b in vector]
        lines.append("ray " + " ".join(parts))
    return "\n".join(lines) + "\n"
