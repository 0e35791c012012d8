"""Exact rays with coordinates in a real quadratic integer ring.

An exact coordinate is a pair (a, b) of ints meaning a + b*sqrt(m), for a
positive square-free discriminant m below 2**31 that the ray carries once
and that every ray of a set shares.  With m = 1 the ring degenerates to the
plain integers.  Every exact computation works on the integer parts
directly.  A numeric fallback with float coordinates and a relative
tolerance is available for ray sets that have no exact representation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cache

DEFAULT_TOLERANCE = 1e-9

# Exact modes take a discriminant below this bound, so that the trial
# division of ``is_square_free`` stops within 46 341 steps.
DISCRIMINANT_BOUND = 2**31


@cache
def is_square_free(m: int) -> bool:
    if m < 1:
        return False
    k = 2
    while k * k <= m:
        if m % (k * k) == 0:
            return False
        k += 1
    return True


def check_discriminant(m: int) -> None:
    """Raise ValueError unless m, the discriminant of an exact ray or scalar
    mode, is a square-free int (not a bool) in [1, DISCRIMINANT_BOUND)."""
    if type(m) is int and m >= DISCRIMINANT_BOUND:
        raise ValueError(f"discriminant {m} is not below 2**31")
    if type(m) is not int or not is_square_free(m):
        raise ValueError(f"discriminant {m} is not a positive square-free integer")


@dataclass(frozen=True, slots=True)
class RayVector:
    """A nonzero vector, stored in the canonical form of its projective ray:
    when ``disc`` is set, (rat, irr) int pairs over Z[sqrt(disc)] divided by
    the gcd of all parts, signed like the first nonzero part; when it is
    None, floats at unit Euclidean norm with the first coordinate above
    1e-12 in size positive.  Colinear inputs with a rational factor build
    equal rays, and rebuilding a ray keeps its coordinates bit for bit."""

    coords: tuple[tuple[int, int], ...] | tuple[float, ...]
    disc: int | None = None

    def __post_init__(self) -> None:
        if len(self.coords) == 0:
            raise ValueError("ray has no coordinates")
        m = self.disc
        if m is None:
            coords = tuple(float(c) for c in self.coords)
            # The coordinates are divided by the norm, so it must be a
            # positive finite float: no nan or inf, no underflow to 0 and
            # no overflow of the squares.
            norm_squared = math.fsum(x * x for x in coords)
            if not 0.0 < norm_squared < math.inf:
                if not any(coords):
                    raise ValueError("zero vector is not a ray")
                raise ValueError(f"squared norm {norm_squared!r} is not a positive finite float")
            norm = math.sqrt(norm_squared)
            # Within 1e-12 of unit length the coordinates are kept: dividing
            # would perturb the last bits, and rebuilding must be exact.
            if abs(norm - 1.0) > 1e-12:
                coords = tuple(x / norm for x in coords)
            if next(x for x in coords if abs(x) > 1e-12) < 0:
                coords = tuple(-x for x in coords)
        else:
            check_discriminant(m)
            coords = tuple(self.coords)
            for c in coords:
                # Exactly int, so that no float, bool or str enters exact
                # arithmetic, where it would be wrong without an error.
                if type(c) is not tuple or len(c) != 2 or (type(c[0]), type(c[1])) != (int, int):
                    raise ValueError(f"exact coordinate {c!r} is not a pair of ints")
            if m == 1 and any(irr for _, irr in coords):
                # sqrt(1) = 1, so fold the irrational part away and keep
                # plain-integer coordinates in the form (a, 0).
                coords = tuple((rat + irr, 0) for rat, irr in coords)
            parts = [p for c in coords for p in c]
            first = next(filter(None, parts), 0)
            if not first:
                raise ValueError("zero vector is not a ray")
            g = math.gcd(*parts) if first > 0 else -math.gcd(*parts)
            if g != 1:
                coords = tuple((rat // g, irr // g) for rat, irr in coords)
        object.__setattr__(self, "coords", coords)

    @property
    def dimension(self) -> int:
        return len(self.coords)

    @property
    def exact(self) -> bool:
        return self.disc is not None

    def to_floats(self) -> tuple[float, ...]:
        if self.disc is None:
            return self.coords  # type: ignore[return-value]
        root = math.sqrt(self.disc)
        return tuple(rat + irr * root for rat, irr in self.coords)


def exact_ray(components: list[tuple[int, int]] | list[int], disc: int) -> RayVector:
    """Build an exact ray from integer components or (rat, irr) pairs."""
    return RayVector(tuple(c if isinstance(c, tuple) else (c, 0) for c in components), disc)


def numeric_ray(components: list[float] | tuple[float, ...]) -> RayVector:
    return RayVector(tuple(components))


def _check_compatible(u: RayVector, v: RayVector) -> None:
    if u.dimension != v.dimension:
        raise ValueError(f"dimension mismatch: {u.dimension} != {v.dimension}")
    if u.exact != v.exact:
        raise ValueError("cannot mix exact and numeric rays")
    if u.disc != v.disc:
        raise ValueError(f"mismatched discriminants {u.disc} and {v.disc}")


def _euclidean_norm(v: RayVector) -> float:
    return math.sqrt(math.fsum(x * x for x in v.to_floats()))


def is_orthogonal(u: RayVector, v: RayVector, tol: float = DEFAULT_TOLERANCE) -> bool:
    """Exact rays: inner product is exactly zero.  Numeric rays: the inner
    product is at most tol relative to the product of the Euclidean norms.

    Decides one pair; ``rayset.build_graph`` decides every pair of a ray set
    at once by the same rule.
    """
    _check_compatible(u, v)
    if u.exact:
        # (a + b sqrt(m))(c + e sqrt(m)) = (ac + m be) + (ae + bc) sqrt(m).
        m = u.disc
        rat = irr = 0
        for (a, b), (c, e) in zip(u.coords, v.coords):
            rat += a * c + m * b * e
            irr += a * e + b * c
        return rat == 0 and irr == 0
    ip = math.fsum(a * b for a, b in zip(u.coords, v.coords))
    return abs(ip) <= tol * _euclidean_norm(u) * _euclidean_norm(v)
