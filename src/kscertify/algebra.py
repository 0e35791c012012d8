"""Exact arithmetic for rays with coordinates in a real quadratic integer ring.

Scalars are elements a + b*sqrt(m) with integer a, b and a fixed positive
square-free discriminant m shared by every coordinate of a ray set.  With
m = 1 the ring degenerates to the plain integers.  A numeric fallback with
float coordinates and a relative tolerance is available for ray sets that
have no exact representation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cache

DEFAULT_TOLERANCE = 1e-9


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


@dataclass(frozen=True, slots=True)
class QuadScalar:
    """Element rat_part + irr_part * sqrt(disc) of the ring Z[sqrt(disc)]."""

    rat_part: int
    irr_part: int
    disc: int

    def __post_init__(self) -> None:
        if not is_square_free(self.disc):
            raise ValueError(f"discriminant {self.disc} is not a positive square-free integer")
        if self.disc == 1 and self.irr_part != 0:
            # sqrt(1) = 1, so fold the irrational part away and keep
            # plain-integer scalars in the form (a, 0, 1).
            object.__setattr__(self, "rat_part", self.rat_part + self.irr_part)
            object.__setattr__(self, "irr_part", 0)

    @classmethod
    def from_int(cls, value: int, disc: int) -> QuadScalar:
        return cls(value, 0, disc)

    def _coerce(self, other: int | QuadScalar) -> QuadScalar | None:
        if isinstance(other, QuadScalar):
            if other.disc != self.disc:
                raise ValueError(
                    f"mismatched discriminants {self.disc} and {other.disc}"
                )
            return other
        if isinstance(other, int):
            return QuadScalar(other, 0, self.disc)
        return None

    def __add__(self, other: int | QuadScalar) -> QuadScalar:
        rhs = self._coerce(other)
        if rhs is None:
            return NotImplemented
        return QuadScalar(self.rat_part + rhs.rat_part, self.irr_part + rhs.irr_part, self.disc)

    __radd__ = __add__

    def __sub__(self, other: int | QuadScalar) -> QuadScalar:
        rhs = self._coerce(other)
        if rhs is None:
            return NotImplemented
        return QuadScalar(self.rat_part - rhs.rat_part, self.irr_part - rhs.irr_part, self.disc)

    def __rsub__(self, other: int | QuadScalar) -> QuadScalar:
        rhs = self._coerce(other)
        if rhs is None:
            return NotImplemented
        return rhs - self

    def __neg__(self) -> QuadScalar:
        return QuadScalar(-self.rat_part, -self.irr_part, self.disc)

    def __mul__(self, other: int | QuadScalar) -> QuadScalar:
        rhs = self._coerce(other)
        if rhs is None:
            return NotImplemented
        a, b, c, e = self.rat_part, self.irr_part, rhs.rat_part, rhs.irr_part
        return QuadScalar(a * c + self.disc * b * e, a * e + b * c, self.disc)

    __rmul__ = __mul__

    def is_zero(self) -> bool:
        # m square-free makes sqrt(m) irrational (or equal to 1 with m = 1,
        # where irr_part is always 0), so both parts must vanish.
        return self.rat_part == 0 and self.irr_part == 0

    def to_float(self) -> float:
        return self.rat_part + self.irr_part * math.sqrt(self.disc)

    def __str__(self) -> str:
        if self.irr_part == 0:
            return str(self.rat_part)
        return f"{self.rat_part}+{self.irr_part}*sqrt({self.disc})"


ExactCoords = tuple[QuadScalar, ...]
NumericCoords = tuple[float, ...]


@dataclass(frozen=True, slots=True)
class RayVector:
    """A nonzero vector of exact QuadScalar coordinates or float coordinates."""

    coords: ExactCoords | NumericCoords

    def __post_init__(self) -> None:
        if len(self.coords) == 0:
            raise ValueError("ray has no coordinates")
        if isinstance(self.coords[0], QuadScalar):
            coords = tuple(self.coords)
            disc = coords[0].disc
            for c in coords:
                if not isinstance(c, QuadScalar):
                    raise ValueError("mixed exact and numeric coordinates")
                if c.disc != disc:
                    raise ValueError(f"mismatched discriminants {disc} and {c.disc}")
            if all(c.is_zero() for c in coords):
                raise ValueError("zero vector is not a ray")
            object.__setattr__(self, "coords", coords)
        else:
            coords = tuple(float(c) for c in self.coords)
            if all(c == 0.0 for c in coords):
                raise ValueError("zero vector is not a ray")
            object.__setattr__(self, "coords", coords)

    @property
    def dimension(self) -> int:
        return len(self.coords)

    @property
    def exact(self) -> bool:
        return isinstance(self.coords[0], QuadScalar)

    @property
    def disc(self) -> int | None:
        return self.coords[0].disc if self.exact else None

    def to_floats(self) -> tuple[float, ...]:
        if self.exact:
            return tuple(c.to_float() for c in self.coords)
        return self.coords  # type: ignore[return-value]


def exact_ray(components: list[tuple[int, int]] | list[int], disc: int) -> RayVector:
    """Build an exact ray from integer components or (rat, irr) pairs."""
    coords = []
    for comp in components:
        if isinstance(comp, tuple):
            rat, irr = comp
        else:
            rat, irr = comp, 0
        coords.append(QuadScalar(rat, irr, disc))
    return RayVector(tuple(coords))


def numeric_ray(components: list[float] | tuple[float, ...]) -> RayVector:
    return RayVector(tuple(float(c) for c in components))


def _check_compatible(u: RayVector, v: RayVector) -> None:
    if u.dimension != v.dimension:
        raise ValueError(f"dimension mismatch: {u.dimension} != {v.dimension}")
    if u.exact != v.exact:
        raise ValueError("cannot mix exact and numeric rays")
    if u.exact and u.disc != v.disc:
        raise ValueError(f"mismatched discriminants {u.disc} and {v.disc}")


def inner_product(u: RayVector, v: RayVector) -> QuadScalar | float:
    """Euclidean inner product; exact rays give a QuadScalar, numeric a float."""
    _check_compatible(u, v)
    if u.exact:
        total = QuadScalar(0, 0, u.disc)  # type: ignore[arg-type]
        for a, b in zip(u.coords, v.coords):
            total = total + a * b  # type: ignore[operator]
        return total
    return math.fsum(a * b for a, b in zip(u.coords, v.coords))


def norm_squared(v: RayVector) -> QuadScalar | float:
    return inner_product(v, v)


def _euclidean_norm(v: RayVector) -> float:
    return math.sqrt(math.fsum(x * x for x in v.to_floats()))


def is_orthogonal(u: RayVector, v: RayVector, tol: float = DEFAULT_TOLERANCE) -> bool:
    """Exact rays: inner product is exactly zero.  Numeric rays: the inner
    product is at most tol relative to the product of the Euclidean norms.

    Decides one pair; ``rayset.build_graph`` decides every pair of a ray set
    at once by the same rule.
    """
    ip = inner_product(u, v)
    if u.exact:
        return ip.is_zero()  # type: ignore[union-attr]
    return abs(ip) <= tol * _euclidean_norm(u) * _euclidean_norm(v)


def canonicalize_ray(v: RayVector) -> RayVector:
    """Scale-invariant canonical form of a projective ray.

    Exact rays are reduced by the gcd of all rational and irrational parts
    and flipped so the first nonzero coordinate is positive under the
    (rat_part, irr_part) lexicographic ordering.  Numeric rays are scaled to
    unit Euclidean norm with the first nonzero coordinate positive.
    Colinear inputs with a rational scale factor map to identical outputs.
    """
    if v.exact:
        parts = [p for c in v.coords for p in (c.rat_part, c.irr_part)]
        g = math.gcd(*parts)
        # The first nonzero part is that of the first nonzero coordinate:
        # its rational part, or its irrational part when that is zero.
        if next(p for p in parts if p) < 0:
            g = -g
        if g == 1:
            # Already canonical, as every ray of an emitted file is.
            return v
        return RayVector(
            tuple(QuadScalar(c.rat_part // g, c.irr_part // g, c.disc) for c in v.coords)
        )
    norm = _euclidean_norm(v)
    if abs(norm - 1.0) <= 1e-12:
        # Already unit length: renormalizing would perturb the last bits,
        # and canonicalization must be exactly idempotent for round trips.
        coords = tuple(v.coords)
    else:
        coords = tuple(x / norm for x in v.coords)
    first = next(x for x in coords if abs(x) > 1e-12)
    if first < 0:
        coords = tuple(-x for x in coords)
    return RayVector(coords)
