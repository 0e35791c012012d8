"""Tests for exact rays over quadratic integer rings and ray-level operations."""

from __future__ import annotations

import math
import random

import pytest

from conftest import make_integer_family, make_peres33, make_quadratic_family
from kscertify.algebra import (
    RayVector,
    exact_ray,
    is_orthogonal,
    is_square_free,
    numeric_ray,
)
from kscertify.formats import emit_rayset, parse_rayset
from kscertify.rayset import RaySet, ScalarMode, validate_rayset


class TestRayVector:
    def test_disc_one_folds_to_plain_integers(self):
        assert exact_ray([(2, 5), 1, 0], disc=1) == exact_ray([7, 1, 0], disc=1)
        assert exact_ray([(2, 5), 1, 0], disc=1).coords == ((7, 0), (1, 0), (0, 0))

    @pytest.mark.parametrize("m", [1, 2, 3, 5, 6, 7, 10, 13])
    def test_square_free_accepted(self, m):
        assert is_square_free(m)
        assert exact_ray([(1, 1), 0, 0], disc=m).disc == m

    @pytest.mark.parametrize("m", [0, -2, 4, 8, 9, 12, 18, 50])
    def test_non_square_free_rejected(self, m):
        assert not is_square_free(m)
        with pytest.raises(ValueError, match="square-free"):
            exact_ray([(1, 1), 0, 0], disc=m)

    @pytest.mark.parametrize("m", [2.0, True, "2"])
    def test_non_int_discriminant_rejected(self, m):
        with pytest.raises(ValueError, match="square-free"):
            exact_ray([(1, 1), 0, 0], disc=m)

    @pytest.mark.parametrize("m", [2**31, 2**31 + 11, 10**18 + 3, 10**40])
    def test_discriminant_bound(self, m):
        with pytest.raises(ValueError, match=rf"discriminant {m} is not below 2\*\*31"):
            exact_ray([1, 0, 0], m)

    def test_largest_discriminant_accepted(self):
        # 2**31 - 1 is prime, so square-free.
        assert exact_ray([1, 0, 0], 2**31 - 1).disc == 2**31 - 1

    def test_zero_vector_rejected(self):
        with pytest.raises(ValueError, match="zero vector"):
            exact_ray([0, 0, 0], disc=2)
        with pytest.raises(ValueError, match="zero vector"):
            exact_ray([(1, -1), (0, 0), (-2, 2)], disc=1)
        with pytest.raises(ValueError, match="zero vector"):
            numeric_ray([0.0, 0.0, 0.0])

    @pytest.mark.parametrize("part", [0.5, 1.0, True, False, "1"])
    def test_no_float_enters_the_exact_path(self, part):
        with pytest.raises(ValueError, match="is not a pair of ints"):
            exact_ray([part, -1, 0], disc=1)
        with pytest.raises(ValueError, match="is not a pair of ints"):
            exact_ray([(1, part), 2, 0], disc=2)
        with pytest.raises(ValueError, match="is not a pair of ints"):
            RayVector(((part, 0), (2, 0), (0, 0)), 2)

    @pytest.mark.parametrize("coord", [1, [1, 0], (1,), (1, 0, 0)])
    def test_exact_coordinate_must_be_an_int_pair(self, coord):
        with pytest.raises(ValueError, match="is not a pair of ints"):
            RayVector((coord, (0, 0), (0, 1)), 2)

    def test_float_conversion(self):
        v = exact_ray([(1, 0), (0, 1), (0, 0)], disc=2)
        assert v.to_floats() == pytest.approx((1.0, math.sqrt(2), 0.0))


class TestInnerProduct:
    def test_orthogonal_axes(self):
        u = exact_ray([1, 0, 0], disc=2)
        v = exact_ray([0, 1, 0], disc=2)
        assert is_orthogonal(u, v)

    def test_irrational_cancellation(self):
        # (1, sqrt(2), 0) . (sqrt(2), -1, 0) = sqrt(2) - sqrt(2) = 0
        u = exact_ray([(1, 0), (0, 1), (0, 0)], disc=2)
        v = exact_ray([(0, 1), (-1, 0), (0, 0)], disc=2)
        assert is_orthogonal(u, v)

    def test_non_orthogonal(self):
        u = exact_ray([1, 1, 0], disc=2)
        v = exact_ray([1, 0, 0], disc=2)
        assert not is_orthogonal(u, v)

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(ValueError, match="dimension"):
            is_orthogonal(exact_ray([1, 0], disc=2), exact_ray([1, 0, 0], disc=2))

    def test_mode_mismatch_rejected(self):
        with pytest.raises(ValueError, match="mix"):
            is_orthogonal(exact_ray([1, 0, 0], disc=2), numeric_ray([1.0, 0.0, 0.0]))

    def test_discriminant_mismatch_rejected(self):
        with pytest.raises(ValueError, match="discriminant"):
            is_orthogonal(exact_ray([1, 0, 0], disc=2), exact_ray([1, 0, 0], disc=3))

    @pytest.mark.parametrize("m", [1, 2, 3, 5])
    def test_exact_agrees_with_float_inner_product(self, m):
        # With parts in [-2, 2] and d <= 4, a nonzero inner product r + s*sqrt(m)
        # has |r| <= 96 and |s| <= 32, so |r + s*sqrt(m)| = |r^2 - m s^2| /
        # |r - s*sqrt(m)| >= 1 / 168: floats separate zero from nonzero.
        rng = random.Random(1700 + m)
        orthogonal = 0
        for _ in range(3000):
            d = rng.choice((3, 4))
            pairs = [
                [(rng.randint(-2, 2), rng.randint(-2, 2)) for _ in range(d)] for _ in range(2)
            ]
            try:
                u, v = (exact_ray(ray, disc=m) for ray in pairs)
            except ValueError:  # a zero vector (with m = 1, a:-a is 0 too)
                continue
            root = math.sqrt(m)
            value = math.fsum(
                (a + b * root) * (c + e * root) for (a, b), (c, e) in zip(*pairs)
            )
            assert is_orthogonal(u, v) == (abs(value) < 1e-9)
            orthogonal += is_orthogonal(u, v)
        assert orthogonal > 0

    def test_numeric_tolerance_is_relative(self):
        u = numeric_ray([1.0, 1e-12, 0.0])
        v = numeric_ray([0.0, 1.0, 0.0])
        assert is_orthogonal(u, v, tol=1e-9)
        w = numeric_ray([1.0, 1e-6, 0.0])
        assert not is_orthogonal(w, v, tol=1e-9)
        # Scaling both vectors must not change the verdict.
        u2 = numeric_ray([1e6, 1e-6, 0.0])
        v2 = numeric_ray([0.0, 1e6, 0.0])
        assert is_orthogonal(u2, v2, tol=1e-9)


class TestCanonicalize:
    """Building a ray stores the canonical form of its projective ray."""

    def test_gcd_and_sign(self):
        v = exact_ray([-2, 0, 2], disc=2)
        assert v.coords == ((1, 0), (0, 0), (-1, 0))
        assert v == exact_ray([1, 0, -1], disc=2)

    def test_gcd_spans_both_parts(self):
        # (0, 2*sqrt(2), 2) reduces to (0, sqrt(2), 1)
        v = exact_ray([(0, 0), (0, 2), (2, 0)], disc=2)
        assert v.coords == ((0, 0), (0, 1), (1, 0))

    def test_fixed_point(self):
        for v in exact_ray([1, 0, 0], disc=2), numeric_ray([0.1, 0.2, -0.3]):
            assert RayVector(v.coords, v.disc).coords == v.coords

    def test_lexicographic_sign_rule(self):
        # First nonzero coordinate (-1, 2) is lexicographically negative,
        # so the whole ray is flipped even though -1 + 2*sqrt(2) > 0.
        v = exact_ray([(-1, 2), (3, 0), (0, 0)], disc=2)
        assert v.coords == ((1, -2), (-3, 0), (0, 0))

    def test_idempotent_randomized(self):
        rng = random.Random(4242)
        for _ in range(200):
            m = rng.choice([1, 2, 5])
            coords = []
            while True:
                coords = [
                    (rng.randint(-9, 9), rng.randint(-9, 9) if m > 1 else 0)
                    for _ in range(3)
                ]
                if any(c != (0, 0) for c in coords):
                    break
            c1 = exact_ray(coords, disc=m)
            g = math.gcd(*(p for c in coords for p in c))
            reference = [(a // g, b // g) for a, b in coords]
            if next(c for c in reference if c != (0, 0)) < (0, 0):
                reference = [(-a, -b) for a, b in reference]
            assert c1.coords == tuple(reference)
            assert RayVector(c1.coords, m).coords == c1.coords

    def test_rational_scale_invariance_randomized(self):
        rng = random.Random(515)
        for _ in range(200):
            m = rng.choice([2, 3])
            while True:
                coords = [
                    (rng.randint(-5, 5), rng.randint(-5, 5)) for _ in range(4)
                ]
                if any(c != (0, 0) for c in coords):
                    break
            lam = rng.choice([x for x in range(-6, 7) if x != 0])
            v = exact_ray(coords, disc=m)
            scaled = exact_ray([(lam * a, lam * b) for a, b in coords], disc=m)
            assert scaled == v

    def test_numeric_canonical_is_unit_norm(self):
        v = numeric_ray([-3.0, 0.0, 4.0])
        assert math.fsum(x * x for x in v.coords) == pytest.approx(1.0)
        assert v.coords[0] > 0

    def test_numeric_fixed_point_randomized(self):
        # Bit for bit: a stored numeric ray is within 1e-12 of unit length,
        # so building it again keeps every coordinate.
        rng = random.Random(77)
        for _ in range(500):
            v = numeric_ray([rng.gauss(0.0, 10.0) for _ in range(rng.choice((3, 4, 6)))])
            assert RayVector(v.coords).coords == v.coords
            assert RayVector(tuple(-x for x in v.coords)) == v

    def test_numeric_sign_skips_coordinates_near_zero(self):
        # Coordinates of size at most 1e-12 do not decide the sign.
        v = numeric_ray([-1e-13, -1.0, 0.0])
        assert v.coords == (1e-13, 1.0, -0.0)


# The families of tests/conftest.py, exact and in numeric form.
ROUND_TRIP_FAMILIES = {
    "int3{0,1,2}": lambda: make_integer_family(3, (1, 2)),
    "int4{0,1}": lambda: make_integer_family(4, (1,)),
    "q2_3{0,1,r2}": lambda: make_quadratic_family(3, ((1, 0), (0, 1)), disc=2),
    "peres-33": make_peres33,
}


def _numeric_form(rayset: RaySet) -> RaySet:
    rays = [numeric_ray(ray.to_floats()) for ray in rayset.rays]
    return validate_rayset(rays, name=rayset.name, mode=ScalarMode.numeric())


@pytest.mark.parametrize("numeric", [False, True], ids=["exact", "numeric"])
@pytest.mark.parametrize("family", ROUND_TRIP_FAMILIES)
def test_families_are_built_canonical(family, numeric):
    rayset = ROUND_TRIP_FAMILIES[family]()
    if numeric:
        rayset = _numeric_form(rayset)
    rng = random.Random(family)
    for ray in rayset.rays:
        # -1 flips back exactly; a numeric ray times k > 1 is unit length
        # again only up to rounding.
        for k in (-1, *rng.sample([k for k in range(-9, 10) if k not in (-1, 0, 1)], 3)):
            if ray.exact:
                scaled = RayVector(tuple((k * a, k * b) for a, b in ray.coords), ray.disc)
                assert scaled == ray
            elif k == -1:
                assert RayVector(tuple(-x for x in ray.coords)) == ray
            else:
                scaled = RayVector(tuple(k * x for x in ray.coords))
                assert scaled.coords == pytest.approx(ray.coords, abs=1e-15)
    assert parse_rayset(emit_rayset(rayset)) == rayset
