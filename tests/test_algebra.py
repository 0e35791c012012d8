"""Tests for the exact quadratic-ring scalars and ray-level operations."""

from __future__ import annotations

import math
import random

import pytest

from kscertify.algebra import (
    QuadScalar,
    RayVector,
    canonicalize_ray,
    exact_ray,
    inner_product,
    is_orthogonal,
    is_square_free,
    norm_squared,
    numeric_ray,
)


def q(rat: int, irr: int = 0, disc: int = 2) -> QuadScalar:
    return QuadScalar(rat, irr, disc)


class TestQuadScalar:
    def test_product_conjugate_pair(self):
        # (1 + sqrt(2)) * (1 - sqrt(2)) = 1 - 2 = -1
        assert q(1, 1) * q(1, -1) == q(-1, 0)

    def test_product_disc_five(self):
        # Hand oracle: (2 + 3*sqrt(5)) * (1 + sqrt(5))
        #   rational part 2*1 + 5*3*1 = 17, irrational part 2*1 + 3*1 = 5.
        x = QuadScalar(2, 3, 5)
        y = QuadScalar(1, 1, 5)
        assert x * y == QuadScalar(17, 5, 5)

    def test_additive_inverse(self):
        x = q(4, -7)
        assert (x + (-x)).is_zero()
        assert x - x == q(0, 0)

    def test_int_coercion(self):
        assert q(2, 3) + 1 == q(3, 3)
        assert 2 * q(2, 3) == q(4, 6)
        assert 1 - q(2, 3) == q(-1, -3)

    def test_disc_one_folds_to_plain_integers(self):
        assert QuadScalar(2, 5, 1) == QuadScalar(7, 0, 1)
        assert QuadScalar(2, 5, 1).irr_part == 0

    @pytest.mark.parametrize("m", [1, 2, 3, 5, 6, 7, 10, 13])
    def test_square_free_accepted(self, m):
        assert is_square_free(m)
        QuadScalar(1, 1, m)

    @pytest.mark.parametrize("m", [0, -2, 4, 8, 9, 12, 18, 50])
    def test_non_square_free_rejected(self, m):
        assert not is_square_free(m)
        with pytest.raises(ValueError, match="square-free"):
            QuadScalar(1, 1, m)

    def test_mismatched_discriminant_rejected(self):
        with pytest.raises(ValueError, match="discriminant"):
            QuadScalar(1, 1, 2) + QuadScalar(1, 1, 5)
        with pytest.raises(ValueError, match="discriminant"):
            QuadScalar(1, 1, 2) * QuadScalar(1, 1, 3)

    def test_ring_axioms_randomized(self):
        rng = random.Random(20260814)
        for _ in range(300):
            m = rng.choice([1, 2, 3, 5, 7])
            x, y, z = (
                QuadScalar(rng.randint(-50, 50), rng.randint(-50, 50), m)
                for _ in range(3)
            )
            assert (x + y) + z == x + (y + z)
            assert x + y == y + x
            assert (x * y) * z == x * (y * z)
            assert x * y == y * x
            assert x * (y + z) == x * y + x * z

    def test_float_conversion_is_a_ring_morphism(self):
        rng = random.Random(7)
        for _ in range(200):
            m = rng.choice([2, 3, 5])
            x = QuadScalar(rng.randint(-30, 30), rng.randint(-30, 30), m)
            y = QuadScalar(rng.randint(-30, 30), rng.randint(-30, 30), m)
            assert (x * y).to_float() == pytest.approx(x.to_float() * y.to_float(), rel=1e-12, abs=1e-9)
            assert (x + y).to_float() == pytest.approx(x.to_float() + y.to_float(), abs=1e-9)

    def test_no_zero_divisors_randomized(self):
        rng = random.Random(99)
        for _ in range(300):
            m = rng.choice([2, 3, 5, 6])
            x = QuadScalar(rng.randint(-20, 20), rng.randint(-20, 20), m)
            y = QuadScalar(rng.randint(-20, 20), rng.randint(-20, 20), m)
            if not x.is_zero() and not y.is_zero():
                assert not (x * y).is_zero()
            assert (x * QuadScalar(0, 0, m)).is_zero()


class TestRayVector:
    def test_zero_vector_rejected(self):
        with pytest.raises(ValueError, match="zero vector"):
            exact_ray([0, 0, 0], disc=2)
        with pytest.raises(ValueError, match="zero vector"):
            numeric_ray([0.0, 0.0, 0.0])

    def test_mixed_discriminants_rejected(self):
        with pytest.raises(ValueError, match="discriminant"):
            RayVector((QuadScalar(1, 0, 2), QuadScalar(0, 1, 3), QuadScalar(0, 0, 2)))

    def test_float_conversion(self):
        v = exact_ray([(1, 0), (0, 1), (0, 0)], disc=2)
        assert v.to_floats() == pytest.approx((1.0, math.sqrt(2), 0.0))


class TestInnerProduct:
    def test_orthogonal_axes(self):
        u = exact_ray([1, 0, 0], disc=2)
        v = exact_ray([0, 1, 0], disc=2)
        assert inner_product(u, v) == q(0, 0)
        assert is_orthogonal(u, v)

    def test_irrational_cancellation(self):
        # (1, sqrt(2), 0) . (sqrt(2), -1, 0) = sqrt(2) - sqrt(2) = 0
        u = exact_ray([(1, 0), (0, 1), (0, 0)], disc=2)
        v = exact_ray([(0, 1), (-1, 0), (0, 0)], disc=2)
        assert is_orthogonal(u, v)

    def test_non_orthogonal(self):
        u = exact_ray([1, 1, 0], disc=2)
        v = exact_ray([1, 0, 0], disc=2)
        assert inner_product(u, v) == q(1, 0)
        assert not is_orthogonal(u, v)

    def test_norm_squared(self):
        v = exact_ray([(1, 0), (1, 0), (0, 1)], disc=2)
        assert norm_squared(v) == q(4, 0)

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(ValueError, match="dimension"):
            inner_product(exact_ray([1, 0], disc=2), exact_ray([1, 0, 0], disc=2))

    def test_mode_mismatch_rejected(self):
        with pytest.raises(ValueError, match="mix"):
            inner_product(exact_ray([1, 0, 0], disc=2), numeric_ray([1.0, 0.0, 0.0]))

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
    def test_gcd_and_sign(self):
        v = exact_ray([-2, 0, 2], disc=2)
        assert canonicalize_ray(v) == exact_ray([1, 0, -1], disc=2)

    def test_gcd_spans_both_parts(self):
        # (0, 2*sqrt(2), 2) reduces to (0, sqrt(2), 1)
        v = exact_ray([(0, 0), (0, 2), (2, 0)], disc=2)
        assert canonicalize_ray(v) == exact_ray([(0, 0), (0, 1), (1, 0)], disc=2)

    def test_fixed_point(self):
        v = exact_ray([1, 0, 0], disc=2)
        assert canonicalize_ray(v) is v

    def test_lexicographic_sign_rule(self):
        # First nonzero coordinate (-1, 2) is lexicographically negative,
        # so the whole ray is flipped even though -1 + 2*sqrt(2) > 0.
        v = exact_ray([(-1, 2), (3, 0), (0, 0)], disc=2)
        assert canonicalize_ray(v) == exact_ray([(1, -2), (-3, 0), (0, 0)], disc=2)

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
            v = exact_ray(coords, disc=m)
            c1 = canonicalize_ray(v)
            g = math.gcd(*(p for c in coords for p in c))
            reference = [(a // g, b // g) for a, b in coords]
            if next(c for c in reference if c != (0, 0)) < (0, 0):
                reference = [(-a, -b) for a, b in reference]
            assert c1 == exact_ray(reference, disc=m)
            assert canonicalize_ray(c1) is c1

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
            assert canonicalize_ray(scaled) == canonicalize_ray(v)

    def test_numeric_canonical_is_unit_norm(self):
        v = canonicalize_ray(numeric_ray([-3.0, 0.0, 4.0]))
        assert math.fsum(x * x for x in v.coords) == pytest.approx(1.0)
        assert v.coords[0] > 0
