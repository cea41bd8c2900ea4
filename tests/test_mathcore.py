import math

import numpy as np
import pytest

from marginforge.errors import DimMismatchError, EmptyInputError, ZeroNormError
from marginforge.mathcore import (
    cosine_similarity,
    finite_diff_grad,
    mean_pool,
    normal_cdf,
)


class TestCosineSimilarity:
    def test_orthogonal(self):
        assert cosine_similarity([1.0, 0.0], [0.0, 1.0]) == 0.0

    def test_collinear(self):
        assert cosine_similarity([1.0, 2.0], [2.0, 4.0]) == pytest.approx(1.0, abs=1e-12)

    def test_hand_value(self):
        # <[1,0],[1,1]> / (1 * sqrt(2)) = 1/sqrt(2)
        assert cosine_similarity([1.0, 0.0], [1.0, 1.0]) == pytest.approx(
            0.7071067811865475, abs=1e-15
        )

    def test_self_similarity_is_one(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            a = rng.standard_normal(rng.integers(1, 9))
            assert cosine_similarity(a, a) == pytest.approx(1.0, abs=1e-12)

    def test_scale_invariance(self):
        rng = np.random.default_rng(1)
        for _ in range(50):
            a = rng.standard_normal(6)
            b = rng.standard_normal(6)
            c = float(rng.uniform(0.01, 100.0))
            assert cosine_similarity(c * a, b) == pytest.approx(
                cosine_similarity(a, b), abs=1e-12
            )

    def test_zero_norm_rejected(self):
        with pytest.raises(ZeroNormError):
            cosine_similarity([0.0, 0.0], [1.0, 0.0])

    def test_dim_mismatch(self):
        with pytest.raises(DimMismatchError):
            cosine_similarity([1.0, 0.0], [1.0, 0.0, 0.0])


class TestMeanPool:
    def test_two_rows(self):
        np.testing.assert_array_equal(mean_pool([[1.0, 3.0], [3.0, 1.0]]), [2.0, 2.0])

    def test_single_row_identity(self):
        np.testing.assert_array_equal(mean_pool([[5.0, 7.0]]), [5.0, 7.0])

    def test_three_rows(self):
        np.testing.assert_array_equal(
            mean_pool([[0.0, 0.0], [1.0, 1.0], [2.0, 2.0]]), [1.0, 1.0]
        )

    def test_empty_rejected(self):
        with pytest.raises((EmptyInputError, DimMismatchError)):
            mean_pool(np.empty((0, 3)))

    def test_permutation_invariance(self):
        rng = np.random.default_rng(5)
        frames = rng.standard_normal((6, 4))
        shuffled = frames[rng.permutation(6)]
        np.testing.assert_allclose(mean_pool(frames), mean_pool(shuffled), atol=1e-15)


class TestNormalCdf:
    def test_zero(self):
        assert normal_cdf(0.0) == 0.5

    def test_symmetry(self):
        rng = np.random.default_rng(6)
        for x in rng.uniform(-6, 6, size=50):
            assert normal_cdf(x) + normal_cdf(-x) == pytest.approx(1.0, abs=1e-12)

    def test_ninety_five_percent_point(self):
        assert normal_cdf(1.6448536270) == pytest.approx(0.95, abs=1e-8)

    def test_against_quadrature_oracle(self):
        # composite Simpson integration of the density, independent of erf
        def phi(t):
            return math.exp(-0.5 * t * t) / math.sqrt(2.0 * math.pi)

        def simpson_cdf(x, lo=-12.0, n=40000):
            h = (x - lo) / n
            acc = phi(lo) + phi(x)
            for k in range(1, n):
                acc += phi(lo + k * h) * (4 if k % 2 else 2)
            return acc * h / 3.0

        for x in (-2.0, -0.5, 0.3, 1.0, 1.6448536270, 3.0):
            assert normal_cdf(x) == pytest.approx(simpson_cdf(x), abs=1e-10)

    def test_monotone_on_grid(self):
        grid = np.linspace(-8.0, 8.0, 10_000)
        vals = np.array([normal_cdf(x) for x in grid])
        assert np.all(np.diff(vals) >= 0.0)


class TestFiniteDiff:
    def test_constant_function(self):
        g = finite_diff_grad(lambda x: 3.25, np.array([1.0, -2.0, 0.5]))
        np.testing.assert_array_equal(g, np.zeros(3))

    def test_quadratic(self):
        g = finite_diff_grad(lambda x: float(np.dot(x, x)), np.array([1.0, 2.0]))
        np.testing.assert_allclose(g, [2.0, 4.0], atol=1e-9)

    def test_bad_step_rejected(self):
        with pytest.raises(ValueError):
            finite_diff_grad(lambda x: 0.0, np.array([1.0]), h=0.0)
