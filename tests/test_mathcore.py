import numpy as np
import pytest

from marginforge.errors import DimMismatchError, ZeroNormError
from marginforge.mathcore import cosine_similarity, row_norms, unit_rows
from helpers import finite_diff_grad


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


class TestUnitRows:
    def test_norms_and_unit_rows(self):
        X = np.array([[3.0, 4.0], [-1.0, 0.0], [1e-3, 1e-3]])
        U, norms = unit_rows(X, "video")
        np.testing.assert_array_equal(norms, np.linalg.norm(X, axis=1))
        assert norms[0] == 5.0 and norms[1] == 1.0
        # the kernels' former expression, bit for bit
        np.testing.assert_array_equal(U, X / np.linalg.norm(X, axis=1)[:, None])
        np.testing.assert_allclose(np.linalg.norm(U, axis=1), 1.0, atol=1e-15)
        assert U.dtype == np.float64 and U.flags.c_contiguous

    def test_nested_list_coerced(self):
        U, norms = unit_rows([[0.0, 2.0], [1, 0]], "text")
        np.testing.assert_array_equal(U, [[0.0, 1.0], [1.0, 0.0]])
        np.testing.assert_array_equal(norms, [2.0, 1.0])

    # 1e200's square overflows: an infinite norm, rejected without a warning
    @pytest.mark.parametrize(
        "bad_row", [[0.0, 0.0], [1e-13, 0.0], [np.nan, 1.0], [np.inf, 1.0], [1e200, 1.0]]
    )
    def test_first_bad_row_named(self, bad_row):
        X = np.array([[1.0, 0.0], bad_row, bad_row])
        with pytest.raises(ZeroNormError, match="^sse_text row 1 has non-finite or near-zero norm"):
            unit_rows(X, "sse_text")

    # widths below, at and above numpy's 8-wide pairwise-sum unroll and block
    @pytest.mark.parametrize("width", [1, 2, 7, 8, 9, 16, 24, 129, 300])
    def test_row_norms_are_linalg_norm_bit_for_bit(self, width):
        # random, tiny (squares subnormal or zero), huge (squares near the
        # top of the range) and overflowing rows, plus non-finite ones
        rng = np.random.default_rng(90 + width)
        X = np.concatenate(
            [
                rng.standard_normal((40, width)),
                rng.standard_normal((10, width)) * 1e-160,
                rng.standard_normal((10, width)) * 1e-300,
                rng.standard_normal((10, width)) * 1e153,
                rng.standard_normal((10, width)) * 1e155,
                np.full((1, width), 1e200),
                np.full((1, width), np.inf),
                np.full((1, width), np.nan),
                np.zeros((1, width)),
            ]
        )
        with np.errstate(over="ignore"):
            want = np.linalg.norm(X, axis=1)
        norms, _ = row_norms(X)
        assert norms.tobytes() == want.tobytes()

    @pytest.mark.parametrize("shape", [(3,), (), (2, 2, 2)])
    def test_not_a_stack(self, shape):
        with pytest.raises(DimMismatchError):
            unit_rows(np.ones(shape), "video")


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
