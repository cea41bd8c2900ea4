import numpy as np
import pytest

from marginforge import kernels
from marginforge.mathcore import cosine_similarity, finite_diff_grad
from oracles import brute_force_full_loss, loss_at_frozen_selection, mean_loss_all_negatives


def random_instance(rng, b=5, dim=4, levels=3):
    V = rng.standard_normal((b, dim))
    T = rng.standard_normal((b, dim))
    S = kernels.pairwise_cosine(V, T)
    M = np.concatenate(
        [np.full((1, b, b), 0.05), rng.uniform(-0.1, 0.2, size=(levels - 1, b, b))]
    )
    w = np.concatenate([[1.0], rng.uniform(0.0, 1.0, size=levels - 1)])
    return S, M, w


class TestPairwiseCosine:
    def test_matches_scalar_oracle(self):
        rng = np.random.default_rng(10)
        X = rng.standard_normal((4, 6))
        Y = rng.standard_normal((5, 6))
        S = kernels.pairwise_cosine(X, Y)
        assert S.shape == (4, 5)
        for i in range(4):
            for j in range(5):
                assert S[i, j] == pytest.approx(cosine_similarity(X[i], Y[j]), abs=1e-12)


class TestTripletTerms:
    @pytest.mark.parametrize("mining", ["hardest", "mean"])
    @pytest.mark.parametrize("hard_only", [False, True])
    def test_matches_brute_force(self, mining, hard_only):
        rng = np.random.default_rng(12)
        for trial in range(30):
            b = int(rng.integers(2, 7))
            S, M, w = random_instance(rng, b=b, levels=int(rng.integers(1, 6)))
            comp, dS, mined_v, mined_t = kernels.triplet_terms(
                S, M, w, mining == "mean", hard_only
            )
            total, per_level, bf_v, bf_t = brute_force_full_loss(
                S, list(M), w, mining, hard_only
            )
            np.testing.assert_allclose(comp, per_level, atol=1e-12)
            assert float(np.dot(w, comp)) == pytest.approx(total, abs=1e-12)
            np.testing.assert_array_equal(mined_v, bf_v)
            np.testing.assert_array_equal(mined_t, bf_t)

    def test_grad_matches_finite_differences_hardest(self):
        rng = np.random.default_rng(13)
        for _ in range(10):
            S, M, w = random_instance(rng, b=4)
            comp, dS, mined_v, mined_t = kernels.triplet_terms(S, M, w, False, False)

            def f(flat):
                return loss_at_frozen_selection(
                    flat.reshape(S.shape), list(M), w, mined_v, mined_t
                )

            fd = finite_diff_grad(f, S.ravel(), h=1e-6).reshape(S.shape)
            np.testing.assert_allclose(dS, fd, atol=1e-7)

    def test_grad_matches_finite_differences_mean(self):
        rng = np.random.default_rng(14)
        for _ in range(10):
            S, M, w = random_instance(rng, b=4)
            _, dS, _, _ = kernels.triplet_terms(S, M, w, True, False)

            def f(flat):
                return mean_loss_all_negatives(flat.reshape(S.shape), list(M), w)

            fd = finite_diff_grad(f, S.ravel(), h=1e-6).reshape(S.shape)
            np.testing.assert_allclose(dS, fd, atol=1e-7)

    def test_tie_breaks_to_smallest_index(self):
        # two identical negatives: index 1 must win over index 2
        S = np.array([[0.9, 0.5, 0.5], [0.1, 0.8, 0.1], [0.1, 0.1, 0.8]])
        M = np.full((1, 3, 3), 0.05)
        w = np.ones(1)
        _, _, mined_v, mined_t = kernels.triplet_terms(S, M, w, False, False)
        assert mined_t[0] == 1


class TestCosineBackward:
    def test_matches_finite_differences(self):
        rng = np.random.default_rng(16)
        for _ in range(10):
            X = rng.standard_normal((4, 3))
            Y = rng.standard_normal((4, 3))
            dS = rng.standard_normal((4, 4))
            S = kernels.pairwise_cosine(X, Y)
            dX, dY = kernels.cosine_backward(dS, X, Y, S)

            def f_x(flat):
                Xf = flat.reshape(X.shape)
                return float(np.sum(dS * kernels.pairwise_cosine(Xf, Y)))

            def f_y(flat):
                Yf = flat.reshape(Y.shape)
                return float(np.sum(dS * kernels.pairwise_cosine(X, Yf)))

            fd_x = finite_diff_grad(f_x, X.ravel(), h=1e-6).reshape(X.shape)
            fd_y = finite_diff_grad(f_y, Y.ravel(), h=1e-6).reshape(Y.shape)
            np.testing.assert_allclose(dX, fd_x, atol=1e-6)
            np.testing.assert_allclose(dY, fd_y, atol=1e-6)
