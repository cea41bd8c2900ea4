import tracemalloc

import numpy as np
import pytest

from marginforge import kernels
from marginforge.margin import expert_margins
from marginforge.mathcore import cosine_similarity, unit_rows
from helpers import finite_diff_grad
from oracles import brute_force_full_loss, loss_at_frozen_selection, mean_loss_all_negatives


def random_instance(rng, b=5, dim=4, levels=3):
    V = rng.standard_normal((b, dim))
    T = rng.standard_normal((b, dim))
    S = kernels.pairwise_cosine(unit_rows(V, "video")[0], unit_rows(T, "text")[0])
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
        S = kernels.pairwise_cosine(unit_rows(X, "X")[0], unit_rows(Y, "Y")[0])
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

    @pytest.mark.parametrize("mining", ["hardest", "mean"])
    @pytest.mark.parametrize("hard_only", [False, True])
    @pytest.mark.parametrize("b", [9, 17, 33])
    def test_level_list_past_summation_blocks(self, mining, hard_only, b):
        # a scalar level 0 plus B x B levels, at sizes where numpy's sums
        # switch to unrolled and blocked pairwise summation
        rng = np.random.default_rng(100 + b)
        for _ in range(3):
            S, M, w = random_instance(rng, b=b, levels=5)
            levels = [0.05] + list(M[1:])
            comp, dS, mined_v, mined_t = kernels.triplet_terms(
                S, levels, w, mining == "mean", hard_only
            )
            total, per_level, bf_v, bf_t = brute_force_full_loss(
                S, list(M), w, mining, hard_only
            )
            np.testing.assert_allclose(comp, per_level, rtol=1e-12, atol=1e-12)
            assert float(np.dot(w, comp)) == pytest.approx(total, abs=1e-12)
            np.testing.assert_array_equal(mined_v, bf_v)
            np.testing.assert_array_equal(mined_t, bf_t)
            if b == 9:
                if mining == "mean":
                    def f(flat):
                        return mean_loss_all_negatives(flat.reshape(S.shape), list(M), w)
                else:
                    def f(flat):
                        return loss_at_frozen_selection(
                            flat.reshape(S.shape), list(M), w, mined_v, mined_t
                        )

                fd = finite_diff_grad(f, S.ravel(), h=1e-6).reshape(S.shape)
                np.testing.assert_allclose(dS, fd, atol=1e-7)

    @pytest.mark.parametrize("mean_mining", [False, True])
    def test_peak_memory_is_a_few_batch_matrices(self, mean_mining):
        b, levels = 256, 5
        rng = np.random.default_rng(17)
        S, M, w = random_instance(rng, b=b, levels=levels)
        margins = [0.05] + list(M[1:])
        tracemalloc.start()
        try:
            kernels.triplet_terms(S, margins, w, mean_mining, False)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 8 * b * b * 8

    @pytest.mark.parametrize("mining", ["hardest", "mean"])
    @pytest.mark.parametrize("hard_only", [False, True])
    @pytest.mark.parametrize("b", [9, 17])
    @pytest.mark.parametrize("block_values", [16, 36, 64])
    def test_row_blocks(self, monkeypatch, mining, hard_only, b, block_values):
        # R = block_values // b rows per block: one row per block, then
        # several rows with a ragged last block (9 = 4+4+1, 17 = 2*8+1, ...)
        rng = np.random.default_rng(200 + b)
        S, M, w = random_instance(rng, b=b, levels=5)
        levels = [0.05] + list(M[1:])
        whole = kernels.triplet_terms(S, levels, w, mining == "mean", hard_only)
        monkeypatch.setattr(kernels, "BLOCK_VALUES", block_values)
        comp, dS, mined_v, mined_t = kernels.triplet_terms(
            S, levels, w, mining == "mean", hard_only
        )
        total, per_level, bf_v, bf_t = brute_force_full_loss(S, list(M), w, mining, hard_only)
        np.testing.assert_allclose(comp, per_level, rtol=1e-12, atol=1e-12)
        assert float(np.dot(w, comp)) == pytest.approx(total, abs=1e-12)
        np.testing.assert_array_equal(mined_v, bf_v)
        np.testing.assert_array_equal(mined_t, bf_t)
        # dS along one random direction, against the oracle's central difference
        if mining == "mean":
            def f(X):
                return mean_loss_all_negatives(X, list(M), w)
        else:
            def f(X):
                return loss_at_frozen_selection(X, list(M), w, mined_v, mined_t)

        E = rng.standard_normal(S.shape)
        h = 1e-6
        fd = (f(S + h * E) - f(S - h * E)) / (2.0 * h)
        assert float(np.sum(dS * E)) == pytest.approx(fd, abs=1e-7)
        # only mean mining's level totals are summed per block
        if mining == "hardest":
            np.testing.assert_array_equal(comp, whole[0])
        for blocked, one_block in zip((dS, mined_v, mined_t), whole[1:]):
            np.testing.assert_array_equal(blocked, one_block)

    @pytest.mark.parametrize("mean_mining", [False, True])
    def test_peak_memory_is_ds_plus_row_blocks(self, mean_mining):
        b, levels = 1024, 5
        rng = np.random.default_rng(18)
        S, M, w = random_instance(rng, b=b, levels=levels)
        margins = [0.05] + list(M[1:])
        tracemalloc.start()
        try:
            kernels.triplet_terms(S, margins, w, mean_mining, False)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2 * b * b * 8

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


class TestMarginRowSources:
    # B = 181 is the largest one-block batch, 182 the smallest two-block one;
    # 205 and 410 give blocks of 159 and 79 rows, not multiples of BLAS tiles
    @pytest.mark.parametrize("b", [2, 3, 26, 64, 181, 182, 205, 410, 1024])
    @pytest.mark.parametrize("ties", [False, True])
    def test_expert_margins_match_their_dense_arrays(self, b, ties):
        rng = np.random.default_rng(300 + b + 7 * ties)
        S = kernels.pairwise_cosine(
            unit_rows(rng.standard_normal((b, 16)), "video")[0],
            unit_rows(rng.standard_normal((b, 16)), "text")[0],
        )
        if ties:
            S = np.round(S * 4.0) / 4.0
        experts = [
            expert_margins(unit_rows(rng.standard_normal((b, dim)), "expert")[0], 0.05, 0.04)
            for dim in (16, 16, 24, 20)
        ]
        dense = [m.dense() for m in experts]
        w = np.array([1.0, 0.3, 0.3, 0.7, 0.7])
        for mean_mining in (False, True):
            for hard_only in (False, True):
                blocked = kernels.triplet_terms(S, [0.05, *experts], w, mean_mining, hard_only)
                whole = kernels.triplet_terms(S, [0.05, *dense], w, mean_mining, hard_only)
                for got, want in zip(blocked, whole):
                    assert np.array_equal(got, want)


class TestCosineBackward:
    def test_matches_finite_differences(self):
        rng = np.random.default_rng(16)
        for _ in range(10):
            X = rng.standard_normal((4, 3))
            Y = rng.standard_normal((4, 3))
            dS = rng.standard_normal((4, 4))
            U, xn = unit_rows(X, "X")
            V, yn = unit_rows(Y, "Y")
            S = kernels.pairwise_cosine(U, V)
            dX, dY = kernels.cosine_backward(dS, U, V, xn, yn, S)

            def f_x(flat):
                Xf = flat.reshape(X.shape)
                return float(np.sum(dS * kernels.pairwise_cosine(unit_rows(Xf, "X")[0], V)))

            def f_y(flat):
                Yf = flat.reshape(Y.shape)
                return float(np.sum(dS * kernels.pairwise_cosine(U, unit_rows(Yf, "Y")[0])))

            fd_x = finite_diff_grad(f_x, X.ravel(), h=1e-6).reshape(X.shape)
            fd_y = finite_diff_grad(f_y, Y.ravel(), h=1e-6).reshape(Y.shape)
            np.testing.assert_allclose(dX, fd_x, atol=1e-6)
            np.testing.assert_allclose(dY, fd_y, atol=1e-6)
