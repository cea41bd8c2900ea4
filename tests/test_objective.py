import numpy as np
import pytest

from marginforge.errors import (
    LambdaOutOfRangeError,
    ShapeMismatchError,
    ZeroNormError,
)
from marginforge.margin import MarginMatrix
from marginforge.mathcore import finite_diff_grad
from marginforge.model import ModelDims, flatten_grads, forward_batch, init_params, set_flat_params, flatten_params
from marginforge.objective import (
    full_loss,
    full_loss_grad,
    hard_triplet_loss,
    similarity_matrix,
)
from oracles import brute_force_full_loss, brute_force_similarity, loss_at_frozen_selection


def const_margins(b, value):
    return MarginMatrix(np.full((b, b), value), value, 0.0)


def random_margins(rng, b, mu=0.05, spread=0.08):
    vals = rng.uniform(mu - spread, mu + spread, size=(b, b))
    vals = 0.5 * (vals + vals.T)
    return MarginMatrix(vals, mu, 0.04)


def random_similarity(rng, b, dim=4):
    V = rng.standard_normal((b, dim))
    T = rng.standard_normal((b, dim))
    return similarity_matrix(V, T)


class TestSimilarityMatrix:
    def test_aligned_identical_reprs_unit_diagonal(self):
        rng = np.random.default_rng(40)
        X = rng.standard_normal((4, 3))
        S = similarity_matrix(X, X.copy())
        np.testing.assert_allclose(np.diag(S), 1.0, atol=1e-12)

    def test_orthonormal_basis_gives_identity(self):
        S = similarity_matrix(np.eye(3), np.eye(3))
        np.testing.assert_allclose(S, np.eye(3), atol=1e-12)

    def test_matches_elementwise_oracle(self):
        rng = np.random.default_rng(41)
        V = rng.standard_normal((3, 4))
        T = rng.standard_normal((3, 4))
        np.testing.assert_allclose(
            similarity_matrix(V, T), brute_force_similarity(V, T), atol=1e-12
        )

    def test_batch_size_mismatch(self):
        with pytest.raises(ShapeMismatchError):
            similarity_matrix(np.eye(3), np.eye(2))

    def test_zero_norm(self):
        for bad_row in ([0.0, 0.0], [np.nan, 1.0], [np.inf, 1.0]):
            bad = np.array([[1.0, 0.0], bad_row])
            with pytest.raises(ZeroNormError):
                similarity_matrix(bad, np.eye(2))
            with pytest.raises(ZeroNormError):
                similarity_matrix(np.eye(2), bad)


class TestHardTripletLoss:
    def test_diagonal_dominant_is_zero(self):
        S = np.array([[0.9, 0.1, 0.0], [0.0, 0.9, 0.1], [0.1, 0.0, 0.9]])
        assert hard_triplet_loss(S, alpha=0.05).total == 0.0

    def test_b2_enumeration(self):
        S = np.array([[0.9, 0.5], [0.6, 0.8]])
        got = hard_triplet_loss(S, alpha=0.05)
        # all four hinges by hand
        expected = (
            max(0.0, S[1, 0] - S[0, 0] + 0.05)
            + max(0.0, S[0, 1] - S[0, 0] + 0.05)
            + max(0.0, S[0, 1] - S[1, 1] + 0.05)
            + max(0.0, S[1, 0] - S[1, 1] + 0.05)
        ) / 2.0
        assert got.total == pytest.approx(expected, abs=1e-12)

    def test_b2_mean_equals_hardest(self):
        rng = np.random.default_rng(42)
        for _ in range(10):
            S = random_similarity(rng, 2)
            a = hard_triplet_loss(S, 0.05, mining="hardest").total
            b = hard_triplet_loss(S, 0.05, mining="mean").total
            assert a == pytest.approx(b, abs=1e-12)

    def test_matches_brute_force(self):
        rng = np.random.default_rng(43)
        for mining in ("hardest", "mean"):
            for _ in range(20):
                b = int(rng.integers(2, 7))
                S = random_similarity(rng, b)
                alpha = float(rng.uniform(0.0, 0.3))
                got = hard_triplet_loss(S, alpha, mining)
                total, _, _, _ = brute_force_full_loss(
                    S, [np.full((b, b), alpha)], np.ones(1), mining
                )
                assert got.total == pytest.approx(total, abs=1e-12)
                assert got.hard_term == pytest.approx(total, abs=1e-12)
                assert got.dse_term == 0.0 and got.sse_term == 0.0


class TestFullLoss:
    def margins4(self, rng, b):
        return [random_margins(rng, b) for _ in range(4)]

    def test_lambda_one_ignores_sse(self):
        rng = np.random.default_rng(45)
        b = 4
        S = random_similarity(rng, b)
        mdv, mdt, msv, mst = self.margins4(rng, b)
        base = full_loss(S, mdv, mdt, msv, mst, 0.05, 1.0)
        perturbed = full_loss(
            S, mdv, mdt, random_margins(rng, b), random_margins(rng, b), 0.05, 1.0
        )
        assert base.total == perturbed.total
        assert base.sse_term == 0.0 == perturbed.sse_term
        np.testing.assert_array_equal(base.neg_video_idx, perturbed.neg_video_idx)

    def test_lambda_zero_ignores_dse(self):
        rng = np.random.default_rng(46)
        b = 4
        S = random_similarity(rng, b)
        mdv, mdt, msv, mst = self.margins4(rng, b)
        base = full_loss(S, mdv, mdt, msv, mst, 0.05, 0.0)
        perturbed = full_loss(
            S, random_margins(rng, b), random_margins(rng, b), msv, mst, 0.05, 0.0
        )
        assert base.total == perturbed.total
        assert base.dse_term == 0.0 == perturbed.dse_term
        np.testing.assert_array_equal(base.neg_text_idx, perturbed.neg_text_idx)

    def test_constant_margins_collapse_to_triple_hard(self):
        rng = np.random.default_rng(47)
        for _ in range(20):
            b = int(rng.integers(2, 7))
            S = random_similarity(rng, b)
            alpha = float(rng.uniform(0.0, 0.2))
            lam = float(rng.uniform(0.0, 1.0))
            m = const_margins(b, alpha)
            for mining in ("hardest", "mean"):
                full = full_loss(S, m, m, m, m, alpha, lam, mining)
                hard = hard_triplet_loss(S, alpha, mining)
                assert abs(full.total - 3.0 * hard.total) < 1e-9

    @pytest.mark.parametrize("mining", ["hardest", "mean"])
    @pytest.mark.parametrize("criterion", ["combined", "hard_only"])
    def test_matches_brute_force(self, mining, criterion):
        rng = np.random.default_rng(48)
        for _ in range(25):
            b = int(rng.integers(2, 7))
            S = random_similarity(rng, b)
            mdv, mdt, msv, mst = self.margins4(rng, b)
            alpha = float(rng.uniform(0.0, 0.2))
            lam = float(rng.uniform(0.0, 1.0))
            got = full_loss(S, mdv, mdt, msv, mst, alpha, lam, mining, criterion)
            mats = [np.full((b, b), alpha), mdv.values, mdt.values, msv.values, mst.values]
            weights = np.array([1.0, lam, lam, 1.0 - lam, 1.0 - lam])
            total, per_level, bf_v, bf_t = brute_force_full_loss(
                S, mats, weights, mining, criterion == "hard_only"
            )
            assert got.total == pytest.approx(total, abs=1e-12)
            assert got.hard_term == pytest.approx(per_level[0], abs=1e-12)
            assert got.dse_term == pytest.approx(
                lam * (per_level[1] + per_level[2]), abs=1e-12
            )
            assert got.sse_term == pytest.approx(
                (1 - lam) * (per_level[3] + per_level[4]), abs=1e-12
            )
            np.testing.assert_array_equal(got.neg_video_idx, bf_v)
            np.testing.assert_array_equal(got.neg_text_idx, bf_t)

    def test_single_enabled_expert_doubles(self):
        # one enabled expert per slot carries the slot's full weight
        rng = np.random.default_rng(49)
        b = 4
        S = random_similarity(rng, b)
        m = random_margins(rng, b)
        only_video = full_loss(S, m, None, None, None, 0.05, 1.0, "mean")
        both_same = full_loss(S, m, m, None, None, 0.05, 1.0, "mean")
        assert only_video.total == pytest.approx(both_same.total, abs=1e-12)

    def test_all_disabled_equals_hard(self):
        rng = np.random.default_rng(50)
        S = random_similarity(rng, 5)
        got = full_loss(S, None, None, None, None, 0.05, 0.5)
        hard = hard_triplet_loss(S, 0.05)
        assert got.total == pytest.approx(hard.total, abs=1e-15)

    def test_mining_dominance(self):
        rng = np.random.default_rng(51)
        for _ in range(20):
            b = int(rng.integers(2, 8))
            S = random_similarity(rng, b)
            mdv, mdt, msv, mst = self.margins4(rng, b)
            hardest = full_loss(S, mdv, mdt, msv, mst, 0.05, 0.4, "hardest")
            mean = full_loss(S, mdv, mdt, msv, mst, 0.05, 0.4, "mean")
            assert hardest.total >= mean.total - 1e-12

    def test_all_terms_nonnegative(self):
        rng = np.random.default_rng(52)
        for _ in range(20):
            b = int(rng.integers(2, 6))
            S = random_similarity(rng, b)
            mdv, mdt, msv, mst = self.margins4(rng, b)
            got = full_loss(S, mdv, mdt, msv, mst, 0.0, 0.3)
            assert got.total >= 0 and got.hard_term >= 0
            assert got.dse_term >= 0 and got.sse_term >= 0
            assert got.total == pytest.approx(
                got.hard_term + got.dse_term + got.sse_term, abs=1e-12
            )

    def test_lambda_out_of_range(self):
        S = np.eye(2)
        with pytest.raises(LambdaOutOfRangeError):
            full_loss(S, None, None, None, None, 0.05, 1.5)


class TestFullLossGrad:
    def build(self, rng, b=3, hidden=0, dims=(4, 3, 5)):
        video_in, text_in, joint = dims
        model = init_params(ModelDims(video_in, text_in, hidden, joint), int(rng.integers(1e6)))
        pooled = rng.standard_normal((b, video_in))
        text = rng.standard_normal((b, text_in))
        return model, pooled, text

    def test_zero_loss_zero_grad(self):
        rng = np.random.default_rng(53)
        model, pooled, text = self.build(rng)
        state = forward_batch(model, pooled, text)
        b = 3
        neg = MarginMatrix(np.full((b, b), -10.0), -10.0, 0.0)
        breakdown, grads = full_loss_grad(
            model, state, neg, neg, neg, neg, -10.0, 0.5
        )
        assert breakdown.total == 0.0
        for _, g in sorted(grads.items()):
            np.testing.assert_array_equal(g, 0.0)

    @pytest.mark.parametrize("hidden", [0, 4])
    @pytest.mark.parametrize("lam", [0.0, 0.5, 1.0])
    def test_matches_finite_differences(self, hidden, lam):
        rng = np.random.default_rng(54)
        model, pooled, text = self.build(rng, b=4, hidden=hidden)
        state = forward_batch(model, pooled, text)
        b = 4
        mats = [np.full((b, b), 0.05)] + [
            0.5 * (m + m.T)
            for m in (rng.uniform(-0.05, 0.15, size=(4, b, b)))
        ]
        weights = np.array([1.0, lam, lam, 1.0 - lam, 1.0 - lam])
        margins = [MarginMatrix(m, 0.05, 0.04) for m in mats[1:]]
        breakdown, grads = full_loss_grad(
            model, state, margins[0], margins[1], margins[2], margins[3], 0.05, lam
        )
        mined_v, mined_t = breakdown.neg_video_idx, breakdown.neg_text_idx

        theta0 = flatten_params(model)

        def f(theta):
            set_flat_params(model, theta)
            st = forward_batch(model, pooled, text)
            S = brute_force_similarity(st.video_reprs, st.text_reprs)
            return loss_at_frozen_selection(S, mats, weights, mined_v, mined_t)

        fd = finite_diff_grad(f, theta0, h=1e-6)
        set_flat_params(model, theta0)
        analytic = flatten_grads(model, grads)
        denom = max(np.linalg.norm(fd), np.linalg.norm(analytic), 1e-12)
        assert np.linalg.norm(analytic - fd) / denom < 1e-4

    def test_grad_affine_in_lambda(self):
        rng = np.random.default_rng(55)
        model, pooled, text = self.build(rng, b=3)
        state = forward_batch(model, pooled, text)
        b = 3
        margins = [
            MarginMatrix(0.5 * (m + m.T), 0.05, 0.04)
            for m in rng.uniform(0.0, 0.1, size=(4, b, b))
        ]

        def grad_at(lam):
            _, grads = full_loss_grad(model, state, *margins, 0.05, lam, "mean")
            return flatten_grads(model, grads)

        g0, g_half, g1 = grad_at(0.0), grad_at(0.5), grad_at(1.0)
        np.testing.assert_allclose(g_half, 0.5 * (g0 + g1), atol=1e-12)
