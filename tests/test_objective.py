import dataclasses
from types import SimpleNamespace

import numpy as np
import pytest

from marginforge import kernels
from marginforge.errors import (
    EmptyInputError,
    LambdaOutOfRangeError,
    NonSquareError,
    ShapeMismatchError,
)
from marginforge.margin import expert_margins
from marginforge.mathcore import unit_rows
from marginforge.model import ModelDims, forward_batch, init_params
from marginforge.objective import _margin_levels, _run, full_loss_grad, weighted_experts
from helpers import (
    DenseMargins,
    Delegating,
    finite_diff_grad,
    flatten_grads,
    flatten_params,
    row_sources,
    score,
    set_flat_params,
)
from oracles import brute_force_full_loss, brute_force_similarity, loss_at_frozen_selection


EXPERTS = ("dse_video", "dse_text", "sse_video", "sse_text")


def margin_map(*margins):
    """The margins mapping of all four experts, given in ``EXPERTS`` order."""
    return dict(zip(EXPERTS, margins))


def const_margins(b, value):
    return np.full((b, b), value)


def random_margins(rng, b, mu=0.05, spread=0.08):
    vals = rng.uniform(mu - spread, mu + spread, size=(b, b))
    vals = 0.5 * (vals + vals.T)
    return vals


def random_similarity(rng, b, dim=4):
    V = rng.standard_normal((b, dim))
    T = rng.standard_normal((b, dim))
    return kernels.pairwise_cosine(unit_rows(V, "video")[0], unit_rows(T, "text")[0])


class TestHardTripletLoss:
    def test_diagonal_dominant_is_zero(self):
        S = np.array([[0.9, 0.1, 0.0], [0.0, 0.9, 0.1], [0.1, 0.0, 0.9]])
        assert score(S, {}, 0.05, 0.0).total == 0.0

    def test_b2_enumeration(self):
        S = np.array([[0.9, 0.5], [0.6, 0.8]])
        got = score(S, {}, 0.05, 0.0)
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
            a = score(S, {}, 0.05, 0.0, mining="hardest").total
            b = score(S, {}, 0.05, 0.0, mining="mean").total
            assert a == pytest.approx(b, abs=1e-12)

    def test_matches_brute_force(self):
        rng = np.random.default_rng(43)
        for mining in ("hardest", "mean"):
            for _ in range(20):
                b = int(rng.integers(2, 7))
                S = random_similarity(rng, b)
                alpha = float(rng.uniform(0.0, 0.3))
                got = score(S, {}, alpha, 0.0, mining)
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
        base = score(S, margin_map(mdv, mdt, msv, mst), 0.05, 1.0)
        perturbed = score(
            S, margin_map(mdv, mdt, random_margins(rng, b), random_margins(rng, b)), 0.05, 1.0
        )
        assert base.total == perturbed.total
        assert base.sse_term == 0.0 == perturbed.sse_term
        np.testing.assert_array_equal(base.neg_video_idx, perturbed.neg_video_idx)

    def test_lambda_zero_ignores_dse(self):
        rng = np.random.default_rng(46)
        b = 4
        S = random_similarity(rng, b)
        mdv, mdt, msv, mst = self.margins4(rng, b)
        base = score(S, margin_map(mdv, mdt, msv, mst), 0.05, 0.0)
        perturbed = score(
            S, margin_map(random_margins(rng, b), random_margins(rng, b), msv, mst), 0.05, 0.0
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
                full = score(S, margin_map(m, m, m, m), alpha, lam, mining)
                hard = score(S, {}, alpha, 0.0, mining)
                assert abs(full.total - 3.0 * hard.total) < 1e-9

    @pytest.mark.parametrize("mining", ["hardest", "mean"])
    def test_matches_brute_force(self, mining):
        rng = np.random.default_rng(48)
        for _ in range(25):
            b = int(rng.integers(2, 7))
            S = random_similarity(rng, b)
            mdv, mdt, msv, mst = self.margins4(rng, b)
            alpha = float(rng.uniform(0.0, 0.2))
            lam = float(rng.uniform(0.0, 1.0))
            got = score(S, margin_map(mdv, mdt, msv, mst), alpha, lam, mining)
            mats = [np.full((b, b), alpha), mdv, mdt, msv, mst]
            weights = np.array([1.0, lam, lam, 1.0 - lam, 1.0 - lam])
            total, per_level, bf_v, bf_t = brute_force_full_loss(S, mats, weights, mining)
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

    @pytest.mark.parametrize("mining", ["hardest", "mean"])
    def test_expert_margins_match_brute_force(self, mining):
        rng = np.random.default_rng(50)
        for _ in range(15):
            b = int(rng.integers(2, 13))
            S = random_similarity(rng, b)
            experts = [
                expert_margins(unit_rows(rng.standard_normal((b, 5)), "expert")[0], 0.05, 0.04)
                for _ in EXPERTS
            ]
            alpha = float(rng.uniform(0.0, 0.2))
            lam = float(rng.uniform(0.0, 1.0))
            got = score(S, margin_map(*experts), alpha, lam, mining)
            mats = [np.full((b, b), alpha)] + [m.dense() for m in experts]
            weights = np.array([1.0, lam, lam, 1.0 - lam, 1.0 - lam])
            total, per_level, bf_v, bf_t = brute_force_full_loss(S, mats, weights, mining)
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

    def test_expert_margins_of_another_batch_size_rejected(self):
        rng = np.random.default_rng(51)
        S = random_similarity(rng, 4)
        margins = {"sse_text": expert_margins(unit_rows(rng.standard_normal((5, 3)), "e")[0], 0.05, 0.04)}
        with pytest.raises(ShapeMismatchError, match=r"sse margin shape \(5, 5\) != \(4, 4\)"):
            score(S, margins, 0.05, 0.5)

    def test_single_enabled_expert_doubles(self):
        # one enabled expert per slot carries the slot's full weight
        rng = np.random.default_rng(49)
        b = 4
        S = random_similarity(rng, b)
        m = random_margins(rng, b)
        only_video = score(S, {"dse_video": m}, 0.05, 1.0, "mean")
        both_same = score(S, {"dse_video": m, "dse_text": m}, 0.05, 1.0, "mean")
        assert only_video.total == pytest.approx(both_same.total, abs=1e-12)

    def test_all_disabled_equals_hard(self):
        rng = np.random.default_rng(50)
        S = random_similarity(rng, 5)
        got = score(S, {}, 0.05, 0.5)
        hard = score(S, {}, 0.05, 0.0)
        assert got.total == pytest.approx(hard.total, abs=1e-15)

    def test_mining_dominance(self):
        rng = np.random.default_rng(51)
        for _ in range(20):
            b = int(rng.integers(2, 8))
            S = random_similarity(rng, b)
            mdv, mdt, msv, mst = self.margins4(rng, b)
            hardest = score(S, margin_map(mdv, mdt, msv, mst), 0.05, 0.4, "hardest")
            mean = score(S, margin_map(mdv, mdt, msv, mst), 0.05, 0.4, "mean")
            assert hardest.total >= mean.total - 1e-12

    def test_all_terms_nonnegative(self):
        rng = np.random.default_rng(52)
        for _ in range(20):
            b = int(rng.integers(2, 6))
            S = random_similarity(rng, b)
            mdv, mdt, msv, mst = self.margins4(rng, b)
            got = score(S, margin_map(mdv, mdt, msv, mst), 0.0, 0.3)
            assert got.total >= 0 and got.hard_term >= 0
            assert got.dse_term >= 0 and got.sse_term >= 0
            assert got.total == pytest.approx(
                got.hard_term + got.dse_term + got.sse_term, abs=1e-12
            )

    def test_lambda_out_of_range(self):
        S = np.eye(2)
        with pytest.raises(LambdaOutOfRangeError):
            score(S, {}, 0.05, 1.5)

    def test_unknown_expert_kind_rejected(self):
        # a misspelt kind must not silently disable its expert
        rng = np.random.default_rng(56)
        S = random_similarity(rng, 3)
        with pytest.raises(ValueError, match="dse_vidoe"):
            score(S, {"dse_vidoe": random_margins(rng, 3)}, 0.05, 0.5)

    def test_unit_row_source_is_checked_like_an_array(self):
        rng = np.random.default_rng(57)
        U = unit_rows(rng.standard_normal((4, 5)), "video")[0]
        V = unit_rows(rng.standard_normal((4, 5)), "text")[0]
        with pytest.raises(NonSquareError):
            _run(U[:3], V, {}, 0.05, 0.5, "hardest")
        with pytest.raises(EmptyInputError):
            _run(U[:1], V[:1], {}, 0.05, 0.5, "hardest")
        margins = margin_map(*row_sources(random_margins(rng, 4) for _ in EXPERTS))
        for mining in ("hardest", "mean"):
            got, _ = _run(U, V, margins, 0.05, 0.5, mining)
            want = score(U @ V.T, margins, 0.05, 0.5, mining)
            assert got.total == pytest.approx(want.total, rel=1e-14)
            np.testing.assert_array_equal(got.neg_video_idx, want.neg_video_idx)
            np.testing.assert_array_equal(got.neg_text_idx, want.neg_text_idx)


def same_bits(a, b) -> bool:
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


class TestZeroWeightSlot:
    """A slot of weight exactly 0 is dropped from the levels: its experts'
    margins are still checked, and leaving them out changes no bit."""

    DSE, SSE = ("dse_video", "dse_text"), ("sse_video", "sse_text")

    # 128: one row block, pruned mining; 200 > 181: two row blocks
    @pytest.mark.parametrize("b", [16, 128, 200])
    @pytest.mark.parametrize("mining", ["hardest", "mean"])
    @pytest.mark.parametrize(
        "lam, dead, live",
        [
            (0.0, DSE, SSE),
            (0.0, DSE, ("sse_text",)),
            (0.0, ("dse_text",), ("sse_video",)),
            (1.0, SSE, DSE),
            (1.0, SSE, ("dse_video",)),
            (1.0, ("sse_video",), ("dse_text",)),
        ],
    )
    def test_leaving_out_the_zero_weight_slot_is_exact(self, b, mining, lam, dead, live):
        rng = np.random.default_rng(58)
        model = init_params(ModelDims(6, 5, 0, 4), 9)
        state = forward_batch(model, rng.standard_normal((b, 6)), rng.standard_normal((b, 5)))
        margins = {
            kind: expert_margins(unit_rows(rng.standard_normal((b, 3)), kind)[0], 0.05, 0.04)
            for kind in dead + live
        }
        full, full_grads = full_loss_grad(model, state, margins, 0.05, lam, mining)
        kept = {kind: margins[kind] for kind in live}
        alone, alone_grads = full_loss_grad(model, state, kept, 0.05, lam, mining)
        for field in dataclasses.fields(full):
            name = field.name
            assert same_bits(getattr(full, name), getattr(alone, name)), name
        assert full.total > full.hard_term  # the live slot reaches the loss
        assert sorted(full_grads) == sorted(alone_grads)
        for name, g in full_grads.items():
            assert same_bits(g, alone_grads[name]), name

    @pytest.mark.parametrize("lam, live", [(0.0, SSE), (1.0, DSE), (0.5, DSE + SSE)])
    def test_only_weighted_slots_are_levels(self, lam, live):
        rng = np.random.default_rng(61)
        margins = {kind: DenseMargins(random_margins(rng, 4)) for kind in EXPERTS}
        levels, weights, slots = _margin_levels(4, margins, 0.05, lam)
        assert len(levels) == len(weights) == 1 + len(live)
        assert 0.0 not in weights
        assert {slot for slot, span in slots.items() if len(span)} == {k[:3] for k in live}
        assert weighted_experts(EXPERTS, lam) == [k for k in EXPERTS if k in live]

    @pytest.mark.parametrize("lam, kind", [(0.0, "dse_text"), (1.0, "sse_video")])
    def test_misshaped_margin_in_zero_weight_slot_rejected(self, lam, kind):
        rng = np.random.default_rng(59)
        S = random_similarity(rng, 4)
        margins = {"dse_video": random_margins(rng, 4), "sse_text": random_margins(rng, 4)}
        margins[kind] = random_margins(rng, 5)
        with pytest.raises(ShapeMismatchError, match=rf"{kind[:3]} margin shape \(5, 5\)"):
            score(S, margins, 0.05, lam)

    @pytest.mark.parametrize("lam, kind", [(0.0, "dse_vidoe"), (1.0, "sse_txt")])
    def test_unknown_kind_rejected_whatever_lambda(self, lam, kind):
        rng = np.random.default_rng(60)
        S = random_similarity(rng, 4)
        margins = {"dse_video": random_margins(rng, 4), kind: random_margins(rng, 4)}
        with pytest.raises(ValueError, match=kind):
            score(S, margins, 0.05, lam)


class TestMarginLevelContract:
    """A margin level is a float or any row source: a study's own map reaches
    the loss as ``ExpertMargins`` does, and anything else is rejected."""

    # 128: one row block, pruned mining; 200: two row blocks, pruned mining
    @pytest.mark.parametrize("b", [16, 128, 200])
    @pytest.mark.parametrize("mining", ["hardest", "mean"])
    @pytest.mark.parametrize("lam", [0.0, 0.3, 1.0])
    def test_study_row_source_gives_the_expert_margins_bits(self, b, mining, lam):
        rng = np.random.default_rng(62)
        U = unit_rows(rng.standard_normal((b, 6)), "video")[0]
        V = unit_rows(rng.standard_normal((b, 6)), "text")[0]
        experts = margin_map(*(
            expert_margins(unit_rows(rng.standard_normal((b, 3)), kind)[0], 0.05, 0.04)
            for kind in EXPERTS
        ))
        study = {kind: Delegating(m) for kind, m in experts.items()}
        want, want_dS = _run(U, V, experts, 0.05, lam, mining)
        got, got_dS = _run(U, V, study, 0.05, lam, mining)
        for field in dataclasses.fields(want):
            assert same_bits(getattr(got, field.name), getattr(want, field.name)), field.name
        for name in type(want_dS).__slots__:
            assert same_bits(getattr(got_dS, name), getattr(want_dS, name)), name
        assert {kind for kind, m in study.items() if m.calls} == set(weighted_experts(EXPERTS, lam))

    @pytest.mark.parametrize("form", ["array", "nested list"])
    @pytest.mark.parametrize(
        "lam, kind", [(0.5, "dse_video"), (0.5, "sse_text"), (0.0, "dse_text"), (1.0, "sse_video")]
    )
    def test_margins_that_are_not_a_row_source_rejected(self, form, lam, kind):
        # also in a slot of weight 0, which would be dropped from the levels
        rng = np.random.default_rng(63)
        m = random_margins(rng, 4)
        margins = {"dse_video": DenseMargins(m), "sse_text": DenseMargins(m)}
        margins[kind] = m if form == "array" else m.tolist()
        with pytest.raises(TypeError, match=rf"{kind} margins must be a row source"):
            _margin_levels(4, margins, 0.05, lam)

    @pytest.mark.parametrize("missing", ["shape", "products", "scale", "offset", "bound"])
    def test_row_source_missing_a_member_rejected(self, missing):
        # products, map and bound are one contract: a level without any one
        # of them would reach the loss with its margins half stated
        m = DenseMargins(random_margins(np.random.default_rng(64), 4))
        names = ["shape", "products", "scale", "offset", "bound"]
        partial = SimpleNamespace(**{name: getattr(m, name) for name in names if name != missing})
        with pytest.raises(TypeError, match="dse_video margins must be a row source"):
            _margin_levels(4, {"dse_video": partial}, 0.05, 0.5)


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
        neg = np.full((b, b), -10.0)
        breakdown, grads = full_loss_grad(
            model, state, margin_map(*row_sources([neg, neg, neg, neg])), -10.0, 0.5
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
        margins = mats[1:]
        breakdown, grads = full_loss_grad(
            model, state, margin_map(*row_sources(margins)), 0.05, lam
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
            0.5 * (m + m.T)
            for m in rng.uniform(0.0, 0.1, size=(4, b, b))
        ]

        def grad_at(lam):
            _, grads = full_loss_grad(model, state, margin_map(*row_sources(margins)), 0.05, lam, "mean")
            return flatten_grads(model, grads)

        g0, g_half, g1 = grad_at(0.0), grad_at(0.5), grad_at(1.0)
        np.testing.assert_allclose(g_half, 0.5 * (g0 + g1), atol=1e-12)
