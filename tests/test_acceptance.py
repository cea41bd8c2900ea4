"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s``. The behavioral criteria
(5, 6, 9) use fixed seeds 1..5 and the desk-scale benchmark configuration
described in the README; criterion 10 holds out seeds 6..15.
"""

import math
import time

import numpy as np
import pytest
from scipy.special import ndtr

from marginforge import kernels
from marginforge.cli import main
from marginforge.data import SynthConfig, generate
from marginforge.errors import MarginForgeError
from marginforge.evaluation import evaluate_bidirectional, median_rank, recall_at_k
from marginforge.margin import affine, beta_to_variance, expert_margins
from marginforge.mathcore import unit_rows
from marginforge.model import ModelDims, forward_batch, init_params
from marginforge.objective import full_loss_grad
from marginforge.trainer import (
    TrainConfig,
    epoch_batches,
    expert_units,
    new_adam_state,
    run_training,
    train_epoch,
    train_inputs,
)
from helpers import (
    dense_rows,
    finite_diff_grad,
    flatten_grads,
    flatten_params,
    rank_of_positive,
    row_sources,
    score,
    set_flat_params,
)
from oracles import brute_force_similarity, loss_at_frozen_selection, rank_by_stable_sort

SEEDS = (1, 2, 3, 4, 5)

# Benchmark regime for criteria 5 and 6: planted duplicate groups in a
# low-dimensional latent space, where semantically equivalent and related
# negatives are frequent enough for margin supervision to matter.
BENCH_DATA = dict(
    n_items=512,
    n_concepts=320,  # 256 singletons + 64 duplicate groups of 4
    duplicate_rate=0.5,
    latent_dim=2,
    video_dim=24,
    text_dim=20,
    frames_per_video=4,
    noise_video=0.2,
    noise_text=0.2,
)
BENCH_TRAIN = dict(epochs=60, batch_size=64, learning_rate=3e-4, alpha=0.05, beta=0.04)


def test_c1_confidence_interval_property():
    start = time.perf_counter()
    var = beta_to_variance(0.05)
    sigma = math.sqrt(var)
    analytic_gap = abs(ndtr(0.05 / sigma) - ndtr(-0.05 / sigma) - 0.90)
    assert analytic_gap < 1e-8

    # 317 * 316 = 100,172 off-diagonal synthetic Gaussian distances
    b = 317
    rng = np.random.default_rng(0)
    raw = rng.normal(0.7, 0.25, size=(b, b))
    d = 0.5 * (raw + raw.T)
    np.fill_diagonal(d, 0.0)
    dist = d[~np.eye(b, dtype=bool)]
    scale, offset = affine(dist.mean(), dist.var(), 0.05, 0.05)
    off = scale * dist + offset
    assert off.size >= 100_000
    frac = float(np.mean((off >= 0.0) & (off <= 0.1)))
    elapsed = time.perf_counter() - start
    assert abs(frac - 0.90) <= 0.01
    assert elapsed < 1.0
    print(
        f"\nCRITERION 1 PASS: 90% interval fraction {frac:.4f} (target 0.90 +- 0.01), "
        f"analytic gap {analytic_gap:.2e}, {elapsed * 1000:.0f} ms"
    )


def test_c2_rescale_exactness_and_monotonicity():
    rng = np.random.default_rng(2)
    mu, beta = 0.05, 0.04
    target_var = beta_to_variance(0.04)
    worst_mean, worst_var = 0.0, 0.0
    for trial in range(100):
        b = int(rng.choice([4, 8, 16]))
        U = unit_rows(rng.standard_normal((b, 6)), "dse_video")[0]
        d = 1.0 - kernels.pairwise_cosine(U, U)
        m = expert_margins(U, mu, beta).dense()
        off = ~np.eye(b, dtype=bool)
        mean, var = m[off].mean(), m[off].var()
        worst_mean = max(worst_mean, abs(mean - 0.05))
        worst_var = max(worst_var, abs(var - target_var))
        assert abs(mean - 0.05) < 1e-9
        assert abs(var - target_var) < 1e-9
        dv, mv = d[off], m[off]
        order = np.argsort(dv, kind="stable")
        ds_, ms_ = dv[order], mv[order]
        for k in range(len(ds_) - 1):
            if ds_[k + 1] > ds_[k]:
                assert ms_[k + 1] > ms_[k]
    print(
        f"\nCRITERION 2 PASS: 100 batches, |mean err| <= {worst_mean:.1e}, "
        f"|var err| <= {worst_var:.1e}, monotone on every batch"
    )


def test_c3_beta_zero_collapse():
    rng = np.random.default_rng(3)
    worst = 0.0
    for trial in range(100):
        b = int(rng.integers(2, 9))
        V = unit_rows(rng.standard_normal((b, 5)), "video")[0]
        S = kernels.pairwise_cosine(V, unit_rows(rng.standard_normal((b, 5)), "text")[0])
        alpha = float(rng.uniform(0.0, 0.2))
        lam = float(rng.uniform(0.0, 1.0))
        mining = "hardest" if trial % 2 == 0 else "mean"
        m = np.full((b, b), alpha)
        margins = {"dse_video": m, "dse_text": m, "sse_video": m, "sse_text": m}
        full = score(S, margins, alpha, lam, mining)
        hard = score(S, {}, alpha, 0.0, mining)
        gap = abs(full.total - 3.0 * hard.total)
        worst = max(worst, gap)
        assert gap < 1e-6
    print(f"\nCRITERION 3 PASS: 100 instances, max |full - 3*hard| = {worst:.2e}")


def test_c4_gradient_correctness_matrix():
    start = time.perf_counter()
    rng = np.random.default_rng(4)
    worst = 0.0
    n_checked = 0
    for hidden in (0, 6):
        for lam in (0.0, 0.5, 1.0):
            for mining in ("hardest", "mean"):
                b = 4
                model = init_params(ModelDims(8, 7, hidden, 5), int(rng.integers(1e6)))
                pooled = rng.standard_normal((b, 8))
                text = rng.standard_normal((b, 7))
                state = forward_batch(model, pooled, text)
                mats = [np.full((b, b), 0.05)]
                for raw in rng.uniform(-0.05, 0.15, size=(4, b, b)):
                    mats.append(0.5 * (raw + raw.T))
                weights = np.array([1.0, lam, lam, 1.0 - lam, 1.0 - lam])
                margins = dict(
                    zip(("dse_video", "dse_text", "sse_video", "sse_text"), row_sources(mats[1:]))
                )
                breakdown, grads = full_loss_grad(
                    model, state, margins, 0.05, lam, mining
                )
                if mining == "mean":
                    # frozen-selection oracle needs per-pair terms; replicate
                    # the mean by enumerating every negative as a selection
                    from oracles import mean_loss_all_negatives

                    def f(theta):
                        set_flat_params(model, theta)
                        st = forward_batch(model, pooled, text)
                        S = brute_force_similarity(st.video_reprs, st.text_reprs)
                        return mean_loss_all_negatives(S, mats, weights)

                else:
                    mined_v = breakdown.neg_video_idx
                    mined_t = breakdown.neg_text_idx

                    def f(theta):
                        set_flat_params(model, theta)
                        st = forward_batch(model, pooled, text)
                        S = brute_force_similarity(st.video_reprs, st.text_reprs)
                        return loss_at_frozen_selection(S, mats, weights, mined_v, mined_t)

                theta0 = flatten_params(model).copy()
                fd = finite_diff_grad(f, theta0, h=1e-6)
                set_flat_params(model, theta0)
                analytic = flatten_grads(model, grads)
                denom = max(np.linalg.norm(fd), np.linalg.norm(analytic), 1e-12)
                rel = np.linalg.norm(analytic - fd) / denom
                worst = max(worst, rel)
                n_checked += 1
                assert rel < 1e-4
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0
    print(
        f"\nCRITERION 4 PASS: {n_checked} configs (hidden x lambda x mining), "
        f"max rel err {worst:.2e}, {elapsed:.1f} s"
    )


def _margin_split(ds, model, cfg, expert_kinds):
    """Mean adaptive margin over same-concept vs cross-concept negative pairs,
    aggregated over the epoch-1 batch partition."""
    inputs = train_inputs(ds, expert_kinds)
    same_vals = {k: [] for k in expert_kinds}
    cross_vals = {k: [] for k in expert_kinds}
    for batch in epoch_batches(cfg.seed, len(inputs.rows), cfg.batch_size, 1):
        state = forward_batch(model, inputs.pooled[batch], inputs.text[batch])
        units = expert_units(state, inputs.sse_units, batch)
        concepts = ds.concepts[inputs.rows[batch]]
        same = (concepts[:, None] == concepts[None, :]) & ~np.eye(batch.size, dtype=bool)
        cross = concepts[:, None] != concepts[None, :]
        for kind in expert_kinds:
            margins = expert_margins(units[kind], cfg.alpha, cfg.beta).dense()
            same_vals[kind].extend(margins[same].tolist())
            cross_vals[kind].extend(margins[cross].tolist())
    return {
        kind: (float(np.mean(same_vals[kind])), float(np.mean(cross_vals[kind])))
        for kind in expert_kinds
    }


def test_c5_margin_ordering_on_planted_data():
    lines = []
    for seed in SEEDS:
        ds = generate(
            SynthConfig(
                n_items=128,
                n_concepts=80,  # 64 singletons + 32 duplicate pairs
                duplicate_rate=0.5,
                latent_dim=4,
                noise_video=0.1,
                noise_text=0.1,
                seed=seed,
            )
        )
        cfg = TrainConfig(epochs=32, batch_size=16, seed=seed)
        model = init_params(ModelDims(ds.frames.shape[2], ds.text.shape[1], 0, 16), seed)

        sse_epoch1 = _margin_split(ds, model, cfg, ("sse_video", "sse_text"))
        for kind, (same, cross) in sse_epoch1.items():
            assert same < cross, f"seed {seed} {kind} at epoch 1: {same} !< {cross}"

        opt = new_adam_state(model)
        inputs = train_inputs(ds, cfg.experts())
        for epoch in range(1, cfg.epochs + 1):
            train_epoch(model, inputs, cfg, epoch, opt)
        dse_trained = _margin_split(ds, model, cfg, ("dse_video", "dse_text"))
        for kind, (same, cross) in dse_trained.items():
            assert same < cross, f"seed {seed} {kind} after training: {same} !< {cross}"
        lines.append(
            f"seed {seed}: sse@1 {sse_epoch1['sse_video'][0]:.4f}/{sse_epoch1['sse_video'][1]:.4f}, "
            f"dse@{cfg.epochs} {dse_trained['dse_video'][0]:.4f}/{dse_trained['dse_video'][1]:.4f}"
        )
    print("\nCRITERION 5 PASS: same-concept mean margin < cross-concept on 5/5 seeds")
    for line in lines:
        print("  " + line)


def test_c6_end_to_end_benefit_over_baseline(tmp_path):
    # a tiny first run keeps one-time start-up costs (first BLAS calls and
    # allocations) out of the first timed run
    warm = generate(SynthConfig(n_items=8, n_concepts=8, seed=0))
    warm_cfg = TrainConfig(epochs=1, batch_size=4, seed=0)
    run_training(warm, warm_cfg, 0, 8, tmp_path / "warm")

    cmgsd_rsums, base_rsums = [], []
    for seed in SEEDS:
        ds = generate(SynthConfig(seed=seed, **BENCH_DATA))

        t0 = time.perf_counter()
        _, recs = run_training(
            ds, TrainConfig(seed=seed, **BENCH_TRAIN), 0, 16, tmp_path / f"cmgsd{seed}"
        )
        t_cmgsd = time.perf_counter() - t0
        cmgsd_rsums.append(recs[-1]["rsum"])

        t0 = time.perf_counter()
        _, recs = run_training(
            ds,
            TrainConfig(
                seed=seed,
                **{**BENCH_TRAIN, "beta": 0.0},
                dse_text=False,
                dse_video=False,
                sse_text=False,
                sse_video=False,
            ),
            0,
            16,
            tmp_path / f"base{seed}",
        )
        t_base = time.perf_counter() - t0
        base_rsums.append(recs[-1]["rsum"])
        assert t_cmgsd < 120.0 and t_base < 120.0

    mean_cmgsd = float(np.mean(cmgsd_rsums))
    mean_base = float(np.mean(base_rsums))
    assert mean_cmgsd >= mean_base
    print(
        f"\nCRITERION 6 PASS: mean Rsum CMGSD {mean_cmgsd:.1f} >= baseline {mean_base:.1f} "
        f"(per-seed diffs {[f'{c - b:+.1f}' for c, b in zip(cmgsd_rsums, base_rsums)]})"
    )


# criterion 10: C6's recipe at the learning rate that CMGSD and the baseline
# each pick from {2.7e-3, 4.7e-3, 8.1e-3, 1.4e-2, 2.43e-2} on seeds 1..5,
# scored on seeds no choice has seen
C10_TRAIN = {**BENCH_TRAIN, "learning_rate": 8.1e-3}
C10_SEEDS = range(6, 16)


def test_c10_adaptive_margin_beats_its_beta_zero_twin(tmp_path):
    # the twin keeps all four experts, the schedule and the hinge mass; at
    # beta = 0 every expert margin is the hard margin, so only the adaptive
    # spread of the margins separates the two arms
    cmgsd_rsums, twin_rsums = [], []
    for seed in C10_SEEDS:
        ds = generate(SynthConfig(seed=seed, **BENCH_DATA))
        for rsums, train in ((cmgsd_rsums, C10_TRAIN), (twin_rsums, {**C10_TRAIN, "beta": 0.0})):
            t0 = time.perf_counter()
            _, recs = run_training(
                ds, TrainConfig(seed=seed, **train), 0, 16, tmp_path / f"{len(rsums)}_{seed}"
            )
            assert time.perf_counter() - t0 < 120.0
            rsums.append(recs[-1]["rsum"])

    diffs = [c - t for c, t in zip(cmgsd_rsums, twin_rsums)]
    mean_cmgsd, mean_twin = float(np.mean(cmgsd_rsums)), float(np.mean(twin_rsums))
    wins = sum(d > 0.0 for d in diffs)
    assert mean_cmgsd > mean_twin
    assert wins >= 8, f"CMGSD beat its twin on {wins}/10 seeds"
    print(
        f"\nCRITERION 10 PASS: mean Rsum CMGSD {mean_cmgsd:.1f} > beta=0 twin {mean_twin:.1f}, "
        f"{wins}/10 wins (per-seed diffs {[f'{d:+.1f}' for d in diffs]})"
    )


@pytest.mark.parametrize("block_values", [16, 36, 64])
def test_c7_metric_oracle_agreement(monkeypatch, block_values):
    # R = block_values // n rows per evaluation block: ragged blocks of 2-8 rows
    monkeypatch.setattr(kernels, "BLOCK_VALUES", block_values)
    rng = np.random.default_rng(7)
    for trial in range(1000):
        n = int(rng.integers(1, 9))
        # quantized scores make ties common
        scores = rng.integers(0, 5, size=n) / 4.0
        pos = int(rng.integers(0, n))
        assert rank_of_positive(scores, pos) == rank_by_stable_sort(list(scores), pos)
        if n >= 2:
            S = rng.integers(0, 5, size=(n, n)) / 4.0
            t2v, v2t, _ = evaluate_bidirectional(*dense_rows(S), ks=(1, 5))
            expected_t2v = [rank_by_stable_sort(list(S[:, i]), i) for i in range(n)]
            expected_v2t = [rank_by_stable_sort(list(S[i, :]), i) for i in range(n)]
            assert t2v.ranks.tolist() == expected_t2v
            assert v2t.ranks.tolist() == expected_v2t
            for rep, expected in ((t2v, expected_t2v), (v2t, expected_v2t)):
                for k in (1, 5):
                    oracle = 100.0 * sum(r <= k for r in expected) / n
                    assert rep.r_at[k] == oracle
                assert rep.mdr == median_rank(expected)
                assert rep.r_at[1] == recall_at_k(expected, 1)
    print("\nCRITERION 7 PASS: rank/R@K/MdR match the sorting oracle on 1000 instances")


def test_c8_cli_determinism(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(
        "data.n_items = 24\ndata.n_concepts = 18\ndata.duplicate_rate = 0.5\n"
        "data.video_dim = 8\ndata.text_dim = 6\ndata.latent_dim = 4\n"
        "data.frames_per_video = 2\ntrain.epochs = 3\ntrain.batch_size = 8\n"
        "train.seed = 7\nmodel.joint_dim = 8\n",
        encoding="utf-8",
    )
    data_dir = tmp_path / "data"
    assert main(["gen-data", "--config", str(cfg), "--out", str(data_dir)]) == 0
    for out in ("r1", "r2"):
        code = main(
            ["train", "--config", str(cfg), "--data", str(data_dir), "--out", str(tmp_path / out)]
        )
        assert code == 0
    r1 = (tmp_path / "r1/report.jsonl").read_bytes()
    r2 = (tmp_path / "r2/report.jsonl").read_bytes()
    assert r1 == r2
    c1 = (tmp_path / "r1/checkpoint_final.ckpt").read_bytes()
    c2 = (tmp_path / "r2/checkpoint_final.ckpt").read_bytes()
    assert c1 == c2
    print(f"\nCRITERION 8 PASS: byte-identical reports ({len(r1)} bytes) and checkpoints")


def _collinear_model(dims: ModelDims, seed: int, eps: float = 1e-3):
    """Rank-1 towers plus tiny noise: all representations nearly parallel."""
    model = init_params(dims, seed)
    rng = np.random.default_rng(seed + 1000)
    direction = rng.standard_normal(dims.joint)
    direction /= np.linalg.norm(direction)
    for tower, d_in in ((model.video, dims.video_in), (model.text, dims.text_in)):
        u = np.abs(rng.standard_normal(d_in)) + 0.5
        tower.w1[...] = np.outer(u, direction) + eps * rng.standard_normal((d_in, dims.joint))
        tower.b1[...] = 0.0
    return model


def test_c9_warmup_rescues_adversarial_start():
    ds = generate(
        SynthConfig(
            n_items=64,
            n_concepts=48,
            duplicate_rate=0.5,
            latent_dim=4,
            noise_video=0.1,
            noise_text=0.1,
            seed=0,
        )
    )
    dims = ModelDims(ds.frames.shape[2], ds.text.shape[1], 0, 16)

    def run(seed, warmup):
        cfg = TrainConfig(
            epochs=5, batch_size=8, seed=seed, warmup_epochs=warmup, learning_rate=5e-3
        )
        model = _collinear_model(dims, seed)
        opt = new_adam_state(model)
        losses = []
        inputs = train_inputs(ds, cfg.experts())
        try:
            for epoch in range(1, 6):
                losses.append(train_epoch(model, inputs, cfg, epoch, opt).total)
        except MarginForgeError:
            losses.append(float("nan"))  # divergence is an allowed outcome here
        return losses

    lines = []
    for seed in SEEDS:
        with_warmup = run(seed, warmup=1)
        without = run(seed, warmup=0)
        assert all(np.isfinite(with_warmup)), f"seed {seed}: warm-up run not finite"
        assert with_warmup[-1] < with_warmup[0], (
            f"seed {seed}: warm-up loss did not decrease: {with_warmup}"
        )
        lines.append(
            f"seed {seed}: warmup {with_warmup[0]:.3f}->{with_warmup[-1]:.3f}, "
            f"no-warmup {without[0]:.3f}->{without[-1]:.3f}"
        )
    print("\nCRITERION 9 PASS: finite, decreasing epoch-1->5 loss with warm-up on 5/5 seeds")
    for line in lines:
        print("  " + line)
