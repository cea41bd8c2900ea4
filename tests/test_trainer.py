import dataclasses
import json
import os
from pathlib import Path

import numpy as np
import pytest

from marginforge.data import SynthConfig, generate
from marginforge import trainer
from marginforge.errors import (
    ConfigError,
    NonFiniteError,
    ParseError,
    ShapeMismatchError,
    ZeroNormError,
)
from marginforge.experts import pairwise_distances
from marginforge.margin import rescale_margins
from marginforge.model import ModelDims, forward_batch, init_params, save_checkpoint
from marginforge.seeding import named_rng
from marginforge.trainer import (
    AdamState,
    TrainConfig,
    adam_step,
    epoch_batches,
    lambda_schedule,
    load_trainer_checkpoint,
    new_adam_state,
    run_training,
    train_epoch,
)
from helpers import flatten_params


class TestLambdaSchedule:
    def setup_method(self):
        self.cfg = TrainConfig()

    def test_before_start_is_zero(self):
        for epoch in (1, 5, 10, 19):
            assert lambda_schedule(epoch, self.cfg) == 0.0

    def test_anchor_points(self):
        assert lambda_schedule(20, self.cfg) == 0.1
        assert lambda_schedule(50, self.cfg) == 1.0
        assert lambda_schedule(80, self.cfg) == 1.0

    def test_midpoint_value(self):
        # exponential interpolation: 0.1 * 10^((35-20)/30) = 0.1 * 10^0.5
        assert lambda_schedule(35, self.cfg) == pytest.approx(0.31622776601683794, rel=1e-12)

    def test_nondecreasing(self):
        vals = [lambda_schedule(e, self.cfg) for e in range(1, 80)]
        assert vals == sorted(vals)

    def test_continuous_at_end(self):
        eps = lambda_schedule(49, self.cfg)
        assert 0.9 < eps < 1.0
        assert lambda_schedule(50, self.cfg) == 1.0

    def test_rejects_epoch_zero(self):
        with pytest.raises(ValueError):
            lambda_schedule(0, self.cfg)


class TestAdam:
    def fresh(self, shape=(3,)):
        param = np.ones(shape)
        state = AdamState()
        state.m["p"] = np.zeros(shape)
        state.v["p"] = np.zeros(shape)
        return param, state

    def test_zero_gradient_no_move(self):
        param, state = self.fresh()
        before = param.copy()
        for _ in range(5):
            adam_step([("p", param)], {"p": np.zeros(3)}, state, lr=0.1)
        np.testing.assert_array_equal(param, before)

    def test_first_step_direction_and_size(self):
        param, state = self.fresh()
        g = np.array([3.0, -0.5, 1e-3])
        adam_step([("p", param)], {"p": g}, state, lr=0.01)
        step = param - np.ones(3)
        # bias-corrected first step is about -lr * sign(g)
        np.testing.assert_allclose(step, -0.01 * np.sign(g), rtol=1e-4)

    def test_quadratic_descent(self):
        # f(x) = x^2 from x=1, lr=0.1: f decreases monotonically for 3 steps
        x = np.array([1.0])
        state = AdamState()
        state.m["x"] = np.zeros(1)
        state.v["x"] = np.zeros(1)
        values = [float(x[0] ** 2)]
        for _ in range(3):
            adam_step([("x", x)], {"x": 2.0 * x}, state, lr=0.1)
            values.append(float(x[0] ** 2))
        assert all(b < a for a, b in zip(values, values[1:]))

    def test_shape_mismatch(self):
        param, state = self.fresh()
        with pytest.raises(ShapeMismatchError):
            adam_step([("p", param)], {"p": np.zeros(4)}, state, lr=0.1)

    def test_matches_reference_recurrence(self):
        rng = np.random.default_rng(80)
        param, state = self.fresh((4,))
        ref = param.copy()
        m = np.zeros(4)
        v = np.zeros(4)
        for t in range(1, 6):
            g = rng.standard_normal(4)
            adam_step([("p", param)], {"p": g}, state, lr=0.05)
            m = 0.9 * m + 0.1 * g
            v = 0.999 * v + 0.001 * g * g
            ref -= 0.05 * (m / (1 - 0.9**t)) / (np.sqrt(v / (1 - 0.999**t)) + 1e-8)
            np.testing.assert_allclose(param, ref, atol=1e-15)


def small_dataset(seed=21, n=24, rho=0.5):
    n_shared = int(round(rho * n)) // 2
    return generate(
        SynthConfig(
            n_items=n,
            n_concepts=n - int(round(rho * n)) + n_shared,
            duplicate_rate=rho,
            video_dim=8,
            text_dim=6,
            latent_dim=4,
            frames_per_video=2,
            seed=seed,
        )
    )


def small_model(ds, seed=1, hidden=0, joint=8):
    dims = ModelDims(ds.frames.shape[2], ds.text.shape[1], hidden, joint)
    return init_params(dims, seed)


def assert_same_checkpoint(loaded, expected):
    """Model, run identity and both Adam moments equal, bit for bit."""
    assert (loaded.epoch, loaded.seed, loaded.config_hash) == (
        expected.epoch,
        expected.seed,
        expected.config_hash,
    )
    np.testing.assert_array_equal(flatten_params(loaded.model), flatten_params(expected.model))
    assert loaded.opt_state.t == expected.opt_state.t
    assert list(loaded.opt_state.m) == list(expected.opt_state.m)
    for name in expected.opt_state.m:
        np.testing.assert_array_equal(loaded.opt_state.m[name], expected.opt_state.m[name])
        np.testing.assert_array_equal(loaded.opt_state.v[name], expected.opt_state.v[name])


class TestEpochBatches:
    def test_shuffled_slices_without_the_trailing_singleton(self):
        batches = epoch_batches(3, 19, 9, 2)
        order = named_rng(3, "shuffle", 2).permutation(19)
        assert [b.tolist() for b in batches] == [order[:9].tolist(), order[9:18].tolist()]

    def test_trailing_pair_kept(self):
        assert [b.size for b in epoch_batches(3, 20, 9, 1)] == [9, 9, 2]

    def test_singleton_batches_give_none(self):
        assert epoch_batches(3, 5, 1, 1) == []


class TestTrainEpoch:
    def test_zero_learning_rate_keeps_params(self):
        ds = small_dataset()
        cfg = TrainConfig(batch_size=8, learning_rate=0.0, seed=3)
        model = small_model(ds, seed=cfg.seed)
        before = flatten_params(model).copy()
        opt = new_adam_state(model)
        train_epoch(model, ds, cfg, 1, opt)
        np.testing.assert_array_equal(flatten_params(model), before)

    def test_determinism_bit_identical(self):
        ds = small_dataset()
        cfg = TrainConfig(batch_size=8, seed=4)

        def run():
            model = small_model(ds, seed=cfg.seed)
            opt = new_adam_state(model)
            aggs = [train_epoch(model, ds, cfg, e, opt) for e in (1, 2, 3)]
            return flatten_params(model), [a.total for a in aggs]

        p1, l1 = run()
        p2, l2 = run()
        np.testing.assert_array_equal(p1, p2)
        assert l1 == l2

    def test_baseline_collapse_matches_hard_margin_trainer(self):
        # no experts, beta = 0: the run is exactly a hard-margin hardest-mining
        # trainer. Replay the schedule with an independent per-batch oracle.
        from oracles import brute_force_full_loss, brute_force_similarity
        from marginforge.objective import full_loss_grad

        ds = small_dataset()
        cfg = TrainConfig(
            batch_size=8,
            seed=5,
            beta=0.0,
            dse_text=False,
            dse_video=False,
            sse_text=False,
            sse_video=False,
            warmup_epochs=1,
        )
        model = small_model(ds, seed=cfg.seed)
        opt = new_adam_state(model)
        epoch_aggs = [train_epoch(model, ds, cfg, e, opt).total for e in (1, 2, 3)]

        replay = small_model(ds, seed=cfg.seed)
        replay_opt = new_adam_state(replay)
        rows = ds.rows(ds.train_ids)
        pooled = ds.pooled_video()[rows]
        text = ds.text[rows]
        replay_aggs = []
        for epoch in (1, 2, 3):
            order = named_rng(cfg.seed, "shuffle", epoch).permutation(len(rows))
            mining = "mean" if epoch <= cfg.warmup_epochs else "hardest"
            batch_losses = []
            for start in range(0, len(order), cfg.batch_size):
                batch = order[start : start + cfg.batch_size]
                if batch.size < 2:
                    continue
                state = forward_batch(replay, pooled[batch], text[batch])
                S = brute_force_similarity(state.video_reprs, state.text_reprs)
                total, _, _, _ = brute_force_full_loss(
                    S, [np.full((batch.size, batch.size), cfg.alpha)], np.ones(1), mining
                )
                batch_losses.append(total)
                _, grads = full_loss_grad(
                    replay, state, {}, cfg.alpha, 0.0, mining
                )
                adam_step(replay.param_items(), grads, replay_opt, cfg.learning_rate)
            replay_aggs.append(float(np.mean(batch_losses)))

        np.testing.assert_allclose(epoch_aggs, replay_aggs, atol=1e-9)
        np.testing.assert_allclose(
            flatten_params(model), flatten_params(replay), atol=1e-12
        )

    def test_epoch_uses_mean_mining_during_warmup(self):
        ds = small_dataset()
        cfg_warm = TrainConfig(batch_size=8, seed=6, warmup_epochs=1, learning_rate=0.0)
        cfg_hard = TrainConfig(batch_size=8, seed=6, warmup_epochs=0, learning_rate=0.0)
        model = small_model(ds, seed=6)
        opt = new_adam_state(model)
        warm = train_epoch(model, ds, cfg_warm, 1, opt)
        hard = train_epoch(model, ds, cfg_hard, 1, opt)
        # same params (lr 0): hardest-mined loss dominates the mean-mined one
        assert hard.total >= warm.total - 1e-12

    @pytest.mark.parametrize("bad", ["gradient", "loss"])
    def test_non_finite_step_fails_before_adam(self, monkeypatch, bad):
        ds = small_dataset()
        cfg = TrainConfig(batch_size=8, seed=8)
        model = small_model(ds, seed=cfg.seed)
        opt = new_adam_state(model)
        train_epoch(model, ds, cfg, 1, opt)  # non-zero Adam state to compare against
        real = trainer.full_loss_grad
        calls = []

        def poisoned(*args, **kwargs):
            breakdown, grads = real(*args, **kwargs)
            calls.append(None)
            if len(calls) == 2:  # batch 1 of the epoch
                snapshot.update(
                    params=flatten_params(model).copy(),
                    m={k: v.copy() for k, v in opt.m.items()},
                    v={k: v.copy() for k, v in opt.v.items()},
                    t=opt.t,
                )
                if bad == "gradient":
                    grads["text.w1"][0, 0] = np.nan
                else:
                    breakdown = dataclasses.replace(breakdown, total=np.inf)
            return breakdown, grads

        snapshot = {}
        monkeypatch.setattr(trainer, "full_loss_grad", poisoned)
        with pytest.raises(NonFiniteError, match="epoch 2 batch 1:"):
            train_epoch(model, ds, cfg, 2, opt)
        np.testing.assert_array_equal(flatten_params(model), snapshot["params"])
        assert opt.t == snapshot["t"]
        for name, _ in model.param_items():
            np.testing.assert_array_equal(opt.m[name], snapshot["m"][name])
            np.testing.assert_array_equal(opt.v[name], snapshot["v"][name])

    def test_norms_taken_once_per_tower_per_step(self, monkeypatch):
        # two per step (forward_batch's two towers) and two per epoch (the
        # train-split SSE tables); nothing else in the step takes a norm
        ds = small_dataset()
        cfg = TrainConfig(batch_size=8, seed=9)
        model = small_model(ds, seed=cfg.seed)
        n_train = len(ds.train_ids)
        n_batches = sum(
            1 for start in range(0, n_train, cfg.batch_size) if n_train - start >= 2
        )
        real = np.linalg.norm
        calls = []

        def counted(*args, **kwargs):
            calls.append(None)
            return real(*args, **kwargs)

        monkeypatch.setattr(np.linalg, "norm", counted)
        train_epoch(model, ds, cfg, 2, new_adam_state(model))
        assert n_batches >= 2
        assert len(calls) == 2 * n_batches + 2

    def test_batch_size_larger_than_train_rejected(self):
        ds = small_dataset()
        cfg = TrainConfig(batch_size=10_000)
        with pytest.raises(ConfigError):
            cfg.validate(len(ds.train_ids))


class TestRunTraining:
    def test_epochs_zero_emits_initial_checkpoint_only(self, tmp_path):
        ds = small_dataset()
        cfg = TrainConfig(epochs=0, batch_size=8, seed=7)
        ckpt, records = run_training(ds, cfg, 0, 8, tmp_path)
        assert records == []
        assert (tmp_path / "checkpoint_final.ckpt").exists()
        assert not (tmp_path / "checkpoint_latest.ckpt").exists()
        assert (tmp_path / "report.jsonl").read_text() == ""
        fresh = small_model(ds, seed=cfg.seed)
        np.testing.assert_array_equal(flatten_params(ckpt.model), flatten_params(fresh))

    @pytest.mark.parametrize("table", ["sse_video", "sse_text"])
    def test_zero_norm_sse_row_names_epoch_and_table(self, tmp_path, table):
        ds = small_dataset()
        emb = getattr(ds, table)
        emb.embeddings[emb.row(ds.train_ids[3])] = 0.0
        cfg = TrainConfig(epochs=2, batch_size=8, seed=7)
        with pytest.raises(ZeroNormError, match=f"^epoch 1: {table} row 3 has"):
            run_training(ds, cfg, 0, 8, tmp_path)

    def test_report_record_count_equals_epochs(self, tmp_path):
        ds = small_dataset()
        cfg = TrainConfig(epochs=4, batch_size=8, seed=8)
        _, records = run_training(ds, cfg, 0, 8, tmp_path)
        assert len(records) == 4
        lines = (tmp_path / "report.jsonl").read_text().strip().split("\n")
        assert len(lines) == 4
        parsed = [json.loads(line) for line in lines]
        assert [r["epoch"] for r in parsed] == [1, 2, 3, 4]
        assert all(r["lambda"] == 0.0 for r in parsed)

    def test_checkpoint_round_trip(self, tmp_path):
        ds = small_dataset()
        cfg = TrainConfig(epochs=2, batch_size=8, seed=9)
        for config_hash in ("abc123", ""):  # "" is run_training's default
            out = tmp_path / f"hash_{config_hash}"
            ckpt, _ = run_training(ds, cfg, 0, 8, out, config_hash=config_hash)
            loaded = load_trainer_checkpoint(out / "checkpoint_final")
            assert loaded.epoch == 2 and loaded.seed == 9 and loaded.config_hash == config_hash
            assert_same_checkpoint(loaded, ckpt)

    def test_model_only_file_is_not_a_trainer_checkpoint(self, tmp_path):
        save_checkpoint(small_model(small_dataset()), tmp_path / "model.ckpt")
        with pytest.raises(ParseError, match="no adam section"):
            load_trainer_checkpoint(tmp_path / "model")

    def test_one_replace_per_save(self, tmp_path, monkeypatch):
        real_replace = os.replace
        swaps = []

        def counting_replace(src, dst):
            swaps.append(Path(dst).name)
            return real_replace(src, dst)

        monkeypatch.setattr("marginforge.model.os.replace", counting_replace)
        cfg = TrainConfig(epochs=2, batch_size=8, seed=11)
        run_training(small_dataset(), cfg, 0, 8, tmp_path)
        assert swaps == ["checkpoint_latest.ckpt", "checkpoint_latest.ckpt", "checkpoint_final.ckpt"]

    def test_failed_replace_keeps_previous_checkpoint(self, tmp_path, monkeypatch):
        ds = small_dataset()
        ref_cfg = TrainConfig(epochs=2, batch_size=8, seed=11)
        run_training(ds, ref_cfg, 0, 8, tmp_path / "ref", config_hash="h")

        real_replace = os.replace
        swaps = []

        def failing_replace(src, dst):
            if Path(dst).name == "checkpoint_latest.ckpt":
                swaps.append(dst)
                if len(swaps) == 3:  # the epoch-3 save is never swapped in
                    raise OSError("rename failed")
            return real_replace(src, dst)

        monkeypatch.setattr("marginforge.model.os.replace", failing_replace)
        cfg = TrainConfig(epochs=3, batch_size=8, seed=11)
        with pytest.raises(OSError, match="rename failed"):
            run_training(ds, cfg, 0, 8, tmp_path / "run", config_hash="h")
        monkeypatch.undo()

        run, ref = tmp_path / "run", tmp_path / "ref"
        loaded = load_trainer_checkpoint(run / "checkpoint_latest")
        assert loaded.epoch == 2
        assert_same_checkpoint(loaded, load_trainer_checkpoint(ref / "checkpoint_latest"))
        assert sorted(p.name for p in run.iterdir()) == ["checkpoint_latest.ckpt", "report.jsonl"]

    def test_full_run_determinism(self, tmp_path):
        ds = small_dataset()
        cfg = TrainConfig(epochs=3, batch_size=8, seed=10)
        run_training(ds, cfg, 0, 8, tmp_path / "a")
        run_training(ds, cfg, 0, 8, tmp_path / "b")
        assert (tmp_path / "a/report.jsonl").read_bytes() == (
            tmp_path / "b/report.jsonl"
        ).read_bytes()
        assert (tmp_path / "a/checkpoint_final.ckpt").read_bytes() == (
            tmp_path / "b/checkpoint_final.ckpt"
        ).read_bytes()

    def test_failed_state_write_keeps_previous_pair(self, tmp_path, monkeypatch):
        ds = small_dataset()
        cfg = TrainConfig(epochs=3, batch_size=8, seed=11)
        ref_cfg = TrainConfig(epochs=2, batch_size=8, seed=11)
        run_training(ds, ref_cfg, 0, 8, tmp_path / "ref", config_hash="h")

        real_open = open
        saves = []

        class DiesInAdamSection:
            """A file that fails half way through the first write after the adam line."""

            def __init__(self, fh):
                self.fh, self.in_adam = fh, False

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                self.fh.close()

            def write(self, data):
                if self.in_adam:
                    self.fh.write(data[: len(data) // 2])
                    raise OSError("disk full")
                self.in_adam = data.startswith("adam ")
                return self.fh.write(data)

        def failing_open(path, *args, **kwargs):
            fh = real_open(path, *args, **kwargs)
            if Path(path).name == "checkpoint_latest.ckpt.tmp":
                saves.append(path)
                if len(saves) == 3:  # the epoch-3 checkpoint dies half written
                    return DiesInAdamSection(fh)
            return fh

        monkeypatch.setattr("marginforge.model.open", failing_open, raising=False)
        with pytest.raises(OSError, match="disk full"):
            run_training(ds, cfg, 0, 8, tmp_path / "run", config_hash="h")
        monkeypatch.undo()

        run, ref = tmp_path / "run", tmp_path / "ref"
        name = "checkpoint_latest.ckpt"
        assert (run / name).read_bytes() == (ref / name).read_bytes()
        loaded = load_trainer_checkpoint(run / "checkpoint_latest")
        assert loaded.epoch == 2
        assert_same_checkpoint(loaded, load_trainer_checkpoint(ref / "checkpoint_latest"))
        assert sorted(p.name for p in run.iterdir()) == ["checkpoint_latest.ckpt", "report.jsonl"]


class TestDseMarginsFromLiveEncoders:
    def test_margins_follow_encoder_outputs(self):
        # distances from the current model's outputs feed the margins
        ds = small_dataset()
        model = small_model(ds)
        rows = ds.rows(ds.train_ids)[:8]
        state = forward_batch(model, ds.pooled_video()[rows], ds.text[rows])
        mv = rescale_margins(pairwise_distances(state.video_units), 0.05, 0.04)
        mt = rescale_margins(pairwise_distances(state.text_units), 0.05, 0.04)
        assert mv.shape == (8, 8) and mt.shape == (8, 8)
        assert not np.allclose(mv, mt)
