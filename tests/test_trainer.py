import dataclasses
import json
import os
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from marginforge.data import SynthConfig, generate
from marginforge.evaluation import evaluate_bidirectional
from marginforge import mathcore, trainer
from marginforge.errors import (
    ConfigError,
    NonFiniteError,
    ParseError,
    ShapeMismatchError,
    ZeroNormError,
)
from marginforge.margin import expert_margins
from marginforge.mathcore import unit_rows
from marginforge.model import (
    Checkpoint,
    ModelDims,
    ParamVector,
    forward_batch,
    init_params,
    save_checkpoint,
)
from marginforge.objective import full_loss_grad
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
    save_trainer_checkpoint,
    train_epoch,
    train_inputs,
)
from helpers import Delegating, flatten_params


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


def one_array_state(shape) -> AdamState:
    """Fresh Adam state of a model whose one parameter array "p" has ``shape``."""
    layout = (("p", shape),)
    return AdamState(0, ParamVector.zeros(layout), ParamVector.zeros(layout))


def adam_one(param, g, state, lr):
    """``adam_step`` on the single array ``param`` with gradient ``g``; each
    array is the flat vector of its own one-array layout."""
    adam_step(
        ParamVector((("p", param.shape),), param), ParamVector((("p", g.shape),), g), state, lr
    )


class TestAdam:
    def fresh(self, shape=(3,)):
        return np.ones(shape), one_array_state(shape)

    def test_zero_gradient_no_move(self):
        param, state = self.fresh()
        before = param.copy()
        for _ in range(5):
            adam_one(param, np.zeros(3), state, lr=0.1)
        np.testing.assert_array_equal(param, before)

    def test_first_step_direction_and_size(self):
        param, state = self.fresh()
        g = np.array([3.0, -0.5, 1e-3])
        adam_one(param, g, state, lr=0.01)
        step = param - np.ones(3)
        # bias-corrected first step is about -lr * sign(g)
        np.testing.assert_allclose(step, -0.01 * np.sign(g), rtol=1e-4)

    def test_quadratic_descent(self):
        # f(x) = x^2 from x=1, lr=0.1: f decreases monotonically for 3 steps
        x = np.array([1.0])
        state = one_array_state((1,))
        values = [float(x[0] ** 2)]
        for _ in range(3):
            adam_one(x, 2.0 * x, state, lr=0.1)
            values.append(float(x[0] ** 2))
        assert all(b < a for a, b in zip(values, values[1:]))

    def test_shape_mismatch(self):
        param, state = self.fresh()
        with pytest.raises(ShapeMismatchError):
            adam_one(param, np.zeros(4), state, lr=0.1)

    def test_matches_reference_recurrence(self):
        rng = np.random.default_rng(80)
        param, state = self.fresh((4,))
        ref = param.copy()
        m = np.zeros(4)
        v = np.zeros(4)
        for t in range(1, 6):
            g = rng.standard_normal(4)
            adam_one(param, g, state, lr=0.05)
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


def per_array_adam(params: dict, grads: dict, m: dict, v: dict, t: int, lr: float) -> None:
    """Adam's update written per array, as its own reference: updates the
    dicts of arrays in place, with the optimizer's operations in its order."""
    bc1 = 1.0 - 0.9**t
    bc2 = 1.0 - 0.999**t
    for name in params:
        g = grads[name]
        m[name] = m[name] * 0.9 + (1.0 - 0.9) * g
        v[name] = v[name] * 0.999 + (1.0 - 0.999) * g * g
        params[name] = params[name] - lr * (m[name] / bc1) / (np.sqrt(v[name] / bc2) + 1e-8)


def vector_bytes(ckpt) -> bytes:
    """The parameter vector, then Adam's m and v, as bytes."""
    vectors = (ckpt.model.params, ckpt.opt_state.m, ckpt.opt_state.v)
    return b"".join(vec.flat.tobytes() for vec in vectors)


@pytest.mark.parametrize("hidden", [0, 5])
class TestFlatAdam:
    def test_flat_step_equals_the_per_array_reference_bit_for_bit(self, hidden):
        model = small_model(small_dataset(), seed=2, hidden=hidden)
        opt = new_adam_state(model)
        names = list(model.params)
        ref = {name: arr.copy() for name, arr in model.param_items()}
        ref_m = {name: np.zeros_like(arr) for name, arr in ref.items()}
        ref_v = {name: np.zeros_like(arr) for name, arr in ref.items()}
        rng = np.random.default_rng(50 + hidden)
        n = model.params.flat.size
        mixed = rng.standard_normal(n) * 10.0 ** rng.uniform(-300, 150, n)
        mixed[::7] = 0.0
        mixed[3::7] = -0.0
        one_zero = rng.standard_normal(n)
        one_zero[: model.params[names[0]].size] = 0.0  # the first array's gradient is 0
        tiny = 1e-12 * rng.standard_normal(n)
        steps = [rng.standard_normal(n), np.zeros(n), mixed, one_zero, tiny]
        for t, g in enumerate(steps, start=1):
            grads = ParamVector(model.params.layout, g.copy())
            adam_step(model.params, grads, opt, 1e-3)
            per_array_adam(ref, {name: grads[name].copy() for name in names}, ref_m, ref_v, t, 1e-3)
            assert opt.t == t
            for got, want in ((model.params, ref), (opt.m, ref_m), (opt.v, ref_v)):
                for name in names:
                    assert got[name].tobytes() == want[name].tobytes(), (t, name)

    def test_a_step_from_a_loaded_checkpoint_equals_one_in_memory(self, tmp_path, hidden):
        # what train --resume relies on: the state read back steps on as
        # the state that was written
        ds = small_dataset()
        cfg = TrainConfig(epochs=2, batch_size=8, seed=12)
        final, _ = run_training(ds, cfg, hidden, 8, tmp_path)
        loaded = load_trainer_checkpoint(tmp_path / "checkpoint_final")
        assert vector_bytes(loaded) == vector_bytes(final)
        inputs = train_inputs(ds, cfg.experts())
        batch = epoch_batches(cfg.seed, len(inputs.rows), cfg.batch_size, 3)[0]
        steps = final.opt_state.t
        for ckpt in (final, loaded):
            state = forward_batch(ckpt.model, inputs.pooled[batch], inputs.text[batch])
            _, grads = full_loss_grad(ckpt.model, state, {}, cfg.alpha, 0.0, "hardest")
            adam_step(ckpt.model.params, grads, ckpt.opt_state, cfg.learning_rate)
        assert loaded.opt_state.t == final.opt_state.t == steps + 1
        assert vector_bytes(loaded) == vector_bytes(final)
        losses = [train_epoch(c.model, inputs, cfg, 3, c.opt_state).total for c in (final, loaded)]
        assert losses[0] == losses[1]
        assert vector_bytes(loaded) == vector_bytes(final)


class TestTrainEpoch:
    def test_zero_learning_rate_keeps_params(self):
        ds = small_dataset()
        cfg = TrainConfig(batch_size=8, learning_rate=0.0, seed=3)
        model = small_model(ds, seed=cfg.seed)
        before = flatten_params(model).copy()
        opt = new_adam_state(model)
        train_epoch(model, train_inputs(ds, cfg.experts()), cfg, 1, opt)
        np.testing.assert_array_equal(flatten_params(model), before)

    def test_determinism_bit_identical(self):
        ds = small_dataset()
        cfg = TrainConfig(batch_size=8, seed=4)

        def run():
            model = small_model(ds, seed=cfg.seed)
            opt = new_adam_state(model)
            inputs = train_inputs(ds, cfg.experts())
            aggs = [train_epoch(model, inputs, cfg, e, opt) for e in (1, 2, 3)]
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
        inputs = train_inputs(ds, cfg.experts())
        epoch_aggs = [train_epoch(model, inputs, cfg, e, opt).total for e in (1, 2, 3)]

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
                adam_step(replay.params, grads, replay_opt, cfg.learning_rate)
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
        warm = train_epoch(model, train_inputs(ds, cfg_warm.experts()), cfg_warm, 1, opt)
        hard = train_epoch(model, train_inputs(ds, cfg_hard.experts()), cfg_hard, 1, opt)
        # same params (lr 0): hardest-mined loss dominates the mean-mined one
        assert hard.total >= warm.total - 1e-12

    @pytest.mark.parametrize("bad", ["gradient", "loss"])
    def test_non_finite_step_fails_before_adam(self, monkeypatch, bad):
        ds = small_dataset()
        cfg = TrainConfig(batch_size=8, seed=8)
        model = small_model(ds, seed=cfg.seed)
        opt = new_adam_state(model)
        inputs = train_inputs(ds, cfg.experts())
        train_epoch(model, inputs, cfg, 1, opt)  # non-zero Adam state to compare against
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
        # the flat check finds the array's name after the fact; it must
        # still name the poisoned one
        message = {
            "gradient": r"gradient text\.w1 has a non-finite entry$",
            "loss": r"loss is inf$",
        }[bad]
        with pytest.raises(NonFiniteError, match=f"^epoch 2 batch 1: {message}"):
            train_epoch(model, inputs, cfg, 2, opt)
        np.testing.assert_array_equal(flatten_params(model), snapshot["params"])
        assert opt.t == snapshot["t"]
        for name, _ in model.param_items():
            np.testing.assert_array_equal(opt.m[name], snapshot["m"][name])
            np.testing.assert_array_equal(opt.v[name], snapshot["v"][name])

    def test_norms_taken_once_per_tower_per_step(self, monkeypatch):
        # two per step (forward_batch's two towers) and two per epoch (the
        # train-split SSE tables), all through mathcore.row_norms; nothing
        # else in the step takes a norm
        ds = small_dataset()
        cfg = TrainConfig(batch_size=8, seed=9)
        model = small_model(ds, seed=cfg.seed)
        n_train = len(ds.train_ids)
        n_batches = sum(
            1 for start in range(0, n_train, cfg.batch_size) if n_train - start >= 2
        )
        calls = {"row_norms": 0, "norm": 0}

        def counted(module, name):
            real = getattr(module, name)

            def wrapper(*args, **kwargs):
                calls[name] += 1
                return real(*args, **kwargs)

            monkeypatch.setattr(module, name, wrapper)

        counted(mathcore, "row_norms")
        counted(np.linalg, "norm")
        train_epoch(model, train_inputs(ds, cfg.experts()), cfg, 2, new_adam_state(model))
        assert n_batches >= 2
        assert calls == {"row_norms": 2 * n_batches + 2, "norm": 0}

    @pytest.mark.parametrize(
        "epoch, kinds",
        [
            (1, ("sse_video", "sse_text")),  # lambda = 0
            (2, ("dse_video", "dse_text", "sse_video", "sse_text")),
            (3, ("dse_video", "dse_text")),  # lambda = 1
        ],
    )
    def test_margins_built_only_for_weighted_slots(self, monkeypatch, epoch, kinds):
        ds = small_dataset()
        cfg = TrainConfig(batch_size=8, seed=12, lambda_start_epoch=2, lambda_end_epoch=3)
        model = small_model(ds, seed=cfg.seed)
        inputs = train_inputs(ds, cfg.experts())
        real_units, real_margins = trainer.expert_units, trainer.expert_margins
        names, built = {}, []

        def named_units(*args):
            units = real_units(*args)
            names.clear()
            names.update((id(arr), kind) for kind, arr in units.items())
            return units

        def counted_margins(units, alpha, beta):
            built.append(names[id(units)])
            return real_margins(units, alpha, beta)

        monkeypatch.setattr(trainer, "expert_units", named_units)
        monkeypatch.setattr(trainer, "expert_margins", counted_margins)
        train_epoch(model, inputs, cfg, epoch, new_adam_state(model))
        n_batches = len(epoch_batches(cfg.seed, len(ds.train_ids), cfg.batch_size, epoch))
        assert n_batches >= 2
        assert built == list(kinds) * n_batches

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

    def test_fixed_inputs_built_once_per_run(self, tmp_path, monkeypatch):
        # the static tables' unit rows, one per SSE expert, are among the inputs
        # split_inputs builds the train split's rows inside train_inputs,
        # and the validation split's once beside it
        calls = {"train_inputs": 0, "split_inputs": 0, "unit_rows": 0}

        def counted(name):
            real = getattr(trainer, name)

            def wrapper(*args, **kwargs):
                calls[name] += 1
                return real(*args, **kwargs)

            return wrapper

        for name in calls:
            monkeypatch.setattr(trainer, name, counted(name))
        cfg = TrainConfig(epochs=3, batch_size=8, seed=13)
        run_training(small_dataset(), cfg, 0, 8, tmp_path / "three")
        assert calls == {"train_inputs": 1, "split_inputs": 2, "unit_rows": 2}
        run_training(small_dataset(), dataclasses.replace(cfg, epochs=0), 0, 8, tmp_path / "none")
        assert calls == {"train_inputs": 1, "split_inputs": 2, "unit_rows": 2}

    @pytest.mark.parametrize("table", ["sse_video", "sse_text"])
    def test_zero_norm_sse_row_names_epoch_and_table(self, tmp_path, table):
        ds = small_dataset()
        emb = getattr(ds, table)
        emb.embeddings[ds.rows(ds.train_ids)[3]] = 0.0
        cfg = TrainConfig(epochs=2, batch_size=8, seed=7)
        with pytest.raises(ZeroNormError, match=f"^epoch 1: {table} row 3 has"):
            run_training(ds, cfg, 0, 8, tmp_path)

    def test_failed_validation_names_its_epoch(self, tmp_path):
        # epoch 1's one step is finite, but its 1e306 step size leaves
        # weights so large that the validation rows' norms overflow
        ds = small_dataset(n=80)
        assert len(ds.train_ids) == 64
        cfg = TrainConfig(epochs=2, batch_size=64, seed=7, learning_rate=1e306)
        with pytest.raises(ZeroNormError, match="^epoch 1 validation: video row 0 has"):
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

    def test_dotted_prefixes_stay_apart(self, tmp_path):
        model = small_model(small_dataset())
        for epoch in (1, 2):
            ckpt = Checkpoint(model, new_adam_state(model), epoch, 3, "h")
            save_trainer_checkpoint(ckpt, tmp_path / f"run.epoch{epoch}")
        assert sorted(p.name for p in tmp_path.iterdir()) == ["run.epoch1.ckpt", "run.epoch2.ckpt"]
        assert load_trainer_checkpoint(tmp_path / "run.epoch1").epoch == 1
        assert load_trainer_checkpoint(tmp_path / "run.epoch2").epoch == 2

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

    @pytest.mark.parametrize("warmup_epochs", [0, 1])
    def test_pruned_mining_leaves_outputs_byte_identical(
        self, tmp_path, monkeypatch, warmup_epochs
    ):
        # B = 256 mining with all four experts' ExpertMargins levels, once by
        # the full scan and once by the pruned path; a warm-up epoch mines
        # under mean mining
        from marginforge import kernels

        ds = small_dataset(n=320)
        assert len(ds.train_ids) == 256
        cfg = TrainConfig(
            epochs=2, batch_size=256, seed=12, warmup_epochs=warmup_epochs,
            lambda_start_epoch=1, lambda_end_epoch=3,
        )
        pruned_blocks = []
        real = kernels._mine_pruned
        monkeypatch.setattr(
            kernels, "_mine_pruned", lambda *a: pruned_blocks.append(1) or real(*a)
        )
        for gate, out in ((1 << 30, "full"), (2, "pruned")):
            monkeypatch.setattr(kernels, "PRUNE_MIN_B", gate)
            run_training(ds, cfg, 0, 8, tmp_path / out)
            assert bool(pruned_blocks) == (out == "pruned")
        for name in ("report.jsonl", "checkpoint_final.ckpt"):
            full, pruned = (tmp_path / out / name for out in ("full", "pruned"))
            assert full.read_bytes() == pruned.read_bytes()

    @pytest.mark.parametrize("b", [64, 256])  # 256: the pruned selector
    def test_study_row_source_reaches_the_loss(self, tmp_path, monkeypatch, b):
        # a row source that is not an ExpertMargins, passed in from outside
        # the package by rebinding trainer.expert_margins, trains exactly as
        # the ExpertMargins it wraps
        from marginforge import kernels

        ds = small_dataset(n=320)
        cfg = TrainConfig(
            epochs=2, batch_size=b, seed=13, warmup_epochs=1,
            lambda_start_epoch=1, lambda_end_epoch=3,
        )
        run_training(ds, cfg, 0, 8, tmp_path / "experts")
        study, pruned_blocks = [], []
        real, real_mine = trainer.expert_margins, kernels._mine_pruned
        monkeypatch.setattr(
            trainer, "expert_margins", lambda *a: study.append(Delegating(real(*a))) or study[-1]
        )
        monkeypatch.setattr(
            kernels, "_mine_pruned", lambda *a: pruned_blocks.append(1) or real_mine(*a)
        )
        run_training(ds, cfg, 0, 8, tmp_path / "study")
        assert study and all(m.calls for m in study)
        assert bool(pruned_blocks) == (b >= kernels.PRUNE_MIN_B)
        for name in ("report.jsonl", "checkpoint_final.ckpt"):
            experts, wrapped = (tmp_path / out / name for out in ("experts", "study"))
            assert experts.read_bytes() == wrapped.read_bytes()

    def test_failed_state_write_keeps_previous_pair(self, tmp_path, monkeypatch):
        ds = small_dataset()
        cfg = TrainConfig(epochs=3, batch_size=8, seed=11)
        ref_cfg = TrainConfig(epochs=2, batch_size=8, seed=11)
        run_training(ds, ref_cfg, 0, 8, tmp_path / "ref", config_hash="h")

        real_open = open
        saves = []

        class DiesInPayload:
            """A file that fails half way through the payload, after the header line."""

            def __init__(self, fh):
                self.fh, self.in_payload = fh, False

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                self.fh.close()

            def write(self, data):
                if self.in_payload:
                    self.fh.write(data[: len(data) // 2])
                    raise OSError("disk full")
                self.in_payload = data.startswith(b"CKPT3 ")
                return self.fh.write(data)

        def failing_open(path, *args, **kwargs):
            fh = real_open(path, *args, **kwargs)
            if Path(path).name == "checkpoint_latest.ckpt.tmp":
                saves.append(path)
                if len(saves) == 3:  # the epoch-3 checkpoint dies half written
                    return DiesInPayload(fh)
            return fh

        monkeypatch.setattr("marginforge.experts.open", failing_open, raising=False)
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


class TestSplitPooling:
    # only the split's frames are pooled; the result is the whole table's
    # pooling, restricted to the split, bit for bit
    def test_train_inputs_pool_the_train_rows(self):
        ds = small_dataset()
        inputs = train_inputs(ds, TrainConfig().experts())
        assert inputs.pooled.tobytes() == ds.pooled_video()[inputs.rows].tobytes()

    def test_evaluate_split_pools_the_split_rows(self):
        ds = small_dataset()
        model = small_model(ds)
        rows = ds.rows(ds.val_ids)
        state = forward_batch(model, ds.pooled_video()[rows], ds.text[rows])
        t2v, v2t, rsum = trainer.evaluate_split(model, ds, ds.val_ids)
        want_t2v, want_v2t, want_rsum = evaluate_bidirectional(
            state.video_units @ state.text_units.T
        )
        assert rsum == want_rsum
        for got, want in ((t2v, want_t2v), (v2t, want_v2t)):
            assert got.r_at == want.r_at and got.mdr == want.mdr
            np.testing.assert_array_equal(got.ranks, want.ranks)


class TestDseMarginsFromLiveEncoders:
    def test_margins_follow_encoder_outputs(self):
        # distances from the current model's outputs feed the margins
        ds = small_dataset()
        model = small_model(ds)
        rows = ds.rows(ds.train_ids)[:8]
        state = forward_batch(model, ds.pooled_video()[rows], ds.text[rows])
        mv = expert_margins(state.video_units, 0.05, 0.04).dense()
        mt = expert_margins(state.text_units, 0.05, 0.04).dense()
        assert mv.shape == (8, 8) and mt.shape == (8, 8)
        assert not np.allclose(mv, mt)


class TestStepHoldsNoBatchMatrix:
    @pytest.mark.parametrize("mining", ["hardest", "mean"])
    def test_b1024_step_holds_less_than_one_batch_matrix(self, mining):
        # forward, the four expert margins, loss and gradients of one B = 1024
        # step. S is formed one anchor block at a time from the unit rows, and
        # dS is 3B entries (hardest mining) or its B x D products with the
        # unit rows (mean mining), so no B x B array is ever held
        b = 1024
        rng = np.random.default_rng(90)
        model = init_params(ModelDims(24, 20, 0, 16), 3)
        pooled, text = rng.standard_normal((b, 24)), rng.standard_normal((b, 20))
        sse_units = {
            kind: unit_rows(rng.standard_normal((b, 12)), kind)[0]
            for kind in ("sse_video", "sse_text")
        }
        cfg = TrainConfig()
        batch = rng.permutation(b)
        tracemalloc.start()
        try:
            state = forward_batch(model, pooled, text)
            margins = trainer._batch_margins(cfg, 0.5, state, sse_units, batch)
            assert len(margins) == 4
            full_loss_grad(model, state, margins, cfg.alpha, 0.5, mining)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < b * b * 8
