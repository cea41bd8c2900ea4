import csv
import dataclasses
import json
import re

import numpy as np
import pytest

from marginforge import config
from marginforge.cli import main
from marginforge.config import (
    KEY_SPECS,
    RunConfig,
    config_hash,
    parse_config,
    resolved_text,
)
from marginforge.data import MANIFEST_NAME, SynthConfig, digest, generate, write_dataset
from marginforge.errors import ConfigError, ConfigTypeError, ParseError, UnknownKeyError
from marginforge.trainer import TrainConfig


def write_cfg(tmp_path, text, name="run.cfg"):
    p = tmp_path / name
    p.write_text(text, encoding="utf-8")
    return p


FLOAT_KEYS = [
    "data.duplicate_rate",
    "data.noise_text",
    "data.noise_video",
    "train.alpha",
    "train.beta",
    "train.lambda_start_value",
    "train.learning_rate",
]

SMOKE_CFG = """
# desk-scale smoke configuration
data.n_items = 24
data.n_concepts = 18
data.duplicate_rate = 0.5
data.video_dim = 8
data.text_dim = 6
data.latent_dim = 4
data.frames_per_video = 2
train.epochs = 3
train.batch_size = 8
train.seed = 11
model.joint_dim = 8
"""


class TestParseConfig:
    def test_empty_file_gives_defaults(self, tmp_path):
        cfg = parse_config(write_cfg(tmp_path, ""))
        assert cfg.train.beta == 0.04
        assert cfg.train.lambda_start_epoch == 20
        assert cfg.train.lambda_start_value == 0.1
        assert cfg.train.lambda_end_epoch == 50
        assert cfg.train.warmup_epochs == 1
        assert cfg.ks == (1, 5, 10)
        assert cfg.data_dir is None

    def test_negative_beta_is_type_error(self, tmp_path):
        with pytest.raises(ConfigTypeError, match="train.beta"):
            parse_config(write_cfg(tmp_path, "train.beta = -0.1\n"))

    def test_integer_parse(self, tmp_path):
        cfg = parse_config(write_cfg(tmp_path, "train.lambda_end_epoch = 50\n"))
        assert cfg.train.lambda_end_epoch == 50
        assert isinstance(cfg.train.lambda_end_epoch, int)

    def test_unknown_key_names_key_and_line(self, tmp_path):
        with pytest.raises(UnknownKeyError, match=r"train.bogus.*line 2"):
            parse_config(write_cfg(tmp_path, "# ok\ntrain.bogus = 1\n"))

    def test_bad_value_names_line(self, tmp_path):
        with pytest.raises(ConfigTypeError, match="line 1"):
            parse_config(write_cfg(tmp_path, "train.epochs = soon\n"))

    def test_missing_equals_rejected(self, tmp_path):
        with pytest.raises(ParseError):
            parse_config(write_cfg(tmp_path, "train.alpha 0.05\n"))

    def test_comments_and_blanks_ignored(self, tmp_path):
        cfg = parse_config(write_cfg(tmp_path, "\n# note\ntrain.alpha = 0.2\n\n"))
        assert cfg.train.alpha == 0.2

    def test_booleans(self, tmp_path):
        cfg = parse_config(write_cfg(tmp_path, "train.dse_text = false\ntrain.sse_video = true\n"))
        assert cfg.train.dse_text is False and cfg.train.sse_video is True

    def test_ks_list(self, tmp_path):
        cfg = parse_config(write_cfg(tmp_path, "eval.ks = 10,1,5\n"))
        assert cfg.ks == (1, 5, 10)

    def test_resolved_text_round_trips(self, tmp_path):
        cfg = parse_config(write_cfg(tmp_path, SMOKE_CFG))
        echo = write_cfg(tmp_path, resolved_text(cfg), name="echo.cfg")
        again = parse_config(echo)
        assert resolved_text(again) == resolved_text(cfg)
        assert config_hash(again) == config_hash(cfg)

    def test_float_keys_listed(self):
        defaults = RunConfig()
        sections = {"data": defaults.data, "train": defaults.train, "": defaults}
        floats = [
            key
            for key, (section, name, _) in KEY_SPECS.items()
            if isinstance(getattr(sections[section], name), float)
        ]
        assert sorted(floats) == FLOAT_KEYS

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    @pytest.mark.parametrize("key", FLOAT_KEYS)
    def test_non_finite_float_rejected(self, tmp_path, key, value):
        with pytest.raises(ConfigTypeError, match=rf"{key}.*line 2"):
            parse_config(write_cfg(tmp_path, f"# ok\n{key} = {value}\n"))

    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    @pytest.mark.parametrize("field", ["noise_video", "noise_text"])
    def test_generate_rejects_non_finite_noise(self, field, value):
        with pytest.raises(ConfigError, match="noise"):
            generate(SynthConfig(n_items=8, n_concepts=8, **{field: value}))

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
    @pytest.mark.parametrize("field", ["alpha", "beta", "learning_rate"])
    def test_train_config_rejects_non_finite(self, field, value):
        with pytest.raises(ConfigError, match=field):
            TrainConfig(**{field: value}).validate()

    @pytest.mark.parametrize(
        "line",
        [
            "train.lambda_start_value = 0",
            "data.duplicate_rate = 2",
            "data.n_concepts = 30",
            "model.joint_dim = 0",
        ],
    )
    def test_range_error_names_file_and_key(self, tmp_path, line):
        path = write_cfg(tmp_path, SMOKE_CFG + line + "\n")  # 24 items
        key = line.partition(" =")[0]
        with pytest.raises(ConfigTypeError, match=rf"{re.escape(str(path))}: .*{re.escape(key)}"):
            parse_config(path)

    def test_unsupported_field_type_has_no_key(self):
        @dataclasses.dataclass
        class Odd:
            values: list = dataclasses.field(default_factory=list)

        with pytest.raises(TypeError, match="Odd.values"):
            config._field_specs("odd", Odd)

    def test_inconsistent_lambda_epochs_rejected(self, tmp_path):
        with pytest.raises(ConfigTypeError):
            parse_config(
                write_cfg(tmp_path, "train.lambda_start_epoch = 30\ntrain.lambda_end_epoch = 10\n")
            )


class TestGenDataCommand:
    def test_gen_and_determinism(self, tmp_path):
        cfg = write_cfg(tmp_path, SMOKE_CFG)
        assert main(["gen-data", "--config", str(cfg), "--out", str(tmp_path / "d1")]) == 0
        assert main(["gen-data", "--config", str(cfg), "--out", str(tmp_path / "d2")]) == 0
        h1 = digest((tmp_path / "d1/frames.frm1").read_bytes())
        h2 = digest((tmp_path / "d2/frames.frm1").read_bytes())
        assert h1 == h2
        assert (tmp_path / "d1/resolved_config.cfg").exists()

    def test_seed_flag_overrides(self, tmp_path):
        cfg = write_cfg(tmp_path, SMOKE_CFG)
        main(["gen-data", "--config", str(cfg), "--out", str(tmp_path / "d1")])
        main(["gen-data", "--config", str(cfg), "--seed", "99", "--out", str(tmp_path / "d3")])
        assert (tmp_path / "d1/frames.frm1").read_bytes() != (
            tmp_path / "d3/frames.frm1"
        ).read_bytes()

    def test_nan_noise_fails_and_writes_nothing(self, tmp_path):
        cfg = write_cfg(tmp_path, SMOKE_CFG + "data.noise_video = nan\n")
        assert main(["gen-data", "--config", str(cfg), "--out", str(tmp_path / "bad")]) == 1
        assert not (tmp_path / "bad").exists()

    def test_infeasible_config_fails(self, tmp_path):
        cfg = write_cfg(tmp_path, "data.n_items = 10\ndata.n_concepts = 4\n")
        assert main(["gen-data", "--config", str(cfg), "--out", str(tmp_path / "bad")]) == 1


@pytest.fixture()
def smoke_env(tmp_path):
    cfg_path = write_cfg(tmp_path, SMOKE_CFG)
    data_dir = tmp_path / "data"
    assert main(["gen-data", "--config", str(cfg_path), "--out", str(data_dir)]) == 0
    return cfg_path, data_dir, tmp_path


class TestTrainCommand:
    def test_smoke_run(self, smoke_env):
        cfg_path, data_dir, tmp_path = smoke_env
        out = tmp_path / "run"
        assert (
            main(["train", "--config", str(cfg_path), "--data", str(data_dir), "--out", str(out)])
            == 0
        )
        lines = (out / "report.jsonl").read_text().strip().split("\n")
        assert len(lines) == 3
        record = json.loads(lines[-1])
        assert set(record) == {
            "epoch", "lambda", "loss_total", "loss_hard", "loss_dse", "loss_sse",
            "t2v_R1", "t2v_R5", "t2v_R10", "t2v_MdR",
            "v2t_R1", "v2t_R5", "v2t_R10", "v2t_MdR", "rsum",
        }
        assert (out / "resolved_config.cfg").exists()
        assert (out / "checkpoint_final.ckpt").exists()

    def test_missing_data_dir_is_error(self, smoke_env):
        cfg_path, _, tmp_path = smoke_env
        assert main(["train", "--config", str(cfg_path), "--out", str(tmp_path / "x")]) == 1

    def test_corrupt_dataset_nonzero_exit(self, smoke_env, capsys):
        cfg_path, data_dir, tmp_path = smoke_env
        target = data_dir / "text.emb1"
        raw = bytearray(target.read_bytes())
        raw[-2] ^= 0x01
        target.write_bytes(bytes(raw))
        code = main(
            ["train", "--config", str(cfg_path), "--data", str(data_dir), "--out", str(tmp_path / "x")]
        )
        assert code == 1
        assert "error" in capsys.readouterr().err

    def test_dataset_dir_not_mutated(self, smoke_env):
        cfg_path, data_dir, tmp_path = smoke_env
        before = {p.name: digest(p.read_bytes()) for p in sorted(data_dir.iterdir())}
        main(["train", "--config", str(cfg_path), "--data", str(data_dir), "--out", str(tmp_path / "r")])
        after = {p.name: digest(p.read_bytes()) for p in sorted(data_dir.iterdir())}
        assert before == after


class TestEvalCommand:
    def test_metrics_csv(self, smoke_env):
        cfg_path, data_dir, tmp_path = smoke_env
        run = tmp_path / "run"
        main(["train", "--config", str(cfg_path), "--data", str(data_dir), "--out", str(run)])
        out = tmp_path / "eval"
        code = main(
            [
                "eval", "--config", str(cfg_path), "--data", str(data_dir),
                "--ckpt", str(run / "checkpoint_final.ckpt"), "--out", str(out),
            ]
        )
        assert code == 0
        lines = (out / "metrics.csv").read_text().strip().split("\n")
        assert lines[0] == "direction,R1,R5,R10,MdR"
        assert lines[1].startswith("text_to_video,")
        assert lines[2].startswith("video_to_text,")
        assert lines[3].startswith("rsum,")


    @pytest.mark.parametrize("command", ["eval", "sweep"])
    def test_seed_flag_is_not_accepted(self, smoke_env, command):
        cfg_path, data_dir, tmp_path = smoke_env
        extra = {"eval": ["--data", str(data_dir), "--ckpt", "x.ckpt"], "sweep": ["--seeds", "1"]}
        with pytest.raises(SystemExit) as excinfo:
            main([command, "--config", str(cfg_path), "--seed", "1", "--out", str(tmp_path / "o")]
                 + extra[command])
        assert excinfo.value.code == 2
        assert not (tmp_path / "o").exists()

    def test_manifest1_dataset_is_error(self, smoke_env, capsys):
        cfg_path, data_dir, tmp_path = smoke_env
        run = tmp_path / "run"
        main(["train", "--config", str(cfg_path), "--data", str(data_dir), "--out", str(run)])
        manifest = data_dir / MANIFEST_NAME
        manifest.write_text(
            manifest.read_text(encoding="utf-8").replace("MANIFEST2", "MANIFEST1", 1),
            encoding="utf-8",
        )
        capsys.readouterr()
        code = main(
            [
                "eval", "--config", str(cfg_path), "--data", str(data_dir),
                "--ckpt", str(run / "checkpoint_final.ckpt"), "--out", str(tmp_path / "eval"),
            ]
        )
        assert code == 1
        err = capsys.readouterr().err
        assert "error" in err and "gen-data" in err


class TestInspectMarginsCommand:
    def run_inspect(self, smoke_env, extra_cfg="", expert="all"):
        cfg_path, data_dir, tmp_path = smoke_env
        if extra_cfg:
            cfg_path = write_cfg(tmp_path, SMOKE_CFG + extra_cfg, name="inspect.cfg")
        run = tmp_path / "run_i"
        main(["train", "--config", str(cfg_path), "--data", str(data_dir), "--out", str(run)])
        out = tmp_path / "inspect"
        code = main(
            [
                "inspect-margins", "--config", str(cfg_path), "--data", str(data_dir),
                "--ckpt", str(run / "checkpoint_final.ckpt"), "--out", str(out),
                "--expert", expert,
            ]
        )
        assert code == 0
        with open(out / "margins.csv", encoding="utf-8") as fh:
            return list(csv.DictReader(fh))

    def test_seed_flag_sets_train_seed(self, smoke_env):
        cfg_path, data_dir, tmp_path = smoke_env
        run = tmp_path / "run_s"
        main(["train", "--config", str(cfg_path), "--data", str(data_dir), "--out", str(run)])
        seeded_cfg = write_cfg(tmp_path, SMOKE_CFG + "train.seed = 7\n", name="seed7.cfg")
        outputs = []
        for name, cfg, flag in (("flag", cfg_path, ["--seed", "7"]), ("cfg", seeded_cfg, [])):
            out = tmp_path / name
            code = main(
                [
                    "inspect-margins", "--config", str(cfg), "--data", str(data_dir),
                    "--ckpt", str(run / "checkpoint_final.ckpt"), "--out", str(out), *flag,
                ]
            )
            assert code == 0
            outputs.append(out)
        flag_out, cfg_out = outputs
        assert (flag_out / "margins.csv").read_bytes() == (cfg_out / "margins.csv").read_bytes()
        assert "train.seed = 7\n" in (flag_out / "resolved_config.cfg").read_text()
        unseeded = tmp_path / "unseeded"
        main(
            [
                "inspect-margins", "--config", str(cfg_path), "--data", str(data_dir),
                "--ckpt", str(run / "checkpoint_final.ckpt"), "--out", str(unseeded),
            ]
        )
        assert (unseeded / "margins.csv").read_bytes() != (flag_out / "margins.csv").read_bytes()

    def test_row_count(self, smoke_env):
        rows = self.run_inspect(smoke_env)
        # batch size 8: 8*7 ordered pairs per expert, four experts
        assert len(rows) == 4 * 8 * 7
        per_expert = {r["expert"] for r in rows}
        assert per_expert == {"dse_text", "dse_video", "sse_text", "sse_video"}

    def test_beta_zero_margin_constant(self, smoke_env):
        rows = self.run_inspect(smoke_env, extra_cfg="train.beta = 0.0\n", expert="sse_video")
        margins = {float(r["margin"]) for r in rows}
        assert margins == {0.05}

    def test_same_concept_column_matches_ground_truth(self, smoke_env):
        from marginforge.data import load_dataset
        from marginforge.seeding import named_rng

        _, data_dir, _ = smoke_env
        rows = self.run_inspect(smoke_env, extra_cfg="train.batch_size = 16\n", expert="dse_text")
        ds = load_dataset(data_dir)
        train_rows = ds.rows(ds.train_ids)
        order = named_rng(11, "shuffle", 1).permutation(len(train_rows))
        batch = train_rows[order[:16]]
        concepts = ds.concepts[batch]
        for r in rows:
            i, j = int(r["i"]), int(r["j"])
            assert r["same_concept"] == str(int(concepts[i] == concepts[j]))
        assert any(r["same_concept"] == "1" for r in rows)  # 16 of 19 items: twins present

    def test_batch_index_outside_the_epoch_rejected(self, smoke_env, capsys):
        # 19 train items at batch_size 9 make batches of 9, 9 and a dropped singleton
        cfg_path, data_dir, tmp_path = smoke_env
        cfg_path = write_cfg(tmp_path, SMOKE_CFG + "train.batch_size = 9\n", name="b9.cfg")
        run = tmp_path / "run_b9"
        main(["train", "--config", str(cfg_path), "--data", str(data_dir), "--out", str(run)])

        def inspect(batch):
            return main(
                [
                    "inspect-margins", "--config", str(cfg_path), "--data", str(data_dir),
                    "--ckpt", str(run / "checkpoint_final.ckpt"), "--batch", batch,
                    "--out", str(tmp_path / f"inspect{batch}"),
                ]
            )

        assert inspect("1") == 0
        capsys.readouterr()
        for batch in ("2", "-1"):
            assert inspect(batch) == 1
            assert f"batch {batch} is out of range" in capsys.readouterr().err


class TestSweepCommand:
    def test_single_cell_single_seed(self, smoke_env):
        cfg_path, _, tmp_path = smoke_env
        out = tmp_path / "sweep1"
        code = main(["sweep", "--config", str(cfg_path), "--seeds", "3", "--out", str(out)])
        assert code == 0
        with open(out / "sweep_summary.csv", encoding="utf-8") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 1
        assert rows[0]["n_seeds"] == "1"
        assert float(rows[0]["rsum_std"]) == 0.0
        assert float(rows[0]["rsum_std_sample"]) == 0.0

    def test_grid_two_betas_two_seeds(self, smoke_env):
        cfg_path, _, tmp_path = smoke_env
        out = tmp_path / "sweep2"
        code = main(
            [
                "sweep", "--config", str(cfg_path), "--seeds", "3,4",
                "--param", "train.beta=0.0,0.04", "--out", str(out),
            ]
        )
        assert code == 0
        with open(out / "sweep_summary.csv", encoding="utf-8") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 2
        assert [r["train.beta"] for r in rows] == ["0.0", "0.04"]
        assert all(r["n_seeds"] == "2" for r in rows)

    def test_std_matches_two_pass_oracle(self, smoke_env):
        cfg_path, _, tmp_path = smoke_env
        out = tmp_path / "sweep3"
        main(["sweep", "--config", str(cfg_path), "--seeds", "3,4,5", "--out", str(out)])
        with open(out / "sweep_summary.csv", encoding="utf-8") as fh:
            row = list(csv.DictReader(fh))[0]
        finals = []
        for seed_dir in sorted((out / "cell000").iterdir()):
            last = (seed_dir / "report.jsonl").read_text().strip().split("\n")[-1]
            finals.append(json.loads(last)["rsum"])
        mean = sum(finals) / len(finals)
        var = sum((x - mean) ** 2 for x in finals) / len(finals)
        var_s = sum((x - mean) ** 2 for x in finals) / (len(finals) - 1)
        assert float(row["rsum_mean"]) == pytest.approx(mean, abs=1e-9)
        assert float(row["rsum_std"]) == pytest.approx(var**0.5, abs=1e-9)
        assert float(row["rsum_std_sample"]) == pytest.approx(var_s**0.5, abs=1e-9)

    @pytest.mark.parametrize(
        "extra",
        [
            ["--seeds", "1,1"],
            ["--seeds", "1", "--param", "train.beta=0.0,0.04", "--param", "train.beta=0.1"],
            ["--seeds", "1", "--param", "train.beta=0.0,-1"],
            ["--seeds", "1", "--param", "train.lambda_start_epoch=1,60"],
            ["--seeds", "1", "--param", "train.epochs=1,0"],
            ["--seeds", "1", "--param", "train.batch_size=8,30"],
            ["--seeds", "1", "--param", "data.n_items=24,3"],
        ],
        ids=[
            "repeated-seed", "repeated-key", "rejected-value", "invalid-config", "no-epochs",
            "batch-exceeds-split", "too-few-items",
        ],
    )
    def test_bad_grid_fails_before_any_run(self, smoke_env, capsys, extra):
        cfg_path, _, tmp_path = smoke_env
        out = tmp_path / "bad_sweep"
        assert main(["sweep", "--config", str(cfg_path), *extra, "--out", str(out)]) == 1
        assert "error" in capsys.readouterr().err
        assert not list(out.glob("cell*"))

    def test_too_many_params_rejected(self, smoke_env):
        cfg_path, _, tmp_path = smoke_env
        code = main(
            [
                "sweep", "--config", str(cfg_path), "--seeds", "1",
                "--param", "train.beta=0.1",
                "--param", "train.alpha=0.1",
                "--param", "train.epochs=1",
                "--param", "train.batch_size=4",
                "--out", str(tmp_path / "s"),
            ]
        )
        assert code == 1
