"""Smoke test of the benchmark itself, at tiny sizes.

Run from the root of a checkout:

    python3 -m pytest -q perfbench/test_smoke.py
"""

import dataclasses
import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run as bench  # noqa: E402
from gauge import REF_SECONDS  # noqa: E402

SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())
TINY_DATA = {"n_items": 32, "n_concepts": 20}


def tiny(name: str) -> bench.Workload:
    wl = bench.WORKLOADS[name]
    train = None if wl.train is None else {**wl.train, "epochs": 4, "batch_size": 8}
    return dataclasses.replace(wl, data={**wl.data, **TINY_DATA}, train=train)


def test_workloads_match_the_spec():
    assert sorted(w["name"] for w in SPEC["workloads"]) == sorted(bench.WORKLOADS)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("name", sorted(bench.WORKLOADS))
def test_every_metric_is_emitted_with_its_unit(tmp_path, name, trace):
    out = bench.run_benchmark(tiny(name), seed=3, seconds=0.0, trace=bool(trace),
                              work_dir=tmp_path)
    result = out["result"]
    assert result["correct"] and result["failed"] == 0, out["details"]["failures"]
    assert result["attempted"] >= 1 + trace
    expected = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {m["name"]: m["unit"] for m in expected} == {
        k: v["unit"] for k, v in result["metrics"].items()
    }
    for metric in result["metrics"].values():
        assert isinstance(metric["value"], float) and math.isfinite(metric["value"])
    json.dumps(result, allow_nan=False)
    # the tracer leaves the program as it found it
    assert not hasattr(bench.mf_trainer.forward_batch, "__wrapped__")
    assert bench.mf_trainer.forward_batch is bench.mf_model.forward_batch


def test_traced_run_covers_the_training_loop(tmp_path):
    out = bench.run_benchmark(tiny("c6"), seed=3, seconds=0.0, trace=True, work_dir=tmp_path)
    metrics = {k: v["value"] for k, v in out["result"]["metrics"].items()}
    assert metrics["kernels.triplet_terms.calls"] == 4 * 4  # 4 epochs x 4 batches of 8
    assert metrics["trace.attributed_frac"] > 0.5
    assert 0.0 < metrics["kernels.triplet_terms.dS_nonzero_frac"] <= 1.0


def test_each_phase_is_normalised_by_the_readings_around_it():
    ref = REF_SECONDS
    walls = {"write_s": 2.0, "load_s": 1.0}
    per_phase = bench.normalised_phases(walls, [ref, ref, 2 * ref])
    assert per_phase["write_s"] == 2.0
    assert math.isclose(per_phase["load_s"], 1.0 / 1.5)
    assert math.isclose(per_phase["run_s"], 2.0 + 1.0 / 1.5)
    assert per_phase["wall_s"] == 3.0
    # without readings between the phases, the op is normalised as a whole
    whole = bench.normalised_phases(walls, [ref, 2 * ref])
    assert math.isclose(whole["run_s"], 3.0 / 1.5) and "write_s" not in whole


def flip_one_byte(data_dir: Path) -> None:
    path = data_dir / "frames.frm1"
    raw = bytearray(path.read_bytes())
    raw[len(raw) // 2] ^= 0x01
    path.write_bytes(bytes(raw))


def test_corrupted_byte_is_counted_as_failed(tmp_path):
    out = bench.run_benchmark(tiny("ingest-eval"), seed=3, seconds=0.0, trace=False,
                              work_dir=tmp_path, corrupt=flip_one_byte)
    result = out["result"]
    assert not result["correct"]
    assert result["failed"] == result["attempted"] >= 1
    assert out["details"]["failed_frac"] == 1.0
    assert out["details"]["failures"][0].startswith("ChecksumError")


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, *SPEC["command"][1:], "--workload", "c6", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
