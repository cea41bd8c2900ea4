#!/usr/bin/env python3
"""End-to-end and per-layer benchmark for marginforge.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload c6 --seed 1 --seconds 20 --trace 0

Workloads: ``c6`` (the test_c6 CMGSD training run), ``bigbatch`` (the same
recipe at B=1024) and ``ingest-eval`` (write, load and evaluate a 4096-item
dataset). See ``perfbench/README.md`` for why each was chosen and which layer
each per-layer metric belongs to.

One process, one caller, closed loop: an operation starts only after the
previous one ended, until ``--seconds`` have passed. BLAS is pinned to one
thread and nothing else starts a thread or a process. Every operation's
outputs are checked; a failed operation or check is counted in ``failed``.
With ``--trace 0`` the end-to-end metrics are measured with tracing off. With
``--trace 1`` untraced and traced operations alternate: the traced ones give
the per-layer metrics and the difference between the two is the tracing
overhead. The last line of standard output is the JSON result.

Times are normalised for the host's speed: a fixed reference routine
(``gauge.py``) is timed before and after each timed step, and between the
phases of an ``ingest-eval`` operation, and each step's wall time is scaled
by ``REF_SECONDS`` over the mean of the readings around it. The wall times
are printed as well (``wall_*``).
"""

import os

BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import argparse
import json
import math
import platform
import resource
import shutil
import statistics
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"

if not (SRC / "marginforge" / "__init__.py").is_file():
    sys.exit(f"perfbench: no marginforge source at {SRC}; run from a full checkout")
sys.path.insert(0, str(SRC))
sys.path.insert(0, str(Path(__file__).resolve().parent))

import numpy as np  # noqa: E402

# Program functions are called through their modules, so that the tracer's
# rebinding of the module attributes reaches the benchmark's own calls too.
import marginforge  # noqa: E402
import marginforge.data as mf_data  # noqa: E402
import marginforge.model as mf_model  # noqa: E402
import marginforge.trainer as mf_trainer  # noqa: E402
from gauge import Gauge, normalise  # noqa: E402
from tracer import ROOT_SPAN, Tracer, attributed_fraction, step_times, summarize  # noqa: E402

if not Path(marginforge.__file__).resolve().is_relative_to(SRC.resolve()):
    sys.exit(f"perfbench: imported marginforge from {marginforge.__file__}, not from {SRC}")

HIDDEN_DIM = 0
JOINT_DIM = 16

# The planted-duplicate recipe of the test_c6 acceptance run (BENCH_DATA and
# BENCH_TRAIN in tests/test_acceptance.py), copied so that the workloads stay
# fixed when the tests change.
C6_DATA = dict(
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
C6_TRAIN = dict(epochs=60, batch_size=64, learning_rate=3e-4, alpha=0.05, beta=0.04)


@dataclass(frozen=True)
class Workload:
    name: str
    data: dict  # SynthConfig fields except the seed
    train: dict | None  # TrainConfig fields except the seed; None: no training


WORKLOADS = {
    "c6": Workload("c6", C6_DATA, C6_TRAIN),
    # 2048 train items make two full batches of 1024. The lambda schedule is
    # squeezed into four epochs: epoch 1 is the mean-mining warm-up with only
    # SSE weight, epochs 2-4 give both DSE and SSE slots weight (0.1 to 0.46).
    "bigbatch": Workload(
        "bigbatch",
        {**C6_DATA, "n_items": 2560, "n_concepts": 1600},
        {**C6_TRAIN, "epochs": 4, "batch_size": 1024,
         "lambda_start_epoch": 2, "lambda_end_epoch": 5},
    ),
    # 819 val items; 16.4 MB of FRM1/EMB1 text plus labels, splits and manifest.
    "ingest-eval": Workload("ingest-eval", {**C6_DATA, "n_items": 4096, "n_concepts": 2560}, None),
}

END_TO_END = {
    "setup_s": "s",
    "run_s": "s",
    "peak_rss_mb": "MiB",
}

# (metric, unit): "<layer>.<field>" where field "s" is inclusive seconds per
# operation, "self_s" excludes time in traced child layers and "calls" counts.
_LAYER_FIELDS = (
    ("kernels.triplet_terms.s", "s"),
    ("kernels.triplet_terms.calls", "count"),
    ("experts.pairwise_distances.self_s", "s"),
    ("kernels.pairwise_cosine.s", "s"),
    ("margin.rescale_margins.self_s", "s"),
    ("margin.batch_stats.s", "s"),
    ("kernels.cosine_backward.s", "s"),
    ("objective.similarity_matrix.self_s", "s"),
    ("objective.full_loss_grad.self_s", "s"),
    ("model.forward_batch.s", "s"),
    ("model.backward.s", "s"),
    ("trainer.adam_step.s", "s"),
    ("trainer.save_trainer_checkpoint.s", "s"),
    ("model.save_checkpoint.s", "s"),
    ("evaluation.evaluate_bidirectional.s", "s"),
    ("trainer.evaluate_split.self_s", "s"),
    ("data.fnv1a64.s", "s"),
    ("data.load_dataset.self_s", "s"),
    ("experts.load_frame_file.s", "s"),
    ("experts.load_static_embeddings.s", "s"),
    ("model.load_checkpoint.s", "s"),
    ("data.write_dataset.s", "s"),
    ("experts.save_frame_file.s", "s"),
    ("experts.save_static_embeddings.s", "s"),
    ("trainer.train_epoch.s", "s"),
)
# (metric, unit, layer, counter key): counter totals per operation
_LAYER_COUNTS = (
    ("trainer.save_trainer_checkpoint.bytes", "B", "trainer.save_trainer_checkpoint", "bytes"),
    ("evaluation.evaluate_bidirectional.queries", "count", "evaluation.evaluate_bidirectional", "queries"),
    ("data.fnv1a64.bytes", "B", "data.fnv1a64", "bytes"),
    ("data.write_dataset.bytes", "B", "data.write_dataset", "bytes"),
)
PER_LAYER = {
    **{name: unit for name, unit in _LAYER_FIELDS},
    **{name: unit for name, unit, _, _ in _LAYER_COUNTS},
    "kernels.triplet_terms.dS_nonzero_frac": "fraction",
    "trainer.step_s.p50": "s",
    "trainer.step_s.p90": "s",
    "data.generate.s": "s",
    "trace.run_s": "s",
    "trace.overhead_frac": "fraction",
    "trace.attributed_frac": "fraction",
}


class CheckFailed(Exception):
    """An output of the program is wrong."""


def check(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


# ---------------------------------------------------------------------------
# set-up and operations
# ---------------------------------------------------------------------------

@dataclass
class Fixture:
    dataset: object
    cfg: object = None  # TrainConfig of a training workload
    model: object = None  # ingest-eval: the model stored in ``ckpt``
    ckpt: Path | None = None
    expected: dict | None = None  # ingest-eval: eval record of the in-memory model


def fit_eval_model(dataset, seed: int):
    """A fixed, well-aligned model to evaluate: a random video tower and a
    text tower fitted to it by least squares on the train split."""
    dims = mf_model.ModelDims(dataset.frames.shape[2], dataset.text.shape[1], HIDDEN_DIM, JOINT_DIM)
    model = mf_model.init_params(dims, seed)
    rows = dataset.rows(dataset.train_ids)
    target = dataset.pooled_video()[rows] @ model.video.w1 + model.video.b1
    model.text.w1[...] = np.linalg.lstsq(dataset.text[rows], target, rcond=None)[0]
    return model


def setup(wl: Workload, seed: int, work_dir: Path) -> Fixture:
    """Data generation, config and fixtures: everything before the first
    timed operation."""
    dataset = mf_data.generate(mf_data.SynthConfig(seed=seed, **wl.data))
    if wl.train is not None:
        cfg = mf_trainer.TrainConfig(seed=seed, **wl.train)
        cfg.validate(len(dataset.train_ids))
        return Fixture(dataset, cfg=cfg)
    model = fit_eval_model(dataset, seed)
    ckpt = work_dir / "eval_model.ckpt"
    mf_model.save_checkpoint(model, ckpt)
    return Fixture(dataset, model=model, ckpt=ckpt)


def eval_record(t2v, v2t, rsum) -> dict:
    record = {}
    for prefix, rep in (("t2v", t2v), ("v2t", v2t)):
        for k, value in rep.r_at.items():
            record[f"{prefix}_R{k}"] = value
        record[f"{prefix}_MdR"] = rep.mdr
    record["rsum"] = rsum
    return record


def check_finite(record: dict, where: str) -> None:
    for key, value in record.items():
        check(math.isfinite(value), f"{where}: {key} = {value} is not finite")


def same_params(a, b) -> bool:
    pa, pb = a.param_items(), b.param_items()
    return [n for n, _ in pa] == [n for n, _ in pb] and all(
        np.array_equal(x, y) for (_, x), (_, y) in zip(pa, pb)
    )


# Each workload has a timed ``run`` returning (phase wall times, outputs) and
# an untimed, untraced ``check`` returning the records every operation of one
# seed must reproduce exactly. ``between()`` is called, untimed, between two
# phases of an operation; the harness reads the machine-speed gauge there.

def train_run(fx: Fixture, op_dir: Path, corrupt=None, between=None):
    """One training run with per-epoch validation and checkpoints."""
    t0 = time.perf_counter()
    outputs = mf_trainer.run_training(fx.dataset, fx.cfg, HIDDEN_DIM, JOINT_DIM, op_dir)
    return {"train_s": time.perf_counter() - t0}, outputs


def train_check(fx: Fixture, op_dir: Path, outputs) -> list[dict]:
    final, records = outputs
    epochs = fx.cfg.epochs
    check(len(records) == epochs, f"{len(records)} report records for {epochs} epochs")
    for record in records:
        check_finite(record, f"epoch {record['epoch']}")
    saved = mf_trainer.load_trainer_checkpoint(op_dir / "checkpoint_final")
    check(same_params(saved.model, final.model), "checkpoint_final does not reload to the returned model")
    check(saved.epoch == epochs and saved.opt_state.t == final.opt_state.t,
          "checkpoint_final epoch or Adam step differs from the returned state")
    for name, _ in final.model.param_items():
        check(np.array_equal(saved.opt_state.m[name], final.opt_state.m[name])
              and np.array_equal(saved.opt_state.v[name], final.opt_state.v[name]),
              f"checkpoint_final Adam moments for {name} differ from the returned state")
    return records


def ingest_run(fx: Fixture, op_dir: Path, corrupt=None, between=None):
    """gen-data -> eval: write the dataset, load it back (verifying every
    manifest digest), load the stored model and evaluate the val split.
    ``corrupt(data_dir)``, when given, damages the written files first."""
    between = between or (lambda: None)
    data_dir = op_dir / "data"
    t0 = time.perf_counter()
    mf_data.write_dataset(fx.dataset, data_dir)
    write_s = time.perf_counter() - t0
    between()
    if corrupt is not None:
        corrupt(data_dir)
    t0 = time.perf_counter()
    loaded = mf_data.load_dataset(data_dir)
    load_s = time.perf_counter() - t0
    between()
    t0 = time.perf_counter()
    model = mf_model.load_checkpoint(fx.ckpt)
    ckpt_s = time.perf_counter() - t0
    between()
    t0 = time.perf_counter()
    report = mf_trainer.evaluate_split(model, loaded, loaded.val_ids)
    eval_s = time.perf_counter() - t0
    timings = {"write_s": write_s, "load_s": load_s, "ckpt_s": ckpt_s, "eval_s": eval_s}
    return timings, (loaded, model, report)


def ingest_check(fx: Fixture, op_dir: Path, outputs) -> list[dict]:
    loaded, model, report = outputs
    src = fx.dataset
    check(loaded.ids == src.ids, "ids differ after write/load")
    check(loaded.train_ids == src.train_ids and loaded.val_ids == src.val_ids,
          "splits differ after write/load")
    check(np.array_equal(loaded.concepts, src.concepts), "concepts differ after write/load")
    for name, a, b in (
        ("frames", loaded.frames, src.frames),
        ("text", loaded.text, src.text),
        ("sse_video", loaded.sse_video.embeddings, src.sse_video.embeddings),
        ("sse_text", loaded.sse_text.embeddings, src.sse_text.embeddings),
    ):
        check(a.shape == b.shape and np.array_equal(a, b), f"{name} not bit-exact after write/load")
    check(loaded.sse_video.ids == src.sse_video.ids and loaded.sse_text.ids == src.sse_text.ids,
          "static embedding ids differ after write/load")
    check(same_params(model, fx.model), "stored model does not reload bit-exact")
    record = eval_record(*report)
    check_finite(record, "eval")
    check(record == fx.expected, f"eval of the loaded data {record} != in-memory eval {fx.expected}")
    record["bytes"] = sum(p.stat().st_size for p in (op_dir / "data").iterdir())
    return [record]


# ---------------------------------------------------------------------------
# the run
# ---------------------------------------------------------------------------

def median(values):
    return statistics.median(values) if values else 0.0


def percentile(values, q):
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(math.ceil(q * len(ordered))) - 1)]


def run_benchmark(wl: Workload, seed: int, seconds: float, trace: bool, work_dir: Path,
                  corrupt=None) -> dict:
    """Set up, run operations in a closed loop for ``seconds``, check them.

    Returns ``result`` (the JSON result object), ``details`` for the
    human-readable report and ``tracer`` (None unless tracing).
    """
    tracer = Tracer() if trace else None
    if tracer is not None:
        tracer.install()
    work_dir.mkdir(parents=True, exist_ok=True)
    try:
        return _run(wl, seed, seconds, tracer, work_dir, corrupt)
    finally:
        if tracer is not None:
            tracer.uninstall()


def _traced_call(tracer, phase, op, fn, *args):
    """Call ``fn`` under a root span when tracing, plainly otherwise."""
    if tracer is None:
        return fn(*args)
    tracer.active, tracer.phase, tracer.op = True, phase, op
    root = tracer.begin(ROOT_SPAN if phase == "op" else "bench.setup")
    try:
        return fn(*args)
    finally:
        tracer.end(root)
        tracer.active = False


def normalised_phases(walls: dict, readings: list) -> dict:
    """Per-phase normalised seconds of one op, plus ``run_s`` (their sum)
    and ``wall_s``. ``readings`` are the gauge readings from the one just
    before the op to the one just after it; when there is one between each
    two phases, each phase is normalised by the readings around it, else
    the whole op by the first and the last."""
    wall = sum(walls.values())
    if len(readings) == len(walls) + 1:
        norm = {name: normalise(w, readings[i], readings[i + 1])
                for i, (name, w) in enumerate(walls.items())}
        return {**norm, "run_s": sum(norm.values()), "wall_s": wall}
    return {"run_s": normalise(wall, readings[0], readings[-1]), "wall_s": wall}


def _run(wl, seed, seconds, tracer, work_dir, corrupt):
    # The machine-speed gauge is read before and after every timed step, and
    # the step's wall time is normalised by the mean of the two readings
    # (gauge.py). Set-up runs once before the first operation and again after
    # each one, so that setup_s, like run_s, samples the whole run.
    gauge = Gauge()
    readings = [gauge.time()]
    setup_times, setup_walls = [], []  # normalised and wall seconds

    def read_gauge():
        readings.append(gauge.time())

    def timed_setup():
        t0 = time.perf_counter()
        fixture = _traced_call(tracer, "setup", len(setup_times), setup, wl, seed, work_dir)
        wall = time.perf_counter() - t0
        read_gauge()
        setup_walls.append(wall)
        setup_times.append(normalise(wall, readings[-2], readings[-1]))
        return fixture

    fx = timed_setup()
    if wl.train is not None:
        run_op, check_op = train_run, train_check
    else:
        run_op, check_op = ingest_run, ingest_check
        fx.expected = eval_record(*mf_trainer.evaluate_split(fx.model, fx.dataset, fx.dataset.val_ids))

    attempted, failures = 0, []
    timings = {False: [], True: []}  # traced? -> per-op timing dicts
    reference = None
    deadline = time.perf_counter() + seconds
    while True:
        traced = tracer is not None and attempted % 2 == 1
        op_dir = work_dir / f"op{attempted}"
        attempted += 1
        first = len(readings) - 1
        try:
            # A traced op reads the gauge only around it, so that the gauge
            # stays out of its spans.
            t, outputs = _traced_call(tracer if traced else None, "op", attempted,
                                      run_op, fx, op_dir, corrupt, None if traced else read_gauge)
            read_gauge()
            timing = normalised_phases(t, readings[first:])
            records = check_op(fx, op_dir, outputs)
            if reference is None:
                reference = records
            check(records == reference, "outputs differ from the first operation of this seed")
            timings[traced].append(timing)
        except Exception as exc:  # the loop must go on and count the failure
            traceback.print_exc(file=sys.stderr)
            failures.append(f"{type(exc).__name__}: {exc}")
        finally:
            shutil.rmtree(op_dir, ignore_errors=True)
        timed_setup()
        if time.perf_counter() >= deadline and (tracer is None or attempted % 2 == 0):
            break

    plain = timings[False]
    correct = not failures and bool(plain) and (tracer is None or bool(timings[True]))
    run_s = median([t["run_s"] for t in plain])
    details = {
        "ops": {"untraced": len(plain), "traced": len(timings[True])},
        "failures": failures,
        "failed_frac": len(failures) / attempted,
        "op_s": [t["run_s"] for t in plain],
        "wall_op_s": [t["wall_s"] for t in plain],
        "wall_run_s": median([t["wall_s"] for t in plain]),
        "wall_setup_s": median(setup_walls),
        "gauge_s": median(readings),
    }
    if reference:
        last = reference[-1]
        details["final_rsum"] = last["rsum"]
        if wl.train is not None:
            details["final_loss"] = last["loss_total"]
            pairs = len(fx.dataset.train_ids) * fx.cfg.epochs
            details["train_samples_per_s"] = pairs / run_s
        else:
            mb = last["bytes"] / 1e6
            details["write_mb_per_s"] = median([mb / t["write_s"] for t in plain])
            details["load_mb_per_s"] = median([mb / t["load_s"] for t in plain])
            queries = 2 * len(fx.dataset.val_ids)
            details["eval_queries_per_s"] = median([queries / t["eval_s"] for t in plain])

    if tracer is None:
        values = {
            "setup_s": median(setup_times),
            "run_s": run_s,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        units = END_TO_END
    else:
        values = layer_metrics(tracer, len(timings[True]), run_s,
                               median([t["run_s"] for t in timings[True]]))
        units = PER_LAYER
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": values[name], "unit": units[name]} for name in units},
    }
    return {"result": result, "details": details, "tracer": tracer}


def layer_metrics(tracer: Tracer, n_ops: int, untraced_run_s: float, traced_run_s: float) -> dict:
    per_op = 1.0 / max(n_ops, 1)
    spans = summarize(tracer, "op")
    values = {}
    for metric, _ in _LAYER_FIELDS:
        layer, field = metric.rsplit(".", 1)
        values[metric] = spans[layer][field] * per_op if layer in spans else 0.0
    for metric, _, layer, key in _LAYER_COUNTS:
        values[metric] = tracer.counts[("op", layer)][key] * per_op
    tt = tracer.counts[("op", "kernels.triplet_terms")]
    values["kernels.triplet_terms.dS_nonzero_frac"] = (
        tt["dS_nonzero"] / tt["dS_entries"] if tt["dS_entries"] else 0.0
    )
    steps = step_times(tracer)
    values["trainer.step_s.p50"] = median(steps)
    values["trainer.step_s.p90"] = percentile(steps, 0.9)
    setup_spans = summarize(tracer, "setup")["data.generate"]
    values["data.generate.s"] = setup_spans["s"] / max(setup_spans["calls"], 1)
    values["trace.run_s"] = traced_run_s
    values["trace.overhead_frac"] = (
        traced_run_s / untraced_run_s - 1.0 if untraced_run_s > 0 else 0.0
    )
    values["trace.attributed_frac"] = attributed_fraction(tracer)
    return values


# ---------------------------------------------------------------------------
# environment and output
# ---------------------------------------------------------------------------

def git_commit() -> str:
    """HEAD of the checkout, read from .git without starting a process."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def environment(wl: Workload, seed: int, trace: bool) -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    return {
        "workload": wl.name,
        "seed": seed,
        "trace": int(trace),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": int(BLAS_THREADS),
        "nproc": os.cpu_count(),
        "backend": getattr(marginforge, "BACKEND", "numpy"),
        "commit": git_commit(),
        "machine": platform.machine(),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    wl = WORKLOADS[args.workload]
    trace = bool(args.trace)
    env = environment(wl, args.seed, trace)
    run_dir = WORK / f"{wl.name}-seed{args.seed}-trace{args.trace}"
    try:
        out = run_benchmark(wl, args.seed, args.seconds, trace, run_dir / "scratch")
    finally:
        shutil.rmtree(run_dir / "scratch", ignore_errors=True)
    result, details = out["result"], out["details"]
    if out["tracer"] is not None:
        out["tracer"].write(run_dir / "spans.jsonl")
    (run_dir / "result.json").write_text(
        json.dumps({"env": env, "details": details, "result": result}, indent=1) + "\n"
    )

    print("env " + json.dumps(env))
    for key, value in details.items():
        print(f"{key} {value}")
    for name, metric in result["metrics"].items():
        print(f"{name} {metric['value']:.6g} {metric['unit']}")
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
