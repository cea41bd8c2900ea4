"""In-memory span tracer that wraps marginforge's public functions from outside.

``Tracer.install`` rebinds each listed function everywhere the package holds
a reference to it: on the defining module and on every module that imported
the name (``trainer`` imports ``forward_batch`` and friends by name, while
``experts`` and ``objective`` reach ``kernels.*`` through the module). The
program's source is never touched. Spans are kept in memory as
``(op, phase, name, start, end, parent)`` tuples and written out once, after
the run; counters are recorded at the same boundaries as the spans.
"""

import json
import os
import sys
import time
from collections import defaultdict
from importlib import import_module

import numpy as np


def _file_bytes(*paths) -> int:
    return sum(os.path.getsize(p) for p in paths if os.path.exists(p))


def _dir_bytes(path) -> int:
    return sum(entry.stat().st_size for entry in os.scandir(path) if entry.is_file())


def _count_triplet_terms(args, kwargs, result):
    dS = result[1]
    return {"dS_nonzero": int(np.count_nonzero(dS)), "dS_entries": int(dS.size)}


def _count_checkpoint_bytes(args, kwargs, result):
    prefix = str(args[1])
    return {"bytes": _file_bytes(prefix + ".ckpt", prefix + ".state.json")}


def _count_queries(args, kwargs, result):
    return {"queries": 2 * int(np.shape(args[0])[0])}


def _count_hashed_bytes(args, kwargs, result):
    return {"bytes": len(args[0])}


def _count_written_bytes(args, kwargs, result):
    return {"bytes": _dir_bytes(args[1])}


# (module, function, counter). Every layer boundary the benchmark times.
LAYERS = (
    ("data", "generate", None),
    ("data", "write_dataset", _count_written_bytes),
    ("data", "load_dataset", None),
    ("data", "fnv1a64", _count_hashed_bytes),
    ("experts", "pairwise_distances", None),
    ("experts", "load_frame_file", None),
    ("experts", "load_static_embeddings", None),
    ("experts", "save_frame_file", None),
    ("experts", "save_static_embeddings", None),
    ("kernels", "pairwise_cosine", None),
    ("kernels", "triplet_terms", _count_triplet_terms),
    ("kernels", "cosine_backward", None),
    ("margin", "rescale_margins", None),
    ("margin", "batch_stats", None),
    ("objective", "similarity_matrix", None),
    ("objective", "full_loss_grad", None),
    ("model", "forward_batch", None),
    ("model", "backward", None),
    ("model", "save_checkpoint", None),
    ("model", "load_checkpoint", None),
    ("trainer", "train_epoch", None),
    ("trainer", "adam_step", None),
    ("trainer", "evaluate_split", None),
    ("trainer", "save_trainer_checkpoint", _count_checkpoint_bytes),
    ("evaluation", "evaluate_bidirectional", _count_queries),
)

ROOT_SPAN = "bench.op"


class Tracer:
    def __init__(self):
        self.spans: list = []
        self.counts = defaultdict(lambda: defaultdict(int))  # (phase, name) -> key -> total
        self.missing: list[str] = []
        self._stack: list[int] = []
        self._patches: list = []
        self.active = False
        self.op = -1
        self.phase = ""

    # -- recording -------------------------------------------------------

    def begin(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        idx = len(self.spans)
        self.spans.append([self.op, self.phase, name, time.perf_counter(), 0.0, parent])
        self._stack.append(idx)
        return idx

    def end(self, idx: int) -> None:
        self.spans[idx][4] = time.perf_counter()
        self._stack.pop()

    def _wrap(self, name, fn, counter):
        tracer = self

        def traced(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            idx = tracer.begin(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.end(idx)
            if counter is not None:
                totals = tracer.counts[(tracer.phase, name)]
                for key, value in counter(args, kwargs, result).items():
                    totals[key] += value
            return result

        traced.__wrapped__ = fn
        return traced

    # -- patching --------------------------------------------------------

    def install(self) -> None:
        """Rebind every listed function on all loaded marginforge modules."""
        package = [m for n, m in list(sys.modules.items()) if n.split(".")[0] == "marginforge"]
        for mod_name, fn_name, counter in LAYERS:
            module = import_module(f"marginforge.{mod_name}")
            original = getattr(module, fn_name, None)
            if original is None:
                self.missing.append(f"{mod_name}.{fn_name}")
                continue
            wrapper = self._wrap(f"{mod_name}.{fn_name}", original, counter)
            for holder in package:
                for attr, value in list(vars(holder).items()):
                    if value is original:
                        setattr(holder, attr, wrapper)
                        self._patches.append((holder, attr, original))
        if self.missing:
            print(f"tracer: layers not found, reported as 0: {self.missing}", file=sys.stderr)

    def uninstall(self) -> None:
        for holder, attr, original in reversed(self._patches):
            setattr(holder, attr, original)
        self._patches.clear()

    # -- output ----------------------------------------------------------

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for op, phase, name, start, end, parent in self.spans:
                fh.write(
                    json.dumps(
                        {"op": op, "phase": phase, "name": name, "start": start,
                         "end": end, "parent": parent}
                    )
                    + "\n"
                )


def summarize(tracer: Tracer, phase: str) -> dict:
    """Per-name totals over one phase: inclusive s, self s and call count.

    Self time is a span's duration minus the time its child spans cover; the
    program is single-threaded, so children never overlap.
    """
    child_time = defaultdict(float)
    for op, ph, name, start, end, parent in tracer.spans:
        if parent >= 0:
            child_time[parent] += end - start
    out = defaultdict(lambda: {"s": 0.0, "self_s": 0.0, "calls": 0})
    for idx, (op, ph, name, start, end, parent) in enumerate(tracer.spans):
        if ph != phase:
            continue
        entry = out[name]
        entry["s"] += end - start
        entry["self_s"] += end - start - child_time[idx]
        entry["calls"] += 1
    return out


def step_times(tracer: Tracer) -> list[float]:
    """Training step durations: from each forward pass inside ``train_epoch``
    to the end of the Adam update that closes the step."""
    children = defaultdict(list)
    for idx, span in enumerate(tracer.spans):
        children[span[5]].append(idx)
    steps = []
    for idx, span in enumerate(tracer.spans):
        if span[2] != "trainer.train_epoch":
            continue
        start = None
        for child in children[idx]:
            _, _, name, t0, t1, _ = tracer.spans[child]
            if name == "model.forward_batch":
                start = t0
            elif name == "trainer.adam_step" and start is not None:
                steps.append(t1 - start)
                start = None
    return steps


def attributed_fraction(tracer: Tracer) -> float:
    """Share of traced operation time covered by the operation's top-level
    program spans (the direct children of each ``bench.op`` root)."""
    roots = {i for i, s in enumerate(tracer.spans) if s[2] == ROOT_SPAN}
    total = sum(tracer.spans[i][4] - tracer.spans[i][3] for i in roots)
    covered = sum(s[4] - s[3] for s in tracer.spans if s[5] in roots)
    return covered / total if total > 0 else 0.0
