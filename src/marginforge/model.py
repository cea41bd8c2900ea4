"""Toy two-tower encoders mapping video and text features into a joint space.

Each tower is either a single affine map or affine-tanh-affine. Forward
keeps the activations needed for an exact analytic backward pass, and ends
by normalising each tower's outputs once, through ``mathcore.unit_rows``; the
step's similarities, dynamic-expert distances and cosine backward all read
those unit rows and norms.
"""

import os
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import DimMismatchError, ParseError, ShapeMismatchError
from .experts import FloatRows, parse_count, read_records, row_format
from .mathcore import unit_rows
from .seeding import named_rng


@dataclass(frozen=True)
class ModelDims:
    video_in: int
    text_in: int
    hidden: int  # 0 means a single affine layer per tower
    joint: int

    def __post_init__(self):
        if min(self.video_in, self.text_in, self.joint) < 1 or self.hidden < 0:
            raise ValueError(f"invalid tower dims {self}")


@dataclass
class Tower:
    w1: np.ndarray
    b1: np.ndarray
    w2: np.ndarray | None = None
    b2: np.ndarray | None = None


@dataclass
class TwoTowerModel:
    dims: ModelDims
    video: Tower
    text: Tower

    def param_items(self) -> list[tuple[str, np.ndarray]]:
        """All parameter arrays in the fixed serialization order."""
        items = []
        for tower_name, tower in (("video", self.video), ("text", self.text)):
            items.append((f"{tower_name}.w1", tower.w1))
            items.append((f"{tower_name}.b1", tower.b1))
            if tower.w2 is not None:
                items.append((f"{tower_name}.w2", tower.w2))
                items.append((f"{tower_name}.b2", tower.b2))
        return items


@dataclass
class ForwardState:
    """Batch inputs and activations retained for the backward pass."""

    pooled_video: np.ndarray  # (B, video_in)
    text_feats: np.ndarray  # (B, text_in)
    video_hidden: np.ndarray | None  # tanh outputs, (B, hidden)
    text_hidden: np.ndarray | None
    video_reprs: np.ndarray  # (B, joint)
    text_reprs: np.ndarray
    video_units: np.ndarray  # video_reprs / video_norms[:, None]
    text_units: np.ndarray
    video_norms: np.ndarray  # (B,)
    text_norms: np.ndarray


def _xavier(rng: np.random.Generator, fan_in: int, fan_out: int) -> np.ndarray:
    a = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-a, a, size=(fan_in, fan_out))


def _init_tower(rng: np.random.Generator, d_in: int, hidden: int, joint: int) -> Tower:
    if hidden == 0:
        return Tower(_xavier(rng, d_in, joint), np.zeros(joint))
    return Tower(
        _xavier(rng, d_in, hidden),
        np.zeros(hidden),
        _xavier(rng, hidden, joint),
        np.zeros(joint),
    )


def init_params(dims: ModelDims, seed: int) -> TwoTowerModel:
    """Xavier-uniform weights, zero biases; bit-reproducible per seed."""
    rng = named_rng(seed, "init")
    video = _init_tower(rng, dims.video_in, dims.hidden, dims.joint)
    text = _init_tower(rng, dims.text_in, dims.hidden, dims.joint)
    return TwoTowerModel(dims, video, text)


def _tower_forward(tower: Tower, x: np.ndarray) -> tuple[np.ndarray, np.ndarray | None]:
    if tower.w2 is None:
        return x @ tower.w1 + tower.b1, None
    hidden = np.tanh(x @ tower.w1 + tower.b1)
    return hidden @ tower.w2 + tower.b2, hidden


def forward_batch(model: TwoTowerModel, pooled_video, text_feats) -> ForwardState:
    pooled_video = np.atleast_2d(np.asarray(pooled_video, dtype=np.float64))
    text_feats = np.atleast_2d(np.asarray(text_feats, dtype=np.float64))
    if pooled_video.shape[1] != model.dims.video_in:
        raise DimMismatchError(
            f"video input dim {pooled_video.shape[1]} != tower dim {model.dims.video_in}"
        )
    if text_feats.shape[1] != model.dims.text_in:
        raise DimMismatchError(
            f"text input dim {text_feats.shape[1]} != tower dim {model.dims.text_in}"
        )
    rv, hv = _tower_forward(model.video, pooled_video)
    rt, ht = _tower_forward(model.text, text_feats)
    uv, nv = unit_rows(rv, "video")
    ut, nt = unit_rows(rt, "text")
    return ForwardState(pooled_video, text_feats, hv, ht, rv, rt, uv, ut, nv, nt)


def _tower_backward(tower: Tower, x: np.ndarray, hidden, d_out: np.ndarray) -> dict:
    if tower.w2 is None:
        return {"w1": x.T @ d_out, "b1": d_out.sum(axis=0)}
    dw2 = hidden.T @ d_out
    db2 = d_out.sum(axis=0)
    d_hidden = (d_out @ tower.w2.T) * (1.0 - hidden * hidden)
    return {
        "w1": x.T @ d_hidden,
        "b1": d_hidden.sum(axis=0),
        "w2": dw2,
        "b2": db2,
    }


def backward(model: TwoTowerModel, state: ForwardState, grad_video_reprs, grad_text_reprs) -> dict:
    """Exact chain-rule parameter gradients; keys match ``param_items`` names."""
    grad_video_reprs = np.asarray(grad_video_reprs, dtype=np.float64)
    grad_text_reprs = np.asarray(grad_text_reprs, dtype=np.float64)
    if grad_video_reprs.shape != state.video_reprs.shape:
        raise ShapeMismatchError(
            f"video grad shape {grad_video_reprs.shape} != {state.video_reprs.shape}"
        )
    if grad_text_reprs.shape != state.text_reprs.shape:
        raise ShapeMismatchError(
            f"text grad shape {grad_text_reprs.shape} != {state.text_reprs.shape}"
        )
    grads = {}
    for name, tower, x, hidden, d_out in (
        ("video", model.video, state.pooled_video, state.video_hidden, grad_video_reprs),
        ("text", model.text, state.text_feats, state.text_hidden, grad_text_reprs),
    ):
        for pname, arr in _tower_backward(tower, x, hidden, d_out).items():
            grads[f"{name}.{pname}"] = arr
    return grads


# ---------------------------------------------------------------------------
# CKPT2 checkpoint format
# ---------------------------------------------------------------------------
#
#   CKPT2
#   dims <video_in> <text_in> <hidden> <joint>
#   <one record per parameter row, param_items() order>   # every checkpoint
#   adam <epoch> <seed> <t> [<config_hash>]               # trainer checkpoints only
#   <m rows, same order>
#   <v rows, same order>
#
# A weight matrix gives one record per input row, a bias one record. A
# model-only file ends after the parameter rows; an empty ``config_hash`` is
# no token. Line rules: ``experts.read_records``. Every float goes out through
# ``experts.row_format`` and back through ``experts.FloatRows``, bit-exact. A
# CKPT1 header is rejected with a hint to retrain.

CKPT_TAG = "CKPT2"


@dataclass
class AdamState:
    t: int = 0
    m: dict[str, np.ndarray] = field(default_factory=dict)
    v: dict[str, np.ndarray] = field(default_factory=dict)


@dataclass
class Checkpoint:
    """The contents of one CKPT2 file; ``opt_state`` is None for a model-only file."""

    model: TwoTowerModel
    opt_state: AdamState | None = None
    epoch: int = 0
    seed: int = 0
    config_hash: str = ""


@contextmanager
def replace_on_success(path):
    """Yield a temp path beside ``path``; move it over ``path`` once the block succeeds.

    If the block or the move raises, the temp file is removed and ``path``
    keeps its old content, so a reader never sees a half-written file.
    """
    path = Path(path)
    tmp = path.with_name(path.name + ".tmp")
    try:
        yield tmp
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def _write_rows(fh, arrays) -> None:
    for arr in arrays:
        rows = arr if arr.ndim == 2 else arr[None, :]
        fh.write((row_format(rows.shape[1]) * rows.shape[0]) % tuple(rows.ravel().tolist()))


def write_checkpoint(ckpt: Checkpoint, path) -> None:
    """Write ``ckpt`` as one CKPT2 file, swapped in by a single ``os.replace``.

    An interrupted write leaves any old file at ``path`` intact.
    """
    if any(c.isspace() for c in ckpt.config_hash):
        raise ValueError(f"config_hash {ckpt.config_hash!r} must not contain whitespace")
    items = ckpt.model.param_items()
    d = ckpt.model.dims
    with replace_on_success(path) as tmp, open(tmp, "w", encoding="utf-8") as fh:
        fh.write(f"{CKPT_TAG}\ndims {d.video_in} {d.text_in} {d.hidden} {d.joint}\n")
        _write_rows(fh, [arr for _, arr in items])
        adam = ckpt.opt_state
        if adam is not None:
            fh.write(f"adam {ckpt.epoch} {ckpt.seed} {adam.t} {ckpt.config_hash}".rstrip() + "\n")
            _write_rows(fh, [moments[name] for moments in (adam.m, adam.v) for name, _ in items])


def _read_rows(path, records, items, lineno: int) -> int:
    """Fill each ``(name, array)`` of ``items`` from the next records; return the last line read."""
    flat = np.empty(sum(arr.size for _, arr in items))
    offset = 0
    with FloatRows(path, flat) as block:
        for name, arr in items:
            width = arr.shape[-1]
            for _ in range(arr.size // width):
                lineno, vals = next(records, (lineno, None))
                if vals is None:
                    raise ParseError(f"{path}: file ends after this line, inside {name}", lineno)
                if len(vals) != width:
                    message = f"{path}: {name}: {len(vals)} values, expected {width}"
                    raise ParseError(message, lineno)
                block.add(lineno, vals, offset)
                offset += width
    offset = 0
    for _, arr in items:
        arr[...] = flat[offset : offset + arr.size].reshape(arr.shape)
        offset += arr.size
    return lineno


def read_checkpoint(path) -> Checkpoint:
    """Parse a CKPT2 file, the ``adam`` section included when there is one."""
    try:
        _, records = read_records(path, CKPT_TAG, 0)
    except ParseError as exc:
        hint = "CKPT1 checkpoints are no longer read, retrain to write a CKPT2 file"
        raise ParseError(f"{path}: expected a {CKPT_TAG} header; {hint}", exc.line) from None
    lineno, parts = next(records, (None, []))
    if len(parts) != 5 or parts[0] != "dims":
        raise ParseError(f"{path}: expected 'dims <v> <t> <h> <j>'", lineno)
    counts = [parse_count(p, lineno, path) for p in parts[1:]]
    try:
        dims = ModelDims(*counts)
    except ValueError as exc:
        raise ParseError(f"{path}: bad dims line: {exc}", lineno) from None

    model = init_params(dims, seed=0)
    items = model.param_items()
    lineno = _read_rows(path, records, items, lineno)
    lineno, parts = next(records, (lineno, None))
    if parts is None:
        return Checkpoint(model)
    if parts[0] != "adam" or len(parts) not in (4, 5):
        raise ParseError(f"{path}: expected 'adam <epoch> <seed> <t> [<config_hash>]'", lineno)
    epoch, seed, t = (parse_count(p, lineno, path) for p in parts[1:4])
    adam = AdamState(t)
    for key, moments in (("m", adam.m), ("v", adam.v)):
        moments.update((name, np.empty_like(arr)) for name, arr in items)
        lineno = _read_rows(path, records, [(f"{key} {n}", a) for n, a in moments.items()], lineno)
    for lineno, _ in records:
        raise ParseError(f"{path}: trailing content after the adam section", lineno)
    return Checkpoint(model, adam, epoch, seed, parts[4] if len(parts) == 5 else "")


def save_checkpoint(model: TwoTowerModel, path) -> None:
    """Write a model-only CKPT2 file."""
    write_checkpoint(Checkpoint(model), path)


def load_checkpoint(path) -> TwoTowerModel:
    """The model of any CKPT2 file; an ``adam`` section is still checked in full."""
    return read_checkpoint(path).model
