"""Toy two-tower encoders mapping video and text features into a joint space.

Each tower is either a single affine map or affine-tanh-affine. Forward
keeps the activations needed for an exact analytic backward pass, and ends
by normalising each tower's outputs once, through ``mathcore.unit_rows``; the
step's similarities, dynamic-expert distances and cosine backward all read
those unit rows and norms.
"""

import os
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import DimMismatchError, ParseError, ShapeMismatchError
from .experts import parse_count, parse_floats, read_records, row_format
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
# CKPT1 checkpoint format
# ---------------------------------------------------------------------------
#
# Header ``CKPT1`` (no counts), then the record ``dims <video_in> <text_in>
# <hidden> <joint>``, then one record per parameter row, in param_items()
# order: every weight matrix contributes one record per input row, every bias
# one record. Blank and comment lines follow ``experts.read_records``. Values
# are written with 18 significant digits, so a load reproduces them exactly.


@contextmanager
def replace_on_success(path):
    """Yield a temp path beside ``path``; move it over ``path`` once the block succeeds.

    If the block raises, the temp file is removed and ``path`` keeps its old
    content, so a reader never sees a half-written file.
    """
    path = Path(path)
    tmp = path.with_name(path.name + ".tmp")
    try:
        yield tmp
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise
    os.replace(tmp, path)


def save_checkpoint(model: TwoTowerModel, path) -> None:
    """Write CKPT1 text; an interrupted write leaves any old file at ``path`` intact."""
    d = model.dims
    with replace_on_success(path) as tmp, open(tmp, "w", encoding="utf-8") as fh:
        fh.write("CKPT1\n")
        fh.write(f"dims {d.video_in} {d.text_in} {d.hidden} {d.joint}\n")
        for _, arr in model.param_items():
            rows = arr if arr.ndim == 2 else arr[None, :]
            fmt = row_format(rows.shape[1])
            for row in rows:
                fh.write(fmt % tuple(row.tolist()))


def load_checkpoint(path) -> TwoTowerModel:
    _, records = read_records(path, "CKPT1", 0)
    lineno, parts = next(records, (None, None))
    if parts is None:
        raise ParseError(f"{path}: no dims line after the CKPT1 header")
    if len(parts) != 5 or parts[0] != "dims":
        raise ParseError(f"{path}: expected 'dims <v> <t> <h> <j>'", lineno)
    counts = [parse_count(p, lineno) for p in parts[1:]]
    try:
        dims = ModelDims(*counts)
    except ValueError as exc:
        raise ParseError(f"{path}: bad dims line: {exc}", lineno) from None

    model = init_params(dims, seed=0)
    for name, arr in model.param_items():
        rows = arr if arr.ndim == 2 else arr[None, :]
        for r in range(rows.shape[0]):
            lineno, vals = next(records, (None, None))
            if vals is None:
                raise ParseError(f"{path}: truncated while reading {name}")
            if len(vals) != rows.shape[1]:
                raise ParseError(
                    f"{name}: expected {rows.shape[1]} values, got {len(vals)}", lineno
                )
            rows[r] = parse_floats(vals, lineno)
    for lineno, _ in records:
        raise ParseError(f"{path}: trailing content after parameters", lineno)
    return model
