"""Toy two-tower encoders mapping video and text features into a joint space.

Each tower is either a single affine map or affine-tanh-affine. Forward
keeps the activations needed for an exact analytic backward pass, and ends
by normalising each tower's outputs once, through ``mathcore.unit_rows``; the
step's similarities, dynamic-expert distances and cosine backward all read
those unit rows and norms.
"""

import math
import os
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import DimMismatchError, ParseError, ShapeMismatchError
from .experts import parse_count, read_container, write_container
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


def _tower_shapes(dims: ModelDims) -> list[list[tuple[int, ...]]]:
    """The shapes of each tower's ``Tower`` fields, video then text, in order:
    ``(w1, b1)`` or ``(w1, b1, w2, b2)``."""
    h, j = dims.hidden, dims.joint
    return [
        [(d_in, j), (j,)] if h == 0 else [(d_in, h), (h,), (h, j), (j,)]
        for d_in in (dims.video_in, dims.text_in)
    ]


def init_params(dims: ModelDims, seed: int) -> TwoTowerModel:
    """Xavier-uniform weights, zero biases; bit-reproducible per seed."""
    rng = named_rng(seed, "init")
    towers = (
        Tower(*(_xavier(rng, *shape) if len(shape) == 2 else np.zeros(shape) for shape in tower))
        for tower in _tower_shapes(dims)
    )
    return TwoTowerModel(dims, *towers)


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
# CKPT3 checkpoint format
# ---------------------------------------------------------------------------
#
#   CKPT3 <video_in> <text_in> <hidden> <joint> <sha256> [adam <epoch> <seed> <t> [<config_hash>]]\n
#   <payload: raw little-endian float64>
#
# A CKPT3 file is a container of ``experts.write_container`` and
# ``experts.read_container``, the skeleton the dataset's row files share.
# The payload holds every parameter array in param_items() order, each in C
# order; a trainer checkpoint, the one with the ``adam`` fields, then adds
# Adam ``m`` and ``v`` in the same order. An empty ``config_hash`` is no
# token. CKPT1 and CKPT2 text files are rejected with a hint to retrain.

CKPT_TAG = "CKPT3"
_RETRAIN_HINT = "CKPT1 and CKPT2 checkpoints are no longer read, retrain to write a CKPT3 file"


@dataclass
class AdamState:
    t: int = 0
    m: dict[str, np.ndarray] = field(default_factory=dict)
    v: dict[str, np.ndarray] = field(default_factory=dict)


@dataclass
class Checkpoint:
    """The contents of one CKPT3 file; ``opt_state`` is None for a model-only file."""

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


def _named_arrays(ckpt: Checkpoint) -> list[tuple[str, np.ndarray]]:
    """Every array of ``ckpt`` in payload order, named as a reader's errors name it."""
    items = ckpt.model.param_items()
    adam = ckpt.opt_state
    if adam is None:
        return items
    return items + [
        (f"{key} {name}", moments[name])
        for key, moments in (("m", adam.m), ("v", adam.v))
        for name, _ in items
    ]


def write_checkpoint(ckpt: Checkpoint, path) -> None:
    """Write ``ckpt`` as one CKPT3 file, swapped in by a single ``os.replace``.

    An interrupted write leaves any old file at ``path`` intact.
    """
    config_hash = ckpt.config_hash
    if not config_hash.isascii() or any(c.isspace() for c in config_hash):
        raise ValueError(f"config_hash {config_hash!r} must be ASCII without whitespace")
    d = ckpt.model.dims
    head = f"{CKPT_TAG} {d.video_in} {d.text_in} {d.hidden} {d.joint}"
    tail = ""
    if ckpt.opt_state is not None:
        tail = f"adam {ckpt.epoch} {ckpt.seed} {ckpt.opt_state.t} {config_hash}".rstrip()
    with replace_on_success(path) as tmp:
        write_container(tmp, head, [arr for _, arr in _named_arrays(ckpt)], tail)


def read_checkpoint(path) -> Checkpoint:
    """Parse a CKPT3 file, checking its tag, header fields, digest, payload length
    and finite values in that order."""

    def layout(fields):
        if len(fields) not in (5, 9, 10) or (len(fields) > 5 and fields[5] != "adam"):
            expected = "<v> <t> <h> <j> <sha256> [adam <epoch> <seed> <t> [<config_hash>]]"
            raise ParseError(f"{path}: expected '{CKPT_TAG} {expected}'", 1)
        counts = [parse_count(p, 1, path) for p in fields[:4]]
        try:
            dims = ModelDims(*counts)
        except ValueError as exc:
            raise ParseError(f"{path}: bad dims: {exc}", 1) from None
        adam = None
        if len(fields) > 5:
            epoch, seed, t = (parse_count(p, 1, path) for p in fields[6:9])
            adam = (epoch, seed, t, fields[9] if len(fields) == 10 else "")
        # the payload's length follows from the dims alone: the model's
        # values, then for a trainer file its Adam m and v
        count = sum(math.prod(shape) for tower in _tower_shapes(dims) for shape in tower)
        return fields[4], count * (1 if adam is None else 3), (dims, adam)

    (dims, adam), flat = read_container(path, CKPT_TAG, _RETRAIN_HINT, layout)
    model = TwoTowerModel(dims, *(Tower(*map(np.empty, tower)) for tower in _tower_shapes(dims)))
    ckpt = Checkpoint(model)
    if adam is not None:
        epoch, seed, t, config_hash = adam
        m = {name: np.empty_like(arr) for name, arr in model.param_items()}
        v = {name: np.empty_like(arr) for name, arr in model.param_items()}
        ckpt = Checkpoint(model, AdamState(t, m, v), epoch, seed, config_hash)
    offset = 0
    for name, arr in _named_arrays(ckpt):
        values = flat[offset : offset + arr.size]
        if not np.isfinite(values).all():
            raise ParseError(f"{path}: {name} holds a non-finite value")
        arr[...] = values.reshape(arr.shape)
        offset += arr.size
    return ckpt


def save_checkpoint(model: TwoTowerModel, path) -> None:
    """Write a model-only CKPT3 file."""
    write_checkpoint(Checkpoint(model), path)


def load_checkpoint(path) -> TwoTowerModel:
    """The model of any CKPT3 file; a trainer file's Adam state is still checked in full."""
    return read_checkpoint(path).model
