"""Toy two-tower encoders mapping video and text features into a joint space.

Each tower is either a single affine map or affine-tanh-affine. Forward
keeps the activations needed for an exact analytic backward pass, and ends
by normalising each tower's outputs once, through ``mathcore.unit_rows``; the
step's similarities, dynamic-expert distances and cosine backward all read
those unit rows and norms.

A model's parameters are one float64 vector, a ``ParamVector`` in the
layout of ``param_layout``; the ``Tower`` fields are views into it. A step's
gradients and Adam's two moments are vectors of the same layout, so the
optimizer, the finite check and the checkpoint each make one pass over a
whole vector.
"""

import functools
import math
import os
from collections.abc import Mapping
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import DimMismatchError, NonFiniteError, ParseError, ShapeMismatchError
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


_TOWER_FIELDS = ("w1", "b1", "w2", "b2")


def param_layout(dims: ModelDims) -> tuple:
    """``((name, shape), ...)`` of every parameter array, in payload order:
    per tower, video then text, ``w1`` and ``b1``, then with a hidden layer
    ``w2`` and ``b2``."""
    h, j = dims.hidden, dims.joint
    layout = []
    for tower, d_in in (("video", dims.video_in), ("text", dims.text_in)):
        shapes = [(d_in, j), (j,)] if h == 0 else [(d_in, h), (h,), (h, j), (j,)]
        layout += [(f"{tower}.{name}", shape) for name, shape in zip(_TOWER_FIELDS, shapes)]
    return tuple(layout)


@functools.lru_cache(maxsize=16)
def _spans(layout) -> tuple[int, tuple]:
    """The number of values of ``layout`` and each array's ``(name, start, stop, shape)``."""
    spans, offset = [], 0
    for name, shape in layout:
        spans.append((name, offset, offset + math.prod(shape), shape))
        offset += math.prod(shape)
    return offset, tuple(spans)


class ParamVector(Mapping):
    """One float64 vector, read as the named arrays of ``layout``.

    ``flat`` holds the arrays of ``layout``, ``((name, shape), ...)``, one
    after another, each in C order; ``vec[name]`` is that array, a view of
    ``flat``, so writing either one writes both.
    """

    def __init__(self, layout, flat: np.ndarray):
        size, spans = _spans(layout)
        if flat.dtype != np.float64 or flat.shape != (size,) or not flat.flags.c_contiguous:
            raise ShapeMismatchError(
                f"a parameter vector needs {size} contiguous float64 values, "
                f"got {flat.dtype} of shape {flat.shape}"
            )
        self.layout = layout
        self.flat = flat
        self._views = {name: flat[start:stop].reshape(shape) for name, start, stop, shape in spans}

    @classmethod
    def zeros(cls, layout) -> "ParamVector":
        return cls(layout, np.zeros(_spans(layout)[0]))

    def __getitem__(self, name: str) -> np.ndarray:
        return self._views[name]

    def __iter__(self):
        return iter(self._views)

    def __len__(self) -> int:
        return len(self._views)


@dataclass
class Tower:
    w1: np.ndarray
    b1: np.ndarray
    w2: np.ndarray | None = None
    b2: np.ndarray | None = None


def _towers(vec: ParamVector) -> list[Tower]:
    """The video and the text ``Tower`` of a vector in a model's layout, as views."""
    arrays = list(vec.values())
    half = len(arrays) // 2
    return [Tower(*arrays[:half]), Tower(*arrays[half:])]


@dataclass(eq=False)
class TwoTowerModel:
    """Two towers whose arrays are views of one parameter vector, ``params``."""

    dims: ModelDims
    params: ParamVector
    video: Tower = field(init=False)
    text: Tower = field(init=False)

    def __post_init__(self):
        if self.params.layout != param_layout(self.dims):
            raise ShapeMismatchError(f"parameter layout does not match the dims {self.dims}")
        self.video, self.text = _towers(self.params)

    def param_items(self) -> list[tuple[str, np.ndarray]]:
        """All parameter arrays in the fixed serialization order, as views of ``params.flat``."""
        return list(self.params.items())


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


def init_params(dims: ModelDims, seed: int) -> TwoTowerModel:
    """Xavier-uniform weights, zero biases; bit-reproducible per seed."""
    rng = named_rng(seed, "init")
    params = ParamVector.zeros(param_layout(dims))
    for arr in params.values():
        if arr.ndim == 2:
            arr[...] = _xavier(rng, *arr.shape)
    return TwoTowerModel(dims, params)


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


def _tower_backward(tower: Tower, x: np.ndarray, hidden, d_out: np.ndarray, out: Tower) -> None:
    """Write the tower's parameter gradients into the arrays of ``out``."""
    if tower.w2 is None:
        np.matmul(x.T, d_out, out=out.w1)
        np.add.reduce(d_out, axis=0, out=out.b1)
        return
    np.matmul(hidden.T, d_out, out=out.w2)
    np.add.reduce(d_out, axis=0, out=out.b2)
    d_hidden = (d_out @ tower.w2.T) * (1.0 - hidden * hidden)
    np.matmul(x.T, d_hidden, out=out.w1)
    np.add.reduce(d_hidden, axis=0, out=out.b1)


def backward(
    model: TwoTowerModel, state: ForwardState, grad_video_reprs, grad_text_reprs
) -> ParamVector:
    """Exact chain-rule parameter gradients, one vector in the model's layout."""
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
    grads = ParamVector(model.params.layout, np.empty_like(model.params.flat))
    video, text = _towers(grads)
    _tower_backward(model.video, state.pooled_video, state.video_hidden, grad_video_reprs, video)
    _tower_backward(model.text, state.text_feats, state.text_hidden, grad_text_reprs, text)
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
# The payload is the model's parameter vector, ``params.flat``: every array
# of ``param_layout`` in order, each in C order. A trainer checkpoint, the
# one with the ``adam`` fields, then adds Adam's ``m`` vector and its ``v``
# vector, in the same layout. An empty ``config_hash`` is no token. CKPT1
# and CKPT2 text files are rejected with a hint to retrain.

CKPT_TAG = "CKPT3"
_RETRAIN_HINT = "CKPT1 and CKPT2 checkpoints are no longer read, retrain to write a CKPT3 file"


@dataclass
class AdamState:
    """Adam's step count and its two moments, vectors in the model's layout."""

    t: int
    m: ParamVector
    v: ParamVector


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


# the prefix a reader's error puts before an array's name, per payload vector
_VECTOR_PREFIXES = ("", "m ", "v ")


def _vectors(ckpt: Checkpoint) -> list[ParamVector]:
    """The vectors of ``ckpt`` in payload order: the parameters, then Adam's ``m`` and ``v``."""
    adam = ckpt.opt_state
    return [ckpt.model.params] + ([] if adam is None else [adam.m, adam.v])


def _non_finite_array(vectors) -> str | None:
    """The name of the first array of ``vectors``, in payload order, that
    holds a non-finite value, with its vector's prefix (``m text.b1``)."""
    for prefix, vec in zip(_VECTOR_PREFIXES, vectors):
        if not np.isfinite(vec.flat).all():
            return prefix + next(name for name, arr in vec.items() if not np.isfinite(arr).all())
    return None


def write_checkpoint(ckpt: Checkpoint, path) -> None:
    """Write ``ckpt`` as one CKPT3 file, swapped in by a single ``os.replace``.

    What ``read_checkpoint`` would reject is refused before the temp file is
    opened: a non-finite value (``NonFiniteError``, naming its array), and a
    ``config_hash``, or for a trainer file an epoch, seed or Adam step, that
    its header field cannot hold (``ValueError``). An interrupted or refused
    write leaves any old file at ``path`` intact.
    """
    config_hash = ckpt.config_hash
    if not config_hash.isascii() or any(c.isspace() for c in config_hash):
        raise ValueError(f"config_hash {config_hash!r} must be ASCII without whitespace")
    vectors = _vectors(ckpt)
    if any(vec.layout != ckpt.model.params.layout for vec in vectors):
        raise ShapeMismatchError("Adam's moments are not in the model's parameter layout")
    if (name := _non_finite_array(vectors)) is not None:
        raise NonFiniteError(f"{path}: {name} holds a non-finite value")
    d = ckpt.model.dims
    head = f"{CKPT_TAG} {d.video_in} {d.text_in} {d.hidden} {d.joint}"
    tail = ""
    if ckpt.opt_state is not None:
        counts = (ckpt.epoch, ckpt.seed, ckpt.opt_state.t)
        # the reader's rule for a count (``experts.parse_count``)
        if not all(str(n).isascii() and str(n).isdigit() for n in counts):
            raise ValueError(f"epoch, seed and Adam t {counts} must be non-negative integers")
        tail = f"adam {ckpt.epoch} {ckpt.seed} {ckpt.opt_state.t} {config_hash}".rstrip()
    with replace_on_success(path) as tmp:
        write_container(tmp, head, [vec.flat for vec in vectors], tail)


def read_checkpoint(path) -> Checkpoint:
    """Parse a CKPT3 file, checking its tag, header fields, digest, payload length
    and finite values in that order.

    The model's parameters and Adam's moments are views of the payload read,
    one slice each; a non-finite value is a ``ParseError`` naming the first
    array that holds one.
    """

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
        count = _spans(param_layout(dims))[0]
        return fields[4], count * (1 if adam is None else 3), (dims, adam)

    (dims, adam), flat = read_container(path, CKPT_TAG, _RETRAIN_HINT, layout)
    params_layout = param_layout(dims)
    n = _spans(params_layout)[0]
    vectors = [ParamVector(params_layout, flat[i : i + n]) for i in range(0, flat.size, n)]
    if (name := _non_finite_array(vectors)) is not None:
        raise ParseError(f"{path}: {name} holds a non-finite value")
    model = TwoTowerModel(dims, vectors[0])
    if adam is None:
        return Checkpoint(model)
    epoch, seed, t, config_hash = adam
    return Checkpoint(model, AdamState(t, *vectors[1:]), epoch, seed, config_hash)


def save_checkpoint(model: TwoTowerModel, path) -> None:
    """Write a model-only CKPT3 file."""
    write_checkpoint(Checkpoint(model), path)


def load_checkpoint(path) -> TwoTowerModel:
    """The model of any CKPT3 file; a trainer file's Adam state is still checked in full."""
    return read_checkpoint(path).model
