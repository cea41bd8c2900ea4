"""Training loop: optimizer, expert blending schedule, warm-up, reports.

Epochs are 1-indexed. Warm-up epochs average the loss over all in-batch
negatives; afterwards the hardest negative per anchor is mined. The DSE/SSE
blending weight follows a three-phase schedule: zero before the start epoch,
exponential interpolation between the two anchor values, then exactly 1.
"""

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import kernels
from .data import Dataset
from .errors import ConfigError, MarginForgeError, NonFiniteError, ParseError, ShapeMismatchError
from .evaluation import DEFAULT_KS, evaluate_bidirectional
from .experts import EXPERT_KINDS, pairwise_distances
from .margin import rescale_margins
from .model import (
    AdamState,
    Checkpoint,
    ModelDims,
    TwoTowerModel,
    forward_batch,
    init_params,
    read_checkpoint,
    write_checkpoint,
)
from .mathcore import unit_rows
from .objective import MINING_CRITERIA, LossBreakdown, full_loss_grad
from .seeding import named_rng

ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8


@dataclass
class TrainConfig:
    """The ``train.*`` config keys, one per field, and their value rules."""

    alpha: float = 0.05
    beta: float = 0.04
    epochs: int = 60
    batch_size: int = 64
    learning_rate: float = 5e-4
    seed: int = 0
    warmup_epochs: int = 1
    lambda_start_epoch: int = 20
    lambda_start_value: float = 0.1
    lambda_end_epoch: int = 50
    mining_criterion: str = "combined"
    dse_text: bool = True
    dse_video: bool = True
    sse_text: bool = True
    sse_video: bool = True

    def validate(self, n_train: int | None = None) -> None:
        """Raise ``ConfigError`` naming the ``train.*`` key of the first rule broken;
        with ``n_train``, a batch must also fit in the training split."""
        for name in ("alpha", "beta", "learning_rate"):
            if not np.isfinite(getattr(self, name)):
                raise ConfigError(f"train.{name} must be finite, got {getattr(self, name)}")
        if self.beta < 0:
            raise ConfigError(f"train.beta must be nonnegative, got {self.beta}")
        if self.epochs < 0 or self.warmup_epochs < 0:
            raise ConfigError("train.epochs and train.warmup_epochs must be nonnegative")
        if self.batch_size < 1:
            raise ConfigError(f"train.batch_size must be positive, got {self.batch_size}")
        if n_train is not None and self.batch_size > n_train:
            raise ConfigError(
                f"train.batch_size {self.batch_size} exceeds the {n_train} training items"
            )
        if self.learning_rate < 0:
            raise ConfigError(f"train.learning_rate must be nonnegative, got {self.learning_rate}")
        if not 0.0 < self.lambda_start_value <= 1.0:
            raise ConfigError(
                f"train.lambda_start_value must be in (0, 1], got {self.lambda_start_value}"
            )
        if not 1 <= self.lambda_start_epoch <= self.lambda_end_epoch:
            raise ConfigError(
                f"need 1 <= train.lambda_start_epoch <= train.lambda_end_epoch, got "
                f"{self.lambda_start_epoch}..{self.lambda_end_epoch}"
            )
        if self.mining_criterion not in MINING_CRITERIA:
            raise ConfigError(
                f"train.mining_criterion must be one of {MINING_CRITERIA}, "
                f"got {self.mining_criterion!r}"
            )


def lambda_schedule(epoch: int, cfg: TrainConfig) -> float:
    """DSE weight: 0 before the start epoch, start_value at it, exponential
    growth to exactly 1.0 at the end epoch and beyond."""
    if epoch < 1:
        raise ValueError(f"epochs are 1-indexed, got {epoch}")
    if epoch < cfg.lambda_start_epoch:
        return 0.0
    if epoch >= cfg.lambda_end_epoch:
        return 1.0
    frac = (epoch - cfg.lambda_start_epoch) / (cfg.lambda_end_epoch - cfg.lambda_start_epoch)
    # start_value^(1-frac) is the exponential curve through both anchors
    return cfg.lambda_start_value ** (1.0 - frac)


def new_adam_state(model: TwoTowerModel) -> AdamState:
    state = AdamState()
    for name, arr in model.param_items():
        state.m[name] = np.zeros_like(arr)
        state.v[name] = np.zeros_like(arr)
    return state


def adam_step(param_items, grads: dict, state: AdamState, lr: float) -> AdamState:
    """One bias-corrected Adam update, applied to the parameters in place."""
    state.t += 1
    bc1 = 1.0 - ADAM_BETA1**state.t
    bc2 = 1.0 - ADAM_BETA2**state.t
    for name, param in param_items:
        g = grads[name]
        if g.shape != param.shape:
            raise ShapeMismatchError(f"{name}: grad shape {g.shape} != param {param.shape}")
        m = state.m[name]
        v = state.v[name]
        m *= ADAM_BETA1
        m += (1.0 - ADAM_BETA1) * g
        v *= ADAM_BETA2
        v += (1.0 - ADAM_BETA2) * g * g
        param -= lr * (m / bc1) / (np.sqrt(v / bc2) + ADAM_EPS)
    return state


def epoch_batches(seed: int, n: int, batch_size: int, epoch: int) -> list[np.ndarray]:
    """The epoch's batches of positions into the ``n`` train items.

    The seed-shuffled order is cut into ``batch_size`` slices; a trailing
    singleton has no negatives and is dropped.
    """
    order = named_rng(seed, "shuffle", epoch).permutation(n)
    batches = (order[start : start + batch_size] for start in range(0, n, batch_size))
    return [batch for batch in batches if batch.size >= 2]


def sse_unit_tables(dataset: Dataset, kinds) -> dict:
    """``{SSE kind: unit rows}`` of the train split's static tables for ``kinds``."""
    return {
        kind: unit_rows(getattr(dataset, kind).lookup(dataset.train_ids), kind)[0]
        for kind in kinds
    }


def expert_units(state, sse_units: dict, batch) -> dict:
    """``{expert kind: unit rows}`` of one batch, the one statement of which
    rows feed which expert.

    The DSE experts read the batch's unit rows from ``state``; the SSE
    experts read rows ``batch`` of the ``sse_unit_tables`` in ``sse_units``.
    """
    units = {"dse_video": state.video_units, "dse_text": state.text_units}
    units.update((kind, table[batch]) for kind, table in sse_units.items())
    return units


def _batch_margins(cfg: TrainConfig, state, sse_units: dict, batch) -> dict:
    """``{expert kind: B x B margins}`` for the enabled experts of one batch."""
    units = expert_units(state, sse_units, batch)
    return {
        kind: rescale_margins(pairwise_distances(units[kind]), cfg.alpha, cfg.beta)
        for kind in EXPERT_KINDS
        if getattr(cfg, kind)
    }


def _check_finite_step(breakdown: LossBreakdown, grads: dict) -> None:
    """Refuse a step whose loss or gradient is not finite, before Adam sees it."""
    if not np.isfinite(breakdown.total):
        raise NonFiniteError(f"loss is {breakdown.total}")
    for name, g in grads.items():
        if not np.isfinite(g).all():
            raise NonFiniteError(f"gradient {name} has a non-finite entry")


def train_epoch(
    model: TwoTowerModel,
    dataset: Dataset,
    cfg: TrainConfig,
    epoch: int,
    opt_state: AdamState,
) -> LossBreakdown:
    """One pass over the training split in seed-shuffled order.

    Updates the model and optimizer state in place and returns the mean loss
    breakdown over the epoch's batches (mined-index fields are left empty in
    the aggregate).
    """
    rows = dataset.rows(dataset.train_ids)
    pooled = dataset.pooled_video()[rows]
    text = dataset.text[rows]
    try:
        sse_units = sse_unit_tables(
            dataset, [kind for kind in ("sse_video", "sse_text") if getattr(cfg, kind)]
        )
    except MarginForgeError as exc:
        raise type(exc)(f"epoch {epoch}: {exc}") from exc

    batches = epoch_batches(cfg.seed, len(rows), cfg.batch_size, epoch)
    if not batches:
        raise ConfigError(f"epoch {epoch}: no usable batches for batch_size {cfg.batch_size}")
    mining = "mean" if epoch <= cfg.warmup_epochs else "hardest"
    lam = lambda_schedule(epoch, cfg)

    sums = np.zeros(4)
    for index, batch in enumerate(batches):
        try:
            state = forward_batch(model, pooled[batch], text[batch])
            margins = _batch_margins(cfg, state, sse_units, batch)
            breakdown, grads = full_loss_grad(
                model, state, margins, cfg.alpha, lam, mining, cfg.mining_criterion
            )
            _check_finite_step(breakdown, grads)
            adam_step(model.param_items(), grads, opt_state, cfg.learning_rate)
        except MarginForgeError as exc:
            raise type(exc)(f"epoch {epoch} batch {index}: {exc}") from exc
        sums += (breakdown.total, breakdown.hard_term, breakdown.dse_term, breakdown.sse_term)

    sums /= len(batches)
    empty = np.empty(0, dtype=np.int64)
    return LossBreakdown(sums[0], sums[1], sums[2], sums[3], lam, empty, empty)


def evaluate_split(model: TwoTowerModel, dataset: Dataset, ids, ks=DEFAULT_KS):
    """Encode a split and run bidirectional retrieval over it."""
    rows = dataset.rows(ids)
    state = forward_batch(model, dataset.pooled_video()[rows], dataset.text[rows])
    return evaluate_bidirectional(kernels.pairwise_cosine(state.video_units, state.text_units), ks)


def save_trainer_checkpoint(ckpt: Checkpoint, prefix) -> None:
    """Model, Adam state and run identity go to the one CKPT2 file ``<prefix>.ckpt``.

    The file is written to a temp file and swapped in by a single
    ``os.replace``, so a failed write leaves the previous checkpoint whole.
    """
    write_checkpoint(ckpt, Path(prefix).with_suffix(".ckpt"))


def load_trainer_checkpoint(prefix) -> Checkpoint:
    path = Path(prefix).with_suffix(".ckpt")
    ckpt = read_checkpoint(path)
    if ckpt.opt_state is None:
        raise ParseError(f"{path}: no adam section, so it cannot restore a trainer")
    return ckpt


def run_training(
    dataset: Dataset,
    cfg: TrainConfig,
    hidden_dim: int,
    joint_dim: int,
    out_dir,
    config_hash: str = "",
) -> tuple[Checkpoint, list[dict]]:
    """Warm-up plus main epochs with per-epoch validation metrics.

    Writes ``report.jsonl`` (one record per epoch, fixed field order), a
    CKPT2 trainer checkpoint ``checkpoint_latest.ckpt`` refreshed every
    epoch, and ``checkpoint_final.ckpt`` at the end; each checkpoint is one
    file holding the model and the Adam state. Identical (dataset, config,
    seed) runs produce byte-identical outputs.
    """
    cfg.validate(len(dataset.train_ids))
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)

    dims = ModelDims(dataset.frames.shape[2], dataset.text.shape[1], hidden_dim, joint_dim)
    model = init_params(dims, cfg.seed)
    opt_state = new_adam_state(model)

    records: list[dict] = []
    with open(out / "report.jsonl", "w", encoding="utf-8") as report:
        for epoch in range(1, cfg.epochs + 1):
            agg = train_epoch(model, dataset, cfg, epoch, opt_state)
            t2v, v2t, rsum = evaluate_split(model, dataset, dataset.val_ids)
            record = {
                "epoch": epoch,
                "lambda": agg.lambda_used,
                "loss_total": agg.total,
                "loss_hard": agg.hard_term,
                "loss_dse": agg.dse_term,
                "loss_sse": agg.sse_term,
                "t2v_R1": t2v.r_at[1],
                "t2v_R5": t2v.r_at[5],
                "t2v_R10": t2v.r_at[10],
                "t2v_MdR": t2v.mdr,
                "v2t_R1": v2t.r_at[1],
                "v2t_R5": v2t.r_at[5],
                "v2t_R10": v2t.r_at[10],
                "v2t_MdR": v2t.mdr,
                "rsum": rsum,
            }
            records.append(record)
            report.write(json.dumps(record) + "\n")
            ckpt = Checkpoint(model, opt_state, epoch, cfg.seed, config_hash)
            save_trainer_checkpoint(ckpt, out / "checkpoint_latest")

    final = Checkpoint(model, opt_state, cfg.epochs, cfg.seed, config_hash)
    save_trainer_checkpoint(final, out / "checkpoint_final")
    return final, records
