"""Training loop: optimizer, expert blending schedule, warm-up, reports.

Epochs are 1-indexed. Warm-up epochs average the loss over all in-batch
negatives; afterwards the hardest negative per anchor is mined. The DSE/SSE
blending weight follows a three-phase schedule: zero before the start epoch,
exponential interpolation between the two anchor values, then exactly 1.
While the schedule gives a slot weight 0, its experts build no margins.

A run's fixed inputs are built once: the train split's rows, pooled video,
text and static unit tables by ``train_inputs``, and the validation split's
rows, pooled video and text by ``split_inputs``; every epoch reads them.

The model's parameters, a step's gradients and Adam's two moments are each
one ``model.ParamVector`` in the same layout. ``adam_step`` runs each of its
elementwise operations once over the whole vector, and a step's finite check
is one pass over the flat gradient.
"""

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import kernels
from .data import Dataset
from .errors import ConfigError, NonFiniteError, ParseError, ShapeMismatchError, error_context
from .evaluation import DEFAULT_KS, evaluate_bidirectional
from .margin import expert_margins
from .model import (
    AdamState,
    Checkpoint,
    ModelDims,
    ParamVector,
    TwoTowerModel,
    forward_batch,
    init_params,
    read_checkpoint,
    write_checkpoint,
)
from .mathcore import unit_rows
from .objective import EXPERT_KINDS, SLOT_EXPERTS, LossBreakdown, full_loss_grad, weighted_experts
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
    dse_text: bool = True
    dse_video: bool = True
    sse_text: bool = True
    sse_video: bool = True

    def experts(self) -> tuple:
        """The enabled expert kinds, in ``EXPERT_KINDS`` order."""
        return tuple(kind for kind in EXPERT_KINDS if getattr(self, kind))

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
        if self.seed < 0:
            raise ConfigError(f"train.seed must be nonnegative, got {self.seed}")
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
    layout = model.params.layout
    return AdamState(0, ParamVector.zeros(layout), ParamVector.zeros(layout))


def adam_step(params: ParamVector, grads: ParamVector, state: AdamState, lr: float) -> AdamState:
    """One bias-corrected Adam update, applied to ``params`` in place.

    ``params``, ``grads`` and the moments of ``state`` are vectors of one
    layout (else ``ShapeMismatchError``). Each operation runs once over the
    whole flat vector; every element gets the same IEEE operations, in the
    same order, as in an update of its array alone.
    """
    layout = params.layout
    if grads.layout != layout or state.m.layout != layout or state.v.layout != layout:
        raise ShapeMismatchError("gradient or Adam moments are not in the parameters' layout")
    state.t += 1
    bc1 = 1.0 - ADAM_BETA1**state.t
    bc2 = 1.0 - ADAM_BETA2**state.t
    g, m, v = grads.flat, state.m.flat, state.v.flat
    m *= ADAM_BETA1
    m += (1.0 - ADAM_BETA1) * g
    v *= ADAM_BETA2
    v += (1.0 - ADAM_BETA2) * g * g
    params.flat -= lr * (m / bc1) / (np.sqrt(v / bc2) + ADAM_EPS)
    return state


def epoch_batches(seed: int, n: int, batch_size: int, epoch: int) -> list[np.ndarray]:
    """The epoch's batches of positions into the ``n`` train items.

    The seed-shuffled order is cut into ``batch_size`` slices; a trailing
    singleton has no negatives and is dropped.
    """
    order = named_rng(seed, "shuffle", epoch).permutation(n)
    batches = (order[start : start + batch_size] for start in range(0, n, batch_size))
    return [batch for batch in batches if batch.size >= 2]


@dataclass(frozen=True)
class SplitInputs:
    """A split's fixed model inputs, row-aligned with its ids."""

    rows: np.ndarray  # (n,) dataset rows of the split
    pooled: np.ndarray  # (n, video_in) mean-pooled frames
    text: np.ndarray  # (n, text_in) text features


def split_inputs(dataset: Dataset, ids) -> SplitInputs:
    """The rows, pooled video and text of the items ``ids``.

    Only the split's frames are pooled: ``frames[rows].mean(axis=1)`` is
    ``pooled_video()[rows]`` bit for bit, without pooling every item.
    """
    rows = dataset.rows(ids)
    return SplitInputs(rows, dataset.frames[rows].mean(axis=1), dataset.text[rows])


@dataclass(frozen=True)
class TrainInputs(SplitInputs):
    """The training split's fixed inputs, row-aligned with ``dataset.train_ids``."""

    sse_units: dict  # {SSE kind: (n_train, dim) unit rows}


def train_inputs(dataset: Dataset, kinds) -> TrainInputs:
    """The train split's inputs for the expert kinds ``kinds``: its rows,
    pooled video and text, and the unit tables of the SSE kinds among them.

    Nothing in it changes during a run, so ``run_training`` builds it once.
    A zero-norm static row raises ``ZeroNormError`` naming its table.
    """
    split = split_inputs(dataset, dataset.train_ids)
    sse_units = {
        kind: unit_rows(getattr(dataset, kind).embeddings[split.rows], kind)[0]
        for kind in SLOT_EXPERTS["sse"]
        if kind in kinds
    }
    return TrainInputs(split.rows, split.pooled, split.text, sse_units)


def expert_units(state, sse_units: dict, batch) -> dict:
    """``{expert kind: unit rows}`` of one batch, the one statement of which
    rows feed which expert.

    The DSE experts read the batch's unit rows from ``state``; the SSE
    experts read rows ``batch`` of the unit tables in ``sse_units``.
    """
    units = {"dse_video": state.video_units, "dse_text": state.text_units}
    units.update((kind, table[batch]) for kind, table in sse_units.items())
    return units


def _batch_margins(cfg: TrainConfig, lam: float, state, sse_units: dict, batch) -> dict:
    """``{expert kind: ExpertMargins}`` of one batch for the enabled experts
    whose slot weight at ``lam`` is not 0; the others do not reach the loss."""
    units = expert_units(state, sse_units, batch)
    return {
        kind: expert_margins(units[kind], cfg.alpha, cfg.beta)
        for kind in weighted_experts(cfg.experts(), lam)
    }


def _check_finite_step(breakdown: LossBreakdown, grads: ParamVector) -> None:
    """Refuse a step whose loss or gradient is not finite, before Adam sees it.

    The gradient is checked in one pass over its flat vector; only a failed
    check looks for the first array that holds the bad value, to name it.
    """
    if not np.isfinite(breakdown.total):
        raise NonFiniteError(f"loss is {breakdown.total}")
    if not np.isfinite(grads.flat).all():
        name = next(name for name, g in grads.items() if not np.isfinite(g).all())
        raise NonFiniteError(f"gradient {name} has a non-finite entry")


def train_epoch(
    model: TwoTowerModel,
    inputs: TrainInputs,
    cfg: TrainConfig,
    epoch: int,
    opt_state: AdamState,
) -> LossBreakdown:
    """One pass over the training split in seed-shuffled order.

    ``inputs`` is the run's ``train_inputs``, built by the caller once for
    all epochs; its SSE tables must cover the enabled SSE experts. Updates
    the model and optimizer state in place and returns the mean loss
    breakdown over the epoch's batches (mined-index fields are left empty in
    the aggregate).
    """
    batches = epoch_batches(cfg.seed, len(inputs.rows), cfg.batch_size, epoch)
    if not batches:
        raise ConfigError(f"epoch {epoch}: no usable batches for batch_size {cfg.batch_size}")
    mining = "mean" if epoch <= cfg.warmup_epochs else "hardest"
    lam = lambda_schedule(epoch, cfg)

    sums = np.zeros(4)
    for index, batch in enumerate(batches):
        with error_context(f"epoch {epoch} batch {index}"):
            state = forward_batch(model, inputs.pooled[batch], inputs.text[batch])
            margins = _batch_margins(cfg, lam, state, inputs.sse_units, batch)
            breakdown, grads = full_loss_grad(model, state, margins, cfg.alpha, lam, mining)
            _check_finite_step(breakdown, grads)
            adam_step(model.params, grads, opt_state, cfg.learning_rate)
        sums += (breakdown.total, breakdown.hard_term, breakdown.dse_term, breakdown.sse_term)

    sums /= len(batches)
    empty = np.empty(0, dtype=np.int64)
    return LossBreakdown(sums[0], sums[1], sums[2], sums[3], lam, empty, empty)


def evaluate_inputs(model: TwoTowerModel, inputs: SplitInputs, ks=DEFAULT_KS):
    """Encode a split's inputs and run bidirectional retrieval over them."""
    state = forward_batch(model, inputs.pooled, inputs.text)
    return evaluate_bidirectional(kernels.pairwise_cosine(state.video_units, state.text_units), ks)


def evaluate_split(model: TwoTowerModel, dataset: Dataset, ids, ks=DEFAULT_KS):
    """Build the inputs of the items ``ids`` and evaluate them: ``evaluate_inputs``
    of ``split_inputs``."""
    return evaluate_inputs(model, split_inputs(dataset, ids), ks)


def save_trainer_checkpoint(ckpt: Checkpoint, prefix) -> None:
    """Model, Adam state and run identity go to the one CKPT3 file ``<prefix>.ckpt``.

    ``.ckpt`` is appended, so prefixes that differ only after a dot stay
    apart. The file is written to a temp file and swapped in by a single
    ``os.replace``, so a failed write leaves the previous checkpoint whole.
    """
    write_checkpoint(ckpt, f"{prefix}.ckpt")


def load_trainer_checkpoint(prefix) -> Checkpoint:
    path = f"{prefix}.ckpt"
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
    CKPT3 trainer checkpoint ``checkpoint_latest.ckpt`` refreshed every
    epoch, and ``checkpoint_final.ckpt`` at the end; each checkpoint is one
    file holding the model and the Adam state. Identical (dataset, config,
    seed) runs produce byte-identical outputs.

    The fixed inputs (``train_inputs`` and the validation split's
    ``split_inputs``) are built once, at epoch 1, and every epoch reuses
    them; an error building them is reported as epoch 1's, and a run of 0
    epochs builds none. An error in an epoch's validation names that epoch.
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
            if epoch == 1:
                with error_context("epoch 1"):
                    inputs = train_inputs(dataset, cfg.experts())
                    val_inputs = split_inputs(dataset, dataset.val_ids)
            agg = train_epoch(model, inputs, cfg, epoch, opt_state)
            with error_context(f"epoch {epoch} validation"):
                t2v, v2t, rsum = evaluate_inputs(model, val_inputs)
            record = {
                "epoch": epoch,
                "lambda": agg.lambda_used,
                "loss_total": agg.total,
                "loss_hard": agg.hard_term,
                "loss_dse": agg.dse_term,
                "loss_sse": agg.sse_term,
            }
            for direction, rep in (("t2v", t2v), ("v2t", v2t)):
                record.update({f"{direction}_R{k}": rep.r_at[k] for k in DEFAULT_KS})
                record[f"{direction}_MdR"] = rep.mdr
            record["rsum"] = rsum
            records.append(record)
            report.write(json.dumps(record) + "\n")
            ckpt = Checkpoint(model, opt_state, epoch, cfg.seed, config_hash)
            save_trainer_checkpoint(ckpt, out / "checkpoint_latest")

    final = Checkpoint(model, opt_state, cfg.epochs, cfg.seed, config_hash)
    save_trainer_checkpoint(final, out / "checkpoint_final")
    return final, records
