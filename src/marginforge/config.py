"""Flat ``key = value`` run configuration with dotted keys.

One file drives data generation, model shape, training, and evaluation.
Unknown keys are rejected; every key has a default, so an empty file is a
valid config. The fully resolved form (defaults included) is written beside
every run's outputs and hashed into checkpoints.
"""

import dataclasses
import math
from dataclasses import dataclass, field
from pathlib import Path

from .data import SynthConfig, digest
from .errors import ConfigError, ConfigTypeError, MissingKeyError, ParseError, UnknownKeyError
from .objective import MINING_CRITERIA
from .trainer import TrainConfig


@dataclass
class RunConfig:
    train: TrainConfig = field(default_factory=TrainConfig)
    data: SynthConfig = field(default_factory=SynthConfig)
    hidden_dim: int = 0
    joint_dim: int = 16
    ks: tuple[int, ...] = (1, 5, 10)
    data_dir: str | None = None
    out_dir: str | None = None


def _parse_int(text: str) -> int:
    return int(text)


def _parse_pos_int(text: str) -> int:
    v = int(text)
    if v < 1:
        raise ValueError(f"must be >= 1, got {v}")
    return v


def _parse_nonneg_int(text: str) -> int:
    v = int(text)
    if v < 0:
        raise ValueError(f"must be >= 0, got {v}")
    return v


def _parse_float(text: str) -> float:
    v = float(text)
    if not math.isfinite(v):
        raise ValueError(f"must be finite, got {v}")
    return v


def _parse_nonneg_float(text: str) -> float:
    v = _parse_float(text)
    if v < 0:
        raise ValueError(f"must be nonnegative, got {v}")
    return v


def _parse_unit_float(text: str) -> float:
    v = _parse_float(text)
    if not 0.0 <= v <= 1.0:
        raise ValueError(f"must be in [0, 1], got {v}")
    return v


def _parse_bool(text: str) -> bool:
    low = text.strip().lower()
    if low in ("true", "1", "yes", "on"):
        return True
    if low in ("false", "0", "no", "off"):
        return False
    raise ValueError(f"expected a boolean, got {text!r}")


def _parse_criterion(text: str) -> str:
    if text not in MINING_CRITERIA:
        raise ValueError(f"must be one of {MINING_CRITERIA}, got {text!r}")
    return text


def _parse_ks(text: str) -> tuple[int, ...]:
    ks = tuple(sorted({_parse_pos_int(tok.strip()) for tok in text.split(",") if tok.strip()}))
    if not ks:
        raise ValueError("need at least one K")
    return ks


def _parse_str(text: str) -> str:
    return text


# key -> (section attribute on RunConfig or "" for top level, field name, parser)
KEY_SPECS = {
    "data.n_items": ("data", "n_items", _parse_pos_int),
    "data.n_concepts": ("data", "n_concepts", _parse_pos_int),
    "data.latent_dim": ("data", "latent_dim", _parse_pos_int),
    "data.video_dim": ("data", "video_dim", _parse_pos_int),
    "data.text_dim": ("data", "text_dim", _parse_pos_int),
    "data.frames_per_video": ("data", "frames_per_video", _parse_pos_int),
    "data.noise_video": ("data", "noise_video", _parse_nonneg_float),
    "data.noise_text": ("data", "noise_text", _parse_nonneg_float),
    "data.duplicate_rate": ("data", "duplicate_rate", _parse_unit_float),
    "data.seed": ("data", "seed", _parse_int),
    "model.hidden_dim": ("", "hidden_dim", _parse_nonneg_int),
    "model.joint_dim": ("", "joint_dim", _parse_pos_int),
    "train.alpha": ("train", "alpha", _parse_float),
    "train.beta": ("train", "beta", _parse_nonneg_float),
    "train.epochs": ("train", "epochs", _parse_nonneg_int),
    "train.batch_size": ("train", "batch_size", _parse_pos_int),
    "train.learning_rate": ("train", "learning_rate", _parse_nonneg_float),
    "train.seed": ("train", "seed", _parse_int),
    "train.warmup_epochs": ("train", "warmup_epochs", _parse_nonneg_int),
    "train.lambda_start_epoch": ("train", "lambda_start_epoch", _parse_pos_int),
    "train.lambda_start_value": ("train", "lambda_start_value", _parse_unit_float),
    "train.lambda_end_epoch": ("train", "lambda_end_epoch", _parse_pos_int),
    "train.mining_criterion": ("train", "mining_criterion", _parse_criterion),
    "train.dse_text": ("train", "dse_text", _parse_bool),
    "train.dse_video": ("train", "dse_video", _parse_bool),
    "train.sse_text": ("train", "sse_text", _parse_bool),
    "train.sse_video": ("train", "sse_video", _parse_bool),
    "eval.ks": ("", "ks", _parse_ks),
    "paths.data_dir": ("", "data_dir", _parse_str),
    "paths.out_dir": ("", "out_dir", _parse_str),
}


def apply_key(cfg: RunConfig, key: str, raw_value: str, line: int | None = None) -> None:
    """Set one dotted key on a RunConfig, validating name and value."""
    where = f" (line {line})" if line is not None else ""
    spec = KEY_SPECS.get(key)
    if spec is None:
        raise UnknownKeyError(f"unknown config key {key!r}{where}")
    section, fieldname, parser = spec
    try:
        value = parser(raw_value)
    except ValueError as exc:
        raise ConfigTypeError(f"key {key!r}{where}: {exc}") from None
    if section == "data":
        # SynthConfig is frozen; rebuild it with the new field
        cfg.data = dataclasses.replace(cfg.data, **{fieldname: value})
    elif section == "train":
        setattr(cfg.train, fieldname, value)
    else:
        setattr(cfg, fieldname, value)


def parse_config(path) -> RunConfig:
    """Parse a config file into a fully defaulted, validated RunConfig."""
    cfg = RunConfig()
    path = Path(path)
    try:
        lines = path.read_text(encoding="utf-8").splitlines()
    except OSError as exc:
        raise ParseError(f"cannot read config {path}: {exc}") from None
    for lineno, raw in enumerate(lines, start=1):
        text = raw.strip()
        if not text or text.startswith("#"):
            continue
        if "=" not in text:
            raise ParseError(f"expected 'key = value', got {text!r}", lineno)
        key, _, value = text.partition("=")
        apply_key(cfg, key.strip(), value.strip(), lineno)
    try:
        cfg.train.validate()
    except ConfigError as exc:
        raise ConfigTypeError(f"{path}: {exc}") from None
    return cfg


def require(value, key: str):
    """Fetch a value that a command cannot default."""
    if value is None:
        raise MissingKeyError(f"config key {key!r} (or the matching CLI flag) is required")
    return value


def _format_value(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, tuple):
        return ",".join(str(v) for v in value)
    if isinstance(value, float):
        return repr(value)
    return str(value)


def resolved_text(cfg: RunConfig) -> str:
    """The full config in parseable form, defaults included, keys sorted."""
    lines = []
    for key in sorted(KEY_SPECS):
        section, fieldname, _ = KEY_SPECS[key]
        if section == "data":
            value = getattr(cfg.data, fieldname)
        elif section == "train":
            value = getattr(cfg.train, fieldname)
        else:
            value = getattr(cfg, fieldname)
        if value is None:
            continue  # unset paths stay unset
        lines.append(f"{key} = {_format_value(value)}")
    return "\n".join(lines) + "\n"


def config_hash(cfg: RunConfig) -> str:
    return digest(resolved_text(cfg).encode("utf-8"))


def write_resolved(cfg: RunConfig, out_dir) -> None:
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    (out / "resolved_config.cfg").write_text(resolved_text(cfg), encoding="utf-8")
