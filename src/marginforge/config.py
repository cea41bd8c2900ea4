"""Flat ``key = value`` run configuration with dotted keys.

One file drives data generation, model shape, training, and evaluation.
The ``data.*`` and ``train.*`` keys are the fields of ``SynthConfig`` and
``TrainConfig``, a value is parsed by its field's type alone, and every range
or choice rule lives in the dataclasses' ``validate``, run once the whole file
is read. Unknown keys are rejected; every key has a default, so an empty file
is a valid config. The fully resolved form (defaults included) is written
beside every run's outputs and hashed into checkpoints.
"""

import dataclasses
import math
from dataclasses import dataclass, field
from pathlib import Path

from .data import SynthConfig, digest
from .errors import ConfigError, ConfigTypeError, MissingKeyError, ParseError, UnknownKeyError
from .model import ModelDims
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

    def validate(self) -> None:
        """Raise ``ConfigError`` naming the key of the first value rule broken."""
        self.data.validate()
        self.train.validate()
        try:  # the input dims come from the dataset; the config sets the other two
            ModelDims(1, 1, self.hidden_dim, self.joint_dim)
        except ValueError:
            raise ConfigError(
                f"invalid model.hidden_dim {self.hidden_dim} or model.joint_dim {self.joint_dim}"
            ) from None


def _parse_float(text: str) -> float:
    v = float(text)
    if not math.isfinite(v):
        raise ValueError(f"must be finite, got {v}")
    return v


def _parse_bool(text: str) -> bool:
    low = text.strip().lower()
    if low in ("true", "1", "yes", "on"):
        return True
    if low in ("false", "0", "no", "off"):
        return False
    raise ValueError(f"expected a boolean, got {text!r}")


def _parse_ks(text: str) -> tuple[int, ...]:
    ks = tuple(sorted({int(tok) for tok in text.split(",") if tok.strip()}))
    if not ks or ks[0] < 1:
        raise ValueError(f"need one or more Ks >= 1, got {text!r}")
    return ks


_TYPE_PARSERS = {int: int, float: _parse_float, bool: _parse_bool, str: str}


def _field_specs(section: str, cls) -> dict:
    specs = {}
    for f in dataclasses.fields(cls):
        if f.type not in _TYPE_PARSERS:
            raise TypeError(f"{cls.__name__}.{f.name}: no config parser for type {f.type!r}")
        specs[f"{section}.{f.name}"] = (section, f.name, _TYPE_PARSERS[f.type])
    return specs


# key -> (section attribute on RunConfig or "" for top level, field name, parser)
KEY_SPECS = {
    **_field_specs("data", SynthConfig),
    **_field_specs("train", TrainConfig),
    "model.hidden_dim": ("", "hidden_dim", int),
    "model.joint_dim": ("", "joint_dim", int),
    "eval.ks": ("", "ks", _parse_ks),
    "paths.data_dir": ("", "data_dir", str),
    "paths.out_dir": ("", "out_dir", str),
}


def apply_key(cfg: RunConfig, key: str, raw_value: str, line: int | None = None) -> None:
    """Set one dotted key on a RunConfig, checking its name and type (not its range)."""
    where = f" (line {line})" if line is not None else ""
    spec = KEY_SPECS.get(key)
    if spec is None:
        raise UnknownKeyError(f"unknown config key {key!r}{where}")
    section, fieldname, parser = spec
    try:
        value = parser(raw_value)
    except ValueError as exc:
        raise ConfigTypeError(f"key {key!r}{where}: {exc}") from None
    setattr(getattr(cfg, section) if section else cfg, fieldname, value)


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
        cfg.validate()
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
        value = getattr(getattr(cfg, section) if section else cfg, fieldname)
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
