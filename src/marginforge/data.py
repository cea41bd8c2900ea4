"""Synthetic planted-concept datasets plus on-disk ingestion.

Items are generated from per-concept Gaussian latents pushed through fixed
random linear maps into the video and text feature spaces. A configurable
fraction of items shares its concept with at least one other item, planting
semantically equivalent negatives whose ground truth is known exactly. The
static expert tables are derived views: mean-pooled frames for video, and the
text features under independent extra noise for text (a deliberately
imperfect external encoder).

On disk a dataset is a directory of seven text files (FRM1 frames, three
EMB1 tables, LBL1 labels, two SPLIT1 id lists) plus ``manifest.txt``, all
read under the line rules of ``experts.read_records``. The manifest's header
is ``MANIFEST2``; each record is ``<role> <filename> <sha256>``, each role
exactly once under its canonical filename. ``load_dataset`` checks every
digest before it parses any file. Directories written with the older
``MANIFEST1`` header (FNV-1a digests) are rejected; regenerate them with
``gen-data``.
"""

import hashlib
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import ChecksumError, ConfigError, DuplicateIdError, ParseError
from .experts import (
    StaticEmbeddingTable,
    load_frame_file,
    load_static_embeddings,
    parse_count,
    read_records,
    save_frame_file,
    save_static_embeddings,
)
from .seeding import named_rng

VAL_FRACTION = 0.2

# sse_text noise std as a fraction of the raw text noise
_SSE_TEXT_NOISE_FACTOR = 0.5

MANIFEST_NAME = "manifest.txt"
MANIFEST_HEADER = "MANIFEST2"

_FILES = {
    "frames": "frames.frm1",
    "text": "text.emb1",
    "sse_video": "sse_video.emb1",
    "sse_text": "sse_text.emb1",
    "labels": "labels.txt",
    "split_train": "split_train.txt",
    "split_val": "split_val.txt",
}


@dataclass
class SynthConfig:
    """The ``data.*`` config keys, one per field, and their value rules."""

    n_items: int = 64
    n_concepts: int = 64
    latent_dim: int = 8
    video_dim: int = 24
    text_dim: int = 20
    frames_per_video: int = 4
    noise_video: float = 0.1
    noise_text: float = 0.1
    duplicate_rate: float = 0.0
    seed: int = 0

    def validate(self) -> None:
        """Raise ``ConfigError`` naming the ``data.*`` key of the first rule broken."""
        for name in ("latent_dim", "video_dim", "text_dim", "frames_per_video"):
            if (value := getattr(self, name)) < 1:
                raise ConfigError(f"data.{name} must be positive, got {value}")
        for name in ("noise_video", "noise_text"):
            if not 0 <= (value := getattr(self, name)) < np.inf:
                raise ConfigError(f"data.{name} must be finite and nonnegative, got {value}")
        if self.n_items < 4:
            raise ConfigError(f"data.n_items must be at least 4 for a split, got {self.n_items}")
        _plan_concept_sizes(self)


def split_sizes(n_items: int) -> tuple[int, int]:
    """(n_train, n_val) of a generated dataset: the one statement of the split size."""
    n_val = max(2, int(round(VAL_FRACTION * n_items)))
    return n_items - n_val, n_val


@dataclass
class Dataset:
    ids: list[str]
    concepts: np.ndarray  # (N,) int64 concept label per item
    frames: np.ndarray  # (N, T, video_dim)
    text: np.ndarray  # (N, text_dim)
    sse_video: StaticEmbeddingTable
    sse_text: StaticEmbeddingTable
    train_ids: list[str]
    val_ids: list[str]
    index: dict = field(init=False, repr=False)

    def __post_init__(self):
        self.index = {item_id: i for i, item_id in enumerate(self.ids)}
        if len(self.index) != len(self.ids):
            raise ConfigError("dataset ids are not unique")
        assigned = set(self.train_ids) | set(self.val_ids)
        if assigned != set(self.ids) or len(self.train_ids) + len(self.val_ids) != len(self.ids):
            raise ConfigError("train/val splits must partition the ids")

    def __len__(self) -> int:
        return len(self.ids)

    def rows(self, ids) -> np.ndarray:
        return np.array([self.index[i] for i in ids], dtype=np.int64)

    def pooled_video(self) -> np.ndarray:
        return self.frames.mean(axis=1)


def _duplicate_count(cfg: SynthConfig) -> int:
    target = cfg.duplicate_rate * cfg.n_items
    d = int(round(target))
    if d == 1:
        d = 0 if target <= 1.0 else 2
    return d


def _plan_concept_sizes(cfg: SynthConfig) -> list[int]:
    """Sizes per concept: shared groups (>= 2 items) first, then singletons."""
    if not 0.0 <= cfg.duplicate_rate <= 1.0:
        raise ConfigError(f"data.duplicate_rate must be in [0, 1], got {cfg.duplicate_rate}")
    if cfg.n_concepts > cfg.n_items or cfg.n_concepts < 1:
        raise ConfigError(f"data.n_concepts must be in [1, {cfg.n_items}], got {cfg.n_concepts}")
    d = _duplicate_count(cfg)
    singles = cfg.n_items - d
    shared = cfg.n_concepts - singles
    if d == 0:
        if shared != 0:
            raise ConfigError(
                f"data.duplicate_rate {cfg.duplicate_rate} needs data.n_concepts == "
                f"data.n_items ({cfg.n_items}), got {cfg.n_concepts}"
            )
        return [1] * singles
    if shared < 1 or 2 * shared > d:
        raise ConfigError(
            f"cannot split {d} duplicated items into {shared} concepts of size >= 2; "
            f"with data.n_items={cfg.n_items} and data.duplicate_rate={cfg.duplicate_rate}, "
            f"data.n_concepts must lie in [{singles + 1}, {singles + d // 2}]"
        )
    base, rem = divmod(d, shared)
    return [base + 1] * rem + [base] * (shared - rem) + [1] * singles


def generate(cfg: SynthConfig) -> Dataset:
    """Deterministic synthetic dataset with planted semantic duplicates, split
    by ``split_sizes``; ``cfg.validate()`` runs first."""
    cfg.validate()
    sizes = _plan_concept_sizes(cfg)

    n, m, t = cfg.n_items, cfg.latent_dim, cfg.frames_per_video
    ids = [f"it{i:06d}" for i in range(n)]

    latents = named_rng(cfg.seed, "data_latents").standard_normal((cfg.n_concepts, m))
    rng_maps = named_rng(cfg.seed, "data_maps")
    map_video = rng_maps.standard_normal((cfg.video_dim, m)) / np.sqrt(m)
    map_text = rng_maps.standard_normal((cfg.text_dim, m)) / np.sqrt(m)

    concepts = np.empty(n, dtype=np.int64)
    perm = named_rng(cfg.seed, "data_assign").permutation(n)
    cursor = 0
    for concept, size in enumerate(sizes):
        for item in perm[cursor : cursor + size]:
            concepts[item] = concept
        cursor += size

    signal_video = latents[concepts] @ map_video.T  # (N, video_dim)
    signal_text = latents[concepts] @ map_text.T  # (N, text_dim)

    eps_video = named_rng(cfg.seed, "data_video_noise").standard_normal((n, t, cfg.video_dim))
    eps_text = named_rng(cfg.seed, "data_text_noise").standard_normal((n, cfg.text_dim))
    eps_sse = named_rng(cfg.seed, "data_sse_noise").standard_normal((n, cfg.text_dim))

    frames = signal_video[:, None, :] + cfg.noise_video * eps_video
    text = signal_text + cfg.noise_text * eps_text
    # the static text expert is an independent, imperfect view of the clean
    # semantics (an external encoder), not a degraded copy of the raw features
    sse_text_vecs = signal_text + _SSE_TEXT_NOISE_FACTOR * cfg.noise_text * eps_sse
    sse_video_vecs = frames.mean(axis=1)

    split_perm = named_rng(cfg.seed, "data_split").permutation(n)
    _, n_val = split_sizes(n)
    val_rows = sorted(split_perm[:n_val].tolist())
    train_rows = sorted(split_perm[n_val:].tolist())

    return Dataset(
        ids=ids,
        concepts=concepts,
        frames=frames,
        text=text,
        sse_video=StaticEmbeddingTable(ids, sse_video_vecs, "sse_video"),
        sse_text=StaticEmbeddingTable(ids, sse_text_vecs, "sse_text"),
        train_ids=[ids[i] for i in train_rows],
        val_ids=[ids[i] for i in val_rows],
    )


def ground_truth_equivalents(dataset: Dataset) -> dict[str, set[str]]:
    """For each id, the other ids sharing its concept."""
    by_concept: dict[int, list[str]] = {}
    for item_id, concept in zip(dataset.ids, dataset.concepts):
        by_concept.setdefault(int(concept), []).append(item_id)
    return {
        item_id: set(by_concept[int(concept)]) - {item_id}
        for item_id, concept in zip(dataset.ids, dataset.concepts)
    }


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------

def digest(data: bytes) -> str:
    """SHA-256 of ``data`` as 64 lowercase hex characters: manifest digests and config hashes."""
    return hashlib.sha256(data).hexdigest()


def _write_labels(dataset: Dataset, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"LBL1 {len(dataset)}\n")
        for item_id, concept in zip(dataset.ids, dataset.concepts):
            fh.write(f"{item_id} {int(concept)}\n")


def _load_labels(path) -> dict[str, int]:
    (n,), records = read_records(path, "LBL1", 1)
    labels: dict[str, int] = {}
    for lineno, tokens in records:
        if len(tokens) != 2:
            raise ParseError(f"{path}: expected '<id> <concept>'", lineno)
        item_id, concept = tokens
        if item_id in labels:
            raise DuplicateIdError(f"line {lineno}: {path}: duplicate id {item_id!r}")
        labels[item_id] = parse_count(concept, lineno, path)
    if len(labels) != n:
        raise ParseError(f"{path}: header declares {n} labels, found {len(labels)}")
    return labels


def _write_split(ids, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"SPLIT1 {len(ids)}\n")
        for item_id in ids:
            fh.write(item_id + "\n")


def _load_split(path) -> list[str]:
    (n,), records = read_records(path, "SPLIT1", 1)
    ids: dict[str, None] = {}  # insertion-ordered set
    for lineno, tokens in records:
        if len(tokens) != 1:
            raise ParseError(f"{path}: expected one id, got {len(tokens)} tokens", lineno)
        if tokens[0] in ids:
            raise DuplicateIdError(f"line {lineno}: {path}: duplicate id {tokens[0]!r}")
        ids[tokens[0]] = None
    if len(ids) != n:
        raise ParseError(f"{path}: header declares {n} ids, found {len(ids)}")
    return list(ids)


def write_dataset(dataset: Dataset, out_dir) -> None:
    """Write all data files, then a MANIFEST2 manifest with each file's SHA-256."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    save_frame_file(dataset.ids, dataset.frames, out / _FILES["frames"])
    save_static_embeddings(
        StaticEmbeddingTable(dataset.ids, dataset.text, "text"), out / _FILES["text"]
    )
    save_static_embeddings(dataset.sse_video, out / _FILES["sse_video"])
    save_static_embeddings(dataset.sse_text, out / _FILES["sse_text"])
    _write_labels(dataset, out / _FILES["labels"])
    _write_split(dataset.train_ids, out / _FILES["split_train"])
    _write_split(dataset.val_ids, out / _FILES["split_val"])

    with open(out / MANIFEST_NAME, "w", encoding="utf-8") as fh:
        fh.write(MANIFEST_HEADER + "\n")
        for role, filename in _FILES.items():
            fh.write(f"{role} {filename} {digest((out / filename).read_bytes())}\n")


def _read_manifest(manifest: Path) -> dict[str, tuple[str, int]]:
    """Role -> (digest, line number) from a MANIFEST2 file, every line checked.

    Each role of ``_FILES`` must appear exactly once, under its canonical
    filename, so a manifest can neither add files nor point outside the
    dataset directory. Nothing is hashed here.
    """
    if not manifest.exists():
        raise ParseError(f"{manifest}: manifest not found")
    try:
        _, records = read_records(manifest, MANIFEST_HEADER, 0)
    except ParseError as exc:
        raise ParseError(
            f"{manifest}: expected a {MANIFEST_HEADER} header; MANIFEST1 (FNV-1a) datasets "
            "are no longer read, regenerate the directory with gen-data",
            exc.line,
        ) from None
    entries: dict[str, tuple[str, int]] = {}
    for lineno, parts in records:
        if len(parts) != 3:
            raise ParseError(f"{manifest}: expected '<role> <filename> <sha256>'", lineno)
        role, filename, expected = parts
        if role not in _FILES:
            raise ParseError(f"{manifest}: unknown role {role!r}", lineno)
        if role in entries:
            raise ParseError(f"{manifest}: role {role!r} repeats line {entries[role][1]}", lineno)
        if filename != _FILES[role]:
            raise ParseError(
                f"{manifest}: role {role!r} must name {_FILES[role]}, got {filename!r}", lineno
            )
        if len(expected) != 64 or not set(expected) <= set("0123456789abcdef"):
            raise ParseError(
                f"{manifest}: bad digest {expected!r}: expected 64 lowercase hex digits", lineno
            )
        entries[role] = (expected, lineno)
    missing = [role for role in _FILES if role not in entries]
    if missing:
        raise ParseError(f"{manifest}: missing roles {missing}")
    return entries


def load_dataset(data_dir) -> Dataset:
    """Load a dataset directory after checking its MANIFEST2 manifest.

    Every manifest line is validated first; then each file's SHA-256 must
    match before any file is parsed.
    """
    root = Path(data_dir)
    manifest = root / MANIFEST_NAME
    for role, (expected, lineno) in _read_manifest(manifest).items():
        filename = _FILES[role]
        target = root / filename
        if not target.exists():
            raise ParseError(f"{manifest}: listed file {filename} is missing", lineno)
        actual = digest(target.read_bytes())
        if actual != expected:
            raise ChecksumError(f"{filename}: checksum {actual} != manifest {expected}")

    frames_path = root / _FILES["frames"]
    ids, frames = load_frame_file(frames_path)
    text_table = load_static_embeddings(root / _FILES["text"], "text")
    sse_video = load_static_embeddings(root / _FILES["sse_video"], "sse_video")
    sse_text = load_static_embeddings(root / _FILES["sse_text"], "sse_text")
    labels = _load_labels(root / _FILES["labels"])

    for name, table_ids in (
        ("text", text_table.ids),
        ("sse_video", sse_video.ids),
        ("sse_text", sse_text.ids),
    ):
        if table_ids != ids:
            raise ParseError(
                f"{root / _FILES[name]}: {name} ids do not match the frame file ids "
                f"of {frames_path}"
            )
    try:
        concepts = np.array([labels[i] for i in ids], dtype=np.int64)
    except KeyError as exc:
        raise ParseError(
            f"{root / _FILES['labels']}: labels file is missing id {exc.args[0]!r} "
            f"of {frames_path}"
        ) from None

    train_path, val_path = root / _FILES["split_train"], root / _FILES["split_val"]
    train_ids, val_ids = _load_split(train_path), _load_split(val_path)
    try:
        return Dataset(
            ids=ids,
            concepts=concepts,
            frames=frames,
            text=text_table.embeddings,
            sse_video=sse_video,
            sse_text=sse_text,
            train_ids=train_ids,
            val_ids=val_ids,
        )
    except ConfigError as exc:
        raise ParseError(f"{train_path} and {val_path}: {exc} of {frames_path}") from None
