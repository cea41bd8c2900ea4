"""Synthetic planted-concept datasets plus on-disk ingestion.

Items are generated from per-concept Gaussian latents pushed through fixed
random linear maps into the video and text feature spaces. A configurable
fraction of items shares its concept with at least one other item, planting
semantically equivalent negatives whose ground truth is known exactly. The
static expert tables are derived views: mean-pooled frames for video, and the
text features under independent extra noise for text (a deliberately
imperfect external encoder).

``Dataset`` is the one owner of row order: row i of ``frames``, ``text``,
``concepts``, ``split`` and both static tables belongs to ``ids[i]``, and
``Dataset.rows`` maps ids to rows. ``split[i]`` is the item's split word,
``train`` or ``val``, as on its labels record; ``train_ids`` and
``val_ids`` are derived from it, each in dataset order.

On disk a dataset is a directory of four binary row files, ``labels.txt``
and ``manifest.txt``. The row files, FRM4 frames and three EMB3 tables, are
containers of ``experts.write_container``: a header line with the payload's
SHA-256, then the raw float64 values. They hold no ids; row i is the item on
record i of the LBL2 labels file, the one file that holds each id once, as
``<id> <concept> <split>`` in dataset order, where ``<split>`` is ``train``
or ``val``. The labels file and the manifest follow the line rule of
``experts.read_records``.

The manifest's header is ``MANIFEST4``; each record is ``<role> <filename>
<sha256>``, each role exactly once under its canonical filename. The digest
follows one rule, ``record_digest``: the labels file's is the SHA-256 of the
whole file, and a row file's is the SHA-256 of its header line, which holds
the payload's SHA-256 and so binds the whole file. ``load_dataset`` checks
every record, reading only the header line of each row file, before it parses
any file; ``experts.read_container`` then checks each payload against its
header before it returns a value. So every byte of a dataset directory is
bound by a digest checked on load, and each payload byte is hashed once on
write and once on load. Directories written with an older format, a
``MANIFEST1`` (FNV-1a digests), ``MANIFEST2`` (whole-file digests of every
file) or ``MANIFEST3`` (split files beside the labels) header, an ``LBL1``
labels file or text FRM1, FRM2, FRM3, EMB1 or EMB2 row files, are rejected;
regenerate them with ``gen-data``. The filenames keep their ``.frm1`` and
``.emb1`` suffixes.
"""

import hashlib
import sys
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import ChecksumError, ConfigError, DuplicateIdError, ParseError
from .experts import (
    StaticEmbeddingTable,
    embeddings_head,
    frames_head,
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
MANIFEST_HEADER = "MANIFEST4"

# role -> canonical filename: the four row files and the labels file, one
# manifest record each
_FILES = {
    "frames": "frames.frm1",
    "text": "text.emb1",
    "sse_video": "sse_video.emb1",
    "sse_text": "sse_text.emb1",
    "labels": "labels.txt",
}

# the roles whose files are containers of ``experts.write_container``
ROW_ROLES = ("frames", "text", "sse_video", "sse_text")


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
        if self.seed < 0:
            raise ConfigError(f"data.seed must be nonnegative, got {self.seed}")
        _plan_concept_sizes(self)


def split_sizes(n_items: int) -> tuple[int, int]:
    """(n_train, n_val) of a generated dataset: the one statement of the split size."""
    n_val = max(2, int(round(VAL_FRACTION * n_items)))
    return n_items - n_val, n_val


@dataclass
class Dataset:
    """Per-item arrays and static tables, row i of each for ``ids[i]``, and
    each item's split: ``split[i]`` is ``"train"`` or ``"val"``. ``train_ids``
    and ``val_ids`` are derived from it, each in dataset order. Other shapes,
    table ids or split words are a ``ConfigError``."""

    ids: list[str]
    concepts: np.ndarray  # (N,) int64 concept label per item
    frames: np.ndarray  # (N, T, video_dim)
    text: np.ndarray  # (N, text_dim)
    sse_video: StaticEmbeddingTable
    sse_text: StaticEmbeddingTable
    split: list[str]
    index: dict = field(init=False, repr=False)
    train_ids: list[str] = field(init=False, repr=False)
    val_ids: list[str] = field(init=False, repr=False)

    def __post_init__(self):
        self.index = {item_id: i for i, item_id in enumerate(self.ids)}
        if len(self.index) != len(self.ids):
            raise ConfigError("dataset ids are not unique")
        for name in ("concepts", "frames", "text", "split"):
            if (n := len(getattr(self, name))) != len(self.ids):
                raise ConfigError(f"{name} has {n} rows for {len(self.ids)} ids")
        for name in ("sse_video", "sse_text"):
            if getattr(self, name).ids != self.ids:
                raise ConfigError(f"{name} ids are not the dataset ids in order")
        self.train_ids, self.val_ids = _split_ids(self.ids, self.split)

    def __len__(self) -> int:
        return len(self.ids)

    def rows(self, ids) -> np.ndarray:
        """The row of each id; an id not in the dataset is a ``ConfigError``."""
        try:
            return np.array([self.index[i] for i in ids], dtype=np.int64)
        except KeyError as exc:
            raise ConfigError(f"id {exc.args[0]!r} is not in the dataset") from None

    def pooled_video(self) -> np.ndarray:
        return self.frames.mean(axis=1)


def _split_ids(ids, split) -> tuple[list[str], list[str]]:
    """The train ids and the val ids by the words of ``split``, each in the
    order of ``ids``; a word other than ``train`` or ``val`` is a
    ``ConfigError`` naming its id."""
    splits = {"train": [], "val": []}
    for item_id, word in zip(ids, split):
        if word not in splits:
            raise ConfigError(f"id {item_id!r}: split {word!r} is neither 'train' nor 'val'")
        splits[word].append(item_id)
    return splits["train"], splits["val"]


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
    by ``split_sizes``; ``cfg.validate()`` runs first.

    Each draw comes from its own ``named_rng`` stream. The stream names, the
    order of the draws within a stream and their shapes are what makes a
    seed give the same bytes in every version: change none of them. Frames,
    text and the static text table are formed in place in the arrays their
    noise streams return, each rounding as ``signal + noise * eps`` does.
    """
    cfg.validate()
    sizes = _plan_concept_sizes(cfg)

    n, m, t = cfg.n_items, cfg.latent_dim, cfg.frames_per_video
    ids = [f"it{i:06d}" for i in range(n)]

    latents = named_rng(cfg.seed, "data_latents").standard_normal((cfg.n_concepts, m))
    rng_maps = named_rng(cfg.seed, "data_maps")
    map_video = rng_maps.standard_normal((cfg.video_dim, m)) / np.sqrt(m)
    map_text = rng_maps.standard_normal((cfg.text_dim, m)) / np.sqrt(m)

    # the permuted items, in runs of ``sizes``, take concepts 0, 1, ...
    concepts = np.empty(n, dtype=np.int64)
    perm = named_rng(cfg.seed, "data_assign").permutation(n)
    concepts[perm] = np.repeat(np.arange(len(sizes)), sizes)

    item_latents = latents[concepts]
    signal_video = item_latents @ map_video.T  # (N, video_dim)
    signal_text = item_latents @ map_text.T  # (N, text_dim)

    frames = named_rng(cfg.seed, "data_video_noise").standard_normal((n, t, cfg.video_dim))
    frames *= cfg.noise_video
    frames += signal_video[:, None, :]
    text = named_rng(cfg.seed, "data_text_noise").standard_normal((n, cfg.text_dim))
    text *= cfg.noise_text
    text += signal_text
    # the static text expert is an independent, imperfect view of the clean
    # semantics (an external encoder), not a degraded copy of the raw features
    sse_text_vecs = named_rng(cfg.seed, "data_sse_noise").standard_normal((n, cfg.text_dim))
    sse_text_vecs *= _SSE_TEXT_NOISE_FACTOR * cfg.noise_text
    sse_text_vecs += signal_text
    sse_video_vecs = frames.mean(axis=1)

    split = ["train"] * n
    _, n_val = split_sizes(n)
    for row in named_rng(cfg.seed, "data_split").permutation(n)[:n_val]:
        split[row] = "val"

    return Dataset(
        ids=ids,
        concepts=concepts,
        frames=frames,
        text=text,
        # each table holds its own copy of the ids, so an edit of one list
        # edits no other
        sse_video=StaticEmbeddingTable(list(ids), sse_video_vecs),
        sse_text=StaticEmbeddingTable(list(ids), sse_text_vecs),
        split=split,
    )


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------

def digest(data: bytes) -> str:
    """SHA-256 of ``data`` as 64 lowercase hex characters: manifest digests and config hashes."""
    return hashlib.sha256(data).hexdigest()


# ``Dataset.concepts`` holds int64 labels
_CONCEPT_MAX = np.iinfo(np.int64).max


def _check_labels(dataset: Dataset) -> None:
    """Refuse the ids, concepts and split words that ``_load_labels`` would
    reject or read back otherwise: an id that is empty, holds whitespace,
    has no UTF-8 form or starts with ``#`` (``ConfigError``), a repeated id
    (``DuplicateIdError``), a concept that is negative, not an integer or
    beyond int64 (``ConfigError``, naming its id), and a split word other
    than ``train`` or ``val`` (``_split_ids``), as a caller may edit a
    dataset after ``Dataset`` has checked it."""
    seen = set()
    for item_id, concept in zip(dataset.ids, np.asarray(dataset.concepts).tolist()):
        try:
            writable = item_id.split() == [item_id] and not item_id.startswith("#")
            item_id.encode("utf-8")
        except UnicodeEncodeError:  # a lone surrogate, such as "\ud800"
            writable = False
        if not writable:
            raise ConfigError(
                f"id {item_id!r} cannot be written: "
                "an id is one token of UTF-8 text, not starting with '#'"
            )
        if item_id in seen:
            raise DuplicateIdError(f"duplicate id {item_id!r}")
        seen.add(item_id)
        try:
            exact = concept == int(concept) and 0 <= concept <= _CONCEPT_MAX
        except (TypeError, ValueError, OverflowError):  # not a number, NaN or infinite
            exact = False
        if not exact:
            raise ConfigError(
                f"id {item_id!r}: concept {concept!r} cannot be written: "
                f"a concept is an integer in [0, {_CONCEPT_MAX}]"
            )
    _split_ids(dataset.ids, dataset.split)


def _write_labels(dataset: Dataset, path) -> None:
    """Write each id, its concept and its split word, in one write."""
    concepts = dataset.concepts
    if isinstance(concepts, np.ndarray):
        concepts = concepts.tolist()  # Python numbers: int() takes them fastest
    records = zip(dataset.ids, concepts, dataset.split)
    body = "".join(f"{item_id} {int(concept)} {word}\n" for item_id, concept, word in records)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"LBL2 {len(dataset)}\n{body}")


def _load_labels(path) -> tuple[list[str], list[int], list[str]]:
    """The ids, concepts and split words of an LBL2 file, each in file order;
    an ``LBL1`` header is refused with the ``gen-data`` hint."""
    (n,), records = read_records(path, "LBL2", 1, retired=("LBL1",))
    labels: dict[str, int] = {}
    split: list[str] = []
    for lineno, line in records:
        tokens = line.split()
        if len(tokens) != 3:
            raise ParseError(f"{path}: expected '<id> <concept> <split>'", lineno)
        item_id, concept, word = tokens
        if item_id in labels:
            raise DuplicateIdError(f"line {lineno}: {path}: duplicate id {item_id!r}")
        labels[item_id] = parse_count(concept, lineno, path)
        if labels[item_id] > _CONCEPT_MAX:
            raise ParseError(f"{path}: concept {concept} exceeds the int64 range", lineno)
        if word not in ("train", "val"):
            raise ParseError(f"{path}: split {word!r} is neither 'train' nor 'val'", lineno)
        split.append(sys.intern(word))  # one str per word, not one per record
    if len(labels) != n:
        raise ParseError(f"{path}: header declares {n} labels, found {len(labels)}")
    return list(labels), list(labels.values()), split


def record_digest(role: str, path, header_line: bytes | None = None) -> str:
    """The digest of the MANIFEST4 record of ``role``'s file at ``path``.

    For a row role (``ROW_ROLES``) it is the SHA-256 of the file's first
    line, line end included: ``header_line`` if the caller has it, as
    ``experts.write_container`` returns it, else the line read from the
    file. That line holds the tag, the counts and the payload's SHA-256, so
    it binds the whole file. For the labels file it is the SHA-256 of the
    whole file.
    """
    if role not in ROW_ROLES:
        return digest(Path(path).read_bytes())
    if header_line is None:
        with open(path, "rb") as fh:
            header_line = fh.readline()
    return digest(header_line)


def write_dataset(dataset: Dataset, out_dir) -> None:
    """Write all data files, then a MANIFEST4 manifest with each file's
    ``record_digest``.

    A row file's record digest is taken from the header line its writer
    returns, so no file is read back. The ids, concepts and split
    words (``_check_labels``) and then every row array (its file's head,
    ``experts.frames_head`` or ``embeddings_head``) are checked before the
    directory is made, so a refused dataset leaves no file or directory
    behind.
    """
    _check_labels(dataset)
    out = Path(out_dir)
    embeddings = {
        "text": dataset.text,
        "sse_video": dataset.sse_video.embeddings,
        "sse_text": dataset.sse_text.embeddings,
    }
    heads = {"frames": frames_head(dataset.frames, out / _FILES["frames"])}
    for name, rows in embeddings.items():
        heads[name] = embeddings_head(rows, out / _FILES[name])
    out.mkdir(parents=True, exist_ok=True)
    header_lines = {
        "frames": save_frame_file(dataset.frames, out / _FILES["frames"], heads["frames"])
    }
    for name, rows in embeddings.items():
        header_lines[name] = save_static_embeddings(rows, out / _FILES[name], heads[name])
    _write_labels(dataset, out / _FILES["labels"])

    with open(out / MANIFEST_NAME, "w", encoding="utf-8") as fh:
        fh.write(MANIFEST_HEADER + "\n")
        for role, filename in _FILES.items():
            sha = record_digest(role, out / filename, header_lines.get(role))
            fh.write(f"{role} {filename} {sha}\n")


def _read_manifest(manifest: Path) -> dict[str, tuple[str, int]]:
    """Role -> (digest, line number) from a MANIFEST4 file, every line checked.

    A ``MANIFEST1``, ``MANIFEST2`` or ``MANIFEST3`` header is refused at its
    line with the ``gen-data`` hint. Each role of ``_FILES`` must appear exactly once,
    under its canonical filename, so a manifest can neither add files nor
    point outside the dataset directory. Nothing is hashed here.
    """
    if not manifest.exists():
        raise ParseError(f"{manifest}: manifest not found")
    _, records = read_records(
        manifest, MANIFEST_HEADER, 0, retired=("MANIFEST1", "MANIFEST2", "MANIFEST3")
    )
    entries: dict[str, tuple[str, int]] = {}
    for lineno, line in records:
        parts = line.split()
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
    """Load a dataset directory after checking its MANIFEST4 manifest.

    Every manifest line is validated first; then each file's
    ``record_digest`` must match its record before any file is parsed: the
    whole labels file is hashed, and only the header line of each row file.
    Each row file's payload is hashed once, as it is read, and checked
    against the digest in that header line before any of its values is used
    (``experts.read_container``). The ids, in order, and their split words
    are those of ``labels.txt``, and each row file must hold one row per id.
    """
    root = Path(data_dir)
    manifest = root / MANIFEST_NAME
    for role, (expected, lineno) in _read_manifest(manifest).items():
        filename = _FILES[role]
        target = root / filename
        if not target.exists():
            raise ParseError(f"{manifest}: listed file {filename} is missing", lineno)
        actual = record_digest(role, target)
        if actual != expected:
            what = "header line checksum" if role in ROW_ROLES else "checksum"
            raise ChecksumError(f"{filename}: {what} {actual} != manifest {expected}")

    labels_path = root / _FILES["labels"]
    ids, concepts, split = _load_labels(labels_path)
    rows = {}
    for name, load in (
        ("frames", load_frame_file),
        ("text", load_static_embeddings),
        ("sse_video", load_static_embeddings),
        ("sse_text", load_static_embeddings),
    ):
        path = root / _FILES[name]
        rows[name] = load(path)
        if len(rows[name]) != len(ids):
            raise ParseError(
                f"{path}: holds {len(rows[name])} rows, but {labels_path} holds {len(ids)} ids"
            )

    return Dataset(
        ids=ids,
        concepts=np.array(concepts, dtype=np.int64),
        frames=rows["frames"],
        text=rows["text"],
        sse_video=StaticEmbeddingTable(list(ids), rows["sse_video"]),
        sse_text=StaticEmbeddingTable(list(ids), rows["sse_text"]),
        split=split,
    )
