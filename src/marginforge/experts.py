"""Single-modal supervision experts.

Dynamic experts measure pairwise distance between the live encoder outputs of
a batch; static experts do the same over frozen, externally produced
embeddings loaded from EMB1/FRM1 text files. All distances are 1 - cosine,
giving symmetric B x B matrices with zero diagonal and entries in [0, 2].
"""

from dataclasses import dataclass, field

import numpy as np

from . import kernels
from .errors import (
    DimMismatchError,
    DuplicateIdError,
    EmptyInputError,
    ParseError,
    UnknownIdError,
    ZeroNormError,
)
from .mathcore import ZERO_NORM_EPS, check_row_norms, mean_pool

EXPERT_KINDS = ("dse_text", "dse_video", "sse_text", "sse_video")


@dataclass(frozen=True)
class DistanceMatrix:
    """Pairwise 1 - cosine distances produced by one supervision expert."""

    values: np.ndarray
    expert_kind: str


@dataclass
class StaticEmbeddingTable:
    """Frozen per-item embeddings from an external model, keyed by item id."""

    ids: list[str]
    embeddings: np.ndarray  # (N, D)
    source_label: str
    _index: dict = field(init=False, repr=False)

    def __post_init__(self):
        self._index = {item_id: i for i, item_id in enumerate(self.ids)}
        if len(self._index) != len(self.ids):
            raise DuplicateIdError("table ids are not unique")

    def __len__(self) -> int:
        return len(self.ids)

    @property
    def dim(self) -> int:
        return self.embeddings.shape[1]

    def row(self, item_id: str) -> int:
        try:
            return self._index[item_id]
        except KeyError:
            raise UnknownIdError(f"id {item_id!r} not in table {self.source_label!r}") from None

    def lookup(self, batch_ids) -> np.ndarray:
        return self.embeddings[[self.row(i) for i in batch_ids]]


def _stack_reprs(reprs) -> np.ndarray:
    X = np.asarray(reprs, dtype=np.float64)
    if X.ndim != 2:
        raise DimMismatchError(f"expected a stack of vectors, got shape {X.shape}")
    return X


def pairwise_distances(X: np.ndarray, expert_kind: str) -> DistanceMatrix:
    """1 - cosine over all row pairs, exact zero diagonal, exactly symmetric."""
    X = _stack_reprs(X)
    if X.shape[0] < 2:
        raise EmptyInputError("need at least two items for pairwise distances")
    check_row_norms(X, expert_kind)
    D = 1.0 - kernels.pairwise_cosine(X, X)
    D = 0.5 * (D + D.T)
    np.fill_diagonal(D, 0.0)
    return DistanceMatrix(D, expert_kind)


def dse_text_distances(text_reprs) -> DistanceMatrix:
    """Distances between the live text encoder's batch outputs."""
    return pairwise_distances(_stack_reprs(text_reprs), "dse_text")


def dse_video_distances(video_reprs) -> DistanceMatrix:
    """Distances between the live video encoder's batch outputs."""
    return pairwise_distances(_stack_reprs(video_reprs), "dse_video")


def sse_video_distances(frames_per_item) -> DistanceMatrix:
    """Mean-pool each item's frame matrix, then pairwise distances."""
    pooled = [mean_pool(frames) for frames in frames_per_item]
    if len(pooled) < 2:
        raise EmptyInputError("need at least two items for pairwise distances")
    dims = {p.shape[0] for p in pooled}
    if len(dims) != 1:
        raise DimMismatchError(f"frame feature dims differ across items: {sorted(dims)}")
    return pairwise_distances(np.stack(pooled), "sse_video")


def sse_text_distances(table: StaticEmbeddingTable, batch_ids) -> DistanceMatrix:
    """Distances between frozen text embeddings for the given batch ids."""
    return pairwise_distances(table.lookup(batch_ids), "sse_text")


# ---------------------------------------------------------------------------
# EMB1 / FRM1 text formats
# ---------------------------------------------------------------------------

def _data_lines(path):
    """Yield (line_number, stripped_text) skipping blanks and # comments."""
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            text = raw.strip()
            if not text or text.startswith("#"):
                continue
            yield lineno, text


def parse_floats(tokens, lineno) -> np.ndarray:
    """Finite float64 row from text tokens; shared by the EMB1, FRM1 and CKPT1 loaders."""
    try:
        vals = np.array([float(t) for t in tokens])
    except ValueError as exc:
        raise ParseError(f"bad numeric literal: {exc}", lineno) from None
    if not np.isfinite(vals).all():
        raise ParseError("non-finite value", lineno)
    return vals


def load_static_embeddings(path, source_label: str | None = None) -> StaticEmbeddingTable:
    """Parse an EMB1 file: header ``EMB1 <N> <D>`` then N ``<id> <x1..xD>`` lines."""
    lines = _data_lines(path)
    try:
        lineno, header = next(lines)
    except StopIteration:
        raise ParseError(f"{path}: empty file, expected EMB1 header") from None
    parts = header.split()
    if len(parts) != 3 or parts[0] != "EMB1":
        raise ParseError(f"expected 'EMB1 <N> <D>' header, got {header!r}", lineno)
    try:
        n, dim = int(parts[1]), int(parts[2])
    except ValueError:
        raise ParseError(f"non-integer counts in header {header!r}", lineno) from None
    if n < 0 or dim < 1:
        raise ParseError(f"invalid counts in header {header!r}", lineno)

    ids: list[str] = []
    seen: set[str] = set()
    rows = np.empty((n, dim), dtype=np.float64)
    count = 0
    for lineno, text in lines:
        if count >= n:
            raise ParseError(f"more than {n} data rows", lineno)
        tokens = text.split()
        if len(tokens) != dim + 1:
            raise DimMismatchError(
                f"line {lineno}: expected id + {dim} values, got {len(tokens) - 1}"
            )
        item_id = tokens[0]
        if item_id in seen:
            raise DuplicateIdError(f"line {lineno}: duplicate id {item_id!r}")
        seen.add(item_id)
        ids.append(item_id)
        rows[count] = parse_floats(tokens[1:], lineno)
        count += 1
    if count != n:
        raise ParseError(f"{path}: header declares {n} rows, found {count}")

    norms = np.linalg.norm(rows, axis=1) if n else np.array([])
    if n and np.any(norms < ZERO_NORM_EPS):
        bad = ids[int(np.argmin(norms))]
        raise ZeroNormError(f"{path}: embedding for {bad!r} has near-zero norm")
    label = source_label if source_label is not None else str(path)
    return StaticEmbeddingTable(ids, rows, label)


def save_static_embeddings(table: StaticEmbeddingTable, path) -> None:
    """Write an EMB1 file; values carry 18 significant digits so re-parsing is exact."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"EMB1 {len(table.ids)} {table.dim}\n")
        for item_id, row in zip(table.ids, table.embeddings):
            fh.write(item_id + " " + " ".join(f"{x:.17e}" for x in row) + "\n")


def load_frame_file(path) -> tuple[list[str], np.ndarray]:
    """Parse an FRM1 file into (ids, frames) with frames shaped (N, T, D).

    Header is ``FRM1 <N> <T> <D>``; each of the N*T data lines is
    ``<id> <frame_index> <x1..xD>`` with frame_index in [0, T).
    """
    lines = _data_lines(path)
    try:
        lineno, header = next(lines)
    except StopIteration:
        raise ParseError(f"{path}: empty file, expected FRM1 header") from None
    parts = header.split()
    if len(parts) != 4 or parts[0] != "FRM1":
        raise ParseError(f"expected 'FRM1 <N> <T> <D>' header, got {header!r}", lineno)
    try:
        n, t, dim = int(parts[1]), int(parts[2]), int(parts[3])
    except ValueError:
        raise ParseError(f"non-integer counts in header {header!r}", lineno) from None
    if n < 0 or t < 1 or dim < 1:
        raise ParseError(f"invalid counts in header {header!r}", lineno)

    ids: list[str] = []
    order: dict[str, int] = {}
    frames = np.empty((n, t, dim), dtype=np.float64)
    filled = np.zeros((n, t), dtype=bool)
    for lineno, text in lines:
        tokens = text.split()
        if len(tokens) != dim + 2:
            raise DimMismatchError(
                f"line {lineno}: expected id + frame_index + {dim} values, got {len(tokens) - 2}"
            )
        item_id = tokens[0]
        try:
            fidx = int(tokens[1])
        except ValueError:
            raise ParseError(f"bad frame index {tokens[1]!r}", lineno) from None
        if not 0 <= fidx < t:
            raise ParseError(f"frame index {fidx} outside [0, {t})", lineno)
        if item_id not in order:
            if len(ids) >= n:
                raise ParseError(f"more than {n} distinct ids", lineno)
            order[item_id] = len(ids)
            ids.append(item_id)
        row = order[item_id]
        if filled[row, fidx]:
            raise DuplicateIdError(f"line {lineno}: duplicate frame {fidx} for id {item_id!r}")
        frames[row, fidx] = parse_floats(tokens[2:], lineno)
        filled[row, fidx] = True

    if len(ids) != n:
        raise ParseError(f"{path}: header declares {n} ids, found {len(ids)}")
    if not filled.all():
        missing = np.argwhere(~filled)[0]
        raise ParseError(f"{path}: id {ids[missing[0]]!r} is missing frame {missing[1]}")
    return ids, frames


def save_frame_file(ids, frames: np.ndarray, path) -> None:
    """Write an FRM1 file (item-major, ascending frame index)."""
    n, t, dim = frames.shape
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"FRM1 {n} {t} {dim}\n")
        for item_id, item in zip(ids, frames):
            for fidx in range(t):
                fh.write(
                    f"{item_id} {fidx} " + " ".join(f"{x:.17e}" for x in item[fidx]) + "\n"
                )
