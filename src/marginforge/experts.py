"""Single-modal supervision experts.

Dynamic experts measure pairwise distance between the live encoder outputs of
a batch; static experts do the same over frozen, externally produced
embeddings loaded from EMB1/FRM1 text files. All distances are 1 - cosine,
giving symmetric B x B matrices with zero diagonal and entries in [0, 2].

The EMB1, FRM1 and CKPT2 loaders check each record line's structure as they
read it, but convert its floats a block at a time through ``FloatRows``: one
numpy cast per ``FLOAT_BLOCK_VALUES`` values, not one ``float()`` per token.
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
from .mathcore import ZERO_NORM_EPS

EXPERT_KINDS = ("dse_text", "dse_video", "sse_text", "sse_video")

# Float tokens converted by one numpy cast in ``FloatRows``. A block is bounded
# by values, not rows, so its token list (about 80 bytes a value) stays small
# however wide a row is; larger blocks were no faster.
FLOAT_BLOCK_VALUES = 1 << 13


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


def pairwise_distances(U: np.ndarray) -> np.ndarray:
    """1 - cosine over all pairs of unit rows, exact zero diagonal, exactly symmetric.

    ``U`` holds unit rows from ``mathcore.unit_rows``; the result is a new
    B x B float64 array, whatever the expert. Symmetry comes from
    ``kernels.pairwise_cosine(U, U)``, whose self product is exactly
    symmetric; the distances are formed in place in that matrix.
    """
    if U.shape[0] < 2:
        raise EmptyInputError("need at least two items for pairwise distances")
    D = kernels.pairwise_cosine(U, U)
    np.subtract(1.0, D, out=D)
    np.fill_diagonal(D, 0.0)
    return D


# ---------------------------------------------------------------------------
# EMB1 / FRM1 text formats (line rules: ``read_records``)
# ---------------------------------------------------------------------------

def read_records(path, tag: str, n_counts: int):
    """Header counts and a record stream for every line format of the package.

    The one rule shared by FRM1, EMB1, LBL1, SPLIT1, MANIFEST2 and CKPT2:

    - blank lines, and lines whose first token starts with ``#``, are skipped
      everywhere, before the header as well as between records;
    - the first remaining line is the header: ``tag`` followed by exactly
      ``n_counts`` counts, each read by ``parse_count``; any other header is a
      ``ParseError`` at its line;
    - every later line is a record.

    Returns ``(counts, records)``: the header's counts as a list of ints, and
    an iterator of ``(line_number, tokens)``, one per record, read lazily from
    the open file.
    """
    records = _token_lines(path)
    lineno, tokens = next(records, (None, None))
    if tokens is None:
        raise ParseError(f"{path}: no {tag} header")
    if tokens[0] != tag or len(tokens) != n_counts + 1:
        expected = " ".join([tag] + ["<N>"] * n_counts)
        raise ParseError(f"{path}: expected '{expected}' header, got {' '.join(tokens)!r}", lineno)
    return [parse_count(token, lineno, path) for token in tokens[1:]], records


def _token_lines(path):
    """(line_number, tokens) of each line that is neither blank nor a comment."""
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            tokens = line.split()
            if tokens and not tokens[0].startswith("#"):
                yield lineno, tokens


def parse_count(token: str, lineno, path) -> int:
    """Non-negative decimal integer: every header count, FRM1 frame index and LBL1 concept.

    Only ASCII digits are accepted, so ``+2``, ``-0``, ``1_0`` and ``1.5``
    are rejected although ``int()`` takes the first three.
    """
    if not (token.isascii() and token.isdigit()):
        raise ParseError(
            f"{path}: bad count {token!r}: expected a non-negative decimal integer", lineno
        )
    return int(token)


def row_format(dim: int, prefix: str = "") -> str:
    """%-format string for one text row: ``prefix`` then ``dim`` floats at 18 significant digits.

    ``"%.17e" % x`` gives the same text as ``f"{x:.17e}"``, and re-parsing it is exact.
    """
    return prefix + " ".join(["%.17e"] * dim) + "\n"


def parse_floats(tokens, lineno, path) -> np.ndarray:
    """Finite float64 row from text tokens: the literal rule of EMB1, FRM1 and CKPT2.

    A token is accepted exactly when ``float()`` accepts it. The loaders
    convert their rows per block in ``FloatRows``, whose cast accepts the same
    literals; this per-row form runs only to find the line of a rejected one.
    """
    try:
        vals = np.array([float(t) for t in tokens])
    except ValueError as exc:
        raise ParseError(f"{path}: bad numeric literal: {exc}", lineno) from None
    if not np.isfinite(vals).all():
        raise ParseError(f"{path}: non-finite value", lineno)
    return vals


class FloatRows:
    """Float rows of one text file, converted to float64 a block at a time.

    A loader checks each record line itself and queues the line's float
    tokens with ``add``, naming the offset of the row's first value in the
    flat view of ``out``. Every ``FLOAT_BLOCK_VALUES`` queued values are cast
    by one ``np.array(tokens, dtype=np.float64)``, checked for finiteness and
    scattered into ``out``.

    Used as a context manager, the pending block is converted when the record
    loop ends and also before any error leaves it, so a malformed file raises
    the first of its errors in file order, at that error's line.
    """

    def __init__(self, path, out: np.ndarray):
        self.path = path
        self.flat = out.reshape(-1)  # a view: ``out`` is a fresh, contiguous array
        self.tokens: list[str] = []
        self.lines: list[int] = []
        self.starts: list[int] = []  # index in ``tokens`` of each row's first value
        self.dests: list[int] = []  # index in ``flat`` of each row's first value

    def add(self, lineno: int, tokens: list[str], dest: int) -> None:
        self.lines.append(lineno)
        self.starts.append(len(self.tokens))
        self.dests.append(dest)
        self.tokens += tokens
        if len(self.tokens) >= FLOAT_BLOCK_VALUES:
            self.flush()

    def flush(self) -> None:
        """Convert, check and scatter the queued rows."""
        if not self.lines:
            return
        try:
            vals = np.array(self.tokens, dtype=np.float64)
        except ValueError:
            ends = self.starts[1:] + [len(self.tokens)]
            for lineno, start, end in zip(self.lines, self.starts, ends):
                parse_floats(self.tokens[start:end], lineno, self.path)
            raise  # unreachable: the cast and ``parse_floats`` accept the same literals
        starts = np.array(self.starts)
        finite = np.isfinite(vals)
        if not finite.all():
            row = int(np.searchsorted(starts, np.argmin(finite), side="right")) - 1
            raise ParseError(f"{self.path}: non-finite value", self.lines[row])
        widths = np.diff(starts, append=len(self.tokens))
        self.flat[np.repeat(np.array(self.dests) - starts, widths) + np.arange(vals.size)] = vals
        self.tokens, self.lines, self.starts, self.dests = [], [], [], []

    def __enter__(self) -> "FloatRows":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        if exc_type is None:
            self.flush()
        elif issubclass(exc_type, Exception):
            try:
                self.flush()
            except ParseError as earlier:
                raise earlier from None  # an earlier line's error replaces the one leaving


def load_static_embeddings(path, source_label: str | None = None) -> StaticEmbeddingTable:
    """Parse an EMB1 file: header ``EMB1 <N> <D>`` then N ``<id> <x1..xD>`` records."""
    (n, dim), records = read_records(path, "EMB1", 2)
    if dim < 1:
        raise ParseError(f"{path}: EMB1 header needs D >= 1")

    ids: list[str] = []
    seen: set[str] = set()
    rows = np.empty((n, dim), dtype=np.float64)
    with FloatRows(path, rows) as block:
        for lineno, tokens in records:
            if len(ids) >= n:
                raise ParseError(f"{path}: more than {n} data rows", lineno)
            if len(tokens) != dim + 1:
                raise DimMismatchError(
                    f"line {lineno}: {path}: expected id + {dim} values, got {len(tokens) - 1}"
                )
            item_id = tokens[0]
            if item_id in seen:
                raise DuplicateIdError(f"line {lineno}: {path}: duplicate id {item_id!r}")
            seen.add(item_id)
            block.add(lineno, tokens[1:], len(ids) * dim)
            ids.append(item_id)
    if len(ids) != n:
        raise ParseError(f"{path}: header declares {n} rows, found {len(ids)}")

    norms = np.linalg.norm(rows, axis=1) if n else np.array([])
    if n and np.any(norms < ZERO_NORM_EPS):
        bad = ids[int(np.argmin(norms))]
        raise ZeroNormError(f"{path}: embedding for {bad!r} has near-zero norm")
    label = source_label if source_label is not None else str(path)
    return StaticEmbeddingTable(ids, rows, label)


def save_static_embeddings(table: StaticEmbeddingTable, path) -> None:
    """Write an EMB1 file; values carry 18 significant digits so re-parsing is exact."""
    fmt = row_format(table.dim, "%s ")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"EMB1 {len(table.ids)} {table.dim}\n")
        for item_id, row in zip(table.ids, table.embeddings):
            fh.write(fmt % (item_id, *row.tolist()))


def load_frame_file(path) -> tuple[list[str], np.ndarray]:
    """Parse an FRM1 file into (ids, frames) with frames shaped (N, T, D).

    Header is ``FRM1 <N> <T> <D>``; each of the N*T records is
    ``<id> <frame_index> <x1..xD>`` with frame_index in [0, T).
    """
    (n, t, dim), records = read_records(path, "FRM1", 3)
    if t < 1 or dim < 1:
        raise ParseError(f"{path}: FRM1 header needs T >= 1 and D >= 1")

    ids: list[str] = []
    order: dict[str, int] = {}
    frames = np.empty((n, t, dim), dtype=np.float64)
    filled = np.zeros((n, t), dtype=bool)
    with FloatRows(path, frames) as block:
        for lineno, tokens in records:
            if len(tokens) != dim + 2:
                raise DimMismatchError(
                    f"line {lineno}: {path}: expected id + frame_index + {dim} values, "
                    f"got {len(tokens) - 2}"
                )
            item_id = tokens[0]
            fidx = parse_count(tokens[1], lineno, path)
            if fidx >= t:
                raise ParseError(f"{path}: frame index {fidx} outside [0, {t})", lineno)
            if item_id not in order:
                if len(ids) >= n:
                    raise ParseError(f"{path}: more than {n} distinct ids", lineno)
                order[item_id] = len(ids)
                ids.append(item_id)
            row = order[item_id]
            if filled[row, fidx]:
                raise DuplicateIdError(
                    f"line {lineno}: {path}: duplicate frame {fidx} for id {item_id!r}"
                )
            block.add(lineno, tokens[2:], (row * t + fidx) * dim)
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
    fmt = row_format(dim, "%s %d ")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"FRM1 {n} {t} {dim}\n")
        for item_id, item in zip(ids, frames):
            for fidx, row in enumerate(item.tolist()):
                fh.write(fmt % (item_id, fidx, *row))
