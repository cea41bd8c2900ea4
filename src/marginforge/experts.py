"""Single-modal supervision experts: their tables and their file formats.

Dynamic experts read the live encoder outputs of a batch; static experts read
frozen, externally produced embeddings, one row per item in ``Dataset.ids``
order, held in a ``StaticEmbeddingTable`` and loaded from EMB2 text files.
Either kind's unit rows become margins in ``margin.expert_margins``;
``EXPERT_KINDS`` names the four experts.

An EMB2 file holds one record per item, ``<id>`` and then its D values;
an FRM3 file is the same with T*D values, the item's (T, D) frames in
frame-major order. Both are read and written by one record loop,
``_load_rows`` and ``_save_rows``, which hold each float as its exact C99
hex literal (``float.hex``): it re-parses bit for bit, takes no decimal
conversion, and the token rule of ``_hex_values`` accepts no non-finite
value. EMB1, FRM1 and FRM2 files are rejected with a hint to regenerate the
dataset with ``gen-data``.
"""

import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import DimMismatchError, DuplicateIdError, ParseError, ZeroNormError
from .mathcore import row_norms

EXPERT_KINDS = ("dse_text", "dse_video", "sse_text", "sse_video")


@dataclass(frozen=True)
class StaticEmbeddingTable:
    """Frozen per-item embeddings from an external model: row i is ``ids[i]``'s.

    ``Dataset`` requires ``ids`` to be its own, in order, so a table's rows
    are indexed by dataset row.
    """

    ids: list[str]
    embeddings: np.ndarray  # (N, D)

    def __post_init__(self):
        if len(self.ids) != len(self.embeddings):
            raise DimMismatchError(f"{len(self.ids)} ids for {len(self.embeddings)} embedding rows")


# ---------------------------------------------------------------------------
# EMB2 / FRM3 text formats (line rules: ``read_records``)
# ---------------------------------------------------------------------------

def read_records(path, tag: str, n_counts: int, least_bytes=None, retired=()):
    """Header counts and a record stream for every line format of the package.

    The one rule shared by the five line formats, FRM3, EMB2, LBL1, SPLIT1 and
    MANIFEST2 (checkpoints are binary CKPT3 files, ``model.read_checkpoint``):

    - blank lines, and lines whose first token starts with ``#``, are skipped
      everywhere, before the header as well as between records;
    - the first remaining line is the header: ``tag`` followed by exactly
      ``n_counts`` counts, each read by ``parse_count``; any other header is a
      ``ParseError`` at its line, and one whose first token is a ``retired``
      tag, an older version of the format, says to regenerate the dataset;
    - every later line is a record.

    ``least_bytes``, if given, maps the header's counts to the fewest bytes
    the records they declare can take; a header that declares more than the
    file holds is a ``ParseError`` at its line, so a loader sizes its arrays
    only from counts that the file can back.

    Returns ``(counts, records)``: the header's counts as a list of ints, and
    an iterator of ``(line_number, tokens)``, one per record, read lazily from
    the open file.
    """
    records = _token_lines(path)
    lineno, tokens = next(records, (None, None))
    if tokens is None:
        raise ParseError(f"{path}: no {tag} header")
    if tokens[0] in retired:
        raise ParseError(
            f"{path}: {tokens[0]} files are no longer read, regenerate the dataset "
            f"with gen-data to write {tag}", lineno,
        )
    if tokens[0] != tag or len(tokens) != n_counts + 1:
        expected = " ".join([tag] + ["<N>"] * n_counts)
        raise ParseError(f"{path}: expected '{expected}' header, got {' '.join(tokens)!r}", lineno)
    counts = [parse_count(token, lineno, path) for token in tokens[1:]]
    if least_bytes is not None:
        need, size = least_bytes(*counts), Path(path).stat().st_size
        if need > size:
            raise ParseError(
                f"{path}: header declares records of at least {need} bytes, "
                f"but the file holds {size}", lineno,
            )
    return counts, records


def _token_lines(path):
    """(line_number, tokens) of each line that is neither blank nor a comment.

    A line whose bytes are not UTF-8 raises ``ParseError`` at that line,
    after the lines before it, so a file's errors still come in file order.
    """
    with open(path, "r", encoding="utf-8", errors="surrogateescape") as fh:
        for lineno, line in enumerate(fh, start=1):
            if not line.isascii():
                try:
                    line.encode("utf-8", "surrogateescape").decode("utf-8")
                except UnicodeDecodeError as exc:
                    raise ParseError(f"{path}: not UTF-8 text: {exc.reason}", lineno) from None
            tokens = line.split()
            if tokens and not tokens[0].startswith("#"):
                yield lineno, tokens


def parse_count(token: str, lineno, path) -> int:
    """Non-negative decimal integer: every header count and LBL1 concept.

    Only ASCII digits are accepted, so ``+2``, ``-0``, ``1_0`` and ``1.5``
    are rejected although ``int()`` takes the first three.
    """
    if not (token.isascii() and token.isdigit()):
        raise ParseError(
            f"{path}: bad count {token!r}: expected a non-negative decimal integer", lineno
        )
    return int(token)


def _hex_values(tokens: list[str], lineno, path) -> list[float]:
    """The floats of one record's value tokens; a token outside the rule is a ``ParseError``.

    A value token is an optional sign, then a lowercase ``0x``, then what
    ``float.fromhex`` accepts: ``-0x1.8p+0`` is -1.5. The ``0x`` is required,
    because ``fromhex`` reads ``1.5`` as 1.3125 and also accepts ``inf`` and
    ``nan``. Only a token's prefix can hold ``0x`` once ``fromhex`` took it,
    so one count over the joined tokens checks every prefix. An exponent
    beyond the float range (``0x1p+9999``) is rejected too.
    """
    try:
        values = list(map(float.fromhex, tokens))
        if " ".join(tokens).count("0x") == len(tokens):
            return values
    except (ValueError, OverflowError):
        pass
    for token in tokens:
        try:
            float.fromhex(token)
        except (ValueError, OverflowError):
            break
        if not token.lstrip("+-").startswith("0x"):
            break
    raise ParseError(f"{path}: bad value {token!r}: expected a hex float such as -0x1.8p+0", lineno)


def _load_rows(path, tag: str, n_counts: int, retired) -> tuple[list[str], np.ndarray]:
    """The ids and rows of a file whose header is ``tag <N> <counts...>``.

    Each of the N records is ``<id>`` and then one row of ``width`` hex
    float tokens (``_hex_values``), where ``width`` is the product of the
    counts after N, each of which must be at least 1. Returns the ids in file
    order and the rows shaped (N, *counts after N).
    """
    # a record is width + 1 tokens, each of at least one byte and a separator
    (n, *shape), records = read_records(
        path, tag, n_counts, lambda n, *shape: 2 * n * (math.prod(shape) + 1), retired
    )
    if min(shape) < 1:
        raise ParseError(f"{path}: {tag} header needs every count after N >= 1")
    width = math.prod(shape)

    ids: list[str] = []
    seen: set[str] = set()
    rows = np.empty((n, width), dtype=np.float64)
    for lineno, tokens in records:
        if len(ids) >= n:
            raise ParseError(f"{path}: more than {n} data rows", lineno)
        if len(tokens) != width + 1:
            raise DimMismatchError(
                f"line {lineno}: {path}: expected id + {width} values, got {len(tokens) - 1}"
            )
        item_id = tokens[0]
        if item_id in seen:
            raise DuplicateIdError(f"line {lineno}: {path}: duplicate id {item_id!r}")
        seen.add(item_id)
        rows[len(ids)] = _hex_values(tokens[1:], lineno, path)
        ids.append(item_id)
    if len(ids) != n:
        raise ParseError(f"{path}: header declares {n} rows, found {len(ids)}")
    return ids, rows.reshape(n, *shape)


def _save_rows(path, header: str, ids, rows: np.ndarray) -> None:
    """Write ``header``, then one ``<id> <hex values>`` record per row of the 2-D ``rows``."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"{header}\n")
        for item_id, row in zip(ids, rows):
            # one row at a time: a whole-array tolist() would hold every value as a float
            fh.write(f"{item_id} {' '.join(map(float.hex, row.tolist()))}\n")


def load_static_embeddings(path) -> tuple[list[str], np.ndarray]:
    """Parse an EMB2 file into (ids, rows) with rows shaped (N, D).

    Header is ``EMB2 <N> <D>``; each of the N records is ``<id> <x1..xD>``.
    A row whose norm is non-finite or near zero is a ``ZeroNormError``.
    """
    ids, rows = _load_rows(path, "EMB2", 2, retired=("EMB1",))
    bad = row_norms(rows)[1]
    if bad is not None:
        raise ZeroNormError(f"{path}: embedding for {ids[bad]!r} has non-finite or near-zero norm")
    return ids, rows


def save_static_embeddings(ids, rows: np.ndarray, path) -> None:
    """Write an EMB2 file; each value is its ``float.hex`` literal, so re-parsing is exact."""
    n, dim = rows.shape
    _save_rows(path, f"EMB2 {n} {dim}", ids, rows)


def load_frame_file(path) -> tuple[list[str], np.ndarray]:
    """Parse an FRM3 file into (ids, frames) with frames shaped (N, T, D).

    Header is ``FRM3 <N> <T> <D>``; each of the N records is ``<id>`` and
    then the item's T*D values in frame-major order, as in EMB2.
    """
    return _load_rows(path, "FRM3", 3, retired=("FRM1", "FRM2"))


def save_frame_file(ids, frames: np.ndarray, path) -> None:
    """Write an FRM3 file: one record per item, ``frames[i].reshape(-1)``, values as in EMB2."""
    n, t, dim = frames.shape
    _save_rows(path, f"FRM3 {n} {t} {dim}", ids, frames.reshape(n, t * dim))
