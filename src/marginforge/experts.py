"""Single-modal supervision experts: their tables and the package's file skeletons.

Dynamic experts read the live encoder outputs of a batch; static experts read
frozen, externally produced embeddings, one row per item in ``Dataset.ids``
order, held in a ``StaticEmbeddingTable`` and loaded from EMB3 files.
Either kind's unit rows become margins in ``margin.expert_margins``.

Every file of the package has one of two skeletons, and both live here.
``read_records`` holds the line rule of the two line formats, LBL2 and
MANIFEST4. ``write_container`` and ``read_container`` hold the binary
container of row files and checkpoints: one ASCII header line whose fields
include the SHA-256 of the payload, then the payload, raw little-endian
float64 values. Only marginforge writes and reads these files, so the values
go out as their own bytes and come back bit-exact.

Two row formats use the container. An EMB3 file, ``EMB3 <N> <D> <sha256>``,
holds N rows of D values; an FRM4 file, ``FRM4 <N> <T> <D> <sha256>``, holds
N items' (T, D) frames, frame-major. Neither holds ids: row i belongs to the
item on record i of the dataset's ``labels.txt``. The text formats before
them (EMB1, EMB2, FRM1, FRM2 and FRM3) are rejected with a hint to
regenerate the dataset with ``gen-data``. CKPT3 checkpoints are the third
container format (``model.read_checkpoint``).
"""

import hashlib
import math
import os
from dataclasses import dataclass

import numpy as np

from .errors import (
    ChecksumError,
    DimMismatchError,
    NonFiniteError,
    ParseError,
    ShapeMismatchError,
    ZeroNormError,
)
from .mathcore import row_norms

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
# line formats: LBL2, MANIFEST4
# ---------------------------------------------------------------------------

def read_records(path, tag: str, n_counts: int, retired=()):
    """Header counts and a record stream for every line format of the package.

    The one rule shared by the two line formats, LBL2 and MANIFEST4 (row
    files and checkpoints are binary, ``read_container``):

    - blank lines, and lines whose first token starts with ``#``, are skipped
      everywhere, before the header as well as between records;
    - the first remaining line is the header: ``tag`` followed by exactly
      ``n_counts`` counts, each read by ``parse_count``; any other header is a
      ``ParseError`` at its line, and one whose first token is a ``retired``
      tag, an older version of the format, says to regenerate the dataset;
    - every later line is a record.

    Returns ``(counts, records)``: the header's counts as a list of ints and
    an iterator of ``(line_number, line)``, one per record, read lazily from
    the open file. A record's ``line`` is its text as read, line end
    included; a loader takes its tokens with ``line.split()``.
    """
    records = _content_lines(path)
    lineno, line = next(records, (None, None))
    if line is None:
        raise ParseError(f"{path}: no {tag} header")
    tokens = line.split()
    if tokens[0] in retired:
        raise ParseError(f"{path}: {_retired_hint(tag, tokens[0])}", lineno)
    if tokens[0] != tag or len(tokens) != n_counts + 1:
        expected = " ".join([tag] + ["<N>"] * n_counts)
        raise ParseError(f"{path}: expected '{expected}' header, got {' '.join(tokens)!r}", lineno)
    counts = [parse_count(token, lineno, path) for token in tokens[1:]]
    return counts, records


def _content_lines(path):
    """(line_number, line) of each line that is neither blank nor a comment.

    A line is blank or a comment when ``line.lstrip()`` is empty or starts
    with ``#``; ``str.strip`` and ``str.split`` share one definition of
    whitespace, so this is the first token's rule. A line whose bytes are
    not UTF-8 raises ``ParseError`` at that line, after the lines before it,
    so a file's errors still come in file order.
    """
    with open(path, "r", encoding="utf-8", errors="surrogateescape") as fh:
        for lineno, line in enumerate(fh, start=1):
            if not line.isascii():
                try:
                    line.encode("utf-8", "surrogateescape").decode("utf-8")
                except UnicodeDecodeError as exc:
                    raise ParseError(f"{path}: not UTF-8 text: {exc.reason}", lineno) from None
            head = line.lstrip()
            if head and head[0] != "#":
                yield lineno, line


def parse_count(token: str, lineno, path) -> int:
    """Non-negative decimal integer: every header count and LBL2 concept.

    Only ASCII digits are accepted, so ``+2``, ``-0``, ``1_0`` and ``1.5``
    are rejected although ``int()`` takes the first three.
    """
    if not (token.isascii() and token.isdigit()):
        raise ParseError(
            f"{path}: bad count {token!r}: expected a non-negative decimal integer", lineno
        )
    return int(token)


# ---------------------------------------------------------------------------
# binary container: FRM4, EMB3 and CKPT3
# ---------------------------------------------------------------------------

_FLOAT = np.dtype("<f8")


def write_container(path, head: str, arrays, tail: str = "") -> bytes:
    """Write the header ``<head> <sha256> <tail>`` and a line end, then the
    payload: each of ``arrays`` as raw little-endian float64 in C order.

    ``<sha256>`` is the payload's digest, and an empty ``tail`` is no token.
    The payload is hashed from the arrays and written from them, so only an
    array that is not already C-ordered ``<f8`` is copied.

    Returns the header line as written, line end included: the bytes a
    MANIFEST4 record hashes to bind a row file (``data.record_digest``), so
    the writer need not read the file back.
    """
    arrays = [np.ascontiguousarray(arr, dtype=_FLOAT) for arr in arrays]
    sha = hashlib.sha256()
    for arr in arrays:
        sha.update(arr)
    header = " ".join(filter(None, (head, sha.hexdigest(), tail)))
    line = f"{header}\n".encode("ascii")
    with open(path, "wb") as fh:
        fh.write(line)
        for arr in arrays:
            fh.write(arr)
    return line


def read_container(path, tag: str, hint: str, layout):
    """The header and the flat float64 payload of a container file.

    Checks, in this order: the first line is ASCII and its first token is
    ``tag``, else a ``ParseError`` at line 1 that ends with ``hint``; the
    other tokens, by ``layout(fields)``, which raises its own ``ParseError``
    at line 1 and returns ``(sha256, count, header)``: the digest the header
    declares, the number of values it declares and whatever the caller read
    from it; the payload's digest (``ChecksumError``); and its length,
    ``count`` values (``ParseError``). Finiteness is the caller's check, so
    that its error can name what holds the value.

    No array is made before the length matches, so a header that declares
    more than the file holds costs nothing; a payload of the right length is
    read straight into the array that is returned, and hashed there.

    Returns ``(header, values)``.
    """
    with open(path, "rb") as fh:
        line = fh.readline()
        parts = line.decode("ascii").split() if line.endswith(b"\n") and line.isascii() else []
        if not parts or parts[0] != tag:
            raise ParseError(f"{path}: expected a {tag} header; {hint}", 1)
        expected, count, header = layout(parts[1:])
        size, need = os.fstat(fh.fileno()).st_size - fh.tell(), count * _FLOAT.itemsize
        sha = hashlib.sha256()
        if size == need:
            values = np.empty(count, dtype=_FLOAT)
            fh.readinto(values)
            sha.update(values)
        else:
            while chunk := fh.read(1 << 16):
                sha.update(chunk)
    if sha.hexdigest() != expected:
        raise ChecksumError(f"{path}: payload digest does not match the header's {expected}")
    if size != need:
        raise ParseError(f"{path}: payload holds {size} bytes, expected {need}")
    return header, values


def _retired_hint(tag: str, retired: str) -> str:
    return (
        f"{retired} files are no longer read, "
        f"regenerate the dataset with gen-data to write {tag}"
    )


def _read_rows(path, tag: str, n_counts: int, hint: str) -> np.ndarray:
    """The rows of a file whose header is ``tag <N> <counts...> <sha256>``,
    shaped (N, *counts after N); each count after N must be at least 1, and
    a non-finite value is a ``ParseError`` naming its row."""

    def layout(fields):
        if len(fields) != n_counts + 1:
            expected = " ".join([tag] + ["<N>"] * n_counts + ["<sha256>"])
            raise ParseError(f"{path}: expected '{expected}' header", 1)
        n, *shape = (parse_count(token, 1, path) for token in fields[:-1])
        if min(shape) < 1:
            raise ParseError(f"{path}: {tag} header needs every count after N >= 1", 1)
        return fields[-1], n * math.prod(shape), (n, *shape)

    shape, values = read_container(path, tag, hint, layout)
    finite = np.isfinite(values)
    if not finite.all():
        row = int(np.argmin(finite)) // math.prod(shape[1:])
        raise ParseError(f"{path}: row {row} holds a non-finite value")
    return values.reshape(shape)


def _row_head(path, tag: str, rows: np.ndarray, dims: tuple[str, ...]) -> str:
    """The head ``tag <N> <counts...>`` of a row file at ``path`` for
    ``rows``, once they pass the check: rows the loaders would reject are
    refused. Those are rows whose rank is not the length of ``dims``, the
    names of their axes such as ``("N", "D")``, or that hold no value
    (``ShapeMismatchError``), and a row holding a non-finite value
    (``NonFiniteError``, naming its row)."""
    if rows.ndim != len(dims):
        raise ShapeMismatchError(
            f"{path}: {tag} rows need {len(dims)} dimensions ({', '.join(dims)}), "
            f"got shape {rows.shape}"
        )
    if min(rows.shape[1:]) < 1:
        raise ShapeMismatchError(f"{path}: rows need at least one value, got shape {rows.shape}")
    finite = np.isfinite(rows).all(axis=tuple(range(1, rows.ndim)))
    if not finite.all():
        raise NonFiniteError(f"{path}: row {int(np.argmin(finite))} holds a non-finite value")
    return " ".join([tag, *map(str, rows.shape)])


def load_static_embeddings(path) -> np.ndarray:
    """The (N, D) rows of an EMB3 file, ``EMB3 <N> <D> <sha256>``.

    A row whose norm is non-finite or near zero is a ``ZeroNormError``.
    """
    rows = _read_rows(path, "EMB3", 2, _retired_hint("EMB3", "EMB1 and EMB2"))
    bad = row_norms(rows)[1]
    if bad is not None:
        raise ZeroNormError(f"{path}: embedding row {bad} has non-finite or near-zero norm")
    return rows


def embeddings_head(rows: np.ndarray, path) -> str:
    """The checked EMB3 head of the (N, D) ``rows`` (``_row_head``)."""
    return _row_head(path, "EMB3", rows, ("N", "D"))


def save_static_embeddings(rows: np.ndarray, path, head: str | None = None) -> bytes:
    """Write the (N, D) ``rows`` as an EMB3 file and return its header line
    (``write_container``); ``head`` is their ``embeddings_head`` if the
    caller has checked them already, so that the rows are checked once,
    before the file is opened."""
    return write_container(path, head or embeddings_head(rows, path), [rows])


def load_frame_file(path) -> np.ndarray:
    """The (N, T, D) frames of an FRM4 file, ``FRM4 <N> <T> <D> <sha256>``."""
    return _read_rows(path, "FRM4", 3, _retired_hint("FRM4", "FRM1, FRM2 and FRM3"))


def frames_head(frames: np.ndarray, path) -> str:
    """The checked FRM4 head of the (N, T, D) ``frames`` (``_row_head``)."""
    return _row_head(path, "FRM4", frames, ("N", "T", "D"))


def save_frame_file(frames: np.ndarray, path, head: str | None = None) -> bytes:
    """Write the (N, T, D) ``frames`` as an FRM4 file, item by item,
    frame-major, and return its header line; ``head`` is as for
    ``save_static_embeddings``."""
    return write_container(path, head or frames_head(frames, path), [frames])
