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

The writer makes no ``float.hex`` call: ``_format_values`` forms the same
text with numpy from each value's float64 bit fields (sign, leading digit
from the biased exponent, 13 mantissa hex digits, and the exponent's text
from a table of the 2047 finite ones) in fixed-width slots with a keep
mask, one block of about ``_BLOCK_VALUES`` values at a time, so a file is
written in one masked gather and one write a block and the writer's memory
does not grow with the file. Before it opens the file, ``_save_rows``
refuses what the loader would reject, such as an id that is empty, holds
whitespace or starts with ``#``, or a non-finite value.
"""

import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import (
    ConfigError,
    DimMismatchError,
    DuplicateIdError,
    NonFiniteError,
    ParseError,
    ShapeMismatchError,
    ZeroNormError,
)
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

    Returns ``(counts, records, header_line)``: the header's counts as a list
    of ints, an iterator of ``(line_number, tokens)``, one per record, read
    lazily from the open file, and the header's line number, at which a
    loader reports its own checks of the counts.
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
    return counts, records, lineno


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
    (n, *shape), records, header_line = read_records(
        path, tag, n_counts, lambda n, *shape: 2 * n * (math.prod(shape) + 1), retired
    )
    if min(shape) < 1:
        raise ParseError(f"{path}: {tag} header needs every count after N >= 1", header_line)
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


# values formatted per block: a block's text and keep buffers and their
# temporaries stay under 2 MiB, however large the file
_BLOCK_VALUES = 8192

# one value's text as ``float.hex`` writes it, and the slot it is formed in:
# the sign (0), ``0x``, the leading digit (3), ``.``, 13 mantissa digits
# (5-17), ``p``, an exponent of up to five characters (19-23) and the
# separator (24)
_SLOT = np.frombuffer(b"-0x1." + b"0" * 13 + b"p+1023 ", dtype=np.uint8)
_MANTISSA = np.uint64((1 << 52) - 1)


def _exponent_texts() -> tuple[np.ndarray, np.ndarray]:
    """The exponent text of each finite biased exponent eb, and its keep mask.

    Each entry packs the five exponent bytes, and their keep flags, into one
    uint64, so a block gathers them with one ``take`` each: ``eb - 1023``
    with its sign, or -1022 for eb 0, the subnormals. Entry 1023 (``+0``)
    is also zero's.
    """
    text = np.zeros((2047, 8), dtype=np.uint8)
    keep = np.zeros((2047, 8), dtype=bool)
    for eb in range(2047):
        exp = f"{max(eb - 1023, -1022):+d}".encode("ascii")
        text[eb, : len(exp)] = list(exp)
        keep[eb, : len(exp)] = True
    return text.view(np.uint64).ravel(), keep.view(np.uint64).ravel()


_EXP_TEXT, _EXP_KEEP = _exponent_texts()


def _format_values(values: np.ndarray, text: np.ndarray, keep: np.ndarray) -> None:
    """Fill the (r, w, len(_SLOT)) ``text`` slots of (r, w) finite ``values``
    with their ``float.hex`` text, where ``keep`` is True.

    The slots' constant bytes, and their keep flags, are already in place;
    this writes the parts each value's bits decide: the sign, the leading
    digit (0 for zero and the subnormals), the 13 mantissa digits (dropped
    but the first for zero, so ``0x0.0p+0``), and the exponent.
    """
    bits = np.ascontiguousarray(values, dtype=np.float64).view(np.uint64)
    shape = text.shape[:2]
    eb = (bits >> 52) & 0x7FF
    zero = (bits << 1) == 0
    keep[..., 0] = bits >> 63
    text[..., 3] = ord("0") + (eb != 0)
    digits = (bits & _MANTISSA).astype(">u8").tobytes().hex().encode("ascii")
    text[..., 5:18] = np.frombuffer(digits, dtype=np.uint8).reshape(*shape, 16)[..., 3:]
    keep[..., 6:18] = ~zero[..., None]
    eb[zero] = 1023
    text[..., 19:24] = _EXP_TEXT.take(eb).view(np.uint8).reshape(*shape, 8)[..., :5]
    keep[..., 19:24] = _EXP_KEEP.take(eb).view(bool).reshape(*shape, 8)[..., :5]


def _save_rows(path, header: str, ids, rows: np.ndarray) -> None:
    """Write ``header``, then one ``<id> <hex values>`` record per row of the 2-D ``rows``.

    Each value is written as the text ``float.hex`` gives it, formed from
    its bits by ``_format_values`` (``-`` for a set sign bit, ``0x``, the
    leading digit, 13 mantissa digits, ``p`` and the exponent, and
    ``0x0.0p+0`` for zero). Blocks of whole rows, of about
    ``_BLOCK_VALUES`` values, or pieces of one row wider than that, are laid
    out in one fixed-width byte buffer: per row, the id field (id and a
    space) and one slot per value. A keep mask marks the bytes of the text,
    so each block is one masked gather and one write.

    Rows the loaders would reject are refused before the file is opened:
    ids that do not match the rows in number (``DimMismatchError``), rows of
    no value (``ShapeMismatchError``), an id that is empty, holds whitespace
    or starts with ``#`` (``ConfigError``) or repeats (``DuplicateIdError``),
    and a row holding a non-finite value (``NonFiniteError``, naming its id).
    """
    n, width = rows.shape
    if len(ids) != n:
        raise DimMismatchError(f"{path}: {len(ids)} ids for {n} rows")
    if width < 1:
        raise ShapeMismatchError(f"{path}: rows need at least one value, got shape {rows.shape}")
    fields, seen = [], set()
    for item_id in ids:
        if item_id.split() != [item_id] or item_id.startswith("#"):
            raise ConfigError(
                f"{path}: id {item_id!r} cannot be written: "
                "an id is one token, not starting with '#'"
            )
        if item_id in seen:
            raise DuplicateIdError(f"{path}: duplicate id {item_id!r}")
        seen.add(item_id)
        fields.append(f"{item_id} ".encode("utf-8"))
    finite = np.isfinite(rows).all(axis=1)
    if not finite.all():
        bad = ids[int(np.argmin(finite))]
        raise NonFiniteError(f"{path}: row {bad!r} holds a non-finite value")

    block_rows, block_cols = max(1, _BLOCK_VALUES // width), min(width, _BLOCK_VALUES)
    id_width = max(map(len, fields), default=0)
    buf = np.empty((min(n, block_rows), id_width + block_cols * _SLOT.size), dtype=np.uint8)
    keep = np.ones(buf.shape, dtype=bool)
    id_text, id_keep = buf[:, :id_width], keep[:, :id_width]
    slots = buf[:, id_width:].reshape(len(buf), block_cols, _SLOT.size)
    slot_keep = keep[:, id_width:].reshape(slots.shape)
    slots[...] = _SLOT
    with open(path, "wb") as fh:
        fh.write(f"{header}\n".encode("ascii"))
        for r0 in range(0, n, block_rows):
            r = min(n - r0, block_rows)
            block = fields[r0 : r0 + r]
            id_text[:r] = np.array(block, dtype=f"S{id_width}").view(np.uint8).reshape(r, id_width)
            id_keep[:r] = np.arange(id_width) < np.array([len(f) for f in block])[:, None]
            for c0 in range(0, width, block_cols):
                w = min(width - c0, block_cols)
                _format_values(rows[r0 : r0 + r, c0 : c0 + w], slots[:r, :w], slot_keep[:r, :w])
                slots[:r, :w, -1] = ord(" ")
                if c0 + w == width:
                    slots[:r, w - 1, -1] = ord("\n")
                end = id_width + w * _SLOT.size
                fh.write(buf[:r, :end][keep[:r, :end]].tobytes())
                id_keep[:r] = False  # a row's later pieces carry no id


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
    """Write an EMB2 file; each value is its ``float.hex`` literal, so re-parsing is exact.

    Ids and rows that ``load_static_embeddings`` would reject, other than by
    the norm rule, are refused before the file is opened (``_save_rows``).
    """
    n, dim = rows.shape
    _save_rows(path, f"EMB2 {n} {dim}", ids, rows)


def load_frame_file(path) -> tuple[list[str], np.ndarray]:
    """Parse an FRM3 file into (ids, frames) with frames shaped (N, T, D).

    Header is ``FRM3 <N> <T> <D>``; each of the N records is ``<id>`` and
    then the item's T*D values in frame-major order, as in EMB2.
    """
    return _load_rows(path, "FRM3", 3, retired=("FRM1", "FRM2"))


def save_frame_file(ids, frames: np.ndarray, path) -> None:
    """Write an FRM3 file: one record per item, ``frames[i].reshape(-1)``.

    Values and refusals are as in EMB2.
    """
    n, t, dim = frames.shape
    _save_rows(path, f"FRM3 {n} {t} {dim}", ids, frames.reshape(n, t * dim))
