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
whitespace, has no UTF-8 form or starts with ``#``, or a non-finite value.

The loader makes no ``float.fromhex`` call on the writer's text either:
``_load_rows`` takes the records in blocks of about ``_BLOCK_VALUES``
values, and ``_parse_block`` reads a block's bytes in a fixed number of
numpy passes (the separators' offsets, three unaligned words per value
token, its 13 mantissa digits decoded eight to a word and checked by
encoding them back, and its exponent text looked up in a sorted table), so
the loader's memory, beyond its output, does not grow with the file. It
accepts a block only if every byte and every token is in the writer's form,
and so gives the bits of ``float.fromhex`` for each value. Any other block,
one holding a token that ``fromhex`` reads but the writer never forms
(``0x1p+0``), a tab, a non-ASCII id or an error, goes through the
per-record loop of ``_hex_values``, the one statement of the token rule,
which raises each error at its line in file order.
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
    of ints, an iterator of ``(line_number, line)``, one per record, read
    lazily from the open file, and the header's line number, at which a
    loader reports its own checks of the counts. A record's ``line`` is its
    text as read, line end included; a loader takes its tokens with
    ``line.split()``.
    """
    records = _content_lines(path)
    lineno, line = next(records, (None, None))
    if line is None:
        raise ParseError(f"{path}: no {tag} header")
    tokens = line.split()
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


# values per block, formatted by the writer or parsed by the loader: a
# block's text and its arrays and their temporaries stay under 2 MiB, however
# large the file
_BLOCK_VALUES = 8192


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


def _word(text: bytes) -> int:
    """Up to eight bytes as the little-endian word that holds them."""
    return int.from_bytes(text, "little")


def _lanes(byte: int) -> int:
    """A word holding ``byte`` in each of its eight bytes."""
    return byte * 0x0101010101010101


def _exponent_keys() -> tuple[np.ndarray, np.ndarray]:
    """``p`` and each exponent text, as one little-endian word, sorted, and
    the biased exponent of each: the texts of ``_EXP_TEXT`` for eb 1-2046."""
    text = _EXP_TEXT[1:].view(np.uint8).reshape(-1, 8)
    keys = np.concatenate([np.full((len(text), 1), ord("p"), np.uint8), text[:, :7]], axis=1)
    keys = keys.view("<u8").ravel()
    order = np.argsort(keys)
    return keys[order], (order + 1).astype(np.uint64)


_EXP_KEYS, _EXP_BIASED = _exponent_keys()
# a value token from its sign on: the prefix of a normal and of a subnormal
# value, the whole text of zero, and a subnormal's ``p`` and exponent
_NORMAL, _SUBNORMAL, _ZERO = _word(b"0x1."), _word(b"0x0."), _word(b"0x0.0p+0")
_SUBNORMAL_KEY = _word(b"p-1022")
# by a token's length from ``0x`` on, the mask of its ``p`` and exponent in
# its third word; 0 where no exponent text fits
_KEY_MASK = np.array(
    [(1 << 8 * (length - 17)) - 1 if 20 <= length <= 23 else 0 for length in range(25)],
    dtype=np.uint64,
)
# bytes after a block's text, so that each token's three words can be read
_PAD = "\0" * 24


def _pack_nibbles(nibbles: np.ndarray) -> np.ndarray:
    """The eight nibbles of each word, one a byte, first byte first, as one 32-bit value."""
    v = ((nibbles << 4) | (nibbles >> 8)) & 0x00FF00FF00FF00FF
    v = ((v << 8) | (v >> 16)) & 0x0000FFFF0000FFFF
    return ((v << 16) | (v >> 32)) & 0xFFFFFFFF


def _parse_block(lines: list[str], width: int):
    """The ids and (k, width) float64 bits of k record ``lines`` in the
    writer's form, or None if one of them is not.

    The form: ASCII text, every byte printable but the single space between
    two of a line's ``width + 1`` tokens and its final ``\\n``, and every value
    token as ``_format_values`` writes it: ``-?0x1.<13 digits>p<exp>`` with
    ``<exp>`` a text of ``_EXP_TEXT``, ``-?0x0.<13 digits, not all 0>p-1022``
    or ``-?0x0.0p+0``. A token is read, after its sign, as three unaligned
    little-endian words: the prefix and digits 0-3, digits 4-11, and digit 12,
    ``p``, the exponent and what follows. The 13 digits are decoded eight to
    a word and checked by encoding them back, and ``p`` and the exponent are
    looked up in ``_EXP_KEYS``, so every token accepted gives the bits of
    ``float.fromhex(token)``.
    """
    k = len(lines)
    text = "".join([*lines, _PAD])
    if not text.isascii():
        return None
    raw = text.encode("ascii")
    body = np.frombuffer(raw, dtype=np.uint8)[: -len(_PAD)]
    # the bytes outside 0x21-0x7e, which must be the separators
    seps = np.flatnonzero(body - 0x21 > 0x5D)
    if seps.size != k * (width + 1):
        return None
    seps = seps.reshape(k, width + 1)
    kinds = body[seps]
    if not ((kinds[:, :-1] == ord(" ")).all() and (kinds[:, -1] == ord("\n")).all()):
        return None
    ids = [line.partition(" ")[0] for line in lines]
    if not all(ids):
        return None

    start = seps[:, :-1].reshape(-1) + 1
    length = seps[:, 1:].reshape(-1) - start
    sign = body[start] == ord("-")
    start += sign
    length -= sign
    words = np.ndarray((len(raw) - 23, 3), "<u8", raw, strides=(1, 8))[start]
    prefix = words[:, 0] & 0xFFFFFFFF
    key = (words[:, 2] >> 8) & _KEY_MASK[np.minimum(length, 24)]
    zero = (words[:, 0] == _ZERO) & (length == 8)
    # the digits eight to a word, padded with '0': 0000 and 0-3, 4-11,
    # 0000000 and 12; all '0' for zero
    words[zero] = _lanes(ord("0"))
    words[:, 0] = (words[:, 0] & 0xFFFFFFFF00000000) | _lanes(ord("0")) >> 32
    words[:, 2] = (words[:, 2] << 56) | _lanes(ord("0")) >> 8
    # a digit's value is its low nibble, plus 9 for a letter; a byte that
    # is no lowercase hex digit gives a value over 15 or encodes back to another
    nibbles = (words & _lanes(0x0F)) + ((words >> 6) & _lanes(1)) * 9
    letters = ((nibbles + _lanes(6)) >> 4) & _lanes(1)
    back = nibbles + _lanes(ord("0")) + letters * (ord("a") - ord("0") - 10)
    if (nibbles & _lanes(0xF0)).any() or (back != words).any():
        return None
    packed = _pack_nibbles(nibbles)
    mantissa = (packed[:, 0] << 36) | (packed[:, 1] << 4) | packed[:, 2]

    at = np.minimum(np.searchsorted(_EXP_KEYS, key), len(_EXP_KEYS) - 1)
    normal = (prefix == _NORMAL) & (_EXP_KEYS[at] == key)
    subnormal = (prefix == _SUBNORMAL) & (key == _SUBNORMAL_KEY) & (mantissa != 0)
    if not (zero | normal | subnormal).all():
        return None
    bits = ((_EXP_BIASED[at] * normal) << 52) | mantissa | (sign.astype(np.uint64) << 63)
    return ids, bits.reshape(k, width)


def _record_blocks(records, size: int):
    """The records in lists of ``size``; a reader error is raised after the
    list of the records before it, so a file's errors stay in file order."""
    block = []
    try:
        for record in records:
            block.append(record)
            if len(block) == size:
                yield block
                block = []
    except ParseError:
        if block:
            yield block
        raise
    if block:
        yield block


def _load_rows(path, tag: str, n_counts: int, retired) -> tuple[list[str], np.ndarray]:
    """The ids and rows of a file whose header is ``tag <N> <counts...>``.

    Each of the N records is ``<id>`` and then one row of ``width`` hex
    float tokens (``_hex_values``), where ``width`` is the product of the
    counts after N, each of which must be at least 1. Returns the ids in file
    order and the rows shaped (N, *counts after N).

    Records are taken in blocks of about ``_BLOCK_VALUES`` values, and
    ``_parse_block`` reads a block in the writer's form in a fixed number of
    numpy passes. Any other block goes through the per-record loop below,
    the one statement of the record checks and of the token rule
    (``_hex_values``): it loads what ``float.fromhex`` reads but the writer
    never forms (``0x1p+0``, ``+0x1.8p+0``), tabs, non-ASCII ids and a last
    line with no line end, and raises each error at its line, in file order.
    So ``_parse_block`` only has to decline a block, never to say what is
    wrong with it.
    """
    # the shortest record: a one-byte id and a separator, then ``0x1`` and a
    # separator per value; the last line needs no line end
    (n, *shape), records, header_line = read_records(
        path, tag, n_counts, lambda n, *shape: n * (2 + 4 * math.prod(shape)) - 1, retired
    )
    if min(shape) < 1:
        raise ParseError(f"{path}: {tag} header needs every count after N >= 1", header_line)
    width = math.prod(shape)

    ids: list[str] = []
    seen: set[str] = set()
    rows = np.empty((n, width), dtype=np.float64)
    for block in _record_blocks(records, max(1, _BLOCK_VALUES // width)):
        r0, r1 = len(ids), len(ids) + len(block)
        parsed = _parse_block([line for _, line in block], width) if r1 <= n else None
        if parsed is not None:
            block_ids, bits = parsed
            fresh = set(block_ids)
            if len(fresh) == len(block_ids) and fresh.isdisjoint(seen):
                seen |= fresh
                ids += block_ids
                rows[r0:r1].view(np.uint64)[...] = bits
                continue
        for lineno, line in block:
            tokens = line.split()
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


# one value's text as ``float.hex`` writes it, and the slot it is formed in:
# the sign (0), ``0x``, the leading digit (3), ``.``, 13 mantissa digits
# (5-17), ``p``, an exponent of up to five characters (19-23) and the
# separator (24)
_SLOT = np.frombuffer(b"-0x1." + b"0" * 13 + b"p+1023 ", dtype=np.uint8)
_MANTISSA = np.uint64((1 << 52) - 1)


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
    no value (``ShapeMismatchError``), an id that is empty, holds whitespace,
    has no UTF-8 form or starts with ``#`` (``ConfigError``) or repeats
    (``DuplicateIdError``), and a row holding a non-finite value
    (``NonFiniteError``, naming its id).
    """
    n, width = rows.shape
    if len(ids) != n:
        raise DimMismatchError(f"{path}: {len(ids)} ids for {n} rows")
    if width < 1:
        raise ShapeMismatchError(f"{path}: rows need at least one value, got shape {rows.shape}")
    fields, seen = [], set()
    for item_id in ids:
        try:
            field = f"{item_id} ".encode("utf-8")
        except UnicodeEncodeError:  # a lone surrogate, such as "\ud800"
            field = None
        if field is None or item_id.split() != [item_id] or item_id.startswith("#"):
            raise ConfigError(
                f"{path}: id {item_id!r} cannot be written: "
                "an id is one token of UTF-8 text, not starting with '#'"
            )
        if item_id in seen:
            raise DuplicateIdError(f"{path}: duplicate id {item_id!r}")
        seen.add(item_id)
        fields.append(field)
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
