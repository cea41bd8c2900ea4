"""Single-modal supervision experts: their tables and their file formats.

Dynamic experts read the live encoder outputs of a batch; static experts read
frozen, externally produced embeddings, one row per item in ``Dataset.ids``
order, held in a ``StaticEmbeddingTable`` and loaded from EMB2 text files.
Either kind's unit rows become margins in ``margin.expert_margins``;
``EXPERT_KINDS`` names the four experts.

EMB2 and FRM2 files hold each float as its exact C99 hex literal
(``float.hex``), which re-parses bit for bit and takes no decimal
conversion. The loaders check each record line's structure as they read it
and convert its value tokens into its row under the token rule of
``_hex_values``. Finiteness is checked once per file, in ``_finite_rows``.
EMB1 and FRM1 files, which held decimal text, are rejected with a hint to
regenerate the dataset.
"""

from contextlib import contextmanager
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
# EMB2 / FRM2 text formats (line rules: ``read_records``)
# ---------------------------------------------------------------------------

def read_records(path, tag: str, n_counts: int, least_bytes=None, retired=()):
    """Header counts and a record stream for every line format of the package.

    The one rule shared by the five line formats, FRM2, EMB2, LBL1, SPLIT1 and
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

    A byte sequence that is not UTF-8 raises ``ParseError`` at its line, after
    the lines before it, so a file's errors still come in file order. The
    decoder reads ahead of the lines it returns, so those lines are taken
    from the file's valid prefix, which is read only once decoding failed.
    """
    lineno = 0
    try:
        with open(path, "r", encoding="utf-8") as fh:
            for lineno, line in enumerate(fh, start=1):
                tokens = line.split()
                if tokens and not tokens[0].startswith("#"):
                    yield lineno, tokens
        return
    except UnicodeDecodeError as exc:
        reason = exc.reason
    data = Path(path).read_bytes()
    try:
        data.decode("utf-8")
    except UnicodeDecodeError as exc:
        data = data[: exc.start]
    # line ends as text mode reads them; the last piece holds the bad byte
    lines = data.decode("utf-8").replace("\r\n", "\n").replace("\r", "\n").split("\n")
    for n, line in enumerate(lines[lineno:-1], start=lineno + 1):
        tokens = line.split()
        if tokens and not tokens[0].startswith("#"):
            yield n, tokens
    raise ParseError(f"{path}: not UTF-8 text: {reason}", len(lines))


def parse_count(token: str, lineno, path) -> int:
    """Non-negative decimal integer: every header count, FRM2 frame index and LBL1 concept.

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


@contextmanager
def _finite_rows(path, values: np.ndarray, lines: np.ndarray):
    """Check the float rows that a loader's record loop reads for non-finite values.

    ``lines`` holds the line of each row of ``values`` (its shape less the
    last axis), 0 for a row not read. When the loop ends, and also when an
    ``Exception`` leaves it, a read row that holds a non-finite value is a
    ``ParseError`` at the smallest such line. Every row read lies before the
    line that raised, so this error replaces the one leaving, and a file's
    first error in file order wins.
    """

    def check():
        bad = lines[(lines > 0) & ~np.isfinite(values).all(axis=-1)]
        if bad.size:
            raise ParseError(f"{path}: non-finite value", int(bad.min())) from None

    try:
        yield
    except Exception:
        check()
        raise
    check()


def load_static_embeddings(path) -> tuple[list[str], np.ndarray]:
    """Parse an EMB2 file into (ids, rows) with rows shaped (N, D).

    Header is ``EMB2 <N> <D>``; each of the N records is ``<id> <x1..xD>``.
    A value is a hex float token (``_hex_values``); any other token is a
    ``ParseError`` at its line, and so is a non-finite value.
    """
    # a record is D + 1 tokens, each of at least one byte and a separator
    (n, dim), records = read_records(
        path, "EMB2", 2, lambda n, dim: 2 * n * (dim + 1), retired=("EMB1",)
    )
    if dim < 1:
        raise ParseError(f"{path}: EMB2 header needs D >= 1")

    ids: list[str] = []
    seen: set[str] = set()
    rows = np.empty((n, dim), dtype=np.float64)
    lines = np.zeros(n, dtype=np.int64)
    with _finite_rows(path, rows, lines):
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
            rows[len(ids)] = _hex_values(tokens[1:], lineno, path)
            lines[len(ids)] = lineno
            ids.append(item_id)
    if len(ids) != n:
        raise ParseError(f"{path}: header declares {n} rows, found {len(ids)}")

    bad = row_norms(rows)[1]
    if bad is not None:
        raise ZeroNormError(f"{path}: embedding for {ids[bad]!r} has non-finite or near-zero norm")
    return ids, rows


def save_static_embeddings(ids, rows: np.ndarray, path) -> None:
    """Write an EMB2 file; each value is its ``float.hex`` literal, so re-parsing is exact."""
    n, dim = rows.shape
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"EMB2 {n} {dim}\n")
        for item_id, row in zip(ids, rows):
            fh.write(f"{item_id} {' '.join(map(float.hex, row.tolist()))}\n")


def load_frame_file(path) -> tuple[list[str], np.ndarray]:
    """Parse an FRM2 file into (ids, frames) with frames shaped (N, T, D).

    Header is ``FRM2 <N> <T> <D>``; each of the N*T records is
    ``<id> <frame_index> <x1..xD>`` with frame_index in [0, T). Values
    follow the rule of ``load_static_embeddings``.
    """
    # a record is D + 2 tokens, each of at least one byte and a separator
    (n, t, dim), records = read_records(
        path, "FRM2", 3, lambda n, t, dim: 2 * n * t * (dim + 2), retired=("FRM1",)
    )
    if t < 1 or dim < 1:
        raise ParseError(f"{path}: FRM2 header needs T >= 1 and D >= 1")

    ids: list[str] = []
    order: dict[str, int] = {}
    frames = np.empty((n, t, dim), dtype=np.float64)
    lines = np.zeros((n, t), dtype=np.int64)
    with _finite_rows(path, frames, lines):
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
            if lines[row, fidx]:
                raise DuplicateIdError(
                    f"line {lineno}: {path}: duplicate frame {fidx} for id {item_id!r}"
                )
            frames[row, fidx] = _hex_values(tokens[2:], lineno, path)
            lines[row, fidx] = lineno

    if len(ids) != n:
        raise ParseError(f"{path}: header declares {n} ids, found {len(ids)}")
    if not lines.all():
        missing = np.argwhere(lines == 0)[0]
        raise ParseError(f"{path}: id {ids[missing[0]]!r} is missing frame {missing[1]}")
    return ids, frames


def save_frame_file(ids, frames: np.ndarray, path) -> None:
    """Write an FRM2 file (item-major, ascending frame index), values as in EMB2."""
    n, t, dim = frames.shape
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"FRM2 {n} {t} {dim}\n")
        for item_id, item in zip(ids, frames):
            for fidx, row in enumerate(item.tolist()):
                fh.write(f"{item_id} {fidx} {' '.join(map(float.hex, row))}\n")
