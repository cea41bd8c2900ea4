"""The two file skeletons of the package and the formats built on them.

The line rule of the two line formats, LBL2 and MANIFEST4
(``experts.read_records``): blank lines and ``#`` comments may stand
anywhere, the header is the first other line, and a wrong header, or the
tag of a retired version, is reported at its own line. The binary container
of CKPT3, FRM4 and EMB3 (``experts.read_container``): one ASCII header line with the payload's
SHA-256, then raw little-endian float64 values, checked in one order
whatever the format.
"""

import re
import tracemalloc

import numpy as np
import pytest

from marginforge.data import (
    MANIFEST_NAME,
    SynthConfig,
    _load_labels,
    _read_manifest,
    digest,
    generate,
    write_dataset,
)
from marginforge.errors import ChecksumError, MarginForgeError, ParseError
from marginforge.experts import (
    load_frame_file,
    load_static_embeddings,
    read_container,
    save_frame_file,
    save_static_embeddings,
    write_container,
)
from marginforge.model import (
    Checkpoint,
    ModelDims,
    init_params,
    read_checkpoint,
    write_checkpoint,
)
from marginforge.trainer import new_adam_state
from helpers import read_parts


def manifest4(path):
    return {role: hexdigest for role, (hexdigest, _) in _read_manifest(path).items()}


# tag, file written by write_dataset, loader as plain data
FORMATS = [
    ("LBL2", "labels.txt", _load_labels),
    ("MANIFEST4", MANIFEST_NAME, manifest4),
]

# tag: the tags of its retired versions
RETIRED = {"LBL2": ["LBL1"], "MANIFEST4": ["MANIFEST1", "MANIFEST2", "MANIFEST3"]}


@pytest.fixture
def written(tmp_path):
    cfg = SynthConfig(n_items=8, n_concepts=6, duplicate_rate=0.5, seed=19)
    write_dataset(generate(cfg), tmp_path)
    return tmp_path


@pytest.mark.parametrize("tag, filename, load", FORMATS, ids=[tag for tag, _, _ in FORMATS])
class TestSharedLineRule:
    def test_comments_and_blank_lines_anywhere(self, written, tag, filename, load):
        path = written / filename
        lines = path.read_text(encoding="utf-8").splitlines()
        assert lines[0].split()[0] == tag
        clean = load(path)
        # before the header, and between the first two records
        noted = ["# note", "", lines[0], lines[1], "  # note", "", *lines[2:]]
        path.write_text("\n".join(noted) + "\n", encoding="utf-8")
        assert load(path) == clean

    def test_only_comments_names_the_tag(self, written, tag, filename, load):
        path = written / filename
        path.write_text("# one\n\n# two\n", encoding="utf-8")
        with pytest.raises(ParseError, match=tag):
            load(path)

    def test_wrong_tag_after_comments_reports_its_line(self, written, tag, filename, load):
        path = written / filename
        lines = path.read_text(encoding="utf-8").splitlines()
        lines[0] = "NOPE" + lines[0][len(tag):]
        path.write_text("# one\n# two\n" + "\n".join(lines) + "\n", encoding="utf-8")
        with pytest.raises(ParseError) as excinfo:
            load(path)
        assert excinfo.value.line == 3

    def test_non_utf8_byte_reports_its_line(self, written, tag, filename, load):
        path = written / filename
        lines = path.read_bytes().split(b"\n")
        lines[2] = lines[2][:1] + b"\xe9" + lines[2][1:]
        path.write_bytes(b"\n".join(lines))
        with pytest.raises(ParseError, match=f"^line 3: {path}: not UTF-8 text") as excinfo:
            load(path)
        assert excinfo.value.line == 3


@pytest.mark.parametrize(
    "tag, filename, load, old",
    [(tag, filename, load, old) for tag, filename, load in FORMATS for old in RETIRED[tag]],
    ids=[old for tag, _, _ in FORMATS for old in RETIRED[tag]],
)
def test_retired_line_tag_gets_the_gen_data_hint_at_line_1(written, tag, filename, load, old):
    path = written / filename
    lines = path.read_text(encoding="utf-8").splitlines()
    path.write_text("\n".join([lines[0].replace(tag, old, 1), *lines[1:]]) + "\n", encoding="utf-8")
    hint = f"{old} files are no longer read, regenerate the dataset with gen-data to write {tag}"
    with pytest.raises(ParseError, match="^" + re.escape(f"line 1: {path}: {hint}") + "$"):
        load(path)


def write_trainer_checkpoint(path):
    model = init_params(ModelDims(3, 2, 0, 2), 5)
    write_checkpoint(Checkpoint(model, new_adam_state(model), 1, 2, "h"), path)


# tag: (writer of a valid file, loader, index of the header's digest token,
# the retired text tags and the hint they get, the header tokens before the
# digest of a file whose counts declare far more than the file holds)
CONTAINERS = {
    "CKPT3": (
        write_trainer_checkpoint,
        read_checkpoint,
        5,
        ["CKPT1", "CKPT2"],
        "CKPT1 and CKPT2 checkpoints are no longer read, retrain",
        ["CKPT3", "1500", "1500", "0", "1500"],
    ),
    "FRM4": (
        lambda path: save_frame_file(np.random.default_rng(50).standard_normal((3, 2, 4)), path),
        load_frame_file,
        4,
        ["FRM1", "FRM2", "FRM3"],
        "FRM1, FRM2 and FRM3 files are no longer read, regenerate the dataset with gen-data",
        ["FRM4", "1000", "1000", "1000"],
    ),
    "EMB3": (
        lambda path: save_static_embeddings(np.random.default_rng(51).normal(size=(3, 5)), path),
        load_static_embeddings,
        3,
        ["EMB1", "EMB2"],
        "EMB1 and EMB2 files are no longer read, regenerate the dataset with gen-data",
        ["EMB3", "100000", "100000"],
    ),
}


def signed(parts, payload, at) -> bytes:
    """A header and payload, with the payload's own digest as token ``at``."""
    parts = [*parts[:at], digest(payload), *parts[at + 1 :]]
    return " ".join(parts).encode("ascii") + b"\n" + payload


def write_signed(path, parts, payload, at):
    path.write_bytes(signed(parts, payload, at))


def content(loaded):
    """What a loader returned, as comparable plain data."""
    if isinstance(loaded, np.ndarray):
        return loaded.shape, loaded.tobytes()
    arrays = [arr for _, arr in loaded.model.param_items()]
    if loaded.opt_state is not None:
        arrays += [*loaded.opt_state.m.values(), *loaded.opt_state.v.values()]
    fields = (loaded.epoch, loaded.seed, loaded.config_hash)
    return loaded.model.dims, fields, [arr.tobytes() for arr in arrays]


def header(parts, sep=" ", end="\n") -> bytes:
    return (sep.join(parts) + end).encode("utf-8")


def recount(parts, step):
    """``parts`` with its first count moved by ``step``."""
    return [parts[0], str(int(parts[1]) + step), *parts[2:]]


HINT_ERROR = (ParseError, "line 1: {path}: expected a {tag} header; ", 1)
DIGEST_ERROR = (ChecksumError, "{path}: payload digest does not match the header's ", None)
COUNT_ERROR = (ParseError, r"{path}: payload holds {size} bytes, expected \d+$", None)
LENGTH_ERROR = (ParseError, r"{path}: payload holds \d+ bytes, expected {size}$", None)

# name: (edit of a valid file's header tokens, payload and digest position,
# and what loading the edited file gives: None for the original contents, or
# the error type, its message as a pattern and its line)
CONTAINER_EDITS = {
    "two-spaces": (lambda parts, payload, at: header(parts, "  ") + payload, None),
    "tabs": (lambda parts, payload, at: header(parts, "\t") + payload, None),
    "crlf": (lambda parts, payload, at: header(parts, end="\r\n") + payload, None),
    "trailing-space": (lambda parts, payload, at: header(parts, end=" \n") + payload, None),
    "lowercase-tag": (
        lambda parts, payload, at: header([parts[0].lower(), *parts[1:]]) + payload,
        HINT_ERROR,
    ),
    "empty-file": (lambda parts, payload, at: b"", HINT_ERROR),
    "blank-first-line": (lambda parts, payload, at: b"\n" + header(parts) + payload, HINT_ERROR),
    "no-line-end": (lambda parts, payload, at: header(parts, end=""), HINT_ERROR),
    "non-ascii-space": (lambda parts, payload, at: header(parts, "\u00a0") + payload, HINT_ERROR),
    "uppercase-digest": (
        lambda parts, payload, at: header([*parts[:at], parts[at].upper(), *parts[at + 1 :]])
        + payload,
        DIGEST_ERROR,
    ),
    "digest-one-short": (
        lambda parts, payload, at: header([*parts[:at], parts[at][:-1], *parts[at + 1 :]])
        + payload,
        DIGEST_ERROR,
    ),
    "non-hex-digest": (
        lambda parts, payload, at: header([*parts[:at], "z" * 64, *parts[at + 1 :]]) + payload,
        DIGEST_ERROR,
    ),
    "no-payload": (lambda parts, payload, at: header(parts), DIGEST_ERROR),
    "byte-appended": (lambda parts, payload, at: header(parts) + payload + b"\0", DIGEST_ERROR),
    "first-count-up": (
        lambda parts, payload, at: header(recount(parts, 1)) + payload,
        COUNT_ERROR,
    ),
    "first-count-down": (
        lambda parts, payload, at: header(recount(parts, -1)) + payload,
        COUNT_ERROR,
    ),
    "byte-short-signed": (lambda parts, payload, at: signed(parts, payload[:-1], at), LENGTH_ERROR),
    "byte-long-signed": (
        lambda parts, payload, at: signed(parts, payload + b"\0", at),
        LENGTH_ERROR,
    ),
    "empty-payload-signed": (lambda parts, payload, at: signed(parts, b"", at), LENGTH_ERROR),
}


@pytest.mark.parametrize("tag", list(CONTAINERS))
class TestContainer:
    def written(self, tmp_path, tag):
        write, load, at, *_ = CONTAINERS[tag]
        path = tmp_path / f"file.{tag.lower()}"
        write(path)
        return path, load, at

    def test_retired_text_tag_gets_its_hint_at_line_1(self, tmp_path, tag):
        path, load, _ = self.written(tmp_path, tag)
        _, _, _, retired, hint, _ = CONTAINERS[tag]
        for old in retired:
            path.write_text(f"{old} 1 1 2\na 0x1p+0 0x1p+1\n", encoding="utf-8")
            with pytest.raises(ParseError, match=re.escape(hint)) as excinfo:
                load(path)
            assert excinfo.value.line == 1

    def test_flipped_payload_byte_is_a_checksum_error(self, tmp_path, tag):
        path, load, _ = self.written(tmp_path, tag)
        raw = bytearray(path.read_bytes())
        raw[-5] ^= 0x01
        path.write_bytes(bytes(raw))
        with pytest.raises(ChecksumError, match=re.escape(str(path))):
            load(path)

    @pytest.mark.parametrize("edit", ["short", "long"])
    def test_payload_one_value_off_is_a_parse_error(self, tmp_path, tag, edit):
        path, load, at = self.written(tmp_path, tag)
        parts, payload = read_parts(path)
        changed = payload[:-8] if edit == "short" else payload + np.float64(1.0).tobytes()
        write_signed(path, parts, changed, at)
        message = f"{path}: payload holds {len(changed)} bytes, expected {len(payload)}"
        with pytest.raises(ParseError, match=re.escape(message)):
            load(path)

    def test_header_beyond_the_payload_fails_before_allocating(self, tmp_path, tag):
        path, load, at = self.written(tmp_path, tag)
        write_signed(path, [*CONTAINERS[tag][5], "digest"], bytes(320), at)
        tracemalloc.start()
        try:
            with pytest.raises(ParseError, match="payload holds 320 bytes"):
                load(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_value_is_a_parse_error_naming_the_file(self, tmp_path, tag, value):
        path, load, at = self.written(tmp_path, tag)
        parts, payload = read_parts(path)
        values = np.frombuffer(payload, dtype="<f8").copy()
        values[len(values) // 2] = value
        write_signed(path, parts, values.tobytes(), at)
        with pytest.raises(ParseError, match=re.escape(f"{path}: ") + ".*holds a non-finite value"):
            load(path)

    @pytest.mark.parametrize("edit", list(CONTAINER_EDITS))
    def test_edited_file_loads_the_same_or_fails_naming_itself(self, tmp_path, tag, edit):
        path, load, at = self.written(tmp_path, tag)
        original = content(load(path))
        parts, payload = read_parts(path)
        change, outcome = CONTAINER_EDITS[edit]
        path.write_bytes(change(parts, payload, at))
        if outcome is None:
            assert content(load(path)) == original
            return
        error, message, line = outcome
        message = message.format(path=re.escape(str(path)), tag=tag, size=len(payload))
        with pytest.raises(error, match="^" + message) as excinfo:
            load(path)
        assert getattr(excinfo.value, "line", None) == line

    def test_every_header_byte_substitution_loads_the_same_or_fails_naming_the_file(
        self, tmp_path, tag
    ):
        # each field of these headers sets the payload's length or is its
        # digest; a trainer CKPT3's adam fields are neither, so the model-only
        # file stands for CKPT3 here
        if tag == "CKPT3":
            path, load = tmp_path / "file.ckpt3", read_checkpoint
            write_checkpoint(Checkpoint(init_params(ModelDims(3, 2, 0, 2), 5)), path)
        else:
            path, load, _ = self.written(tmp_path, tag)
        original, raw = content(load(path)), path.read_bytes()
        loaded = 0
        for offset in range(raw.index(b"\n") + 1):
            for byte in range(256):
                path.write_bytes(raw[:offset] + bytes([byte]) + raw[offset + 1 :])
                try:
                    got = load(path)
                except MarginForgeError as exc:
                    assert str(path) in str(exc)
                else:
                    assert content(got) == original
                    loaded += 1
        # the original byte itself, and whitespace for a separator
        assert loaded > raw.index(b"\n")

    def test_text_file_opening_with_a_comment_gets_the_hint(self, tmp_path, tag):
        path, load, _ = self.written(tmp_path, tag)
        path.write_text(f"# written by an old version\n{tag} 1 1\n", encoding="utf-8")
        with pytest.raises(ParseError, match=re.escape(CONTAINERS[tag][4])) as excinfo:
            load(path)
        assert excinfo.value.line == 1

    def test_writer_replaces_a_longer_file(self, tmp_path, tag):
        path, load, _ = self.written(tmp_path, tag)
        raw = path.read_bytes()
        path.write_bytes(b"\xff" * (3 * len(raw)))
        CONTAINERS[tag][0](path)
        assert path.read_bytes() == raw
        load(path)


@pytest.mark.parametrize(
    "written_as, read_as",
    [(a, b) for a in CONTAINERS for b in CONTAINERS if a != b],
    ids=[f"{a}-as-{b}" for a in CONTAINERS for b in CONTAINERS if a != b],
)
def test_file_of_another_container_is_refused_at_line_1(tmp_path, written_as, read_as):
    path = tmp_path / "file.bin"
    CONTAINERS[written_as][0](path)
    message = f"line 1: {path}: expected a {read_as} header; {CONTAINERS[read_as][4]}"
    with pytest.raises(ParseError, match="^" + re.escape(message)):
        CONTAINERS[read_as][1](path)


class TestContainerSkeleton:
    """``write_container`` and ``read_container`` as any format calls them."""

    def test_arrays_follow_one_another_in_c_order(self, tmp_path):
        a = np.asfortranarray(np.arange(6.0).reshape(2, 3))
        b = np.array([-0.0, 0.5, 1e300])
        write_container(tmp_path / "x", "TAG 7", [a, b])
        parts, payload = read_parts(tmp_path / "x")
        assert payload == np.ascontiguousarray(a).tobytes() + b.tobytes()
        assert parts == ["TAG", "7", digest(payload)]

    def test_tail_follows_the_digest(self, tmp_path):
        write_container(tmp_path / "x", "TAG", [np.ones(2)], "adam 1 2")
        parts, payload = read_parts(tmp_path / "x")
        assert parts == ["TAG", digest(payload), "adam", "1", "2"]

    def test_returns_the_header_line_it_wrote(self, tmp_path):
        line = write_container(tmp_path / "x", "TAG 2", [np.ones(2)], "end")
        assert line == (tmp_path / "x").read_bytes().partition(b"\n")[0] + b"\n"

    @pytest.mark.parametrize("save", [save_frame_file, save_static_embeddings])
    def test_row_writers_return_the_header_line(self, tmp_path, save):
        rows = np.ones((2, 3) if save is save_static_embeddings else (2, 3, 4))
        line = save(rows, tmp_path / "x")
        assert line == (tmp_path / "x").read_bytes().partition(b"\n")[0] + b"\n"

    def test_empty_tail_is_no_token(self, tmp_path):
        write_container(tmp_path / "x", "TAG 1", [np.ones(1)])
        line = (tmp_path / "x").read_bytes().partition(b"\n")[0]
        assert line == f"TAG 1 {digest(np.ones(1).tobytes())}".encode("ascii")

    def test_layout_reads_the_fields_after_the_tag(self, tmp_path):
        values = np.arange(5.0)
        write_container(tmp_path / "x", "TAG 5", [values], "end")
        seen = []

        def layout(fields):
            seen.append(fields)
            return fields[1], int(fields[0]), "parsed"

        header, got = read_container(tmp_path / "x", "TAG", "hint", layout)
        assert seen == [["5", digest(values.tobytes()), "end"]]
        assert header == "parsed" and got.tobytes() == values.tobytes()

    def test_layout_error_comes_before_the_digest_check(self, tmp_path):
        write_container(tmp_path / "x", "TAG", [np.ones(3)])
        raw = bytearray((tmp_path / "x").read_bytes())
        raw[-1] ^= 0xFF

        def layout(fields):
            raise ParseError("layout refused", 1)

        (tmp_path / "x").write_bytes(bytes(raw))
        with pytest.raises(ParseError, match="^line 1: layout refused$"):
            read_container(tmp_path / "x", "TAG", "hint", layout)


# SHA-256 of whole CKPT3 files, header and payload, as the format was first
# written: a change to the writer that moves one byte of either fails here
CKPT3_GOLDEN = {
    "model": "b4b6b816f8adc1f54a68a9218117e8dcefca25f6295f9e3fcf395562abaa7691",
    "trainer": "45e206466001519643b36ac318e959dc3a876dd20739b75126446cedaddcc35c",
}


@pytest.mark.parametrize("kind", list(CKPT3_GOLDEN))
def test_ckpt3_bytes_match_the_golden_digest(tmp_path, kind):
    model = init_params(ModelDims(4, 3, 5, 2), 7)
    ckpt = Checkpoint(model)
    if kind == "trainer":
        ckpt = Checkpoint(model, new_adam_state(model), 3, 11, "c0ffee")
    write_checkpoint(ckpt, tmp_path / "golden.ckpt")
    assert digest((tmp_path / "golden.ckpt").read_bytes()) == CKPT3_GOLDEN[kind]
