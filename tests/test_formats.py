"""The line rule shared by all five line formats (``experts.read_records``).

Blank lines and ``#`` comments may stand anywhere, the header is the first
other line, and a wrong header is reported at its own line.
"""

import pytest

from marginforge.data import (
    MANIFEST_NAME,
    SynthConfig,
    _load_labels,
    _load_split,
    _read_manifest,
    generate,
    write_dataset,
)
from marginforge.errors import ParseError
from marginforge.experts import load_frame_file, load_static_embeddings


def frm3(path):
    ids, frames = load_frame_file(path)
    return ids, frames.tolist()


def emb2(path):
    ids, rows = load_static_embeddings(path)
    return ids, rows.tolist()


def manifest2(path):
    return {role: hexdigest for role, (hexdigest, _) in _read_manifest(path).items()}


# tag, file written by write_dataset, loader as plain data
FORMATS = [
    ("FRM3", "frames.frm1", frm3),
    ("EMB2", "text.emb1", emb2),
    ("LBL1", "labels.txt", _load_labels),
    ("SPLIT1", "split_val.txt", _load_split),
    ("MANIFEST2", MANIFEST_NAME, manifest2),
]


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
