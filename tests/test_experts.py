import re
import tracemalloc

import numpy as np
import pytest

from marginforge import experts, kernels
from marginforge.data import SynthConfig, generate, load_dataset, write_dataset
from marginforge.errors import (
    ConfigError,
    DimMismatchError,
    DuplicateIdError,
    MarginForgeError,
    NonFiniteError,
    ParseError,
    ShapeMismatchError,
    ZeroNormError,
)
from marginforge.experts import (
    StaticEmbeddingTable,
    load_frame_file,
    load_static_embeddings,
    save_frame_file,
    save_static_embeddings,
)
from marginforge.mathcore import unit_rows
from helpers import per_token_rows, per_value_rows, per_value_text

ONE_MINUS_INV_SQRT2 = 1.0 - 1.0 / np.sqrt(2.0)  # 0.29289321881345254

# signed zero, the smallest subnormal, the largest double, a repeating binary
# fraction and a short exact value
EDGE_ROW = [-0.0, 5e-324, 1.7976931348623157e308, 1 / 3, -1.5]
BAD_COUNTS = ["+2", "1_0", "-0", "1.5"]


def cosine_distances(reprs, what):
    """1 - cosine over all pairs of a row stack, as the margin stage forms it."""
    U = unit_rows(reprs, what)[0]
    return 1.0 - kernels.pairwise_cosine(U, U)


def hex_text(decimal: str) -> str:
    """Decimal literals, space-separated, as hex value tokens: ``"1.5 0.0"`` -> ``"0x1.8..."``."""
    return per_value_text([float(x) for x in decimal.split()])


class TestDseDistances:
    def test_identical_reprs_all_zero(self):
        reprs = np.tile([1.0, 2.0, 3.0], (4, 1))
        d = cosine_distances(reprs, "dse_text")
        np.testing.assert_allclose(d, 0.0, atol=1e-12)

    def test_orthogonal_pair(self):
        d = cosine_distances([[1.0, 0.0], [0.0, 1.0]], "dse_text")
        assert d[0, 1] == pytest.approx(1.0, abs=1e-12)

    def test_hand_value(self):
        d = cosine_distances([[1.0, 0.0], [1.0, 1.0]], "dse_text")
        assert d[0, 1] == pytest.approx(ONE_MINUS_INV_SQRT2, abs=1e-12)
        assert d[0, 1] == pytest.approx(0.2928932, abs=1e-7)

    def test_video_mirror(self):
        reprs = [[1.0, 0.0], [1.0, 1.0]]
        dv = cosine_distances(reprs, "dse_video")
        dt = cosine_distances(reprs, "dse_text")
        np.testing.assert_array_equal(dv, dt)

    def test_zero_norm_rejected(self):
        for bad_row in ([0.0, 0.0], [np.nan, 1.0], [np.inf, 1.0]):
            with pytest.raises(ZeroNormError):
                cosine_distances([[1.0, 0.0], bad_row], "dse_video")


class TestSseVideoDistances:
    """The sse_video path: frames mean-pooled as ``Dataset.pooled_video`` does, then distances."""

    def distances(self, frames):
        pooled = np.stack(frames).mean(axis=1)
        return cosine_distances(pooled, "sse_video")

    def test_identical_frames_zero(self):
        frames = [np.tile([1.0, 2.0], (3, 1))] * 3
        d = self.distances(frames)
        np.testing.assert_allclose(d, 0.0, atol=1e-12)

    def test_orthogonal_pooled(self):
        a = np.array([[1.0, 0.0], [1.0, 0.0]])
        b = np.array([[0.0, 1.0], [0.0, 1.0]])
        d = self.distances([a, b])
        assert d[0, 1] == pytest.approx(1.0, abs=1e-12)

    def test_pooled_hand_value(self):
        a = np.array([[2.0, 0.0], [0.0, 2.0]])  # pools to [1, 1]
        b = np.array([[1.0, 0.0], [1.0, 0.0]])
        d = self.distances([a, b])
        assert d[0, 1] == pytest.approx(ONE_MINUS_INV_SQRT2, abs=1e-12)

    def test_single_frame_items_match_pairwise(self):
        rng = np.random.default_rng(30)
        vecs = rng.standard_normal((5, 4))
        d_pool = self.distances([v[None, :] for v in vecs])
        d_pair = cosine_distances(vecs, "dse_video")
        np.testing.assert_allclose(d_pool, d_pair, atol=1e-12)


class TestSseTextDistances:
    """The sse_text path: a ``StaticEmbeddingTable``'s rows, then distances."""

    def table(self, vecs):
        return StaticEmbeddingTable([f"id{i}" for i in range(len(vecs))], np.asarray(vecs, float))

    def test_equal_vectors_zero(self):
        t = self.table([[1.0, 2.0], [1.0, 2.0]])
        d = cosine_distances(t.embeddings[[0, 1]], "sse_text")
        assert d[0, 1] == pytest.approx(0.0, abs=1e-12)

    @pytest.mark.parametrize("n_ids", [2, 4])
    def test_id_count_must_match_rows(self, n_ids):
        with pytest.raises(DimMismatchError, match=f"^{n_ids} ids for 3 embedding rows$"):
            StaticEmbeddingTable([f"id{i}" for i in range(n_ids)], np.eye(3))


class TestDistanceProperties:
    def test_symmetric_zero_diag_bounded(self):
        rng = np.random.default_rng(31)
        for _ in range(20):
            x = rng.standard_normal((int(rng.integers(2, 9)), 5))
            d = cosine_distances(x, "dse_video")
            np.testing.assert_array_equal(d, d.T)
            # a self distance is 1 - |u|^2, zero up to the rounding of unit_rows
            np.testing.assert_allclose(np.diag(d), 0.0, rtol=0, atol=1e-15)
            assert d.min() >= -1e-12 and d.max() <= 2.0 + 1e-12

    def test_scale_invariance(self):
        rng = np.random.default_rng(32)
        x = rng.standard_normal((6, 4))
        scales = rng.uniform(0.1, 10.0, size=(6, 1))
        d1 = cosine_distances(x, "dse_text")
        d2 = cosine_distances(x * scales, "dse_text")
        np.testing.assert_allclose(d1, d2, atol=1e-12)


class TestEmb2Format:
    def write(self, tmp_path, text):
        p = tmp_path / "t.emb1"
        p.write_text(text, encoding="utf-8")
        return p

    def test_basic_parse(self, tmp_path):
        text = "EMB2 2 3\n# comment\na 0x1p+0 0x1p+1 0x1.8p+1\nb 0x1p+2 0x1.4p+2 0x1.8p+2\n"
        ids, rows = load_static_embeddings(self.write(tmp_path, text))
        assert ids == ["a", "b"] and rows.shape == (2, 3)
        np.testing.assert_array_equal(rows[1], [4.0, 5.0, 6.0])

    def test_count_mismatch(self, tmp_path):
        p = self.write(tmp_path, "EMB2 3 2\na 0x1p+0 0x1p+1\nb 0x1.8p+1 0x1p+2\n")
        with pytest.raises(ParseError):
            load_static_embeddings(p)

    def test_duplicate_id(self, tmp_path):
        p = self.write(tmp_path, "EMB2 2 2\na 0x1p+0 0x1p+1\na 0x1.8p+1 0x1p+2\n")
        with pytest.raises(DuplicateIdError):
            load_static_embeddings(p)

    def test_dim_mismatch(self, tmp_path):
        p = self.write(tmp_path, "EMB2 2 2\na 0x1p+0 0x1p+1\nb 0x1.8p+1\n")
        with pytest.raises(DimMismatchError):
            load_static_embeddings(p)

    def test_bad_float_names_line(self, tmp_path):
        p = self.write(tmp_path, "EMB2 1 2\na 0x1p+0 oops\n")
        with pytest.raises(ParseError, match="line 2"):
            load_static_embeddings(p)

    def test_zero_norm_row(self, tmp_path):
        p = self.write(tmp_path, "EMB2 1 2\na 0x0p+0 -0x0p+0\n")
        with pytest.raises(ZeroNormError):
            load_static_embeddings(p)

    # the rule of ``unit_rows``: 1e200's square overflows to an infinite norm,
    # which is rejected with no RuntimeWarning
    @pytest.mark.parametrize("row", ["1e-13 0.0", "1e200 1.0", "-1e200 1e200"])
    def test_norm_outside_the_unit_rows_rule(self, tmp_path, row):
        text = f"EMB2 3 2\na {hex_text('1.0 0.0')}\nb {hex_text(row)}\nc {hex_text('1e-13 0.0')}\n"
        p = self.write(tmp_path, text)
        with pytest.raises(ZeroNormError, match="embedding for 'b' has non-finite or near-zero"):
            load_static_embeddings(p)

    @pytest.mark.parametrize("header", ["EMB2 {} 2", "EMB2 2 {}"])
    @pytest.mark.parametrize("token", BAD_COUNTS)
    def test_bad_count_rejected(self, tmp_path, header, token):
        p = self.write(tmp_path, header.format(token) + "\na 0x1p+0 0x0p+0\nb 0x0p+0 0x1p+0\n")
        with pytest.raises(ParseError) as excinfo:
            load_static_embeddings(p)
        assert excinfo.value.line == 1

    def test_rows_match_per_value_text(self, tmp_path):
        p = tmp_path / "edge.emb1"
        save_static_embeddings(["a", "b"], np.array([EDGE_ROW, EDGE_ROW[::-1]]), p)
        assert p.read_text(encoding="utf-8").splitlines()[1:] == [
            "a " + per_value_text(EDGE_ROW),
            "b " + per_value_text(EDGE_ROW[::-1]),
        ]

    def test_round_trip_bit_exact(self, tmp_path):
        rng = np.random.default_rng(33)
        ids, rows = ["x", "y", "z"], rng.standard_normal((3, 5)) * 10.0 ** rng.integers(-8, 8)
        p = tmp_path / "rt.emb1"
        save_static_embeddings(ids, rows, p)
        loaded_ids, loaded = load_static_embeddings(p)
        assert loaded_ids == ids
        np.testing.assert_array_equal(loaded, rows)


class TestFrm3Format:
    def test_round_trip_bit_exact(self, tmp_path):
        rng = np.random.default_rng(34)
        ids = ["a", "b"]
        frames = rng.standard_normal((2, 3, 4))
        p = tmp_path / "f.frm1"
        save_frame_file(ids, frames, p)
        got_ids, got = load_frame_file(p)
        assert got_ids == ids
        np.testing.assert_array_equal(got, frames)

    @pytest.mark.parametrize("header", ["FRM3 {} 2 2", "FRM3 2 {} 2", "FRM3 2 2 {}"])
    @pytest.mark.parametrize("token", BAD_COUNTS)
    def test_bad_count_rejected(self, tmp_path, header, token):
        p = tmp_path / "f.frm1"
        rows = "".join(f"{i} 0x1p+0 0x1p+1 0x1p+0 0x1p+1\n" for i in "ab")
        p.write_text(header.format(token) + "\n" + rows, encoding="utf-8")
        with pytest.raises(ParseError) as excinfo:
            load_frame_file(p)
        assert excinfo.value.line == 1

    def test_rows_match_per_value_text(self, tmp_path):
        frames = np.array([[EDGE_ROW, EDGE_ROW[::-1]]])
        p = tmp_path / "edge.frm1"
        save_frame_file(["a"], frames, p)
        assert p.read_text(encoding="utf-8").splitlines()[1:] == [
            "a " + per_value_text(EDGE_ROW + EDGE_ROW[::-1]),
        ]

    # C and Fortran memory order: a record follows the frames' index order
    @pytest.mark.parametrize("order", ["C", "F"])
    def test_one_record_per_item_in_frame_major_order(self, tmp_path, order):
        ids = ["a", "b", "c"]
        frames = np.asarray(np.random.default_rng(36).standard_normal((3, 2, 4)), order=order)
        p = tmp_path / "f.frm1"
        save_frame_file(ids, frames, p)
        header, *records = p.read_text(encoding="utf-8").splitlines()
        assert header == "FRM3 3 2 4"
        assert records == [f"{i} {per_value_text(frames[k].reshape(-1))}" for k, i in enumerate(ids)]

    @pytest.mark.parametrize("extra", [-1, 1])
    def test_record_of_wrong_width_names_its_line(self, tmp_path, extra):
        p = tmp_path / "f.frm1"
        values = lambda count: " ".join(["0x1p+0"] * count)
        p.write_text(f"FRM3 2 2 3\na {values(6)}\nb {values(6 + extra)}\n", encoding="utf-8")
        message = f"line 3: {p}: expected id + 6 values, got {6 + extra}"
        with pytest.raises(DimMismatchError, match="^" + re.escape(message) + "$"):
            load_frame_file(p)

    def test_count_mismatch(self, tmp_path):
        p = tmp_path / "f.frm1"
        p.write_text("FRM3 3 2 1\na 0x1p+0 0x1p+1\nb 0x1.8p+1 0x1p+2\n", encoding="utf-8")
        with pytest.raises(ParseError, match="header declares 3 rows, found 2"):
            load_frame_file(p)


@pytest.mark.parametrize(
    "name, loader, header",
    [
        ("t.emb1", load_static_embeddings, "EMB2 1 0"),
        ("f.frm1", load_frame_file, "FRM3 1 0 2"),
        ("f.frm1", load_frame_file, "FRM3 1 2 0"),
    ],
)
def test_zero_count_after_n_rejected(tmp_path, name, loader, header):
    # after a comment line, so the header's line is not the first
    p = tmp_path / name
    p.write_text("# c\n" + header + "\na\n", encoding="utf-8")
    message = f"line 2: {p}: {header.split()[0]} header needs every count after N >= 1"
    with pytest.raises(ParseError, match="^" + re.escape(message) + "$") as excinfo:
        loader(p)
    assert excinfo.value.line == 2


@pytest.mark.parametrize(
    "name, loader, text",
    [
        ("t.emb1", load_static_embeddings, "# decimal text\nEMB1 1 2\na 1.0 2.0\n"),
        ("f.frm1", load_frame_file, "# decimal text\nFRM1 1 1 2\na 0 1.0 2.0\n"),
        ("f.frm1", load_frame_file, "# one record a frame\nFRM2 1 1 2\na 0 0x1p+0 0x1p+1\n"),
    ],
)
def test_retired_tag_rejected_with_regenerate_hint(tmp_path, name, loader, text):
    p = tmp_path / name
    p.write_text(text, encoding="utf-8")
    tag = text.split("\n")[1].split()[0]
    with pytest.raises(ParseError, match=f"{tag} files are no longer read.*gen-data") as excinfo:
        loader(p)
    assert excinfo.value.line == 2


def test_edge_row_round_trips_bit_for_bit(tmp_path):
    # through FRM3: an EMB2 row holding the largest double fails the norm
    # rule. The sign of -0.0 shows only in the bits, not under ==.
    edge = np.array([[EDGE_ROW, EDGE_ROW[::-1]]])
    save_frame_file(["a"], edge, tmp_path / "f.frm1")
    got = load_frame_file(tmp_path / "f.frm1")[1]
    assert got.view(np.uint64).tolist() == edge.view(np.uint64).tolist()
    assert got.view(np.uint64)[0, 0, 0] == np.array(-0.0).view(np.uint64)


# value tokens: accepted ones load as ``float.fromhex`` reads them; rejected
# ones are a decimal literal (which ``fromhex`` would misread: 1.5 -> 1.3125,
# 10 -> 16.0), a non-finite word, an exponent beyond the float range, or a
# form ``fromhex`` refuses or takes without the lowercase ``0x``
ACCEPTED_TOKENS = [
    "0x1p+0", "-0x1.8p+0", "-0x0.0p+0", "0x0.0000000000001p-1022", "0x1.fffffffffffffp+1023",
]
REJECTED_TOKENS = ["1.5", "10", "inf", "nan", "-inf", "0x1p+9999", "0x1_0p0", "0xinf", "0X1p+0"]


def emb2_text(n, dim, edit=lambda rows: rows):
    """An EMB2 file of n rows; ``edit`` may change the row lines (line = index + 2)."""
    rows = [f"i{r} " + " ".join([(r + 1.0).hex()] + ["0x1p-1"] * (dim - 1)) for r in range(n)]
    return f"EMB2 {n} {dim}\n" + "\n".join(edit(rows)) + "\n"


def replace_row(index, text):
    def edit(rows):
        rows = list(rows)
        rows[index] = text
        return rows

    return edit


class TestFloatBlocks:
    """EMB2/FRM3 floats are converted per row under one token rule, and
    errors come in file order."""

    # in a frame file, which has no norm rule to trip on the largest double
    @pytest.mark.parametrize("token", ACCEPTED_TOKENS)
    def test_accepted_token(self, tmp_path, token):
        p = tmp_path / "one.frm1"
        p.write_text(f"FRM3 1 1 2\na {token} 0x1p+0\n", encoding="utf-8")
        got = load_frame_file(p)[1][0, 0]
        assert got.tobytes() == np.array([float.fromhex(token), 1.0]).tobytes()

    @pytest.mark.parametrize("token", REJECTED_TOKENS)
    def test_rejected_token_names_its_line(self, tmp_path, token):
        p = tmp_path / "one.emb1"
        p.write_text(f"EMB2 2 2\na 0x1p+0 0x1p+0\nb 0x1p+0 {token}\n", encoding="utf-8")
        with pytest.raises(ParseError, match="^" + re.escape(f"line 3: {p}: bad value {token!r}:")) as excinfo:
            load_static_embeddings(p)
        assert excinfo.value.line == 3

    def test_exponent_overflow_in_a_frame_file(self, tmp_path):
        p = tmp_path / "f.frm1"
        p.write_text(
            "FRM3 2 2 2\na 0x1p+0 0x1p+1 0x1p+0 0x1p+1\nb 0x1p+0 0x1p+1 -0x1p+9999 0x1p+1\n",
            encoding="utf-8",
        )
        with pytest.raises(ParseError, match="bad value '-0x1p\\+9999'") as excinfo:
            load_frame_file(p)
        assert excinfo.value.line == 3

    @pytest.mark.parametrize("bad", ["oops", "nan"])
    @pytest.mark.parametrize("offset", [0, 7])
    def test_emb2_error_line_far_into_the_file(self, tmp_path, bad, offset):
        dim = 16
        index = 512 + offset
        p = tmp_path / "long.emb1"
        bad_row = f"i{index} 0x1p+0 {bad} " + " ".join(["0x1p-1"] * (dim - 2))
        p.write_text(emb2_text(2 * 512, dim, replace_row(index, bad_row)))
        with pytest.raises(ParseError, match=re.escape(f"bad value {bad!r}")) as excinfo:
            load_static_embeddings(p)
        assert excinfo.value.line == index + 2

    @pytest.mark.parametrize("bad", ["oops", "nan"])
    @pytest.mark.parametrize("offset", [0, 7])
    def test_frm3_error_line_far_into_the_file(self, tmp_path, bad, offset):
        n, t, dim = 600, 2, 40
        frames = np.arange(n * t * dim, dtype=np.float64).reshape(n, t, dim) + 0.25
        p = tmp_path / "long.frm1"
        save_frame_file([f"v{i}" for i in range(n)], frames, p)
        lines = p.read_text(encoding="utf-8").splitlines()
        row = 205 + offset
        parts = lines[row].split()
        parts[5] = bad
        lines[row] = " ".join(parts)
        p.write_text("\n".join(lines) + "\n", encoding="utf-8")
        with pytest.raises(ParseError, match=re.escape(f"bad value {bad!r}")) as excinfo:
            load_frame_file(p)
        assert excinfo.value.line == row + 1

    # line ends as text mode reads them; the bad byte lies past the decoder's
    # first read, after the rows before it were queued
    @pytest.mark.parametrize("newline", [b"\n", b"\r\n", b"\r"])
    def test_non_utf8_byte_far_into_the_file(self, tmp_path, newline):
        index = 1500
        p = tmp_path / "t.emb1"
        lines = emb2_text(2000, 4).encode("utf-8").split(b"\n")
        lines[index + 1] = lines[index + 1].replace(b" ", b" \xff", 1)
        p.write_bytes(newline.join(lines))
        with pytest.raises(ParseError, match=f"^line {index + 2}: {p}: not UTF-8") as excinfo:
            load_static_embeddings(p)
        assert excinfo.value.line == index + 2

    # the line and reason of a strict decode; a comment line of valid
    # non-ASCII UTF-8 before it loads
    @pytest.mark.parametrize(
        "bad, reason",
        [
            (b"\xff", "invalid start byte"),
            (b"\xe9\r\n", "invalid continuation byte"),
            (b"\xed\xa0\x80\n", "invalid continuation byte"),  # an encoded surrogate
            (b"\xe2\x82", "unexpected end of data"),  # a sequence cut short by the file's end
        ],
    )
    def test_non_utf8_line_and_reason(self, tmp_path, bad, reason):
        p = tmp_path / "t.emb1"
        p.write_bytes("# caf\u00e9\nEMB2 1 2\na 0x1p+0 0x1p+1\n# ".encode("utf-8") + bad)
        message = f"line 4: {p}: not UTF-8 text: {reason}"
        with pytest.raises(ParseError, match="^" + re.escape(message) + "$"):
            load_static_embeddings(p)

    def test_float_error_before_later_non_utf8_byte(self, tmp_path):
        p = tmp_path / "t.emb1"
        edit = replace_row(1, "i1 0x1p+0 oops")
        lines = emb2_text(8, 2, edit).encode("utf-8").split(b"\n")
        lines[5] = lines[5] + b"\xe9"
        p.write_bytes(b"\n".join(lines))
        with pytest.raises(ParseError, match="bad value") as excinfo:
            load_static_embeddings(p)
        assert excinfo.value.line == 3

    @pytest.mark.parametrize("bad", ["oops", "nan"])
    def test_float_error_before_later_duplicate_id(self, tmp_path, bad):
        p = tmp_path / "t.emb1"
        edit = lambda rows: [rows[0], "i1 0x1p+0 " + bad, rows[2], "i1 0x1p+1 0x1p-1", *rows[4:]]
        p.write_text(emb2_text(8, 2, edit), encoding="utf-8")
        with pytest.raises(ParseError) as excinfo:
            load_static_embeddings(p)
        assert excinfo.value.line == 3

    @pytest.mark.parametrize("bad", ["oops", "nan"])
    def test_duplicate_id_before_later_float_error(self, tmp_path, bad):
        p = tmp_path / "t.emb1"
        edit = lambda rows: [rows[0], rows[1], "i1 0x1p+0 0x1p-1", "i3 0x1p+0 " + bad, *rows[4:]]
        p.write_text(emb2_text(8, 2, edit), encoding="utf-8")
        with pytest.raises(DuplicateIdError, match="line 4:"):
            load_static_embeddings(p)

    # two bad tokens on different lines: the earlier line's error wins
    @pytest.mark.parametrize("fmt", ["emb1", "frm1"])
    @pytest.mark.parametrize("first, later", [("nan", "oops"), ("oops", "nan")])
    def test_mixed_float_errors_keep_file_order(self, tmp_path, fmt, first, later):
        p = tmp_path / f"t.{fmt}"
        if fmt == "emb1":
            edit = lambda rows: [
                rows[0], "i1 0x1p+0 " + first, rows[2], f"i3 {later} 0x1p-1", *rows[4:]
            ]
            p.write_text(emb2_text(8, 2, edit), encoding="utf-8")
            load = load_static_embeddings
        else:
            body = (
                f"a 0x1p+0 0x1p+1\nb 0x1p+0 {first}\n"
                f"c 0x1p+0 0x1p+1\nd {later} 0x1p+1\n"
            )
            p.write_text("FRM3 4 2 1\n" + body, encoding="utf-8")
            load = load_frame_file
        with pytest.raises(ParseError, match=re.escape(f"bad value {first!r}")) as excinfo:
            load(p)
        assert excinfo.value.line == 3

    def test_frm3_error_before_later_structural_error(self, tmp_path):
        p = tmp_path / "f.frm1"
        p.write_text(
            "FRM3 2 2 2\na 0x1p+0 nan 0x1p+0 0x1p+1\nb 0x1p+0 0x1p+1 0x1p+0\n", encoding="utf-8"
        )
        with pytest.raises(ParseError, match="bad value 'nan'") as excinfo:
            load_frame_file(p)
        assert excinfo.value.line == 2


def load_outcome(load) -> tuple:
    """The ids and row bits that ``load()`` returns, or its error's type, message and line."""
    try:
        ids, rows = load()
    except MarginForgeError as exc:
        return type(exc), str(exc), getattr(exc, "line", None)
    return ids, rows.view(np.uint64).tobytes()


def assert_loads_as_reference(path) -> tuple:
    """``_load_rows`` reads the EMB2 file at ``path`` as ``per_token_rows`` does."""
    got = load_outcome(lambda: experts._load_rows(path, "EMB2", 2, ()))
    assert got == load_outcome(lambda: per_token_rows(path, "EMB2", 2))
    return got


BLOCK_WIDTH = 24
BLOCK_ROWS = experts._BLOCK_VALUES // BLOCK_WIDTH
# three loader blocks and part of a fourth
N_BLOCK_FILE = 3 * BLOCK_ROWS + 40
# the index in the file's lines of the record an edit changes, in the first,
# a middle or the last block
EDIT_LINE = {"first": 6, "middle": 1 + BLOCK_ROWS + BLOCK_ROWS // 2, "last": N_BLOCK_FILE - 2}


def block_file_lines(n: int, seed: int) -> list[str]:
    """The lines of an EMB2 file in the writer's form: n rows of
    ``BLOCK_WIDTH`` random bit patterns, zeros of both signs and subnormals
    among them."""
    bits = np.random.default_rng(seed).integers(0, 2**64, size=(n, BLOCK_WIDTH), dtype=np.uint64)
    bits[:, 1] &= np.uint64(1 << 63)  # zeros
    bits[:, 2] &= np.uint64((1 << 63) | ((1 << 52) - 1))  # subnormals
    rows = bits.view(np.float64)
    rows[~np.isfinite(rows)] = 1.0
    return [f"EMB2 {n} {BLOCK_WIDTH}\n"] + [f"i{r} {per_value_text(row)}\n" for r, row in enumerate(rows)]


def edit_line(change):
    def edit(lines, i):
        lines[i] = change(lines[i])

    return edit


def swap_token(token):
    """An edit that puts ``token`` in place of a record's second value."""

    def change(line):
        parts = line.split(" ")
        parts[2] = token
        return " ".join(parts)

    return edit_line(change)


def duplicate_id(lines, i):
    # the id of a record half the file away, in another block
    other = 1 + (i - 1 + N_BLOCK_FILE // 2) % N_BLOCK_FILE
    lines[i] = lines[other].split(" ")[0] + lines[i][lines[i].index(" ") :]


# one edit of a file in the writer's form: tokens that ``float.fromhex``
# reads but the writer never forms, an overflow, whitespace the writer never
# writes, lines between records, ids the block path declines, and record errors
BLOCK_EDITS = {
    **{
        token: swap_token(token)
        for token in [
            "0x1p+0", "+0x1.8p+0", "0x1.ABp+0", "0x1.8P+0", "0x1.0p-1023",
            "0x0.0000000000000p+0", "0x0.0p+00", "0x0.0p+0z", "0x1.fffffffffffff8p+1023",
        ]
    },
    "no-id": edit_line(lambda line: line[line.index(" ") :]),
    "tab": edit_line(lambda line: line.replace(" ", "\t", 1)),
    "two-spaces": edit_line(lambda line: line.replace(" ", "  ", 1)),
    "trailing-space": edit_line(lambda line: line[:-1] + " \n"),
    "leading-space": edit_line(lambda line: " " + line),
    "comment-and-blank-lines": lambda lines, i: lines.insert(i, "# note\n\n \t\n"),
    "unit-separator-in-id": edit_line(lambda line: "x\x1f" + line),
    "non-ascii-id": edit_line(lambda line: "\u00e9" + line),
    "duplicate-id": duplicate_id,
    "row-too-many": lambda lines, i: lines.insert(i + 1, "extra" + lines[i][lines[i].index(" ") :]),
    "no-final-line-end": lambda lines, i: lines.append(lines.pop()[:-1]),
}


@pytest.fixture(scope="module")
def block_lines():
    return block_file_lines(N_BLOCK_FILE, seed=46)


def count_block_parses(monkeypatch) -> list:
    """Record whether each ``_parse_block`` call took its block (True) or declined it."""
    taken, parse = [], experts._parse_block

    def counted(lines, width):
        parsed = parse(lines, width)
        taken.append(parsed is not None)
        return parsed

    monkeypatch.setattr(experts, "_parse_block", counted)
    return taken


class TestBlockReader:
    """``_load_rows`` reads every file as the per-token reference does: the
    writer's blocks through ``_parse_block``, all others through the
    per-record loop, with the same ids, bits, errors and lines."""

    def test_writer_form_takes_the_block_path(self, tmp_path, block_lines, monkeypatch):
        taken = count_block_parses(monkeypatch)
        p = tmp_path / "t.emb1"
        p.write_text("".join(block_lines), encoding="utf-8")
        ids, _ = assert_loads_as_reference(p)
        assert len(ids) == N_BLOCK_FILE and taken == [True] * 4

    def test_dataset_files_take_the_block_path(self, tmp_path, monkeypatch):
        cfg = SynthConfig(n_items=300, n_concepts=200, duplicate_rate=0.5, seed=42)
        write_dataset(generate(cfg), tmp_path)
        taken = count_block_parses(monkeypatch)
        load_dataset(tmp_path)
        assert len(taken) >= 4 and all(taken)

    @pytest.mark.parametrize("where", EDIT_LINE)
    @pytest.mark.parametrize("edit", BLOCK_EDITS.values(), ids=BLOCK_EDITS.keys())
    def test_one_edit_loads_as_reference(self, tmp_path, block_lines, edit, where):
        lines = list(block_lines)
        edit(lines, EDIT_LINE[where])
        p = tmp_path / "t.emb1"
        p.write_text("".join(lines), encoding="utf-8")
        assert_loads_as_reference(p)

    def test_single_byte_mutants_load_as_reference(self, tmp_path, monkeypatch):
        # blocks of four records, so that a mutant's file holds six of them
        monkeypatch.setattr(experts, "_BLOCK_VALUES", 4 * BLOCK_WIDTH)
        raw = "".join(block_file_lines(24, seed=47)).encode("ascii")
        records = raw.index(b"\n") + 1
        alphabet = b" \t\n\r\x1f#+-.0123456789abcdefgpxAFPX\x80\xe9\xff"
        rng = np.random.default_rng(48)
        p = tmp_path / "t.emb1"
        loaded = 0
        for _ in range(400):
            off = int(rng.integers(records, len(raw)))
            byte = alphabet[rng.integers(len(alphabet))] if rng.random() < 0.5 else rng.integers(256)
            p.write_bytes(raw[:off] + bytes([byte]) + raw[off + 1 :])
            loaded += isinstance(assert_loads_as_reference(p)[0], list)
        assert 0 < loaded < 400


# one malformed record line each: extra row, short row, duplicate id, bad token, non-finite
MALFORMED_EMB2 = [
    "EMB2 1 2\na 0x1p+0 0x1p+1\nb 0x1p+0 0x1p+1\n",
    "EMB2 2 2\na 0x1p+0 0x1p+1\nb 0x1.8p+1\n",
    "EMB2 2 2\na 0x1p+0 0x1p+1\na 0x1.8p+1 0x1p+2\n",
    "EMB2 2 2\na 0x1p+0 0x1p+1\nb 0x1.8p+1 x\n",
    "EMB2 2 2\na 0x1p+0 0x1p+1\nb 0x1.8p+1 inf\n",
]
# short row, extra row, duplicate id, bad token, non-finite
MALFORMED_FRM3 = [
    "FRM3 1 1 2\na 0x1p+0\n",
    "FRM3 1 1 2\na 0x1p+0 0x1p+1\nb 0x1p+0 0x1p+1\n",
    "FRM3 2 2 1\na 0x1p+0 0x1p+1\na 0x1.8p+1 0x1p+2\n",
    "FRM3 1 1 2\na 0x1p+0 x\n",
    "FRM3 1 1 2\na nan 0x1p+1\n",
]


@pytest.mark.parametrize(
    "name, loader, text",
    [("t.emb1", load_static_embeddings, text) for text in MALFORMED_EMB2]
    + [("f.frm1", load_frame_file, text) for text in MALFORMED_FRM3],
)
def test_record_errors_name_the_file(tmp_path, name, loader, text):
    p = tmp_path / name
    p.write_text(text, encoding="utf-8")
    with pytest.raises((ParseError, DimMismatchError, DuplicateIdError)) as excinfo:
        loader(p)
    last_line = len(text.splitlines())
    assert str(excinfo.value).startswith(f"line {last_line}: {p}: ")


# headers that declare more records than their file can hold, after a
# comment line: the loaders size their arrays from the header's counts
OVERSIZED_HEADERS = [
    ("t.emb1", load_static_embeddings, "EMB2 100000000 100000000\n"),
    ("f.frm1", load_frame_file, "FRM3 1000000 1000 1000000\n"),
    ("t.emb1", load_static_embeddings, "EMB2 20000 20000\na 0x1p+0\n"),
    # 600 kB of records: more than a one-byte token each needs (501 kB), less
    # than the 1 MB of three-byte value tokens, and a 2 MB array to allocate
    pytest.param(
        "t.emb1", load_static_embeddings, "EMB2 500 500\n" + "a 0x1\n" * 100_000,
        id="between-the-bounds",
    ),
]


@pytest.mark.parametrize("name, loader, text", OVERSIZED_HEADERS)
def test_header_beyond_the_file_is_rejected_before_allocating(tmp_path, name, loader, text):
    p = tmp_path / name
    p.write_text("# one comment line\n" + text, encoding="utf-8")
    tracemalloc.start()
    try:
        with pytest.raises(ParseError) as excinfo:
            loader(p)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert excinfo.value.line == 2
    assert peak < 1 << 20


@pytest.mark.parametrize(
    "name, loader, text",
    [
        ("t.emb1", load_static_embeddings, "EMB2 3 1\na 0x1\nb 0x2\nc 0x3"),
        ("f.frm1", load_frame_file, "FRM3 1 3 1\na 0x1 0x2 0x3"),
    ],
)
def test_shortest_records_fit_their_header(tmp_path, name, loader, text):
    # three-byte value tokens, one-byte ids and no final line end: exactly
    # the header's byte bound, the shortest records it admits
    p = tmp_path / name
    p.write_text(text, encoding="utf-8")
    loader(p)


SMALLEST_NORMAL = 2.2250738585072014e-308
LARGEST = 1.7976931348623157e308


def assert_bytes_match_reference(tmp_path, header, ids, rows):
    """``_save_rows`` writes the bytes of the per-value ``float.hex`` writer."""
    experts._save_rows(tmp_path / "rows.fast", header, ids, rows)
    per_value_rows(tmp_path / "rows.ref", header, ids, rows)
    fast = (tmp_path / "rows.fast").read_bytes()
    ref = (tmp_path / "rows.ref").read_bytes()
    if fast != ref:
        fast_lines, ref_lines = fast.split(b"\n"), ref.split(b"\n")
        line = next(k for k, pair in enumerate(zip(fast_lines, ref_lines)) if pair[0] != pair[1])
        pytest.fail(f"line {line + 1}: {fast_lines[line][:200]!r} != {ref_lines[line][:200]!r}")


class TestWriterBytes:
    """The writer forms each value's ``float.hex`` text from its bits, in
    blocks of about ``experts._BLOCK_VALUES`` values."""

    def test_random_bit_patterns(self, tmp_path):
        bits = np.random.default_rng(37).integers(0, 2**64, size=(256, 200), dtype=np.uint64)
        rows = bits.view(np.float64)
        rows[~np.isfinite(rows)] = 1.0
        assert_bytes_match_reference(tmp_path, "EMB2 256 200", [f"r{i}" for i in range(256)], rows)

    def test_every_exponent_and_edge_values(self, tmp_path):
        exponents = np.arange(-1074, 1024)
        mantissas = np.random.default_rng(38).uniform(1.0, 2.0, exponents.size)
        below_normal = np.nextafter(SMALLEST_NORMAL, 0.0)
        edges = [0.0, -0.0, 5e-324, SMALLEST_NORMAL, below_normal, LARGEST, -LARGEST]
        rows = [np.ldexp(1.0, exponents), -np.ldexp(1.0, exponents), np.ldexp(mantissas, exponents)]
        rows.append(np.resize(edges, exponents.size))
        ids = ["pow", "neg", "mixed", "edges"]
        assert_bytes_match_reference(tmp_path, "H", ids, np.array(rows))
        # the powers of two reach every exponent text, subnormal ones as 0x0.<digits>p-1022
        text = (tmp_path / "rows.fast").read_text(encoding="utf-8").split()
        ends = {"0x0.0000000000001p-1022", "0x1.0000000000000p-1022", "-0x1.0000000000000p+1023"}
        assert ends <= set(text)
        assert text[-exponents.size :][:2] == ["0x0.0p+0", "-0x0.0p+0"]

    @pytest.mark.parametrize(
        "n, width",
        [
            (3 * experts._BLOCK_VALUES // 96 + 5, 96),  # several blocks of whole rows
            (3, 2 * experts._BLOCK_VALUES + 5),  # each row in three pieces
            (2, experts._BLOCK_VALUES),  # one row a block
            (1, 7),
        ],
        ids=["several-blocks", "rows-in-pieces", "one-row-a-block", "one-row"],
    )
    def test_block_layouts(self, tmp_path, n, width):
        scales = 10.0 ** np.arange(-n, 0)[:, None]
        rows = np.random.default_rng(39).standard_normal((n, width)) * scales
        rows[0, 0] = 0.0
        ids = [f"i{k}" for k in range(n)]
        assert_bytes_match_reference(tmp_path, f"EMB2 {n} {width}", ids, rows)

    def test_ids_of_different_lengths(self, tmp_path):
        lengths = np.random.default_rng(40).integers(1, 40, size=300)
        ids = [f"{k}" + "\u00e9" * (size % 3) + "x" * size for k, size in enumerate(lengths)]
        rows = np.random.default_rng(41).standard_normal((300, 60))
        assert_bytes_match_reference(tmp_path, "EMB2 300 60", ids, rows)

    def test_write_dataset_row_files_match_reference(self, tmp_path):
        cfg = SynthConfig(n_items=300, n_concepts=200, duplicate_rate=0.5, seed=42)
        dataset = generate(cfg)
        write_dataset(dataset, tmp_path / "ds")
        n, t, d = dataset.frames.shape
        tables = {
            "frames.frm1": (f"FRM3 {n} {t} {d}", dataset.frames.reshape(n, t * d)),
            "text.emb1": (f"EMB2 {n} {dataset.text.shape[1]}", dataset.text),
        }
        for name in ("sse_video", "sse_text"):
            rows = getattr(dataset, name).embeddings
            tables[f"{name}.emb1"] = (f"EMB2 {n} {rows.shape[1]}", rows)
        for filename, (header, rows) in tables.items():
            per_value_rows(tmp_path / filename, header, dataset.ids, rows)
            assert (tmp_path / "ds" / filename).read_bytes() == (tmp_path / filename).read_bytes()


# ids the loaders would read as another id, another record or a comment, or
# that have no UTF-8 form
UNWRITABLE_IDS = ["", "a b", "a\tb", "a\nb", " a", "a\u2028b", "#x", "a\ud800"]


class TestWriterRefusals:
    """Rows the loaders would reject are refused before the file is opened,
    so a file already at the path is left as it was."""

    def write(self, tmp_path, save, ids, rows):
        p = tmp_path / "old.txt"
        p.write_text("old\n", encoding="utf-8")
        try:
            save(ids, rows, p)
        finally:
            assert p.read_text(encoding="utf-8") == "old\n"

    @pytest.mark.parametrize("bad", UNWRITABLE_IDS)
    def test_unwritable_id(self, tmp_path, bad):
        with pytest.raises(ConfigError, match=re.escape(repr(bad))):
            self.write(tmp_path, save_static_embeddings, ["ok", bad], np.eye(2))

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_value_names_its_row(self, tmp_path, value):
        rows = np.ones((3, 2))
        rows[1, 1] = value
        with pytest.raises(NonFiniteError, match="row 'b' holds a non-finite value"):
            self.write(tmp_path, save_static_embeddings, ["a", "b", "c"], rows)
        frames = np.ones((3, 2, 2))
        frames[2, 1, 0] = value
        with pytest.raises(NonFiniteError, match="row 'c' holds a non-finite value"):
            self.write(tmp_path, save_frame_file, ["a", "b", "c"], frames)

    def test_duplicate_id(self, tmp_path):
        with pytest.raises(DuplicateIdError, match="duplicate id 'a'"):
            self.write(tmp_path, save_static_embeddings, ["a", "b", "a"], np.eye(3))

    @pytest.mark.parametrize("n_ids", [1, 3])
    def test_id_count_must_match_rows(self, tmp_path, n_ids):
        with pytest.raises(DimMismatchError, match=f"{n_ids} ids for 2 rows"):
            self.write(tmp_path, save_frame_file, ["a", "b", "c"][:n_ids], np.ones((2, 1, 3)))

    @pytest.mark.parametrize("shape", [(1, 0, 2), (1, 2, 0)])
    def test_rows_of_no_value(self, tmp_path, shape):
        with pytest.raises(ShapeMismatchError, match="rows need at least one value"):
            self.write(tmp_path, save_frame_file, ["a"], np.ones(shape))


def test_frame_writer_memory_stays_bounded(tmp_path):
    # the ingest-eval frames: formatted at once, their text and keep masks
    # would take about 100 bytes a value, some 40 MiB
    frames = np.random.default_rng(43).standard_normal((4096, 4, 24))
    ids = [f"v{i:05d}" for i in range(4096)]
    tracemalloc.start()
    try:
        save_frame_file(ids, frames, tmp_path / "f.frm1")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 << 20


def test_frame_loader_memory_stays_bounded(tmp_path):
    # the ingest-eval frames: parsed at once, their 8.5 MB of text and the
    # offsets of its tokens would take several times the 3 MiB output
    frames = np.random.default_rng(44).standard_normal((4096, 4, 24))
    save_frame_file([f"v{i:05d}" for i in range(4096)], frames, tmp_path / "f.frm1")
    tracemalloc.start()
    try:
        got = load_frame_file(tmp_path / "f.frm1")[1]
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert got.tobytes() == frames.tobytes()
    assert peak - frames.nbytes < 4 << 20
