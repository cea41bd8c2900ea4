import numpy as np
import pytest

from marginforge.errors import (
    DimMismatchError,
    DuplicateIdError,
    ParseError,
    UnknownIdError,
    ZeroNormError,
)
from marginforge.experts import (
    FLOAT_BLOCK_VALUES,
    StaticEmbeddingTable,
    load_frame_file,
    load_static_embeddings,
    pairwise_distances,
    parse_floats,
    row_format,
    save_frame_file,
    save_static_embeddings,
)
from marginforge.mathcore import unit_rows

ONE_MINUS_INV_SQRT2 = 1.0 - 1.0 / np.sqrt(2.0)  # 0.29289321881345254

# signed zero, the smallest subnormal, the largest double, a repeating binary
# fraction and a short exact value
EDGE_ROW = [-0.0, 5e-324, 1.7976931348623157e308, 1 / 3, -1.5]
BAD_COUNTS = ["+2", "1_0", "-0", "1.5"]


def per_value_text(row) -> str:
    """The writers' former formatting, one f-string per value."""
    return " ".join(f"{x:.17e}" for x in row)


class TestDseDistances:
    def test_identical_reprs_all_zero(self):
        reprs = np.tile([1.0, 2.0, 3.0], (4, 1))
        d = pairwise_distances(unit_rows(reprs, "dse_text")[0])
        np.testing.assert_allclose(d, 0.0, atol=1e-12)

    def test_orthogonal_pair(self):
        d = pairwise_distances(unit_rows([[1.0, 0.0], [0.0, 1.0]], "dse_text")[0])
        assert d[0, 1] == pytest.approx(1.0, abs=1e-12)

    def test_hand_value(self):
        d = pairwise_distances(unit_rows([[1.0, 0.0], [1.0, 1.0]], "dse_text")[0])
        assert d[0, 1] == pytest.approx(ONE_MINUS_INV_SQRT2, abs=1e-12)
        assert d[0, 1] == pytest.approx(0.2928932, abs=1e-7)

    def test_video_mirror(self):
        reprs = [[1.0, 0.0], [1.0, 1.0]]
        dv = pairwise_distances(unit_rows(reprs, "dse_video")[0])
        dt = pairwise_distances(unit_rows(reprs, "dse_text")[0])
        np.testing.assert_array_equal(dv, dt)

    def test_zero_norm_rejected(self):
        for bad_row in ([0.0, 0.0], [np.nan, 1.0], [np.inf, 1.0]):
            with pytest.raises(ZeroNormError):
                pairwise_distances(unit_rows([[1.0, 0.0], bad_row], "dse_video")[0])


class TestSseVideoDistances:
    """The sse_video path: frames mean-pooled as ``Dataset.pooled_video`` does, then distances."""

    def distances(self, frames):
        pooled = np.stack(frames).mean(axis=1)
        return pairwise_distances(unit_rows(pooled, "sse_video")[0])

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
        d_pair = pairwise_distances(unit_rows(vecs, "dse_video")[0])
        np.testing.assert_allclose(d_pool, d_pair, atol=1e-12)


class TestSseTextDistances:
    """The sse_text path: ``StaticEmbeddingTable.lookup`` rows, then distances."""

    def table(self, vecs, ids=None):
        ids = ids or [f"id{i}" for i in range(len(vecs))]
        return StaticEmbeddingTable(ids, np.asarray(vecs, dtype=float), "test")

    def test_equal_vectors_zero(self):
        t = self.table([[1.0, 2.0], [1.0, 2.0]])
        d = pairwise_distances(unit_rows(t.lookup(["id0", "id1"]), "sse_text")[0])
        assert d[0, 1] == pytest.approx(0.0, abs=1e-12)

    def test_missing_id(self):
        t = self.table([[1.0, 0.0], [0.0, 1.0]])
        with pytest.raises(UnknownIdError, match="nope"):
            t.lookup(["id0", "nope"])

    def test_respects_batch_order(self):
        t = self.table([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
        np.testing.assert_array_equal(t.lookup(["id2", "id0"]), [[1.0, 1.0], [1.0, 0.0]])


class TestDistanceProperties:
    def test_symmetric_zero_diag_bounded(self):
        rng = np.random.default_rng(31)
        for _ in range(20):
            x = rng.standard_normal((int(rng.integers(2, 9)), 5))
            d = pairwise_distances(unit_rows(x, "dse_video")[0])
            np.testing.assert_array_equal(d, d.T)
            np.testing.assert_array_equal(np.diag(d), 0.0)
            assert d.min() >= -1e-12 and d.max() <= 2.0 + 1e-12

    def test_scale_invariance(self):
        rng = np.random.default_rng(32)
        x = rng.standard_normal((6, 4))
        scales = rng.uniform(0.1, 10.0, size=(6, 1))
        d1 = pairwise_distances(unit_rows(x, "dse_text")[0])
        d2 = pairwise_distances(unit_rows(x * scales, "dse_text")[0])
        np.testing.assert_allclose(d1, d2, atol=1e-12)


class TestEmb1Format:
    def write(self, tmp_path, text):
        p = tmp_path / "t.emb1"
        p.write_text(text, encoding="utf-8")
        return p

    def test_basic_parse(self, tmp_path):
        p = self.write(tmp_path, "EMB1 2 3\n# comment\na 1.0 2.0 3.0\nb 4.0 5.0 6.0\n")
        t = load_static_embeddings(p)
        assert t.ids == ["a", "b"] and t.dim == 3
        np.testing.assert_array_equal(t.embeddings[1], [4.0, 5.0, 6.0])

    def test_count_mismatch(self, tmp_path):
        p = self.write(tmp_path, "EMB1 3 2\na 1.0 2.0\nb 3.0 4.0\n")
        with pytest.raises(ParseError):
            load_static_embeddings(p)

    def test_duplicate_id(self, tmp_path):
        p = self.write(tmp_path, "EMB1 2 2\na 1.0 2.0\na 3.0 4.0\n")
        with pytest.raises(DuplicateIdError):
            load_static_embeddings(p)

    def test_dim_mismatch(self, tmp_path):
        p = self.write(tmp_path, "EMB1 2 2\na 1.0 2.0\nb 3.0\n")
        with pytest.raises(DimMismatchError):
            load_static_embeddings(p)

    def test_bad_float_names_line(self, tmp_path):
        p = self.write(tmp_path, "EMB1 1 2\na 1.0 oops\n")
        with pytest.raises(ParseError, match="line 2"):
            load_static_embeddings(p)

    def test_zero_norm_row(self, tmp_path):
        p = self.write(tmp_path, "EMB1 1 2\na 0.0 0.0\n")
        with pytest.raises(ZeroNormError):
            load_static_embeddings(p)

    @pytest.mark.parametrize("header", ["EMB1 {} 2", "EMB1 2 {}"])
    @pytest.mark.parametrize("token", BAD_COUNTS)
    def test_bad_count_rejected(self, tmp_path, header, token):
        p = self.write(tmp_path, header.format(token) + "\na 1.0 0.0\nb 0.0 1.0\n")
        with pytest.raises(ParseError) as excinfo:
            load_static_embeddings(p)
        assert excinfo.value.line == 1

    def test_rows_match_per_value_text(self, tmp_path):
        table = StaticEmbeddingTable(["a", "b"], np.array([EDGE_ROW, EDGE_ROW[::-1]]), "src")
        p = tmp_path / "edge.emb1"
        save_static_embeddings(table, p)
        assert p.read_text(encoding="utf-8").splitlines()[1:] == [
            "a " + per_value_text(EDGE_ROW),
            "b " + per_value_text(EDGE_ROW[::-1]),
        ]

    def test_round_trip_bit_exact(self, tmp_path):
        rng = np.random.default_rng(33)
        table = StaticEmbeddingTable(
            ["x", "y", "z"], rng.standard_normal((3, 5)) * 10.0 ** rng.integers(-8, 8), "src"
        )
        p = tmp_path / "rt.emb1"
        save_static_embeddings(table, p)
        loaded = load_static_embeddings(p)
        assert loaded.ids == table.ids
        np.testing.assert_array_equal(loaded.embeddings, table.embeddings)


class TestFrm1Format:
    def test_round_trip_bit_exact(self, tmp_path):
        rng = np.random.default_rng(34)
        ids = ["a", "b"]
        frames = rng.standard_normal((2, 3, 4))
        p = tmp_path / "f.frm1"
        save_frame_file(ids, frames, p)
        got_ids, got = load_frame_file(p)
        assert got_ids == ids
        np.testing.assert_array_equal(got, frames)

    @pytest.mark.parametrize("header", ["FRM1 {} 2 2", "FRM1 2 {} 2", "FRM1 2 2 {}"])
    @pytest.mark.parametrize("token", BAD_COUNTS)
    def test_bad_count_rejected(self, tmp_path, header, token):
        p = tmp_path / "f.frm1"
        rows = "".join(f"{i} {f} 1.0 2.0\n" for i in "ab" for f in range(2))
        p.write_text(header.format(token) + "\n" + rows, encoding="utf-8")
        with pytest.raises(ParseError) as excinfo:
            load_frame_file(p)
        assert excinfo.value.line == 1

    @pytest.mark.parametrize("token", BAD_COUNTS)
    def test_bad_frame_index_rejected(self, tmp_path, token):
        p = tmp_path / "f.frm1"
        # T = 11, so int() would read +2 and 1_0 as frames in range
        p.write_text(f"FRM1 1 11 2\na 0 1.0 2.0\na {token} 3.0 4.0\n", encoding="utf-8")
        with pytest.raises(ParseError) as excinfo:
            load_frame_file(p)
        assert excinfo.value.line == 3

    def test_rows_match_per_value_text(self, tmp_path):
        frames = np.array([[EDGE_ROW, EDGE_ROW[::-1]]])
        p = tmp_path / "edge.frm1"
        save_frame_file(["a"], frames, p)
        assert p.read_text(encoding="utf-8").splitlines()[1:] == [
            "a 0 " + per_value_text(EDGE_ROW),
            "a 1 " + per_value_text(EDGE_ROW[::-1]),
        ]

    def test_frame_index_out_of_range(self, tmp_path):
        p = tmp_path / "f.frm1"
        p.write_text("FRM1 1 1 2\na 1 1.0 2.0\n", encoding="utf-8")
        with pytest.raises(ParseError):
            load_frame_file(p)

    def test_missing_frame(self, tmp_path):
        p = tmp_path / "f.frm1"
        p.write_text("FRM1 1 2 2\na 0 1.0 2.0\n", encoding="utf-8")
        with pytest.raises(ParseError):
            load_frame_file(p)

    def test_duplicate_frame(self, tmp_path):
        p = tmp_path / "f.frm1"
        p.write_text("FRM1 1 2 2\na 0 1.0 2.0\na 0 3.0 4.0\n", encoding="utf-8")
        with pytest.raises(DuplicateIdError):
            load_frame_file(p)


# literals float() takes (some non-finite, so rejected by the loaders) and
# literals it refuses; the block cast must agree on every one
LITERALS = [
    "1_0", "\u0661\u0662", "+.5", "5.", "nan", "-Infinity", "1e500", "0x10", "1e", "--1",
    "5e-324", "-0.0",
]


def emb1_text(n, dim, edit=lambda rows: rows):
    """An EMB1 file of n rows; ``edit`` may change the row lines (line = index + 2)."""
    rows = [f"i{r} " + " ".join([str(r + 1.0)] + ["0.5"] * (dim - 1)) for r in range(n)]
    return f"EMB1 {n} {dim}\n" + "\n".join(edit(rows)) + "\n"


def replace_row(index, text):
    def edit(rows):
        rows = list(rows)
        rows[index] = text
        return rows

    return edit


class TestFloatBlocks:
    """EMB1/FRM1/CKPT2 floats are converted per block; values and errors match per-row parsing."""

    @pytest.mark.parametrize("literal", LITERALS)
    def test_literal_parity(self, tmp_path, literal):
        p = tmp_path / "one.emb1"
        p.write_text(f"EMB1 1 2\na {literal} 1.0\n", encoding="utf-8")
        try:
            expected = parse_floats([literal, "1.0"], 2, p)
        except ParseError as exc:
            with pytest.raises(ParseError) as excinfo:
                load_static_embeddings(p)
            assert (type(excinfo.value), str(excinfo.value)) == (type(exc), str(exc))
            assert excinfo.value.line == 2
            return
        got = load_static_embeddings(p).embeddings[0]
        assert got.tobytes() == expected.tobytes()
        assert got[0].hex() == float(literal).hex()

    @pytest.mark.parametrize("bad", ["oops", "nan"])
    @pytest.mark.parametrize("into_block", [0, 7])
    def test_emb1_error_line_in_second_block(self, tmp_path, bad, into_block):
        dim = 16
        rows_per_block = FLOAT_BLOCK_VALUES // dim
        index = rows_per_block + into_block
        p = tmp_path / "long.emb1"
        bad_row = f"i{index} 1.0 {bad} " + " ".join(["0.5"] * (dim - 2))
        p.write_text(emb1_text(2 * rows_per_block, dim, replace_row(index, bad_row)))
        expected = "non-finite" if bad == "nan" else "literal"
        with pytest.raises(ParseError, match=expected) as excinfo:
            load_static_embeddings(p)
        assert excinfo.value.line == index + 2

    @pytest.mark.parametrize("bad", ["oops", "nan"])
    @pytest.mark.parametrize("into_block", [0, 7])
    def test_frm1_error_line_in_second_block(self, tmp_path, bad, into_block):
        n, t, dim = 600, 2, 40
        frames = np.arange(n * t * dim, dtype=np.float64).reshape(n, t, dim) + 0.25
        p = tmp_path / "long.frm1"
        save_frame_file([f"v{i}" for i in range(n)], frames, p)
        lines = p.read_text(encoding="utf-8").splitlines()
        row = FLOAT_BLOCK_VALUES // dim + 1 + into_block  # the block closes after a row
        parts = lines[row].split()
        parts[5] = bad
        lines[row] = " ".join(parts)
        p.write_text("\n".join(lines) + "\n", encoding="utf-8")
        expected = "non-finite" if bad == "nan" else "literal"
        with pytest.raises(ParseError, match=expected) as excinfo:
            load_frame_file(p)
        assert excinfo.value.line == row + 1

    @pytest.mark.parametrize("bad", ["oops", "nan"])
    def test_float_error_before_later_duplicate_id(self, tmp_path, bad):
        p = tmp_path / "t.emb1"
        edit = lambda rows: [rows[0], "i1 1.0 " + bad, rows[2], "i1 2.0 0.5", *rows[4:]]
        p.write_text(emb1_text(8, 2, edit), encoding="utf-8")
        with pytest.raises(ParseError) as excinfo:
            load_static_embeddings(p)
        assert excinfo.value.line == 3

    @pytest.mark.parametrize("bad", ["oops", "nan"])
    def test_duplicate_id_before_later_float_error(self, tmp_path, bad):
        p = tmp_path / "t.emb1"
        edit = lambda rows: [rows[0], rows[1], "i1 1.0 0.5", "i3 1.0 " + bad, *rows[4:]]
        p.write_text(emb1_text(8, 2, edit), encoding="utf-8")
        with pytest.raises(DuplicateIdError, match="line 4:"):
            load_static_embeddings(p)

    def test_frm1_error_before_later_structural_error(self, tmp_path):
        p = tmp_path / "f.frm1"
        p.write_text("FRM1 2 2 2\na 0 1.0 nan\na 1 1.0 2.0\nb 0 1.0\n", encoding="utf-8")
        with pytest.raises(ParseError, match="non-finite") as excinfo:
            load_frame_file(p)
        assert excinfo.value.line == 2

    def test_frm1_interleaved_shuffled_rows_scatter_exactly(self, tmp_path):
        n, t, dim = 300, 4, 40  # 48000 values: more than one block
        rng = np.random.default_rng(35)
        frames = rng.standard_normal((n, t, dim)) * 10.0 ** rng.integers(-300, 300, (n, t, 1))
        fmt = row_format(dim, "%s %d ")
        order = rng.permutation(n * t)  # ids interleave, frame indices come in any order
        body = [fmt % (f"v{k // t}", k % t, *frames[k // t, k % t].tolist()) for k in order]
        p = tmp_path / "shuffled.frm1"
        p.write_text(f"FRM1 {n} {t} {dim}\n" + "".join(body), encoding="utf-8")
        got_ids, got = load_frame_file(p)
        first_seen = list(dict.fromkeys(int(k) // t for k in order))
        assert got_ids == [f"v{i}" for i in first_seen]
        assert got.tobytes() == frames[first_seen].tobytes()


# one malformed record line each: extra row, short row, duplicate id, bad literal, non-finite
MALFORMED_EMB1 = [
    "EMB1 1 2\na 1.0 2.0\nb 1.0 2.0\n",
    "EMB1 2 2\na 1.0 2.0\nb 3.0\n",
    "EMB1 2 2\na 1.0 2.0\na 3.0 4.0\n",
    "EMB1 2 2\na 1.0 2.0\nb 3.0 x\n",
    "EMB1 2 2\na 1.0 2.0\nb 3.0 inf\n",
]
# short row, bad frame index, frame out of range, extra id, duplicate frame,
# bad literal, non-finite
MALFORMED_FRM1 = [
    "FRM1 1 1 2\na 0 1.0\n",
    "FRM1 1 2 2\na 0 1.0 2.0\na +1 1.0 2.0\n",
    "FRM1 1 1 2\na 1 1.0 2.0\n",
    "FRM1 1 1 2\na 0 1.0 2.0\nb 0 1.0 2.0\n",
    "FRM1 1 2 2\na 0 1.0 2.0\na 0 3.0 4.0\n",
    "FRM1 1 1 2\na 0 1.0 x\n",
    "FRM1 1 1 2\na 0 nan 2.0\n",
]


@pytest.mark.parametrize(
    "name, loader, text",
    [("t.emb1", load_static_embeddings, text) for text in MALFORMED_EMB1]
    + [("f.frm1", load_frame_file, text) for text in MALFORMED_FRM1],
)
def test_record_errors_name_the_file(tmp_path, name, loader, text):
    p = tmp_path / name
    p.write_text(text, encoding="utf-8")
    with pytest.raises((ParseError, DimMismatchError, DuplicateIdError)) as excinfo:
        loader(p)
    last_line = len(text.splitlines())
    assert str(excinfo.value).startswith(f"line {last_line}: {p}: ")
