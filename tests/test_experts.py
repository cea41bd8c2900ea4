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
    StaticEmbeddingTable,
    dse_text_distances,
    dse_video_distances,
    load_frame_file,
    load_static_embeddings,
    save_frame_file,
    save_static_embeddings,
    sse_text_distances,
    sse_video_distances,
)

ONE_MINUS_INV_SQRT2 = 1.0 - 1.0 / np.sqrt(2.0)  # 0.29289321881345254


class TestDseDistances:
    def test_identical_reprs_all_zero(self):
        reprs = np.tile([1.0, 2.0, 3.0], (4, 1))
        d = dse_text_distances(reprs)
        np.testing.assert_allclose(d.values, 0.0, atol=1e-12)
        assert d.expert_kind == "dse_text"

    def test_orthogonal_pair(self):
        d = dse_text_distances([[1.0, 0.0], [0.0, 1.0]])
        assert d.values[0, 1] == pytest.approx(1.0, abs=1e-12)

    def test_hand_value(self):
        d = dse_text_distances([[1.0, 0.0], [1.0, 1.0]])
        assert d.values[0, 1] == pytest.approx(ONE_MINUS_INV_SQRT2, abs=1e-12)
        assert d.values[0, 1] == pytest.approx(0.2928932, abs=1e-7)

    def test_video_mirror(self):
        reprs = [[1.0, 0.0], [1.0, 1.0]]
        dv = dse_video_distances(reprs)
        dt = dse_text_distances(reprs)
        np.testing.assert_array_equal(dv.values, dt.values)
        assert dv.expert_kind == "dse_video"

    def test_zero_norm_rejected(self):
        for bad_row in ([0.0, 0.0], [np.nan, 1.0], [np.inf, 1.0]):
            with pytest.raises(ZeroNormError):
                dse_video_distances([[1.0, 0.0], bad_row])


class TestSseVideoDistances:
    def test_identical_frames_zero(self):
        frames = [np.tile([1.0, 2.0], (3, 1))] * 3
        d = sse_video_distances(frames)
        np.testing.assert_allclose(d.values, 0.0, atol=1e-12)

    def test_orthogonal_pooled(self):
        a = np.array([[1.0, 0.0], [1.0, 0.0]])
        b = np.array([[0.0, 1.0], [0.0, 1.0]])
        d = sse_video_distances([a, b])
        assert d.values[0, 1] == pytest.approx(1.0, abs=1e-12)

    def test_pooled_hand_value(self):
        a = np.array([[2.0, 0.0], [0.0, 2.0]])  # pools to [1, 1]
        b = np.array([[1.0, 0.0]])
        d = sse_video_distances([a, b])
        assert d.values[0, 1] == pytest.approx(ONE_MINUS_INV_SQRT2, abs=1e-12)

    def test_single_frame_items_match_pairwise(self):
        rng = np.random.default_rng(30)
        vecs = rng.standard_normal((5, 4))
        d_pool = sse_video_distances([v[None, :] for v in vecs])
        d_pair = dse_video_distances(vecs)
        np.testing.assert_allclose(d_pool.values, d_pair.values, atol=1e-12)


class TestSseTextDistances:
    def table(self, vecs, ids=None):
        ids = ids or [f"id{i}" for i in range(len(vecs))]
        return StaticEmbeddingTable(ids, np.asarray(vecs, dtype=float), "test")

    def test_equal_vectors_zero(self):
        t = self.table([[1.0, 2.0], [1.0, 2.0]])
        d = sse_text_distances(t, ["id0", "id1"])
        assert d.values[0, 1] == pytest.approx(0.0, abs=1e-12)

    def test_missing_id(self):
        t = self.table([[1.0, 0.0], [0.0, 1.0]])
        with pytest.raises(UnknownIdError, match="nope"):
            sse_text_distances(t, ["id0", "nope"])

    def test_hand_value(self):
        t = self.table([[1.0, 0.0], [1.0, 1.0]])
        d = sse_text_distances(t, ["id0", "id1"])
        assert d.values[0, 1] == pytest.approx(ONE_MINUS_INV_SQRT2, abs=1e-12)

    def test_respects_batch_order(self):
        t = self.table([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
        d = sse_text_distances(t, ["id2", "id0"])
        assert d.values[0, 1] == pytest.approx(ONE_MINUS_INV_SQRT2, abs=1e-12)


class TestDistanceProperties:
    def test_symmetric_zero_diag_bounded(self):
        rng = np.random.default_rng(31)
        for _ in range(20):
            x = rng.standard_normal((int(rng.integers(2, 9)), 5))
            d = dse_video_distances(x).values
            np.testing.assert_array_equal(d, d.T)
            np.testing.assert_array_equal(np.diag(d), 0.0)
            assert d.min() >= -1e-12 and d.max() <= 2.0 + 1e-12

    def test_scale_invariance(self):
        rng = np.random.default_rng(32)
        x = rng.standard_normal((6, 4))
        scales = rng.uniform(0.1, 10.0, size=(6, 1))
        d1 = dse_text_distances(x).values
        d2 = dse_text_distances(x * scales).values
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
