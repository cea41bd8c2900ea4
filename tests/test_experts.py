import hashlib
import re
import tracemalloc

import numpy as np
import pytest

from marginforge import kernels
from marginforge.errors import (
    DimMismatchError,
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
from helpers import read_parts

ONE_MINUS_INV_SQRT2 = 1.0 - 1.0 / np.sqrt(2.0)  # 0.29289321881345254

# signed zero, the smallest subnormal, the largest double, a repeating binary
# fraction and a short exact value
EDGE_ROW = [-0.0, 5e-324, 1.7976931348623157e308, 1 / 3, -1.5]
BAD_COUNTS = ["+2", "1_0", "-0", "1.5", "0x2", "2e0", "two", "--1", "0b1"]


def cosine_distances(reprs, what):
    """1 - cosine over all pairs of a row stack, as the margin stage forms it."""
    U = unit_rows(reprs, what)[0]
    return 1.0 - kernels.pairwise_cosine(U, U)


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


def write_header(path, parts):
    """Replace a row file's header tokens, keeping its payload."""
    _, payload = read_parts(path)
    path.write_bytes(" ".join(parts).encode("ascii") + b"\n" + payload)


class TestEmb3Format:
    def test_header_and_payload(self, tmp_path):
        rows = np.arange(1.0, 7.0).reshape(2, 3)
        save_static_embeddings(rows, tmp_path / "t.emb1")
        parts, payload = read_parts(tmp_path / "t.emb1")
        assert parts == ["EMB3", "2", "3", hashlib.sha256(payload).hexdigest()]
        assert payload == rows.astype("<f8").tobytes()

    def test_round_trip_bit_exact(self, tmp_path):
        rng = np.random.default_rng(33)
        rows = rng.standard_normal((3, 5)) * 10.0 ** rng.integers(-8, 8)
        save_static_embeddings(rows, tmp_path / "t.emb1")
        assert load_static_embeddings(tmp_path / "t.emb1").tobytes() == rows.tobytes()

    # the rule of ``unit_rows``: 1e200's square overflows to an infinite norm,
    # which is rejected with no RuntimeWarning
    @pytest.mark.parametrize("row", [[1e-13, 0.0], [1e200, 1.0], [-1e200, 1e200], [0.0, -0.0]])
    def test_norm_outside_the_unit_rows_rule(self, tmp_path, row):
        save_static_embeddings(np.array([[1.0, 0.0], row, [1e-13, 0.0]]), tmp_path / "t.emb1")
        with pytest.raises(ZeroNormError, match="embedding row 1 has non-finite or near-zero"):
            load_static_embeddings(tmp_path / "t.emb1")


class TestFrm4Format:
    @pytest.mark.parametrize("n", [2, 0])
    def test_round_trip_bit_exact(self, tmp_path, n):
        frames = np.random.default_rng(34).standard_normal((n, 3, 4))
        save_frame_file(frames, tmp_path / "f.frm1")
        got = load_frame_file(tmp_path / "f.frm1")
        assert got.shape == frames.shape and got.tobytes() == frames.tobytes()

    # C and Fortran memory order: the payload follows the frames' index order
    @pytest.mark.parametrize("order", ["C", "F"])
    def test_items_in_frame_major_order(self, tmp_path, order):
        frames = np.asarray(np.random.default_rng(36).standard_normal((3, 2, 4)), order=order)
        save_frame_file(frames, tmp_path / "f.frm1")
        parts, payload = read_parts(tmp_path / "f.frm1")
        assert parts[:4] == ["FRM4", "3", "2", "4"]
        assert payload == np.ascontiguousarray(frames).tobytes()

    def test_edge_row_round_trips_bit_for_bit(self, tmp_path):
        # through FRM4: an EMB3 row holding the largest double fails the norm
        # rule. The sign of -0.0 shows only in the bits, not under ==.
        edge = np.array([[EDGE_ROW, EDGE_ROW[::-1]]])
        save_frame_file(edge, tmp_path / "f.frm1")
        got = load_frame_file(tmp_path / "f.frm1")
        assert got.view(np.uint64).tolist() == edge.view(np.uint64).tolist()
        assert got.view(np.uint64)[0, 0, 0] == np.array(-0.0).view(np.uint64)

    def test_non_finite_value_names_its_row(self, tmp_path):
        frames = np.ones((3, 2, 2))
        save_frame_file(frames, tmp_path / "f.frm1")
        parts, payload = read_parts(tmp_path / "f.frm1")
        frames[2, 1, 0] = np.inf
        payload = frames.tobytes()
        parts[-1] = hashlib.sha256(payload).hexdigest()
        (tmp_path / "f.frm1").write_bytes(" ".join(parts).encode("ascii") + b"\n" + payload)
        with pytest.raises(ParseError, match="f.frm1: row 2 holds a non-finite value"):
            load_frame_file(tmp_path / "f.frm1")


# the row writers of both tags, each with the shape of its rows
SAVERS = {
    "EMB3": (save_static_embeddings, load_static_embeddings),
    "FRM4": (save_frame_file, load_frame_file),
}


@pytest.mark.parametrize(
    "tag, shape",
    [
        ("EMB3", (1, 1)),
        ("EMB3", (1, 9)),
        ("EMB3", (6, 2)),
        ("EMB3", (0, 3)),
        ("FRM4", (1, 1, 1)),
        ("FRM4", (1, 5, 1)),
        ("FRM4", (4, 1, 3)),
        ("FRM4", (0, 2, 2)),
        ("FRM4", (7, 3, 2)),
    ],
)
def test_rows_of_any_shape_round_trip(tmp_path, tag, shape):
    save, load = SAVERS[tag]
    rows = np.random.default_rng(sum(shape)).uniform(0.5, 2.0, size=shape)
    save(rows, tmp_path / "rows")
    parts, payload = read_parts(tmp_path / "rows")
    assert parts[:-1] == [tag, *map(str, shape)] and len(payload) == rows.nbytes
    got = load(tmp_path / "rows")
    assert got.shape == shape and got.tobytes() == rows.tobytes()


# any real dtype is written as its float64 values, little-endian whatever
# the input's byte order
@pytest.mark.parametrize("tag", list(SAVERS))
@pytest.mark.parametrize("dtype", [">f8", "<f4", ">f4", "<i8", ">i4"])
def test_rows_are_written_as_little_endian_float64(tmp_path, tag, dtype):
    save, load = SAVERS[tag]
    shape = (3, 4) if tag == "EMB3" else (3, 2, 2)
    rows = (np.arange(1, 13).reshape(shape) * (-1) ** np.arange(12).reshape(shape)).astype(dtype)
    save(rows, tmp_path / "rows")
    expected = rows.astype("<f8")
    assert read_parts(tmp_path / "rows")[1] == expected.tobytes()
    assert load(tmp_path / "rows").tobytes() == expected.tobytes()


# views that are not C-contiguous are written in their index order
VIEWS = {
    "every-other-row": lambda rows: rows[::2],
    "transposed": lambda rows: rows.swapaxes(-1, -2),
    "reversed": lambda rows: rows[::-1, ..., ::-1],
}


@pytest.mark.parametrize("tag", list(SAVERS))
@pytest.mark.parametrize("view", list(VIEWS))
def test_strided_views_are_written_in_index_order(tmp_path, tag, view):
    save, load = SAVERS[tag]
    shape = (6, 4) if tag == "EMB3" else (6, 3, 4)
    rows = VIEWS[view](np.random.default_rng(37).standard_normal(shape))
    assert not rows.flags.c_contiguous
    save(rows, tmp_path / "rows")
    assert read_parts(tmp_path / "rows")[1] == np.ascontiguousarray(rows).tobytes()
    assert load(tmp_path / "rows").tobytes() == np.ascontiguousarray(rows).tobytes()


def write_values(path, values):
    """Replace a row file's payload by ``values``, under their own digest."""
    parts, _ = read_parts(path)
    payload = np.ascontiguousarray(values, dtype="<f8").tobytes()
    parts[-1] = hashlib.sha256(payload).hexdigest()
    path.write_bytes(" ".join(parts).encode("ascii") + b"\n" + payload)


# (flat index of the first non-finite value, row it falls in) for 4 rows of 6 values
NON_FINITE_AT = {"first-value": (0, 0), "end-of-row": (5, 0), "last-value": (23, 3)}


@pytest.mark.parametrize("tag", list(SAVERS))
@pytest.mark.parametrize("where", list(NON_FINITE_AT))
def test_loader_names_the_first_row_holding_a_non_finite_value(tmp_path, tag, where):
    save, load = SAVERS[tag]
    rows = np.ones((4, 6) if tag == "EMB3" else (4, 2, 3))
    save(rows, tmp_path / "rows")
    index, row = NON_FINITE_AT[where]
    values = rows.ravel()
    values[index] = np.nan
    values[index + 1 :: 7] = np.inf  # later rows too: the first one is named
    write_values(tmp_path / "rows", values)
    message = f"{tmp_path / 'rows'}: row {row} holds a non-finite value"
    with pytest.raises(ParseError, match="^" + re.escape(message) + "$"):
        load(tmp_path / "rows")


@pytest.fixture(params=["EMB3", "FRM4"])
def row_file(request, tmp_path):
    """A valid row file of each tag, and its loader."""
    if request.param == "EMB3":
        save_static_embeddings(np.eye(2), tmp_path / "t.emb1")
        return tmp_path / "t.emb1", load_static_embeddings
    save_frame_file(np.ones((2, 2, 2)), tmp_path / "f.frm1")
    return tmp_path / "f.frm1", load_frame_file


class TestRowHeaders:
    """Header errors are ``ParseError`` at line 1, before any digest check."""

    @pytest.mark.parametrize("token", BAD_COUNTS)
    def test_bad_count_rejected(self, row_file, token):
        path, load = row_file
        parts, _ = read_parts(path)
        for position in range(1, len(parts) - 1):
            write_header(path, [*parts[:position], token, *parts[position + 1 :]])
            with pytest.raises(ParseError, match="bad count") as excinfo:
                load(path)
            assert excinfo.value.line == 1

    def test_zero_count_after_n_rejected(self, row_file):
        path, load = row_file
        parts, _ = read_parts(path)
        for position in range(2, len(parts) - 1):
            write_header(path, [*parts[:position], "0", *parts[position + 1 :]])
            message = f"line 1: {path}: {parts[0]} header needs every count after N >= 1"
            with pytest.raises(ParseError, match="^" + re.escape(message) + "$"):
                load(path)

    @pytest.mark.parametrize("edit", [lambda parts: parts[:-1], lambda parts: [*parts, "x"]])
    def test_wrong_field_count_rejected(self, row_file, edit):
        path, load = row_file
        write_header(path, edit(read_parts(path)[0]))
        expected = r"expected '(FRM4|EMB3) <N> .*<sha256>' header"
        with pytest.raises(ParseError, match=expected) as excinfo:
            load(path)
        assert excinfo.value.line == 1


class TestWriterRefusals:
    """Rows the loaders would reject are refused before the file is opened,
    so a file already at the path is left as it was."""

    def write(self, tmp_path, save, rows):
        p = tmp_path / "old.txt"
        p.write_text("old\n", encoding="utf-8")
        try:
            save(rows, p)
        finally:
            assert p.read_text(encoding="utf-8") == "old\n"

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_value_names_its_row(self, tmp_path, value):
        rows = np.ones((3, 2))
        rows[1, 1] = value
        with pytest.raises(NonFiniteError, match="row 1 holds a non-finite value"):
            self.write(tmp_path, save_static_embeddings, rows)
        frames = np.ones((3, 2, 2))
        frames[2, 1, 0] = value
        with pytest.raises(NonFiniteError, match="row 2 holds a non-finite value"):
            self.write(tmp_path, save_frame_file, frames)

    @pytest.mark.parametrize("tag", list(SAVERS))
    def test_first_of_several_non_finite_rows_is_named(self, tmp_path, tag):
        rows = np.ones((5, 3) if tag == "EMB3" else (5, 3, 1))
        rows.reshape(5, 3)[[1, 3, 4], -1] = [np.inf, np.nan, -np.inf]
        with pytest.raises(NonFiniteError, match="row 1 holds a non-finite value"):
            self.write(tmp_path, SAVERS[tag][0], rows)

    @pytest.mark.parametrize("shape", [(1, 0, 2), (1, 2, 0)])
    def test_rows_of_no_value(self, tmp_path, shape):
        with pytest.raises(ShapeMismatchError, match="rows need at least one value"):
            self.write(tmp_path, save_frame_file, np.ones(shape))

    @pytest.mark.parametrize(
        "tag, shape, dims",
        [
            ("EMB3", (3,), "2 dimensions (N, D)"),
            ("EMB3", (2, 3, 4), "2 dimensions (N, D)"),
            ("FRM4", (2, 3), "3 dimensions (N, T, D)"),
            ("FRM4", (2, 3, 4, 1), "3 dimensions (N, T, D)"),
        ],
    )
    def test_rows_of_another_rank_name_the_path_and_rank(self, tmp_path, tag, shape, dims):
        p = tmp_path / "rows.bin"
        message = f"{p}: {tag} rows need {dims}, got shape {shape}"
        with pytest.raises(ShapeMismatchError, match="^" + re.escape(message) + "$"):
            SAVERS[tag][0](np.ones(shape), p)
        assert not p.exists()


def test_frame_writer_memory_stays_bounded(tmp_path):
    # the ingest-eval frames, 3 MiB: the payload is hashed and written from
    # the array itself, with no copy of it
    frames = np.random.default_rng(43).standard_normal((4096, 4, 24))
    tracemalloc.start()
    try:
        save_frame_file(frames, tmp_path / "f.frm1")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 << 20


def test_frame_loader_memory_stays_bounded(tmp_path):
    # the ingest-eval frames: the payload is read straight into the output
    # array and hashed there, so beyond the 3 MiB output nothing grows
    frames = np.random.default_rng(44).standard_normal((4096, 4, 24))
    save_frame_file(frames, tmp_path / "f.frm1")
    tracemalloc.start()
    try:
        got = load_frame_file(tmp_path / "f.frm1")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert got.tobytes() == frames.tobytes()
    assert peak - frames.nbytes < 4 << 20
