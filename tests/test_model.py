import re
import tracemalloc

import numpy as np
import pytest

from marginforge.data import digest
from marginforge.errors import (
    ChecksumError,
    DimMismatchError,
    NonFiniteError,
    ParseError,
    ShapeMismatchError,
)
from marginforge.model import (
    AdamState,
    Checkpoint,
    ModelDims,
    ParamVector,
    Tower,
    TwoTowerModel,
    backward,
    forward_batch,
    init_params,
    load_checkpoint,
    param_layout,
    read_checkpoint,
    replace_on_success,
    save_checkpoint,
    write_checkpoint,
)
from marginforge.trainer import new_adam_state
from helpers import finite_diff_grad, flatten_grads, flatten_params, set_flat_params


class TestInitParams:
    def test_same_seed_bit_identical(self):
        dims = ModelDims(4, 3, 5, 6)
        a = init_params(dims, 7)
        b = init_params(dims, 7)
        for (na, pa), (nb, pb) in zip(a.param_items(), b.param_items()):
            assert na == nb
            np.testing.assert_array_equal(pa, pb)

    def test_different_seeds_differ(self):
        dims = ModelDims(4, 3, 0, 6)
        a = init_params(dims, 1)
        b = init_params(dims, 2)
        assert not np.array_equal(a.video.w1, b.video.w1)

    def test_xavier_bound(self):
        dims = ModelDims(4, 4, 0, 4)
        bound = np.sqrt(6.0 / 8.0)
        assert bound == pytest.approx(0.8660254037844386, abs=1e-15)
        model = init_params(dims, 3)
        for _, p in model.param_items():
            assert np.max(np.abs(p)) <= bound

    def test_biases_zero(self):
        model = init_params(ModelDims(4, 3, 5, 6), 11)
        np.testing.assert_array_equal(model.video.b1, 0.0)
        np.testing.assert_array_equal(model.text.b2, 0.0)


class TestEncode:
    def test_identity_affine(self):
        dims = ModelDims(3, 3, 0, 3)
        model = init_params(dims, 0)
        model.video.w1[...] = np.eye(3)
        model.video.b1[...] = 0.0
        x = np.array([[1.5, -2.0, 0.25]])
        np.testing.assert_array_equal(forward_batch(model, x, np.ones((1, 3))).video_reprs, x)

    def test_linearity_with_zero_bias(self):
        model = init_params(ModelDims(4, 4, 0, 3), 5)
        x = np.array([[0.3, -1.0, 2.0, 0.7]])
        t = np.ones((1, 4))
        np.testing.assert_allclose(
            forward_batch(model, 2.0 * x, t).video_reprs,
            2.0 * forward_batch(model, x, t).video_reprs,
            atol=1e-12,
        )

    def test_matches_matrix_oracle(self):
        rng = np.random.default_rng(60)
        model = init_params(ModelDims(4, 4, 6, 3), 9)
        x = rng.standard_normal((2, 4))
        t = rng.standard_normal((2, 4))
        state = forward_batch(model, x, t)
        expected = np.tanh(x @ model.video.w1 + model.video.b1) @ model.video.w2 + model.video.b2
        np.testing.assert_allclose(state.video_reprs, expected, atol=1e-12)
        expected_t = np.tanh(t @ model.text.w1 + model.text.b1) @ model.text.w2 + model.text.b2
        np.testing.assert_allclose(state.text_reprs, expected_t, atol=1e-12)

    def test_dim_mismatch(self):
        model = init_params(ModelDims(4, 3, 0, 2), 0)
        with pytest.raises(DimMismatchError):
            forward_batch(model, np.zeros((2, 5)), np.zeros((2, 3)))

    def test_determinism(self):
        rng = np.random.default_rng(61)
        pooled = rng.standard_normal((3, 4))
        text = rng.standard_normal((3, 3))
        model = init_params(ModelDims(4, 3, 5, 2), 13)
        s1 = forward_batch(model, pooled, text)
        s2 = forward_batch(model, pooled, text)
        np.testing.assert_array_equal(s1.video_reprs, s2.video_reprs)
        np.testing.assert_array_equal(s1.text_reprs, s2.text_reprs)


class TestBackward:
    def test_zero_output_grad(self):
        model = init_params(ModelDims(3, 2, 4, 2), 1)
        state = forward_batch(model, np.ones((2, 3)), np.ones((2, 2)))
        grads = backward(model, state, np.zeros((2, 2)), np.zeros((2, 2)))
        for g in grads.values():
            np.testing.assert_array_equal(g, 0.0)

    def test_sum_loss_gives_outer_product(self):
        # single affine layer, loss = sum of outputs: dW = x^T @ ones
        model = init_params(ModelDims(3, 2, 0, 2), 2)
        x = np.array([[1.0, 2.0, 3.0]])
        t = np.array([[0.5, -0.5]])
        state = forward_batch(model, x, t)
        grads = backward(model, state, np.ones((1, 2)), np.zeros((1, 2)))
        np.testing.assert_allclose(grads["video.w1"], np.outer(x[0], np.ones(2)), atol=1e-15)
        np.testing.assert_allclose(grads["video.b1"], np.ones(2), atol=1e-15)

    @pytest.mark.parametrize("hidden", [0, 4])
    @pytest.mark.parametrize("dim", [2, 4, 8])
    def test_matches_finite_differences(self, hidden, dim):
        rng = np.random.default_rng(62)
        model = init_params(ModelDims(dim, dim, hidden, 3), int(rng.integers(1e6)))
        pooled = rng.standard_normal((3, dim))
        text = rng.standard_normal((3, dim))
        gout_v = rng.standard_normal((3, 3))
        gout_t = rng.standard_normal((3, 3))
        state = forward_batch(model, pooled, text)
        grads = backward(model, state, gout_v, gout_t)

        theta0 = flatten_params(model)

        def f(theta):
            set_flat_params(model, theta)
            st = forward_batch(model, pooled, text)
            return float(np.sum(gout_v * st.video_reprs) + np.sum(gout_t * st.text_reprs))

        fd = finite_diff_grad(f, theta0, h=1e-6)
        set_flat_params(model, theta0)
        analytic = flatten_grads(model, grads)
        assert np.linalg.norm(analytic - fd) / np.linalg.norm(fd) < 1e-6

    def test_shape_mismatch(self):
        model = init_params(ModelDims(3, 2, 0, 2), 1)
        state = forward_batch(model, np.ones((2, 3)), np.ones((2, 2)))
        with pytest.raises(ShapeMismatchError):
            backward(model, state, np.zeros((3, 2)), np.zeros((2, 2)))


EDGE = [-0.0, 5e-324, 1.7976931348623157e308, 1 / 3]


def read_parts(path):
    """A CKPT3 file's header tokens and its payload bytes."""
    line, _, payload = path.read_bytes().partition(b"\n")
    return line.decode("ascii").split(), payload


def write_parts(path, parts, payload, redigest=True):
    """Write a header and payload back; ``redigest`` stores the payload's own digest."""
    if redigest:
        parts = [*parts[:5], digest(payload), *parts[6:]]
    path.write_bytes(" ".join(parts).encode("ascii") + b"\n" + payload)


def with_value(payload, index, value):
    """``payload`` with float ``index`` set to ``value``."""
    values = np.frombuffer(payload, dtype="<f8").copy()
    values[index] = value
    return values.tobytes()


class TestCheckpoint:
    @pytest.mark.parametrize("hidden", [0, 5])
    def test_round_trip_exact(self, tmp_path, hidden):
        model = init_params(ModelDims(4, 3, hidden, 6), 17)
        for _, arr in model.param_items():
            arr.flat[: len(EDGE)] = EDGE
        path = tmp_path / "model.ckpt"
        save_checkpoint(model, path)
        loaded = load_checkpoint(path)
        assert loaded.dims == model.dims
        assert [n for n, _ in loaded.param_items()] == [n for n, _ in model.param_items()]
        for (_, pa), (_, pb) in zip(model.param_items(), loaded.param_items()):
            assert pb.shape == pa.shape
            assert pb.tobytes() == pa.tobytes()

    def test_payload_is_the_param_bytes(self, tmp_path):
        model = init_params(ModelDims(4, 3, 5, 6), 17)
        path = tmp_path / "model.ckpt"
        save_checkpoint(model, path)
        parts, payload = read_parts(path)
        expected = b"".join(arr.astype("<f8").tobytes() for _, arr in model.param_items())
        assert payload == expected
        assert parts == ["CKPT3", "4", "3", "5", "6", digest(expected)]

    def test_bad_header(self, tmp_path):
        p = tmp_path / "bad.ckpt"
        p.write_text("NOPE\n", encoding="utf-8")
        with pytest.raises(ParseError, match="expected a CKPT3 header") as excinfo:
            load_checkpoint(p)
        assert excinfo.value.line == 1

    def test_truncated(self, tmp_path):
        model = init_params(ModelDims(4, 3, 0, 6), 17)
        path = tmp_path / "model.ckpt"
        save_checkpoint(model, path)
        parts, payload = read_parts(path)
        write_parts(path, parts, payload[:-1], redigest=False)
        with pytest.raises(ChecksumError):
            load_checkpoint(path)
        write_parts(path, parts, payload[:-1])
        with pytest.raises(ParseError, match="payload holds 431 bytes, expected 432"):
            load_checkpoint(path)

    def test_short_payload_is_rejected_before_the_dims_allocate(self, tmp_path):
        # the header's dims name 36 MB of parameters; a 320-byte payload with
        # a valid digest must fail its length check without building them
        path = tmp_path / "model.ckpt"
        write_parts(path, ["CKPT3", "1500", "1500", "0", "1500", ""], bytes(320))
        tracemalloc.start()
        try:
            with pytest.raises(ParseError, match="payload holds 320 bytes, expected 36024000"):
                load_checkpoint(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20

    @pytest.mark.parametrize("position", [1, 2, 3, 4])
    @pytest.mark.parametrize("token", ["+2", "1_0", "-0", "1.5"])
    def test_bad_dims_count_rejected(self, tmp_path, position, token):
        path = tmp_path / "model.ckpt"
        save_checkpoint(init_params(ModelDims(2, 2, 2, 2), 17), path)
        parts, payload = read_parts(path)
        parts[position] = token
        write_parts(path, parts, payload)
        with pytest.raises(ParseError, match="bad count") as excinfo:
            load_checkpoint(path)
        assert excinfo.value.line == 1

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_non_finite_rejected(self, tmp_path, value):
        model = init_params(ModelDims(4, 3, 0, 6), 17)
        path = tmp_path / "model.ckpt"
        save_checkpoint(model, path)
        parts, payload = read_parts(path)
        write_parts(path, parts, with_value(payload, -1, float(value)))
        with pytest.raises(ParseError, match="text.b1 holds a non-finite value"):
            load_checkpoint(path)


def trainer_file(tmp_path, config_hash="abc"):
    """A CKPT3 trainer file. Its 162 payload floats are the 54 parameters
    (video.w1 24, video.b1 6, text.w1 18, text.b1 6), then m, then v."""
    model = init_params(ModelDims(4, 3, 0, 6), 17)
    flat = model.params.flat
    m = ParamVector(model.params.layout, flat / 3.0)
    v = ParamVector(model.params.layout, flat * flat)
    path = tmp_path / "trainer.ckpt"
    write_checkpoint(Checkpoint(model, AdamState(5, m, v), 4, 17, config_hash), path)
    return path


def flip_byte(payload, offset):
    flipped = bytearray(payload)
    flipped[offset] ^= 0x01
    return bytes(flipped)


# one bad trainer file per reader check: an edit of (header tokens, payload), and its error
ERROR_CASES = {
    "tag": (lambda parts, payload: (["CKPT2", *parts[1:]], payload), ParseError),
    "dims": (lambda parts, payload: ([*parts[:4], "+6", *parts[5:]], payload), ParseError),
    "adam": (lambda parts, payload: ([*parts[:7], "4", "17", "0x5", "abc"], payload), ParseError),
    "digest-params": (lambda parts, payload: (parts, flip_byte(payload, 8 * 9)), ChecksumError),
    "digest-moments": (
        lambda parts, payload: (parts, flip_byte(payload, 8 * 150)),
        ChecksumError,
    ),
    "short": (lambda parts, payload: (parts, payload[:-8]), ParseError),
    "extra-value": (
        lambda parts, payload: (parts, payload[:32] + bytes(8) + payload[32:]),
        ParseError,
    ),
    "trailing": (lambda parts, payload: (parts, payload + b"\0"), ParseError),
    "nan": (lambda parts, payload: (parts, with_value(payload, 100, np.nan)), ParseError),
}


class TestCkpt2AdamSection:
    """Trainer checkpoints: the header's ``adam`` fields and the m and v payload."""

    @pytest.mark.parametrize("config_hash", ["abc", ""])
    def test_round_trip_exact(self, tmp_path, config_hash):
        path = trainer_file(tmp_path, config_hash)
        parts, payload = read_parts(path)
        assert parts[:5] == ["CKPT3", "4", "3", "0", "6"]
        assert parts[5] == digest(payload)
        assert " ".join(parts[6:]) == f"adam 4 17 5 {config_hash}".rstrip()
        ckpt = read_checkpoint(path)
        assert (ckpt.epoch, ckpt.seed, ckpt.opt_state.t, ckpt.config_hash) == (
            4,
            17,
            5,
            config_hash,
        )
        for name, arr in ckpt.model.param_items():
            assert ckpt.opt_state.m[name].tobytes() == (arr / 3.0).tobytes()
            assert ckpt.opt_state.v[name].tobytes() == (arr * arr).tobytes()

    def test_model_rows_are_a_model_only_file(self, tmp_path):
        path = trainer_file(tmp_path)
        save_checkpoint(read_checkpoint(path).model, tmp_path / "model.ckpt")
        _, model_payload = read_parts(tmp_path / "model.ckpt")
        _, trainer_payload = read_parts(path)
        assert len(trainer_payload) == 3 * len(model_payload)
        assert trainer_payload.startswith(model_payload)
        assert read_checkpoint(tmp_path / "model.ckpt").opt_state is None

    def test_ckpt1_rejected_with_hint(self, tmp_path):
        path = tmp_path / "old.ckpt"
        path.write_text("CKPT1 4 3 0 6\n0.0 0.0 0.0 0.0 0.0 0.0\n", encoding="utf-8")
        with pytest.raises(ParseError, match="CKPT1 and CKPT2.*retrain") as excinfo:
            load_checkpoint(path)
        assert excinfo.value.line == 1

    def test_ckpt2_rejected_with_hint(self, tmp_path):
        path = tmp_path / "old.ckpt"
        path.write_text("CKPT2\ndims 4 3 0 6\n0.0 0.0 0.0 0.0 0.0 0.0\n", encoding="utf-8")
        with pytest.raises(ParseError, match="CKPT1 and CKPT2.*retrain") as excinfo:
            load_checkpoint(path)
        assert excinfo.value.line == 1

    @pytest.mark.parametrize("keep", [54, 60, 130], ids=["after-params", "inside-m", "inside-v"])
    def test_truncated_payload(self, tmp_path, keep):
        path = trainer_file(tmp_path)
        parts, payload = read_parts(path)
        write_parts(path, parts, payload[: 8 * keep])
        with pytest.raises(ParseError, match=f"holds {8 * keep} bytes, expected 1296"):
            load_checkpoint(path)

    @pytest.mark.parametrize("index, name", [(54, "m video.w1"), (147, "v text.w1")])
    def test_non_finite_moment_named(self, tmp_path, index, name):
        path = trainer_file(tmp_path)
        parts, payload = read_parts(path)
        write_parts(path, parts, with_value(payload, index, np.nan))
        with pytest.raises(ParseError, match=f"{name} holds a non-finite value"):
            load_checkpoint(path)

    def test_trailing_content(self, tmp_path):
        path = trainer_file(tmp_path)
        parts, payload = read_parts(path)
        write_parts(path, parts, payload + b"\0")
        with pytest.raises(ParseError, match="holds 1297 bytes, expected 1296"):
            load_checkpoint(path)

    def test_flipped_payload_byte(self, tmp_path):
        path = trainer_file(tmp_path)
        parts, payload = read_parts(path)
        write_parts(path, parts, flip_byte(payload, 700), redigest=False)
        with pytest.raises(ChecksumError, match="digest"):
            load_checkpoint(path)

    @pytest.mark.parametrize(
        "adam_line", ["adam 4 17", "adam 4 17 5 h x", "adma 4 17 5", "adam 4 -1 5"]
    )
    def test_bad_adam_line(self, tmp_path, adam_line):
        path = trainer_file(tmp_path)
        parts, payload = read_parts(path)
        write_parts(path, [*parts[:6], *adam_line.split()], payload)
        with pytest.raises(ParseError) as excinfo:
            load_checkpoint(path)
        assert excinfo.value.line == 1

    def test_config_hash_with_whitespace_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="whitespace"):
            trainer_file(tmp_path, "a b")
        assert list(tmp_path.iterdir()) == []

    def test_config_hash_non_ascii_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="ASCII"):
            trainer_file(tmp_path, "h\u00e9")
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("case", list(ERROR_CASES))
    def test_errors_name_the_file(self, tmp_path, case):
        edit, error = ERROR_CASES[case]
        path = trainer_file(tmp_path)
        write_parts(path, *edit(*read_parts(path)), redigest=error is not ChecksumError)
        with pytest.raises(error) as excinfo:
            read_checkpoint(path)
        assert str(path) in str(excinfo.value)

    def test_failed_replace_leaves_old_file_and_no_temp(self, tmp_path, monkeypatch):
        path = tmp_path / "file.txt"
        path.write_text("old", encoding="utf-8")

        def failing_replace(src, dst):
            raise OSError("rename failed")

        monkeypatch.setattr("marginforge.model.os.replace", failing_replace)
        with pytest.raises(OSError, match="rename failed"):
            with replace_on_success(path) as tmp:
                tmp.write_text("new", encoding="utf-8")
        assert [p.name for p in tmp_path.iterdir()] == ["file.txt"]
        assert path.read_text(encoding="utf-8") == "old"


class TestWriterRefusals:
    """``write_checkpoint`` refuses what ``read_checkpoint`` would reject
    before it opens the temp file, so a file already at the path stays as it
    was, byte for byte."""

    def refused(self, tmp_path, ckpt, error, message):
        path = tmp_path / "model.ckpt"
        save_checkpoint(init_params(ModelDims(4, 3, 0, 6), 3), path)
        before = path.read_bytes()
        with pytest.raises(error, match=message.format(path=re.escape(str(path)))):
            write_checkpoint(ckpt, path)
        assert path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["model.ckpt"]

    @pytest.mark.parametrize("value", [np.nan, np.inf])
    @pytest.mark.parametrize("name", ["text.b1", "m text.b1", "v video.w1"])
    def test_non_finite_value_named_as_the_reader_names_it(self, tmp_path, name, value):
        model = init_params(ModelDims(4, 3, 0, 6), 17)
        adam = new_adam_state(model)
        *vector, array = name.split()
        {"": model.params, "m": adam.m, "v": adam.v}["".join(vector)][array].flat[-1] = value
        ckpt = Checkpoint(model) if not vector else Checkpoint(model, adam, 1, 2, "h")
        self.refused(tmp_path, ckpt, NonFiniteError, f"^{{path}}: {name} holds a non-finite value$")

    @pytest.mark.parametrize(
        "epoch, seed, t",
        [(-1, 0, 1), (0, -3, 1), (1.5, 0, 1), (0, 0, -2), (True, 0, 1)],
        ids=["epoch-negative", "seed-negative", "epoch-fraction", "t-negative", "epoch-bool"],
    )
    def test_header_field_the_reader_rejects(self, tmp_path, epoch, seed, t):
        model = init_params(ModelDims(4, 3, 0, 6), 17)
        adam = new_adam_state(model)
        adam.t = t
        ckpt = Checkpoint(model, adam, epoch, seed, "h")
        self.refused(tmp_path, ckpt, ValueError, "must be non-negative integers")


class TestFlatten:
    def test_round_trip(self):
        model = init_params(ModelDims(3, 4, 2, 5), 23)
        theta = flatten_params(model)
        other = init_params(ModelDims(3, 4, 2, 5), 99)
        set_flat_params(other, theta)
        np.testing.assert_array_equal(flatten_params(other), theta)

    def test_wrong_size_rejected(self):
        model = init_params(ModelDims(3, 4, 0, 5), 23)
        with pytest.raises(ShapeMismatchError):
            set_flat_params(model, np.zeros(flatten_params(model).size + 1))


def assert_views_in_order(vec: ParamVector, layout, flat: np.ndarray) -> None:
    """Each named array of ``vec`` is the next slice of ``flat``, in ``layout``'s order."""
    assert vec.flat is flat
    offset = 0
    for (name, arr), (want_name, shape) in zip(vec.items(), layout, strict=True):
        assert name == want_name and arr.shape == shape and arr.flags.c_contiguous
        assert arr.ctypes.data == flat.ctypes.data + 8 * offset
        offset += arr.size
    assert offset == flat.size


@pytest.mark.parametrize("hidden", [0, 5])
class TestFlatLayout:
    """Parameters, gradients and Adam moments are one vector each; the named
    arrays are views of it in payload order."""

    def test_param_items_are_views_of_the_parameter_vector(self, hidden):
        dims = ModelDims(4, 3, hidden, 6)
        model = init_params(dims, 2)
        flat = model.params.flat
        assert [name for name, _ in model.param_items()] == [n for n, _ in param_layout(dims)]
        assert_views_in_order(model.params, param_layout(dims), flat)
        for tower, prefix in ((model.video, "video"), (model.text, "text")):
            for name in ("w1", "b1", "w2", "b2"):
                arr = getattr(tower, name)
                assert (arr is None) == (hidden == 0 and name in ("w2", "b2"))
                if arr is not None:
                    assert arr is model.params[f"{prefix}.{name}"]
        flat[:] = np.arange(flat.size)
        np.testing.assert_array_equal(flatten_params(model), np.arange(flat.size))

    def test_gradients_are_one_vector_in_the_model_layout(self, hidden):
        model = init_params(ModelDims(4, 3, hidden, 6), 3)
        rng = np.random.default_rng(40 + hidden)
        state = forward_batch(model, rng.standard_normal((5, 4)), rng.standard_normal((5, 3)))
        grads = backward(model, state, rng.standard_normal((5, 6)), rng.standard_normal((5, 6)))
        assert grads.layout is model.params.layout
        assert_views_in_order(grads, model.params.layout, grads.flat)
        assert not np.shares_memory(grads.flat, model.params.flat)

    def test_adam_moments_are_views_of_their_vectors(self, hidden):
        model = init_params(ModelDims(4, 3, hidden, 6), 4)
        opt = new_adam_state(model)
        for vec in (opt.m, opt.v):
            assert_views_in_order(vec, model.params.layout, vec.flat)
            np.testing.assert_array_equal(vec.flat, 0.0)
        assert not np.shares_memory(opt.m.flat, opt.v.flat)

    def test_a_read_checkpoint_is_views_of_its_payload(self, tmp_path, hidden):
        model = init_params(ModelDims(4, 3, hidden, 6), 5)
        flat = model.params.flat
        opt = AdamState(
            7,
            ParamVector(model.params.layout, flat / 3.0),
            ParamVector(model.params.layout, flat * flat),
        )
        path = tmp_path / "trainer.ckpt"
        write_checkpoint(Checkpoint(model, opt, 2, 3), path)
        _, payload = read_parts(path)
        ckpt = read_checkpoint(path)
        vectors = (ckpt.model.params, ckpt.opt_state.m, ckpt.opt_state.v)
        n = flat.size
        for i, vec in enumerate(vectors):
            assert_views_in_order(vec, model.params.layout, vec.flat)
            assert vec.flat.tobytes() == payload[8 * n * i : 8 * n * (i + 1)]
        # one payload buffer, the three vectors one after another
        starts = [vec.flat.ctypes.data for vec in vectors]
        assert starts[1] - starts[0] == starts[2] - starts[1] == 8 * n
        assert ckpt.model.video.w1 is ckpt.model.params["video.w1"]

    def test_a_vector_of_the_wrong_size_or_layout_is_refused(self, tmp_path, hidden):
        dims = ModelDims(4, 3, hidden, 6)
        layout = param_layout(dims)
        size = sum(int(np.prod(shape)) for _, shape in layout)
        for flat in (np.zeros(size + 1), np.zeros(size, dtype=np.float32), np.zeros(2 * size)[::2]):
            with pytest.raises(ShapeMismatchError):
                ParamVector(layout, flat)
        other = param_layout(ModelDims(4, 3, hidden, 7))
        with pytest.raises(ShapeMismatchError):
            TwoTowerModel(dims, ParamVector.zeros(other))
        model = TwoTowerModel(dims, ParamVector.zeros(layout))
        opt = AdamState(1, ParamVector.zeros(layout), ParamVector.zeros(other))
        with pytest.raises(ShapeMismatchError):
            write_checkpoint(Checkpoint(model, opt), tmp_path / "mixed.ckpt")
        assert list(tmp_path.iterdir()) == []
