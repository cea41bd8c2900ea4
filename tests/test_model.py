import numpy as np
import pytest

from marginforge.errors import DimMismatchError, ParseError, ShapeMismatchError
from marginforge.model import (
    AdamState,
    Checkpoint,
    ModelDims,
    Tower,
    TwoTowerModel,
    backward,
    forward_batch,
    init_params,
    load_checkpoint,
    read_checkpoint,
    replace_on_success,
    save_checkpoint,
    write_checkpoint,
)
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


class TestCheckpoint:
    @pytest.mark.parametrize("hidden", [0, 5])
    def test_round_trip_exact(self, tmp_path, hidden):
        model = init_params(ModelDims(4, 3, hidden, 6), 17)
        path = tmp_path / "model.ckpt"
        save_checkpoint(model, path)
        loaded = load_checkpoint(path)
        assert loaded.dims == model.dims
        for (na, pa), (nb, pb) in zip(model.param_items(), loaded.param_items()):
            assert na == nb
            np.testing.assert_array_equal(pa, pb)

    def test_bad_header(self, tmp_path):
        p = tmp_path / "bad.ckpt"
        p.write_text("NOPE\n", encoding="utf-8")
        with pytest.raises(ParseError):
            load_checkpoint(p)

    def test_truncated(self, tmp_path):
        model = init_params(ModelDims(4, 3, 0, 6), 17)
        path = tmp_path / "model.ckpt"
        save_checkpoint(model, path)
        lines = path.read_text().splitlines()
        path.write_text("\n".join(lines[:-1]) + "\n", encoding="utf-8")
        with pytest.raises(ParseError):
            load_checkpoint(path)

    @pytest.mark.parametrize("position", [1, 2, 3, 4])
    @pytest.mark.parametrize("token", ["+2", "1_0", "-0", "1.5"])
    def test_bad_dims_count_rejected(self, tmp_path, position, token):
        path = tmp_path / "model.ckpt"
        save_checkpoint(init_params(ModelDims(2, 2, 2, 2), 17), path)
        lines = path.read_text().splitlines()
        parts = lines[1].split()
        parts[position] = token
        lines[1] = " ".join(parts)
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        with pytest.raises(ParseError) as excinfo:
            load_checkpoint(path)
        assert excinfo.value.line == 2

    def test_rows_match_per_value_text(self, tmp_path):
        edge = [-0.0, 5e-324, 1.7976931348623157e308, 1 / 3, -1.5]
        model = init_params(ModelDims(2, 1, 0, len(edge)), 17)
        model.video.w1[...] = [edge, edge[::-1]]
        model.video.b1[...] = edge
        path = tmp_path / "edge.ckpt"
        save_checkpoint(model, path)
        expected = [" ".join(f"{x:.17e}" for x in row) for row in (edge, edge[::-1], edge)]
        assert path.read_text(encoding="utf-8").splitlines()[2:5] == expected

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_non_finite_rejected(self, tmp_path, value):
        model = init_params(ModelDims(4, 3, 0, 6), 17)
        path = tmp_path / "model.ckpt"
        save_checkpoint(model, path)
        lines = path.read_text().splitlines()
        lines[3] = " ".join([value] + lines[3].split()[1:])
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        with pytest.raises(ParseError, match="line 4"):
            load_checkpoint(path)


def trainer_file(tmp_path, config_hash="abc"):
    """A CKPT2 file with an adam section: lines 3-11 hold the 9 parameter rows,
    line 12 the adam line, 13-21 the m rows and 22-30 the v rows."""
    model = init_params(ModelDims(4, 3, 0, 6), 17)
    m = {name: arr / 3.0 for name, arr in model.param_items()}
    v = {name: arr * arr for name, arr in model.param_items()}
    path = tmp_path / "trainer.ckpt"
    write_checkpoint(Checkpoint(model, AdamState(5, m, v), 4, 17, config_hash), path)
    return path


def rewrite(path, edit):
    lines = path.read_text(encoding="utf-8").splitlines()
    path.write_text("\n".join(edit(lines)) + "\n", encoding="utf-8")


class TestCkpt2AdamSection:
    @pytest.mark.parametrize("config_hash", ["abc", ""])
    def test_round_trip_exact(self, tmp_path, config_hash):
        path = trainer_file(tmp_path, config_hash)
        adam_line = path.read_text(encoding="utf-8").splitlines()[11]
        assert adam_line == f"adam 4 17 5 {config_hash}".rstrip()
        ckpt = read_checkpoint(path)
        assert (ckpt.epoch, ckpt.seed, ckpt.opt_state.t, ckpt.config_hash) == (
            4,
            17,
            5,
            config_hash,
        )
        for name, arr in ckpt.model.param_items():
            np.testing.assert_array_equal(ckpt.opt_state.m[name], arr / 3.0)
            np.testing.assert_array_equal(ckpt.opt_state.v[name], arr * arr)

    def test_model_rows_are_a_model_only_file(self, tmp_path):
        path = trainer_file(tmp_path)
        save_checkpoint(read_checkpoint(path).model, tmp_path / "model.ckpt")
        model_only = (tmp_path / "model.ckpt").read_text(encoding="utf-8")
        assert path.read_text(encoding="utf-8").startswith(model_only)
        assert read_checkpoint(tmp_path / "model.ckpt").opt_state is None

    def test_ckpt1_rejected_with_hint(self, tmp_path):
        path = trainer_file(tmp_path)
        rewrite(path, lambda lines: ["CKPT1", *lines[1:]])
        with pytest.raises(ParseError, match="CKPT2.*retrain") as excinfo:
            load_checkpoint(path)
        assert excinfo.value.line == 1

    @pytest.mark.parametrize("keep", [12, 17, 29])
    def test_truncated_moments(self, tmp_path, keep):
        # the file ends right after the adam line, inside m, and inside v
        path = trainer_file(tmp_path)
        rewrite(path, lambda lines: lines[:keep])
        with pytest.raises(ParseError, match="file ends") as excinfo:
            load_checkpoint(path)
        assert excinfo.value.line == keep

    @pytest.mark.parametrize("row, name", [(13, "m video.w1"), (27, "v text.w1")])
    def test_wrong_width_moment_row(self, tmp_path, row, name):
        path = trainer_file(tmp_path)
        rewrite(path, lambda lines: [*lines[: row - 1], lines[row - 1] + " 1.0", *lines[row:]])
        with pytest.raises(ParseError, match=f"{name}: 7 values, expected 6") as excinfo:
            load_checkpoint(path)
        assert excinfo.value.line == row

    def test_trailing_content(self, tmp_path):
        path = trainer_file(tmp_path)
        rewrite(path, lambda lines: [*lines, "", "# end", "0.0"])
        with pytest.raises(ParseError, match="trailing content") as excinfo:
            load_checkpoint(path)
        assert excinfo.value.line == 33

    @pytest.mark.parametrize(
        "adam_line", ["adam 4 17", "adam 4 17 5 h x", "adma 4 17 5", "adam 4 -1 5"]
    )
    def test_bad_adam_line(self, tmp_path, adam_line):
        path = trainer_file(tmp_path)
        rewrite(path, lambda lines: [*lines[:11], adam_line, *lines[12:]])
        with pytest.raises(ParseError) as excinfo:
            load_checkpoint(path)
        assert excinfo.value.line == 12

    def test_config_hash_with_whitespace_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="whitespace"):
            trainer_file(tmp_path, "a b")
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize(
        "line, edit",
        [
            (2, lambda ls: [ls[0], "dims 4 3 0 +6", *ls[2:]]),
            (5, lambda ls: [*ls[:4], ls[4] + " 1.0", *ls[5:]]),
            (9, lambda ls: [*ls[:8], "x" + ls[8], *ls[9:]]),
            (12, lambda ls: [*ls[:11], "adam 4 17 0x5 abc", *ls[12:]]),
            (16, lambda ls: [*ls[:15], "nan" + ls[15][ls[15].index(" ") :], *ls[16:]]),
            (30, lambda ls: [*ls[:29], ls[29].replace(" ", " 1e ", 1), *ls[30:]]),
            (29, lambda ls: ls[:29]),
            (31, lambda ls: [*ls, "0.0"]),
        ],
    )
    def test_record_errors_name_the_file(self, tmp_path, line, edit):
        path = trainer_file(tmp_path)
        rewrite(path, edit)
        with pytest.raises(ParseError) as excinfo:
            read_checkpoint(path)
        assert excinfo.value.line == line
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
