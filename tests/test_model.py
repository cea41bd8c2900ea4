import numpy as np
import pytest

from marginforge.errors import DimMismatchError, ParseError, ShapeMismatchError
from marginforge.mathcore import finite_diff_grad
from marginforge.model import (
    ModelDims,
    Tower,
    TwoTowerModel,
    backward,
    flatten_grads,
    flatten_params,
    forward_batch,
    init_params,
    load_checkpoint,
    save_checkpoint,
    set_flat_params,
)


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
        np.testing.assert_array_equal(forward_batch(model, x, np.zeros((1, 3))).video_reprs, x)

    def test_linearity_with_zero_bias(self):
        model = init_params(ModelDims(4, 4, 0, 3), 5)
        x = np.array([[0.3, -1.0, 2.0, 0.7]])
        t = np.zeros((1, 4))
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
