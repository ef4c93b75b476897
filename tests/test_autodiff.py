import numpy as np
import pytest
import scipy.sparse as sp

from brainsurf import autodiff as ad
from brainsurf.autodiff import (
    NonScalarRoot,
    Param,
    ShapeMismatch,
    Tensor,
    adam_step,
    backward,
    grad_check,
)
from brainsurf.fileio import load_checkpoint, save_checkpoint


def trainable(arr):
    return Tensor(np.asarray(arr, dtype=float), requires_grad=True)


class TestForwardOps:
    def test_clamp_below_threshold(self):
        x = trainable(np.array(-3.0))
        y = ad.clamp_min_zero(x)
        assert y.item() == 0.0
        backward(y)
        assert x.grad == 0.0

    def test_clamp_above_threshold(self):
        x = trainable(np.array(2.5))
        y = ad.clamp_min_zero(x)
        assert y.item() == 2.5
        backward(y)
        assert x.grad == 1.0

    def test_matmul_identity(self):
        a = trainable([[1.0, 2.0], [3.0, 4.0]])
        out = ad.matmul(a, Tensor(np.eye(2)))
        assert np.array_equal(out.data, a.data)

    def test_add_shape_mismatch_reports_both_shapes(self):
        with pytest.raises(ShapeMismatch) as exc:
            ad.add(Tensor(np.zeros((2, 3))), Tensor(np.zeros((3, 2))))
        assert "(2, 3)" in str(exc.value) and "(3, 2)" in str(exc.value)

    def test_sparse_matmul_matches_dense(self):
        # The operator acts along axis 0, whatever the trailing shape.
        rng = np.random.default_rng(0)
        dense = rng.standard_normal((5, 5))
        dense[np.abs(dense) < 0.7] = 0.0
        s = sp.csr_matrix(dense)
        x = rng.standard_normal((5, 3))
        out = ad.sparse_matmul(s, Tensor(x))
        assert np.allclose(out.data, dense @ x, atol=1e-14)
        x3 = rng.standard_normal((5, 2, 3))
        out3 = ad.sparse_matmul(s, Tensor(x3))
        assert np.allclose(out3.data, np.einsum("uv,vbc->ubc", dense, x3), atol=1e-14)
        with pytest.raises(ShapeMismatch):
            ad.sparse_matmul(s, Tensor(x.T))

    def test_concat_channels(self):
        # Channels are the last axis; the leading (vertex, batch) axes must agree.
        a = Tensor(np.ones((4, 2, 2)))
        b = Tensor(np.zeros((4, 2, 3)))
        out = ad.concat_channels([a, b])
        assert out.shape == (4, 2, 5)
        assert np.array_equal(out.data[..., :2], a.data)
        with pytest.raises(ShapeMismatch):
            ad.concat_channels([a, Tensor(np.zeros((4, 3, 3)))])

    def test_leaky_relu_values(self):
        x = Tensor(np.array([-2.0, 3.0]))
        out = ad.leaky_relu(x, slope=0.1)
        assert np.allclose(out.data, [-0.2, 3.0])


class TestBackward:
    def test_sum_of_squares(self):
        x = trainable([1.0, 2.0, 3.0])
        backward(ad.square(x).sum())
        assert np.allclose(x.grad, [2.0, 4.0, 6.0])

    def test_mean(self):
        x = trainable([1.0, 2.0, 3.0, 4.0])
        backward(x.mean())
        assert np.allclose(x.grad, [0.25] * 4)

    def test_diamond_fanout(self):
        x = trainable(np.array(1.5))
        y = ad.add(x, x)
        backward(y)
        assert x.grad == 2.0

    def test_non_scalar_root(self):
        x = trainable([1.0, 2.0])
        with pytest.raises(NonScalarRoot):
            backward(ad.square(x))

    def test_matmul_gradients_against_manual(self):
        rng = np.random.default_rng(1)
        a = trainable(rng.standard_normal((3, 4)))
        b = trainable(rng.standard_normal((4, 2)))
        out = ad.matmul(a, b).sum()
        backward(out)
        # d(sum(AB))/dA = 1 B^T, /dB = A^T 1
        ones = np.ones((3, 2))
        assert np.allclose(a.grad, ones @ b.data.T, atol=1e-12)
        assert np.allclose(b.grad, a.data.T @ ones, atol=1e-12)

    def test_grad_accumulates_across_uses(self):
        x = trainable([1.0, -2.0])
        y = ad.add(ad.square(x), ad.mul_scalar(x, 3.0)).sum()
        backward(y)
        assert np.allclose(x.grad, 2.0 * x.data + 3.0)

    def test_no_grad_blocks_graph(self):
        x = trainable([1.0, 2.0])
        with ad.no_grad():
            y = ad.square(x).sum()
        assert not y.requires_grad
        assert y._backward_fn is None


class TestGradCheck:
    def test_sum_of_squares(self):
        x = Param("x", trainable([0.3, -1.2, 2.0]))
        err = grad_check(lambda: ad.square(x.tensor).sum(), [x])
        assert err < 1e-8

    def test_linear_layer(self):
        rng = np.random.default_rng(3)
        w = Param("w", trainable(rng.standard_normal((6, 4))))
        b = Param("b", trainable(rng.standard_normal(4)))
        x = rng.standard_normal((9, 6))

        def f():
            return ad.add_bias(ad.matmul(Tensor(x), w.tensor), b.tensor).mean()

        assert grad_check(f, [w, b]) < 1e-9

    def test_hinge_boundary_coordinate_skipped(self):
        # A pre-activation exactly at the kink: finite differences would
        # disagree with the chosen subgradient, so the coordinate is skipped.
        x = Param("x", trainable(np.array([0.0])))
        err = grad_check(lambda: ad.clamp_min_zero(x.tensor).sum(), [x])
        assert err == 0.0

    def test_subsampling_deterministic(self):
        rng = np.random.default_rng(4)
        w = Param("w", trainable(rng.standard_normal(500)))

        def f():
            return ad.square(w.tensor).sum()

        e1 = grad_check(f, [w], max_coords=50, seed=9)
        e2 = grad_check(f, [w], max_coords=50, seed=9)
        assert e1 == e2


class TestAdam:
    def test_zero_gradient_leaves_params(self):
        p = Param("p", trainable([1.0, 2.0]))
        before = p.tensor.data.copy()
        state = adam_step([p], [np.zeros(2)], None)
        assert np.array_equal(p.tensor.data, before)
        state["m"]["p"][:] = 1.0
        adam_step([p], [np.zeros(2)], state)
        assert (state["m"]["p"] < 1.0).all()  # moments decay toward zero

    def test_single_step_hand_computed(self):
        # With constant gradient g, the bias-corrected first step is
        # -lr * g / (|g| + eps): magnitude ~ lr regardless of g's scale.
        p = Param("p", trainable([0.0]))
        g = np.array([7.0])
        lr, eps = 1e-3, 1e-8
        adam_step([p], [g], None, lr=lr, eps=eps)
        expected = -lr * g / (np.abs(g) + eps)
        assert np.allclose(p.tensor.data, expected, atol=1e-15)

    def test_determinism_bitwise(self):
        def run():
            rng = np.random.default_rng(11)
            p = Param("p", trainable(rng.standard_normal(8)))
            state = None
            for _ in range(25):
                p.tensor.zero_grad()
                backward(ad.square(p.tensor).sum())
                state = adam_step([p], [p.tensor.grad], state)
            return p.tensor.data.copy()

        assert np.array_equal(run(), run())


class TestCheckpoint:
    def test_roundtrip(self, tmp_path):
        rng = np.random.default_rng(5)
        arrays = {"a.weight": rng.standard_normal((3, 4)), "b": rng.standard_normal(7)}
        path = tmp_path / "ckpt.bin"
        save_checkpoint(path, arrays, meta={"note": 1})
        loaded, meta = load_checkpoint(path)
        assert meta == {"note": 1}
        for name, arr in arrays.items():
            assert np.array_equal(loaded[name], arr)

    def test_header_is_json_line(self, tmp_path):
        path = tmp_path / "ckpt.bin"
        save_checkpoint(path, {"x": np.ones(2)})
        import json

        with open(path, "rb") as f:
            header = json.loads(f.readline())
        assert header["entries"][0]["name"] == "x"
        assert header["entries"][0]["shape"] == [2]
