import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from brainsurf import autodiff as ad
from brainsurf.autodiff import Param, ShapeMismatch, Tensor, backward, grad_check
from brainsurf.icosphere import build_hierarchy, build_pool_map, icosphere, operators
from brainsurf.meshlayers import init_conv_layer, mesh_conv, mesh_pool
from oracles import dense_mesh_conv, mesh_conv_grads, sum_of_squares


def make_layer(in_ch, out_ch, level, seed=0):
    return init_conv_layer(np.random.default_rng(seed), "t", in_ch, out_ch, operators(level))


def set_weights(layer, w, b=None):
    layer.weights.tensor.data[...] = w
    if b is not None:
        layer.bias.tensor.data[...] = b


class TestInitConvLayer:
    def test_stores_the_out_in_op_draw_as_op_in_out(self):
        # The draw's shape fixes every initial value, and with it every
        # trained bit: drawn [out, in, 4], stored once as [4, in, out].
        layer = init_conv_layer(np.random.default_rng(3), "t", 5, 2, operators(1))
        a = np.sqrt(6.0 / (5 * 4 + 2 * 4))
        expected = np.random.default_rng(3).uniform(-a, a, (2, 5, 4)).transpose(2, 1, 0)
        w = layer.weights.tensor.data
        assert w.shape == (4, 5, 2) and w.flags.c_contiguous
        assert np.array_equal(w, expected)


class TestMeshConv:
    def test_identity_passthrough(self):
        layer = make_layer(1, 1, 1)
        w = np.zeros((4, 1, 1))
        w[0, 0, 0] = 1.0  # identity operator only
        set_weights(layer, w, np.array([0.7]))
        x = np.random.default_rng(0).standard_normal((42, 1, 1))
        out = mesh_conv(layer, Tensor(x))
        assert np.allclose(out.data, x + 0.7, atol=1e-14)

    def test_constant_input_uses_identity_weights_only(self):
        # Gradient and Laplacian operators annihilate constants, so only the
        # identity weights and bias survive.
        layer = make_layer(2, 3, 1, seed=5)
        c = np.stack([np.full(42, 2.0), np.full(42, -1.0)], axis=-1)[:, None]  # [V, 1, 2]
        out = mesh_conv(layer, Tensor(c))
        w = layer.weights.tensor.data
        expected = w[0, 0] * 2.0 - w[0, 1] + layer.bias.tensor.data
        assert np.abs(out.data - expected).max() < 1e-12

    def test_matches_dense_reference(self):
        # Oracle: materialize all four operators as dense matrices and compute
        # the convolution by explicit loops.
        level = 2
        layer = make_layer(3, 2, level, seed=7)
        rng = np.random.default_rng(8)
        x = rng.standard_normal((3, 162))
        ops = layer.operators
        dense_ops = [op.toarray() for op in (ops.identity, ops.grad_ew, ops.grad_ns, ops.laplacian)]
        w = layer.weights.tensor.data
        b = layer.bias.tensor.data
        expected = np.zeros((2, 162))
        for o in range(2):
            for i in range(3):
                for k, d in enumerate(dense_ops):
                    expected[o] += w[k, i, o] * (d @ x[i])
            expected[o] += b[o]
        out = mesh_conv(layer, Tensor(np.ascontiguousarray(x.T[:, None])))  # [V, 1, C]
        assert np.abs(out.data[:, 0].T - expected).max() < 1e-10

    def test_linear_in_input(self):
        layer = make_layer(2, 2, 1, seed=3)
        rng = np.random.default_rng(4)
        f, g = rng.standard_normal((2, 42, 1, 2))
        a, b = 0.6, -1.9
        zero = np.zeros((42, 1, 2))
        base = mesh_conv(layer, Tensor(zero)).data  # bias offset
        lhs = mesh_conv(layer, Tensor(a * f + b * g)).data - base
        rhs = a * (mesh_conv(layer, Tensor(f)).data - base) + b * (mesh_conv(layer, Tensor(g)).data - base)
        assert np.abs(lhs - rhs).max() < 1e-12

    def test_shape_mismatch(self):
        layer = make_layer(2, 2, 1)
        with pytest.raises(ShapeMismatch):
            mesh_conv(layer, Tensor(np.zeros((162, 1, 2))))
        # A coarse input: 2 + 3 channels at level 2.
        layer, pm, pm3 = make_layer(2 + 3, 2, 2), build_hierarchy(2).pool_map(2), build_hierarchy(3).pool_map(3)
        with pytest.raises(ShapeMismatch):  # its batch differs from x's
            mesh_conv(layer, Tensor(np.zeros((162, 2, 2))), coarse=(pm, Tensor(np.zeros((42, 1, 3)))))
        with pytest.raises(ShapeMismatch):  # the channels do not add up to the layer's
            mesh_conv(layer, Tensor(np.zeros((162, 1, 3))), coarse=(pm, Tensor(np.zeros((42, 1, 3)))))
        with pytest.raises(ShapeMismatch):  # the map's fine level is not the layer's
            mesh_conv(layer, Tensor(np.zeros((162, 1, 2))), coarse=(pm3, Tensor(np.zeros((162, 1, 3)))))

    def test_grad_check(self):
        layer = make_layer(2, 2, 2, seed=9)
        x = Param("x", Tensor(np.random.default_rng(10).standard_normal((162, 1, 2)), requires_grad=True))

        def f():
            return sum_of_squares(mesh_conv(layer, x.tensor))

        err = grad_check(f, [layer.weights, layer.bias, x], max_coords=120, seed=0)
        assert err < 1e-6


class TestMeshConvBackward:
    @settings(max_examples=30, deadline=None)
    @given(
        level=st.integers(2, 4),
        batch=st.integers(1, 3),
        c_in=st.integers(1, 4),
        c_out=st.integers(1, 4),
        slope=st.sampled_from([None, 0.1]),
        input_needs_grad=st.booleans(),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_blockwise_matches_stacked_transpose(self, level, batch, c_in, c_out, slope, input_needs_grad, seed):
        # The backward runs one operator block at a time; the oracle applies
        # the stacked transpose once.  Only dx sums in another order.
        rng = np.random.default_rng(seed)
        layer = make_layer(c_in, c_out, level, seed=seed)
        layer.bias.tensor.data[...] = rng.standard_normal(c_out)
        n = layer.operators.identity.shape[0]
        x = Tensor(rng.standard_normal((n, batch, c_in)), requires_grad=input_needs_grad)
        out = mesh_conv(layer, x, slope)
        g = rng.standard_normal(out.shape)
        dx, dw, db = out._backward_fn(g)
        ref_dx, ref_dw, ref_db = mesh_conv_grads(layer, x.data, out.data, g, slope)
        if input_needs_grad:
            assert dx.shape == ref_dx.shape
            assert np.abs(dx - ref_dx).max() <= 1e-12 * np.abs(ref_dx).max()
        else:
            assert dx is None
        assert np.array_equal(dw, ref_dw)
        assert np.array_equal(db, ref_db)


class TestUnpoolingConv:
    @pytest.mark.parametrize("level", [1, 2, 3])
    @pytest.mark.parametrize("batch", [1, 3])
    @pytest.mark.parametrize("slope", [None, 0.1])
    def test_matches_dense_unpool_then_concat(self, level, batch, slope):
        # Oracle: unpool h with the dense U, concatenate it after x, run the
        # dense conv; h's gradient is U^T of its channels' share of dx.
        rng = np.random.default_rng(level * 10 + batch)
        pm = build_hierarchy(level).pool_map(level)
        unpool = pm.unpool_matrix.toarray()
        layer = make_layer(3 + 5, 4, level, seed=level)
        layer.bias.tensor.data[...] = rng.standard_normal(4)
        x = Tensor(rng.standard_normal((unpool.shape[0], batch, 3)), requires_grad=True)
        h = Tensor(rng.standard_normal((unpool.shape[1], batch, 5)), requires_grad=True)
        out = mesh_conv(layer, x, slope, coarse=(pm, h))
        g = rng.standard_normal(out.shape)
        joined = np.concatenate([x.data, np.einsum("vu,ubc->vbc", unpool, h.data)], axis=2)
        y, d_joined, dw, db = dense_mesh_conv(layer, joined, g, slope)
        dh = np.einsum("vu,vbc->ubc", unpool, d_joined[..., 3:])
        expected = [y, d_joined[..., :3], dh, dw, db]
        for got, want in zip([out.data, *out._backward_fn(g)], expected, strict=True):
            assert got.shape == want.shape
            assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()


class TestMeshPool:
    def test_constant_preserved(self):
        pm = build_pool_map(icosphere(2), icosphere(1))
        out = mesh_pool(pm, Tensor(np.full((162, 1, 3), 5.5)))
        assert out.shape == (42, 1, 3)
        assert np.abs(out.data - 5.5).max() < 1e-12

    def test_one_hot_mass_matches_map_weight(self):
        fine = icosphere(1)
        pm = build_pool_map(fine, icosphere(0))
        coarse_vertex = 4
        row = pm.pool_matrix.getrow(coarse_vertex)
        fine_neighbor = int(row.indices[row.indices != coarse_vertex][0])
        weight = row[0, fine_neighbor]
        x = np.zeros((42, 1, 1))
        x[fine_neighbor] = 1.0
        out = mesh_pool(pm, Tensor(x)).data[:, 0, 0]
        assert abs(out[coarse_vertex] - weight) < 1e-14
        # Mass lands only at coarse vertices adjacent to the fine neighbor.
        for i in range(12):
            if fine_neighbor not in fine.adjacency[i].indices:
                assert out[i] == 0.0

    def test_level1_to_0_matches_bruteforce_mean(self):
        fine = icosphere(1)
        pm = build_pool_map(fine, icosphere(0))
        x = np.random.default_rng(2).standard_normal((42, 1, 2))
        out = mesh_pool(pm, Tensor(x)).data
        for i in range(12):
            closed = np.concatenate([[i], fine.adjacency[i].indices])
            assert np.allclose(out[i], x[closed].mean(axis=0), atol=1e-13)

    def test_gradient_flows(self):
        pm = build_pool_map(icosphere(1), icosphere(0))
        x = Param("x", Tensor(np.random.default_rng(3).standard_normal((42, 1, 1)), requires_grad=True))
        backward(mesh_pool(pm, x.tensor).sum())
        # Column sums of the pooling matrix.
        assert np.allclose(x.tensor.grad[:, 0, 0], np.asarray(pm.pool_matrix.sum(axis=0)).ravel(), atol=1e-14)

    def test_channel_major_input_rejected(self):
        # Pooling takes vertex-major [V, B, C] only: a [C, V] subject is not transposed for it.
        pm = build_pool_map(icosphere(2), icosphere(1))
        with pytest.raises(ShapeMismatch):
            mesh_pool(pm, Tensor(np.zeros((3, 162))))


class TestMeshUnpool:
    # The unpooling map alone; the decoder applies it inside its first conv.
    def test_constant_preserved(self):
        pm = build_pool_map(icosphere(1), icosphere(0))
        out = pm.unpool_matrix @ np.full((12, 2), -3.0)
        assert out.shape == (42, 2)
        assert np.abs(out + 3.0).max() < 1e-12

    def test_one_hot_parent_edges(self):
        fine = icosphere(1)
        pm = build_pool_map(fine, icosphere(0))
        j = 7
        x = np.zeros(12)
        x[j] = 1.0
        out = pm.unpool_matrix @ x
        assert out[j] == 1.0
        for new_idx, (a, b) in enumerate(fine.parent_edges, start=12):
            expected = 0.5 * ((a == j) + (b == j))
            assert out[new_idx] == expected

    def test_pool_of_unpool_constant(self):
        pm = build_pool_map(icosphere(2), icosphere(1))
        c = np.full((42, 1), 2.25)
        roundtrip = mesh_pool(pm, Tensor((pm.unpool_matrix @ c)[:, None]))
        assert np.abs(roundtrip.data - 2.25).max() < 1e-12


class TestVertexMajorBatch:
    def test_conv_batch_equals_single_subjects(self):
        layer = make_layer(3, 5, 2, seed=11)
        layer.bias.tensor.data[...] = np.arange(5.0)
        xs = np.random.default_rng(11).standard_normal((4, 3, 162))  # [B, C, V]
        batched = mesh_conv(layer, Tensor(np.ascontiguousarray(xs.transpose(2, 0, 1)))).data  # [V, B, C']
        for b, x in enumerate(xs):
            # mesh_conv's one-subject [C, V] branch, which the benchmark's conv timings call.
            single = mesh_conv(layer, Tensor(x)).data
            assert np.abs(batched[:, b, :].T - single).max() <= 1e-12 * np.abs(single).max()

    def test_conv_grad_check_on_batch(self):
        layer = make_layer(2, 3, 2, seed=12)
        x = Param("x", Tensor(np.random.default_rng(12).standard_normal((162, 2, 2)), requires_grad=True))

        def f():
            return sum_of_squares(mesh_conv(layer, x.tensor))

        err = grad_check(f, [layer.weights, layer.bias, x], max_coords=120, seed=0)
        assert err < 1e-6

    @settings(max_examples=30, deadline=None)
    @given(
        fine_level=st.integers(1, 4),
        batch=st.integers(1, 3),
        channels=st.integers(1, 3),
        c=st.floats(-1e6, 1e6),
    )
    def test_pool_and_unpool_preserve_constants(self, fine_level, batch, channels, c):
        pm = build_hierarchy(fine_level).pool_map(fine_level)
        n_fine, n_coarse = pm.pool_matrix.shape[1], pm.pool_matrix.shape[0]
        tol = 1e-12 * max(1.0, abs(c))
        pooled = mesh_pool(pm, Tensor(np.full((n_fine, batch, channels), c))).data
        assert pooled.shape == (n_coarse, batch, channels)
        assert np.abs(pooled - c).max() <= tol
        unpooled = ad.sparse_matmul(pm.unpool_matrix, Tensor(np.full((n_coarse, batch, channels), c))).data
        assert unpooled.shape == (n_fine, batch, channels)
        assert np.abs(unpooled - c).max() <= tol


class TestPermutationConsistency:
    def test_relabeling_fine_vertices_outside_prefix(self):
        # Permuting fine vertices beyond the coarse prefix, with the pooling
        # matrix columns permuted to match, leaves pooled outputs unchanged.
        pm = build_pool_map(icosphere(1), icosphere(0))
        rng = np.random.default_rng(6)
        perm = np.concatenate([np.arange(12), 12 + rng.permutation(30)])
        x = rng.standard_normal((2, 42))
        permuted_matrix = pm.pool_matrix[:, perm]
        original = pm.pool_matrix @ x.T
        relabeled = permuted_matrix @ x[:, perm].T
        # x[:, perm][new] = x[old]: applying the permuted map to relabeled data
        # must reproduce the original pooling (up to summation-order rounding).
        assert np.abs(original - relabeled).max() < 1e-12

