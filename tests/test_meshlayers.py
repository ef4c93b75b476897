import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from brainsurf import autodiff as ad
from brainsurf.autodiff import Param, ShapeMismatch, Tensor, backward, grad_check
from brainsurf.icosphere import build_hierarchy, build_pool_map, icosphere, operators
from brainsurf.meshlayers import (
    init_conv_layer,
    mesh_conv,
    mesh_pool,
    mesh_unpool,
)


def make_layer(in_ch, out_ch, level, seed=0):
    return init_conv_layer(np.random.default_rng(seed), "t", in_ch, out_ch, operators(level))


def set_weights(layer, w, b=None):
    layer.weights.tensor.data[...] = w
    if b is not None:
        layer.bias.tensor.data[...] = b


class TestMeshConv:
    def test_identity_passthrough(self):
        layer = make_layer(1, 1, 1)
        w = np.zeros((1, 1, 4))
        w[0, 0, 0] = 1.0  # identity operator only
        set_weights(layer, w, np.array([0.7]))
        x = np.random.default_rng(0).standard_normal((1, 42))
        out = mesh_conv(layer, x)
        assert np.allclose(out.data, x + 0.7, atol=1e-14)

    def test_constant_input_uses_identity_weights_only(self):
        # Gradient and Laplacian operators annihilate constants, so only the
        # identity weights and bias survive.
        layer = make_layer(2, 3, 1, seed=5)
        c = np.stack([np.full(42, 2.0), np.full(42, -1.0)])
        out = mesh_conv(layer, c)
        w = layer.weights.tensor.data
        expected = (w[:, 0, 0] * 2.0 - w[:, 1, 0])[:, None] + layer.bias.tensor.data[:, None]
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
                    expected[o] += w[o, i, k] * (d @ x[i])
            expected[o] += b[o]
        out = mesh_conv(layer, x)
        assert np.abs(out.data - expected).max() < 1e-10

    def test_linear_in_input(self):
        layer = make_layer(2, 2, 1, seed=3)
        rng = np.random.default_rng(4)
        f, g = rng.standard_normal((2, 2, 42))
        a, b = 0.6, -1.9
        zero = np.zeros((2, 42))
        base = mesh_conv(layer, zero).data  # bias offset
        lhs = mesh_conv(layer, a * f + b * g).data - base
        rhs = a * (mesh_conv(layer, f).data - base) + b * (mesh_conv(layer, g).data - base)
        assert np.abs(lhs - rhs).max() < 1e-12

    def test_shape_mismatch(self):
        layer = make_layer(2, 2, 1)
        with pytest.raises(ShapeMismatch):
            mesh_conv(layer, np.zeros((2, 162)))

    def test_grad_check(self):
        layer = make_layer(2, 2, 2, seed=9)
        x = Param("x", Tensor(np.random.default_rng(10).standard_normal((2, 162)), requires_grad=True))

        def f():
            return ad.square(mesh_conv(layer, x.tensor)).mean()

        err = grad_check(f, [layer.weights, layer.bias, x], max_coords=120, seed=0)
        assert err < 1e-6


class TestMeshPool:
    def test_constant_preserved(self):
        pm = build_pool_map(icosphere(2), icosphere(1))
        out = mesh_pool(pm, np.full((3, 162), 5.5))
        assert out.shape == (3, 42)
        assert np.abs(out.data - 5.5).max() < 1e-12

    def test_one_hot_mass_matches_map_weight(self):
        fine = icosphere(1)
        pm = build_pool_map(fine, icosphere(0))
        coarse_vertex = 4
        row = pm.pool_matrix.getrow(coarse_vertex)
        fine_neighbor = int(row.indices[row.indices != coarse_vertex][0])
        weight = row[0, fine_neighbor]
        x = np.zeros((1, 42))
        x[0, fine_neighbor] = 1.0
        out = mesh_pool(pm, x).data[0]
        assert abs(out[coarse_vertex] - weight) < 1e-14
        # Mass lands only at coarse vertices adjacent to the fine neighbor.
        for i in range(12):
            if fine_neighbor not in fine.adjacency[i]:
                assert out[i] == 0.0

    def test_level1_to_0_matches_bruteforce_mean(self):
        fine = icosphere(1)
        pm = build_pool_map(fine, icosphere(0))
        x = np.random.default_rng(2).standard_normal((2, 42))
        out = mesh_pool(pm, x).data
        for i in range(12):
            closed = np.concatenate([[i], fine.adjacency[i]])
            assert np.allclose(out[:, i], x[:, closed].mean(axis=1), atol=1e-13)

    def test_gradient_flows(self):
        pm = build_pool_map(icosphere(1), icosphere(0))
        x = Param("x", Tensor(np.random.default_rng(3).standard_normal((1, 42)), requires_grad=True))
        backward(mesh_pool(pm, x.tensor).sum())
        # Column sums of the pooling matrix.
        assert np.allclose(x.tensor.grad, np.asarray(pm.pool_matrix.sum(axis=0)).ravel(), atol=1e-14)


class TestMeshUnpool:
    def test_constant_preserved(self):
        pm = build_pool_map(icosphere(1), icosphere(0))
        out = mesh_unpool(pm, np.full((2, 12), -3.0))
        assert out.shape == (2, 42)
        assert np.abs(out.data + 3.0).max() < 1e-12

    def test_one_hot_parent_edges(self):
        fine = icosphere(1)
        pm = build_pool_map(fine, icosphere(0))
        j = 7
        x = np.zeros((1, 12))
        x[0, j] = 1.0
        out = mesh_unpool(pm, x).data[0]
        assert out[j] == 1.0
        for new_idx, (a, b) in enumerate(fine.parent_edges, start=12):
            expected = 0.5 * ((a == j) + (b == j))
            assert out[new_idx] == expected

    def test_pool_of_unpool_constant(self):
        pm = build_pool_map(icosphere(2), icosphere(1))
        c = np.full((1, 42), 2.25)
        roundtrip = mesh_pool(pm, mesh_unpool(pm, c))
        assert np.abs(roundtrip.data - 2.25).max() < 1e-12


class TestVertexMajorBatch:
    def test_conv_batch_equals_single_subjects(self):
        layer = make_layer(3, 5, 2, seed=11)
        layer.bias.tensor.data[...] = np.arange(5.0)
        xs = np.random.default_rng(11).standard_normal((4, 3, 162))  # [B, C, V]
        batched = mesh_conv(layer, np.ascontiguousarray(xs.transpose(2, 0, 1))).data  # [V, B, C']
        for b, x in enumerate(xs):
            single = mesh_conv(layer, x).data
            assert np.abs(batched[:, b, :].T - single).max() <= 1e-12 * np.abs(single).max()

    def test_conv_grad_check_on_batch(self):
        layer = make_layer(2, 3, 2, seed=12)
        x = Param("x", Tensor(np.random.default_rng(12).standard_normal((162, 2, 2)), requires_grad=True))

        def f():
            return ad.square(mesh_conv(layer, x.tensor)).mean()

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
        pooled = mesh_pool(pm, np.full((n_fine, batch, channels), c)).data
        assert pooled.shape == (n_coarse, batch, channels)
        assert np.abs(pooled - c).max() <= tol
        unpooled = mesh_unpool(pm, np.full((n_coarse, batch, channels), c)).data
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

