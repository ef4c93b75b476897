import math

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from brainsurf.icosphere import (
    _tangent_frames,
    base_icosahedron,
    build_hierarchy,
    build_operators,
    build_pool_map,
    closed_ring_mean,
    icosphere,
    n_vertices_at_level,
    operators,
    subdivide,
)


class TestBaseIcosahedron:
    def test_counts(self):
        m = base_icosahedron()
        assert m.n_vertices == 12
        assert m.n_faces == 20
        assert m.n_edges == 30

    def test_euler_characteristic(self):
        m = base_icosahedron()
        assert m.n_vertices - m.n_edges + m.n_faces == 2

    def test_unit_norms(self):
        m = base_icosahedron()
        assert np.abs(np.linalg.norm(m.vertices, axis=1) - 1.0).max() < 1e-12

    def test_all_degree_five(self):
        assert (base_icosahedron().degrees() == 5).all()

    def test_no_vertex_near_pole(self):
        # The fixed base rotation keeps tangent frames well-defined everywhere.
        for level in range(5):
            m = icosphere(level)
            r = np.hypot(m.vertices[:, 0], m.vertices[:, 1])
            assert r.min() > 1e-3


class TestSubdivide:
    def test_level_1_counts(self):
        m = subdivide(base_icosahedron())
        assert m.n_vertices == 42
        assert m.n_faces == 80

    def test_level_5_counts(self):
        m = icosphere(5)
        assert m.n_vertices == 10242

    @pytest.mark.parametrize("level", [1, 2, 3])
    def test_exactly_twelve_degree_five(self, level):
        deg = icosphere(level).degrees()
        assert (deg == 5).sum() == 12
        assert ((deg == 5) | (deg == 6)).all()

    @pytest.mark.parametrize("level", [1, 2, 3])
    def test_prefix_ordering_exact(self, level):
        fine = icosphere(level)
        coarse = icosphere(level - 1)
        assert np.array_equal(fine.vertices[: coarse.n_vertices], coarse.vertices)

    def test_parent_edges_cover_new_vertices(self):
        m = icosphere(2)
        n_coarse = n_vertices_at_level(1)
        assert m.parent_edges.shape == (m.n_vertices - n_coarse, 2)
        assert (m.parent_edges < n_coarse).all()
        # Each new vertex really is the projected midpoint of its parents.
        mids = m.vertices[m.parent_edges[:, 0]] + m.vertices[m.parent_edges[:, 1]]
        mids /= np.linalg.norm(mids, axis=1, keepdims=True)
        assert np.allclose(mids, m.vertices[n_coarse:], atol=1e-15)

    def test_adjacency_sorted_and_symmetric(self):
        for level in range(6):
            a = icosphere(level).adjacency
            assert a.has_canonical_format  # sorted indices, no duplicates
            assert (a.data == 1.0).all()
            assert (a != a.T).nnz == 0
            assert a.diagonal().sum() == 0.0


class TestOperators:
    def test_laplacian_annihilates_constants(self):
        ops = operators(2)
        out = ops.laplacian @ np.full(162, 3.7)
        assert np.abs(out).max() < 1e-10

    def test_laplacian_row_sums_zero(self):
        ops = operators(2)
        assert np.abs(np.asarray(ops.laplacian.sum(axis=1))).max() < 1e-10

    def test_gradients_annihilate_constants(self):
        ops = operators(2)
        c = np.full(162, -2.5)
        assert np.abs(ops.grad_ew @ c).max() < 1e-10
        assert np.abs(ops.grad_ns @ c).max() < 1e-10

    def test_grad_ew_of_latitude_field_vanishes(self):
        # f(p) = z varies only north-south; its east component is identically 0.
        for level in (3, 4):
            m = icosphere(level)
            out = operators(level).grad_ew @ m.vertices[:, 2]
            assert np.abs(out).max() < 1e-6

    def test_grad_matches_analytic_tangential_gradient(self):
        # Oracle: the tangential gradient of f(p) = p_c on the unit sphere is
        # (I - pp^T) e_c; its east/north components are east_c and north_c,
        # with east = (-y, x, 0)/r and north = (-zx, -zy, r^2)/r.  The fit is
        # exact on fields linear in the ambient coordinates.
        for level in range(6):
            v = icosphere(level).vertices
            ops = operators(level)
            x, y, z = v.T
            r = np.hypot(x, y)
            east = np.stack([-y / r, x / r, np.zeros_like(r)])
            north = np.stack([-z * x / r, -z * y / r, r])
            for c in range(3):
                assert np.abs(ops.grad_ew @ v[:, c] - east[c]).max() <= 1e-12
                assert np.abs(ops.grad_ns @ v[:, c] - north[c]).max() <= 1e-12

    def test_operator_linearity(self):
        ops = operators(2)
        rng = np.random.default_rng(0)
        f, g = rng.standard_normal((2, 162))
        a, b = 1.7, -0.3
        for op in (ops.identity, ops.grad_ew, ops.grad_ns, ops.laplacian):
            assert np.abs(op @ (a * f + b * g) - (a * (op @ f) + b * (op @ g))).max() < 1e-12

    def test_sparsity_within_closed_one_ring(self):
        m = icosphere(2)
        ops = build_operators(m)
        for op in (ops.laplacian, ops.grad_ew, ops.grad_ns):
            coo = op.tocoo()
            for i, j in zip(coo.row, coo.col):
                assert j == i or j in m.adjacency[i].indices

    def test_degenerate_frame_raises_at_pole(self):
        with pytest.raises(ValueError, match=r"vertex \[0\. 0\. 1\.\] lies within 1e-09 of a pole"):
            _tangent_frames(np.array([[1.0, 0.0, 0.0], [0.0, 0.0, 1.0]]))


def reference_operators(mesh):
    """Per-vertex construction: the Laplacian, the least-squares gradient
    fit and the closed ring mean, one vertex at a time, with each 1-ring
    read from the faces rather than from ``mesh.adjacency``."""
    v = mesh.vertices
    n = v.shape[0]
    entries = {"laplacian": [], "grad_ew": [], "grad_ns": [], "ring_mean": []}
    for i in range(n):
        nbrs = np.setdiff1d(mesh.faces[(mesh.faces == i).any(axis=1)], [i])
        deg = len(nbrs)
        closed = np.concatenate([[i], nbrs])
        r = math.hypot(v[i, 0], v[i, 1])
        east = np.array([-v[i, 1], v[i, 0], 0.0]) / r
        north = np.array([-v[i, 2] * v[i, 0], -v[i, 2] * v[i, 1], r * r]) / r
        a = (v[nbrs] - v[i]) @ np.stack([east, north, v[i]]).T  # deg x 3 local coordinates
        coeff = np.linalg.solve(a.T @ a, a.T)  # rows: east, north, radial weights
        rows = {
            "laplacian": np.concatenate([[1.0], np.full(deg, -1.0 / deg)]),
            "grad_ew": np.concatenate([[-coeff[0].sum()], coeff[0]]),
            "grad_ns": np.concatenate([[-coeff[1].sum()], coeff[1]]),
            "ring_mean": np.full(deg + 1, 1.0 / (deg + 1)),
        }
        for name, vals in rows.items():
            entries[name].append((np.full(deg + 1, i), closed, vals))
    assembled = {}
    for name, parts in entries.items():
        rows, cols, vals = (np.concatenate(col) for col in zip(*parts))
        assembled[name] = sp.coo_matrix((vals, (rows, cols)), shape=(n, n)).tocsr()
    return assembled


class TestAgainstPerVertexReference:
    @pytest.mark.parametrize("level", range(5))
    def test_operators_match_reference(self, level):
        mesh = icosphere(level)
        ref = reference_operators(mesh)
        ops = build_operators(mesh)
        got = {
            "laplacian": ops.laplacian,
            "ring_mean": closed_ring_mean(mesh, mesh.n_vertices),
            "grad_ew": ops.grad_ew,
            "grad_ns": ops.grad_ns,
        }
        for name in ("laplacian", "ring_mean"):
            for attr in ("data", "indices", "indptr"):
                assert np.array_equal(getattr(got[name], attr), getattr(ref[name], attr)), name
        for name in ("grad_ew", "grad_ns"):
            assert np.array_equal(got[name].indices, ref[name].indices)
            assert np.array_equal(got[name].indptr, ref[name].indptr)
            scale = np.abs(ref[name].data).max()
            assert np.abs(got[name].data - ref[name].data).max() <= 1e-13 * scale


class TestConvOperator:
    @settings(max_examples=40, deadline=None)
    @given(level=st.integers(0, 4), c=st.floats(-1e6, 1e6))
    def test_constant_survives_identity_block_only(self, level, c):
        # H = [I | grad_ew | grad_ns | L]: the gradients and the Laplacian
        # annihilate a constant, the identity block passes it through.
        ops = operators(level)
        n = n_vertices_at_level(level)
        out = ops.conv @ np.full(4 * n, c)
        assert np.abs(out - c).max() <= 1e-10 * max(1.0, abs(c))

    def test_blocks_in_weight_order(self):
        ops = operators(1)
        blocks = sp.hstack([ops.identity, ops.grad_ew, ops.grad_ns, ops.laplacian])
        assert abs(ops.conv - blocks).max() == 0.0
        transposed = (ops.grad_ew, ops.grad_ns, ops.laplacian)
        assert len(ops.blocks_t) == len(transposed)
        for block_t, block in zip(ops.blocks_t, transposed):
            assert block_t.shape == block.T.shape
            assert abs(block_t - block.T).max() == 0.0


class TestPoolMap:
    def test_level1_to_0_rows(self):
        pm = build_pool_map(icosphere(1), icosphere(0))
        assert pm.pool_matrix.shape == (12, 42)
        for i in range(12):
            row = pm.pool_matrix.getrow(i)
            assert row.nnz == 6  # self + 5 fine neighbors
            assert row[0, i] > 0.0
            assert abs(row.sum() - 1.0) < 1e-12

    def test_pool_preserves_constants(self):
        pm = build_pool_map(icosphere(2), icosphere(1))
        out = pm.pool_matrix @ np.full(162, 4.2)
        assert np.abs(out - 4.2).max() < 1e-12

    def test_unpool_then_pool_constant(self):
        pm = build_pool_map(icosphere(2), icosphere(1))
        c = np.full(42, -1.3)
        up = pm.unpool_matrix @ c
        assert np.abs(up - (-1.3)).max() < 1e-12
        assert np.abs(pm.pool_matrix @ up - (-1.3)).max() < 1e-12

    def test_level_mismatch(self):
        with pytest.raises(ValueError, match="coarse level 0 must be fine level 2 minus one"):
            build_pool_map(icosphere(2), icosphere(0))

    def test_pool_weights_match_fine_degree(self):
        fine = icosphere(1)
        pm = build_pool_map(fine, icosphere(0))
        for i in range(12):
            deg = fine.degrees()[i]
            assert np.allclose(pm.pool_matrix.getrow(i).data, 1.0 / (1 + deg))


class TestClosedRingMean:
    @settings(max_examples=40, deadline=None)
    @given(level=st.integers(0, 4), c=st.floats(-1e6, 1e6), data=st.data())
    def test_preserves_constants(self, level, c, data):
        mesh = icosphere(level)
        n_rows = data.draw(st.integers(1, mesh.n_vertices))
        out = closed_ring_mean(mesh, n_rows) @ np.full(mesh.n_vertices, c)
        assert out.shape == (n_rows,)
        assert np.abs(out - c).max() <= 1e-12 * max(1.0, abs(c))

    def test_pool_matrix_is_ring_mean_of_fine_mesh(self):
        fine = icosphere(2)
        pool = build_pool_map(fine, icosphere(1)).pool_matrix
        ring = closed_ring_mean(fine, 42)
        for attr in ("data", "indices", "indptr"):
            assert np.array_equal(getattr(pool, attr), getattr(ring, attr))


class TestHierarchy:
    def test_build(self):
        h = build_hierarchy(2)
        assert h.pool_map(2).pool_matrix.shape == (42, 162)
        assert h.pool_map(2).unpool_matrix.shape == (162, 42)
        assert h.ops(1).level == 1
