import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from brainsurf.icosphere import (
    DegenerateFrame,
    LevelMismatch,
    _tangent_frame,
    base_icosahedron,
    build_hierarchy,
    build_operators,
    build_pool_map,
    closed_ring_mean,
    icosphere,
    mesh_to_obj,
    n_vertices_at_level,
    operator_to_coo_text,
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
        m = icosphere(2)
        for i, nbrs in enumerate(m.adjacency):
            assert np.array_equal(nbrs, np.sort(nbrs))
            for j in nbrs:
                assert i in m.adjacency[j]


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
        # Oracle: the tangential gradient of f(p) = x on the unit sphere is
        # (I - pp^T) e_x; its east/north components are -y/r and -z*x/r.
        m = icosphere(4)
        ops = operators(4)
        v = m.vertices
        r = np.hypot(v[:, 0], v[:, 1])
        east_true = -v[:, 1] / r
        north_true = -v[:, 2] * v[:, 0] / r
        f = v[:, 0]
        for got, want in ((ops.grad_ew @ f, east_true), (ops.grad_ns @ f, north_true)):
            rel_rms = np.sqrt(np.mean((got - want) ** 2)) / np.sqrt(np.mean(want**2))
            assert rel_rms < 0.10

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
                assert j == i or j in m.adjacency[i]

    def test_degenerate_frame_raises_at_pole(self):
        with pytest.raises(DegenerateFrame):
            _tangent_frame(np.array([0.0, 0.0, 1.0]))


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
        assert abs(ops.conv_t - ops.conv.T).max() == 0.0


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
        with pytest.raises(LevelMismatch):
            build_pool_map(icosphere(2), icosphere(0))

    def test_pool_weights_match_fine_degree(self):
        fine = icosphere(1)
        pm = build_pool_map(fine, icosphere(0))
        for i in range(12):
            deg = len(fine.adjacency[i])
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
        assert h.mesh(2).n_vertices == 162
        assert h.pool_map(2).coarse_level == 1
        assert h.ops(1).level == 1


class TestExports:
    def test_obj_roundtrip_counts(self):
        m = icosphere(1)
        text = mesh_to_obj(m)
        v_lines = [l for l in text.splitlines() if l.startswith("v ")]
        f_lines = [l for l in text.splitlines() if l.startswith("f ")]
        assert len(v_lines) == 42
        assert len(f_lines) == 80
        first = np.array([float(t) for t in v_lines[0].split()[1:]])
        assert np.allclose(first, m.vertices[0])

    def test_coo_text_parses_back(self):
        ops = operators(0)
        text = operator_to_coo_text(ops.laplacian)
        rows, cols, vals = [], [], []
        for line in text.strip().splitlines():
            r, c, x = line.split()
            rows.append(int(r))
            cols.append(int(c))
            vals.append(float(x))
        rebuilt = sp.coo_matrix((vals, (rows, cols)), shape=(12, 12)).tocsr()
        assert np.abs((rebuilt - ops.laplacian).toarray()).max() < 1e-15
