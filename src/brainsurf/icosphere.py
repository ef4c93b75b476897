"""Geodesic icosahedral meshes and the sparse operators mesh layers consume.

A level-k icosphere is produced by k rounds of face subdivision of the
regular icosahedron, with every new vertex projected back to the unit
sphere.  Vertex ordering is prefix-stable: the vertices of the level-(k-1)
mesh occupy indices 0..10*4^(k-1)+1 of the level-k mesh, which is what makes
pooling between resolutions a simple index operation.

The base icosahedron is rotated once by a fixed quaternion (axis
(1,1,0)/sqrt(2), angle 0.2 rad) so that no vertex of any practical
subdivision level sits on the z-axis, where the local east/north tangent
frame would be singular.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
import scipy.sparse as sp


_POLE_EPS = 1e-9
_ROT_AXIS = np.array([1.0, 1.0, 0.0]) / math.sqrt(2.0)
_ROT_ANGLE = 0.2


def _rotation_matrix(axis: np.ndarray, angle: float) -> np.ndarray:
    u = axis / np.linalg.norm(axis)
    c, s = math.cos(angle), math.sin(angle)
    ux = np.array([[0.0, -u[2], u[1]], [u[2], 0.0, -u[0]], [-u[1], u[0], 0.0]])
    return c * np.eye(3) + s * ux + (1.0 - c) * np.outer(u, u)


@dataclass(frozen=True)
class Icosphere:
    """Immutable geodesic mesh at a given subdivision level.

    Attributes:
        level: subdivision depth (0 = icosahedron).
        vertices: [V, 3] unit-sphere positions.
        faces: [F, 3] triangle vertex indices.
        adjacency: [V, V] CSR 1-ring adjacency, A_ij = 1 when i and j share
            an edge; column indices sorted within each row.
        parent_edges: [V - V_coarse, 2] for level >= 1; row j holds the two
            coarse endpoints whose edge midpoint became vertex V_coarse + j.
            None at level 0.
    """

    level: int
    vertices: np.ndarray
    faces: np.ndarray
    adjacency: sp.csr_matrix
    parent_edges: np.ndarray | None

    @property
    def n_vertices(self) -> int:
        return self.vertices.shape[0]

    @property
    def n_faces(self) -> int:
        return self.faces.shape[0]

    @property
    def n_edges(self) -> int:
        return 3 * self.faces.shape[0] // 2

    def degrees(self) -> np.ndarray:
        return np.diff(self.adjacency.indptr)


@dataclass(frozen=True)
class MeshOperators:
    """Sparse per-level operators: identity, graph Laplacian, east/north gradients."""

    level: int
    identity: sp.csr_matrix
    laplacian: sp.csr_matrix
    grad_ew: sp.csr_matrix
    grad_ns: sp.csr_matrix
    conv: sp.csr_matrix  # [identity | grad_ew | grad_ns | laplacian], [V x 4V]
    # (grad_ew.T, grad_ns.T, laplacian.T): the mesh conv's backward pass, one
    # block at a time; the identity block needs no product.
    blocks_t: tuple[sp.csr_matrix, ...]


@dataclass(frozen=True)
class PoolMap:
    """Pooling and unpooling between adjacent levels, as sparse matrices.

    Row i of ``pool_matrix`` averages coarse vertex i over its closed fine
    1-ring (i itself plus its fine neighbors, equal weights summing to 1).
    Unpooling copies coarse values and assigns each new fine vertex the mean
    of its two parent edge endpoints.
    """

    pool_matrix: sp.csr_matrix
    unpool_matrix: sp.csr_matrix


def n_vertices_at_level(level: int) -> int:
    return 10 * 4**level + 2


def _build_adjacency(n_vertices: int, faces: np.ndarray) -> sp.csr_matrix:
    edges = np.concatenate([faces[:, [0, 1]], faces[:, [1, 2]], faces[:, [2, 0]]])
    rows, cols = np.concatenate([edges, edges[:, ::-1]]).T
    adjacency = sp.csr_matrix((np.ones(rows.size), (rows, cols)), shape=(n_vertices, n_vertices))
    adjacency.data[:] = 1.0  # an edge is listed once by each of its two faces
    return adjacency


def base_icosahedron() -> Icosphere:
    """The level-0 mesh: 12 vertices, 20 faces, all vertices degree 5."""
    phi = (1.0 + math.sqrt(5.0)) / 2.0
    verts = np.array(
        [
            [-1, phi, 0], [1, phi, 0], [-1, -phi, 0], [1, -phi, 0],
            [0, -1, phi], [0, 1, phi], [0, -1, -phi], [0, 1, -phi],
            [phi, 0, -1], [phi, 0, 1], [-phi, 0, -1], [-phi, 0, 1],
        ],
        dtype=np.float64,
    )
    verts /= np.linalg.norm(verts, axis=1, keepdims=True)
    verts = verts @ _rotation_matrix(_ROT_AXIS, _ROT_ANGLE).T
    verts /= np.linalg.norm(verts, axis=1, keepdims=True)
    faces = np.array(
        [
            [0, 11, 5], [0, 5, 1], [0, 1, 7], [0, 7, 10], [0, 10, 11],
            [1, 5, 9], [5, 11, 4], [11, 10, 2], [10, 7, 6], [7, 1, 8],
            [3, 9, 4], [3, 4, 2], [3, 2, 6], [3, 6, 8], [3, 8, 9],
            [4, 9, 5], [2, 4, 11], [6, 2, 10], [8, 6, 7], [9, 8, 1],
        ],
        dtype=np.int64,
    )
    return Icosphere(
        level=0,
        vertices=verts,
        faces=faces,
        adjacency=_build_adjacency(12, faces),
        parent_edges=None,
    )


def subdivide(mesh: Icosphere) -> Icosphere:
    """Split every face into 4; midpoints are deduplicated, projected to the
    sphere, and appended after all existing vertices."""
    v, f = mesh.vertices, mesh.faces
    n_old = v.shape[0]
    edges = np.concatenate([f[:, [0, 1]], f[:, [1, 2]], f[:, [2, 0]]])
    edges = np.sort(edges, axis=1)
    unique_edges, inverse = np.unique(edges, axis=0, return_inverse=True)
    mid_of = n_old + inverse.reshape(3, -1)  # rows: midpoint of (01), (12), (20) per face

    midpoints = v[unique_edges[:, 0]] + v[unique_edges[:, 1]]
    midpoints /= np.linalg.norm(midpoints, axis=1, keepdims=True)
    new_vertices = np.vstack([v, midpoints])

    m01, m12, m20 = mid_of
    new_faces = np.concatenate(
        [
            np.stack([f[:, 0], m01, m20], axis=1),
            np.stack([f[:, 1], m12, m01], axis=1),
            np.stack([f[:, 2], m20, m12], axis=1),
            np.stack([m01, m12, m20], axis=1),
        ]
    )
    return Icosphere(
        level=mesh.level + 1,
        vertices=new_vertices,
        faces=new_faces,
        adjacency=_build_adjacency(new_vertices.shape[0], new_faces),
        parent_edges=unique_edges,
    )


@lru_cache(maxsize=None)
def icosphere(level: int) -> Icosphere:
    if level < 0:
        raise ValueError(f"subdivision level must be >= 0, got {level}")
    if level == 0:
        return base_icosahedron()
    return subdivide(icosphere(level - 1))


def _tangent_frames(p: np.ndarray) -> np.ndarray:
    """[V, 3, 3] orthonormal frames; rows east, north, radial per vertex.

    east = normalized d/d(longitude), north = d/d(latitude); both unit for
    unit p.
    """
    r = np.hypot(p[:, 0], p[:, 1])
    if (r < _POLE_EPS).any():
        raise ValueError(f"vertex {p[np.argmin(r)]} lies within {_POLE_EPS} of a pole")
    east = np.stack([-p[:, 1], p[:, 0], np.zeros_like(r)], axis=1) / r[:, None]
    north = np.stack([-p[:, 2] * p[:, 0], -p[:, 2] * p[:, 1], r * r], axis=1) / r[:, None]
    return np.stack([east, north, p], axis=1)


def _ring_operator(mesh: Icosphere, diag: np.ndarray, off: np.ndarray) -> sp.csr_matrix:
    """[V, V] CSR on the closed 1-ring: ``diag`` on the diagonal, ``off`` on
    the entries of ``mesh.adjacency`` in its CSR order."""
    n = mesh.n_vertices
    rows = np.concatenate([np.arange(n), np.repeat(np.arange(n), mesh.degrees())])
    cols = np.concatenate([np.arange(n), mesh.adjacency.indices])
    return sp.csr_matrix((np.concatenate([diag, off]), (rows, cols)), shape=(n, n))


def build_operators(mesh: Icosphere) -> MeshOperators:
    """Derive the sparse operators used by mesh convolution.

    The Laplacian is the uniform graph Laplacian I - D^-1 A (L_ii = 1,
    L_ij = -1/deg(i) for neighbors).  The two gradient operators estimate
    the tangential gradient at each vertex by a least-squares linear fit of
    neighbor value differences against the neighbor displacements a_ik,
    expressed in the local orthonormal frame (east, north, radial): neighbor
    k of vertex i gets the weight G_i^-1 a_ik with G_i = sum_k a_ik a_ik^T,
    whose east and north components give the operator rows; the diagonal
    entry is minus the row sum.  Fitting in the full 3-D frame rather than on
    tangential coordinates alone makes the operators exact on fields that
    are linear in the ambient coordinates.
    """
    v, adjacency = mesh.vertices, mesh.adjacency
    n = v.shape[0]
    deg = mesh.degrees()
    rows = np.repeat(np.arange(n), deg)
    starts = adjacency.indptr[:-1]

    a = np.einsum("eij,ej->ei", _tangent_frames(v)[rows], v[adjacency.indices] - v[rows])
    gram = np.add.reduceat(a[:, :, None] * a[:, None, :], starts, axis=0)  # [V, 3, 3]
    weights = np.linalg.solve(gram[rows], a[:, :, None])[:, :, 0]  # [nnz, 3]

    def gradient(w: np.ndarray) -> sp.csr_matrix:
        return _ring_operator(mesh, -np.add.reduceat(w, starts), w)

    identity = sp.identity(n, format="csr")
    laplacian = _ring_operator(mesh, np.ones(n), np.repeat(-1.0 / deg, deg))
    grad_ew = gradient(weights[:, 0])
    grad_ns = gradient(weights[:, 1])
    blocks = (identity, grad_ew, grad_ns, laplacian)
    return MeshOperators(
        level=mesh.level,
        identity=identity,
        laplacian=laplacian,
        grad_ew=grad_ew,
        grad_ns=grad_ns,
        conv=sp.hstack(blocks).tocsr(),
        blocks_t=tuple(block.T.tocsr() for block in blocks[1:]),
    )


@lru_cache(maxsize=None)
def operators(level: int) -> MeshOperators:
    return build_operators(icosphere(level))


def closed_ring_mean(mesh: Icosphere, n_rows: int) -> sp.csr_matrix:
    """[n_rows, V] matrix whose row i is the mean over vertex i and its
    1-ring neighbors in ``mesh``: the row-normalized (I + A)[:n_rows]."""
    deg = mesh.degrees()
    share = 1.0 / (deg + 1)
    return _ring_operator(mesh, share, np.repeat(share, deg))[:n_rows]


def build_pool_map(fine: Icosphere, coarse: Icosphere) -> PoolMap:
    """Mean pooling over each coarse vertex's closed fine neighborhood."""
    if coarse.level != fine.level - 1:
        raise ValueError(
            f"coarse level {coarse.level} must be fine level {fine.level} minus one"
        )
    n_coarse = coarse.n_vertices
    n_fine = fine.n_vertices
    pool = closed_ring_mean(fine, n_coarse)

    parents = fine.parent_edges
    assert parents is not None and parents.shape[0] == n_fine - n_coarse
    up_rows = np.concatenate([np.arange(n_coarse), np.repeat(np.arange(n_coarse, n_fine), 2)])
    up_cols = np.concatenate([np.arange(n_coarse), parents.reshape(-1)])
    up_vals = np.concatenate([np.ones(n_coarse), np.full(2 * (n_fine - n_coarse), 0.5)])
    unpool = sp.coo_matrix((up_vals, (up_rows, up_cols)), shape=(n_fine, n_coarse)).tocsr()

    return PoolMap(pool_matrix=pool, unpool_matrix=unpool)


@dataclass(frozen=True)
class MeshHierarchy:
    """Operators and pooling maps for levels 0..max_level.

    ``pool_maps[k]`` maps level k+1 (fine) down to level k (coarse).
    """

    max_level: int
    operators: tuple[MeshOperators, ...]
    pool_maps: tuple[PoolMap, ...]

    def ops(self, level: int) -> MeshOperators:
        return self.operators[level]

    def pool_map(self, fine_level: int) -> PoolMap:
        return self.pool_maps[fine_level - 1]


@lru_cache(maxsize=None)
def build_hierarchy(max_level: int) -> MeshHierarchy:
    meshes = tuple(icosphere(k) for k in range(max_level + 1))
    ops = tuple(operators(k) for k in range(max_level + 1))
    pools = tuple(build_pool_map(meshes[k + 1], meshes[k]) for k in range(max_level))
    return MeshHierarchy(max_level=max_level, operators=ops, pool_maps=pools)

