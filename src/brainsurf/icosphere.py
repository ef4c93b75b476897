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


class DegenerateFrame(ValueError):
    """A vertex sits too close to a pole for a tangent frame to exist."""


class LevelMismatch(ValueError):
    """Pooling requested between meshes whose levels do not differ by one."""


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
        adjacency: per-vertex sorted arrays of 1-ring neighbor indices.
        parent_edges: [V - V_coarse, 2] for level >= 1; row j holds the two
            coarse endpoints whose edge midpoint became vertex V_coarse + j.
            None at level 0.
    """

    level: int
    vertices: np.ndarray
    faces: np.ndarray
    adjacency: tuple[np.ndarray, ...]
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
        return np.array([len(nbrs) for nbrs in self.adjacency])


@dataclass(frozen=True)
class MeshOperators:
    """Sparse per-level operators: identity, graph Laplacian, east/north gradients."""

    level: int
    identity: sp.csr_matrix
    laplacian: sp.csr_matrix
    grad_ew: sp.csr_matrix
    grad_ns: sp.csr_matrix
    conv: sp.csr_matrix  # [identity | grad_ew | grad_ns | laplacian], [V x 4V]
    conv_t: sp.csr_matrix  # conv transposed, [4V x V]: the mesh conv's backward pass


@dataclass(frozen=True)
class PoolMap:
    """Pooling and unpooling between adjacent levels, as sparse matrices.

    Row i of ``pool_matrix`` averages coarse vertex i over its closed fine
    1-ring (i itself plus its fine neighbors, equal weights summing to 1).
    Unpooling copies coarse values and assigns each new fine vertex the mean
    of its two parent edge endpoints.
    """

    fine_level: int
    coarse_level: int
    pool_matrix: sp.csr_matrix
    unpool_matrix: sp.csr_matrix


def n_vertices_at_level(level: int) -> int:
    return 10 * 4**level + 2


def _build_adjacency(n_vertices: int, faces: np.ndarray) -> tuple[np.ndarray, ...]:
    edges = np.concatenate([faces[:, [0, 1]], faces[:, [1, 2]], faces[:, [2, 0]]])
    both = np.concatenate([edges, edges[:, ::-1]])
    both = np.unique(both, axis=0)
    counts = np.bincount(both[:, 0], minlength=n_vertices)
    offsets = np.concatenate([[0], np.cumsum(counts)])
    return tuple(
        np.ascontiguousarray(both[offsets[i] : offsets[i + 1], 1]) for i in range(n_vertices)
    )


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


def _tangent_frame(p: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    # east = normalized d/d(longitude), north = d/d(latitude); both unit for unit p.
    r = math.hypot(p[0], p[1])
    if r < _POLE_EPS:
        raise DegenerateFrame(f"vertex {p} lies within {_POLE_EPS} of a pole")
    east = np.array([-p[1], p[0], 0.0]) / r
    north = np.array([-p[2] * p[0], -p[2] * p[1], r * r]) / r
    return east, north


def build_operators(mesh: Icosphere) -> MeshOperators:
    """Derive the sparse operators used by mesh convolution.

    The Laplacian is the uniform graph Laplacian (L_ii = 1, L_ij = -1/deg(i)
    for neighbors).  The two gradient operators estimate the tangential
    gradient at each vertex by a least-squares linear fit of neighbor value
    differences against neighbor displacements expressed in the local
    orthonormal frame (east, north, radial); the east and north fit
    coefficients give the operator rows.  Fitting in the full 3-D frame
    rather than on tangential coordinates alone makes the operators exact on
    fields that are linear in the ambient coordinates.
    """
    v = mesh.vertices
    n = v.shape[0]

    lap_rows, lap_cols, lap_vals = [], [], []
    ew_rows, ew_cols, ew_vals = [], [], []
    ns_rows, ns_cols, ns_vals = [], [], []

    for i in range(n):
        nbrs = mesh.adjacency[i]
        deg = len(nbrs)
        lap_rows.append(np.full(deg + 1, i))
        lap_cols.append(np.concatenate([[i], nbrs]))
        lap_vals.append(np.concatenate([[1.0], np.full(deg, -1.0 / deg)]))

        east, north = _tangent_frame(v[i])
        frame = np.stack([east, north, v[i]])  # 3 x 3, rows orthonormal
        disp = v[nbrs] - v[i]  # deg x 3
        a = disp @ frame.T  # deg x 3 local coordinates
        coeff = np.linalg.solve(a.T @ a, a.T)  # 3 x deg; rows: east, north, radial weights

        for rows, cols, vals, w in ((ew_rows, ew_cols, ew_vals, coeff[0]),
                                    (ns_rows, ns_cols, ns_vals, coeff[1])):
            rows.append(np.full(deg + 1, i))
            cols.append(np.concatenate([[i], nbrs]))
            vals.append(np.concatenate([[-w.sum()], w]))

    def assemble(rows, cols, vals):
        m = sp.coo_matrix(
            (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))), shape=(n, n)
        )
        return m.tocsr()

    identity = sp.identity(n, format="csr")
    laplacian = assemble(lap_rows, lap_cols, lap_vals)
    grad_ew = assemble(ew_rows, ew_cols, ew_vals)
    grad_ns = assemble(ns_rows, ns_cols, ns_vals)
    conv = sp.hstack([identity, grad_ew, grad_ns, laplacian]).tocsr()
    return MeshOperators(
        level=mesh.level,
        identity=identity,
        laplacian=laplacian,
        grad_ew=grad_ew,
        grad_ns=grad_ns,
        conv=conv,
        conv_t=conv.T.tocsr(),
    )


@lru_cache(maxsize=None)
def operators(level: int) -> MeshOperators:
    return build_operators(icosphere(level))


def closed_ring_mean(mesh: Icosphere, n_rows: int) -> sp.csr_matrix:
    """[n_rows, V] matrix whose row i is the mean over vertex i and its
    1-ring neighbors in ``mesh``."""
    rows, cols, vals = [], [], []
    for i in range(n_rows):
        contrib = np.concatenate([[i], mesh.adjacency[i]])
        rows.append(np.full(contrib.shape[0], i))
        cols.append(contrib)
        vals.append(np.full(contrib.shape[0], 1.0 / contrib.shape[0]))
    return sp.coo_matrix(
        (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
        shape=(n_rows, mesh.n_vertices),
    ).tocsr()


def build_pool_map(fine: Icosphere, coarse: Icosphere) -> PoolMap:
    """Mean pooling over each coarse vertex's closed fine neighborhood."""
    if coarse.level != fine.level - 1:
        raise LevelMismatch(
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

    return PoolMap(
        fine_level=fine.level,
        coarse_level=coarse.level,
        pool_matrix=pool,
        unpool_matrix=unpool,
    )


@dataclass(frozen=True)
class MeshHierarchy:
    """Meshes, operators, and pooling maps for levels 0..max_level.

    ``pool_maps[k]`` maps level k+1 (fine) down to level k (coarse).
    """

    max_level: int
    meshes: tuple[Icosphere, ...]
    operators: tuple[MeshOperators, ...]
    pool_maps: tuple[PoolMap, ...]

    def mesh(self, level: int) -> Icosphere:
        return self.meshes[level]

    def ops(self, level: int) -> MeshOperators:
        return self.operators[level]

    def pool_map(self, fine_level: int) -> PoolMap:
        return self.pool_maps[fine_level - 1]


@lru_cache(maxsize=None)
def build_hierarchy(max_level: int) -> MeshHierarchy:
    meshes = tuple(icosphere(k) for k in range(max_level + 1))
    ops = tuple(operators(k) for k in range(max_level + 1))
    pools = tuple(build_pool_map(meshes[k + 1], meshes[k]) for k in range(max_level))
    return MeshHierarchy(max_level=max_level, meshes=meshes, operators=ops, pool_maps=pools)


def mesh_to_obj(mesh: Icosphere) -> str:
    lines = [f"v {x:.17g} {y:.17g} {z:.17g}" for x, y, z in mesh.vertices]
    lines += [f"f {a + 1} {b + 1} {c + 1}" for a, b, c in mesh.faces]
    return "\n".join(lines) + "\n"


def operator_to_coo_text(matrix: sp.spmatrix) -> str:
    coo = matrix.tocoo()
    order = np.lexsort((coo.col, coo.row))
    lines = [
        f"{coo.row[k]} {coo.col[k]} {coo.data[k]:.17g}" for k in order
    ]
    return "\n".join(lines) + "\n"
