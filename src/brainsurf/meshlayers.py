"""Differentiable convolution and pooling layers on icospheres.

A mesh convolution mixes four fixed sparse operators (identity, east gradient,
north gradient, Laplacian) by learned weights w[op, i, o], read without a copy:

    y[o] = sum_i sum_op w[op, i, o] * (op @ x[i]) + bias[o]

optionally followed, in the same graph node, by the leaky ReLU
max(y, slope*y).  Pooling and unpooling are the fixed linear maps carried
by a PoolMap.  Pooling is a layer of its own; unpooling happens inside the
convolution that reads a coarser input, after that input's channels are
contracted on the coarse mesh.

Layers work on vertex-major batches [V, B, C] (C-contiguous), so every sparse
operator applies to x viewed as [V, B*C] without a transpose or a copy.
``mesh_conv`` alone also takes one subject [C, V], for the benchmark's
per-level conv timings.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import Param, Tensor
from .icosphere import MeshOperators, PoolMap

N_OPERATORS = 4


@dataclass(frozen=True)
class MeshConvLayer:
    in_channels: int
    out_channels: int
    level: int
    weights: Param  # [4, in, out], operator order (I, grad_ew, grad_ns, laplacian)
    bias: Param  # [out]
    operators: MeshOperators


def init_conv_layer(
    rng: np.random.Generator,
    name: str,
    in_channels: int,
    out_channels: int,
    operators: MeshOperators,
) -> MeshConvLayer:
    # Uniform(-a, a) with a = sqrt(6 / (fan_in + fan_out)); each channel pair
    # contributes one weight per operator, so fans count the operator axis.
    # Drawn as [out, in, 4], which fixes every value; stored as [4, in, out].
    fan_in = in_channels * N_OPERATORS
    fan_out = out_channels * N_OPERATORS
    a = np.sqrt(6.0 / (fan_in + fan_out))
    w = rng.uniform(-a, a, size=(out_channels, in_channels, N_OPERATORS)).transpose(2, 1, 0).copy()
    return MeshConvLayer(
        in_channels=in_channels,
        out_channels=out_channels,
        level=operators.level,
        weights=Param(f"{name}.weight", Tensor(w, requires_grad=True)),
        bias=Param(f"{name}.bias", Tensor(np.zeros(out_channels), requires_grad=True)),
        operators=operators,
    )


def to_vertex_major(x: Tensor) -> Tensor:
    """One subject [C, V] or a batch [B, C, V] -> vertex-major [V, B, C]
    (B = 1 for one subject)."""
    c, v = x.data.shape[-2:]
    return ad.transpose(x, (x.data.ndim - 1, *range(x.data.ndim - 1)), (v, -1, c))


def from_vertex_major(x: Tensor, single: bool) -> Tensor:
    """Vertex-major [V, B, C] -> [B, C, V], or [C, V] when ``single``."""
    v, b, c = x.data.shape
    return ad.transpose(x, (1, 2, 0), (c, v) if single else (b, c, v))


def mesh_conv(
    layer: MeshConvLayer, x: Tensor, slope: float | None = None, coarse: tuple[PoolMap, Tensor] | None = None
) -> Tensor:
    """One graph node: contract the weights first, z_k = x W_k, then apply
    the horizontally stacked operator once, y = [I | grad_ew | grad_ns | L] z,
    and add the bias.  With a ``slope`` in [0, 1], y becomes max(y, slope*y)
    in place: for finite y, y where y > 0 and slope*y elsewhere, signed zeros
    included.  The pre-activation is not kept: y > 0 after the activation
    exactly where it was before, so the backward takes its mask from the
    output.

    With ``coarse = (pool_map, h)``, the conv reads the channel concatenation
    [x | U h] of x and the unpooled coarse features (U the map's
    ``unpool_matrix``, h [V_coarse, B, C_h]) in the weights' input order,
    without forming it: unpooling commutes with the contraction, so
    z_k = x W_k[x rows] + U (h W_k[h rows]), and h's rows are contracted on
    the coarse mesh.  Its gradients are then (dx, dh, dW, db); without it,
    (dx, dW, db).

    The backward runs one operator block S_k at a time, dz_k = S_k^T g
    (dz_0 = g), so it never holds more than one block's dz: dW_k = x^T dz_k,
    and dx = sum_k dz_k W_k^T is added up block by block in one buffer.  The
    coarse input takes U^T dz_k in place of dz_k."""
    if x.data.ndim == 2:
        # One [C, V] subject -> [C', V].  Only perfbench's worker.conv_timings
        # passes one; the branch goes once it times vertex-major batches.
        return from_vertex_major(mesh_conv(layer, to_vertex_major(x), slope, coarse), single=True)
    ops = layer.operators
    n_vertices = ops.identity.shape[0]
    c_x = layer.in_channels - (0 if coarse is None else coarse[1].data.shape[-1])
    if x.data.ndim != 3 or x.data.shape[0] != n_vertices or x.data.shape[2] != c_x:
        raise ValueError(
            f"mesh_conv: vertex-major input {x.data.shape}, layer expects {(n_vertices, 'B', c_x)}"
        )
    batch = x.data.shape[1]
    c_out = layer.out_channels
    w, b = layer.weights.tensor, layer.bias.tensor  # w [4, in, out]
    rows = x.data.reshape(n_vertices * batch, c_x)
    # Per input: the tensor, its rows [V*B, C], its weight rows, and U^T for
    # the coarse one (None for x).
    inputs = [(x, rows, slice(0, c_x), None)]
    z = np.matmul(rows[None], w.data[:, :c_x])  # [4, V*B, out]
    if coarse is not None:
        pool_map, h = coarse
        unpool = pool_map.unpool_matrix
        n_coarse = unpool.shape[1]
        if unpool.shape[0] != n_vertices or h.data.ndim != 3 or h.data.shape[:2] != (n_coarse, batch):
            raise ValueError(
                f"mesh_conv: coarse input {h.data.shape}, layer expects {(n_coarse, batch, 'C')}"
            )
        coarse_rows = h.data.reshape(n_coarse * batch, -1)
        inputs.append((h, coarse_rows, slice(c_x, None), unpool.T))
        zc = np.matmul(coarse_rows[None], w.data[:, c_x:])  # [4, V_coarse*B, out]
        for z_k, zc_k in zip(z.reshape(N_OPERATORS, n_vertices, -1), zc.reshape(N_OPERATORS, n_coarse, -1)):
            z_k += unpool @ zc_k  # U (h W_k): the unpooled input's share of z_k
        del zc
    y = ops.conv @ z.reshape(N_OPERATORS * n_vertices, batch * c_out)
    del z  # before the activation's temporary
    y = y.reshape(n_vertices, batch, c_out)
    y += b.data
    active = None  # a linear conv keeps no output in its backward
    if slope is not None:
        ad._record_hinge(y)
        np.maximum(y, slope * y, out=y)
        active = y

    def grads(g: np.ndarray) -> tuple[np.ndarray | None, ...]:
        if active is not None:
            # The byte mask picks slope or 1 per entry: g * where(y > 0, 1, slope).
            g = g * np.array([slope, 1.0]).take((active > 0.0).view(np.uint8))
        g = np.ascontiguousarray(g).reshape(n_vertices * batch, c_out)
        g_wide = g.reshape(n_vertices, batch * c_out)
        dw = np.empty_like(w.data)  # in the parameter's own layout
        # Per input: its gradient and one temporary, None when it needs no
        # gradient (the input layer's x: skip the largest products).
        d_in: list[np.ndarray | None] = [None] * len(inputs)
        tmp: list[np.ndarray | None] = [None] * len(inputs)
        for k in range(N_OPERATORS):
            dz = g if k == 0 else (ops.blocks_t[k - 1] @ g_wide).reshape(g.shape)
            for i, (t, rows, cols, adjoint) in enumerate(inputs):
                d = dz if adjoint is None else (adjoint @ dz.reshape(n_vertices, -1)).reshape(-1, c_out)
                np.matmul(rows.T, d, out=dw[k, cols])
                if not t.requires_grad:
                    continue
                w_t = w.data[k, cols].T  # W_k[rows of this input]^T, a view
                if k == 0:
                    d_in[i], tmp[i] = d @ w_t, np.empty_like(rows)
                else:
                    d_in[i] += np.matmul(d, w_t, out=tmp[i])
            del dz, d  # before the next block's product: one dz at a time
        d_inputs = (None if grad is None else grad.reshape(t.data.shape) for grad, (t, *_) in zip(d_in, inputs))
        return (*d_inputs, dw, g.sum(axis=0))

    return ad._op(y, (*(t for t, *_ in inputs), w, b), grads)


def mesh_pool(pool_map: PoolMap, x: Tensor) -> Tensor:
    if x.data.ndim != 3 or x.data.shape[0] != pool_map.pool_matrix.shape[1]:
        raise ValueError(
            f"mesh_pool: vertex-major input {x.data.shape}, map expects "
            f"V_fine={pool_map.pool_matrix.shape[1]}"
        )
    return ad.sparse_matmul(pool_map.pool_matrix, x)
