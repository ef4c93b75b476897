"""Differentiable convolution, pooling, and unpooling layers on icospheres.

A mesh convolution combines four fixed sparse operators (identity, east
gradient, north gradient, Laplacian) with learned per-channel-pair weights:

    y[o] = sum_i sum_op w[o, i, op] * (op @ x[i]) + bias[o]

optionally followed, in the same graph node, by the leaky ReLU
max(y, slope*y).  Pooling and unpooling are the fixed linear maps carried
by a PoolMap.

Layers work on vertex-major batches [V, B, C] (C-contiguous), so every sparse
operator applies to x viewed as [V, B*C] without a transpose or a copy.  They
also take one subject in the channel-major [C, V] layout of the files and
return [C', V'].
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import Param, ShapeMismatch, Tensor
from .icosphere import MeshOperators, PoolMap

N_OPERATORS = 4


@dataclass(frozen=True)
class MeshConvLayer:
    in_channels: int
    out_channels: int
    level: int
    weights: Param  # [out, in, 4], operator order (I, grad_ew, grad_ns, laplacian)
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
    fan_in = in_channels * N_OPERATORS
    fan_out = out_channels * N_OPERATORS
    a = np.sqrt(6.0 / (fan_in + fan_out))
    w = rng.uniform(-a, a, size=(out_channels, in_channels, N_OPERATORS))
    return MeshConvLayer(
        in_channels=in_channels,
        out_channels=out_channels,
        level=operators.level,
        weights=Param(f"{name}.weight", Tensor(w, requires_grad=True)),
        bias=Param(f"{name}.bias", Tensor(np.zeros(out_channels), requires_grad=True)),
        operators=operators,
    )


def to_vertex_major(x) -> Tensor:
    """One subject [C, V] or a batch [B, C, V] -> vertex-major [V, B, C]
    (B = 1 for one subject)."""
    x = x if isinstance(x, Tensor) else Tensor(x)
    c, v = x.data.shape[-2:]
    return ad.transpose(x, (x.data.ndim - 1, *range(x.data.ndim - 1)), (v, -1, c))


def from_vertex_major(x: Tensor, single: bool) -> Tensor:
    """Vertex-major [V, B, C] -> [B, C, V], or [C, V] when ``single``."""
    v, b, c = x.data.shape
    return ad.transpose(x, (1, 2, 0), (c, v) if single else (b, c, v))


def _vertex_major(layer_fn):
    # Lets a layer written for [V, B, C] batches also take one [C, V] subject.
    @functools.wraps(layer_fn)
    def apply(op, x, *args, **kwargs) -> Tensor:
        x = x if isinstance(x, Tensor) else Tensor(x)
        if x.data.ndim != 2:
            return layer_fn(op, x, *args, **kwargs)
        return from_vertex_major(layer_fn(op, to_vertex_major(x), *args, **kwargs), single=True)

    return apply


@_vertex_major
def mesh_conv(layer: MeshConvLayer, x, slope: float | None = None) -> Tensor:
    """One graph node: contract the weights first, z_k = x W_k, then apply
    the horizontally stacked operator once, y = [I | grad_ew | grad_ns | L] z,
    and add the bias.  With a ``slope`` in [0, 1], y becomes max(y, slope*y)
    in place: for finite y, y where y > 0 and slope*y elsewhere, signed zeros
    included.  The pre-activation is not kept: y > 0 after the activation
    exactly where it was before, so the backward takes its mask from the
    output.

    The backward runs one operator block S_k at a time, dz_k = S_k^T g
    (dz_0 = g), so it never holds more than one block's dz: dW_k = x^T dz_k,
    and dx = sum_k dz_k W_k^T is added up block by block in one buffer."""
    ops = layer.operators
    n_vertices = ops.identity.shape[0]
    if x.data.ndim != 3 or x.data.shape[0] != n_vertices or x.data.shape[2] != layer.in_channels:
        raise ShapeMismatch(
            f"mesh_conv: vertex-major input {x.data.shape}, layer expects "
            f"{(n_vertices, 'B', layer.in_channels)}"
        )
    batch = x.data.shape[1]
    c_out = layer.out_channels
    w, b = layer.weights.tensor, layer.bias.tensor
    w4 = w.data.transpose(2, 1, 0)  # [4, in, out] view of the [out, in, 4] weights
    rows = x.data.reshape(n_vertices * batch, layer.in_channels)
    z = np.matmul(rows[None], w4)  # [4, V*B, out]
    y = ops.conv @ z.reshape(N_OPERATORS * n_vertices, batch * c_out)
    y = y.reshape(n_vertices, batch, c_out)
    y += b.data
    active = None  # a linear conv keeps no output in its backward
    if slope is not None:
        ad._record_hinge(y)
        np.maximum(y, slope * y, out=y)
        active = y

    def grads(g: np.ndarray) -> tuple[np.ndarray | None, np.ndarray, np.ndarray]:
        if active is not None:
            # The byte mask picks slope or 1 per entry: g * where(y > 0, 1, slope).
            g = g * np.array([slope, 1.0]).take((active > 0.0).view(np.uint8))
        g = np.ascontiguousarray(g).reshape(n_vertices * batch, c_out)
        dw = np.empty((N_OPERATORS, layer.in_channels, c_out))
        np.matmul(rows.T, g, out=dw[0])
        dx = tmp = None  # the input layer's x needs none: skip the largest products
        if x.requires_grad:
            w_t = np.ascontiguousarray(w4.transpose(0, 2, 1))  # [4, out, in]: W_k^T
            dx, tmp = g @ w_t[0], np.empty_like(rows)
        g_wide = g.reshape(n_vertices, batch * c_out)
        for k, block_t in enumerate(ops.blocks_t, start=1):
            dz = (block_t @ g_wide).reshape(g.shape)
            np.matmul(rows.T, dz, out=dw[k])
            if dx is not None:
                dx += np.matmul(dz, w_t[k], out=tmp)
            del dz  # before the next block's product: one dz at a time
        return (
            None if dx is None else dx.reshape(x.data.shape),
            dw.transpose(2, 1, 0),
            g.sum(axis=0),
        )

    return ad._op(y, (x, w, b), grads)


@_vertex_major
def mesh_pool(pool_map: PoolMap, x) -> Tensor:
    if x.data.ndim != 3 or x.data.shape[0] != pool_map.pool_matrix.shape[1]:
        raise ShapeMismatch(
            f"mesh_pool: vertex-major input {x.data.shape}, map expects "
            f"V_fine={pool_map.pool_matrix.shape[1]}"
        )
    return ad.sparse_matmul(pool_map.pool_matrix, x)


@_vertex_major
def mesh_unpool(pool_map: PoolMap, x) -> Tensor:
    if x.data.ndim != 3 or x.data.shape[0] != pool_map.unpool_matrix.shape[1]:
        raise ShapeMismatch(
            f"mesh_unpool: vertex-major input {x.data.shape}, map expects "
            f"V_coarse={pool_map.unpool_matrix.shape[1]}"
        )
    return ad.sparse_matmul(pool_map.unpool_matrix, x)
