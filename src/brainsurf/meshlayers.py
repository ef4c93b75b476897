"""Differentiable convolution, pooling, and unpooling layers on icospheres.

A mesh convolution combines four fixed sparse operators (identity, east
gradient, north gradient, Laplacian) with learned per-channel-pair weights:

    y[o] = sum_i sum_op w[o, i, op] * (op @ x[i]) + bias[o]

Pooling and unpooling are the fixed linear maps carried by a PoolMap.

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
from .autodiff import Param, ShapeMismatch, Tensor, _accumulate, _result
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
    def apply(op, x) -> Tensor:
        x = x if isinstance(x, Tensor) else Tensor(x)
        if x.data.ndim != 2:
            return layer_fn(op, x)
        return from_vertex_major(layer_fn(op, to_vertex_major(x)), single=True)

    return apply


@_vertex_major
def mesh_conv(layer: MeshConvLayer, x) -> Tensor:
    """One graph node: contract the weights first, z_k = x W_k, then apply
    the horizontally stacked operator once, y = [I | grad_ew | grad_ns | L] z."""
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
    out = _result(y, (x, w, b))
    if out._parents:
        def backward(g: np.ndarray) -> None:
            dz = ops.conv_t @ g.reshape(n_vertices, batch * c_out)
            dz = dz.reshape(N_OPERATORS, n_vertices * batch, c_out)
            _accumulate(w, np.matmul(rows.T, dz).transpose(2, 1, 0))
            _accumulate(b, g.reshape(-1, c_out).sum(axis=0))
            if x.requires_grad:
                dx = np.tensordot(dz, w4, axes=([0, 2], [0, 2]))  # sum_k dz_k W_k^T
                _accumulate(x, dx.reshape(x.data.shape))
        out._backward_fn = backward
    return out


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
