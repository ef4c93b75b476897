"""Differentiable convolution, pooling, and unpooling layers on icospheres.

A mesh convolution combines four fixed sparse operators (identity, east
gradient, north gradient, Laplacian) with learned per-channel-pair weights:

    y[o] = sum_i sum_op w[o, i, op] * (op @ x[i]) + bias[o]

Pooling and unpooling are the fixed linear maps carried by a PoolMap.
"""

from __future__ import annotations

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


def mesh_conv(layer: MeshConvLayer, x) -> Tensor:
    x = x if isinstance(x, Tensor) else Tensor(x)
    n_vertices = layer.operators.identity.shape[0]
    if x.data.shape != (layer.in_channels, n_vertices):
        raise ShapeMismatch(
            f"mesh_conv: input {x.data.shape}, layer expects "
            f"{(layer.in_channels, n_vertices)}"
        )
    # One fused pass: apply all four stacked operators, then contract the
    # (channel, operator) axis pair against the matching weight layout.
    ops_applied = ad.sparse_matmul(layer.operators.stacked, x)  # [C_in, 4V]
    ops_applied = ad.reshape(ops_applied, (layer.in_channels * N_OPERATORS, n_vertices))
    w = ad.reshape(layer.weights.tensor, (layer.out_channels, layer.in_channels * N_OPERATORS))
    return ad.add_bias(ad.matmul(w, ops_applied), layer.bias.tensor)


def mesh_pool(pool_map: PoolMap, x) -> Tensor:
    x = x if isinstance(x, Tensor) else Tensor(x)
    if x.data.ndim != 2 or x.data.shape[1] != pool_map.pool_matrix.shape[1]:
        raise ShapeMismatch(
            f"mesh_pool: input {x.data.shape}, map expects V_fine={pool_map.pool_matrix.shape[1]}"
        )
    return ad.sparse_matmul(pool_map.pool_matrix, x)


def mesh_unpool(pool_map: PoolMap, x) -> Tensor:
    x = x if isinstance(x, Tensor) else Tensor(x)
    if x.data.ndim != 2 or x.data.shape[1] != pool_map.unpool_matrix.shape[1]:
        raise ShapeMismatch(
            f"mesh_unpool: input {x.data.shape}, map expects "
            f"V_coarse={pool_map.unpool_matrix.shape[1]}"
        )
    return ad.sparse_matmul(pool_map.unpool_matrix, x)
