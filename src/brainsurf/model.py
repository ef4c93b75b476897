"""Mesh U-Net mapping a multi-channel connectome mesh to contrast maps.

The encoder runs two mesh convolutions per level and pools one level down
after each block; the decoder unpools, concatenates the matching encoder
features channel-wise, and runs two more convolutions.  All hidden layers
share weights across the predicted contrast channels; only the final linear
convolution separates them.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import autodiff as ad
from . import meshlayers as ml
from .autodiff import Param, ShapeMismatch, Tensor
from .fileio import ConfigError, JsonConfig
from .icosphere import MeshHierarchy, n_vertices_at_level


class EmptyEnsemble(ValueError):
    pass


@dataclass(frozen=True)
class ModelConfig(JsonConfig):
    """Desk-scale defaults: level-2 mesh (162 vertices), 10 input channels
    (two hemisphere banks of 5 ROI correlations), 4 contrasts.  Wider /
    deeper settings are reached by config only."""

    input_channels: int = 10
    output_channels: int = 4
    mesh_level: int = 2
    encoder_widths: tuple[int, ...] = (32, 64)
    bottleneck_width: int = 128
    leaky_slope: float = 0.1
    seed: int = 0

    def validate(self) -> None:
        if self.input_channels <= 0 or self.input_channels % 2 != 0:
            raise ConfigError(f"input_channels must be positive and even, got {self.input_channels}")
        if self.output_channels <= 0:
            raise ConfigError(f"output_channels must be positive, got {self.output_channels}")
        if not self.encoder_widths:
            raise ConfigError("encoder_widths must be nonempty")
        if any(w <= 0 for w in self.encoder_widths) or self.bottleneck_width <= 0:
            raise ConfigError("channel widths must be positive")
        if len(self.encoder_widths) > self.mesh_level:
            raise ConfigError(
                f"encoder depth {len(self.encoder_widths)} exceeds mesh level {self.mesh_level}: "
                "cannot pool below level 0"
            )


@dataclass
class BrainSurfCNN:
    config: ModelConfig
    encoder: list[tuple[ml.MeshConvLayer, ml.MeshConvLayer]]
    bottleneck: tuple[ml.MeshConvLayer, ml.MeshConvLayer]
    decoder: list[tuple[ml.MeshConvLayer, ml.MeshConvLayer]]
    output_layer: ml.MeshConvLayer
    hierarchy: MeshHierarchy
    _params: list[Param] = field(default_factory=list)

    def parameters(self) -> list[Param]:
        return list(self._params)

    def param_arrays(self) -> dict[str, np.ndarray]:
        return {p.name: p.tensor.data.copy() for p in self._params}

    def load_param_arrays(self, arrays: dict[str, np.ndarray]) -> None:
        for p in self._params:
            if p.name not in arrays:
                raise KeyError(f"checkpoint is missing parameter {p.name}")
            src = np.asarray(arrays[p.name], dtype=np.float64)
            if src.shape != p.tensor.data.shape:
                raise ShapeMismatch(
                    f"parameter {p.name}: checkpoint {src.shape} vs model {p.tensor.data.shape}"
                )
            p.tensor.data[...] = src

    def zero_grad(self) -> None:
        for p in self._params:
            p.tensor.zero_grad()

    def forward(self, x) -> Tensor:
        """Contrast maps [K, V] for one connectome [2M, V], or [B, K, V] for a
        batch [B, 2M, V]; inside, activations are vertex-major [V, B, C]."""
        cfg = self.config
        x = x if isinstance(x, Tensor) else Tensor(x)
        expected = (cfg.input_channels, n_vertices_at_level(cfg.mesh_level))
        if x.data.ndim not in (2, 3) or x.data.shape[-2:] != expected:
            raise ShapeMismatch(
                f"forward: input {x.data.shape}, model expects {expected} or (B, *{expected})"
            )

        slope = cfg.leaky_slope
        skips = []
        h = ml.to_vertex_major(x)
        for depth, (conv_a, conv_b) in enumerate(self.encoder):
            h = ad.leaky_relu(ml.mesh_conv(conv_a, h), slope)
            h = ad.leaky_relu(ml.mesh_conv(conv_b, h), slope)
            skips.append(h)
            h = ml.mesh_pool(self.hierarchy.pool_map(cfg.mesh_level - depth), h)

        h = ad.leaky_relu(ml.mesh_conv(self.bottleneck[0], h), slope)
        h = ad.leaky_relu(ml.mesh_conv(self.bottleneck[1], h), slope)

        for depth in reversed(range(len(self.encoder))):
            fine_level = cfg.mesh_level - depth
            h = ml.mesh_unpool(self.hierarchy.pool_map(fine_level), h)
            h = ad.concat_channels([skips[depth], h])
            conv_a, conv_b = self.decoder[depth]
            h = ad.leaky_relu(ml.mesh_conv(conv_a, h), slope)
            h = ad.leaky_relu(ml.mesh_conv(conv_b, h), slope)

        out = ml.mesh_conv(self.output_layer, h)  # linear: contrasts are signed
        return ml.from_vertex_major(out, single=x.data.ndim == 2)

    def predict(self, connectome) -> np.ndarray:
        with ad.no_grad():
            return self.forward(connectome).data


def build_model(config: ModelConfig, hierarchy: MeshHierarchy) -> BrainSurfCNN:
    """Initialize a BrainSurfCNN; weights uniform(-a, a) with
    a = sqrt(6/(fan_in+fan_out)) per layer, biases zero, fully seeded."""
    config.validate()
    if hierarchy.max_level < config.mesh_level:
        raise ConfigError(
            f"hierarchy covers levels 0..{hierarchy.max_level}, model needs {config.mesh_level}"
        )
    rng = np.random.default_rng(config.seed)
    widths = config.encoder_widths
    depth = len(widths)
    level = config.mesh_level

    encoder = []
    in_ch = config.input_channels
    for d, w in enumerate(widths):
        ops = hierarchy.ops(level - d)
        conv_a = ml.init_conv_layer(rng, f"enc{d}.conv0", in_ch, w, ops)
        conv_b = ml.init_conv_layer(rng, f"enc{d}.conv1", w, w, ops)
        encoder.append((conv_a, conv_b))
        in_ch = w

    bneck_ops = hierarchy.ops(level - depth)
    bottleneck = (
        ml.init_conv_layer(rng, "bneck.conv0", widths[-1], config.bottleneck_width, bneck_ops),
        ml.init_conv_layer(rng, "bneck.conv1", config.bottleneck_width, config.bottleneck_width, bneck_ops),
    )

    decoder: list[tuple[ml.MeshConvLayer, ml.MeshConvLayer]] = [None] * depth  # type: ignore[list-item]
    below = config.bottleneck_width
    for d in reversed(range(depth)):
        ops = hierarchy.ops(level - d)
        concat_ch = widths[d] + below
        conv_a = ml.init_conv_layer(rng, f"dec{d}.conv0", concat_ch, widths[d], ops)
        conv_b = ml.init_conv_layer(rng, f"dec{d}.conv1", widths[d], widths[d], ops)
        decoder[d] = (conv_a, conv_b)
        below = widths[d]

    output_layer = ml.init_conv_layer(
        rng, "out.conv", widths[0], config.output_channels, hierarchy.ops(level)
    )

    params: list[Param] = []
    for conv_a, conv_b in encoder + [bottleneck] + decoder:
        params += [conv_a.weights, conv_a.bias, conv_b.weights, conv_b.bias]
    params += [output_layer.weights, output_layer.bias]

    return BrainSurfCNN(
        config=config,
        encoder=encoder,
        bottleneck=bottleneck,
        decoder=decoder,
        output_layer=output_layer,
        hierarchy=hierarchy,
        _params=params,
    )


def predict_variants(model: BrainSurfCNN, samples) -> np.ndarray:
    """Predictions [S, K, V] for a subject's S connectome variants, from one
    batched no-grad forward."""
    samples = list(samples)
    if not samples:
        raise EmptyEnsemble("an ensemble needs at least one connectome sample")
    return model.predict(np.stack(samples))


def predict_ensemble(model: BrainSurfCNN, samples) -> np.ndarray:
    """Elementwise mean over the predictions for a subject's connectome
    variants (the test-time ensemble)."""
    return predict_variants(model, samples).mean(axis=0)
