"""Mesh U-Net mapping a multi-channel connectome mesh to contrast maps.

The encoder runs two mesh convolutions per level and pools one level down
after each block; the decoder runs two more convolutions per level, the
first of which reads the matching encoder features and the unpooled coarser
features as one channel concatenation [skip | unpooled] without forming it:
it contracts the coarse channels on the coarse mesh and unpools the result,
since unpooling commutes with the channel contraction.  All hidden layers
share weights across the predicted contrast channels; only the final linear
convolution separates them.  The parameters live in one ``ParamArena``: their
data and their gradients are views of two flat vectors, in ``parameters()``
order, which is also the checkpoint's order.  A model checkpoint holds those
arrays with the model's config as its ``model`` meta; ``save_model`` and
``load_model`` are the only code that knows this.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from . import meshlayers as ml
from .autodiff import EmptySet, Param, ParamArena, ShapeMismatch, Tensor
from .fileio import ConfigError, CorruptFile, JsonConfig, load_checkpoint, save_checkpoint
from .icosphere import MeshHierarchy, build_hierarchy, n_vertices_at_level


# Bytes of one conv intermediate that a no-grad forward may hold: about one
# L2 cache.  A larger one is page-faulted in anew by every conv, which costs
# more than the per-forward overhead of a smaller batch.
_PREDICT_BUDGET = 2 * 1024 * 1024


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
    leaky_slope: float = 0.1  # in [0, 1]: each hidden conv ends in max(y, slope*y)
    seed: int = 0

    def validate(self) -> None:
        if not 0.0 <= self.leaky_slope <= 1.0:  # NaN fails too
            raise ConfigError(f"leaky_slope must be in [0, 1], got {self.leaky_slope}")
        if self.input_channels <= 0 or self.input_channels % 2 != 0:
            raise ConfigError(f"input_channels must be positive and even, got {self.input_channels}")
        if self.output_channels <= 0:
            raise ConfigError(f"output_channels must be positive, got {self.output_channels}")
        if not self.encoder_widths:
            raise ConfigError("encoder_widths must be nonempty")
        if any(w <= 0 for w in self.encoder_widths) or self.bottleneck_width <= 0:
            raise ConfigError("channel widths must be positive")
        if self.seed < 0:
            raise ConfigError(f"model seed must be >= 0, got {self.seed}")
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
    arena: ParamArena

    def parameters(self) -> list[Param]:
        return list(self.arena.params)

    def param_arrays(self) -> dict[str, np.ndarray]:
        return {p.name: p.tensor.data.copy() for p in self.arena.params}

    def load_param_arrays(self, arrays: dict[str, np.ndarray]) -> None:
        for p in self.arena.params:
            if p.name not in arrays:
                raise ShapeMismatch(f"checkpoint is missing parameter {p.name}")
            src = np.asarray(arrays[p.name], dtype=np.float64)
            if src.shape != p.tensor.data.shape:
                raise ShapeMismatch(
                    f"parameter {p.name}: checkpoint {src.shape} vs model {p.tensor.data.shape}"
                )
            p.tensor.data[...] = src

    def zero_grad(self) -> None:
        self.arena.zero_grad()

    def _check_input(self, shape: tuple[int, ...]) -> None:
        expected = (self.config.input_channels, n_vertices_at_level(self.config.mesh_level))
        if len(shape) not in (2, 3) or shape[-2:] != expected:
            raise ShapeMismatch(f"forward: input {shape}, model expects {expected} or (B, *{expected})")

    def forward(self, x) -> Tensor:
        """Contrast maps [K, V] for one connectome [2M, V], or [B, K, V] for a
        batch [B, 2M, V]; inside, activations are vertex-major [V, B, C]."""
        cfg = self.config
        x = x if isinstance(x, Tensor) else Tensor(x)
        self._check_input(x.data.shape)

        slope = cfg.leaky_slope
        skips = []
        h = ml.to_vertex_major(x)
        for depth, (conv_a, conv_b) in enumerate(self.encoder):
            h = ml.mesh_conv(conv_a, h, slope)
            h = ml.mesh_conv(conv_b, h, slope)
            skips.append(h)
            h = ml.mesh_pool(self.hierarchy.pool_map(cfg.mesh_level - depth), h)

        h = ml.mesh_conv(self.bottleneck[0], h, slope)
        h = ml.mesh_conv(self.bottleneck[1], h, slope)

        for depth in reversed(range(len(self.encoder))):
            # The first conv reads [skip | unpooled h] without forming it.
            conv_a, conv_b = self.decoder[depth]
            up = (self.hierarchy.pool_map(cfg.mesh_level - depth), h)
            h = ml.mesh_conv(conv_a, skips[depth], slope, coarse=up)
            h = ml.mesh_conv(conv_b, h, slope)

        out = ml.mesh_conv(self.output_layer, h)  # linear: contrasts are signed
        return ml.from_vertex_major(out, single=x.data.ndim == 2)

    def predict(self, connectome: np.ndarray) -> np.ndarray:
        """No-grad ``forward`` of one connectome [2M, V] or a batch [B, 2M, V].
        A batch runs in consecutive chunks of as many samples as keep a
        top-level conv's float64 intermediate [4, V·chunk, C] within
        ``_PREDICT_BUDGET`` bytes (C the wider of the first encoder and the
        output conv), at least 1.  Output rows do not depend on each other,
        so the result is the full-batch forward's."""
        cfg = self.config
        x = np.asarray(connectome)
        self._check_input(x.shape)
        with ad.no_grad():
            if x.ndim == 2:
                return self.forward(x).data
            per_sample = 8 * ml.N_OPERATORS * x.shape[-1] * max(cfg.encoder_widths[0], cfg.output_channels)
            c = max(1, _PREDICT_BUDGET // per_sample)
            return np.concatenate([self.forward(x[i : i + c]).data for i in range(0, len(x), c)])


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

    def pair(name: str, in_ch: int, out_ch: int, d: int) -> tuple[ml.MeshConvLayer, ml.MeshConvLayer]:
        ops = hierarchy.ops(level - d)
        conv0 = ml.init_conv_layer(rng, f"{name}.conv0", in_ch, out_ch, ops)
        return conv0, ml.init_conv_layer(rng, f"{name}.conv1", out_ch, out_ch, ops)

    # The call order is the RNG draw order, so it fixes every initial weight:
    # encoder shallow to deep, bottleneck, decoder deep to shallow, output.
    ins = (config.input_channels,) + widths
    encoder = [pair(f"enc{d}", ins[d], w, d) for d, w in enumerate(widths)]
    bottleneck = pair("bneck", widths[-1], config.bottleneck_width, depth)
    below = widths[1:] + (config.bottleneck_width,)  # channels unpooled into each level
    decoder = [pair(f"dec{d}", widths[d] + below[d], widths[d], d) for d in reversed(range(depth))][::-1]
    output_layer = ml.init_conv_layer(
        rng, "out.conv", widths[0], config.output_channels, hierarchy.ops(level)
    )

    convs = [conv for block in encoder + [bottleneck] + decoder for conv in block] + [output_layer]
    params: list[Param] = [p for conv in convs for p in (conv.weights, conv.bias)]

    return BrainSurfCNN(
        config=config,
        encoder=encoder,
        bottleneck=bottleneck,
        decoder=decoder,
        output_layer=output_layer,
        hierarchy=hierarchy,
        arena=ParamArena(params),
    )


def save_model(path, model: BrainSurfCNN) -> None:
    save_checkpoint(path, model.param_arrays(), meta={"model": model.config.to_dict()})


def read_model_checkpoint(path) -> tuple[ModelConfig, dict[str, np.ndarray]]:
    """The config and the arrays of a ``save_model`` checkpoint, before any
    model is built; ``CorruptFile`` when the file is no such checkpoint."""
    arrays, meta = load_checkpoint(path)
    if not isinstance(meta.get("model"), dict):
        raise CorruptFile(f"{path}: not a model checkpoint (its header has no 'model' meta)")
    try:
        return ModelConfig.from_dict(meta["model"]), arrays
    except (TypeError, ValueError) as exc:
        raise CorruptFile(f"{path}: {exc}") from exc


def load_model(path) -> BrainSurfCNN:
    """The model a ``save_model`` checkpoint holds; ``CorruptFile`` when the
    file is no such checkpoint or its arrays do not fit its config."""
    config, arrays = read_model_checkpoint(path)
    try:
        model = build_model(config, build_hierarchy(config.mesh_level))
        model.load_param_arrays(arrays)
    except (TypeError, ValueError) as exc:
        raise CorruptFile(f"{path}: {exc}") from exc
    return model


def predict_variants(model: BrainSurfCNN, samples) -> np.ndarray:
    """Predictions [S, K, V] for a subject's S connectome variants, from
    ``model.predict`` of their stack."""
    samples = list(samples)
    if not samples:
        raise EmptySet("an ensemble needs at least one connectome sample")
    return model.predict(np.stack(samples))


def predict_ensemble(model: BrainSurfCNN, samples) -> np.ndarray:
    """Elementwise mean over the predictions for a subject's connectome
    variants (the test-time ensemble)."""
    return predict_variants(model, samples).mean(axis=0)
