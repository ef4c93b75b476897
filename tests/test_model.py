import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from brainsurf.autodiff import EmptySet, ShapeMismatch, adam_step, backward, grad_check, no_grad
from brainsurf.fileio import CorruptFile, load_checkpoint, save_checkpoint
from brainsurf.icosphere import build_hierarchy, n_vertices_at_level
from brainsurf.model import (
    ConfigError,
    ModelConfig,
    build_model,
    load_model,
    predict_ensemble,
    save_model,
)
from brainsurf.rcloss import Margins, rc_loss


@pytest.fixture(scope="module")
def hierarchy():
    return build_hierarchy(2)


class TestBuildModel:
    def test_forward_output_shape(self, hierarchy):
        cfg = ModelConfig(input_channels=10, output_channels=4, mesh_level=2, encoder_widths=(16, 32))
        model = build_model(cfg, hierarchy)
        out = model.forward(np.zeros((10, 162)))
        assert out.shape == (4, 162)

    def test_same_seed_identical_params(self, hierarchy):
        cfg = ModelConfig(seed=42)
        a = build_model(cfg, hierarchy)
        b = build_model(cfg, hierarchy)
        for pa, pb in zip(a.parameters(), b.parameters()):
            assert pa.name == pb.name
            assert np.array_equal(pa.tensor.data, pb.tensor.data)

    def test_different_seed_differs(self, hierarchy):
        a = build_model(ModelConfig(seed=0), hierarchy)
        b = build_model(ModelConfig(seed=1), hierarchy)
        assert not np.array_equal(a.parameters()[0].tensor.data, b.parameters()[0].tensor.data)

    def test_depth_beyond_mesh_level_rejected(self, hierarchy):
        with pytest.raises(ConfigError):
            ModelConfig(mesh_level=2, encoder_widths=(8, 16, 32)).validate()

    def test_odd_input_channels_rejected(self):
        with pytest.raises(ConfigError):
            ModelConfig(input_channels=9).validate()

    @pytest.mark.parametrize("slope", [-0.1, 1.5, float("nan"), float("inf")])
    def test_leaky_slope_outside_unit_interval_rejected(self, slope):
        # mesh_conv's activation computes max(y, slope*y), which is leaky only for a slope in [0, 1].
        with pytest.raises(ConfigError, match="leaky_slope"):
            ModelConfig(leaky_slope=slope).validate()

    @pytest.mark.parametrize("slope", [0.0, 1.0])
    def test_leaky_slope_bounds_accepted(self, slope):
        ModelConfig(leaky_slope=slope).validate()

    def test_init_weight_range(self, hierarchy):
        model = build_model(ModelConfig(seed=7), hierarchy)
        first = model.encoder[0][0]
        a = np.sqrt(6.0 / (first.in_channels * 4 + first.out_channels * 4))
        w = first.weights.tensor.data
        assert np.abs(w).max() <= a
        assert np.abs(w).max() > 0.5 * a  # actually fills the range
        assert np.array_equal(first.bias.tensor.data, np.zeros(first.out_channels))

    @pytest.mark.parametrize("depth", [2, 3])
    def test_parameter_order_pinned(self, depth):
        # The checkpoint's order: encoder shallow to deep, bottleneck, decoder
        # shallow to deep, output; weight before bias in each conv.
        cfg = ModelConfig() if depth == 2 else ModelConfig(mesh_level=3, encoder_widths=(4, 8, 16))
        model = build_model(cfg, build_hierarchy(cfg.mesh_level))
        convs = {
            2: ["enc0.conv0", "enc0.conv1", "enc1.conv0", "enc1.conv1", "bneck.conv0", "bneck.conv1",
                "dec0.conv0", "dec0.conv1", "dec1.conv0", "dec1.conv1", "out.conv"],
            3: ["enc0.conv0", "enc0.conv1", "enc1.conv0", "enc1.conv1", "enc2.conv0", "enc2.conv1",
                "bneck.conv0", "bneck.conv1", "dec0.conv0", "dec0.conv1", "dec1.conv0", "dec1.conv1",
                "dec2.conv0", "dec2.conv1", "out.conv"],
        }[depth]
        assert [p.name for p in model.parameters()] == [f"{c}.{p}" for c in convs for p in ("weight", "bias")]

    def test_param_names_unique(self, hierarchy):
        model = build_model(ModelConfig(), hierarchy)
        names = [p.name for p in model.parameters()]
        assert len(names) == len(set(names))


def assert_arena_views(model):
    arena = model.arena
    offset = 0
    for p in model.parameters():
        n = p.tensor.data.size
        assert np.shares_memory(p.tensor.data, arena.data[offset : offset + n])
        assert np.shares_memory(p.tensor.grad, arena.grad[offset : offset + n])
        offset += n
    assert offset == arena.data.size == arena.grad.size
    assert np.array_equal(arena.data, np.concatenate([a.ravel() for a in model.param_arrays().values()]))


class TestParamArena:
    """Every parameter's data and gradient are views of the model's two flat
    buffers, in parameters() (and checkpoint) order."""

    @settings(max_examples=10, deadline=None)
    @given(
        widths=st.lists(st.integers(1, 6), min_size=1, max_size=2),
        bottleneck=st.integers(1, 6),
        channels=st.integers(1, 3),
        seed=st.integers(0, 1000),
    )
    def test_views_survive_a_step_and_grad_check(self, hierarchy, widths, bottleneck, channels, seed):
        cfg = ModelConfig(
            input_channels=2 * channels, output_channels=channels, mesh_level=2,
            encoder_widths=tuple(widths), bottleneck_width=bottleneck, seed=seed,
        )
        model = build_model(cfg, hierarchy)
        assert_arena_views(model)
        rng = np.random.default_rng(seed)
        xs = rng.standard_normal((2, 2 * channels, 162))
        ts = rng.standard_normal((2, channels, 162))

        def f():
            return rc_loss(model.forward(xs), ts, Margins(0.0, 1.0)).l_rc

        model.zero_grad()
        backward(f())
        assert np.array_equal(
            model.arena.grad, np.concatenate([p.tensor.grad.ravel() for p in model.parameters()])
        )
        adam_step(model.arena.data, model.arena.grad, None)
        assert_arena_views(model)
        grad_check(f, model.parameters(), max_coords=5, seed=seed)  # zeroes the views in place
        assert_arena_views(model)
        assert not model.arena.grad.any()
        backward(f())
        model.zero_grad()
        assert_arena_views(model)
        assert not model.arena.grad.any()

    def test_load_param_arrays_writes_into_the_arena(self, hierarchy):
        a = build_model(ModelConfig(seed=1), hierarchy)
        b = build_model(ModelConfig(seed=2), hierarchy)
        b.load_param_arrays(a.param_arrays())
        assert np.array_equal(b.arena.data, a.arena.data)
        assert_arena_views(b)


class TestForward:
    def test_zero_input_is_finite_and_deterministic(self, hierarchy):
        model = build_model(ModelConfig(seed=3), hierarchy)
        a = model.forward(np.zeros((10, 162))).data
        b = model.forward(np.zeros((10, 162))).data
        assert np.isfinite(a).all()
        assert np.array_equal(a, b)

    def test_shape_mismatch(self, hierarchy):
        model = build_model(ModelConfig(), hierarchy)
        with pytest.raises(ShapeMismatch):
            model.forward(np.zeros((10, 42)))

    def test_distinct_inputs_distinct_outputs(self, hierarchy):
        model = build_model(ModelConfig(seed=5), hierarchy)
        rng = np.random.default_rng(5)
        a = model.forward(rng.standard_normal((10, 162))).data
        b = model.forward(rng.standard_normal((10, 162))).data
        assert np.abs(a - b).max() > 1e-6

    def test_checkpoint_roundtrip_preserves_outputs(self, hierarchy, tmp_path):
        model = build_model(ModelConfig(seed=9), hierarchy)
        rng = np.random.default_rng(9)
        x = rng.standard_normal((10, 162))
        before = model.forward(x).data
        save_model(tmp_path / "m.bin", model)
        model2 = load_model(tmp_path / "m.bin")
        assert model2.config == model.config
        assert np.array_equal(model2.forward(x).data, before)


class TestModelFile:
    @pytest.fixture()
    def saved(self, hierarchy, tmp_path):
        save_model(tmp_path / "m.bin", build_model(ModelConfig(seed=4), hierarchy))
        return load_checkpoint(tmp_path / "m.bin")

    def rewritten(self, tmp_path, arrays, meta):
        save_checkpoint(tmp_path / "bad.bin", arrays, meta=meta)
        return tmp_path / "bad.bin"

    def test_no_model_meta(self, saved, tmp_path):
        arrays, _ = saved
        with pytest.raises(CorruptFile, match="not a model checkpoint"):
            load_model(self.rewritten(tmp_path, arrays, {"n_parcels": 4}))

    def test_missing_parameter(self, saved, tmp_path):
        arrays, meta = saved
        del arrays["out.conv.bias"]
        with pytest.raises(CorruptFile, match="missing parameter out.conv.bias"):
            load_model(self.rewritten(tmp_path, arrays, meta))

    def test_misshapen_parameter(self, saved, tmp_path):
        arrays, meta = saved
        arrays["out.conv.bias"] = np.zeros(7)
        with pytest.raises(CorruptFile, match="out.conv.bias"):
            load_model(self.rewritten(tmp_path, arrays, meta))

    def test_invalid_model_meta(self, saved, tmp_path):
        arrays, meta = saved
        with pytest.raises(CorruptFile, match="leaky_slope"):
            load_model(self.rewritten(tmp_path, arrays, {"model": {**meta["model"], "leaky_slope": 2.0}}))


def max_rel(a, b):
    return float(np.abs(a - b).max() / np.abs(b).max())


class TestBatching:
    """One batched graph computes what the per-subject graphs computed."""

    def test_batch_forward_equals_stacked_single_forwards(self, hierarchy):
        model = build_model(ModelConfig(seed=17), hierarchy)
        xs = np.random.default_rng(17).standard_normal((3, 10, 162))
        batched = model.forward(xs).data
        assert batched.shape == (3, 4, 162)
        assert max_rel(batched, np.stack([model.forward(x).data for x in xs])) <= 1e-12

    def test_batch_shape_mismatch(self, hierarchy):
        model = build_model(ModelConfig(), hierarchy)
        with pytest.raises(ShapeMismatch):
            model.forward(np.zeros((2, 10, 42)))

    def test_rc_loss_gradients_batched_equal_per_subject(self, hierarchy):
        cfg = ModelConfig(encoder_widths=(8, 16), bottleneck_width=32, seed=18)
        model = build_model(cfg, hierarchy)
        rng = np.random.default_rng(18)
        xs = rng.standard_normal((3, 10, 162))
        ts = rng.standard_normal((3, 4, 162))

        def loss_and_grads(preds):
            out = rc_loss(preds, ts, Margins(0.0, 1.0))
            model.zero_grad()
            backward(out.l_rc)
            return out.l_rc.item(), [p.tensor.grad.copy() for p in model.parameters()]

        loss_b, grads_b = loss_and_grads(model.forward(xs))
        loss_s, grads_s = loss_and_grads([model.forward(x) for x in xs])
        assert abs(loss_b - loss_s) <= 1e-12 * abs(loss_s)
        for gb, gs in zip(grads_b, grads_s):
            assert max_rel(gb, gs) <= 1e-12


class TestGradCheckEndToEnd:
    def test_full_model_through_rc_loss(self, hierarchy):
        # Smaller widths keep the subsampled finite-difference pass fast.
        cfg = ModelConfig(encoder_widths=(8, 16), bottleneck_width=32, seed=11)
        model = build_model(cfg, hierarchy)
        rng = np.random.default_rng(11)
        xs = [rng.standard_normal((10, 162)) for _ in range(2)]
        ts = [rng.standard_normal((4, 162)) for _ in range(2)]

        def f():
            return rc_loss([model.forward(x) for x in xs], ts, Margins(0.0, 1.0)).l_rc

        err = grad_check(f, model.parameters(), max_coords=100, seed=1)
        assert err < 1e-4


class TestPredictEnsemble:
    def test_single_sample_equals_forward(self, hierarchy):
        model = build_model(ModelConfig(seed=13), hierarchy)
        x = np.random.default_rng(13).standard_normal((10, 162))
        assert np.array_equal(predict_ensemble(model, [x]), model.forward(x).data)

    def test_identical_samples_equal_any_forward(self, hierarchy):
        model = build_model(ModelConfig(seed=14), hierarchy)
        x = np.random.default_rng(14).standard_normal((10, 162))
        out = predict_ensemble(model, [x.copy() for _ in range(8)])
        assert np.allclose(out, model.forward(x).data, atol=1e-14)

    def test_eight_distinct_samples_average(self, hierarchy):
        model = build_model(ModelConfig(seed=15), hierarchy)
        rng = np.random.default_rng(15)
        samples = [rng.standard_normal((10, 162)) for _ in range(8)]
        out = predict_ensemble(model, samples)
        manual = np.mean([model.predict(s) for s in samples], axis=0)
        assert max_rel(out, manual) <= 1e-12

    def test_empty_ensemble(self, hierarchy):
        model = build_model(ModelConfig(seed=16), hierarchy)
        with pytest.raises(EmptySet):
            predict_ensemble(model, [])


class TestPredictChunks:
    """``predict`` runs a batch in chunks whose top-level conv intermediate
    fits the cache budget; the result is the full-batch forward's."""

    @pytest.mark.parametrize("cfg, batch, sizes", [
        (ModelConfig(), 8, [8]),  # desk: 12 samples fit
        (ModelConfig(input_channels=100, output_channels=47, mesh_level=3), 8, [2, 2, 2, 2]),
        (ModelConfig(mesh_level=4), 3, [1, 1, 1]),  # one sample exceeds the budget
    ])
    def test_forward_batch_sizes(self, monkeypatch, cfg, batch, sizes):
        model = build_model(cfg, build_hierarchy(cfg.mesh_level))
        shape = (batch, cfg.input_channels, n_vertices_at_level(cfg.mesh_level))
        x = np.random.default_rng(19).standard_normal(shape)
        seen = []
        forward = model.forward

        def spy(chunk):
            seen.append(len(chunk))
            return forward(chunk)

        monkeypatch.setattr(model, "forward", spy)
        out = model.predict(x)
        assert seen == sizes
        monkeypatch.undo()
        with no_grad():
            full = model.forward(x).data
        assert out.shape == full.shape and max_rel(out, full) <= 1e-12

    def test_batch_shape_mismatch_names_the_whole_batch(self, hierarchy):
        model = build_model(ModelConfig(), hierarchy)
        with pytest.raises(ShapeMismatch, match=r"input \(5, 10, 42\)"):
            model.predict(np.zeros((5, 10, 42)))
