import numpy as np
import pytest

from brainsurf.autodiff import ShapeMismatch, backward, grad_check
from brainsurf.icosphere import build_hierarchy
from brainsurf.model import (
    ConfigError,
    EmptyEnsemble,
    ModelConfig,
    build_model,
    predict_ensemble,
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

    def test_init_weight_range(self, hierarchy):
        model = build_model(ModelConfig(seed=7), hierarchy)
        first = model.encoder[0][0]
        a = np.sqrt(6.0 / (first.in_channels * 4 + first.out_channels * 4))
        w = first.weights.tensor.data
        assert np.abs(w).max() <= a
        assert np.abs(w).max() > 0.5 * a  # actually fills the range
        assert np.array_equal(first.bias.tensor.data, np.zeros(first.out_channels))

    def test_param_names_unique(self, hierarchy):
        model = build_model(ModelConfig(), hierarchy)
        names = [p.name for p in model.parameters()]
        assert len(names) == len(set(names))


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
        from brainsurf.fileio import load_checkpoint, save_checkpoint

        model = build_model(ModelConfig(seed=9), hierarchy)
        rng = np.random.default_rng(9)
        x = rng.standard_normal((10, 162))
        before = model.forward(x).data
        save_checkpoint(tmp_path / "m.bin", model.param_arrays(), meta={"model": model.config.to_dict()})
        arrays, meta = load_checkpoint(tmp_path / "m.bin")
        model2 = build_model(ModelConfig.from_dict(meta["model"]), hierarchy)
        model2.load_param_arrays(arrays)
        assert np.array_equal(model2.forward(x).data, before)


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
        with pytest.raises(EmptyEnsemble):
            predict_ensemble(model, [])
