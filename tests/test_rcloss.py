import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from brainsurf import autodiff as ad
from brainsurf.autodiff import ShapeMismatch, Tensor, backward
from brainsurf.icosphere import build_hierarchy
from brainsurf.model import ModelConfig, build_model
from brainsurf.rcloss import (
    BatchTooSmall,
    EmptySet,
    Margins,
    distance,
    init_margins,
    rc_loss,
    schedule_margins,
)


def brute_force_rc(preds, targets, alpha, beta):
    """Independent oracle: explicit pair enumeration with plain numpy."""
    n = len(preds)
    d = lambda a, b: np.mean((a - b) ** 2)
    l_r = sum(d(preds[i], targets[i]) for i in range(n)) / n
    cross = [d(preds[i], targets[j]) for i in range(n) for j in range(n) if i != j]
    l_c = sum(cross) / len(cross)
    l_rc = max(l_r - alpha, 0.0) + max(l_r - l_c + beta, 0.0)
    return l_r, l_c, l_rc


class TestDistance:
    def test_zero_for_identical(self):
        x = np.random.default_rng(0).standard_normal((4, 162))
        assert distance(x, x).item() == 0.0

    def test_ones_vs_zeros(self):
        assert distance(np.zeros((2, 12)), np.ones((2, 12))).item() == 1.0

    def test_matches_two_line_recomputation(self):
        rng = np.random.default_rng(1)
        a, b = rng.standard_normal((2, 3, 20))
        expected = float(np.mean((a - b) ** 2))
        assert abs(distance(a, b).item() - expected) < 1e-12

    def test_shape_mismatch(self):
        with pytest.raises(ShapeMismatch):
            distance(np.zeros((2, 3)), np.zeros((3, 2)))


class TestRcLoss:
    def test_perfect_predictions_distant_targets(self):
        rng = np.random.default_rng(2)
        targets = [rng.standard_normal((2, 30)) + 5 * i for i in range(3)]
        preds = [Tensor(t.copy()) for t in targets]
        out = rc_loss(preds, targets, Margins(alpha=0.1, beta=0.5))
        assert out.l_r.item() == 0.0
        assert out.l_rc.item() == 0.0  # both hinges inactive

    def test_identical_targets_perfect_preds(self):
        t = np.random.default_rng(3).standard_normal((2, 30))
        targets = [t, t.copy()]
        preds = [Tensor(t.copy()), Tensor(t.copy())]
        beta = 0.8
        out = rc_loss(preds, targets, Margins(alpha=0.2, beta=beta))
        assert out.l_c.item() == 0.0
        assert abs(out.l_rc.item() - beta) < 1e-15

    @pytest.mark.parametrize("n", [2, 3, 5])
    def test_matches_brute_force(self, n):
        rng = np.random.default_rng(10 + n)
        preds = [rng.standard_normal((3, 40)) for _ in range(n)]
        targets = [rng.standard_normal((3, 40)) for _ in range(n)]
        alpha, beta = 0.15, 0.4
        out = rc_loss([Tensor(p) for p in preds], targets, Margins(alpha, beta))
        l_r, l_c, l_rc = brute_force_rc(preds, targets, alpha, beta)
        assert abs(out.l_r.item() - l_r) < 1e-12
        assert abs(out.l_c.item() - l_c) < 1e-12
        assert abs(out.l_rc.item() - l_rc) < 1e-12

    def test_batch_too_small(self):
        x = np.zeros((1, 10))
        with pytest.raises(BatchTooSmall):
            rc_loss([Tensor(x)], [x], Margins(0.0, 0.0))

    def test_per_subject_breakdown(self):
        rng = np.random.default_rng(4)
        preds = [rng.standard_normal((2, 10)) for _ in range(3)]
        targets = [rng.standard_normal((2, 10)) for _ in range(3)]
        out = rc_loss([Tensor(p) for p in preds], targets, Margins(1.0, 1.0))
        for i in range(3):
            assert abs(out.per_subject[i] - np.mean((preds[i] - targets[i]) ** 2)) < 1e-12

    def test_subject_permutation_symmetry(self):
        rng = np.random.default_rng(5)
        preds = [rng.standard_normal((2, 25)) for _ in range(4)]
        targets = [rng.standard_normal((2, 25)) for _ in range(4)]
        m = Margins(0.3, 0.7)
        out = rc_loss([Tensor(p) for p in preds], targets, m)
        perm = [2, 0, 3, 1]
        out_p = rc_loss([Tensor(preds[i]) for i in perm], [targets[i] for i in perm], m)
        assert abs(out.l_r.item() - out_p.l_r.item()) < 1e-12
        assert abs(out.l_c.item() - out_p.l_c.item()) < 1e-12
        assert abs(out.l_rc.item() - out_p.l_rc.item()) < 1e-12

    def test_monotone_in_beta(self):
        rng = np.random.default_rng(6)
        preds = [rng.standard_normal((2, 25)) for _ in range(3)]
        targets = [rng.standard_normal((2, 25)) for _ in range(3)]
        values = [
            rc_loss([Tensor(p) for p in preds], targets, Margins(0.2, b)).l_rc.item()
            for b in (0.0, 0.5, 1.0, 2.0, 5.0)
        ]
        assert all(v2 >= v1 - 1e-15 for v1, v2 in zip(values, values[1:]))

    def test_nonnegative_and_zero_condition(self):
        rng = np.random.default_rng(7)
        for trial in range(20):
            preds = [rng.standard_normal((2, 15)) for _ in range(3)]
            targets = [rng.standard_normal((2, 15)) for _ in range(3)]
            alpha = float(rng.uniform(0, 2))
            beta = float(rng.uniform(0, 2))
            out = rc_loss([Tensor(p) for p in preds], targets, Margins(alpha, beta))
            l_r, l_c, l_rc = out.l_r.item(), out.l_c.item(), out.l_rc.item()
            assert l_rc >= 0.0
            assert (l_rc == 0.0) == (l_r <= alpha and l_c - l_r >= beta)

    def test_zero_gradient_when_hinges_strictly_inactive(self):
        rng = np.random.default_rng(8)
        targets = [rng.standard_normal((2, 30)) + 10 * i for i in range(2)]
        preds = [Tensor(t + 1e-4 * rng.standard_normal(t.shape), requires_grad=True) for t in targets]
        out = rc_loss(preds, targets, Margins(alpha=1.0, beta=1.0))
        assert out.l_rc.item() == 0.0
        backward(out.l_rc)
        for p in preds:
            assert p.grad is None or np.abs(p.grad).max() == 0.0

    def test_huge_alpha_leaves_contrastive_gradient_only(self):
        rng = np.random.default_rng(9)
        preds = [Tensor(rng.standard_normal((2, 20)), requires_grad=True) for _ in range(2)]
        targets = [rng.standard_normal((2, 20)) for _ in range(2)]
        out = rc_loss(preds, targets, Margins(alpha=1e9, beta=1e9))
        backward(out.l_rc)
        grads_full = [p.grad.copy() for p in preds]

        # Reference: gradient of (L_R - L_C) alone.
        preds2 = [Tensor(p.data.copy(), requires_grad=True) for p in preds]
        out2 = rc_loss(preds2, targets, Margins(alpha=1e9, beta=1e9))
        backward(ad.sub(out2.l_r, out2.l_c))
        for g, p2 in zip(grads_full, preds2):
            assert np.allclose(g, p2.grad, atol=1e-14)


class TestRcLossProperties:
    @settings(max_examples=60, deadline=None)
    @given(
        n=st.integers(2, 8),
        shape=st.tuples(st.integers(1, 4), st.integers(1, 50)),
        offsets=st.tuples(st.floats(-1e3, 1e3), st.floats(-1e3, 1e3)),
        same_offset=st.booleans(),
        log_scale=st.floats(-3.0, 2.0),
        margins=st.tuples(st.floats(0.0, 10.0), st.floats(0.0, 10.0)),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_matches_pair_oracle(self, n, shape, offsets, same_offset, log_scale, margins, seed):
        # The closed form against the N(N-1) explicit pairs, for both input
        # forms; maps far from zero relative to their spread are the hard case.
        rng = np.random.default_rng(seed)
        off_p, off_t = (offsets[0], offsets[0]) if same_offset else offsets
        scale = 10.0**log_scale
        preds = off_p + scale * rng.standard_normal((n, *shape))
        targets = off_t + scale * rng.standard_normal((n, *shape))
        l_r, l_c, l_rc = brute_force_rc(preds, targets, *margins)
        tol_rc = 1e-12 * max(l_r, l_c, *margins)
        for out in (
            rc_loss([Tensor(p) for p in preds], list(targets), Margins(*margins)),
            rc_loss(Tensor(preds), targets, Margins(*margins)),
        ):
            assert abs(out.l_r.item() - l_r) <= 1e-12 * l_r
            assert abs(out.l_c.item() - l_c) <= 1e-12 * l_c
            assert abs(out.l_rc.item() - l_rc) <= tol_rc

    def test_list_and_batch_gradients_agree(self):
        rng = np.random.default_rng(14)
        preds = rng.standard_normal((3, 2, 20))
        targets = rng.standard_normal((3, 2, 20))
        listed = [Tensor(p, requires_grad=True) for p in preds]
        backward(rc_loss(listed, targets, Margins(0.0, 1.0)).l_rc)
        batch = Tensor(preds, requires_grad=True)
        backward(rc_loss(batch, targets, Margins(0.0, 1.0)).l_rc)
        assert np.abs(np.stack([p.grad for p in listed]) - batch.grad).max() == 0.0


class TestSchedule:
    def test_epoch_zero(self):
        m0 = Margins(0.8, 0.2)
        assert schedule_margins(m0, 0) == m0

    def test_epoch_twenty_halves_and_doubles(self):
        m = schedule_margins(Margins(0.8, 0.2), 20)
        assert m.alpha == 0.4
        assert m.beta == 0.4

    def test_epoch_99_matches_iterated_schedule(self):
        # Oracle: iterate the schedule step by step instead of using the
        # closed form.
        alpha, beta = 0.8, 0.2
        for e in range(100):
            if e > 0 and e % 20 == 0:
                alpha /= 2
                beta *= 2
        m = schedule_margins(Margins(0.8, 0.2), 99)
        assert m.alpha == alpha == 0.8 / 16
        assert m.beta == beta == 0.2 * 16

    def test_negative_epoch_rejected(self):
        with pytest.raises(ValueError):
            schedule_margins(Margins(1.0, 1.0), -1)


class TestInitMargins:
    def test_two_subject_arithmetic(self):
        # Build a model stub via closure-free fake: use the real model but
        # replace targets so distances are known exactly.
        hierarchy = build_hierarchy(2)
        model = build_model(ModelConfig(seed=0), hierarchy)
        rng = np.random.default_rng(11)
        samples = [[rng.standard_normal((10, 162))] for _ in range(2)]
        preds = [model.predict(s[0]) for s in samples]
        # Choose targets at exact distances 0.2 and 0.4 from the predictions.
        t0 = preds[0] + np.sqrt(0.2)
        t1 = preds[1] + np.sqrt(0.4)
        margins = init_margins(model, [(samples[0], t0), (samples[1], t1)])
        assert abs(margins.alpha - 0.3) < 1e-12

    def test_zero_error_model(self):
        hierarchy = build_hierarchy(2)
        model = build_model(ModelConfig(seed=1), hierarchy)
        rng = np.random.default_rng(12)
        samples = [[rng.standard_normal((10, 162))] for _ in range(2)]
        training = [(s, model.predict(s[0])) for s in samples]
        margins = init_margins(model, training)
        assert margins.alpha == 0.0

    def test_matches_offline_recomputation_from_dump(self):
        hierarchy = build_hierarchy(2)
        model = build_model(ModelConfig(seed=2), hierarchy)
        rng = np.random.default_rng(13)
        training = []
        for _ in range(8):
            samples = [rng.standard_normal((10, 162)) for _ in range(3)]
            target = rng.standard_normal((4, 162))
            training.append((samples, target))
        margins = init_margins(model, training)

        # Oracle: dump ensemble predictions, recompute means independently.
        dumped = [np.mean([model.predict(s) for s in samples], axis=0) for samples, _ in training]
        alpha = np.mean([np.mean((dumped[i] - training[i][1]) ** 2) for i in range(8)])
        cross = [
            np.mean((dumped[i] - training[j][1]) ** 2)
            for i in range(8)
            for j in range(8)
            if i != j
        ]
        assert abs(margins.alpha - alpha) < 1e-10
        assert abs(margins.beta - np.mean(cross)) < 1e-10

    def test_empty_set(self):
        hierarchy = build_hierarchy(2)
        model = build_model(ModelConfig(seed=3), hierarchy)
        with pytest.raises(EmptySet):
            init_margins(model, [])
