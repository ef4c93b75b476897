import csv
import tracemalloc
import weakref
from dataclasses import astuple

import numpy as np
import pytest

from brainsurf import meshlayers
from brainsurf.autodiff import backward
from brainsurf.connectome import GeneratorConfig, generate_cohort
from brainsurf.icosphere import build_hierarchy
from brainsurf.model import ModelConfig, build_model, load_model, save_model
from brainsurf.fileio import ConfigError
from brainsurf.rcloss import Margins, rc_loss
from brainsurf.training import (
    EpochStats,
    NaNLossError,
    OptimizerConfig,
    TrainState,
    TrainSubject,
    _make_batches,
    train_phase,
    train_two_phase,
    validation_hook,
)

TINY_GEN = GeneratorConfig(mesh_level=1, n_rois=2, n_contrasts=2, t_per_run=40, smooth_steps=3)
TINY_MODEL = ModelConfig(
    input_channels=4, output_channels=2, mesh_level=1, encoder_widths=(6,), bottleneck_width=12
)


def tiny_subjects(n=4, seed=0):
    records = generate_cohort(n, TINY_GEN, seed=seed)
    return [TrainSubject(r.subject_id, r.samples, r.target_contrasts) for r in records]


@pytest.fixture(scope="module")
def hierarchy():
    return build_hierarchy(1)


class TestBatches:
    def test_even_split(self):
        batches = _make_batches(np.arange(8), 2)
        assert [len(b) for b in batches] == [2, 2, 2, 2]

    def test_singleton_tail_merged(self):
        batches = _make_batches(np.arange(5), 2)
        assert [len(b) for b in batches] == [2, 3]

    def test_single_subject_passes_through(self):
        batches = _make_batches(np.arange(1), 2)
        assert [len(b) for b in batches] == [1]


class TestTrainPhase:
    def test_loss_decreases(self, hierarchy):
        model = build_model(TINY_MODEL, hierarchy)
        subjects = tiny_subjects()
        log = train_phase(
            model, subjects, TrainState(np.random.default_rng(0)), epochs=30, batch_size=2, opt=OptimizerConfig()
        )
        assert log.rows[-1].l_r < log.rows[0].l_r

    def test_determinism(self, hierarchy):
        def run():
            model = build_model(TINY_MODEL, hierarchy)
            train_phase(
                model, tiny_subjects(), TrainState(np.random.default_rng(7)), epochs=5, batch_size=2,
                opt=OptimizerConfig(),
            )
            return model.param_arrays()

        a, b = run(), run()
        for name in a:
            assert np.array_equal(a[name], b[name])

    def test_single_subject_phase2_aborts(self, hierarchy):
        model = build_model(TINY_MODEL, hierarchy)
        lone = tiny_subjects(2)[:1]
        with pytest.raises(ValueError, match="rc_loss needs at least 2 subjects, got 1"):
            train_phase(
                model, lone, TrainState(np.random.default_rng(0), margins0=Margins(0.1, 0.1)), epochs=1,
                batch_size=2, opt=OptimizerConfig(),
            )

    def test_phase1_l_c_averages_pair_batches_only(self, hierarchy, monkeypatch, tmp_path):
        # batch_size 1 on 4 subjects gives batches [1, 1, 2]: only the pair
        # batch defines L_C, so the epoch's l_c is that batch's.
        import brainsurf.training as training

        seen = []

        def recording_rc_loss(*args, **kwargs):
            out = original(*args, **kwargs)
            if out.l_c is not None:
                seen.append(out.l_c.item())
            return out

        original = training.rc_loss
        monkeypatch.setattr(training, "rc_loss", recording_rc_loss)
        model = build_model(TINY_MODEL, hierarchy)
        log = train_phase(
            model, tiny_subjects(), TrainState(np.random.default_rng(0)), epochs=1, batch_size=1,
            opt=OptimizerConfig(),
        )
        assert len(seen) == 1 and log.rows[0].l_c == seen[0]

        # No batch with 2 subjects: L_C is undefined and its cell left empty.
        log = train_phase(
            model, tiny_subjects(2)[:1], TrainState(np.random.default_rng(0)), epochs=1, batch_size=2,
            opt=OptimizerConfig(),
        )
        assert log.rows[0].l_c is None
        log.write_csv(tmp_path / "log.csv")
        with open(tmp_path / "log.csv") as f:
            assert list(csv.reader(f))[1][2] == ""

    @pytest.mark.parametrize("use_rc_loss, batch_size, sizes", [(False, 1, [1, 1, 2]), (True, 2, [2, 2])])
    def test_one_rc_loss_call_per_batch(self, hierarchy, monkeypatch, use_rc_loss, batch_size, sizes):
        # Both phases take the loss they backpropagate and the values they
        # log from one rc_loss call: L_R in phase 1, L_RC in phase 2.
        import brainsurf.training as training

        calls, roots = [], []
        original_rc_loss, original_backward = training.rc_loss, training.backward

        def recording_rc_loss(preds, targets, margins):
            out = original_rc_loss(preds, targets, margins)
            calls.append((len(targets), margins, out))
            return out

        def recording_backward(root):
            roots.append(root)
            original_backward(root)

        monkeypatch.setattr(training, "rc_loss", recording_rc_loss)
        monkeypatch.setattr(training, "backward", recording_backward)
        state = TrainState(np.random.default_rng(0), margins0=Margins(0.1, 0.1) if use_rc_loss else None)
        train_phase(
            build_model(TINY_MODEL, hierarchy), tiny_subjects(), state, epochs=1, batch_size=batch_size,
            opt=OptimizerConfig(),
        )
        assert sorted(n for n, _, _ in calls) == sizes
        assert all((margins is None) != use_rc_loss for _, margins, _ in calls)
        assert roots == [out.l_rc if use_rc_loss else out.l_r for _, _, out in calls]

    def test_phase1_records_only_the_graph_it_backpropagates(self, hierarchy, monkeypatch):
        # Every node a phase-1 step records is reachable from the root it
        # passes to backward: L_C, which phase 1 only logs, records none.
        import brainsurf.autodiff as autodiff
        import brainsurf.training as training

        recorded, roots, reachable = [], [], {}  # the values keep each id unique
        original_op, original_backward = autodiff._op, training.backward

        def recording_op(data, parents, grads):
            out = original_op(data, parents, grads)
            if out._parents:
                recorded.append(out)
            return out

        def recording_backward(root):
            # Reachability is taken before the sweep, which drops the edges.
            roots.append(root)
            todo = [root]
            while todo:
                node = todo.pop()
                if id(node) not in reachable:
                    reachable[id(node)] = node
                    todo.extend(node._parents)
            original_backward(root)

        monkeypatch.setattr(autodiff, "_op", recording_op)
        monkeypatch.setattr(training, "backward", recording_backward)
        train_phase(
            build_model(TINY_MODEL, hierarchy), tiny_subjects(), TrainState(np.random.default_rng(0)), epochs=1,
            batch_size=2, opt=OptimizerConfig(),
        )
        assert len(roots) == 2 and recorded
        assert [n.data.shape for n in recorded if id(n) not in reachable] == []

    @pytest.mark.parametrize("margins0, calls", [(None, 16), (Margins(0.1, 0.1), 17)])
    def test_desk_step_records_one_node_per_op(self, monkeypatch, margins0, calls):
        # One step of the README default model (level 2, two encoder levels)
        # makes one _op call per node: the input layout, 4 encoder convs and
        # 2 pools, 2 bottleneck convs, 4 decoder convs (each level's first
        # reads its unpooled input itself), the output conv and its layout,
        # then L_R, and L_RC in phase 2.
        import brainsurf.autodiff as autodiff

        original_op, n_calls = autodiff._op, []

        def counting_op(data, parents, grads):
            n_calls.append(1)
            return original_op(data, parents, grads)

        rng = np.random.default_rng(0)
        subjects = [
            TrainSubject(str(i), [rng.standard_normal((10, 162))] * 8, rng.standard_normal((4, 162)))
            for i in range(2)
        ]
        model = build_model(ModelConfig(), build_hierarchy(2))
        monkeypatch.setattr(autodiff, "_op", counting_op)
        train_phase(model, subjects, TrainState(rng, margins0=margins0), epochs=1, batch_size=2, opt=OptimizerConfig())
        assert len(n_calls) == calls

    def test_nan_aborts_with_previous_checkpoint(self, hierarchy, tmp_path):
        model = build_model(TINY_MODEL, hierarchy)
        subjects = tiny_subjects()
        ckpt = tmp_path / "last.bin"
        train_phase(
            model, subjects, TrainState(np.random.default_rng(1)), epochs=2, batch_size=2, opt=OptimizerConfig(),
            on_epoch_end=lambda model, state: save_model(ckpt, model),
        )
        good = {k: v.copy() for k, v in model.param_arrays().items()}
        # An absurd learning rate overflows the activations within one epoch;
        # the checkpoint from the finite epochs must survive untouched.
        with pytest.raises(NaNLossError):
            train_phase(
                model, subjects, TrainState(np.random.default_rng(2)), epochs=5, batch_size=2,
                opt=OptimizerConfig(lr=1e120), on_epoch_end=lambda model, state: save_model(ckpt, model),
            )
        arrays = load_model(ckpt).param_arrays()
        for name in good:
            assert np.array_equal(arrays[name], good[name])


def interior_bytes(root):
    # Bytes of the values held by a graph's interior (non-leaf) nodes.
    seen, todo = {}, [root]
    while todo:
        node = todo.pop()
        if id(node) not in seen:
            seen[id(node)] = node
            todo.extend(node._parents)
    return sum(n.data.nbytes for n in seen.values() if n._parents)


class TestTrainPhaseMemory:
    def test_epoch_peak_bounded_by_one_graph_of_gradients(self):
        # A level-3, batch-2 epoch of each phase at the default widths.  The
        # backward sweep releases each interior gradient once passed on, and a
        # step's graph is dropped before the next forward, so the traced peak
        # stays below Adam's four flat vectors plus twice one step's graph.
        # Keeping every interior gradient until its graph dies, and the
        # previous graph alive during the next forward, peaks at about four
        # graphs.
        model = build_model(ModelConfig(mesh_level=3), build_hierarchy(3))
        rng = np.random.default_rng(0)
        subjects = [
            TrainSubject(f"s{i}", [rng.standard_normal((10, 642)) for _ in range(8)], rng.standard_normal((4, 642)))
            for i in range(4)
        ]
        preds = model.forward(np.stack([s.samples[0] for s in subjects[:2]]))
        graph = interior_bytes(rc_loss(preds, np.stack([s.target for s in subjects[:2]]), None).l_r)
        del preds
        adam_state = 4 * sum(p.tensor.data.nbytes for p in model.parameters())
        for use_rc_loss in (False, True):
            tracemalloc.start()
            try:
                state = TrainState(np.random.default_rng(1), margins0=Margins(0.0, 1.0) if use_rc_loss else None)
                train_phase(model, subjects, state, epochs=1, batch_size=2, opt=OptimizerConfig())
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < adam_state + 2 * graph, use_rc_loss


class TestStepMemory:
    def test_backward_frees_as_it_goes(self, monkeypatch):
        # A cohort-shape step: level 3, 100 input channels, 47 contrasts,
        # batch 8, holding only the loss root as train_phase does.  The sweep
        # frees each activation once its last consumer has run, and each
        # conv's backward holds one operator block's dz at a time, so the
        # backward peak exceeds the step's graph by at most 3 output maps
        # (2.0 measured).  Keeping the graph through the sweep, with the
        # stacked [4, V*B, C] dz and a transposed copy of it, peaks at 9.7.
        model = build_model(ModelConfig(input_channels=100, output_channels=47, mesh_level=3), build_hierarchy(3))
        rng = np.random.default_rng(0)
        x, targets = rng.standard_normal((8, 100, 642)), rng.standard_normal((8, 47, 642))
        out_bytes = 8 * 642 * 47 * 8
        conv_outputs = []
        conv = meshlayers.mesh_conv

        def spy(layer, h, slope=None, **coarse):
            out = conv(layer, h, slope, **coarse)
            conv_outputs.append(weakref.ref(out.data))
            return out

        monkeypatch.setattr(meshlayers, "mesh_conv", spy)
        model.zero_grad()
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            batch_loss = rc_loss(model.forward(x), targets, Margins(0.0, 1.0))
            loss, batch_loss = batch_loss.l_rc, None
            graph = tracemalloc.get_traced_memory()[0] - base
            tracemalloc.reset_peak()
            backward(loss)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert len(conv_outputs) == 11
        assert peak - graph <= 3 * out_bytes, (peak - graph) / out_bytes
        # No activation outlives the sweep, not even behind the root the
        # caller still holds.
        assert loss.item() > 0.0
        assert [i for i, ref in enumerate(conv_outputs) if ref() is not None] == []


class TestTwoPhase:
    def test_margin_columns_and_schedule(self, hierarchy):
        model = build_model(TINY_MODEL, hierarchy)
        state = train_two_phase(
            model, tiny_subjects(), phase1_epochs=3, phase2_epochs=45,
            batch_size=2, seed=5,
        )
        margins0 = state.margins0
        assert margins0 is not None
        rows = state.rows
        assert len(rows) == 48
        # Phase 1 rows carry no margins; phase 2 margins follow the halving /
        # doubling schedule in global epoch numbering.
        assert all(r.alpha is None for r in rows[:3])
        assert rows[3].alpha == margins0.alpha and rows[3].beta == margins0.beta
        assert rows[3 + 20].alpha == margins0.alpha / 2
        assert rows[3 + 20].beta == margins0.beta * 2
        assert rows[3 + 40].alpha == margins0.alpha / 4

    def test_epoch_end_sees_one_state_per_epoch(self, hierarchy):
        # 4 subjects at batch size 2 make 2 batches, so 2 Adam steps, per
        # epoch; each phase starts a new Adam state from zero moments.
        seen = []

        def record(model, state):
            seen.append({
                "epoch": state.rows[-1].epoch, "next": state.epoch, "rows": len(state.rows),
                "phase": state.phase, "step": state.adam.step, "margins0": state.margins0,
            })

        p1, p2 = 3, 2
        final = train_two_phase(
            build_model(TINY_MODEL, hierarchy), tiny_subjects(), phase1_epochs=p1, phase2_epochs=p2,
            batch_size=2, seed=4, on_epoch_end=record,
        )
        assert [r["epoch"] for r in seen] == list(range(p1 + p2))
        assert [r["phase"] for r in seen] == [1] * p1 + [2] * p2
        assert all(r["rows"] == r["next"] == r["epoch"] + 1 for r in seen)
        assert [r["step"] for r in seen] == [2, 4, 6] + [2, 4]
        assert [r["margins0"] for r in seen] == [None] * p1 + [final.margins0] * p2
        assert final.margins0 is not None and final.epoch == len(final.rows) == p1 + p2

    def test_phase2_disabled_equals_phase1_model(self, hierarchy):
        # With phase 2 off, the protocol is phase 1 alone: train_phase on a
        # new state seeded [seed, 1], bit for bit.
        subjects = tiny_subjects()
        model_a = build_model(TINY_MODEL, hierarchy)
        a = train_two_phase(model_a, subjects, phase1_epochs=4, phase2_epochs=0, batch_size=2, seed=9)
        model_b = build_model(TINY_MODEL, hierarchy)
        b = train_phase(
            model_b, subjects, TrainState(np.random.default_rng([9, 1])), epochs=4, batch_size=2,
            opt=OptimizerConfig(),
        )
        assert [astuple(r) for r in a.rows] == [astuple(r) for r in b.rows] and len(a.rows) == 4
        arrays_b = model_b.param_arrays()
        for name, value in model_a.param_arrays().items():
            assert np.array_equal(value, arrays_b[name])

    @pytest.mark.parametrize("margins0", [None, Margins(0.1, 0.1)], ids=["phase1", "phase2"])
    def test_two_calls_on_one_state_equal_one_call(self, hierarchy, margins0):
        # A state carries all a phase reads (RNG, Adam moments, epoch, margin
        # schedule), so 15 epochs and then 10 more are one 25-epoch run; in
        # phase 2 the split straddles the margins' step at within-phase epoch 20.
        subjects = tiny_subjects()

        def run(*splits):
            model = build_model(TINY_MODEL, hierarchy)
            state = TrainState(np.random.default_rng(6), margins0=margins0, phase_start=3)
            state.rows = [EpochStats(e, 0.0, None, None, None, None) for e in range(3)]
            for epochs in splits:
                train_phase(model, subjects, state, epochs=epochs, batch_size=2, opt=OptimizerConfig())
            return model.param_arrays(), state

        (a, state_a), (b, state_b) = run(25), run(15, 10)
        assert [astuple(r) for r in state_a.rows] == [astuple(r) for r in state_b.rows]
        assert [r.epoch for r in state_b.rows] == list(range(28)) and state_b.epoch == 28
        assert state_a.adam.step == state_b.adam.step == 50
        assert np.array_equal(state_a.adam.m, state_b.adam.m) and np.array_equal(state_a.adam.v, state_b.adam.v)
        if margins0 is not None:
            assert state_b.rows[3 + 19].alpha == margins0.alpha and state_b.rows[3 + 20].alpha == margins0.alpha / 2
        for name in a:
            assert np.array_equal(a[name], b[name])

    def test_phase2_with_one_subject_fails_before_phase1(self, hierarchy, tmp_path):
        model = build_model(TINY_MODEL, hierarchy)
        before = {k: v.copy() for k, v in model.param_arrays().items()}
        with pytest.raises(ConfigError, match="phase 2 needs at least 2 training subjects .*, got 1"):
            train_two_phase(
                model, tiny_subjects(2)[:1], phase1_epochs=2, phase2_epochs=2, batch_size=2,
                seed=0, on_epoch_end=lambda model, state: save_model(tmp_path / "last.bin", model),
            )
        assert list(tmp_path.iterdir()) == []
        for name, value in model.param_arrays().items():
            assert np.array_equal(value, before[name])

    def test_log_csv_columns(self, hierarchy, tmp_path):
        model = build_model(TINY_MODEL, hierarchy)
        state = train_two_phase(
            model, tiny_subjects(), phase1_epochs=2, phase2_epochs=2, batch_size=2, seed=3
        )
        path = tmp_path / "log.csv"
        state.write_csv(path)
        with open(path) as f:
            rows = list(csv.reader(f))
        assert rows[0] == ["epoch", "l_r", "l_c", "l_rc", "alpha", "beta", "val_l_r"]
        assert rows[1][3] == ""  # phase-1 rows leave the rc fields blank
        assert rows[3][4] != ""
        assert [r[6] for r in rows[1:]] == [""] * 4  # no validation hook

    def test_validation_hook_sets_val_l_r(self, hierarchy):
        model = build_model(TINY_MODEL, hierarchy)
        subjects = tiny_subjects(6)
        state = train_phase(
            model, subjects[:4], TrainState(np.random.default_rng(2)), epochs=3, batch_size=2,
            opt=OptimizerConfig(), on_epoch_end=validation_hook(subjects[4:]),
        )
        # One value per epoch, each of that epoch's model: the last is the
        # final model's L_R on the held-out subjects' first samples.
        preds = model.predict(np.stack([s.samples[0] for s in subjects[4:]]))
        l_r = rc_loss(preds, np.stack([s.target for s in subjects[4:]]), None).l_r.item()
        values = [r.val_l_r for r in state.rows]
        assert len(values) == 3 and len(set(values)) == 3 and values[-1] == l_r
