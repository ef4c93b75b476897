import json

import numpy as np
import pytest

from brainsurf import autodiff as ad
from brainsurf import cli
from brainsurf.fileio import read_tensor

TINY_CONFIG = {
    "seed": 5,
    "generator": {"mesh_level": 1, "n_rois": 2, "n_contrasts": 2, "t_per_run": 60, "smooth_steps": 3},
    "model": {
        "input_channels": 4, "output_channels": 2, "mesh_level": 1,
        "encoder_widths": [6], "bottleneck_width": 12, "seed": 5,
    },
    "phase1_epochs": 2,
    "phase2_epochs": 2,
    "n_train_subjects": 4,
    "n_test_subjects": 2,
    "baseline_parcels": 4,
}


def write_config(tmp_path, **overrides):
    cfg = json.loads(json.dumps(TINY_CONFIG))
    cfg.update(overrides)
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    return path


@pytest.fixture()
def tiny_run(tmp_path):
    cfg = write_config(tmp_path)
    assert cli.main(["gen-data", "--config", str(cfg), "--out", str(tmp_path / "data")]) == 0
    assert cli.main(["train", "--data", str(tmp_path / "data"), "--config", str(cfg), "--out", str(tmp_path / "run")]) == 0
    return tmp_path


class TestGenData:
    def test_default_cohort_counts(self, tmp_path):
        cfg = write_config(tmp_path)
        assert cli.main(["gen-data", "--config", str(cfg), "--out", str(tmp_path / "d")]) == 0
        manifest = json.loads((tmp_path / "d" / "cohort.json").read_text())
        assert len(manifest["train_subjects"]) == 4
        assert len(manifest["test_subjects"]) == 2
        assert (tmp_path / "d" / "subjects" / "sub005" / "retest.bin").exists()

    def test_same_seed_byte_identical(self, tmp_path):
        cfg = write_config(tmp_path)
        cli.main(["gen-data", "--config", str(cfg), "--out", str(tmp_path / "a")])
        cli.main(["gen-data", "--config", str(cfg), "--out", str(tmp_path / "b")])
        for rel in ["cohort.json", "subjects/sub002/sample_5.bin", "subjects/sub000/target.bin"]:
            assert (tmp_path / "a" / rel).read_bytes() == (tmp_path / "b" / rel).read_bytes()

    def test_bad_config_exit_2(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"batch_size": 0}))
        assert cli.main(["gen-data", "--config", str(path), "--out", str(tmp_path / "x")]) == 2

    def test_unknown_key_exit_2(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"learning_rate": 1.0}))
        assert cli.main(["gen-data", "--config", str(path), "--out", str(tmp_path / "x")]) == 2

    def test_invalid_json_exit_2(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        assert cli.main(["gen-data", "--config", str(path), "--out", str(tmp_path / "x")]) == 2


class TestTrain:
    def test_outputs_exist(self, tiny_run):
        run = tiny_run / "run"
        for name in [
            "checkpoint_phase1.bin", "checkpoint_final.bin", "checkpoint_last.bin",
            "training_log.csv", "margins.json", "baseline.bin", "group_average.bin",
            "manifest.json",
        ]:
            assert (run / name).exists(), name

    def test_log_margins_follow_schedule(self, tmp_path):
        # Longer phase 2 so the halving boundary at within-phase epoch 20 is
        # visible in global numbering.
        cfg = write_config(tmp_path, phase1_epochs=2, phase2_epochs=25)
        cli.main(["gen-data", "--config", str(cfg), "--out", str(tmp_path / "data")])
        assert cli.main(["train", "--data", str(tmp_path / "data"), "--config", str(cfg), "--out", str(tmp_path / "run")]) == 0
        import csv

        with open(tmp_path / "run" / "training_log.csv") as f:
            rows = {int(r["epoch"]): r for r in csv.DictReader(f)}
        margins = json.loads((tmp_path / "run" / "margins.json").read_text())
        assert rows[1]["alpha"] == ""
        assert float(rows[2]["alpha"]) == pytest.approx(margins["alpha0"], rel=1e-9)
        assert float(rows[2 + 20]["alpha"]) == pytest.approx(margins["alpha0"] / 2, rel=1e-9)
        assert float(rows[2 + 20]["beta"]) == pytest.approx(margins["beta0"] * 2, rel=1e-9)

    def test_group_average_matches_training_targets(self, tiny_run):
        from brainsurf.connectome import load_dataset

        ds = load_dataset(tiny_run / "data")
        # val_fraction 0.2 of 4 subjects -> 0 held out; all 4 train.
        expected = np.mean([ds.target(s) for s in ds.train_ids], axis=0)
        assert np.allclose(read_tensor(tiny_run / "run" / "group_average.bin"), expected, atol=1e-15)

    def test_group_average_covers_validation_subjects(self, tmp_path):
        from brainsurf.connectome import load_dataset

        # val_fraction 0.2 of 5 subjects -> 1 held out for validation; the
        # saved map still averages all 5, the set `evaluate` reports on.
        cfg = write_config(tmp_path, n_train_subjects=5, phase2_epochs=0)
        assert cli.main(["gen-data", "--config", str(cfg), "--out", str(tmp_path / "data")]) == 0
        assert cli.main(["train", "--data", str(tmp_path / "data"), "--config", str(cfg), "--out", str(tmp_path / "run")]) == 0
        ds = load_dataset(tmp_path / "data")
        assert (tmp_path / "run" / "val_log.csv").exists()
        expected = np.mean([ds.target(s) for s in ds.train_ids], axis=0)
        assert np.array_equal(read_tensor(tmp_path / "run" / "group_average.bin"), expected)

    def test_single_training_subject_phase2_aborts(self, tmp_path):
        cfg = write_config(tmp_path, n_train_subjects=1, n_test_subjects=1)
        assert cli.main(["gen-data", "--config", str(cfg), "--out", str(tmp_path / "d1")]) == 0
        rc = cli.main(["train", "--data", str(tmp_path / "d1"), "--config", str(cfg), "--out", str(tmp_path / "r1")])
        assert rc == 2  # BatchTooSmall from the contrastive phase

    def test_nan_loss_exit_3(self, tmp_path, tiny_run):
        cfg = write_config(tmp_path, optimizer={"lr": 1e120}, phase1_epochs=4, phase2_epochs=0)
        rc = cli.main(["train", "--data", str(tiny_run / "data"), "--config", str(cfg), "--out", str(tmp_path / "r3")])
        assert rc == 3

    def test_model_mismatch_exit_2(self, tmp_path, tiny_run):
        cfg = write_config(tmp_path, model={
            "input_channels": 6, "output_channels": 2, "mesh_level": 1,
            "encoder_widths": [6], "bottleneck_width": 12, "seed": 5,
        }, generator={"mesh_level": 1, "n_rois": 3, "n_contrasts": 2, "t_per_run": 60, "smooth_steps": 3})
        rc = cli.main(["train", "--data", str(tiny_run / "data"), "--config", str(cfg), "--out", str(tmp_path / "r2")])
        assert rc == 2


class TestPredict:
    def test_shapes_and_determinism(self, tiny_run):
        args = [
            "predict", "--model", str(tiny_run / "run" / "checkpoint_final.bin"),
            "--data", str(tiny_run / "data"), "--out", str(tiny_run / "p1"),
        ]
        assert cli.main(args) == 0
        pred = read_tensor(tiny_run / "p1" / "sub004.bin")
        assert pred.shape == (2, 42)
        args[-1] = str(tiny_run / "p2")
        assert cli.main(args) == 0
        assert (tiny_run / "p1" / "sub004.bin").read_bytes() == (tiny_run / "p2" / "sub004.bin").read_bytes()

    def test_sample_dump_mean_equals_ensemble(self, tiny_run):
        from brainsurf.connectome import load_dataset

        assert cli.main([
            "predict", "--model", str(tiny_run / "run" / "checkpoint_final.bin"),
            "--data", str(tiny_run / "data"), "--out", str(tiny_run / "pd"),
            "--dump-samples",
        ]) == 0
        ens = read_tensor(tiny_run / "pd" / "sub004.bin")
        stack = [read_tensor(tiny_run / "pd" / f"sub004_sample_{k}.bin") for k in range(8)]
        assert np.abs(np.mean(stack, axis=0) - ens).max() <= 1e-12 * np.abs(ens).max()
        # Each dumped map is that variant's own single-subject prediction.
        model = cli._load_model(tiny_run / "run" / "checkpoint_final.bin")
        samples = load_dataset(tiny_run / "data").samples("sub004")
        for dumped, sample in zip(stack, samples):
            single = model.predict(sample)
            assert np.abs(dumped - single).max() <= 1e-12 * np.abs(single).max()

    def test_missing_subject_exit_4(self, tiny_run, capsys):
        rc = cli.main([
            "predict", "--model", str(tiny_run / "run" / "checkpoint_final.bin"),
            "--data", str(tiny_run / "data"), "--out", str(tiny_run / "px"),
            "--subjects", "sub004,nope1,nope2",
        ])
        assert rc == 4
        err = capsys.readouterr().err
        assert "nope1" in err and "nope2" in err

    def test_truncated_checkpoint_exit_2(self, tiny_run, capsys):
        full = (tiny_run / "run" / "checkpoint_final.bin").read_bytes()
        cut = tiny_run / "cut.bin"
        cut.write_bytes(full[:-100])
        rc = cli.main([
            "predict", "--model", str(cut), "--data", str(tiny_run / "data"), "--out", str(tiny_run / "pc"),
        ])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("corrupt input:") and err.count("\n") == 1

    def test_truncated_sample_exit_2(self, tiny_run):
        sample = tiny_run / "data" / "subjects" / "sub004" / "sample_3.bin"
        sample.write_bytes(sample.read_bytes()[:-8])
        rc = cli.main([
            "predict", "--model", str(tiny_run / "run" / "checkpoint_final.bin"),
            "--data", str(tiny_run / "data"), "--out", str(tiny_run / "ps"),
        ])
        assert rc == 2

    def test_baseline_predictions_written(self, tiny_run):
        assert cli.main([
            "predict", "--model", str(tiny_run / "run" / "checkpoint_final.bin"),
            "--data", str(tiny_run / "data"), "--out", str(tiny_run / "pb"),
            "--baseline", str(tiny_run / "run" / "baseline.bin"),
        ]) == 0
        assert read_tensor(tiny_run / "pb" / "baseline" / "sub005.bin").shape == (2, 42)


class TestEvaluate:
    def test_report_written_with_all_variants(self, tiny_run):
        cli.main([
            "predict", "--model", str(tiny_run / "run" / "checkpoint_final.bin"),
            "--data", str(tiny_run / "data"), "--out", str(tiny_run / "preds"),
        ])
        assert cli.main([
            "evaluate", "--data", str(tiny_run / "data"),
            "--preds", f"model={tiny_run / 'preds'}",
            "--out", str(tiny_run / "eval"),
        ]) == 0
        payload = json.loads((tiny_run / "eval" / "report.json").read_text())
        assert set(payload["aggregates"]) == {"model", "group_average", "retest"}
        assert (tiny_run / "eval" / "matrices" / "retest_c0.txt").exists()
        assert (tiny_run / "eval" / "reliable_mask.json").exists()

    def test_targets_as_predictions_identify_perfectly(self, tiny_run):
        from brainsurf.connectome import load_dataset
        from brainsurf.fileio import write_tensor

        ds = load_dataset(tiny_run / "data")
        fake = tiny_run / "fake_preds"
        fake.mkdir()
        for sid in ds.test_ids:
            write_tensor(fake / f"{sid}.bin", ds.target(sid))
        cli.main([
            "evaluate", "--data", str(tiny_run / "data"),
            "--preds", f"perfect={fake}",
            "--out", str(tiny_run / "eval2"),
        ])
        payload = json.loads((tiny_run / "eval2" / "report.json").read_text())
        assert payload["aggregates"]["perfect"]["id_accuracy"] == 1.0
        assert payload["aggregates"]["perfect"]["self_corr_mean"] == pytest.approx(1.0, abs=1e-12)

    def test_missing_predictions_exit_5(self, tiny_run):
        empty = tiny_run / "empty"
        empty.mkdir()
        rc = cli.main([
            "evaluate", "--data", str(tiny_run / "data"),
            "--preds", f"model={empty}",
            "--out", str(tiny_run / "eval3"),
        ])
        assert rc == 5

    def test_constant_prediction_map_reports_nan(self, tiny_run, capsys):
        # A collapsed model predicts a constant map: its correlations are
        # undefined (NaN in the report), not an input error.
        from brainsurf.connectome import load_dataset
        from brainsurf.fileio import write_tensor

        ds = load_dataset(tiny_run / "data")
        collapsed = tiny_run / "collapsed"
        collapsed.mkdir()
        for sid in ds.test_ids:
            write_tensor(collapsed / f"{sid}.bin", np.full_like(ds.target(sid), 0.1))
        capsys.readouterr()
        assert cli.main([
            "evaluate", "--data", str(tiny_run / "data"),
            "--preds", f"collapsed={collapsed}",
            "--out", str(tiny_run / "eval_nan"),
        ]) == 0
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and "'collapsed'" in err[0] and "contrast 0, 1" in err[0]

        def reject(constant):
            raise ValueError(f"non-strict JSON constant {constant}")

        payload = json.loads((tiny_run / "eval_nan" / "report.json").read_text(), parse_constant=reject)
        rows = [r for r in payload["rows"] if r["variant"] == "collapsed"]
        assert len(rows) == 2 and all(r["self_corr_mean"] is None for r in rows)
        assert payload["aggregates"]["collapsed"]["id_accuracy"] is None
        assert payload["aggregates"]["retest"]["self_corr_mean"] is not None
        csv_rows = (tiny_run / "eval_nan" / "report.csv").read_text().splitlines()
        assert csv_rows[1].startswith("collapsed,0,nan,nan,nan,nan,")

    @pytest.mark.parametrize("kind", ["target", "retest"])
    def test_constant_observed_map_exit_2(self, tiny_run, capsys, kind):
        from brainsurf.fileio import write_tensor

        path = tiny_run / "data" / "subjects" / "sub005" / f"{kind}.bin"
        write_tensor(path, np.full_like(read_tensor(path), 2.0))
        capsys.readouterr()
        rc = cli.main([
            "evaluate", "--data", str(tiny_run / "data"), "--out", str(tiny_run / "eval_bad"),
        ])
        assert rc == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and kind in err[0] and "zero variance" in err[0]

    def test_report_deterministic(self, tiny_run):
        cli.main([
            "predict", "--model", str(tiny_run / "run" / "checkpoint_final.bin"),
            "--data", str(tiny_run / "data"), "--out", str(tiny_run / "pr"),
        ])
        for name in ("e1", "e2"):
            cli.main([
                "evaluate", "--data", str(tiny_run / "data"),
                "--preds", f"model={tiny_run / 'pr'}",
                "--out", str(tiny_run / name),
            ])
        assert (tiny_run / "e1" / "report.csv").read_bytes() == (tiny_run / "e2" / "report.csv").read_bytes()
        assert (tiny_run / "e1" / "report.json").read_bytes() == (tiny_run / "e2" / "report.json").read_bytes()


class TestGradcheck:
    def test_passes_on_default_model(self, capsys):
        rc = cli.main(["gradcheck", "--coords", "40"])
        assert rc == 0
        assert "max relative error" in capsys.readouterr().out

    def test_deterministic_report(self, capsys):
        cli.main(["gradcheck", "--coords", "25", "--seed", "3"])
        out1 = capsys.readouterr().out
        cli.main(["gradcheck", "--coords", "25", "--seed", "3"])
        out2 = capsys.readouterr().out
        assert out1 == out2

    def test_corrupted_backward_fails(self, monkeypatch, capsys):
        # Negative control: a wrong negative-side slope in the backward pass
        # must be caught by the finite-difference comparison.
        original = ad.leaky_relu

        def corrupted(x, slope=0.1):
            t = x if isinstance(x, ad.Tensor) else ad.Tensor(x)
            out = original(t, slope)
            if out._backward_fn is not None:
                scale = np.where(t.data > 0.0, 1.0, 0.9)

                def backward(g):
                    ad._accumulate(t, g * scale)

                out._backward_fn = backward
            return out

        monkeypatch.setattr(ad, "leaky_relu", corrupted)
        rc = cli.main(["gradcheck", "--coords", "40"])
        assert rc == 1
        assert "worst coordinate" in capsys.readouterr().out
