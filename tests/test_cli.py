import csv
import importlib
import json
import os
import pkgutil
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import brainsurf
from brainsurf import cli, evaluate, meshlayers
from brainsurf.connectome import ZeroVariance
from brainsurf.fileio import FLOAT_FORMAT, ConfigError, CorruptFile, load_checkpoint, read_tensor, save_checkpoint
from brainsurf.icosphere import build_hierarchy
from brainsurf.model import load_model
from brainsurf.training import NaNLossError

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


def override_config(tmp_path, section, key, value):
    """The tiny config with ``key`` set to ``value``, at the top level or in
    ``section``."""
    if section is None:
        return write_config(tmp_path, **{key: value})
    return write_config(tmp_path, **{section: {**TINY_CONFIG.get(section, {}), key: value}})


def case_id(case):
    section, key, value = case
    return f"{section + '.' if section else ''}{key}={value}"


@pytest.fixture()
def tiny_run(tmp_path):
    cfg = write_config(tmp_path)
    assert cli.main(["gen-data", "--config", str(cfg), "--out", str(tmp_path / "data")]) == 0
    assert cli.main(["train", "--data", str(tmp_path / "data"), "--config", str(cfg), "--out", str(tmp_path / "run")]) == 0
    return tmp_path


@pytest.fixture()
def val_run(tmp_path):
    # val_fraction 0.2 of 5 training subjects holds sub004 out for validation.
    cfg = write_config(tmp_path, n_train_subjects=5)
    assert cli.main(["gen-data", "--config", str(cfg), "--out", str(tmp_path / "data")]) == 0
    assert cli.main(["train", "--data", str(tmp_path / "data"), "--config", str(cfg), "--out", str(tmp_path / "run")]) == 0
    return tmp_path


def evaluated_group_average(root, monkeypatch):
    """The group-average map that ``evaluate`` on ``root / "data"`` hands to
    ``ablation_report``, one copy per test subject."""
    seen = {}
    original = cli.ablation_report

    def recording(variants, *args):
        seen.update(variants)
        return original(variants, *args)

    monkeypatch.setattr(cli, "ablation_report", recording)
    assert cli.main(["evaluate", "--data", str(root / "data"), "--out", str(root / "eval")]) == 0
    return seen["group_average"]


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

    def test_invalid_json_exit_2(self, tmp_path, capsys):
        # Not JSON, then bytes that are not UTF-8 (nor UTF-16 or -32).
        path = tmp_path / "bad.json"
        for content in (b"{not json", b'{"seed": 1, "note": "caf\xe9"}'):
            path.write_bytes(content)
            assert cli.main(["gen-data", "--config", str(path), "--out", str(tmp_path / "x")]) == 2
            err = capsys.readouterr().err
            assert err.startswith("config error:") and err.count("\n") == 1
            assert not (tmp_path / "x").exists()

    @pytest.mark.parametrize("override", [
        {"mesh_level": -1},
        {"n_rois": 0},
        {"n_contrasts": 0},
        {"t_per_run": 61},
        {"t_per_run": 2},
        {"ar_coeff": 1.5},
        {"ar_coeff": -1.0},
        {"latent_candidates": 0},
        {"contrast_noise_std": [0.1, 0.2, 0.3]},
        {"n_runs": 3},
        {"n_runs": 5},
        {"timeseries_noise_std": float("nan")},
        {"roi_deviation": float("inf")},
        {"contrast_deviation": float("inf")},
        {"nonlinear_mix": float("-inf")},
        {"contrast_noise_std": float("nan")},
        {"contrast_noise_std": [0.1, float("inf")]},
        {"timeseries_noise_std": -0.1},
        {"contrast_noise_std": -0.3},
        {"contrast_noise_std": [0.1, -0.2]},
    ], ids=lambda o: "-".join(f"{k}={v}" for k, v in o.items()))
    def test_invalid_generator_exit_2(self, tmp_path, capsys, override):
        cfg = write_config(tmp_path, generator={**TINY_CONFIG["generator"], **override})
        assert cli.main(["gen-data", "--config", str(cfg), "--out", str(tmp_path / "d")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error:") and next(iter(override)) in err and err.count("\n") == 1
        assert not (tmp_path / "d" / "subjects").exists()

    @pytest.mark.parametrize("mesh_level, n_rois", [(0, 5), (1, 20)])
    def test_singular_contrast_basis_exit_2(self, tmp_path, capsys, mesh_level, n_rois):
        # 2 x n_rois smoothed contrast basis maps that nearly fill a small
        # mesh have a numerically singular Gram matrix: rejected before
        # anything is written, not turned into NaN targets.
        cfg = write_config(tmp_path, generator={"mesh_level": mesh_level, "n_rois": n_rois}, model=None)
        assert cli.main(["gen-data", "--config", str(cfg), "--out", str(tmp_path / "d")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error:") and "n_rois" in err and err.count("\n") == 1
        assert not (tmp_path / "d").exists()

    @pytest.mark.parametrize("case", [
        (None, "seed", "a"),
        (None, "seed", 1.5),
        (None, "seed", -1),
        ("generator", "mesh_level", 1.5),
        ("generator", "n_rois", 2.5),
        ("generator", "t_per_run", 10.0),
        ("generator", "latent_candidates", 1.5),
        ("generator", "smooth_steps", 1.5),
        ("generator", "smooth_steps", -1),
        ("generator", "contrast_noise_std", [0.1, "a"]),
        (None, "n_train_subjects", 2.5),
    ], ids=case_id)
    def test_wrong_value_type_exit_2(self, tmp_path, capsys, case):
        cfg = override_config(tmp_path, *case)
        assert cli.main(["gen-data", "--config", str(cfg), "--out", str(tmp_path / "d")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error:") and case[1] in err and err.count("\n") == 1
        assert not (tmp_path / "d").exists()

    def test_memory_holds_about_one_subject(self, tmp_path):
        # Each subject is written as it completes: 6 subjects peak within one
        # subject's connectomes (8 x 40 x 162 float64, 415 kB) of 2 subjects.
        gen = {"mesh_level": 2, "n_rois": 20, "t_per_run": 200}

        def traced_peak(n_subjects):
            cfg = write_config(tmp_path, generator=gen, model=None, n_train_subjects=n_subjects - 1,
                               n_test_subjects=1)
            tracemalloc.start()
            try:
                assert cli.main(["gen-data", "--config", str(cfg), "--out", str(tmp_path / f"d{n_subjects}")]) == 0
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        one_subject = 8 * 2 * gen["n_rois"] * 162 * 8
        assert traced_peak(6) - traced_peak(2) < one_subject

    def test_interrupted_run_leaves_no_cohort_json(self, tmp_path, monkeypatch, capsys):
        # A stale cohort.json goes first and the new one last, so later stages
        # reject what an interrupted run leaves.
        from brainsurf import connectome

        cfg = write_config(tmp_path)
        data = tmp_path / "d"
        assert cli.main(["gen-data", "--config", str(cfg), "--out", str(data)]) == 0

        def interrupted(*args):
            raise KeyboardInterrupt

        monkeypatch.setattr(connectome, "_half_run_connectome", interrupted)
        with pytest.raises(KeyboardInterrupt):
            cli.main(["gen-data", "--config", str(cfg), "--out", str(data)])
        capsys.readouterr()
        assert cli.main(["evaluate", "--data", str(data), "--out", str(tmp_path / "e")]) == 2
        assert capsys.readouterr().err.startswith("missing input:")

    def test_fewer_than_two_subjects_exit_2(self, tmp_path, capsys):
        cfg = write_config(tmp_path, n_train_subjects=1, n_test_subjects=0)
        assert cli.main(["gen-data", "--config", str(cfg), "--out", str(tmp_path / "d")]) == 2
        assert capsys.readouterr().err.startswith("config error:")
        assert not (tmp_path / "d" / "subjects").exists()


class TestTrain:
    def test_outputs_exist(self, tiny_run):
        run = tiny_run / "run"
        names = [
            "checkpoint_phase1.bin", "checkpoint_final.bin", "checkpoint_last.bin",
            "training_log.csv", "baseline.bin", "manifest.json",
        ]
        assert sorted(cli.RUN_FILES) == sorted(names)
        for name in names:
            assert (run / name).exists(), name

    def test_run_leaves_exactly_run_files(self, val_run):
        # A validation subject and phase 2: every file train writes, and no
        # other (a new run file must join RUN_FILES).
        assert sorted(p.name for p in (val_run / "run").iterdir()) == sorted(cli.RUN_FILES)

    def test_last_val_l_r_is_the_final_models_loss(self, val_run):
        from brainsurf.connectome import load_dataset
        from brainsurf.rcloss import rc_loss

        ds = load_dataset(val_run / "data")
        model = load_model(val_run / "run" / "checkpoint_final.bin")
        preds = model.predict(np.stack([ds.samples("sub004")[0]]))
        l_r = rc_loss(preds, np.stack([ds.target("sub004")]), None).l_r.item()
        with open(val_run / "run" / "training_log.csv") as f:
            rows = list(csv.DictReader(f))
        assert [r["epoch"] for r in rows] == ["0", "1", "2", "3"] and all(r["val_l_r"] for r in rows)
        assert rows[-1]["val_l_r"] == FLOAT_FORMAT % l_r

    def test_log_margins_follow_schedule(self, tmp_path):
        # Longer phase 2 so the halving boundary at within-phase epoch 20 is
        # visible in global numbering.
        cfg = write_config(tmp_path, phase1_epochs=2, phase2_epochs=25)
        cli.main(["gen-data", "--config", str(cfg), "--out", str(tmp_path / "data")])
        assert cli.main(["train", "--data", str(tmp_path / "data"), "--config", str(cfg), "--out", str(tmp_path / "run")]) == 0
        from brainsurf.connectome import load_dataset
        from brainsurf.rcloss import init_margins

        with open(tmp_path / "run" / "training_log.csv") as f:
            rows = {int(r["epoch"]): r for r in csv.DictReader(f)}
        # The first phase-2 row holds the initial margins, measured on the
        # phase-1 model over the 4 fit subjects (val_fraction 0.2 holds none out).
        ds = load_dataset(tmp_path / "data")
        phase1_model = load_model(tmp_path / "run" / "checkpoint_phase1.bin")
        margins0 = init_margins(phase1_model, [(ds.samples(s), ds.target(s)) for s in ds.train_ids])
        assert rows[1]["alpha"] == ""
        assert (rows[2]["alpha"], rows[2]["beta"]) == (FLOAT_FORMAT % margins0.alpha, FLOAT_FORMAT % margins0.beta)
        assert (rows[2 + 19]["alpha"], rows[2 + 19]["beta"]) == (rows[2]["alpha"], rows[2]["beta"])
        assert float(rows[2 + 20]["alpha"]) == pytest.approx(margins0.alpha / 2, rel=1e-9)
        assert float(rows[2 + 20]["beta"]) == pytest.approx(margins0.beta * 2, rel=1e-9)

    def test_group_average_matches_training_targets(self, tiny_run, monkeypatch):
        from brainsurf.connectome import load_dataset

        # `train` writes no group-average map; `evaluate` averages the
        # training targets itself. val_fraction 0.2 of 4 subjects -> 0 held out.
        assert not (tiny_run / "run" / "group_average.bin").exists()
        ds = load_dataset(tiny_run / "data")
        expected = np.mean([ds.target(s) for s in ds.train_ids], axis=0)
        maps = evaluated_group_average(tiny_run, monkeypatch)
        assert maps.shape == (2, *expected.shape)
        assert all(np.allclose(m, expected, atol=1e-15) for m in maps)

    def test_group_average_covers_validation_subjects(self, tmp_path, monkeypatch):
        from brainsurf.connectome import load_dataset

        # val_fraction 0.2 of 5 subjects -> sub004 held out for validation;
        # the group-average map still averages all 5, the set `evaluate`
        # reports on.
        cfg = write_config(tmp_path, n_train_subjects=5, phase2_epochs=0)
        assert cli.main(["gen-data", "--config", str(cfg), "--out", str(tmp_path / "data")]) == 0
        assert cli.main(["train", "--data", str(tmp_path / "data"), "--config", str(cfg), "--out", str(tmp_path / "run")]) == 0
        with open(tmp_path / "run" / "training_log.csv") as f:
            assert all(r["val_l_r"] for r in csv.DictReader(f))
        ds = load_dataset(tmp_path / "data")
        expected = np.mean([ds.target(s) for s in ds.train_ids], axis=0)
        maps = evaluated_group_average(tmp_path, monkeypatch)
        assert len(ds.train_ids) == 5 and maps.shape == (2, *expected.shape)
        assert all(np.array_equal(m, expected) for m in maps)

    def test_validation_subjects_read_only_their_first_sample(self, tmp_path, monkeypatch):
        # val_fraction 0.2 of 5 subjects -> sub004 is held out; the hook
        # predicts from its sample_0 alone, so its other 7 are never opened.
        from brainsurf import connectome

        cfg = write_config(tmp_path, n_train_subjects=5, phase2_epochs=0)
        assert cli.main(["gen-data", "--config", str(cfg), "--out", str(tmp_path / "data")]) == 0
        reads = []
        read_tensor = connectome.read_tensor

        def spying(path):
            reads.append(f"{path.parent.name}/{path.name}")
            return read_tensor(path)

        monkeypatch.setattr(connectome, "read_tensor", spying)
        assert cli.main(["train", "--data", str(tmp_path / "data"), "--config", str(cfg), "--out", str(tmp_path / "run")]) == 0
        with open(tmp_path / "run" / "training_log.csv") as f:
            assert [r["val_l_r"] != "" for r in csv.DictReader(f)] == [True, True]
        assert "sub004/sample_0.bin" in reads
        assert not [r for r in reads if r.startswith("sub004/sample_") and r != "sub004/sample_0.bin"]
        assert all(f"sub000/sample_{i}.bin" in reads for i in range(8))

    def test_single_training_subject_phase2_aborts(self, tmp_path, capsys):
        # One fit subject, directly or after the validation split: phase 2
        # cannot run, so train stops before phase 1 and writes no checkpoint.
        for n_train, val_fraction in ((1, 0.2), (2, 0.5)):
            cfg = write_config(tmp_path, n_train_subjects=n_train, n_test_subjects=1, val_fraction=val_fraction)
            data, run = tmp_path / f"d{n_train}", tmp_path / f"r{n_train}"
            assert cli.main(["gen-data", "--config", str(cfg), "--out", str(data)]) == 0
            capsys.readouterr()
            rc = cli.main(["train", "--data", str(data), "--config", str(cfg), "--out", str(run)])
            assert rc == 2  # ConfigError: the contrastive phase needs 2 subjects
            err = capsys.readouterr().err
            assert err.startswith("config error:") and err.count("\n") == 1
            assert not list(run.glob("checkpoint_*.bin"))
            assert not run.exists()

    @pytest.mark.parametrize("parcels", [0, 43])  # level 1 has 42 vertices
    def test_baseline_parcels_out_of_range_exit_2(self, tmp_path, tiny_run, capsys, parcels):
        cfg = write_config(tmp_path, baseline_parcels=parcels)
        capsys.readouterr()
        rc = cli.main(["train", "--data", str(tiny_run / "data"), "--config", str(cfg), "--out", str(tmp_path / "rp")])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("config error:") and "baseline_parcels" in err and err.count("\n") == 1
        assert not (tmp_path / "rp").exists()

    @pytest.mark.parametrize("slope", [-0.1, 1.5, float("nan")], ids=["negative", "above_one", "nan"])
    def test_leaky_slope_out_of_range_exit_2(self, tmp_path, capsys, slope):
        assert cli.main(["gen-data", "--config", str(write_config(tmp_path)), "--out", str(tmp_path / "data")]) == 0
        cfg = write_config(tmp_path, model={**TINY_CONFIG["model"], "leaky_slope": slope})
        capsys.readouterr()
        rc = cli.main(["train", "--data", str(tmp_path / "data"), "--config", str(cfg), "--out", str(tmp_path / "run")])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("config error:") and "leaky_slope" in err and err.count("\n") == 1
        assert not (tmp_path / "run").exists()

    def test_default_model_too_deep_for_the_mesh_exit_2(self, tmp_path, capsys):
        # No model section: the default encoder pools twice, below level 0
        # on a level-1 mesh.  The cohort is valid; the model is not.
        cfg = write_config(tmp_path, model=None)
        assert cli.main(["gen-data", "--config", str(cfg), "--out", str(tmp_path / "data")]) == 0
        capsys.readouterr()
        rc = cli.main(["train", "--data", str(tmp_path / "data"), "--config", str(cfg), "--out", str(tmp_path / "run")])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("config error:") and "encoder depth" in err and err.count("\n") == 1
        assert not (tmp_path / "run").exists()

    @pytest.mark.parametrize("case", [
        (None, "phase1_epochs", 1.5),
        (None, "batch_size", 2.5),
        ("optimizer", "lr", "x"),
        (None, "phase2_lr", "x"),
        ("model", "encoder_widths", [32.5]),
        ("model", "bottleneck_width", True),
        ("model", "seed", -3),
        ("optimizer", "lr", 0),
        ("optimizer", "lr", float("inf")),
        ("optimizer", "beta1", 1.5),
        ("optimizer", "beta1", -0.1),
        ("optimizer", "beta2", 1.0),
        ("optimizer", "eps", 0.0),
        ("optimizer", "eps", float("nan")),
        (None, "phase2_lr", -1e-3),
        (None, "phase2_lr", float("nan")),
    ], ids=case_id)
    def test_invalid_training_setting_exit_2(self, tmp_path, capsys, case):
        assert cli.main(["gen-data", "--config", str(write_config(tmp_path)), "--out", str(tmp_path / "data")]) == 0
        cfg = override_config(tmp_path, *case)
        capsys.readouterr()
        rc = cli.main(["train", "--data", str(tmp_path / "data"), "--config", str(cfg), "--out", str(tmp_path / "run")])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("config error:") and case[1] in err and err.count("\n") == 1
        assert not (tmp_path / "run").exists()

    def test_nan_loss_exit_3(self, tmp_path, tiny_run):
        cfg = write_config(tmp_path, optimizer={"lr": 1e120}, phase1_epochs=4, phase2_epochs=0)
        rc = cli.main(["train", "--data", str(tiny_run / "data"), "--config", str(cfg), "--out", str(tmp_path / "r3")])
        assert rc == 3

    def test_nan_in_phase2_keeps_the_phase1_checkpoint(self, tmp_path, tiny_run, capsys):
        data = str(tiny_run / "data")
        cfg = write_config(tmp_path, phase1_epochs=2, phase2_epochs=0)
        assert cli.main(["train", "--data", data, "--config", str(cfg), "--out", str(tmp_path / "warm")]) == 0
        cfg = write_config(tmp_path, phase1_epochs=2, phase2_epochs=3, phase2_lr=1e120)
        capsys.readouterr()
        assert cli.main(["train", "--data", data, "--config", str(cfg), "--out", str(tmp_path / "r3")]) == 3
        err = capsys.readouterr().err
        assert err.startswith("numeric failure:") and err.endswith("(last good checkpoint retained)\n")
        run = tmp_path / "r3"
        assert (run / "checkpoint_phase1.bin").read_bytes() == (tmp_path / "warm" / "checkpoint_phase1.bin").read_bytes()
        # The log holds the two phase-1 rows, as the 2+0 run's does.
        log = (run / "training_log.csv").read_bytes()
        assert log == (tmp_path / "warm" / "training_log.csv").read_bytes() and log.count(b"\n") == 3
        for name in ("checkpoint_last.bin", "checkpoint_final.bin"):
            assert not (run / name).exists(), name

    def test_run_without_epochs_writes_no_log(self, tmp_path, tiny_run):
        cfg = write_config(tmp_path, phase1_epochs=0, phase2_epochs=0)
        run = tmp_path / "r0"
        assert cli.main(["train", "--data", str(tiny_run / "data"), "--config", str(cfg), "--out", str(run)]) == 0
        assert sorted(p.name for p in run.iterdir()) == ["baseline.bin", "checkpoint_final.bin", "manifest.json"]

    def test_rerun_removes_the_earlier_runs_files(self, val_run):
        # A 2+0 run without validation subjects into the 2+2 run's --out
        # writes no checkpoint_last.bin and no val_l_r: none of the first
        # run's may be left.
        cfg = write_config(val_run, n_train_subjects=5, phase2_epochs=0, val_fraction=0.0)
        run = val_run / "run"
        assert cli.main(["train", "--data", str(val_run / "data"), "--config", str(cfg), "--out", str(run)]) == 0
        assert sorted(p.name for p in run.iterdir()) == [
            "baseline.bin", "checkpoint_final.bin", "checkpoint_phase1.bin", "manifest.json", "training_log.csv",
        ]
        with open(run / "training_log.csv") as f:
            assert [(r["epoch"], r["val_l_r"]) for r in csv.DictReader(f)] == [("0", ""), ("1", "")]

    def test_rerun_that_overflows_leaves_no_earlier_end_of_run_file(self, tiny_run, capsys):
        # After a complete run, a rerun whose phase 2 overflows keeps only
        # what its phase-1 epochs wrote, so `predict --model
        # run/checkpoint_final.bin` cannot pick up the earlier model.
        run = tiny_run / "run"
        first_log = (run / "training_log.csv").read_text().splitlines()
        cfg = write_config(tiny_run, phase2_lr=1e120)
        assert cli.main(["train", "--data", str(tiny_run / "data"), "--config", str(cfg), "--out", str(run)]) == 3
        capsys.readouterr()
        assert sorted(p.name for p in run.iterdir()) == ["checkpoint_phase1.bin", "training_log.csv"]
        # Exactly the phase-1 rows, which both runs share.
        assert (run / "training_log.csv").read_text().splitlines() == first_log[:3]

    def test_nan_in_the_first_epoch_claims_no_checkpoint(self, tmp_path, tiny_run, capsys):
        # The first step blows the weights up and the second batch's loss
        # overflows: no epoch finishes, so no checkpoint exists to retain.
        cfg = write_config(tmp_path, optimizer={"lr": 1e300}, batch_size=1, phase1_epochs=2, phase2_epochs=0)
        capsys.readouterr()
        rc = cli.main(["train", "--data", str(tiny_run / "data"), "--config", str(cfg), "--out", str(tmp_path / "r3")])
        assert rc == 3
        err = capsys.readouterr().err
        assert err == "numeric failure: non-finite loss at epoch 0 (no checkpoint was written)\n"
        assert not list((tmp_path / "r3").glob("checkpoint_*.bin"))

    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_non_finite_target_exit_2_before_out(self, tmp_path, capsys, value):
        from brainsurf.fileio import write_tensor

        cfg = write_config(tmp_path)
        assert cli.main(["gen-data", "--config", str(cfg), "--out", str(tmp_path / "data")]) == 0
        target = tmp_path / "data" / "subjects" / "sub000" / "target.bin"
        bad = read_tensor(target)
        bad[1, 7] = value
        write_tensor(target, bad)
        capsys.readouterr()
        rc = cli.main(["train", "--data", str(tmp_path / "data"), "--config", str(cfg), "--out", str(tmp_path / "run")])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("corrupt input:") and "sub000/target.bin" in err and err.count("\n") == 1
        assert not (tmp_path / "run").exists()

    def test_overflow_prints_only_the_one_line_message(self, tmp_path, tiny_run):
        # The blown-up phase-2 weights overflow in the next forward; numpy's
        # RuntimeWarning must not precede the exit-3 message.  pytest
        # captures warnings, so only a separate process shows them.
        cfg = write_config(tmp_path, phase1_epochs=2, phase2_epochs=3, phase2_lr=1e120)
        env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).parents[1])}
        done = subprocess.run(
            [sys.executable, "-m", "brainsurf.cli", "train", "--data", str(tiny_run / "data"),
             "--config", str(cfg), "--out", str(tmp_path / "r3")],
            capture_output=True, text=True, env=env, timeout=120,
        )
        assert done.returncode == 3
        assert done.stderr.startswith("numeric failure:") and done.stderr.count("\n") == 1, done.stderr

    @pytest.mark.parametrize("corrupt", ["shape", "truncated"])
    def test_bad_sample_exit_2_before_training(self, tmp_path, capsys, corrupt):
        # sample_7.bin of the last fit subject is the last sample a per-use
        # read would reach: train must reject it before phase 1.
        from brainsurf.fileio import write_tensor

        cfg = write_config(tmp_path)
        assert cli.main(["gen-data", "--config", str(cfg), "--out", str(tmp_path / "data")]) == 0
        sample = tmp_path / "data" / "subjects" / "sub003" / "sample_7.bin"
        if corrupt == "shape":
            write_tensor(sample, np.ones((4, 40)))
        else:
            sample.write_bytes(sample.read_bytes()[:-8])
        capsys.readouterr()
        rc = cli.main(["train", "--data", str(tmp_path / "data"), "--config", str(cfg), "--out", str(tmp_path / "run")])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("corrupt input:") and err.count("\n") == 1 and "sub003/sample_7.bin" in err
        assert not (tmp_path / "run" / "checkpoint_phase1.bin").exists()

    def test_bool_in_target_shape_exit_2(self, tmp_path, capsys):
        cfg = write_config(tmp_path)
        assert cli.main(["gen-data", "--config", str(cfg), "--out", str(tmp_path / "data")]) == 0
        target = tmp_path / "data" / "subjects" / "sub000" / "target.bin"
        target.write_bytes(b'{"shape": [true], "dtype": "<f8"}\n' + bytes(8))
        capsys.readouterr()
        rc = cli.main(["train", "--data", str(tmp_path / "data"), "--config", str(cfg), "--out", str(tmp_path / "run")])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("corrupt input:") and err.count("\n") == 1 and "sub000/target.bin" in err
        assert not (tmp_path / "run").exists()

    def test_memory_does_not_grow_with_the_cohort(self, tmp_path):
        # Samples are read when a step uses them: 6 fit subjects peak within
        # one subject's connectomes (8 x 40 x 162 float64, 415 kB) of 2.
        gen = {"mesh_level": 2, "n_rois": 20, "t_per_run": 60, "smooth_steps": 3}

        def traced_peak(n_subjects):
            cfg = write_config(tmp_path, generator=gen, model={"encoder_widths": [6], "bottleneck_width": 12},
                               n_train_subjects=n_subjects, n_test_subjects=1, val_fraction=0.0,
                               phase1_epochs=1, phase2_epochs=1)
            data = tmp_path / f"d{n_subjects}"
            assert cli.main(["gen-data", "--config", str(cfg), "--out", str(data)]) == 0
            tracemalloc.start()
            try:
                assert cli.main(["train", "--data", str(data), "--config", str(cfg),
                                 "--out", str(tmp_path / f"r{n_subjects}")]) == 0
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        one_subject = 8 * 2 * gen["n_rois"] * 162 * 8
        assert traced_peak(6) - traced_peak(2) < one_subject

    def test_partial_model_section_takes_the_run_seed(self, tmp_path, tiny_run):
        # The section gives only widths: channels and level come from the
        # generator, the seed from the run.
        cfg = write_config(tmp_path, model={"encoder_widths": [6], "bottleneck_width": 12})
        out = tmp_path / "r_partial"
        assert cli.main(["train", "--data", str(tiny_run / "data"), "--config", str(cfg), "--out", str(out)]) == 0
        config = load_model(out / "checkpoint_final.bin").config
        assert (config.seed, config.input_channels, config.output_channels, config.mesh_level) == (5, 4, 2, 1)

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
        model = load_model(tiny_run / "run" / "checkpoint_final.bin")
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

    def test_repeated_subject_exit_2(self, tiny_run, capsys):
        rc = cli.main([
            "predict", "--model", str(tiny_run / "run" / "checkpoint_final.bin"),
            "--data", str(tiny_run / "data"), "--out", str(tiny_run / "pr2"),
            "--subjects", "sub004,sub005,sub004",
        ])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("config error:") and "sub004" in err and err.count("\n") == 1

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

    def test_bad_sample_of_last_subject_exit_2_before_out(self, tiny_run, capsys):
        # sample_7.bin of the last requested subject is the last file predict
        # would read: it is rejected before any prediction is written.
        sample = tiny_run / "data" / "subjects" / "sub005" / "sample_7.bin"
        sample.write_bytes(sample.read_bytes()[:-8])
        capsys.readouterr()
        rc = cli.main([
            "predict", "--model", str(tiny_run / "run" / "checkpoint_final.bin"),
            "--data", str(tiny_run / "data"), "--out", str(tiny_run / "ps"), "--subjects", "sub004,sub005",
        ])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("corrupt input:") and err.count("\n") == 1 and "sub005/sample_7.bin" in err
        assert not (tiny_run / "ps").exists()

    @pytest.mark.parametrize("command, subject, name, shape", [
        ("predict", "sub004", "sample_0.bin", (4, 40)),
        ("train", "sub000", "sample_3.bin", (4, 40)),
        ("evaluate", "sub005", "target.bin", (2, 40)),
    ], ids=["predict", "train", "evaluate"])
    def test_file_shape_disagrees_with_cohort_json_exit_2(self, tiny_run, capsys, command, subject, name,
                                                         shape):
        from brainsurf.fileio import write_tensor

        write_tensor(tiny_run / "data" / "subjects" / subject / name, np.ones(shape))
        argv = {
            "predict": ["--model", str(tiny_run / "run" / "checkpoint_final.bin")],
            "train": ["--config", str(tiny_run / "cfg.json")],
            "evaluate": [],
        }[command]
        capsys.readouterr()
        assert cli.main([command, *argv, "--data", str(tiny_run / "data"), "--out", str(tiny_run / "out")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("corrupt input:") and err.count("\n") == 1
        assert f"{subject}/{name}" in err and str(list(shape)) in err and f"[{shape[0]}, 42]" in err

    @pytest.mark.parametrize("model, baseline, message", [
        ("baseline.bin", None, "not a model checkpoint"),
        ("checkpoint_final.bin", "checkpoint_final.bin", "not a baseline file"),
    ])
    def test_wrong_artifact_exit_2(self, tiny_run, capsys, model, baseline, message):
        args = [
            "predict", "--model", str(tiny_run / "run" / model),
            "--data", str(tiny_run / "data"), "--out", str(tiny_run / "pw"),
        ]
        if baseline is not None:
            args += ["--baseline", str(tiny_run / "run" / baseline)]
        capsys.readouterr()
        assert cli.main(args) == 2
        err = capsys.readouterr().err
        assert err.startswith("corrupt input:") and message in err and err.count("\n") == 1

    def test_model_from_another_dataset_exit_2(self, tiny_run, capsys):
        cfg = write_config(tiny_run, generator={**TINY_CONFIG["generator"], "n_rois": 3}, model=None)
        assert cli.main(["gen-data", "--config", str(cfg), "--out", str(tiny_run / "data3")]) == 0
        capsys.readouterr()
        assert cli.main([
            "predict", "--model", str(tiny_run / "run" / "checkpoint_final.bin"),
            "--data", str(tiny_run / "data3"), "--out", str(tiny_run / "p3"),
        ]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error:") and "input channels" in err and err.count("\n") == 1

    def test_checkpoint_of_another_level_exit_2_before_its_mesh_is_built(self, tiny_run, capsys, monkeypatch):
        # Parameter shapes do not depend on the mesh level, so these weights
        # load as a level-7 model, whose mesh alone would take seconds.
        arrays, meta = load_checkpoint(tiny_run / "run" / "checkpoint_final.bin")
        deep = tiny_run / "deep.bin"
        save_checkpoint(deep, arrays, meta={"model": {**meta["model"], "mesh_level": 7}})
        levels = []

        def spy(level):
            levels.append(level)
            if level == 7:
                raise AssertionError("predict built the checkpoint's mesh")
            return build_hierarchy(level)

        monkeypatch.setattr("brainsurf.model.build_hierarchy", spy)
        capsys.readouterr()
        assert cli.main([
            "predict", "--model", str(deep), "--data", str(tiny_run / "data"), "--out", str(tiny_run / "p7"),
        ]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error:") and "mesh levels differ" in err and err.count("\n") == 1
        assert 7 not in levels
        assert not (tiny_run / "p7").exists()

    def test_checkpoint_of_the_out_in_op_weight_layout_exit_2(self, tiny_run, capsys):
        # Conv weights are stored [4, in, out]; a checkpoint that holds them
        # as [out, in, 4] is reported with its first such parameter.
        arrays, meta = load_checkpoint(tiny_run / "run" / "checkpoint_final.bin")
        old = {k: v.transpose(2, 1, 0) if k.endswith(".weight") else v for k, v in arrays.items()}
        save_checkpoint(tiny_run / "old.bin", old, meta=meta)
        capsys.readouterr()
        assert cli.main([
            "predict", "--model", str(tiny_run / "old.bin"), "--data", str(tiny_run / "data"),
            "--out", str(tiny_run / "pold"),
        ]) == 2
        err = capsys.readouterr().err
        assert err.startswith("corrupt input:") and err.count("\n") == 1
        assert "parameter enc0.conv0.weight: checkpoint (6, 4, 4) vs model (4, 4, 6)" in err
        assert not (tiny_run / "pold").exists()

    @pytest.mark.parametrize("content, message", [
        ("{not json", "not JSON"),
        ("[1, 2]", "not a JSON object"),
        (None, "missing test_subjects"),
    ])
    def test_malformed_cohort_json_exit_2(self, tiny_run, capsys, content, message):
        path = tiny_run / "data" / "cohort.json"
        if content is None:
            manifest = json.loads(path.read_text())
            del manifest["test_subjects"]
            content = json.dumps(manifest)
        path.write_text(content)
        capsys.readouterr()
        for argv in (
            ["predict", "--model", str(tiny_run / "run" / "checkpoint_final.bin"), "--out", str(tiny_run / "pj")],
            ["evaluate", "--out", str(tiny_run / "ej")],
        ):
            assert cli.main([*argv, "--data", str(tiny_run / "data")]) == 2
            err = capsys.readouterr().err
            assert err.startswith("corrupt input:") and message in err and err.count("\n") == 1

    @pytest.mark.parametrize("n_vertices, n_contrasts, n_rois, message", [
        (162, 2, 2, "vertices"),  # fitted at level 2; the dataset is level 1
        (42, 3, 2, "contrasts"),
        (42, 2, 5, "ROIs"),
    ], ids=["level", "contrasts", "rois"])
    def test_baseline_from_another_dataset_exit_2(self, tiny_run, capsys, n_vertices, n_contrasts, n_rois,
                                                  message):
        from brainsurf.baseline import ParcelRegressor, save_baseline

        labels = np.arange(n_vertices) % 4
        save_baseline(tiny_run / "other.bin", ParcelRegressor(np.zeros((4, n_contrasts, n_rois + 1)), labels))
        capsys.readouterr()
        assert cli.main([
            "predict", "--model", str(tiny_run / "run" / "checkpoint_final.bin"),
            "--data", str(tiny_run / "data"), "--out", str(tiny_run / "pbx"),
            "--baseline", str(tiny_run / "other.bin"),
        ]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error:") and message in err and err.count("\n") == 1
        assert not (tiny_run / "pbx").exists()

    @pytest.mark.parametrize("key, value", [
        ("train_subjects", 3),
        ("test_subjects", "sub004"),
        ("train_subjects", ["sub000", 1]),
        ("test_subjects", None),
        ("train_subjects", []),
        ("test_subjects", ["sub004", "sub000"]),  # sub000 is a training subject too
        ("train_subjects", ["sub000", "sub001", "sub001", "sub002", "sub003"]),
        # Subject ids name directories and output files, so each must be a plain file name.
        ("test_subjects", ["sub004", ""]),
        ("test_subjects", ["sub004", "."]),
        ("train_subjects", ["sub000", "sub001", "sub002", ".."]),
        ("test_subjects", ["sub004", "sub\x00005"]),
        ("test_subjects", ["../../elsewhere/sub005"]),
        ("train_subjects", ["sub000", "sub001", "sub002", "subjects/sub003"]),
        ("test_subjects", ["sub004", "sub\ud800005"]),  # a lone surrogate: no UTF-8 path holds it
    ])
    def test_cohort_json_field_types_exit_2(self, tiny_run, capsys, key, value):
        path = tiny_run / "data" / "cohort.json"
        manifest = json.loads(path.read_text())
        manifest[key] = value
        path.write_text(json.dumps(manifest))
        capsys.readouterr()
        for argv in (
            ["train", "--config", str(tiny_run / "cfg.json"), "--out", str(tiny_run / "rt")],
            ["predict", "--model", str(tiny_run / "run" / "checkpoint_final.bin"), "--out", str(tiny_run / "pt")],
            ["evaluate", "--out", str(tiny_run / "et")],
        ):
            assert cli.main([*argv, "--data", str(tiny_run / "data")]) == 2
            err = capsys.readouterr().err
            assert err.startswith("corrupt input:") and key in err and err.count("\n") == 1
        assert not any((tiny_run / d).exists() for d in ("rt", "pt", "et"))

    def test_subject_id_outside_the_dataset_exit_2(self, tiny_run, capsys):
        path = tiny_run / "data" / "cohort.json"
        manifest = json.loads(path.read_text())
        manifest["test_subjects"] = ["../../elsewhere/sub005"]
        path.write_text(json.dumps(manifest))
        (tiny_run / "elsewhere").mkdir()
        (tiny_run / "data" / "subjects" / "sub005").rename(tiny_run / "elsewhere" / "sub005")
        capsys.readouterr()
        assert cli.main([
            "predict", "--model", str(tiny_run / "run" / "checkpoint_final.bin"),
            "--data", str(tiny_run / "data"), "--out", str(tiny_run / "o" / "p"),
        ]) == 2
        err = capsys.readouterr().err
        assert err.startswith("corrupt input:") and "test_subjects" in err and err.count("\n") == 1
        # --out/../../elsewhere/sub005.bin would land beside the moved subject.
        assert not (tiny_run / "o").exists()
        assert [p.name for p in (tiny_run / "elsewhere").iterdir()] == ["sub005"]

    @pytest.mark.parametrize("flag, name, edit, message", [
        ("--model", "checkpoint_final.bin", lambda h: h["entries"][0].pop("name"), "malformed header"),
        ("--baseline", "baseline.bin", lambda h: h["entries"][1].update(offset=0), "offset"),
    ], ids=["model-entry-without-name", "baseline-entry-offset"])
    def test_malformed_checkpoint_entries_exit_2(self, tiny_run, capsys, flag, name, edit, message):
        header, payload = (tiny_run / "run" / name).read_bytes().split(b"\n", 1)
        header = json.loads(header)
        edit(header)
        bad = tiny_run / "bad.bin"
        bad.write_bytes(json.dumps(header).encode() + b"\n" + payload)
        model = bad if flag == "--model" else tiny_run / "run" / "checkpoint_final.bin"
        args = ["predict", "--model", str(model), "--data", str(tiny_run / "data"), "--out", str(tiny_run / "pm")]
        if flag == "--baseline":
            args += ["--baseline", str(bad)]
        capsys.readouterr()
        assert cli.main(args) == 2
        err = capsys.readouterr().err
        assert err.startswith("corrupt input:") and message in err and err.count("\n") == 1

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

    def test_one_correlation_matrix_per_variant_and_contrast(self, tiny_run, monkeypatch):
        calls = []
        original = evaluate.correlation_matrix

        def counting(*args, **kwargs):
            calls.append(kwargs.get("contrast_id"))
            return original(*args, **kwargs)

        # Count the calls made through every module that binds the function.
        for module in (evaluate, cli):
            if hasattr(module, "correlation_matrix"):
                monkeypatch.setattr(module, "correlation_matrix", counting)
        preds = tiny_run / "pc"
        cli.main([
            "predict", "--model", str(tiny_run / "run" / "checkpoint_final.bin"),
            "--data", str(tiny_run / "data"), "--out", str(preds),
            "--baseline", str(tiny_run / "run" / "baseline.bin"),
        ])
        assert cli.main([
            "evaluate", "--data", str(tiny_run / "data"), "--preds", f"model={preds}",
            "--preds", f"baseline={preds / 'baseline'}", "--out", str(tiny_run / "ec"),
        ]) == 0
        # (model, baseline, group_average, retest) x 2 contrasts, one matrix file each.
        assert sorted(calls) == [0, 0, 0, 0, 1, 1, 1, 1]
        assert len(list((tiny_run / "ec" / "matrices").iterdir())) == 8

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

    def test_prediction_shapes_differ_between_subjects_exit_5(self, tiny_run, capsys):
        from brainsurf.fileio import write_tensor

        preds = tiny_run / "ragged"
        preds.mkdir()
        write_tensor(preds / "sub004.bin", np.ones((2, 42)))
        write_tensor(preds / "sub005.bin", np.ones((2, 40)))
        capsys.readouterr()
        assert cli.main([
            "evaluate", "--data", str(tiny_run / "data"), "--preds", f"model={preds}",
            "--out", str(tiny_run / "eval_ragged"),
        ]) == 5
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert "'model'" in err and "sub005" in err and "[2, 40]" in err and "[2, 42]" in err

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

    @pytest.mark.parametrize("subject, kind, value", [
        ("sub000", "target", np.nan),  # a training subject: the group average reads it
        ("sub005", "target", np.inf),
        ("sub004", "retest", -np.inf),
    ])
    def test_non_finite_observed_map_exit_2(self, tiny_run, capsys, subject, kind, value):
        from brainsurf.fileio import write_tensor

        path = tiny_run / "data" / "subjects" / subject / f"{kind}.bin"
        bad = read_tensor(path)
        bad[0, 3] = value
        write_tensor(path, bad)
        capsys.readouterr()
        rc = cli.main(["evaluate", "--data", str(tiny_run / "data"), "--out", str(tiny_run / "eval_bad")])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("corrupt input:") and f"{subject}/{kind}.bin" in err and err.count("\n") == 1
        assert not (tiny_run / "eval_bad").exists()

    @pytest.mark.parametrize("command", ["predict", "evaluate"])
    @pytest.mark.parametrize("subjects", ["", "sub004,,sub005", "sub004,sub005,"])
    def test_empty_subject_id_exit_2(self, tiny_run, capsys, command, subjects):
        args = [command, "--data", str(tiny_run / "data"), "--subjects", subjects, "--out", str(tiny_run / "out")]
        if command == "predict":
            args += ["--model", str(tiny_run / "run" / "checkpoint_final.bin")]
        capsys.readouterr()
        assert cli.main(args) == 2
        err = capsys.readouterr().err
        assert err == f"config error: --subjects {subjects!r} holds an empty id\n"
        assert not (tiny_run / "out").exists()

    @pytest.mark.parametrize(
        "subjects, code",
        [("sub004", 2), ("sub004,sub005,sub004", 2), ("sub004,nope", 4)],
    )
    def test_subject_list_errors(self, tiny_run, capsys, subjects, code):
        # One subject cannot be fingerprinted; a repeated one would tie with
        # itself; an unknown one is a missing subject.
        capsys.readouterr()
        rc = cli.main([
            "evaluate", "--data", str(tiny_run / "data"), "--subjects", subjects,
            "--out", str(tiny_run / "eval_subj"),
        ])
        assert rc == code
        assert capsys.readouterr().err.count("\n") == 1
        assert not (tiny_run / "eval_subj").exists()

    def test_fewer_than_two_test_subjects_exit_2(self, tmp_path, capsys):
        for n_test in (0, 1):
            cfg = write_config(tmp_path, n_test_subjects=n_test)
            data = tmp_path / f"d{n_test}"
            assert cli.main(["gen-data", "--config", str(cfg), "--out", str(data)]) == 0
            capsys.readouterr()
            assert cli.main(["evaluate", "--data", str(data), "--out", str(tmp_path / "e")]) == 2
            err = capsys.readouterr().err
            assert err.startswith("config error:") and err.count("\n") == 1

    # A name is part of the matrix dumps' file names: "../../esc" would write
    # them two levels above --out, and "a/b" into a directory that is not there.
    # It is also a report.csv cell: "m\udcff" is the argument byte string
    # b"m\xff", which is not UTF-8.
    @pytest.mark.parametrize(
        "names", [["group_average"], ["retest"], ["model", "model"], [""], ["../../esc"], ["a/b"], ["m\udcff"]]
    )
    def test_reserved_or_repeated_preds_name_exit_2(self, tiny_run, capsys, names):
        from brainsurf.connectome import load_dataset
        from brainsurf.fileio import write_tensor

        ds = load_dataset(tiny_run / "data")
        preds = tiny_run / "named_preds"
        preds.mkdir()
        for sid in ds.test_ids:
            write_tensor(preds / f"{sid}.bin", ds.target(sid))
        before = sorted(tiny_run.rglob("*"))
        capsys.readouterr()
        args = ["evaluate", "--data", str(tiny_run / "data"), "--out", str(tiny_run / "eval_names")]
        for name in names:
            args += ["--preds", f"{name}={preds}"]
        assert cli.main(args) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error:") and repr(names[-1]) in err and err.count("\n") == 1
        assert sorted(tiny_run.rglob("*")) == before

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


def _model(run):
    return str(run / "run" / "checkpoint_final.bin")


PATH_ERRORS = {
    "gen-data --out file": lambda run: ["gen-data", "--config", str(run / "cfg.json"), "--out", str(run / "file")],
    "train --out file": lambda run: [
        "train", "--data", str(run / "data"), "--config", str(run / "cfg.json"), "--out", str(run / "file"),
    ],
    "predict --out file": lambda run: [
        "predict", "--model", _model(run), "--data", str(run / "data"), "--out", str(run / "file"),
    ],
    "evaluate --out file": lambda run: ["evaluate", "--data", str(run / "data"), "--out", str(run / "file")],
    "train --data file": lambda run: [
        "train", "--data", str(run / "file"), "--config", str(run / "cfg.json"), "--out", str(run / "t"),
    ],
    "gen-data --config dir": lambda run: ["gen-data", "--config", str(run / "dir"), "--out", str(run / "g")],
    "predict --model dir": lambda run: [
        "predict", "--model", str(run / "dir"), "--data", str(run / "data"), "--out", str(run / "p"),
    ],
    "evaluate --preds map dir": lambda run: [
        "evaluate", "--data", str(run / "data"), "--preds", f"m={run / 'dir'}", "--out", str(run / "e"),
    ],
}


class TestPathErrors:
    @pytest.mark.parametrize("case", PATH_ERRORS)
    def test_path_of_the_wrong_kind_exit_2(self, tiny_run, capsys, case):
        # A file where a directory belongs, or the reverse: one line, exit 2.
        (tiny_run / "file").write_text("not a directory\n")
        for sid in ("sub004", "sub005"):  # the test subjects' maps, as directories
            (tiny_run / "dir" / f"{sid}.bin").mkdir(parents=True)
        capsys.readouterr()
        assert cli.main(PATH_ERRORS[case](tiny_run)) == 2
        err = capsys.readouterr().err
        assert err.startswith("bad path:") and err.count("\n") == 1
        assert (tiny_run / "file").read_text() == "not a directory\n"

    def test_evaluate_out_below_a_file_exit_2_before_any_work(self, tiny_run, capsys, monkeypatch):
        (tiny_run / "file").write_text("not a directory\n")
        calls = []
        original = cli.ablation_report

        def spying(*args):
            calls.append(args)
            return original(*args)

        monkeypatch.setattr(cli, "ablation_report", spying)
        capsys.readouterr()
        argv = ["evaluate", "--data", str(tiny_run / "data"), "--out", str(tiny_run / "file" / "sub" / "dir")]
        assert cli.main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("bad path:") and err.count("\n") == 1 and str(tiny_run / "file") in err
        assert calls == []
        assert (tiny_run / "file").read_text() == "not a directory\n"


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

    @pytest.mark.parametrize("coords", ["0", "-1"])
    def test_coords_below_one_exit_2(self, capsys, coords):
        with pytest.raises(SystemExit) as caught:
            cli.main(["gradcheck", "--coords", coords])
        assert caught.value.code == 2
        assert "--coords" in capsys.readouterr().err

    def test_negative_seed_exit_2(self, capsys):
        with pytest.raises(SystemExit) as caught:
            cli.main(["gradcheck", "--seed", "-1"])
        assert caught.value.code == 2
        assert "--seed" in capsys.readouterr().err

    def test_corrupted_backward_fails(self, monkeypatch, capsys):
        # Negative control: a wrong negative-side slope (0.9 for 0.1) in the
        # backward pass of each conv's activation must be caught by the
        # finite-difference comparison.
        original = meshlayers.mesh_conv

        def corrupted(layer, x, slope=None, **coarse):
            out = original(layer, x, slope, **coarse)
            if slope is not None and out._backward_fn is not None:
                backward_fn = out._backward_fn
                scale = np.where(out.data > 0.0, 1.0, 0.9 / slope)
                out._backward_fn = lambda g: backward_fn(g * scale)
            return out

        monkeypatch.setattr(meshlayers, "mesh_conv", corrupted)
        rc = cli.main(["gradcheck", "--coords", "40"])
        assert rc == 1
        assert "worst coordinate" in capsys.readouterr().out


class TestExitCodes:
    @pytest.mark.parametrize("exc, code, err", [
        (ConfigError("x"), 2, "config error: x\n"),
        (FileNotFoundError("x"), 2, "missing input: x\n"),
        (FileExistsError("x"), 2, "bad path: x\n"),
        (NotADirectoryError("x"), 2, "bad path: x\n"),
        (IsADirectoryError("x"), 2, "bad path: x\n"),
        (PermissionError("x"), 2, "bad path: x\n"),
        (CorruptFile("x"), 2, "corrupt input: x\n"),
        (ZeroVariance("x"), 2, "invalid input: x\n"),
        (NaNLossError("x"), 3, "numeric failure: x\n"),
        (cli.MissingSubjects("x"), 4, "x\n"),
        (evaluate.SubjectMismatch("x"), 5, "x\n"),
    ], ids=lambda v: type(v).__name__ if isinstance(v, Exception) else None)
    def test_failure_maps_to_code_and_one_stderr_line(self, monkeypatch, capsys, exc, code, err):
        def failing(args):
            raise exc

        monkeypatch.setattr(cli, "cmd_gradcheck", failing)
        assert cli.main(["gradcheck"]) == code
        assert capsys.readouterr().err == err

    def test_every_exception_class_has_an_exit(self):
        # EXITS is the package's failure vocabulary: a class of its own is
        # defined only where the CLI tells that failure apart.
        handled = {cls for classes, _, _ in cli.EXITS for cls in classes}
        names = [f"brainsurf.{m.name}" for m in pkgutil.iter_modules(brainsurf.__path__)]
        modules = [brainsurf, *map(importlib.import_module, names)]
        defined = [
            obj
            for module in modules
            for obj in vars(module).values()
            if isinstance(obj, type) and issubclass(obj, BaseException) and not issubclass(obj, Warning)
            and obj.__module__ == module.__name__
        ]
        assert defined and [cls.__qualname__ for cls in defined if cls not in handled] == []

    def test_unlisted_exception_propagates(self, monkeypatch):
        def failing(args):
            raise RuntimeError("x")

        monkeypatch.setattr(cli, "cmd_gradcheck", failing)
        with pytest.raises(RuntimeError):
            cli.main(["gradcheck"])


class TestRerun:
    def test_every_output_file_byte_identical(self, tmp_path):
        # gen-data -> train -> predict --baseline --dump-samples -> evaluate
        # --row-zscore, twice from one config: every file either run writes
        # has the same bytes, and no *.tmp is left behind.
        cfg = write_config(tmp_path)
        trees = []
        for tag in ("a", "b"):
            base = tmp_path / tag
            data, run, preds = base / "data", base / "run", base / "preds"
            assert cli.main(["gen-data", "--config", str(cfg), "--out", str(data)]) == 0
            assert cli.main(["train", "--data", str(data), "--config", str(cfg), "--out", str(run)]) == 0
            assert cli.main([
                "predict", "--model", str(run / "checkpoint_final.bin"), "--data", str(data),
                "--out", str(preds), "--baseline", str(run / "baseline.bin"), "--dump-samples",
            ]) == 0
            assert cli.main([
                "evaluate", "--data", str(data), "--preds", f"model={preds}",
                "--preds", f"baseline={preds / 'baseline'}", "--out", str(base / "eval"), "--row-zscore",
            ]) == 0
            trees.append({str(p.relative_to(base)): p.read_bytes() for p in base.rglob("*") if p.is_file()})
        a, b = trees
        assert {"run/checkpoint_final.bin", "preds/sub004_sample_7.bin", "eval/report.json"} <= a.keys()
        assert not [p for p in a.keys() | b.keys() if p.endswith(".tmp")]
        assert a.keys() == b.keys()
        assert sorted(p for p in a if a[p] != b[p]) == []
