"""The benchmark's workloads: one brainsurf run config each, plus why it exists.

Every workload is run as a closed loop: one client (the worker process) runs
gen-data -> train -> predict -> evaluate, waits for each stage to finish, and
starts the next pipeline only when the previous one is done.  The run config
is a plain `brainsurf` config file.

Pipelines are kept to a few seconds so that one run holds many of them: on a
shared machine the speed of one stage call varies by ~10% from call to call,
and a run's figures steady with the number of pipelines more than with their
length.
"""

from __future__ import annotations

WORKLOADS: dict[str, dict] = {
    # README default model and generator (level 2 = 162 vertices, 5 ROIs,
    # 4 contrasts, batch 2, 8 training subjects).  Epochs are cut from
    # 100+100 to 10+10 so that one run fits many pipelines.  The held-out set
    # is 12 subjects so that `predict` runs long enough to time.
    "desk": {
        "why": "graph and interpreter overhead: level-2 training is ~190 tiny autodiff op calls "
        "per step (backward sweep, model.forward, adam_step); stresses autodiff, model, training",
        "config": {
            "phase1_epochs": 10,
            "phase2_epochs": 10,
            "n_train_subjects": 8,
            "n_test_subjects": 12,
        },
    },
    # Default widths at level 4 (2,562 vertices).  One epoch per phase: the
    # no-grad paths (init_margins, 8-variant ensemble predict) and the
    # sparse/dense kernels dominate, and generation holds every raw run.
    # 300 timepoints per run (default 600) halve generation so that `train`
    # and `predict` get a fair share of the run.
    "mesh4": {
        "why": "kernel and layout bound: sparse/dense matmuls and reshape copies at 2,562 "
        "vertices, heavy no-grad predict; stresses autodiff kernels, meshlayers, connectome",
        "config": {
            "generator": {"mesh_level": 4, "t_per_run": 300},
            "phase1_epochs": 1,
            "phase2_epochs": 1,
            "n_train_subjects": 5,
            "n_test_subjects": 2,
        },
    },
    # Paper channel widths (50 ROIs -> 100 input channels, 47 contrasts,
    # 1,200 timepoints per run) at level 3, batch 8 so that L_C averages 56
    # ordered pairs.  8 fit subjects (10 training, 2 of them validation).
    # 4 baseline parcels (~160 vertices each) keep every parcel's OLS design
    # (51 coefficients at 50 ROIs) overdetermined; the default 8 leaves some
    # parcels with fewer vertices than coefficients.
    "cohort": {
        "why": "data path: Pearson connectomes at 1,200 timepoints, dataset IO, per-parcel "
        "OLS fits and evaluation over 47 contrasts, batch-8 R-C loss; stresses connectome, "
        "fileio, baseline, evaluate, rcloss",
        "config": {
            "generator": {"mesh_level": 3, "n_rois": 50, "n_contrasts": 47, "t_per_run": 1200},
            "batch_size": 8,
            "baseline_parcels": 4,
            "phase1_epochs": 1,
            "phase2_epochs": 1,
            "n_train_subjects": 10,
            "n_test_subjects": 3,
        },
    },
}


def pipeline_seed(seed: int, index: int) -> int:
    """Config seed of a run's ``index``-th pipeline.  Pipelines 0 and 1 share
    one, so every run reruns one config (the byte-identical check); each later
    pipeline gets a fresh cohort, so that `heldout_mse`, a median over the
    run's pipelines, does not rest on a single synthetic cohort."""
    return seed * 1000 + max(index - 1, 0)


def run_config(workload: str, seed: int) -> dict:
    """The brainsurf run config for one workload and config seed.

    The seed drives the synthetic cohort, batch order and ensemble sampling;
    the network's initial weights are fixed (model seed 0).  At level 4 the
    untrained network's output scale, and so `heldout_mse`, depends mostly on
    its initial weights, which would swamp the seed-to-seed comparison.
    """
    cfg = WORKLOADS[workload]["config"]
    gen = {"mesh_level": 2, "n_rois": 5, "n_contrasts": 4, **cfg.get("generator", {})}
    model = {
        "input_channels": 2 * gen["n_rois"],
        "output_channels": gen["n_contrasts"],
        "mesh_level": gen["mesh_level"],
        "seed": 0,
    }
    return {"seed": seed, **cfg, "model": model}
