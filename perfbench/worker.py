"""One fresh benchmark process: set up brainsurf, then run the workload's
pipeline (gen-data -> train -> predict -> evaluate through
`brainsurf.cli.main`) in a closed loop until the time budget is spent.

Started by run.py with the BLAS thread caps already in its environment and
``src`` on PYTHONPATH.  The last line of stdout is one JSON object with the
stage timings, the output checks and, when traced, the per-layer metrics.
"""

from __future__ import annotations

import time

T_START = time.perf_counter()  # before numpy: set-up is timed from here

import argparse
import contextlib
import hashlib
import io
import json
import resource
import shutil
import sys
import traceback
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import numpy as np  # noqa: E402

import workloads  # noqa: E402

STAGES = ("gen_data", "train", "predict", "evaluate")
REPORT_VARIANTS = ("model", "baseline", "group_average", "retest")
GRADCHECK_THRESHOLD = 1e-4


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # KiB on Linux


def observed_threads() -> int:
    for line in Path("/proc/self/status").read_text().splitlines():
        if line.startswith("Threads:"):
            return int(line.split()[1])
    return -1


class Checks:
    """Operations attempted and failed: CLI stage calls and output checks."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failures: list[str] = []

    def check(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failures.append(what)
            print(f"check failed: {what}", file=sys.stderr)
        return ok


def predictions_hash(pred_dir: Path) -> str:
    h = hashlib.sha256()
    for path in sorted(pred_dir.rglob("*.bin")):
        h.update(str(path.relative_to(pred_dir)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def run_pipeline(cli, fileio, cfg: dict, work: Path, checks: Checks) -> dict | None:
    """One closed-loop pipeline; None when a stage failed."""
    work.mkdir(parents=True)
    config = work / "cfg.json"
    config.write_text(json.dumps(cfg))
    data, run, preds, evald = work / "data", work / "run", work / "preds", work / "eval"
    argvs = {
        "gen_data": ["gen-data", "--config", str(config), "--out", str(data)],
        "train": ["train", "--data", str(data), "--config", str(config), "--out", str(run)],
        "predict": [
            "predict", "--model", str(run / "checkpoint_final.bin"), "--data", str(data),
            "--out", str(preds), "--baseline", str(run / "baseline.bin"),
        ],
        "evaluate": [
            "evaluate", "--data", str(data), "--preds", f"model={preds}",
            "--preds", f"baseline={preds / 'baseline'}", "--out", str(evald),
        ],
    }
    times: dict[str, float] = {}
    gen_rss = 0.0
    for stage in STAGES:
        t0 = time.perf_counter()
        try:
            with contextlib.redirect_stdout(io.StringIO()):
                code = cli.main(argvs[stage])
        except Exception:  # a traceback is a failed operation, not a crash of the benchmark
            traceback.print_exc()
            code = None
        times[stage] = time.perf_counter() - t0
        if not checks.check(code == 0, f"{stage} exited {code}"):
            return None
        if stage == "gen_data":
            gen_rss = peak_rss_mb()

    cohort = json.loads((data / "cohort.json").read_text())
    gen = cohort["generator"]
    n_vertices = 10 * 4 ** gen["mesh_level"] + 2
    shape = (gen["n_contrasts"], n_vertices)
    errors = []
    ok = True
    for sid in cohort["test_subjects"]:
        model_pred = fileio.read_tensor(preds / f"{sid}.bin")
        baseline_pred = fileio.read_tensor(preds / "baseline" / f"{sid}.bin")
        ok &= all(p.shape == shape and bool(np.isfinite(p).all()) for p in (model_pred, baseline_pred))
        if model_pred.shape == shape:
            target = fileio.read_tensor(data / "subjects" / sid / "target.bin")
            errors.append(float(np.mean((model_pred - target) ** 2)))
    checks.check(ok, f"predictions finite with shape {list(shape)}")

    rows = json.loads((evald / "report.json").read_text())["rows"]
    variants = {r["variant"] for r in rows}
    checks.check(
        all(v in variants for v in REPORT_VARIANTS), f"report.json rows {sorted(variants)}"
    )

    n_train = cfg.get("n_train_subjects", 8)
    n_fit = n_train - int(n_train * cfg.get("val_fraction", 0.2))  # the CLI's validation split
    return {
        "times": times,
        "n_subjects": len(cohort["train_subjects"]) + len(cohort["test_subjects"]),
        "n_train_samples": n_fit * (cfg.get("phase1_epochs", 100) + cfg.get("phase2_epochs", 100)),
        "n_test": len(cohort["test_subjects"]),
        "heldout_mse": float(np.mean(errors)) if errors else float("nan"),
        "gen_peak_rss_mb": gen_rss,
        "hash": predictions_hash(preds),
    }


def gradcheck(cli, checks: Checks) -> float:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(["gradcheck", "--level", "2"])
    text = buf.getvalue()
    err = float(text.split("max relative error")[1].split()[0]) if "max relative error" in text else float("nan")
    checks.check(code == 0 and err < GRADCHECK_THRESHOLD, f"gradcheck exit {code}, max rel error {err}")
    return err


def conv_timings(model, ad, ml) -> tuple[dict[str, float], dict[str, int]]:
    """Forward and backward of one mesh_conv per model level, in isolation at
    the model's shapes: the widest conv of each level (the first decoder conv,
    which reads the skip concatenation, and the bottleneck's second conv)."""
    rng = np.random.default_rng(0)
    layers = {"top": model.decoder[0][0], "top-1": model.decoder[1][0], "top-2": model.bottleneck[1]}
    out = {}
    for label, layer in layers.items():
        n_vertices = layer.operators.identity.shape[0]
        x = ad.Tensor(rng.standard_normal((layer.in_channels, n_vertices)), requires_grad=True)
        fwd, bwd = [], []
        budget = time.perf_counter() + 0.4
        while len(fwd) < 5 or (time.perf_counter() < budget and len(fwd) < 200):
            t0 = time.perf_counter()
            y = ml.mesh_conv(layer, x)
            t1 = time.perf_counter()
            loss = y.sum()
            t2 = time.perf_counter()
            ad.backward(loss)
            t3 = time.perf_counter()
            fwd.append(t1 - t0)
            bwd.append(t3 - t2)
            model.zero_grad()
            x.zero_grad()
        out[f"meshlayers.conv_fwd_ms.{label}"] = float(np.median(fwd)) * 1e3
        out[f"meshlayers.conv_bwd_ms.{label}"] = float(np.median(bwd)) * 1e3
    return out, {label: layer.level for label, layer in layers.items()}


def main() -> int:
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--work", required=True, help="scratch directory for pipeline outputs")
    p.add_argument("--seconds", type=float, default=0.0, help="time budget for pipelines")
    p.add_argument("--min-pipelines", type=int, default=1)
    p.add_argument("--setup-only", action="store_true")
    p.add_argument("--traced", action="store_true")
    p.add_argument("--gradcheck", action="store_true")
    p.add_argument("--conv-timings", action="store_true")
    p.add_argument("--spans", default=None, help="file the traced run writes its spans to")
    args = p.parse_args()

    tracer = None
    if args.traced:
        import tracing

        tracer = tracing.Tracer()
        tracing.install(tracer)

    import brainsurf
    from brainsurf import autodiff as ad
    from brainsurf import cli, fileio
    from brainsurf import meshlayers as ml
    from brainsurf.icosphere import build_hierarchy
    from brainsurf.model import build_model

    cfg = workloads.run_config(args.workload, workloads.pipeline_seed(args.seed, 0))
    model_cfg = cli.RunConfig.from_dict(cfg).resolved_model()
    model = build_model(model_cfg, build_hierarchy(model_cfg.mesh_level))
    setup_s = time.perf_counter() - T_START
    result = {
        "setup_s": setup_s,
        "threads": observed_threads(),
        "brainsurf": str(Path(brainsurf.__file__).resolve().parent),
    }
    if args.setup_only:
        print(json.dumps(result))
        return 0

    checks = Checks()
    work = Path(args.work)
    pipelines: list[dict] = []
    loop_start = time.perf_counter()
    while True:
        if tracer is not None:
            tracer.run_id = len(pipelines)
        it_dir = work / f"p{len(pipelines)}"
        shutil.rmtree(it_dir, ignore_errors=True)
        cfg = workloads.run_config(args.workload, workloads.pipeline_seed(args.seed, len(pipelines)))
        got = run_pipeline(cli, fileio, cfg, it_dir, checks)
        shutil.rmtree(it_dir, ignore_errors=True)
        if got is None:
            break
        if len(pipelines) == 1:
            checks.check(got["hash"] == pipelines[0]["hash"], "predictions byte-identical across reruns")
        pipelines.append(got)
        elapsed = time.perf_counter() - loop_start
        per_pipeline = elapsed / len(pipelines)
        if len(pipelines) >= args.min_pipelines and elapsed + per_pipeline > args.seconds:
            break
    result["peak_rss_mb"] = peak_rss_mb()
    result["pipelines"] = pipelines

    if args.gradcheck:
        result["gradcheck_max_rel_error"] = gradcheck(cli, checks)
    if args.conv_timings:
        result["conv"], result["conv_levels"] = conv_timings(model, ad, ml)
    if tracer is not None and pipelines:
        import tracing

        gen_rss = pipelines[0]["gen_peak_rss_mb"]
        result["layers"] = tracing.layer_metrics(tracer, len(pipelines), gen_rss)
        if args.spans:
            header = {"workload": args.workload, "seed": args.seed, "runs": len(pipelines)}
            tracer.write(Path(args.spans), header)
    result["attempted"] = checks.attempted
    result["failures"] = checks.failures
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
