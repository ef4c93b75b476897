"""brainsurf benchmark: run one workload's pipeline in fresh single-threaded
processes and print its end-to-end metrics (``--trace 0``) or its per-layer
metrics (``--trace 1``).

    python3 perfbench/run.py --workload desk --seed 1 --seconds 30 --trace 0

Run from the root of a checkout; the program is imported from ``src``.  The
last line of stdout is one JSON object: correct, attempted, failed, metrics.
See perfbench/README.md for the workloads and what each metric means.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import shutil
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402

SETUP_PROBES = 5
# heldout_mse is the median over the first four distinct cohorts (pipeline 1
# reruns pipeline 0), so it depends on the code and the seed, not on how many
# pipelines fit in the run.
QUALITY_PIPELINES = (0, 2, 3, 4)
WORKER_TIMEOUT_S = 150
# The benchmark pins BLAS to one thread itself: brainsurf's MESHNET_THREADS is
# applied only after `import brainsurf` has already loaded numpy, so it has no
# effect (see README.md).
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


class BenchError(RuntimeError):
    pass


def child_env(root: Path) -> dict[str, str]:
    env = dict(os.environ)
    for var in THREAD_VARS:
        env[var] = "1"
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(root / "src"), env.get("PYTHONPATH")]))
    env["PYTHONHASHSEED"] = "0"
    return env


def worker_cmd(workload: str, seed: int, work: Path, *extra: str) -> list[str]:
    return [
        sys.executable, str(HERE / "worker.py"), "--workload", workload, "--seed", str(seed),
        "--work", str(work), *extra,
    ]


def check_import_path(result: dict, root: Path) -> None:
    if Path(result["brainsurf"]) != (root / "src" / "brainsurf").resolve():
        raise BenchError(f"imported brainsurf from {result['brainsurf']}, not from this checkout")


def run_worker(cmd: list[str], env: dict[str, str], root: Path) -> dict:
    proc = subprocess.run(
        cmd, env=env, cwd=root, stdout=subprocess.PIPE, text=True, timeout=WORKER_TIMEOUT_S
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"worker exited {proc.returncode}: {' '.join(cmd[1:])}")
    result = json.loads(lines[-1])
    check_import_path(result, root)
    if not result["pipelines"]:
        raise BenchError(f"no pipeline completed: {result['failures']}")
    return result


def setup_times(workload: str, seed: int, work: Path, env: dict[str, str], root: Path) -> list[float]:
    """Fresh process to ready, timed from the parent: interpreter start,
    `import brainsurf`, build_hierarchy and build_model."""
    times = []
    for _ in range(SETUP_PROBES):
        t0 = time.perf_counter()
        proc = subprocess.Popen(
            worker_cmd(workload, seed, work, "--setup-only"),
            env=env, cwd=root, stdout=subprocess.PIPE, text=True,
        )
        try:
            line = proc.stdout.readline()
            times.append(time.perf_counter() - t0)
            proc.stdout.read()
        finally:
            proc.stdout.close()
            code = proc.wait(timeout=WORKER_TIMEOUT_S)
        if code != 0 or not line:
            raise BenchError(f"set-up probe exited {code}")
        check_import_path(json.loads(line), root)
    return times


# Stage throughput: the work of a pipeline stage and the stage it times.
RATES = {
    "gen_data_subjects_per_s": ("n_subjects", "gen_data"),
    "train_samples_per_s": ("n_train_samples", "train"),
    "predict_subjects_per_s": ("n_test", "predict"),
}


def stage_metrics(pipelines: list[dict]) -> dict[str, list[float]]:
    """Per-pipeline values of the stage metrics."""
    out = {name: [p[work] / p["times"][stage] for p in pipelines] for name, (work, stage) in RATES.items()}
    out["pipeline_s"] = [sum(p["times"].values()) for p in pipelines]
    out["heldout_mse"] = [p["heldout_mse"] for p in pipelines]
    return out


def run_metrics(pipelines: list[dict]) -> dict[str, float]:
    """A run's stage timings: each throughput is the run's total work over its
    total stage time, pipeline_s the median over pipelines.  (On a shared
    machine a stage call runs at one of two speeds; a median over a dozen
    calls flips between them, the total does not.)"""
    out = {
        name: sum(p[work] for p in pipelines) / sum(p["times"][stage] for p in pipelines)
        for name, (work, stage) in RATES.items()
    }
    out["pipeline_s"] = float(np.median(stage_metrics(pipelines)["pipeline_s"]))
    return out


def tail_percentile(values: list[float]) -> tuple[int, float] | None:
    """The highest whole percentile with at least ten values beyond it."""
    n = len(values)
    if n < 11:
        return None
    p = math.floor(100.0 * (1.0 - 10.0 / n))
    return p, float(np.percentile(values, p))


def describe(name: str, value: float, values: list[float], unit: str, runs: str = "pipelines") -> str:
    tail = tail_percentile(values)
    tail_txt = f"p{tail[0]} {tail[1]:.6g}" if tail else f"no percentile has 10 {runs} beyond it"
    return (f"  {name:<26} {value:<10.6g} {unit:<11} over {runs}: median "
            f"{float(np.median(values)):.6g}, {tail_txt}; n={len(values)}")


def src_line_count(root: Path) -> int:
    return sum(len(p.read_text().splitlines()) for p in sorted((root / "src" / "brainsurf").glob("*.py")))


def environment(root: Path, threads: int) -> dict:
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    commit = None
    if (root / ".git").exists():
        got = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True, text=True)
        commit = got.stdout.strip() or None
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": {k: blas.get(k) for k in ("name", "version", "openblas configuration")},
        "nproc": len(os.sched_getaffinity(0)),
        "observed_threads": threads,
        "thread_env": {var: "1" for var in THREAD_VARS},
        "commit": commit,
        "src_loc": src_line_count(root),
    }


def metric_units(root: Path, kind: str) -> dict[str, str]:
    """Name -> unit of the ``end_to_end`` or ``per_layer`` metrics the run reports."""
    bench = json.loads((root / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in bench[kind]}


def untraced_run(args, root: Path, work: Path, env: dict[str, str]) -> tuple[dict, dict]:
    setups = setup_times(args.workload, args.seed, work, env, root)
    w = run_worker(
        worker_cmd(args.workload, args.seed, work, "--seconds", str(args.seconds),
                   "--min-pipelines", str(max(QUALITY_PIPELINES) + 1), "--gradcheck"),
        env, root,
    )
    per_pipeline = stage_metrics(w["pipelines"])
    metrics = run_metrics(w["pipelines"])
    metrics["heldout_mse"] = float(np.median([w["pipelines"][i]["heldout_mse"] for i in QUALITY_PIPELINES]))
    metrics["setup_s"] = float(np.median(setups))
    metrics["peak_rss_mb"] = float(w["peak_rss_mb"])
    units = metric_units(root, "end_to_end")
    print(f"workload {args.workload}, seed {args.seed}: {len(w['pipelines'])} closed-loop pipelines, "
          f"1 client, {args.seconds:g} s budget")
    print(describe("setup_s", metrics["setup_s"], setups, units["setup_s"], "processes"))
    for name, values in per_pipeline.items():
        print(describe(name, metrics[name], values, units[name]))
    print(f"  {'peak_rss_mb':<26} {metrics['peak_rss_mb']:<10.6g} MiB")
    return w, {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()}


def traced_run(args, root: Path, work: Path, env: dict[str, str]) -> tuple[list[dict], dict]:
    # The same closed loop twice, in fresh processes: untraced (which also
    # times each level's mesh_conv in isolation) and traced.  Their
    # difference is the tracing overhead.
    half = str(args.seconds / 2.0)
    plain = run_worker(
        worker_cmd(args.workload, args.seed, work, "--seconds", half, "--gradcheck", "--conv-timings"),
        env, root,
    )
    spans = root / ".bench_out" / f"spans-{args.workload}-seed{args.seed}.npz"
    traced = run_worker(
        worker_cmd(args.workload, args.seed, work, "--seconds", half, "--traced", "--spans", str(spans)),
        env, root,
    )
    layers = {**traced["layers"], **plain["conv"]}
    base = run_metrics(plain["pipelines"])
    with_trace = run_metrics(traced["pipelines"])
    print(f"workload {args.workload}, seed {args.seed}: traced {len(traced['pipelines'])} pipelines, "
          f"untraced {len(plain['pipelines'])}; spans in {spans.relative_to(root)}")
    print("  tracing overhead (traced vs untraced):")
    for name in (*RATES, "pipeline_s"):
        a, b = base[name], with_trace[name]
        print(f"    {name:<26} untraced {a:.6g}  traced {b:.6g}  ({100.0 * (b / a - 1.0):+.1f}%)")
    layers["trace.overhead_pipeline_pct"] = 100.0 * (with_trace["pipeline_s"] / base["pipeline_s"] - 1.0)
    print("  conv levels: " + ", ".join(f"{k} = l{v}" for k, v in plain["conv_levels"].items()))
    units = metric_units(root, "per_layer")
    for name, unit in units.items():
        print(f"  {name:<36} {layers[name]:.6g} {unit}")
    traced["attempted"] += 1
    if any(a["hash"] != b["hash"] for a, b in zip(plain["pipelines"], traced["pipelines"])):
        traced["failures"].append("traced predictions differ from untraced")
    metrics = {name: {"value": float(layers[name]), "unit": unit} for name, unit in units.items()}
    return [plain, traced], metrics


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args()

    root = Path.cwd()
    if not (root / "src" / "brainsurf" / "cli.py").is_file():
        print(f"no brainsurf source under {root / 'src'}: run from the root of a checkout", file=sys.stderr)
        return 2
    work = root / ".bench_out" / f"work-{args.workload}-{args.seed}-{os.getpid()}"
    env = child_env(root)
    try:
        if args.trace:
            workers, metrics = traced_run(args, root, work, env)
        else:
            worker, metrics = untraced_run(args, root, work, env)
            workers = [worker]
    except (BenchError, subprocess.TimeoutExpired, json.JSONDecodeError, KeyError) as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)

    attempted = sum(w["attempted"] for w in workers)
    failures = [f for w in workers for f in w["failures"]]
    print(f"  fail_ratio {len(failures)}/{attempted} = {len(failures) / attempted:.4g} ratio")
    for f in failures:
        print(f"  failed: {f}")
    grad = next(w["gradcheck_max_rel_error"] for w in workers if "gradcheck_max_rel_error" in w)
    print(f"  gradcheck max relative error {grad:.3e}")
    print("env: " + json.dumps(environment(root, workers[0]["threads"]), sort_keys=True))
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": metrics,
    }))
    return 0 if not failures else 1


if __name__ == "__main__":
    sys.exit(main())
