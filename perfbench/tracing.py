"""Span tracing of brainsurf from outside the package.

`install` wraps every public function of every brainsurf module (and a few
methods) with a recorder and rebinds each name wherever a module imported
it, so `brainsurf.cli` and the modules it calls run unchanged but leave a
span per call.  A span is (name, start, end, parent, run id); spans of one
pipeline run share the run id.  Spans are kept in flat arrays in memory and
written once, when the worker ends.

`layer_metrics` turns the spans of one traced worker into the per-layer
metrics listed in BENCHMARK.json.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import os
import time
from array import array
from pathlib import Path

import numpy as np

LAYERS = (
    "icosphere", "autodiff", "meshlayers", "model", "rcloss", "connectome",
    "baseline", "evaluate", "training", "fileio", "cli",
)

METHODS = (
    ("autodiff", "Tensor", "sum"),
    ("autodiff", "Tensor", "mean"),
    ("connectome", "Dataset", "samples"),
)

# autodiff functions that are not graph ops.
AUTODIFF_NON_OPS = {
    "autodiff.backward", "autodiff.adam_step", "autodiff.grad_check",
    "autodiff.save_checkpoint", "autodiff.load_checkpoint",
}

MIB = float(1 << 20)


def _file_bytes(args, kwargs, out) -> float:
    return float(os.path.getsize(args[0] if args else kwargs["path"]))


def _reshape_copy_bytes(args, kwargs, out) -> float:
    # Bytes the reshape computed into a new buffer because its input could
    # not be viewed in the requested shape.
    x = args[0]
    src = x.data if hasattr(x, "data") else np.asarray(x)
    return 0.0 if np.shares_memory(out.data, src) else float(out.data.nbytes)


BYTE_COUNTERS = {
    "fileio.write_tensor": _file_bytes,
    "fileio.read_tensor": _file_bytes,
    "autodiff.save_checkpoint": _file_bytes,
    "autodiff.load_checkpoint": _file_bytes,
    "autodiff.reshape": _reshape_copy_bytes,
}


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.run = array("i")
        self.start = array("d")
        self.end = array("d")
        self.bytes = array("d")
        self._stack = [-1]
        self.run_id = -1  # -1 while setting up, then the pipeline index

    def _name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def wrap(self, name: str, fn):
        nid = self._name_id(name)
        counter = BYTE_COUNTERS.get(name)
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(self.start)
            self.name_id.append(nid)
            self.parent.append(stack[-1])
            self.run.append(self.run_id)
            self.bytes.append(0.0)
            self.end.append(0.0)
            stack.append(idx)
            self.start.append(clock())
            try:
                out = fn(*args, **kwargs)
            finally:
                self.end[idx] = clock()
                stack.pop()
            if counter is not None:
                self.bytes[idx] = counter(args, kwargs, out)
            return out

        return traced

    def arrays(self) -> dict[str, np.ndarray]:
        return {
            "name_id": np.frombuffer(self.name_id, dtype=np.int32).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int32).copy(),
            "run": np.frombuffer(self.run, dtype=np.int32).copy(),
            "start": np.frombuffer(self.start, dtype=np.float64).copy(),
            "end": np.frombuffer(self.end, dtype=np.float64).copy(),
            "bytes": np.frombuffer(self.bytes, dtype=np.float64).copy(),
        }

    def write(self, path: Path, header: dict) -> None:
        np.savez(path, names=np.array(json.dumps({**header, "names": self.names})), **self.arrays())


def _public_functions(mod):
    for attr, fn in vars(mod).items():
        if attr.startswith("_") or not callable(fn) or isinstance(fn, type):
            continue
        if getattr(fn, "__module__", None) != mod.__name__:
            continue  # imported from elsewhere: wrapped where it is defined
        if inspect.isgeneratorfunction(getattr(fn, "__wrapped__", None)):
            continue  # context managers (no_grad, trace_hinges)
        yield attr, fn


def install(tracer: Tracer) -> None:
    """Wrap brainsurf's public functions in place; call before any set-up."""
    from brainsurf import autodiff

    modules = {name: importlib.import_module(f"brainsurf.{name}") for name in LAYERS}
    replaced: dict[int, tuple[object, object]] = {}
    for name, mod in modules.items():
        for attr, fn in _public_functions(mod):
            wrapper = tracer.wrap(f"{name}.{attr}", fn)
            if name == "training" and attr == "validation_hook":
                wrapper = _wrap_result(tracer, "training.val_hook", wrapper)
            replaced[id(fn)] = (fn, wrapper)

    package = importlib.import_module("brainsurf")
    for mod in [package, *modules.values()]:
        for attr, val in list(vars(mod).items()):
            hit = replaced.get(id(val))
            if hit is not None and hit[0] is val:
                setattr(mod, attr, hit[1])

    for mod_name, cls_name, meth in METHODS:
        cls = getattr(modules[mod_name], cls_name)
        setattr(cls, meth, tracer.wrap(f"{mod_name}.{cls_name}.{meth}", getattr(cls, meth)))

    # Forward passes with and without a graph are different work: name them apart.
    cls = modules["model"].BrainSurfCNN
    with_grad = tracer.wrap("model.forward", cls.forward)
    without_grad = tracer.wrap("model.forward_nograd", cls.forward)

    def forward(self, connectome):
        return (with_grad if autodiff._grad_enabled else without_grad)(self, connectome)

    cls.forward = forward


def _wrap_result(tracer: Tracer, name: str, factory):
    @functools.wraps(factory)
    def make(*args, **kwargs):
        return tracer.wrap(name, factory(*args, **kwargs))

    return make


# --- per-layer metrics ---------------------------------------------------------


class Spans:
    def __init__(self, tracer: Tracer) -> None:
        a = tracer.arrays()
        self.name = np.array(tracer.names)[a["name_id"]]
        self.parent = a["parent"]
        self.run = a["run"]
        self.dur = a["end"] - a["start"]
        self.start = a["start"]
        self.end = a["end"]
        self.bytes = a["bytes"]
        child = np.zeros_like(self.dur)
        has_parent = self.parent >= 0
        np.add.at(child, self.parent[has_parent], self.dur[has_parent])
        self.self_time = self.dur - child

    def is_(self, *names: str) -> np.ndarray:
        return np.isin(self.name, names)

    def under(self, *names: str) -> np.ndarray:
        """Spans with an ancestor (or themselves) named in ``names``."""
        flag = self.is_(*names)
        # Parents are recorded before their children, so one pass suffices.
        for i in np.flatnonzero(self.parent >= 0):
            if flag[self.parent[i]]:
                flag[i] = True
        return flag


def layer_metrics(tracer: Tracer, n_runs: int, gen_peak_rss_mb: float) -> dict[str, float]:
    """Per-layer metrics from one traced worker: totals and counts are per
    pipeline (mean over ``n_runs``), per-call times are medians."""
    s = Spans(tracer)
    # Only what the CLI stages did: not set-up, nor the benchmark's own checks.
    piped = (s.run >= 0) & s.under("cli.main")
    per = 1.0 / n_runs

    def total(mask) -> float:
        return float(s.dur[mask & piped].sum()) * per

    def count(mask) -> float:
        return float(np.count_nonzero(mask & piped)) * per

    def mib(mask) -> float:
        return float(s.bytes[mask & piped].sum()) * per / MIB

    def median_ms(mask) -> float:
        d = s.dur[mask & piped]
        return float(np.median(d)) * 1e3 if d.size else float("nan")

    train_phase = s.is_("training.train_phase")
    in_train = s.under("training.train_phase") & ~s.under("training.val_hook")
    direct = np.isin(s.parent, np.flatnonzero(train_phase))
    adam = s.is_("autodiff.adam_step")
    ops = np.char.startswith(s.name, "autodiff.") & ~s.is_(*AUTODIFF_NON_OPS)
    rc = s.is_("rcloss.rc_loss")
    fwd = s.is_("model.forward")
    cli_self = np.char.startswith(s.name, "cli.")
    build = np.flatnonzero(s.is_("icosphere.build_hierarchy"))

    steps = []
    for phase in np.flatnonzero(train_phase & piped):
        opened = None
        for c in np.flatnonzero(s.parent == phase):
            if s.name[c] == "model.forward" and opened is None:
                opened = s.start[c]
            elif s.name[c] == "autodiff.adam_step" and opened is not None:
                steps.append(s.end[c] - opened)
                opened = None
    steps_ms = np.array(steps) * 1e3 if steps else np.array([np.nan])

    n_steps = count(adam & direct)
    n_rc = count(rc)
    return {
        "icosphere.build_hierarchy_s": float(s.dur[build[0]]) if build.size else float("nan"),
        "autodiff.op_calls_per_step": count(ops & in_train) / n_steps if n_steps else float("nan"),
        "autodiff.backward_s": total(s.is_("autodiff.backward")),
        "autodiff.backward_calls": count(s.is_("autodiff.backward")),
        "autodiff.sparse_matmul_s": total(s.is_("autodiff.sparse_matmul")),
        "autodiff.sparse_matmul_calls": count(s.is_("autodiff.sparse_matmul")),
        "autodiff.matmul_s": total(s.is_("autodiff.matmul")),
        "autodiff.matmul_calls": count(s.is_("autodiff.matmul")),
        "autodiff.reshape_copy_mb": mib(s.is_("autodiff.reshape")),
        "autodiff.adam_step_s": total(adam),
        "autodiff.adam_step_calls": count(adam),
        "meshlayers.pool_unpool_ms": 1e3 * total(s.is_("meshlayers.mesh_pool", "meshlayers.mesh_unpool"))
        / max(count(fwd | s.is_("model.forward_nograd")), 1.0),
        "model.forward_ms": median_ms(fwd),
        "model.predict_ms": median_ms(s.is_("model.forward_nograd")),
        "rcloss.rc_loss_ms": median_ms(rc),
        "rcloss.distance_calls_per_batch": count(s.is_("rcloss.distance") & s.under("rcloss.rc_loss")) / n_rc
        if n_rc else float("nan"),
        "rcloss.init_margins_s": total(s.is_("rcloss.init_margins")),
        "training.step_ms_p50": float(np.percentile(steps_ms, 50)),
        "training.step_ms_p90": float(np.percentile(steps_ms, 90)),
        "training.steps": n_steps,
        "training.forward_s": total(fwd & direct),
        "training.loss_s": total(s.is_("rcloss.rc_loss", "rcloss.distance") & direct),
        "training.backward_s": total(s.is_("autodiff.backward") & direct),
        "training.adam_s": total(adam & direct),
        "training.checkpoint_s": total(s.is_("autodiff.save_checkpoint") & direct),
        "training.checkpoint_mb": mib(s.is_("autodiff.save_checkpoint") & direct),
        "training.val_hook_s": total(s.is_("training.val_hook") & direct),
        "connectome.generate_cohort_s": total(s.is_("connectome.generate_cohort")),
        "connectome.split_runs_s": total(s.is_("connectome.split_runs")),
        "connectome.gen_peak_rss_mb": gen_peak_rss_mb,
        "connectome.samples_reads": count(s.is_("connectome.Dataset.samples")),
        "fileio.read_s": total(s.is_("fileio.read_tensor")),
        "fileio.read_mb": mib(s.is_("fileio.read_tensor")),
        "fileio.write_s": total(s.is_("fileio.write_tensor")),
        "fileio.write_mb": mib(s.is_("fileio.write_tensor")),
        "baseline.fit_s": total(s.is_("baseline.fit_subject")),
        "baseline.fit_calls": count(s.is_("baseline.fit_subject")),
        "baseline.predict_s": total(s.is_("baseline.predict_baseline")),
        "evaluate.ablation_report_s": total(s.is_("evaluate.ablation_report")),
        "evaluate.matrix_files": count(s.is_("evaluate.save_corr_matrix_txt")),
        "cli.self_s": float(s.self_time[cli_self & piped].sum()) * per,
    }
