"""Command-line interface: data generation, training, prediction, evaluation,
and gradient verification, each deterministic given its config.

Exit codes are a stable contract: 0 success, 2 bad config or unreadable
input, 3 numeric failure (NaN loss; the last good checkpoint, if any, is kept),
4 unknown subject, 5 subject-set mismatch, and 1 from ``gradcheck`` when the
gradient check fails.  README.md lists the cases of each code.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from .autodiff import grad_check
from .baseline import (
    ParcelRegressor,
    average_regressors,
    farthest_point_parcellation,
    fit_subject,
    group_average_baseline,
    load_baseline,
    predict_baseline,
    save_baseline,
)
from .connectome import (
    Dataset,
    GeneratorConfig,
    ZeroVariance,
    bank_averaged_features,
    ensemble_mean_features,
    load_dataset,
    write_cohort,
)
from .evaluate import SubjectMismatch, ablation_report, write_report
from .fileio import (
    ConfigError,
    CorruptFile,
    JsonConfig,
    git_blob_sha1,
    hash_file,
    is_plain_file_name,
    read_tensor,
    write_tensor,
    write_text,
)
from .icosphere import build_hierarchy, icosphere, n_vertices_at_level
from .model import (
    BrainSurfCNN,
    ModelConfig,
    build_model,
    load_model,
    predict_variants,
    read_model_checkpoint,
    save_model,
)
from .rcloss import Margins, rc_loss
from .training import (
    NaNLossError,
    OptimizerConfig,
    TrainState,
    TrainSubject,
    check_phase2_subjects,
    train_two_phase,
    validation_hook,
)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERIC = 3
EXIT_MISSING_SUBJECT = 4
EXIT_MISMATCH = 5

GRADCHECK_THRESHOLD = 1e-4

# Every file `train` writes into --out.  A run removes them all before its
# first epoch, so no file of an earlier run into the same --out passes for its own.
RUN_FILES = (
    "checkpoint_phase1.bin", "checkpoint_last.bin", "training_log.csv",
    "checkpoint_final.bin", "baseline.bin", "manifest.json",
)


class MissingSubjects(ValueError):
    pass


# What ``main`` does with each failure: the first row whose classes match
# gives the exit code and the stderr line.  Any other exception propagates.
EXITS: list[tuple[tuple[type[Exception], ...], int, str]] = [
    ((ConfigError,), EXIT_CONFIG, "config error: {}"),
    ((FileNotFoundError,), EXIT_CONFIG, "missing input: {}"),
    ((FileExistsError, NotADirectoryError, IsADirectoryError, PermissionError), EXIT_CONFIG, "bad path: {}"),
    ((CorruptFile,), EXIT_CONFIG, "corrupt input: {}"),
    ((ZeroVariance,), EXIT_CONFIG, "invalid input: {}"),
    ((NaNLossError,), EXIT_NUMERIC, "numeric failure: {}"),
    ((MissingSubjects,), EXIT_MISSING_SUBJECT, "{}"),
    ((SubjectMismatch,), EXIT_MISMATCH, "{}"),
]
_HANDLED = tuple(cls for classes, _, _ in EXITS for cls in classes)


def _check_model_fits(model: ModelConfig, gen: GeneratorConfig, source: str) -> None:
    if model.input_channels != 2 * gen.n_rois:
        raise ConfigError(f"model expects {model.input_channels} input channels, {source} has {2 * gen.n_rois}")
    if model.output_channels != gen.n_contrasts:
        raise ConfigError(f"model predicts {model.output_channels} contrasts, {source} has {gen.n_contrasts}")
    if model.mesh_level != gen.mesh_level:
        raise ConfigError(f"model and {source} mesh levels differ")


def _check_baseline_fits(regressor: ParcelRegressor, gen: GeneratorConfig) -> None:
    _, n_contrasts, n_coeffs = regressor.coeffs.shape
    if regressor.labels.shape[0] != gen.n_vertices:
        raise ConfigError(
            f"baseline covers {regressor.labels.shape[0]} vertices, dataset has {gen.n_vertices} "
            f"(mesh level {gen.mesh_level})"
        )
    if n_contrasts != gen.n_contrasts:
        raise ConfigError(f"baseline predicts {n_contrasts} contrasts, dataset has {gen.n_contrasts}")
    if n_coeffs - 1 != gen.n_rois:
        raise ConfigError(f"baseline regresses on {n_coeffs - 1} ROIs, dataset has {gen.n_rois}")


@dataclass(frozen=True)
class RunConfig(JsonConfig):
    seed: int = 0
    generator: GeneratorConfig = GeneratorConfig()
    model: ModelConfig | None = None  # derived from the generator when absent
    optimizer: OptimizerConfig = OptimizerConfig()
    phase2_lr: float | None = None  # fine-tuning step size; optimizer.lr when absent
    phase1_epochs: int = 100
    phase2_epochs: int = 100
    batch_size: int = 2
    n_train_subjects: int = 8
    n_test_subjects: int = 4
    val_fraction: float = 0.2
    baseline_parcels: int = 8

    def validate(self) -> None:
        if self.seed < 0:
            raise ConfigError(f"seed must be >= 0, got {self.seed}")
        if self.phase1_epochs < 0 or self.phase2_epochs < 0:
            raise ConfigError("phase lengths must be >= 0")
        if self.phase2_epochs > 0 and self.batch_size < 2:
            raise ConfigError("batch size must be >= 2 when phase 2 is enabled")
        if self.batch_size < 1:
            raise ConfigError("batch size must be >= 1")
        if self.n_train_subjects < 1 or self.n_test_subjects < 0:
            raise ConfigError("subject counts must be positive")
        if self.n_train_subjects + self.n_test_subjects < 2:
            raise ConfigError("a cohort needs at least 2 subjects")
        if not 0.0 <= self.val_fraction < 1.0:
            raise ConfigError("val_fraction must be in [0, 1)")
        self.generator.validate()
        self.optimizer.validate()
        if self.phase2_lr is not None and not 0.0 < self.phase2_lr < np.inf:  # NaN fails too
            raise ConfigError(f"phase2_lr must be positive and finite, got {self.phase2_lr}")
        if not 1 <= self.baseline_parcels <= self.generator.n_vertices:
            raise ConfigError(
                f"baseline_parcels must be in 1..{self.generator.n_vertices} "
                f"(vertices at level {self.generator.mesh_level})"
            )
        if self.model is not None:
            self.model.validate()
            _check_model_fits(self.model, self.generator, "generator")

    def _model_from(self, section: dict) -> ModelConfig:
        """A model section, with the fields it omits that the run determines
        taken from the generator and the run seed."""
        gen = self.generator
        derived = {
            "input_channels": 2 * gen.n_rois,
            "output_channels": gen.n_contrasts,
            "mesh_level": gen.mesh_level,
            "seed": self.seed,
        }
        return ModelConfig.from_dict({**derived, **section})

    def resolved_model(self) -> ModelConfig:
        return self.model if self.model is not None else self._model_from({})

    def to_dict(self) -> dict:
        return {**super().to_dict(), "model": self.resolved_model().to_dict()}

    @classmethod
    def from_dict(cls, d: dict) -> "RunConfig":
        cfg = super().from_dict(d)
        if cfg.model is not None:
            cfg = replace(cfg, model=cfg._model_from(d["model"]))
        cfg.validate()
        return cfg

    @staticmethod
    def from_file(path: str | None) -> "RunConfig":
        if path is None:
            return RunConfig.from_dict({})
        try:
            # Bytes: json detects UTF-8 (a BOM too), UTF-16 and UTF-32, and a
            # file in none of them raises UnicodeDecodeError, a ValueError.
            data = json.loads(Path(path).read_bytes())
        except ValueError as exc:
            raise ConfigError(f"{path} is not valid JSON: {exc}") from exc
        try:
            return RunConfig.from_dict(data)
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"{path}: {exc}") from exc


def _write_manifest(out_dir: Path, cfg: RunConfig, inputs: dict[str, str]) -> None:
    manifest = {
        "config": cfg.to_dict(),
        "config_hash": git_blob_sha1(
            json.dumps(cfg.to_dict(), sort_keys=True).encode("ascii")
        ),
        "inputs": inputs,
    }
    write_text(out_dir / "manifest.json", json.dumps(manifest, indent=2, sort_keys=True) + "\n")


def cmd_gen_data(args: argparse.Namespace) -> int:
    cfg = RunConfig.from_file(args.config)
    out = Path(args.out)
    write_cohort(out, cfg.generator, cfg.seed, cfg.n_train_subjects, cfg.n_test_subjects)
    _write_manifest(out, cfg, inputs={})
    print(
        f"wrote {cfg.n_train_subjects} train + {cfg.n_test_subjects} test subjects to {out}"
    )
    return EXIT_OK


def _split_validation(train_ids: list[str], val_fraction: float) -> tuple[list[str], list[str]]:
    n_val = int(len(train_ids) * val_fraction)
    if n_val == 0:
        return list(train_ids), []
    return list(train_ids[:-n_val]), list(train_ids[-n_val:])


def _fit_baseline(subjects: list[TrainSubject], cfg: RunConfig) -> ParcelRegressor:
    # One regressor per (parcel, contrast) per training sample: all 8
    # connectome variants of every training subject participate, fitted
    # one at a time as average_regressors sums them.
    mesh = icosphere(cfg.generator.mesh_level)
    parcellation = farthest_point_parcellation(mesh, cfg.baseline_parcels, seed=cfg.seed)
    return average_regressors(
        fit_subject(bank_averaged_features(sample), s.target, parcellation)
        for s in subjects
        for sample in s.samples
    )


def cmd_train(args: argparse.Namespace) -> int:
    cfg = RunConfig.from_file(args.config)
    dataset = load_dataset(args.data)
    model_cfg = cfg.resolved_model()
    _check_model_fits(model_cfg, dataset.generator, "dataset")

    # Built before --out exists: a model config the mesh cannot hold, or a
    # corrupt input file, exits 2 with nothing written.
    model = build_model(model_cfg, build_hierarchy(model_cfg.mesh_level))
    fit_ids, val_ids = _split_validation(dataset.train_ids, cfg.val_fraction)
    check_phase2_subjects(cfg.phase2_epochs, len(fit_ids))
    # Each sample is read when it is used, so train holds one batch of them,
    # not the cohort; samples checks all 8 files of each subject now.  The
    # validation hook predicts from each held-out subject's first sample only.
    subjects = [TrainSubject(sid, dataset.samples(sid), dataset.target(sid)) for sid in fit_ids]
    val_subjects = [TrainSubject(sid, dataset.samples(sid), dataset.target(sid)) for sid in val_ids]

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    for name in RUN_FILES:
        (out / name).unlink(missing_ok=True)
    hook = validation_hook(val_subjects) if val_subjects else None
    saved = False

    def on_epoch_end(model: BrainSurfCNN, state: TrainState) -> None:
        nonlocal saved
        save_model(out / ("checkpoint_phase1.bin" if state.phase == 1 else "checkpoint_last.bin"), model)
        saved = True
        if hook is not None:
            hook(model, state)
        state.write_csv(out / "training_log.csv")

    phase2_opt = None if cfg.phase2_lr is None else replace(cfg.optimizer, lr=cfg.phase2_lr)
    try:
        train_two_phase(
            model,
            subjects,
            phase1_epochs=cfg.phase1_epochs,
            phase2_epochs=cfg.phase2_epochs,
            batch_size=cfg.batch_size,
            seed=cfg.seed,
            opt=cfg.optimizer,
            phase2_opt=phase2_opt,
            on_epoch_end=on_epoch_end,
        )
    except NaNLossError as exc:
        kept = "last good checkpoint retained" if saved else "no checkpoint was written"
        raise NaNLossError(f"{exc} ({kept})") from exc
    save_model(out / "checkpoint_final.bin", model)
    save_baseline(out / "baseline.bin", _fit_baseline(subjects, cfg))
    _write_manifest(out, cfg, inputs={"cohort.json": hash_file(Path(args.data) / "cohort.json")})
    print(f"trained {cfg.phase1_epochs}+{cfg.phase2_epochs} epochs on {len(fit_ids)} subjects -> {out}")
    return EXIT_OK


def _subject_list(dataset: Dataset, subjects: str | None) -> list[str]:
    """The comma-separated ``--subjects`` ids, or the test subjects."""
    requested = subjects.split(",") if subjects is not None else list(dataset.test_ids)
    if "" in requested:
        raise ConfigError(f"--subjects {subjects!r} holds an empty id")
    unknown = [sid for sid in requested if sid not in dataset.all_ids]
    if unknown:
        raise MissingSubjects(f"unknown subjects: {', '.join(unknown)}")
    repeated = sorted({sid for sid in requested if requested.count(sid) > 1})
    if repeated:
        raise ConfigError(f"--subjects repeats {', '.join(repeated)}")
    return requested


def cmd_predict(args: argparse.Namespace) -> int:
    dataset = load_dataset(args.data)
    requested = _subject_list(dataset, args.subjects)

    # The checkpoint's config is checked before its mesh hierarchy is built.
    _check_model_fits(read_model_checkpoint(args.model)[0], dataset.generator, "dataset")
    model = load_model(args.model)
    baseline = load_baseline(args.baseline) if args.baseline else None
    if baseline is not None:
        _check_baseline_fits(baseline[0], dataset.generator)
    # Every sample file of every subject is checked before --out is made.
    subject_samples = {sid: dataset.samples(sid) for sid in requested}
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    if baseline is not None:
        (out / "baseline").mkdir(exist_ok=True)

    for sid, files in subject_samples.items():
        samples = list(files)  # read once: the model and the baseline share them
        maps = predict_variants(model, samples)
        write_tensor(out / f"{sid}.bin", maps.mean(axis=0))  # the ensemble: see predict_ensemble
        if args.dump_samples:
            for k, sample_map in enumerate(maps):
                write_tensor(out / f"{sid}_sample_{k}.bin", sample_map)
        if baseline is not None:
            regressor, parcellation = baseline
            features = bank_averaged_features(ensemble_mean_features(samples))
            write_tensor(
                out / "baseline" / f"{sid}.bin",
                predict_baseline(regressor, features, parcellation),
            )
    print(f"wrote predictions for {len(requested)} subjects to {out}")
    return EXIT_OK


def _stack_variant(pred_dir: Path, subjects: list[str], name: str, shape: tuple[int, ...]) -> np.ndarray:
    """One prediction map of ``shape`` per subject, stacked."""
    maps = []
    for sid in subjects:
        path = pred_dir / f"{sid}.bin"
        if not path.exists():
            raise SubjectMismatch(f"variant {name!r} is missing predictions for {sid} ({path})")
        pred = read_tensor(path)
        if pred.shape != shape:
            raise SubjectMismatch(
                f"variant {name!r}: predictions for {sid} have shape {list(pred.shape)}, "
                f"the dataset's maps {list(shape)} ({path})"
            )
        maps.append(pred)
    return np.stack(maps)


def _check_out_dir(out: str) -> None:
    """NotADirectoryError unless ``out`` is a directory or can be made one,
    i.e. its nearest existing ancestor is a directory."""
    path = Path(out)
    while not path.exists() and path != path.parent:
        path = path.parent
    if not path.is_dir():
        raise NotADirectoryError(f"--out {out}: {path} is a file")


def _pred_dirs(specs: list[str]) -> dict[str, Path]:
    """The ``--preds NAME=DIR`` directories by name.  A name is a report row
    and part of its matrix dumps' file names, so it must be a plain file name
    that is neither given twice nor a built-in row's."""
    dirs: dict[str, Path] = {}
    for spec in specs:
        if "=" not in spec:
            raise ConfigError(f"--preds expects NAME=DIR, got {spec!r}")
        name, pred_dir = spec.split("=", 1)
        if not is_plain_file_name(name):
            raise ConfigError(f"--preds name {name!r} is not a plain file name")
        if name in ("group_average", "retest"):
            raise ConfigError(f"--preds name {name!r} is reserved for a built-in report row")
        if name in dirs:
            raise ConfigError(f"--preds name {name!r} is given twice")
        dirs[name] = Path(pred_dir)
    return dirs


def cmd_evaluate(args: argparse.Namespace) -> int:
    _check_out_dir(args.out)
    pred_dirs = _pred_dirs(args.preds)
    dataset = load_dataset(args.data)
    subjects = _subject_list(dataset, args.subjects)
    if len(subjects) < 2:
        raise ConfigError(f"evaluate needs at least 2 subjects to fingerprint, got {len(subjects)}")

    targets = np.stack([dataset.target(sid) for sid in subjects])
    retest = np.stack([dataset.retest(sid) for sid in subjects])

    variants = {name: _stack_variant(d, subjects, name, targets.shape[1:]) for name, d in pred_dirs.items()}
    # Over every training subject, validation ones included.
    group_average = group_average_baseline([dataset.target(sid) for sid in dataset.train_ids])
    variants["group_average"] = np.broadcast_to(group_average, targets.shape)

    report = ablation_report(variants, targets, retest)
    undefined: dict[str, list[str]] = {}
    for r in report.rows:
        if np.isnan(r.self_corr_mean):
            undefined.setdefault(r.variant, []).append(str(r.contrast))
    for name, contrasts in undefined.items():
        print(
            f"warning: variant {name!r}, contrast {', '.join(contrasts)}: a prediction map is "
            "constant or non-finite, so its correlations are NaN",
            file=sys.stderr,
        )

    write_report(report, args.out, zscore=args.row_zscore)
    print(f"evaluated {len(variants)} variants (+retest) on {len(subjects)} subjects -> {args.out}")
    return EXIT_OK


def cmd_gradcheck(args: argparse.Namespace) -> int:
    rng = np.random.default_rng(args.seed)
    model_cfg = ModelConfig(mesh_level=args.level, seed=args.seed)
    model = build_model(model_cfg, build_hierarchy(model_cfg.mesh_level))
    n_vertices = n_vertices_at_level(args.level)
    x = np.stack([rng.standard_normal((model_cfg.input_channels, n_vertices)) for _ in range(2)])
    targets = np.stack([rng.standard_normal((model_cfg.output_channels, n_vertices)) for _ in range(2)])
    margins = Margins(alpha=0.0, beta=1.0)  # both hinges active: gradients flow everywhere

    def f():
        return rc_loss(model.forward(x), targets, margins).l_rc

    worst: dict = {}
    err = grad_check(f, model.parameters(), eps=1e-5, max_coords=args.coords, seed=args.seed, worst_out=worst)
    status = "PASS" if err < GRADCHECK_THRESHOLD else "FAIL"
    print(f"gradcheck: max relative error {err:.3e} (threshold {GRADCHECK_THRESHOLD:.0e}) {status}")
    if status == "FAIL" and worst:
        print(
            f"worst coordinate: {worst['param']}[{worst['index']}] "
            f"analytic={worst['analytic']:.6e} numeric={worst['numeric']:.6e}"
        )
    return EXIT_OK if status == "PASS" else 1


def _int_at_least(low: int):
    """An argparse type: an integer >= ``low``, else a usage error (exit 2)."""

    def parse(text: str) -> int:
        value = int(text)
        if value < low:
            raise argparse.ArgumentTypeError(f"must be an integer >= {low}, got {text}")
        return value

    parse.__name__ = "int"  # argparse names the type in "invalid int value"
    return parse


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="brainsurf",
        description="Train and evaluate contrast-map prediction from synthetic connectomes. "
        "All defaults below are artifact choices, not reported values.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen-data", help="generate a synthetic cohort dataset")
    p.add_argument("--config", default=None, help="run config JSON (defaults used when omitted)")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_gen_data)

    p = sub.add_parser("train", help="two-phase training plus the linear baseline")
    p.add_argument("--data", required=True)
    p.add_argument("--config", default=None)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("predict", help="ensemble-averaged predictions per subject")
    p.add_argument("--model", required=True, help="model checkpoint file")
    p.add_argument("--data", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--subjects", default=None, help="comma-separated ids (default: test subjects)")
    p.add_argument("--dump-samples", action="store_true", help="also write the 8 per-sample predictions")
    p.add_argument("--baseline", default=None, help="baseline checkpoint; also predict with it")
    p.set_defaults(func=cmd_predict)

    p = sub.add_parser("evaluate", help="correlation/fingerprinting report")
    p.add_argument("--data", required=True)
    p.add_argument("--preds", action="append", default=[], metavar="NAME=DIR")
    p.add_argument("--out", required=True)
    p.add_argument("--subjects", default=None)
    p.add_argument("--row-zscore", action="store_true", help="z-score matrix dumps per row (plotting only)")
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("gradcheck", help="finite-difference check of the full model gradient")
    p.add_argument("--level", type=int, default=2)
    p.add_argument("--seed", type=_int_at_least(0), default=0)
    p.add_argument("--coords", type=_int_at_least(1), default=200)
    p.set_defaults(func=cmd_gradcheck)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except _HANDLED as exc:
        code, message = next((code, message) for classes, code, message in EXITS if isinstance(exc, classes))
        print(message.format(exc), file=sys.stderr)
        return code


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
