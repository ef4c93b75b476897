"""Command-line interface: data generation, training, prediction, evaluation,
and gradient verification, each deterministic given its config.

Exit codes are a stable contract: 0 success, 2 bad config or unreadable input
(missing, truncated or corrupt file; a constant target or retest map), 3
numeric failure (NaN loss; the last good checkpoint is retained), 4 unknown
subject, 5 subject-set mismatch.
``gradcheck`` exits 1 when the gradient check fails.
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
    Parcellation,
    average_regressors,
    farthest_point_parcellation,
    fit_subject,
    group_average_baseline,
    predict_baseline,
    ParcelRegressor,
)
from .connectome import (
    Dataset,
    GeneratorConfig,
    bank_averaged_features,
    ensemble_mean_features,
    generate_cohort,
    load_dataset,
    save_dataset,
)
from .evaluate import SubjectMismatch, ZeroVariance, ablation_report, correlation_matrix, save_corr_matrix_txt, write_report_csv, write_report_json
from .fileio import (
    ConfigError,
    CorruptFile,
    JsonConfig,
    git_blob_sha1,
    hash_file,
    load_checkpoint,
    read_tensor,
    save_checkpoint,
    write_tensor,
)
from .icosphere import build_hierarchy, icosphere
from .model import BrainSurfCNN, ModelConfig, build_model, predict_variants
from .rcloss import BatchTooSmall, Margins, rc_loss
from .training import (
    NaNLossError,
    OptimizerConfig,
    TrainSubject,
    train_two_phase,
    validation_hook,
)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERIC = 3
EXIT_MISSING_SUBJECT = 4
EXIT_MISMATCH = 5

GRADCHECK_THRESHOLD = 1e-4


class MissingSubjects(ValueError):
    pass


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
        if self.phase1_epochs < 0 or self.phase2_epochs < 0:
            raise ConfigError("phase lengths must be >= 0")
        if self.phase2_epochs > 0 and self.batch_size < 2:
            raise ConfigError("batch size must be >= 2 when phase 2 is enabled")
        if self.batch_size < 1:
            raise ConfigError("batch size must be >= 1")
        if self.n_train_subjects < 1 or self.n_test_subjects < 0:
            raise ConfigError("subject counts must be positive")
        if not 0.0 <= self.val_fraction < 1.0:
            raise ConfigError("val_fraction must be in [0, 1)")
        if self.model is not None:
            self.model.validate()
            gen = self.generator
            if self.model.input_channels != 2 * gen.n_rois:
                raise ConfigError(
                    f"model expects {self.model.input_channels} input channels, "
                    f"generator produces {2 * gen.n_rois}"
                )
            if self.model.output_channels != gen.n_contrasts:
                raise ConfigError(
                    f"model predicts {self.model.output_channels} contrasts, "
                    f"generator produces {gen.n_contrasts}"
                )
            if self.model.mesh_level != gen.mesh_level:
                raise ConfigError("model and generator mesh levels differ")

    def resolved_model(self) -> ModelConfig:
        if self.model is not None:
            return self.model
        gen = self.generator
        return ModelConfig(
            input_channels=2 * gen.n_rois,
            output_channels=gen.n_contrasts,
            mesh_level=gen.mesh_level,
            seed=self.seed,
        )

    def to_dict(self) -> dict:
        return {**super().to_dict(), "model": self.resolved_model().to_dict()}

    @classmethod
    def from_dict(cls, d: dict) -> "RunConfig":
        cfg = super().from_dict(d)
        nested = {}
        if "generator" in d:
            nested["generator"] = GeneratorConfig.from_dict(d["generator"])
        if d.get("model") is not None:
            nested["model"] = ModelConfig.from_dict(d["model"])
        if "optimizer" in d:
            nested["optimizer"] = OptimizerConfig.from_dict(d["optimizer"])
        cfg = replace(cfg, **nested)
        cfg.validate()
        return cfg

    @staticmethod
    def from_file(path: str | None) -> "RunConfig":
        if path is None:
            cfg = RunConfig()
            cfg.validate()
            return cfg
        raw = Path(path).read_text()
        try:
            data = json.loads(raw)
        except json.JSONDecodeError as exc:
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
    (out_dir / "manifest.json").write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n")


def cmd_gen_data(args: argparse.Namespace) -> int:
    cfg = RunConfig.from_file(args.config)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    total = cfg.n_train_subjects + cfg.n_test_subjects
    records = generate_cohort(total, cfg.generator, cfg.seed)
    save_dataset(
        out, cfg.seed, cfg.generator, records[: cfg.n_train_subjects], records[cfg.n_train_subjects :]
    )
    _write_manifest(out, cfg, inputs={})
    print(
        f"wrote {cfg.n_train_subjects} train + {cfg.n_test_subjects} test subjects to {out}"
    )
    return EXIT_OK


def _train_subjects(dataset: Dataset, ids: list[str]) -> list[TrainSubject]:
    return [
        TrainSubject(subject_id=sid, samples=dataset.samples(sid), target=dataset.target(sid))
        for sid in ids
    ]


def _split_validation(train_ids: list[str], val_fraction: float) -> tuple[list[str], list[str]]:
    n_val = int(len(train_ids) * val_fraction)
    if n_val == 0:
        return list(train_ids), []
    return list(train_ids[:-n_val]), list(train_ids[-n_val:])


def _fit_baseline(
    dataset: Dataset, train_ids: list[str], parcellation: Parcellation
) -> ParcelRegressor:
    # One regressor per (parcel, contrast) per training sample: all 8
    # connectome variants of every training subject participate.
    fits = []
    for sid in train_ids:
        target = dataset.target(sid)
        for sample in dataset.samples(sid):
            fits.append(fit_subject(bank_averaged_features(sample), target, parcellation))
    return average_regressors(fits)


def _group_average(dataset: Dataset) -> np.ndarray:
    # Over every training subject, validation ones included: the lower bound
    # `train` saves is the one `evaluate` reports.
    return group_average_baseline([dataset.target(sid) for sid in dataset.train_ids])


def cmd_train(args: argparse.Namespace) -> int:
    cfg = RunConfig.from_file(args.config)
    dataset = load_dataset(args.data)
    model_cfg = cfg.resolved_model()
    gen = dataset.generator
    if (
        model_cfg.input_channels != 2 * gen.n_rois
        or model_cfg.output_channels != gen.n_contrasts
        or model_cfg.mesh_level != gen.mesh_level
    ):
        raise ConfigError(
            f"model config {model_cfg.to_dict()} does not match dataset "
            f"(2M={2 * gen.n_rois}, K={gen.n_contrasts}, level={gen.mesh_level})"
        )

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    fit_ids, val_ids = _split_validation(dataset.train_ids, cfg.val_fraction)
    subjects = _train_subjects(dataset, fit_ids)
    val_subjects = _train_subjects(dataset, val_ids)

    hierarchy = build_hierarchy(model_cfg.mesh_level)
    model = build_model(model_cfg, hierarchy)
    hook = validation_hook(val_subjects, out / "val_log.csv") if val_subjects else None

    phase2_opt = None
    if cfg.phase2_lr is not None:
        base = cfg.optimizer
        phase2_opt = OptimizerConfig(lr=cfg.phase2_lr, beta1=base.beta1, beta2=base.beta2, eps=base.eps)
    log, margins0 = train_two_phase(
        model,
        subjects,
        phase1_epochs=cfg.phase1_epochs,
        phase2_epochs=cfg.phase2_epochs,
        batch_size=cfg.batch_size,
        seed=cfg.seed,
        opt=cfg.optimizer,
        phase2_opt=phase2_opt,
        checkpoint_path=out / "checkpoint_last.bin",
        phase1_checkpoint_path=out / "checkpoint_phase1.bin",
        val_hook=hook,
    )
    log.write_csv(out / "training_log.csv")
    save_checkpoint(out / "checkpoint_final.bin", model.param_arrays(), meta={"model": model_cfg.to_dict()})
    if margins0 is not None:
        (out / "margins.json").write_text(
            json.dumps({"alpha0": margins0.alpha, "beta0": margins0.beta}, sort_keys=True) + "\n"
        )

    mesh = icosphere(gen.mesh_level)
    parcellation = farthest_point_parcellation(mesh, cfg.baseline_parcels, seed=cfg.seed)
    regressor = _fit_baseline(dataset, fit_ids, parcellation)
    save_checkpoint(
        out / "baseline.bin",
        {"coeffs": regressor.coeffs, "labels": regressor.labels.astype(np.float64)},
        meta={"n_parcels": parcellation.n_parcels, "rank_warnings": regressor.rank_warnings},
    )
    write_tensor(out / "group_average.bin", _group_average(dataset))
    _write_manifest(out, cfg, inputs={"cohort.json": hash_file(Path(args.data) / "cohort.json")})
    print(f"trained {cfg.phase1_epochs}+{cfg.phase2_epochs} epochs on {len(fit_ids)} subjects -> {out}")
    return EXIT_OK


def _load_model(checkpoint: str | Path) -> BrainSurfCNN:
    arrays, meta = load_checkpoint(checkpoint)
    model_cfg = ModelConfig.from_dict(meta["model"])
    model = build_model(model_cfg, build_hierarchy(model_cfg.mesh_level))
    model.load_param_arrays(arrays)
    return model


def _load_baseline(path: str | Path) -> tuple[ParcelRegressor, Parcellation]:
    arrays, meta = load_checkpoint(path)
    labels = arrays["labels"].astype(int)
    parcels = tuple(np.flatnonzero(labels == p) for p in range(int(meta["n_parcels"])))
    parcellation = Parcellation(labels=labels, parcels=parcels)
    regressor = ParcelRegressor(
        coeffs=arrays["coeffs"], labels=labels, rank_warnings=list(meta.get("rank_warnings", []))
    )
    return regressor, parcellation


def cmd_predict(args: argparse.Namespace) -> int:
    dataset = load_dataset(args.data)
    requested = args.subjects.split(",") if args.subjects else list(dataset.test_ids)
    unknown = [sid for sid in requested if sid not in dataset.all_ids]
    if unknown:
        raise MissingSubjects(f"unknown subjects: {', '.join(unknown)}")

    model = _load_model(args.model)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    baseline = _load_baseline(args.baseline) if args.baseline else None
    if baseline is not None:
        (out / "baseline").mkdir(exist_ok=True)

    for sid in requested:
        samples = dataset.samples(sid)
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


def _stack_variant(pred_dir: Path, subjects: list[str], name: str) -> np.ndarray:
    maps = []
    for sid in subjects:
        path = pred_dir / f"{sid}.bin"
        if not path.exists():
            raise SubjectMismatch(f"variant {name!r} is missing predictions for {sid} ({path})")
        maps.append(read_tensor(path))
    return np.stack(maps)


def cmd_evaluate(args: argparse.Namespace) -> int:
    dataset = load_dataset(args.data)
    subjects = args.subjects.split(",") if args.subjects else list(dataset.test_ids)
    unknown = [sid for sid in subjects if sid not in dataset.all_ids]
    if unknown:
        raise MissingSubjects(f"unknown subjects: {', '.join(unknown)}")

    targets = np.stack([dataset.target(sid) for sid in subjects])
    retest = np.stack([dataset.retest(sid) for sid in subjects])

    variants: dict[str, np.ndarray] = {}
    for spec_arg in args.preds or []:
        if "=" not in spec_arg:
            raise ConfigError(f"--preds expects NAME=DIR, got {spec_arg!r}")
        name, pred_dir = spec_arg.split("=", 1)
        variants[name] = _stack_variant(Path(pred_dir), subjects, name)

    variants["group_average"] = np.broadcast_to(_group_average(dataset), targets.shape).copy()

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

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    write_report_csv(report, out / "report.csv")
    write_report_json(report, out / "report.json")
    (out / "reliable_mask.json").write_text(
        json.dumps({"reliable": [bool(b) for b in report.reliable_mask]}) + "\n"
    )
    matrices_dir = out / "matrices"
    matrices_dir.mkdir(exist_ok=True)
    named = dict(variants)
    named["retest"] = retest
    for name, preds in named.items():
        for k in range(targets.shape[1]):
            m = correlation_matrix(preds[:, k, :], targets[:, k, :], contrast_id=k)
            save_corr_matrix_txt(m, matrices_dir / f"{name}_c{k}.txt", zscore=args.row_zscore)
    print(f"evaluated {len(variants)} variants (+retest) on {len(subjects)} subjects -> {out}")
    return EXIT_OK


def cmd_gradcheck(args: argparse.Namespace) -> int:
    rng = np.random.default_rng(args.seed)
    model_cfg = ModelConfig(mesh_level=args.level, seed=args.seed)
    model = build_model(model_cfg, build_hierarchy(model_cfg.mesh_level))
    n_vertices = 10 * 4**args.level + 2
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
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--coords", type=int, default=200)
    p.set_defaults(func=cmd_gradcheck)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ConfigError, BatchTooSmall) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except FileNotFoundError as exc:
        print(f"missing input: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except CorruptFile as exc:
        print(f"corrupt input: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except ZeroVariance as exc:
        print(f"invalid input: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except NaNLossError as exc:
        print(f"numeric failure: {exc} (last good checkpoint retained)", file=sys.stderr)
        return EXIT_NUMERIC
    except MissingSubjects as exc:
        print(str(exc), file=sys.stderr)
        return EXIT_MISSING_SUBJECT
    except SubjectMismatch as exc:
        print(str(exc), file=sys.stderr)
        return EXIT_MISMATCH


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
