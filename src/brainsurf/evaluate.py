"""Fingerprinting evaluation: correlation matrices, self-vs-other gaps,
subject identification, reliable-contrast filtering, and variant reports.

For each contrast, entry (r, c) of the correlation matrix is the Pearson
correlation between the observed map of subject r and the predicted map of
subject c; subject r is identified when its own column holds the strict row
maximum.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .autodiff import ShapeMismatch
from .connectome import ZeroVariance, standardized_rows  # noqa: F401 (ZeroVariance: re-export)


class SubjectMismatch(ValueError):
    pass


@dataclass(frozen=True)
class CorrMatrix:
    contrast_id: int
    matrix: np.ndarray  # [S, S], row = observed subject, col = predicting subject


@dataclass(frozen=True)
class VariantRow:
    variant: str
    contrast: int
    self_corr_mean: float
    self_corr_sd: float
    diag_gap: float
    id_accuracy: float


@dataclass
class EvalReport:
    rows: list[VariantRow]
    reliable_mask: np.ndarray  # [K] bool
    aggregates: dict[str, dict[str, float]]  # variant -> metric means over reliable contrasts


def correlation_matrix(preds: np.ndarray, targets: np.ndarray, contrast_id: int = 0) -> CorrMatrix:
    preds = np.asarray(preds, dtype=np.float64)
    targets = np.asarray(targets, dtype=np.float64)
    if preds.shape != targets.shape or preds.ndim != 2:
        raise ShapeMismatch(f"correlation_matrix: preds {preds.shape}, targets {targets.shape}")
    if preds.shape[0] < 2:
        raise ValueError(f"correlation_matrix needs >= 2 subjects, got {preds.shape[0]}")
    z_t = standardized_rows(targets, "target")
    # A constant prediction (a collapsed model) is a result, not an input
    # error: its column of correlations is NaN.
    z_p = standardized_rows(preds, "prediction", constant_rows_nan=True)
    return CorrMatrix(contrast_id=contrast_id, matrix=np.clip(z_t @ z_p.T, -1.0, 1.0))


def subject_id_accuracy(m: CorrMatrix, by_column: bool = False) -> float:
    """Fraction of subjects whose row (or column) maximum is on the diagonal.
    Ties count as identification failure; NaN when any correlation is
    undefined."""
    mat = m.matrix if not by_column else m.matrix.T
    if np.isnan(mat).any():
        return float("nan")
    n = mat.shape[0]
    hits = 0
    for i in range(n):
        row = mat[i]
        off = np.delete(row, i)
        if row[i] > off.max():
            hits += 1
    return hits / n


def diag_gap(m: CorrMatrix) -> float:
    mat = m.matrix
    n = mat.shape[0]
    diag_mean = float(np.trace(mat) / n)
    off_mean = float((mat.sum() - np.trace(mat)) / (n * (n - 1)))
    return diag_mean - off_mean


def reliable_contrasts(test: np.ndarray, retest: np.ndarray) -> np.ndarray:
    """Mask of contrasts whose mean test-retest correlation strictly exceeds
    the mean over all subjects and contrasts."""
    test = np.asarray(test, dtype=np.float64)
    retest = np.asarray(retest, dtype=np.float64)
    if test.shape != retest.shape or test.ndim != 3:
        raise ShapeMismatch(f"reliable_contrasts: test {test.shape}, retest {retest.shape}")
    n_subjects, n_contrasts, _ = test.shape
    per = np.zeros((n_subjects, n_contrasts))
    for s in range(n_subjects):
        z_a = standardized_rows(test[s], f"target (subject {s})")
        z_b = standardized_rows(retest[s], f"retest (subject {s})")
        per[s] = (z_a * z_b).sum(axis=1)
    mean_per_contrast = per.mean(axis=0)
    return mean_per_contrast > per.mean()


def _variant_rows(name: str, preds: np.ndarray, targets: np.ndarray) -> list[VariantRow]:
    rows = []
    for k in range(targets.shape[1]):
        m = correlation_matrix(preds[:, k, :], targets[:, k, :], contrast_id=k)
        diag = np.diag(m.matrix)
        rows.append(
            VariantRow(
                variant=name,
                contrast=k,
                self_corr_mean=float(diag.mean()),
                self_corr_sd=float(diag.std()),
                diag_gap=diag_gap(m),
                id_accuracy=subject_id_accuracy(m),
            )
        )
    return rows


def ablation_report(
    variants: dict[str, np.ndarray],
    targets: np.ndarray,
    retest: np.ndarray,
) -> EvalReport:
    """Per-contrast metrics for each named prediction set [S, K, V], plus a
    retest row computed by treating the retest maps as predictions."""
    targets = np.asarray(targets, dtype=np.float64)
    retest_arr = np.asarray(retest, dtype=np.float64)
    if retest_arr.shape != targets.shape:
        raise SubjectMismatch(
            f"retest {retest_arr.shape} does not match targets {targets.shape}"
        )
    for name, preds in variants.items():
        if np.shape(preds) != targets.shape:
            raise SubjectMismatch(
                f"variant {name!r}: predictions {np.shape(preds)} vs targets {targets.shape}"
            )

    mask = reliable_contrasts(targets, retest_arr)
    rows: list[VariantRow] = []
    for name, preds in variants.items():
        rows += _variant_rows(name, np.asarray(preds, dtype=np.float64), targets)
    rows += _variant_rows("retest", retest_arr, targets)

    # Aggregate over reliable contrasts; with none reliable (e.g. uniform
    # noise levels) fall back to all contrasts so aggregates stay defined.
    keep = np.flatnonzero(mask) if mask.any() else np.arange(targets.shape[1])
    aggregates: dict[str, dict[str, float]] = {}
    for name in list(variants) + ["retest"]:
        chosen = [r for r in rows if r.variant == name and r.contrast in keep]
        aggregates[name] = {
            "self_corr_mean": float(np.mean([r.self_corr_mean for r in chosen])),
            "self_corr_sd": float(np.mean([r.self_corr_sd for r in chosen])),
            "diag_gap": float(np.mean([r.diag_gap for r in chosen])),
            "id_accuracy": float(np.mean([r.id_accuracy for r in chosen])),
        }
    return EvalReport(rows=rows, reliable_mask=mask, aggregates=aggregates)


def row_zscore(matrix: np.ndarray) -> np.ndarray:
    """Per-row z-scoring for plotting parity only; excluded from all metrics."""
    m = np.asarray(matrix, dtype=np.float64)
    sd = m.std(axis=1, keepdims=True)
    sd[sd == 0.0] = 1.0
    return (m - m.mean(axis=1, keepdims=True)) / sd


def write_report_csv(report: EvalReport, path: str | Path) -> None:
    with open(path, "w", newline="") as f:
        writer = csv.writer(f)
        writer.writerow(
            ["variant", "contrast", "self_corr_mean", "self_corr_sd", "diag_gap", "id_accuracy", "reliable"]
        )
        for r in report.rows:
            writer.writerow(
                [
                    r.variant,
                    r.contrast,
                    f"{r.self_corr_mean:.10g}",
                    f"{r.self_corr_sd:.10g}",
                    f"{r.diag_gap:.10g}",
                    f"{r.id_accuracy:.10g}",
                    int(report.reliable_mask[r.contrast]),
                ]
            )


def _json_number(x: float) -> float | None:
    return None if np.isnan(x) else x  # strict JSON has no NaN


def write_report_json(report: EvalReport, path: str | Path) -> None:
    metrics = ("self_corr_mean", "self_corr_sd", "diag_gap", "id_accuracy")
    payload = {
        "reliable_mask": [bool(b) for b in report.reliable_mask],
        "aggregates": {
            name: {k: _json_number(v) for k, v in agg.items()}
            for name, agg in report.aggregates.items()
        },
        "rows": [
            {"variant": r.variant, "contrast": r.contrast}
            | {k: _json_number(getattr(r, k)) for k in metrics}
            for r in report.rows
        ],
    }
    Path(path).write_text(json.dumps(payload, indent=2, sort_keys=True, allow_nan=False) + "\n")


def save_corr_matrix_txt(m: CorrMatrix, path: str | Path, zscore: bool = False) -> None:
    mat = row_zscore(m.matrix) if zscore else m.matrix
    lines = [" ".join(f"{x:.10g}" for x in row) for row in mat]
    Path(path).write_text("\n".join(lines) + "\n")
