"""Synthetic cohorts with a known connectome-to-contrast link.

Each subject draws latent ROI loadings; two banks of vertex timeseries
(standing in for the two hemispheres) are profile-weighted mixtures of the
subject's ROI processes plus noise, so vertex-to-ROI correlations encode the
latents smoothly.  Target contrast maps are a fixed group map plus a
deterministic (partly nonlinear) function of the same latents plus
observation noise; retest maps share the deterministic part with fresh
noise.  Everything is driven by one seeded generator, so a cohort is a pure
function of (config, seed).
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import scipy.sparse as sp

from .autodiff import ShapeMismatch
from .fileio import JsonConfig, read_tensor, write_tensor
from .icosphere import closed_ring_mean, icosphere, n_vertices_at_level

SEGMENTS_PER_SUBJECT = 8  # 4 runs x 2 halves


class ZeroVariance(ValueError):
    pass


class OddLength(ValueError):
    pass


@dataclass(frozen=True)
class GeneratorConfig(JsonConfig):
    mesh_level: int = 2
    n_rois: int = 5
    n_contrasts: int = 4
    n_runs: int = 4
    t_per_run: int = 600
    ar_coeff: float = 0.2
    timeseries_noise_std: float = 0.7
    roi_deviation: float = 0.8
    contrast_deviation: float = 0.6
    nonlinear_mix: float = 0.2
    contrast_noise_std: float | tuple[float, ...] = 0.3
    latent_candidates: int = 32
    smooth_steps: int = 6

    @property
    def n_vertices(self) -> int:
        return n_vertices_at_level(self.mesh_level)

    def noise_per_contrast(self) -> np.ndarray:
        if isinstance(self.contrast_noise_std, (int, float)):
            return np.full(self.n_contrasts, float(self.contrast_noise_std))
        noise = np.asarray(self.contrast_noise_std, dtype=np.float64)
        if noise.shape != (self.n_contrasts,):
            raise ValueError(
                f"contrast_noise_std needs {self.n_contrasts} entries, got {noise.shape}"
            )
        return noise


@dataclass(frozen=True)
class ConnectomeSample:
    subject_id: str
    segment_index: int  # 0..7, run-major
    features: np.ndarray  # [2M, V], entries in [-1, 1]


@dataclass(frozen=True)
class SubjectRecord:
    """Raw per-subject material: the 4 simulated runs (rows: left bank,
    right bank, ROI series), the target contrasts, and a retest draw."""

    subject_id: str
    runs: tuple[np.ndarray, ...]  # each [2V + M, T]
    target_contrasts: np.ndarray  # [K, V]
    retest_contrasts: np.ndarray  # [K, V]
    n_vertices: int
    n_rois: int


def pearson(x, y) -> float:
    """Sample Pearson correlation, clipped to [-1, 1] against rounding."""
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if x.shape != y.shape or x.ndim != 1:
        raise ShapeMismatch(f"pearson: shapes {x.shape} and {y.shape}")
    if x.size < 2:
        raise ValueError(f"pearson needs at least 2 samples, got {x.size}")
    xc = x - x.mean()
    yc = y - y.mean()
    sx = np.sqrt((xc * xc).sum())
    sy = np.sqrt((yc * yc).sum())
    if sx == 0.0:
        raise ZeroVariance("first series has zero variance")
    if sy == 0.0:
        raise ZeroVariance("second series has zero variance")
    return float(np.clip((xc * yc).sum() / (sx * sy), -1.0, 1.0))


def standardized_rows(rows: np.ndarray, label: str, constant_rows_nan: bool = False) -> np.ndarray:
    """Center each row and scale it to unit norm, so that inner products of
    standardized rows are Pearson correlations.

    A constant row has no correlation: it raises ZeroVariance, or becomes a
    row of NaN when ``constant_rows_nan``."""
    rows = np.asarray(rows, dtype=np.float64)
    mean = rows.mean(axis=1, keepdims=True)
    centered = rows - mean
    norms = np.sqrt((centered * centered).sum(axis=1))
    # The computed mean of a constant row can miss its value by a few ulp,
    # which leaves a tiny nonzero norm: test rows with such norms exactly.
    constant = norms <= 1e-12 * np.sqrt(rows.shape[1]) * np.abs(mean[:, 0])
    if constant.any():
        constant[constant] = rows[constant].max(axis=1) == rows[constant].min(axis=1)
        if constant.any() and not constant_rows_nan:
            raise ZeroVariance(f"{label} row {np.flatnonzero(constant)[0]} has zero variance")
        norms[constant] = np.nan
    return centered / norms[:, None]


def compute_connectome(
    vertex_ts: np.ndarray,
    roi_ts: np.ndarray,
    vertex_ts_right: np.ndarray | None = None,
) -> np.ndarray:
    """Vertex-to-ROI Pearson correlations as a [2M, V] channel stack.

    Channels 0..M-1 correlate the left bank against each ROI series,
    channels M..2M-1 the right bank.  When only one bank exists it is used
    for both halves.
    """
    vertex_ts = np.asarray(vertex_ts, dtype=np.float64)
    roi_ts = np.asarray(roi_ts, dtype=np.float64)
    right = vertex_ts if vertex_ts_right is None else np.asarray(vertex_ts_right, np.float64)
    if vertex_ts.shape[1] != roi_ts.shape[1] or right.shape != vertex_ts.shape:
        raise ShapeMismatch(
            f"compute_connectome: vertex {vertex_ts.shape}, roi {roi_ts.shape}, "
            f"right {right.shape}"
        )
    z_roi = standardized_rows(roi_ts, "roi")
    z_left = standardized_rows(vertex_ts, "vertex")
    corr_left = z_roi @ z_left.T  # [M, V]
    if vertex_ts_right is None:
        corr_right = corr_left
    else:
        corr_right = z_roi @ standardized_rows(right, "vertex").T
    return np.clip(np.concatenate([corr_left, corr_right], axis=0), -1.0, 1.0)


def split_runs(record: SubjectRecord) -> list[ConnectomeSample]:
    """One connectome per contiguous half-run: 8 samples per subject."""
    v, m = record.n_vertices, record.n_rois
    samples = []
    for run_idx, run in enumerate(record.runs):
        t = run.shape[1]
        if t % 2 != 0:
            raise OddLength(f"run {run_idx} has odd length {t}")
        left, right, roi = run[:v], run[v : 2 * v], run[2 * v :]
        for half in (0, 1):
            seg = slice(0, t // 2) if half == 0 else slice(t // 2, t)
            features = compute_connectome(left[:, seg], roi[:, seg], right[:, seg])
            samples.append(
                ConnectomeSample(
                    subject_id=record.subject_id,
                    segment_index=2 * run_idx + half,
                    features=features,
                )
            )
    return samples


def _smooth_fields(rng: np.random.Generator, smoother: sp.csr_matrix, n_fields: int, steps: int) -> np.ndarray:
    fields = rng.standard_normal((n_fields, smoother.shape[0]))
    for _ in range(steps):
        fields = (smoother @ fields.T).T
    fields -= fields.mean(axis=1, keepdims=True)
    fields /= fields.std(axis=1, keepdims=True)
    return fields


def _orthonormal_rows(fields: np.ndarray) -> np.ndarray:
    # Symmetric (Loewdin) orthogonalization: the closest orthonormal set to
    # the given rows, so each stays a smooth field.
    gram = fields @ fields.T
    evals, evecs = np.linalg.eigh(gram)
    return (evecs * evals**-0.5) @ evecs.T @ fields


def _ar1(rng: np.random.Generator, n_series: int, t: int, coeff: float) -> np.ndarray:
    # Stationary AR(1) with unit marginal variance.
    out = np.empty((n_series, t))
    out[:, 0] = rng.standard_normal(n_series)
    innov = np.sqrt(1.0 - coeff**2) * rng.standard_normal((n_series, t - 1))
    for i in range(1, t):
        out[:, i] = coeff * out[:, i - 1] + innov[:, i - 1]
    return out


def generate_cohort(n_subjects: int, cfg: GeneratorConfig, seed: int) -> list[SubjectRecord]:
    if n_subjects < 2:
        raise ValueError(f"a cohort needs at least 2 subjects, got {n_subjects}")
    rng = np.random.default_rng(seed)
    mesh = icosphere(cfg.mesh_level)
    v, m, k = cfg.n_vertices, cfg.n_rois, cfg.n_contrasts
    smoother = closed_ring_mean(mesh, mesh.n_vertices)

    roi_profiles = _smooth_fields(rng, smoother, m, cfg.smooth_steps)  # [M, V]
    roi_deviation_basis = _smooth_fields(rng, smoother, m, cfg.smooth_steps)  # [M, V]
    group_maps = _smooth_fields(rng, smoother, k, cfg.smooth_steps)  # [K, V]
    # Contrast deviations live in a 2M-map orthonormal basis with coefficients
    # that are a dense mix of [tanh(z); z^2 - 1]: enough well-spread
    # directions that subjects stay separable, with a nonlinear share no
    # parcel-linear model can recover.
    contrast_basis = _orthonormal_rows(
        _smooth_fields(rng, smoother, 2 * m, cfg.smooth_steps)
    ) * np.sqrt(v)
    contrast_mix = rng.standard_normal((k, 2 * m, 2 * m)) / np.sqrt(2 * m)
    noise_k = cfg.noise_per_contrast()

    def contrast_coeff(latents: np.ndarray) -> np.ndarray:
        feats = np.concatenate([np.tanh(latents), cfg.nonlinear_mix * (latents**2 - 1.0)])
        coeff = contrast_mix @ feats  # [K, 2M]
        # Unit-normalize each contrast's coefficient vector: every subject
        # deviates by the same amount, in its own direction.
        return coeff / np.linalg.norm(coeff, axis=1, keepdims=True)

    def alignment(coeff: np.ndarray, accepted: list[np.ndarray]) -> float:
        if not accepted:
            return 0.0
        return max(np.abs((coeff * prev).sum(axis=1)).max() for prev in accepted)

    records = []
    accepted_coeffs: list[np.ndarray] = []
    for s in range(n_subjects):
        # Draw a batch of latent candidates and keep the one whose deviation
        # directions align least with the already-drawn subjects: the
        # fingerprint stays separable by construction while remaining a pure
        # function of the seed.
        candidates = [rng.standard_normal(m) for _ in range(cfg.latent_candidates)]
        scored = [(alignment(contrast_coeff(z), accepted_coeffs), i) for i, z in enumerate(candidates)]
        _, best = min(scored)
        latents = candidates[best]
        coeff = contrast_coeff(latents)
        accepted_coeffs.append(coeff)
        weights = roi_profiles + cfg.roi_deviation * latents[:, None] * roi_deviation_basis

        runs = []
        for _ in range(cfg.n_runs):
            roi_ts = _ar1(rng, m, cfg.t_per_run, cfg.ar_coeff)
            left = weights.T @ roi_ts + cfg.timeseries_noise_std * rng.standard_normal((v, cfg.t_per_run))
            right = weights.T @ roi_ts + cfg.timeseries_noise_std * rng.standard_normal((v, cfg.t_per_run))
            runs.append(np.vstack([left, right, roi_ts]))

        clean = group_maps + cfg.contrast_deviation * (coeff @ contrast_basis)
        target = clean + noise_k[:, None] * rng.standard_normal((k, v))
        retest = clean + noise_k[:, None] * rng.standard_normal((k, v))

        records.append(
            SubjectRecord(
                subject_id=f"sub{s:03d}",
                runs=tuple(runs),
                target_contrasts=target,
                retest_contrasts=retest,
                n_vertices=v,
                n_rois=m,
            )
        )
    return records


# --- dataset directory layout -------------------------------------------------
#
# out/
#   cohort.json               manifest: seed, generator config, subject split
#   subjects/<id>/sample_0.bin .. sample_7.bin    [2M, V] connectome variants
#   subjects/<id>/target.bin                      [K, V]
#   subjects/<id>/retest.bin                      [K, V]


@dataclass
class Dataset:
    root: Path
    seed: int
    generator: GeneratorConfig
    train_ids: list[str]
    test_ids: list[str]

    @property
    def all_ids(self) -> list[str]:
        return self.train_ids + self.test_ids

    def _subject_dir(self, subject_id: str) -> Path:
        return self.root / "subjects" / subject_id

    def samples(self, subject_id: str) -> list[np.ndarray]:
        d = self._subject_dir(subject_id)
        return [read_tensor(d / f"sample_{i}.bin") for i in range(SEGMENTS_PER_SUBJECT)]

    def target(self, subject_id: str) -> np.ndarray:
        return read_tensor(self._subject_dir(subject_id) / "target.bin")

    def retest(self, subject_id: str) -> np.ndarray:
        return read_tensor(self._subject_dir(subject_id) / "retest.bin")


def save_dataset(
    out_dir: str | Path,
    seed: int,
    cfg: GeneratorConfig,
    train_records: list[SubjectRecord],
    test_records: list[SubjectRecord],
) -> Dataset:
    root = Path(out_dir)
    root.mkdir(parents=True, exist_ok=True)
    for record in train_records + test_records:
        subject_dir = root / "subjects" / record.subject_id
        subject_dir.mkdir(parents=True, exist_ok=True)
        for sample in split_runs(record):
            write_tensor(subject_dir / f"sample_{sample.segment_index}.bin", sample.features)
        write_tensor(subject_dir / "target.bin", record.target_contrasts)
        write_tensor(subject_dir / "retest.bin", record.retest_contrasts)

    manifest = {
        "seed": seed,
        "generator": cfg.to_dict(),
        "train_subjects": [r.subject_id for r in train_records],
        "test_subjects": [r.subject_id for r in test_records],
        "n_samples_per_subject": SEGMENTS_PER_SUBJECT,
        "shapes": {
            "connectome": [2 * cfg.n_rois, cfg.n_vertices],
            "contrast": [cfg.n_contrasts, cfg.n_vertices],
        },
    }
    (root / "cohort.json").write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n")
    return load_dataset(root)


def load_dataset(root: str | Path) -> Dataset:
    root = Path(root)
    manifest = json.loads((root / "cohort.json").read_text())
    return Dataset(
        root=root,
        seed=manifest["seed"],
        generator=GeneratorConfig.from_dict(manifest["generator"]),
        train_ids=list(manifest["train_subjects"]),
        test_ids=list(manifest["test_subjects"]),
    )


def ensemble_mean_features(samples: list[np.ndarray]) -> np.ndarray:
    return np.mean(samples, axis=0)


def bank_averaged_features(connectome: np.ndarray) -> np.ndarray:
    """Collapse a [2M, V] connectome to [V, M] features by averaging the two
    hemisphere banks (the feature layout the parcel regression consumes)."""
    m2 = connectome.shape[0]
    m = m2 // 2
    return ((connectome[:m] + connectome[m:]) / 2.0).T
