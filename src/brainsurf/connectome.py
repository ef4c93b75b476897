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
from concurrent.futures import Future, ThreadPoolExecutor
from contextlib import closing
from dataclasses import dataclass
from pathlib import Path
from typing import Iterator

import numpy as np
import scipy.sparse as sp

from .fileio import ConfigError, CorruptFile, JsonConfig, read_tensor, write_tensor
from .icosphere import closed_ring_mean, icosphere, n_vertices_at_level

SEGMENTS_PER_SUBJECT = 8  # 4 runs x 2 halves


class ZeroVariance(ValueError):
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

    def validate(self) -> None:
        if self.mesh_level < 0:
            raise ConfigError("generator mesh_level must be >= 0")
        if self.n_rois < 1 or self.n_contrasts < 1:
            raise ConfigError("generator n_rois and n_contrasts must be >= 1")
        if self.n_runs != 4:
            raise ConfigError(
                f"generator n_runs must be 4 ({SEGMENTS_PER_SUBJECT} half-run samples per subject)"
            )
        if self.t_per_run < 4 or self.t_per_run % 2 != 0:
            raise ConfigError("generator t_per_run must be even and >= 4 (two halves of >= 2 timepoints)")
        if not abs(self.ar_coeff) < 1.0:
            raise ConfigError("generator ar_coeff must lie in (-1, 1) for a stationary AR(1)")
        if self.latent_candidates < 1:
            raise ConfigError("generator latent_candidates must be >= 1")
        if self.smooth_steps < 0:
            raise ConfigError("generator smooth_steps must be >= 0")
        noise = self.contrast_noise_std
        if not isinstance(noise, (int, float)) and len(noise) != self.n_contrasts:
            raise ConfigError(f"contrast_noise_std needs {self.n_contrasts} entries, got {len(noise)}")
        for name in ("timeseries_noise_std", "roi_deviation", "contrast_deviation", "nonlinear_mix",
                     "contrast_noise_std"):
            if not np.isfinite(getattr(self, name)).all():
                raise ConfigError(f"generator {name} must be finite")

    def noise_per_contrast(self) -> np.ndarray:
        return np.full(self.n_contrasts, self.contrast_noise_std, dtype=np.float64)


@dataclass(frozen=True)
class ConnectomeSample:
    segment_index: int  # 0..7, run-major
    features: np.ndarray  # [2M, V], entries in [-1, 1]


@dataclass(frozen=True)
class SubjectRecord:
    """Per-subject material: the 8 half-run connectomes of the 4 simulated
    runs, the target contrasts, and a retest draw."""

    subject_id: str
    samples: tuple[ConnectomeSample, ...]
    target_contrasts: np.ndarray  # [K, V]
    retest_contrasts: np.ndarray  # [K, V]


def standardized_rows(
    rows: np.ndarray, label: str, constant_rows_nan: bool = False, out: np.ndarray | None = None
) -> np.ndarray:
    """Center each row and scale it to unit norm, so that inner products of
    standardized rows are Pearson correlations; the result goes to ``out``
    when given.

    A constant row has no correlation: it raises ZeroVariance, or becomes a
    row of NaN when ``constant_rows_nan``."""
    return _standardized_rows(rows, label, constant_rows_nan, out)


def _standardized_rows(
    rows: np.ndarray, label: str, constant_rows_nan: bool = False, out: np.ndarray | None = None
) -> np.ndarray:
    rows = np.asarray(rows, dtype=np.float64)
    if out is None:
        out = np.empty_like(rows)
    mean = rows.mean(axis=1, keepdims=True)
    # The squares go through ``out`` too, and the rows are centered again
    # after: a call allocates nothing of the rows' size beyond ``out``.
    np.subtract(rows, mean, out=out)
    np.multiply(out, out, out=out)
    norms = np.sqrt(out.sum(axis=1))
    # The computed mean of a constant row can miss its value by a few ulp,
    # which leaves a tiny nonzero norm: test rows with such norms exactly.
    constant = norms <= 1e-12 * np.sqrt(rows.shape[1]) * np.abs(mean[:, 0])
    if constant.any():
        constant[constant] = rows[constant].max(axis=1) == rows[constant].min(axis=1)
        if constant.any() and not constant_rows_nan:
            raise ZeroVariance(f"{label} row {np.flatnonzero(constant)[0]} has zero variance")
        norms[constant] = np.nan
    np.subtract(rows, mean, out=out)
    np.divide(out, norms[:, None], out=out)
    return out


def _connectome_into(
    out: np.ndarray, left: np.ndarray, right: np.ndarray, roi: np.ndarray, z: np.ndarray
) -> np.ndarray:
    """Vertex-to-ROI Pearson correlations into ``out`` as a [2M, V] channel
    stack: channels 0..M-1 correlate the ``left`` bank against each ROI
    series, channels M..2M-1 the ``right`` bank.  ``z`` (C-ordered, the
    banks' shape) holds each standardized bank in turn."""
    m = roi.shape[0]
    z_roi = _standardized_rows(roi, "roi")
    np.matmul(z_roi, _standardized_rows(left, "vertex", out=z).T, out=out[:m])
    np.matmul(z_roi, _standardized_rows(right, "vertex", out=z).T, out=out[m:])
    return np.clip(out, -1.0, 1.0, out=out)


def split_runs(record: SubjectRecord) -> list[ConnectomeSample]:
    """One connectome per contiguous half-run: 8 samples per subject."""
    return list(record.samples)


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
    """Every subject of the cohort, in order, all held in memory at once
    (``write_cohort`` writes each one as it completes instead)."""
    return list(_cohort_records(n_subjects, cfg, seed))


def _run_connectomes(
    weights: np.ndarray, roi: np.ndarray, left: np.ndarray, right: np.ndarray,
    noise_std: float, work: np.ndarray, out: tuple[np.ndarray, np.ndarray],
) -> None:
    """One drawn run into its two half-run connectomes ``out``: the noise
    banks ``left`` and ``right`` [V, T] become the vertex series in place
    (``noise*std + mixture`` is bitwise ``mixture + std*noise``).  ``work``
    (V*T values) holds the ROI mixture, then each standardized half-bank.

    The worker thread runs this: it allocates nothing of the banks' size and
    calls no public function of the package."""
    v, t = left.shape
    mixture = work.reshape(v, t)
    np.matmul(weights.T, roi, out=mixture)  # both banks share the ROI mixture, not the noise
    for bank in (left, right):
        bank *= noise_std
        bank += mixture
    z = work[: v * (t // 2)].reshape(v, t // 2)
    for features, seg in zip(out, (slice(0, t // 2), slice(t // 2, t))):
        _connectome_into(features, left[:, seg], right[:, seg], roi[:, seg], z)


def _cohort_records(n_subjects: int, cfg: GeneratorConfig, seed: int) -> Iterator[SubjectRecord]:
    """The cohort's subjects in order, each yielded as soon as its last
    connectome is done.

    This thread makes every draw, in one fixed order, so a cohort is a pure
    function of (config, seed).  Each run's noise is drawn into one of two
    run slots while a worker turns the run before into its connectomes.
    Memory holds the slots and about one subject, whatever the cohort size."""
    cfg.validate()
    if n_subjects < 2:
        raise ValueError(f"a cohort needs at least 2 subjects, got {n_subjects}")
    rng = np.random.default_rng(seed)
    mesh = icosphere(cfg.mesh_level)
    v, m, k, t = cfg.n_vertices, cfg.n_rois, cfg.n_contrasts, cfg.t_per_run
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

    slots = [(np.empty((v, t)), np.empty((v, t))) for _ in range(2)]
    work = np.empty(v * t)
    pending: Future | None = None  # the one job in flight
    finished: SubjectRecord | None = None  # drawn, its last run still in flight
    accepted_coeffs: list[np.ndarray] = []
    # Leaving the block joins the worker, however the cohort ends: a job
    # still pending then belongs to a consumer that stopped early.
    with ThreadPoolExecutor(1, thread_name_prefix="brainsurf-gen") as worker:
        for s in range(n_subjects):
            # Draw a batch of latent candidates and keep the one whose
            # deviation directions align least with the already-drawn
            # subjects: the fingerprint stays separable by construction while
            # remaining a pure function of the seed.
            candidates = [rng.standard_normal(m) for _ in range(cfg.latent_candidates)]
            scored = [(alignment(contrast_coeff(z), accepted_coeffs), i) for i, z in enumerate(candidates)]
            _, best = min(scored)
            latents = candidates[best]
            coeff = contrast_coeff(latents)
            accepted_coeffs.append(coeff)
            weights = roi_profiles + cfg.roi_deviation * latents[:, None] * roi_deviation_basis

            samples = []
            for run_idx in range(cfg.n_runs):
                roi_ts = _ar1(rng, m, t, cfg.ar_coeff)
                # Free to overwrite: the job that read this slot, two runs
                # back, was waited for when the previous run was submitted.
                left, right = slots[run_idx % 2]
                rng.standard_normal(out=left)
                rng.standard_normal(out=right)
                halves = (np.empty((2 * m, v)), np.empty((2 * m, v)))
                if pending is not None:
                    pending.result()  # re-raises the job's exception unchanged
                pending = worker.submit(
                    _run_connectomes, weights, roi_ts, left, right, cfg.timeseries_noise_std, work, halves
                )
                if finished is not None:  # its last run was the job just waited for
                    yield finished
                    finished = None
                samples += [ConnectomeSample(2 * run_idx + h, f) for h, f in enumerate(halves)]

            clean = group_maps + cfg.contrast_deviation * (coeff @ contrast_basis)
            target = clean + noise_k[:, None] * rng.standard_normal((k, v))
            retest = clean + noise_k[:, None] * rng.standard_normal((k, v))
            finished = SubjectRecord(
                subject_id=f"sub{s:03d}",
                samples=tuple(samples),
                target_contrasts=target,
                retest_contrasts=retest,
            )
        pending.result()
        yield finished


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
    generator: GeneratorConfig
    train_ids: list[str]
    test_ids: list[str]

    @property
    def all_ids(self) -> list[str]:
        return self.train_ids + self.test_ids

    def _subject_dir(self, subject_id: str) -> Path:
        return self.root / "subjects" / subject_id

    def _read(self, subject_id: str, name: str, channels: int) -> np.ndarray:
        # CorruptFile unless the file holds the [channels, V] array the
        # generator in cohort.json says it does.
        path = self._subject_dir(subject_id) / name
        arr = read_tensor(path)
        expected = (channels, self.generator.n_vertices)
        if arr.shape != expected:
            raise CorruptFile(f"{path}: shape {list(arr.shape)}, cohort.json expects {list(expected)}")
        return arr

    def samples(self, subject_id: str) -> list[np.ndarray]:
        return [
            self._read(subject_id, f"sample_{i}.bin", 2 * self.generator.n_rois)
            for i in range(SEGMENTS_PER_SUBJECT)
        ]

    def target(self, subject_id: str) -> np.ndarray:
        return self._read(subject_id, "target.bin", self.generator.n_contrasts)

    def retest(self, subject_id: str) -> np.ndarray:
        return self._read(subject_id, "retest.bin", self.generator.n_contrasts)


def write_cohort(out_dir: str | Path, cfg: GeneratorConfig, seed: int, n_train: int, n_test: int) -> None:
    """Generate a cohort of ``n_train + n_test`` subjects and write each one
    as it is done, so memory holds about one subject at a time.

    ``cohort.json`` goes last (a stale one is removed first): a directory
    without it is an unfinished cohort, which ``load_dataset`` rejects."""
    root = Path(out_dir)
    root.mkdir(parents=True, exist_ok=True)
    (root / "cohort.json").unlink(missing_ok=True)
    ids = []
    # When a write fails, closing() stops the generator and joins its worker
    # here, not whenever the generator is collected.
    with closing(_cohort_records(n_train + n_test, cfg, seed)) as records:
        for record in records:
            subject_dir = root / "subjects" / record.subject_id
            subject_dir.mkdir(parents=True, exist_ok=True)
            for sample in record.samples:
                write_tensor(subject_dir / f"sample_{sample.segment_index}.bin", sample.features)
            write_tensor(subject_dir / "target.bin", record.target_contrasts)
            write_tensor(subject_dir / "retest.bin", record.retest_contrasts)
            ids.append(record.subject_id)

    manifest = {
        "seed": seed,
        "generator": cfg.to_dict(),
        "train_subjects": ids[:n_train],
        "test_subjects": ids[n_train:],
        "n_samples_per_subject": SEGMENTS_PER_SUBJECT,
        "shapes": {
            "connectome": [2 * cfg.n_rois, cfg.n_vertices],
            "contrast": [cfg.n_contrasts, cfg.n_vertices],
        },
    }
    (root / "cohort.json").write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n")


def load_dataset(root: str | Path) -> Dataset:
    """The dataset ``write_cohort`` wrote under ``root``; ``CorruptFile``
    when its ``cohort.json`` is not a JSON object with the keys read here,
    a valid generator and lists of subject-id strings."""
    path = Path(root) / "cohort.json"
    try:
        manifest = json.loads(path.read_bytes())
    except ValueError as exc:
        raise CorruptFile(f"{path}: not JSON: {exc}") from exc
    if not isinstance(manifest, dict):
        raise CorruptFile(f"{path}: not a JSON object")
    missing = [k for k in ("generator", "train_subjects", "test_subjects") if k not in manifest]
    if missing:
        raise CorruptFile(f"{path}: missing {', '.join(missing)}")
    for key in ("train_subjects", "test_subjects"):
        ids = manifest[key]
        if not isinstance(ids, list) or not all(isinstance(sid, str) for sid in ids):
            raise CorruptFile(f"{path}: {key} is not a list of subject-id strings")
    try:
        generator = GeneratorConfig.from_dict(manifest["generator"])
        generator.validate()
    except (ConfigError, TypeError) as exc:
        raise CorruptFile(f"{path}: invalid generator: {exc}") from exc
    return Dataset(
        root=Path(root),
        generator=generator,
        train_ids=manifest["train_subjects"],
        test_ids=manifest["test_subjects"],
    )


def ensemble_mean_features(samples: list[np.ndarray]) -> np.ndarray:
    return np.mean(samples, axis=0)


def bank_averaged_features(connectome: np.ndarray) -> np.ndarray:
    """Collapse a [2M, V] connectome to [V, M] features by averaging the two
    hemisphere banks (the feature layout the parcel regression consumes)."""
    m2 = connectome.shape[0]
    m = m2 // 2
    return ((connectome[:m] + connectome[m:]) / 2.0).T
