"""Synthetic cohorts with a known connectome-to-contrast link.

Each subject draws latent ROI loadings; two banks of vertex timeseries
(standing in for the two hemispheres) are profile-weighted mixtures of the
subject's ROI processes plus noise, so vertex-to-ROI correlations encode the
latents smoothly.  Each half-run connectome is drawn from the few numbers
through which the noise reaches it, never from the vertex series
themselves.  Target contrast maps are a fixed group map plus a
deterministic (partly nonlinear) function of the same latents plus
observation noise; retest maps share the deterministic part with fresh
noise.  Everything is driven by one seeded generator, so a cohort is a pure
function of (config, seed).
"""

from __future__ import annotations

import json
from collections.abc import Iterator, Sequence
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import scipy.sparse as sp

from .fileio import (
    ConfigError,
    CorruptFile,
    JsonConfig,
    is_plain_file_name,
    read_tensor,
    tensor_shape,
    write_tensor,
    write_text,
)
from .icosphere import closed_ring_mean, icosphere, n_vertices_at_level

SEGMENTS_PER_SUBJECT = 8  # 4 runs x 2 halves
_AR1_BLOCK = 64  # timepoints per product of the blocked AR(1) recursion


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
        for name in ("timeseries_noise_std", "contrast_noise_std"):
            if (np.asarray(getattr(self, name)) < 0).any():
                raise ConfigError(f"generator {name} must be >= 0")

    def noise_per_contrast(self) -> np.ndarray:
        return np.full(self.n_contrasts, self.contrast_noise_std, dtype=np.float64)


@dataclass(frozen=True)
class SubjectRecord:
    """Per-subject material: the 8 half-run connectomes of the 4 simulated
    runs, the target contrasts, and a retest draw."""

    subject_id: str
    samples: tuple[np.ndarray, ...]  # [2M, V] each, entries in [-1, 1], run-major
    target_contrasts: np.ndarray  # [K, V]
    retest_contrasts: np.ndarray  # [K, V]


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


def _span_coordinates(z: np.ndarray) -> np.ndarray:
    """The [M, r] coordinates, r = min(M, n-1), of the standardized rows
    z [M, n] in columns 1..r of Q, where [1/sqrt(n), z.T] = Q R.  Since
    z.T = Q R[:, 1:], they are rows 1..r of R transposed, and Q itself is
    never formed."""
    m, n = z.shape
    r = min(m, n - 1)
    return np.linalg.qr(np.column_stack([np.full(n, n**-0.5), z.T]), mode="r")[1 : r + 1, 1:].T


def _half_run_connectome(
    rng: np.random.Generator, weights: np.ndarray, roi: np.ndarray, noise_std: float
) -> np.ndarray:
    """The [2M, V] vertex-to-ROI Pearson connectome of one half-run, drawn
    from its sufficient statistics: channels 0..M-1 for the left bank,
    M..2M-1 for the right.

    A bank's vertex series are ``weights.T @ roi`` plus ``noise_std`` times
    white noise over the half's n timepoints.  Let Q [n, r], r = min(M, n-1),
    be an orthonormal basis of the centered ROI span.  A vertex's noise moves
    its correlations only through its r coordinates in Q, which are standard
    normals, and moves its norm only through its energy outside span(1, Q),
    a chi-square with n-1-r degrees of freedom.  Each bank draws those, in
    that order, and the result has the distribution of the explicit [V, n]
    simulation."""
    m, n = roi.shape
    v = weights.shape[1]
    z = standardized_rows(roi, "roi")
    u = _span_coordinates(z)  # [M, r]: each z row lies in span(Q), so z = u @ Q.T
    r = u.shape[1]
    roi_norms = np.linalg.norm(roi - roi.mean(axis=1, keepdims=True), axis=1)
    mixture = weights.T @ (roi_norms[:, None] * u)  # [V, r]: each vertex's centered ROI mixture in Q
    # A vertex whose norm is rounding next to its mixture terms is constant.
    floor = 1e-12 * (np.abs(weights.T) @ roi_norms)
    out = np.empty((2 * m, v))
    for bank in (out[:m], out[m:]):
        coords = mixture + noise_std * rng.standard_normal((v, r))
        outside = rng.chisquare(n - 1 - r, v) if n - 1 > r else np.zeros(v)
        norms = np.sqrt((coords * coords).sum(axis=1) + noise_std**2 * outside)
        constant = norms <= floor
        if constant.any():
            raise ZeroVariance(f"vertex row {np.flatnonzero(constant)[0]} has zero variance")
        np.divide(u @ coords.T, norms, out=bank)
    return np.clip(out, -1.0, 1.0, out=out)


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
    if evals[0] <= 1e-12 * evals[-1]:
        raise ConfigError(
            f"generator n_rois is too large for the mesh: the {len(fields)} smoothed contrast basis maps "
            f"are numerically dependent (Gram eigenvalue ratio {evals[0] / evals[-1]:.1e}); "
            "lower n_rois or smooth_steps, or raise mesh_level"
        )
    return (evecs * evals**-0.5) @ evecs.T @ fields


def _ar1(rng: np.random.Generator, n_series: int, t: int, coeff: float) -> np.ndarray:
    # Stationary AR(1) with unit marginal variance, x_i = c x_(i-1) + e_i,
    # solved a block of b timepoints at a time: with L the lower-triangular
    # Toeplitz matrix of c^(l-j), a block is E @ L.T + c^(l+1) x_prev.
    out = np.empty((n_series, t))
    out[:, 0] = rng.standard_normal(n_series)
    innov = np.sqrt(1.0 - coeff**2) * rng.standard_normal((n_series, t - 1))
    b = min(_AR1_BLOCK, t - 1)
    lags = np.arange(b)
    lower_t = np.triu(coeff ** np.maximum(lags[None, :] - lags[:, None], 0))  # L.T
    decay = coeff ** (lags + 1.0)
    for start in range(1, t, b):
        w = min(b, t - start)
        block = out[:, start : start + w]
        np.matmul(innov[:, start - 1 : start - 1 + w], lower_t[:w, :w], out=block)
        block += decay[:w] * out[:, start - 1 : start]
    return out


def _contrast_coeffs(contrast_mix: np.ndarray, latents: np.ndarray, nonlinear_mix: float) -> np.ndarray:
    """The [K, 2M, C] contrast coefficients of C latent rows [C, M]: a dense
    mix [K, 2M, 2M] of [tanh(z); nonlinear_mix (z^2 - 1)], unit-normalized
    per contrast, so every subject deviates by the same amount, in its own
    direction."""
    feats = np.concatenate([np.tanh(latents), nonlinear_mix * (latents**2 - 1.0)], axis=1)  # [C, 2M]
    coeffs = np.matmul(contrast_mix, feats.T)
    return coeffs / np.linalg.norm(coeffs, axis=1, keepdims=True)


def _least_aligned(coeffs: np.ndarray, accepted: np.ndarray) -> int:
    """The index of the candidate in ``coeffs`` [K, 2M, C] whose largest
    |cosine| with any accepted subject in ``accepted`` [K, s, 2M], over
    contrasts, is smallest (the first candidate when s is 0)."""
    return int(np.argmin(np.abs(np.matmul(accepted, coeffs)).max(axis=(0, 1), initial=0.0)))


def generate_cohort(n_subjects: int, cfg: GeneratorConfig, seed: int) -> list[SubjectRecord]:
    """Every subject of the cohort, in order, all held in memory at once
    (``write_cohort`` writes each one as it completes instead)."""
    return list(_cohort_records(n_subjects, cfg, seed))


def _cohort_records(n_subjects: int, cfg: GeneratorConfig, seed: int) -> Iterator[SubjectRecord]:
    """The cohort's subjects in order, each yielded as soon as it is drawn.

    The config, the subject count and the contrast basis are checked by
    this call, before any subject is drawn or asked for.  Every
    draw is made in one fixed order (latents, then per run the ROI series,
    then per half and bank the connectome's statistics, then target and
    retest), so a cohort is a pure function of (config, seed).  Memory holds
    about one subject, whatever the cohort size."""
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

    def records() -> Iterator[SubjectRecord]:
        accepted = np.empty((k, n_subjects, 2 * m))  # each drawn subject's coefficients
        for s in range(n_subjects):
            # Draw a batch of latent candidates and keep the one whose
            # deviation directions align least with the already-drawn
            # subjects: the fingerprint stays separable by construction while
            # remaining a pure function of the seed.
            candidates = rng.standard_normal((cfg.latent_candidates, m))
            coeffs = _contrast_coeffs(contrast_mix, candidates, cfg.nonlinear_mix)
            best = _least_aligned(coeffs, accepted[:, :s])
            latents, coeff = candidates[best], coeffs[:, :, best]
            accepted[:, s] = coeff
            weights = roi_profiles + cfg.roi_deviation * latents[:, None] * roi_deviation_basis

            samples = []
            for _ in range(cfg.n_runs):
                roi_ts = _ar1(rng, m, t, cfg.ar_coeff)
                for seg in (slice(0, t // 2), slice(t // 2, t)):
                    samples.append(_half_run_connectome(rng, weights, roi_ts[:, seg], cfg.timeseries_noise_std))

            clean = group_maps + cfg.contrast_deviation * (coeff @ contrast_basis)
            target = clean + noise_k[:, None] * rng.standard_normal((k, v))
            retest = clean + noise_k[:, None] * rng.standard_normal((k, v))
            yield SubjectRecord(
                subject_id=f"sub{s:03d}",
                samples=tuple(samples),
                target_contrasts=target,
                retest_contrasts=retest,
            )

    return records()


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

    def _check_shape(self, path: Path, shape: tuple[int, ...], channels: int) -> None:
        # CorruptFile unless the file holds the [channels, V] array the
        # generator in cohort.json says it does.
        expected = (channels, self.generator.n_vertices)
        if shape != expected:
            raise CorruptFile(f"{path}: shape {list(shape)}, cohort.json expects {list(expected)}")

    def _read(self, subject_id: str, name: str, channels: int) -> np.ndarray:
        path = self._subject_dir(subject_id) / name
        arr = read_tensor(path)
        self._check_shape(path, arr.shape, channels)
        if not np.isfinite(arr).all():
            raise CorruptFile(f"{path}: holds a NaN or an infinity")
        return arr

    def samples(self, subject_id: str) -> "SampleFiles":
        """The subject's 8 samples as a sequence that reads one from its file
        on each access and keeps none.  Every file's header and length are
        checked now; a NaN or an infinity is found when the sample is read."""
        for k in range(SEGMENTS_PER_SUBJECT):
            path = self._subject_dir(subject_id) / f"sample_{k}.bin"
            self._check_shape(path, tensor_shape(path), 2 * self.generator.n_rois)
        return SampleFiles(self, subject_id)

    def target(self, subject_id: str) -> np.ndarray:
        return self._read(subject_id, "target.bin", self.generator.n_contrasts)

    def retest(self, subject_id: str) -> np.ndarray:
        return self._read(subject_id, "retest.bin", self.generator.n_contrasts)


@dataclass(frozen=True)
class SampleFiles(Sequence[np.ndarray]):
    """``Dataset.samples``: item k is the subject's ``sample_k.bin``, read
    anew on each access, so that the page cache, not the process, holds a
    subject's samples between uses."""

    dataset: Dataset
    subject_id: str

    def __len__(self) -> int:
        return SEGMENTS_PER_SUBJECT

    def __getitem__(self, index: int) -> np.ndarray:
        k = range(SEGMENTS_PER_SUBJECT)[index]
        return self.dataset._read(self.subject_id, f"sample_{k}.bin", 2 * self.dataset.generator.n_rois)


def write_cohort(out_dir: str | Path, cfg: GeneratorConfig, seed: int, n_train: int, n_test: int) -> None:
    """Generate a cohort of ``n_train + n_test`` subjects and write each one
    as it is drawn, so memory holds about one subject at a time.

    A rejected config writes nothing.  ``cohort.json`` goes last (a stale one
    is removed first): a directory without it is an unfinished cohort, which
    ``load_dataset`` rejects."""
    records = _cohort_records(n_train + n_test, cfg, seed)
    root = Path(out_dir)
    root.mkdir(parents=True, exist_ok=True)
    (root / "cohort.json").unlink(missing_ok=True)
    ids = []
    for record in records:
        subject_dir = root / "subjects" / record.subject_id
        subject_dir.mkdir(parents=True, exist_ok=True)
        for k, sample in enumerate(record.samples):
            write_tensor(subject_dir / f"sample_{k}.bin", sample)
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
    write_text(root / "cohort.json", json.dumps(manifest, indent=2, sort_keys=True) + "\n")


def load_dataset(root: str | Path) -> Dataset:
    """The dataset ``write_cohort`` wrote under ``root``; ``CorruptFile``
    when its ``cohort.json`` is not a JSON object with the keys read here,
    a valid generator and lists of subject ids that are plain file names, at
    least one of them for training and none listed twice."""
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
        # An id names a directory under subjects/ and an output file: a plain file name.
        bad = [sid for sid in ids if not is_plain_file_name(sid)]
        if bad:
            raise CorruptFile(f"{path}: {key} lists {bad[0]!r}, which is not a plain file name")
    train_ids, test_ids = manifest["train_subjects"], manifest["test_subjects"]
    if not train_ids:
        raise CorruptFile(f"{path}: train_subjects is empty")
    listed = train_ids + test_ids
    repeated = sorted({sid for sid in listed if listed.count(sid) > 1})
    if repeated:
        raise CorruptFile(f"{path}: train_subjects and test_subjects list {', '.join(repeated)} twice")
    try:
        generator = GeneratorConfig.from_dict(manifest["generator"])
        generator.validate()
    except (ConfigError, TypeError) as exc:
        raise CorruptFile(f"{path}: invalid generator: {exc}") from exc
    return Dataset(
        root=Path(root),
        generator=generator,
        train_ids=train_ids,
        test_ids=test_ids,
    )


def ensemble_mean_features(samples: list[np.ndarray]) -> np.ndarray:
    return np.mean(samples, axis=0)


def bank_averaged_features(connectome: np.ndarray) -> np.ndarray:
    """Collapse a [2M, V] connectome to [V, M] features by averaging the two
    hemisphere banks (the feature layout the parcel regression consumes)."""
    m2 = connectome.shape[0]
    m = m2 // 2
    return ((connectome[:m] + connectome[m:]) / 2.0).T
