"""Reference implementations that the tests compare the package against."""

import numpy as np

from brainsurf.autodiff import ShapeMismatch
from brainsurf.connectome import (
    ConnectomeSample,
    SubjectRecord,
    ZeroVariance,
    _ar1,
    _orthonormal_rows,
    _smooth_fields,
)
from brainsurf.icosphere import closed_ring_mean, icosphere


def pearson(x, y) -> float:
    """Sample Pearson correlation of two 1-d series, clipped to [-1, 1]
    against rounding."""
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


def standardized_rows(rows) -> np.ndarray:
    """Rows centered and scaled to unit norm, in the fresh arrays of the
    plain formula (no constant-row handling)."""
    rows = np.asarray(rows, dtype=np.float64)
    centered = rows - rows.mean(axis=1, keepdims=True)
    return centered / np.sqrt((centered * centered).sum(axis=1))[:, None]


def connectome(left, right, roi) -> np.ndarray:
    """Vertex-to-ROI Pearson correlations over whole series as a [2M, V]
    channel stack: the left bank's M channels, then the right bank's."""
    z_roi = standardized_rows(roi)
    corr = [z_roi @ standardized_rows(bank).T for bank in (left, right)]
    return np.clip(np.concatenate(corr, axis=0), -1.0, 1.0)


def half_run_connectomes(left, right, roi) -> list[np.ndarray]:
    """The [2M, V] connectomes of a run's two contiguous halves."""
    t = roi.shape[1]
    halves = (slice(0, t // 2), slice(t // 2, t))
    return [connectome(left[:, seg], right[:, seg], roi[:, seg]) for seg in halves]


def sequential_cohort(n_subjects: int, cfg, seed: int) -> list:
    """``generate_cohort`` as one loop on one thread, each run's series
    built in fresh arrays: the byte-level reference for the pipelined
    generator."""
    rng = np.random.default_rng(seed)
    mesh = icosphere(cfg.mesh_level)
    v, m, k = cfg.n_vertices, cfg.n_rois, cfg.n_contrasts
    smoother = closed_ring_mean(mesh, mesh.n_vertices)

    roi_profiles = _smooth_fields(rng, smoother, m, cfg.smooth_steps)
    roi_deviation_basis = _smooth_fields(rng, smoother, m, cfg.smooth_steps)
    group_maps = _smooth_fields(rng, smoother, k, cfg.smooth_steps)
    contrast_basis = _orthonormal_rows(
        _smooth_fields(rng, smoother, 2 * m, cfg.smooth_steps)
    ) * np.sqrt(v)
    contrast_mix = rng.standard_normal((k, 2 * m, 2 * m)) / np.sqrt(2 * m)
    noise_k = cfg.noise_per_contrast()

    def contrast_coeff(latents):
        feats = np.concatenate([np.tanh(latents), cfg.nonlinear_mix * (latents**2 - 1.0)])
        coeff = contrast_mix @ feats
        return coeff / np.linalg.norm(coeff, axis=1, keepdims=True)

    def alignment(coeff, accepted):
        if not accepted:
            return 0.0
        return max(np.abs((coeff * prev).sum(axis=1)).max() for prev in accepted)

    records = []
    accepted_coeffs = []
    for s in range(n_subjects):
        candidates = [rng.standard_normal(m) for _ in range(cfg.latent_candidates)]
        scored = [(alignment(contrast_coeff(z), accepted_coeffs), i) for i, z in enumerate(candidates)]
        _, best = min(scored)
        latents = candidates[best]
        coeff = contrast_coeff(latents)
        accepted_coeffs.append(coeff)
        weights = roi_profiles + cfg.roi_deviation * latents[:, None] * roi_deviation_basis

        samples = []
        for run_idx in range(cfg.n_runs):
            roi_ts = _ar1(rng, m, cfg.t_per_run, cfg.ar_coeff)
            mixed = weights.T @ roi_ts
            left = mixed + cfg.timeseries_noise_std * rng.standard_normal((v, cfg.t_per_run))
            right = mixed + cfg.timeseries_noise_std * rng.standard_normal((v, cfg.t_per_run))
            for half, features in enumerate(half_run_connectomes(left, right, roi_ts)):
                samples.append(ConnectomeSample(segment_index=2 * run_idx + half, features=features))

        clean = group_maps + cfg.contrast_deviation * (coeff @ contrast_basis)
        target = clean + noise_k[:, None] * rng.standard_normal((k, v))
        retest = clean + noise_k[:, None] * rng.standard_normal((k, v))
        records.append(SubjectRecord(f"sub{s:03d}", tuple(samples), target, retest))
    return records
