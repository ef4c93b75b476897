"""Per-parcel linear regression baseline and the group-average lower bound.

One ordinary-least-squares regressor is fitted per (parcel, contrast) per
training sample; fitted regressors are averaged coordinate-wise across
samples into a single regressor per (parcel, contrast), which predicts by
stitching per-parcel outputs back into full maps.
"""

from __future__ import annotations

import warnings
from collections.abc import Iterable
from dataclasses import dataclass, field

import numpy as np

from .autodiff import EmptySet, ShapeMismatch
from .fileio import CorruptFile, load_checkpoint, save_checkpoint
from .icosphere import Icosphere

RIDGE_JITTER = 1e-8


class RankDeficientWarning(UserWarning):
    pass


@dataclass(frozen=True)
class Parcellation:
    labels: np.ndarray  # [V] parcel index per vertex
    parcels: tuple[np.ndarray, ...]  # per-parcel vertex index lists

    @property
    def n_parcels(self) -> int:
        return len(self.parcels)

    @classmethod
    def from_labels(cls, labels: np.ndarray, n_parcels: int) -> "Parcellation":
        return cls(labels=labels, parcels=tuple(np.flatnonzero(labels == p) for p in range(n_parcels)))


@dataclass
class ParcelRegressor:
    """Coefficients [P, K, M+1]; last coordinate of each vector is the intercept."""

    coeffs: np.ndarray
    labels: np.ndarray
    rank_warnings: list[str] = field(default_factory=list)


def farthest_point_parcellation(mesh: Icosphere, n_parcels: int, seed: int = 0) -> Parcellation:
    """Seeded farthest-point clustering of vertex positions into P nonempty
    parcels (a stand-in for an anatomical parcellation)."""
    v = mesh.vertices
    n = v.shape[0]
    if not 1 <= n_parcels <= n:
        raise ValueError(f"need 1 <= n_parcels <= {n}, got {n_parcels}")
    rng = np.random.default_rng(seed)
    centers = [int(rng.integers(n))]
    dist = np.linalg.norm(v - v[centers[0]], axis=1)
    for _ in range(n_parcels - 1):
        nxt = int(np.argmax(dist))
        centers.append(nxt)
        dist = np.minimum(dist, np.linalg.norm(v - v[nxt], axis=1))
    center_pos = v[centers]
    labels = np.argmin(
        np.linalg.norm(v[:, None, :] - center_pos[None, :, :], axis=2), axis=1
    )
    parcellation = Parcellation.from_labels(labels, n_parcels)
    assert all(p.size > 0 for p in parcellation.parcels)  # centers are members of their parcels
    return parcellation


def fit_subject(
    features: np.ndarray, contrasts: np.ndarray, parcellation: Parcellation
) -> ParcelRegressor:
    """OLS per (parcel, contrast) with an intercept column, solved by normal
    equations with a small ridge jitter for rank safety.  Rank-deficient
    parcels still produce finite coefficients; a warning is recorded."""
    features = np.asarray(features, dtype=np.float64)
    contrasts = np.asarray(contrasts, dtype=np.float64)
    n_vertices, m = features.shape
    k = contrasts.shape[0]
    if contrasts.shape[1] != n_vertices or parcellation.labels.shape[0] != n_vertices:
        raise ShapeMismatch(
            f"fit_subject: features {features.shape}, contrasts {contrasts.shape}, "
            f"parcellation over {parcellation.labels.shape[0]} vertices"
        )

    coeffs = np.zeros((parcellation.n_parcels, k, m + 1))
    rank_warnings: list[str] = []
    for p, idx in enumerate(parcellation.parcels):
        x = np.column_stack([features[idx], np.ones(idx.size)])
        gram = x.T @ x
        if np.linalg.matrix_rank(x) < m + 1:
            msg = f"parcel {p}: rank-deficient design ({idx.size} vertices, {m + 1} coefficients)"
            rank_warnings.append(msg)
            warnings.warn(msg, RankDeficientWarning)
        solve = np.linalg.solve(gram + RIDGE_JITTER * np.eye(m + 1), x.T)
        coeffs[p] = contrasts[:, idx] @ solve.T
    return ParcelRegressor(coeffs=coeffs, labels=parcellation.labels.copy(), rank_warnings=rank_warnings)


def average_regressors(regressors: Iterable[ParcelRegressor]) -> ParcelRegressor:
    """Coordinate-wise mean per (parcel, contrast) across fitted regressors.

    The coefficients are summed in input order, which gives the bits of
    ``np.mean`` over their stack, so an iterable is held one regressor at a
    time.  Each distinct rank warning is kept once, in first-seen order."""
    total, labels, n, merged_warnings = None, None, 0, {}
    for reg in regressors:
        if total is None:
            total, labels = np.array(reg.coeffs, dtype=np.float64), reg.labels.copy()
        elif not np.array_equal(reg.labels, labels):
            raise ValueError("regressors were fitted on different parcellations")
        elif reg.coeffs.shape != total.shape:
            raise ShapeMismatch(f"regressor shapes differ: {reg.coeffs.shape} vs {total.shape}")
        else:
            total += reg.coeffs
        n += 1
        merged_warnings.update(dict.fromkeys(reg.rank_warnings))
        del reg  # dropped before the iterable makes the next one
    if total is None:
        raise EmptySet("average_regressors needs at least one regressor")
    total /= n
    return ParcelRegressor(coeffs=total, labels=labels, rank_warnings=list(merged_warnings))


def predict_baseline(
    regressor: ParcelRegressor, features: np.ndarray, parcellation: Parcellation
) -> np.ndarray:
    """Per-parcel affine prediction stitched into full [K, V] maps."""
    features = np.asarray(features, dtype=np.float64)
    n_parcels, k, m_plus_1 = regressor.coeffs.shape
    if (
        parcellation.n_parcels != n_parcels
        or features.shape != (parcellation.labels.shape[0], m_plus_1 - 1)
    ):
        raise ShapeMismatch(
            f"predict_baseline: features {features.shape}, regressor {regressor.coeffs.shape}, "
            f"{parcellation.n_parcels} parcels"
        )
    out = np.zeros((k, features.shape[0]))
    for p, idx in enumerate(parcellation.parcels):
        x = np.column_stack([features[idx], np.ones(idx.size)])
        out[:, idx] = regressor.coeffs[p] @ x.T
    return out


def save_baseline(path, regressor: ParcelRegressor) -> None:
    save_checkpoint(
        path,
        {"coeffs": regressor.coeffs, "labels": regressor.labels.astype(np.float64)},
        meta={"n_parcels": regressor.coeffs.shape[0], "rank_warnings": regressor.rank_warnings},
    )


def load_baseline(path) -> tuple[ParcelRegressor, Parcellation]:
    """The regressor a ``save_baseline`` file holds, with the parcellation
    its labels define; ``CorruptFile`` when the file is no such regressor."""
    arrays, meta = load_checkpoint(path)
    coeffs, labels = arrays.get("coeffs"), arrays.get("labels")
    if coeffs is None or labels is None:
        raise CorruptFile(f"{path}: not a baseline file (it needs 'coeffs' and 'labels' arrays)")
    if coeffs.ndim != 3 or labels.ndim != 1 or meta.get("n_parcels") != coeffs.shape[0]:
        raise CorruptFile(f"{path}: coeffs {coeffs.shape}, labels {labels.shape} and n_parcels do not fit")
    n_parcels = coeffs.shape[0]
    if not np.isin(labels, np.arange(n_parcels)).all():
        raise CorruptFile(f"{path}: parcel labels outside 0..{n_parcels - 1}")
    parcellation = Parcellation.from_labels(labels.astype(int), n_parcels)
    empty = [p for p, idx in enumerate(parcellation.parcels) if idx.size == 0]
    if empty:
        raise CorruptFile(f"{path}: parcel {empty[0]} has no vertices")
    rank_warnings = meta.get("rank_warnings", [])
    if not isinstance(rank_warnings, list) or not all(isinstance(w, str) for w in rank_warnings):
        raise CorruptFile(f"{path}: rank_warnings is not a list of strings")
    regressor = ParcelRegressor(coeffs=coeffs, labels=parcellation.labels, rank_warnings=rank_warnings)
    return regressor, parcellation


def group_average_baseline(training_targets: list[np.ndarray]) -> np.ndarray:
    """Elementwise mean contrast map over training subjects; serves as the
    same prediction for every test subject."""
    if not training_targets:
        raise EmptySet("group_average_baseline needs at least one training subject")
    first_shape = np.shape(training_targets[0])
    for t in training_targets:
        if np.shape(t) != first_shape:
            raise ShapeMismatch(f"target shapes differ: {np.shape(t)} vs {first_shape}")
    return np.mean(training_targets, axis=0)
