"""Reference implementations that the tests compare the package against."""

import numpy as np

from brainsurf.autodiff import ShapeMismatch
from brainsurf.connectome import ZeroVariance


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
