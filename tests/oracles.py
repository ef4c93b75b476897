"""Reference implementations that the tests compare the package against."""

import numpy as np

from brainsurf import autodiff as ad
from brainsurf.autodiff import Tensor
from brainsurf.connectome import ZeroVariance


def sum_of_squares(*parts: Tensor) -> Tensor:
    """The sum of x^2 over every entry of every part, as one graph node with
    gradient 2x per part: the tests' scalar root over graphs of the
    package's ops."""
    return ad._op(
        sum(np.square(p.data).sum() for p in parts),
        parts,
        lambda g: tuple(2.0 * p.data * g for p in parts),
    )


def hinge(x: Tensor, slope: float = 0.1) -> Tensor:
    """max(x, slope*x) as one graph node with gradient g * where(x > 0, 1,
    slope), its input recorded as a hinge pre-activation for grad_check:
    the tests' generic kink op."""
    ad._record_hinge(x.data)
    return ad._op(
        np.maximum(x.data, slope * x.data),
        (x,),
        lambda g: (g * np.where(x.data > 0.0, 1.0, slope),),
    )


def concat_channels(parts) -> Tensor:
    """Concatenate same-leading-shape tensors along the last axis as one
    graph node whose gradient hands each part its slice of g: the tests'
    multi-parent op."""
    lead = parts[0].data.shape[:-1]
    if any(p.data.ndim == 0 or p.data.shape[:-1] != lead for p in parts):
        raise ValueError(f"concat_channels: shapes {[p.data.shape for p in parts]} incompatible")
    stops = np.cumsum([p.data.shape[-1] for p in parts])
    return ad._op(
        np.concatenate([p.data for p in parts], axis=-1),
        tuple(parts),
        lambda g: tuple(np.split(g, stops[:-1], axis=-1)),
    )


def pearson(x, y) -> float:
    """Sample Pearson correlation of two 1-d series, clipped to [-1, 1]
    against rounding."""
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if x.shape != y.shape or x.ndim != 1:
        raise ValueError(f"pearson: shapes {x.shape} and {y.shape}")
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


def subject_id_accuracy(matrix) -> float:
    """Fraction of rows whose diagonal entry strictly exceeds every other
    entry of the row, one row at a time; NaN when any entry is NaN."""
    matrix = np.asarray(matrix, dtype=np.float64)
    if np.isnan(matrix).any():
        return float("nan")
    n = matrix.shape[0]
    hits = sum(int(matrix[i, i] > np.delete(matrix[i], i).max()) for i in range(n))
    return hits / n


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


def ar1(rng, n_series, t, coeff) -> np.ndarray:
    """Stationary AR(1) with unit marginal variance, one timepoint at a time,
    with the generator's draws in the generator's order."""
    out = np.empty((n_series, t))
    out[:, 0] = rng.standard_normal(n_series)
    innov = np.sqrt(1.0 - coeff**2) * rng.standard_normal((n_series, t - 1))
    for i in range(1, t):
        out[:, i] = coeff * out[:, i - 1] + innov[:, i - 1]
    return out


def contrast_coeff(contrast_mix, latents, nonlinear_mix) -> np.ndarray:
    """One latent vector's unit-norm [K, 2M] contrast coefficients."""
    feats = np.concatenate([np.tanh(latents), nonlinear_mix * (latents**2 - 1.0)])
    coeff = contrast_mix @ feats
    return coeff / np.linalg.norm(coeff, axis=1, keepdims=True)


def alignment_scores(coeffs, accepted) -> list[float]:
    """Each candidate's largest |cosine| with any accepted subject, over
    contrasts: candidates a list of [K, 2M] coefficients, the accepted
    subjects stacked [s, K, 2M]; scored one candidate at a time."""
    return [float(np.abs((accepted * c).sum(axis=2)).max(initial=0.0)) for c in coeffs]


def least_aligned(coeffs, accepted) -> int:
    """The candidate whose ``alignment_scores`` entry is smallest."""
    return int(np.argmin(alignment_scores(coeffs, accepted)))


def span_coordinates(z) -> np.ndarray:
    """The coordinates z @ Q[:, 1:r+1] of standardized rows z [M, n] in the
    orthonormal factor Q of [1/sqrt(n), z.T], r = min(M, n-1)."""
    m, n = z.shape
    q = np.linalg.qr(np.column_stack([np.full(n, n**-0.5), z.T]))[0]
    return z @ q[:, 1 : min(m, n - 1) + 1]


def mesh_conv_grads(layer, x, out, g, slope=None):
    """The gradients (dx, dW, db) of ``mesh_conv(layer, x, slope)`` at
    vertex-major x [V, B, in] with output ``out``, for the output gradient g,
    through the stacked transpose [I | grad_ew | grad_ns | L]^T in one
    product: dz = conv^T g as [4, V*B, out], dx = sum over blocks and
    outputs of dz W^T, dW = x^T dz and db = the sum of g."""
    ops = layer.operators
    n_vertices, batch, c_in = x.shape
    c_out = layer.out_channels
    if slope is not None:
        g = g * np.where(out > 0.0, 1.0, slope)
    w = layer.weights.tensor.data  # [4, in, out]
    rows = x.reshape(n_vertices * batch, c_in)
    dz = (ops.conv.T.tocsr() @ g.reshape(n_vertices, batch * c_out)).reshape(4, n_vertices * batch, c_out)
    dx = np.tensordot(dz, w, axes=([0, 2], [0, 2])).reshape(x.shape)
    dw = np.matmul(rows.T, dz)
    return dx, dw, g.reshape(-1, c_out).sum(axis=0)


def dense_mesh_conv(layer, x, g, slope=None):
    """``mesh_conv(layer, x, slope)`` at vertex-major x [V, B, in] from the
    four operators as dense matrices S_k, one einsum per term, and its
    gradients for the output gradient g: y = sum_k S_k x W_k + b, then
    max(y, slope*y); with g' = g * where(y > 0, 1, slope),
    dx = sum_k S_k^T g' W_k^T, dW_k = (S_k x)^T g' and db = the sum of g'.
    Returns (y, dx, dW, db), dW as [4, in, out] like the weights."""
    ops = layer.operators
    dense = np.stack([op.toarray() for op in (ops.identity, ops.grad_ew, ops.grad_ns, ops.laplacian)])
    w = layer.weights.tensor.data
    sx = np.einsum("kvu,ubi->kvbi", dense, x)
    y = np.einsum("kvbi,kio->vbo", sx, w) + layer.bias.tensor.data
    if slope is not None:
        g = g * np.where(y > 0.0, 1.0, slope)
        y = np.where(y > 0.0, y, slope * y)
    dx = np.einsum("kvu,vbo,kio->ubi", dense, g, w)
    dw = np.einsum("kvbi,vbo->kio", sx, g)
    return y, dx, dw, g.sum(axis=(0, 1))
