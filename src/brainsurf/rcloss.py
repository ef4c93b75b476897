"""Reconstructive-contrastive loss, margin initialization, margin schedule.

For a batch of N subjects with predictions x_hat and targets x:

    L_R  = mean_i d(x_hat_i, x_i)
    L_C  = mean over ordered pairs (i, j), j != i of d(x_hat_i, x_j)
    L_RC = [L_R - alpha]_+ + [L_R - L_C + beta]_+

d is the mean squared difference over all channel-vertex entries, which
keeps the margins comparable across mesh resolutions.  L_C averages over
all N*(N-1) ordered pairs; d is asymmetric in its arguments, so ordered
pairs give a true average.  It is computed in closed form from batch sums,
centred on the mean target t_bar:

    sum_{i != j} |x_hat_i - x_j|^2 = N sum_i |x_hat_i - t_bar|^2
                                   + N sum_j |x_j - t_bar|^2
                                   - sum_i |x_hat_i - x_i|^2

Centring avoids the cancellation of the |p|^2 - 2 p.t + |t|^2 expansion
when the maps sit far from zero.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import EmptySet, ShapeMismatch, Tensor
from .model import BrainSurfCNN, predict_ensemble


class BatchTooSmall(ValueError):
    pass


@dataclass(frozen=True)
class Margins:
    alpha: float
    beta: float

    def __post_init__(self):
        if self.alpha < 0 or self.beta < 0:
            raise ValueError(f"margins must be nonnegative, got {self.alpha}, {self.beta}")


@dataclass
class BatchLoss:
    l_r: Tensor
    l_c: Tensor
    l_rc: Tensor
    per_subject: list[float]  # d(x_hat_i, x_i) per batch subject


def distance(a, b) -> Tensor:
    """Mean squared difference over all entries of two same-shape maps."""
    a = a if isinstance(a, Tensor) else Tensor(a)
    b = b if isinstance(b, Tensor) else Tensor(b)
    if a.data.shape != b.data.shape:
        raise ShapeMismatch(f"distance: shapes {a.data.shape} and {b.data.shape} differ")
    return ad.square(ad.sub(a, b)).mean()


def _batch(x) -> Tensor:
    if isinstance(x, Tensor):
        return x
    if isinstance(x, np.ndarray):
        return Tensor(x)
    return ad.stack(list(x))


def rc_loss(preds, targets, margins: Margins) -> BatchLoss:
    """``preds``: an [N, ...] tensor, or a list of N per-subject tensors or
    arrays (stacked once); ``targets``: the same, constant."""
    p = _batch(preds)
    t = _batch(targets)
    n = len(p.data)
    if n != len(t.data):
        raise ShapeMismatch(f"rc_loss: {n} predictions vs {len(t.data)} targets")
    if n < 2:
        raise BatchTooSmall(f"contrastive term needs at least 2 subjects, got {n}")
    if p.data.shape != t.data.shape:
        raise ShapeMismatch(f"rc_loss: predictions {p.data.shape} vs targets {t.data.shape}")
    if t.requires_grad:
        raise ValueError("rc_loss: targets must be constants")
    entries = p.data[0].size

    own = ad.square(ad.sub(p, t))
    own_sum = own.sum()
    l_r = ad.mul_scalar(own_sum, 1.0 / (n * entries))

    # Centre on the mean target in two parts: the first-pass mean, then the
    # (tiny) mean of the residuals about it.  Subtracting them one after the
    # other keeps the targets' sum about the centre at zero to full precision
    # even when the maps sit far from zero; their rounded sum would not.
    centre = t.data.mean(axis=0)
    residual = (t.data - centre).mean(axis=0)
    shape = p.data.shape
    dev_p = ad.sub(ad.sub(p, np.broadcast_to(centre, shape)), np.broadcast_to(residual, shape))
    spread_p = ad.square(dev_p).sum()
    spread_t = float(np.square(t.data - centre - residual).sum())
    cross = ad.sub(ad.add_scalar(ad.mul_scalar(spread_p, n), n * spread_t), own_sum)
    l_c = ad.mul_scalar(cross, 1.0 / (n * (n - 1) * entries))

    hinge_r = ad.clamp_min_zero(ad.add_scalar(l_r, -margins.alpha))
    hinge_c = ad.clamp_min_zero(ad.add_scalar(ad.sub(l_r, l_c), margins.beta))
    l_rc = ad.add(hinge_r, hinge_c)

    per_subject = own.data.reshape(n, -1).mean(axis=1)
    return BatchLoss(l_r=l_r, l_c=l_c, l_rc=l_rc, per_subject=[float(d) for d in per_subject])


def init_margins(model: BrainSurfCNN, training_set) -> Margins:
    """Margins seeded from a converged reconstruction-only model: alpha0 is
    the mean same-subject distance, beta0 the mean cross-subject distance,
    both computed from ensemble-averaged predictions with no gradients.

    ``training_set`` yields (connectome_samples, target_contrasts) pairs.
    """
    training_set = list(training_set)
    if not training_set:
        raise EmptySet("init_margins needs at least one training subject")
    preds = [predict_ensemble(model, samples) for samples, _ in training_set]
    targets = [np.asarray(t, dtype=np.float64) for _, t in training_set]

    n = len(preds)
    alpha0 = float(np.mean([np.mean((preds[i] - targets[i]) ** 2) for i in range(n)]))
    if n == 1:
        beta0 = 0.0
    else:
        cross = [
            np.mean((preds[i] - targets[j]) ** 2)
            for i in range(n)
            for j in range(n)
            if i != j
        ]
        beta0 = float(np.mean(cross))
    return Margins(alpha=alpha0, beta=beta0)


def schedule_margins(margins0: Margins, epoch: int) -> Margins:
    """Same-subject margin halved and cross-subject margin doubled every 20
    epochs of the fine-tuning phase."""
    if epoch < 0:
        raise ValueError(f"epoch must be >= 0, got {epoch}")
    factor = 2 ** (epoch // 20)
    return Margins(alpha=margins0.alpha / factor, beta=margins0.beta * factor)
