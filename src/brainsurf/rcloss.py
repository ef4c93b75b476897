"""Reconstructive-contrastive loss, margin initialization, margin schedule.

For a batch of N subjects with predictions x_hat and targets x:

    L_R  = mean_i d(x_hat_i, x_i)
    L_C  = mean over ordered pairs (i, j), j != i of d(x_hat_i, x_j)
    L_RC = [L_R - alpha]_+ + [L_R - L_C + beta]_+

d is the mean squared difference over all channel-vertex entries, which
keeps the margins comparable across mesh resolutions.  L_C averages over
all N*(N-1) ordered pairs; d is asymmetric in its arguments, so ordered
pairs give a true average.
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


def rc_loss(preds, targets, margins: Margins) -> BatchLoss:
    preds = list(preds)
    targets = list(targets)
    n = len(preds)
    if n != len(targets):
        raise ShapeMismatch(f"rc_loss: {n} predictions vs {len(targets)} targets")
    if n < 2:
        raise BatchTooSmall(f"contrastive term needs at least 2 subjects, got {n}")

    own = [distance(preds[i], targets[i]) for i in range(n)]
    l_r = own[0]
    for d in own[1:]:
        l_r = ad.add(l_r, d)
    l_r = ad.mul_scalar(l_r, 1.0 / n)

    l_c = None
    for i in range(n):
        for j in range(n):
            if i == j:
                continue
            d = distance(preds[i], targets[j])
            l_c = d if l_c is None else ad.add(l_c, d)
    l_c = ad.mul_scalar(l_c, 1.0 / (n * (n - 1)))

    hinge_r = ad.clamp_min_zero(ad.add_scalar(l_r, -margins.alpha))
    hinge_c = ad.clamp_min_zero(ad.add_scalar(ad.sub(l_r, l_c), margins.beta))
    l_rc = ad.add(hinge_r, hinge_c)

    return BatchLoss(l_r=l_r, l_c=l_c, l_rc=l_rc, per_subject=[d.item() for d in own])


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
