"""Reconstructive-contrastive loss, margin initialization, margin schedule.

For a batch of N subjects with predictions x_hat and targets x:

    L_R  = mean_i d(x_hat_i, x_i)
    L_C  = mean over ordered pairs (i, j), j != i of d(x_hat_i, x_j)
    L_RC = [L_R - alpha]_+ + [L_R - L_C + beta]_+

d is the mean squared difference over all channel-vertex entries, which
keeps the margins comparable across mesh resolutions.  ``rc_loss`` is the
one definition of all three: training backpropagates its L_R node in the
reconstruction-only warmup and its L_RC node in fine-tuning, and validation
logs its L_R.  L_C averages over all N*(N-1) ordered pairs; d is asymmetric
in its arguments, so ordered pairs give a true average.  It is computed in
closed form from batch sums, centred on the mean target t_bar:

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
from .autodiff import Tensor
from .model import BrainSurfCNN, predict_ensemble


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
    l_c: Tensor | None  # None for one subject
    l_rc: Tensor | None  # None without margins


def _stacked(x) -> tuple[tuple[Tensor, ...], np.ndarray]:
    # The tensors of one [N, ...] batch or of a list of N maps, and their
    # values as one [N, ...] array.
    if isinstance(x, (Tensor, np.ndarray)):
        x = x if isinstance(x, Tensor) else Tensor(x)
        return (x,), x.data
    parts = tuple(q if isinstance(q, Tensor) else Tensor(q) for q in x)
    if len({q.data.shape for q in parts}) > 1:
        raise ValueError(f"rc_loss: per-subject shapes {[q.data.shape for q in parts]} differ")
    return parts, np.stack([q.data for q in parts]) if parts else np.empty(0)


def rc_loss(preds, targets, margins: Margins | None) -> BatchLoss:
    """``preds``: an [N, ...] tensor, or a list of N per-subject tensors or
    arrays; ``targets``: the same, constant.  ``margins`` None asks for the
    reconstruction term alone: no hinge node is built and ``l_rc`` is None.

    ``l_r`` and ``l_rc`` are graph nodes whose parents are the prediction
    tensors (the list's slices of a gradient go to the list's tensors);
    ``l_c`` is constant, and None for one subject, which defines no pair.
    With E entries per map and t_bar the mean target, the gradients are

        dL_R/dp_i = 2 (p_i - t_i) / (N E)
        dL_C/dp_i = 2 [N (p_i - t_bar) - (p_i - t_i)] / (N (N-1) E)
        dL_RC     = [h_r] dL_R + [h_c] (dL_R - dL_C)

    where h_r and h_c are the two hinges' pre-activations being positive."""
    listed = not isinstance(preds, (Tensor, np.ndarray))
    parents, p = _stacked(preds)
    constants, t = _stacked(targets)
    n = len(p)
    if n != len(t):
        raise ValueError(f"rc_loss: {n} predictions vs {len(t)} targets")
    needed = 1 if margins is None else 2  # the contrastive term needs a pair
    if n < needed:
        raise ValueError(f"rc_loss needs at least {needed} subjects, got {n}")
    if p.shape != t.shape:
        raise ValueError(f"rc_loss: predictions {p.shape} vs targets {t.shape}")
    if any(c.requires_grad for c in constants):
        raise ValueError("rc_loss: targets must be constants")
    entries = p[0].size

    own = p - t
    own_sum = (own * own).sum()
    scale_r = 1.0 / (n * entries)
    r = own_sum * scale_r

    def grads_r(g: np.ndarray) -> tuple[np.ndarray, ...]:
        grad = 2.0 * own * (g / own.size)
        return tuple(grad) if listed else (grad,)

    l_r = ad._op(r, parents, grads_r)
    if n < 2:
        return BatchLoss(l_r=l_r, l_c=None, l_rc=None)

    # Centre on the mean target in two parts: the first-pass mean, then the
    # (tiny) mean of the residuals about it.  Subtracting them one after the
    # other keeps the targets' sum about the centre at zero to full precision
    # even when the maps sit far from zero; their rounded sum would not.
    centre = t.mean(axis=0)
    residual = (t - centre).mean(axis=0)
    dev = p - centre - residual
    spread_p = (dev * dev).sum()
    spread_t = float(np.square(t - centre - residual).sum())
    scale_c = 1.0 / (n * (n - 1) * entries)
    c = ((spread_p * n + n * spread_t) - own_sum) * scale_c
    if margins is None:
        return BatchLoss(l_r=l_r, l_c=Tensor(c), l_rc=None)

    pre_r = np.asarray(r - margins.alpha)
    pre_c = np.asarray((r - c) + margins.beta)
    ad._record_hinge(pre_r)
    ad._record_hinge(pre_c)
    on_r, on_c = float(pre_r > 0.0), float(pre_c > 0.0)

    def grads(g: np.ndarray) -> tuple[np.ndarray, ...]:
        grad = own * (2.0 * g * ((on_r + on_c) * scale_r + on_c * scale_c))
        if on_c:
            grad -= dev * (2.0 * g * n * scale_c)
        return tuple(grad) if listed else (grad,)

    l_rc = np.maximum(pre_r, 0.0) + np.maximum(pre_c, 0.0)
    return BatchLoss(l_r=l_r, l_c=Tensor(c), l_rc=ad._op(l_rc, parents, grads))


def init_margins(model: BrainSurfCNN, training_set) -> Margins:
    """Margins seeded from a converged reconstruction-only model: alpha0 is
    the mean same-subject distance L_R, beta0 the mean cross-subject
    distance L_C, both of ``rc_loss`` over the ensemble-averaged predictions
    of the whole set (no gradients).

    ``training_set`` yields (connectome_samples, target_contrasts) pairs;
    fewer than 2 of them raise ``ValueError``.
    """
    training_set = list(training_set)
    if not training_set:
        raise ValueError("init_margins needs at least one training subject")
    preds = np.stack([predict_ensemble(model, samples) for samples, _ in training_set])
    targets = np.stack([np.asarray(t, dtype=np.float64) for _, t in training_set])
    distances = rc_loss(preds, targets, Margins(0.0, 0.0))
    return Margins(alpha=distances.l_r.item(), beta=distances.l_c.item())


def schedule_margins(margins0: Margins, epoch: int) -> Margins:
    """Same-subject margin halved and cross-subject margin doubled every 20
    epochs of the fine-tuning phase."""
    if epoch < 0:
        raise ValueError(f"epoch must be >= 0, got {epoch}")
    factor = 2 ** (epoch // 20)
    return Margins(alpha=margins0.alpha / factor, beta=margins0.beta * factor)
