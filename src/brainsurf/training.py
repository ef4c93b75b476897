"""Two-phase training: reconstruction-only warmup, then margin-scheduled
reconstructive-contrastive fine-tuning.

Epochs are numbered globally: 0..P1-1 for phase 1, P1..P1+P2-1 for phase 2;
the margin schedule receives the epoch counted from the start of phase 2.
Every source of randomness (batch order, per-subject connectome sampling)
comes from one seeded generator, so a run is a pure function of its config.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .autodiff import adam_step, backward
from .connectome import SEGMENTS_PER_SUBJECT
from .fileio import JsonConfig, save_checkpoint
from .model import BrainSurfCNN
from .rcloss import BatchLoss, Margins, distance, init_margins, rc_loss, schedule_margins

LOG_COLUMNS = ["epoch", "l_r", "l_c", "l_rc", "alpha", "beta"]


class NaNLossError(RuntimeError):
    pass


@dataclass(frozen=True)
class OptimizerConfig(JsonConfig):
    lr: float = 1e-3
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8


@dataclass
class TrainSubject:
    subject_id: str
    samples: list[np.ndarray]  # connectome variants, [2M, V] each
    target: np.ndarray  # [K, V]


@dataclass
class EpochStats:
    epoch: int
    l_r: float
    l_c: float
    l_rc: float | None
    alpha: float | None
    beta: float | None


@dataclass
class TrainLog:
    rows: list[EpochStats] = field(default_factory=list)

    def write_csv(self, path: str | Path) -> None:
        with open(path, "w", newline="") as f:
            writer = csv.writer(f)
            writer.writerow(LOG_COLUMNS)
            for r in self.rows:
                writer.writerow(
                    [
                        r.epoch,
                        f"{r.l_r:.10g}",
                        f"{r.l_c:.10g}",
                        "" if r.l_rc is None else f"{r.l_rc:.10g}",
                        "" if r.alpha is None else f"{r.alpha:.10g}",
                        "" if r.beta is None else f"{r.beta:.10g}",
                    ]
                )


def _make_batches(order: np.ndarray, batch_size: int) -> list[np.ndarray]:
    batches = [order[i : i + batch_size] for i in range(0, order.size, batch_size)]
    if len(batches) >= 2 and batches[-1].size == 1:
        # A singleton tail cannot feed the contrastive term; fold it in.
        batches[-2] = np.concatenate([batches[-2], batches[-1]])
        batches.pop()
    return batches


def train_phase(
    model: BrainSurfCNN,
    subjects: list[TrainSubject],
    epochs: int,
    batch_size: int,
    rng: np.random.Generator,
    opt: OptimizerConfig,
    use_rc_loss: bool,
    margins0: Margins | None = None,
    start_epoch: int = 0,
    ensemble_sampling: bool = True,
    log: TrainLog | None = None,
    checkpoint_path: str | Path | None = None,
    val_hook=None,
) -> TrainLog:
    """Run one training phase; returns (and extends) the epoch log.

    ``ensemble_sampling`` draws one of the subject's 8 connectome variants
    per batch; when off, segment 0 is always used (the single-sample
    ablation).  ``use_rc_loss`` selects the phase-2 objective; it requires
    ``margins0`` and schedules the margins from the within-phase epoch.
    """
    if use_rc_loss and margins0 is None:
        raise ValueError("phase 2 needs initial margins")
    log = log if log is not None else TrainLog()
    params = model.parameters()
    state: dict = {}

    for e in range(epochs):
        epoch = start_epoch + e
        margins = schedule_margins(margins0, e) if use_rc_loss else None
        order = rng.permutation(len(subjects))
        sums = {"l_r": 0.0, "l_c": 0.0, "l_rc": 0.0}
        n_batches = 0
        for batch in _make_batches(order, batch_size):
            if ensemble_sampling:
                segment = rng.integers(0, SEGMENTS_PER_SUBJECT, size=batch.size)
            else:
                segment = np.zeros(batch.size, dtype=int)
            preds = model.forward(
                np.stack([subjects[i].samples[int(k)] for i, k in zip(batch, segment)])
            )
            targets = np.stack([subjects[i].target for i in batch])

            if use_rc_loss or batch.size >= 2:
                # rc_loss raises BatchTooSmall for singleton phase-2 batches.
                batch_loss: BatchLoss = rc_loss(
                    preds, targets, margins if margins is not None else Margins(0.0, 0.0)
                )
                loss = batch_loss.l_rc if use_rc_loss else batch_loss.l_r
                sums["l_r"] += batch_loss.l_r.item()
                sums["l_c"] += batch_loss.l_c.item()
                sums["l_rc"] += batch_loss.l_rc.item()
            else:
                loss = distance(preds, targets)
                sums["l_r"] += loss.item()

            model.zero_grad()
            backward(loss)
            grads = [
                p.tensor.grad if p.tensor.grad is not None else np.zeros_like(p.tensor.data)
                for p in params
            ]
            state = adam_step(params, grads, state, opt.lr, opt.beta1, opt.beta2, opt.eps)
            n_batches += 1

        stats = EpochStats(
            epoch=epoch,
            l_r=sums["l_r"] / n_batches,
            l_c=sums["l_c"] / n_batches,
            l_rc=sums["l_rc"] / n_batches if use_rc_loss else None,
            alpha=margins.alpha if margins is not None else None,
            beta=margins.beta if margins is not None else None,
        )
        if not all(
            np.isfinite(x)
            for x in (stats.l_r, stats.l_c, stats.l_rc if stats.l_rc is not None else 0.0)
        ):
            raise NaNLossError(f"non-finite loss at epoch {epoch}")
        log.rows.append(stats)

        if checkpoint_path is not None:
            save_checkpoint(
                checkpoint_path, model.param_arrays(), meta={"model": model.config.to_dict()}
            )
        if val_hook is not None:
            val_hook(epoch, model)
    return log


def margin_init_set(subjects: list[TrainSubject]) -> list[tuple[list[np.ndarray], np.ndarray]]:
    return [(s.samples, s.target) for s in subjects]


def train_two_phase(
    model: BrainSurfCNN,
    subjects: list[TrainSubject],
    phase1_epochs: int,
    phase2_epochs: int,
    batch_size: int,
    seed: int,
    opt: OptimizerConfig = OptimizerConfig(),
    phase2_opt: OptimizerConfig | None = None,
    ensemble_sampling: bool = True,
    checkpoint_path: str | Path | None = None,
    phase1_checkpoint_path: str | Path | None = None,
    val_hook=None,
) -> tuple[TrainLog, Margins | None]:
    """Full protocol: reconstruction-only warmup, margin initialization from
    the converged model, then margin-scheduled fine-tuning (optionally with
    its own optimizer settings)."""
    log = TrainLog()
    rng1 = np.random.default_rng([seed, 1])
    train_phase(
        model,
        subjects,
        epochs=phase1_epochs,
        batch_size=batch_size,
        rng=rng1,
        opt=opt,
        use_rc_loss=False,
        start_epoch=0,
        ensemble_sampling=ensemble_sampling,
        log=log,
        checkpoint_path=phase1_checkpoint_path or checkpoint_path,
        val_hook=val_hook,
    )
    margins0: Margins | None = None
    if phase2_epochs > 0:
        margins0 = init_margins(model, margin_init_set(subjects))
        rng2 = np.random.default_rng([seed, 2])
        train_phase(
            model,
            subjects,
            epochs=phase2_epochs,
            batch_size=batch_size,
            rng=rng2,
            opt=phase2_opt if phase2_opt is not None else opt,
            use_rc_loss=True,
            margins0=margins0,
            start_epoch=phase1_epochs,
            ensemble_sampling=ensemble_sampling,
            log=log,
            checkpoint_path=checkpoint_path,
            val_hook=val_hook,
        )
    return log, margins0


def validation_hook(val_subjects: list[TrainSubject], out_path: str | Path):
    """Early-warning monitoring on held-out training subjects; no early
    stopping, just a CSV of per-epoch reconstruction loss."""
    rows: list[tuple[int, float]] = []
    path = Path(out_path)

    def hook(epoch: int, model: BrainSurfCNN) -> None:
        preds = model.predict(np.stack([s.samples[0] for s in val_subjects]))
        targets = np.stack([s.target for s in val_subjects])
        losses = np.mean((preds - targets) ** 2, axis=(1, 2))
        rows.append((epoch, float(np.mean(losses))))
        with open(path, "w", newline="") as f:
            writer = csv.writer(f)
            writer.writerow(["epoch", "val_l_r"])
            for ep, v in rows:
                writer.writerow([ep, f"{v:.10g}"])

    return hook
