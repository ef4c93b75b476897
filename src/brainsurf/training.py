"""Two-phase training: reconstruction-only warmup, then margin-scheduled
reconstructive-contrastive fine-tuning.

Epochs are numbered globally: 0..P1-1 for phase 1, P1..P1+P2-1 for phase 2;
the margin schedule receives the epoch counted from the start of phase 2.
Every source of randomness (batch order, per-subject connectome sampling)
comes from one seeded generator per phase, so a run is a pure function of
its config.  A phase reads everything it carries over from its
``TrainState``, so running a state for a epochs and then b more equals one
run of a + b.  Per-epoch side effects (checkpoints, validation, the log)
are one ``on_epoch_end(model, state)`` callback.
"""

from __future__ import annotations

from collections.abc import Callable, Sequence
from dataclasses import astuple, dataclass, field, fields
from pathlib import Path

import numpy as np

from .autodiff import AdamState, adam_step, backward
from .connectome import SEGMENTS_PER_SUBJECT
from .fileio import ConfigError, JsonConfig, write_csv
from .model import BrainSurfCNN
from .rcloss import Margins, init_margins, rc_loss, schedule_margins


class NaNLossError(RuntimeError):
    pass


@dataclass(frozen=True)
class OptimizerConfig(JsonConfig):
    lr: float = 1e-3
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8

    def validate(self) -> None:
        for name in ("lr", "eps"):
            if not 0.0 < getattr(self, name) < np.inf:  # NaN fails too
                raise ConfigError(f"optimizer {name} must be positive and finite, got {getattr(self, name)}")
        for name in ("beta1", "beta2"):
            if not 0.0 <= getattr(self, name) < 1.0:
                raise ConfigError(f"optimizer {name} must be in [0, 1), got {getattr(self, name)}")


@dataclass
class TrainSubject:
    subject_id: str
    samples: Sequence[np.ndarray]  # connectome variants, [2M, V] each, read on each access
    target: np.ndarray  # [K, V]


@dataclass
class EpochStats:
    epoch: int
    l_r: float
    l_c: float | None  # None when no batch of the epoch had 2 subjects
    l_rc: float | None
    alpha: float | None
    beta: float | None
    val_l_r: float | None = None  # set by validation_hook; None without validation subjects


@dataclass
class TrainState:
    """What a run carries from one epoch to the next: the phase's RNG, the
    initial margins (``margins0``, set exactly in phase 2), the epoch phase 2
    started at, the phase's Adam state (None until its first step) and one
    log row per finished epoch; the next epoch and the phase follow from them.
    It is the run's one record: ``write_csv`` writes its rows as the log."""

    rng: np.random.Generator
    margins0: Margins | None = None
    phase_start: int = 0
    adam: AdamState | None = None
    rows: list[EpochStats] = field(default_factory=list)

    @property
    def epoch(self) -> int:
        return len(self.rows)

    @property
    def phase(self) -> int:
        return 1 if self.margins0 is None else 2

    def write_csv(self, path: str | Path) -> None:
        write_csv(path, [f.name for f in fields(EpochStats)], [astuple(r) for r in self.rows])


EpochEnd = Callable[[BrainSurfCNN, TrainState], None]


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
    state: TrainState,
    epochs: int,
    batch_size: int,
    opt: OptimizerConfig,
    ensemble_sampling: bool = True,
    on_epoch_end: EpochEnd | None = None,
) -> TrainState:
    """Run ``epochs`` more epochs of ``state``'s phase, moving ``state`` on;
    returns it.

    ``ensemble_sampling`` draws one of the subject's 8 connectome variants
    per batch; when off, segment 0 is always used (the single-sample
    ablation).  Phase 2 schedules the margins from the within-phase epoch.
    ``on_epoch_end`` runs after each epoch whose losses are finite.
    """
    arena = model.arena

    for _ in range(epochs):
        margins = None if state.margins0 is None else schedule_margins(state.margins0, state.epoch - state.phase_start)
        order = state.rng.permutation(len(subjects))
        sums = {"l_r": 0.0, "l_c": 0.0, "l_rc": 0.0}
        n_batches = n_pair_batches = 0
        for batch in _make_batches(order, batch_size):
            if ensemble_sampling:
                segment = state.rng.integers(0, SEGMENTS_PER_SUBJECT, size=batch.size)
            else:
                segment = np.zeros(batch.size, dtype=int)
            preds = model.forward(
                np.stack([subjects[i].samples[int(k)] for i, k in zip(batch, segment)])
            )
            targets = np.stack([subjects[i].target for i in batch])

            # Phase 1 backpropagates L_R alone; rc_loss raises ValueError
            # for singleton phase-2 batches and leaves L_C None for phase-1 ones.
            batch_loss = rc_loss(preds, targets, margins)
            loss = batch_loss.l_r if margins is None else batch_loss.l_rc
            for key in sums:  # by name: a loop variable would keep a node, so the graph, alive
                if getattr(batch_loss, key) is not None:
                    sums[key] += getattr(batch_loss, key).item()
            n_pair_batches += batch_loss.l_c is not None
            # The losses are summed: only the root may keep the graph, so
            # backward frees each activation as soon as it has passed it on.
            preds = batch_loss = None

            model.zero_grad()
            backward(loss)
            state.adam = adam_step(arena.data, arena.grad, state.adam, opt.lr, opt.beta1, opt.beta2, opt.eps)
            n_batches += 1

        stats = EpochStats(
            epoch=state.epoch,
            l_r=sums["l_r"] / n_batches,
            l_c=sums["l_c"] / n_pair_batches if n_pair_batches else None,
            l_rc=sums["l_rc"] / n_batches if margins is not None else None,
            alpha=margins.alpha if margins is not None else None,
            beta=margins.beta if margins is not None else None,
        )
        if not all(np.isfinite(x) for x in (stats.l_r, stats.l_c, stats.l_rc) if x is not None):
            raise NaNLossError(f"non-finite loss at epoch {state.epoch}")
        state.rows.append(stats)
        if on_epoch_end is not None:
            on_epoch_end(model, state)
    return state


def margin_init_set(subjects: list[TrainSubject]) -> list[tuple[Sequence[np.ndarray], np.ndarray]]:
    return [(s.samples, s.target) for s in subjects]


def check_phase2_subjects(phase2_epochs: int, n_subjects: int) -> None:
    """ConfigError when phase 2 is enabled with fewer than the 2 subjects
    its contrastive term needs."""
    if phase2_epochs > 0 and n_subjects < 2:
        raise ConfigError(f"phase 2 needs at least 2 training subjects for its contrastive term, got {n_subjects}")


def train_two_phase(
    model: BrainSurfCNN,
    subjects: list[TrainSubject],
    phase1_epochs: int,
    phase2_epochs: int,
    batch_size: int,
    seed: int,
    opt: OptimizerConfig = OptimizerConfig(),
    phase2_opt: OptimizerConfig | None = None,
    on_epoch_end: EpochEnd | None = None,
) -> TrainState:
    """Full protocol: reconstruction-only warmup, margin initialization from
    the converged model, then margin-scheduled fine-tuning (optionally with
    its own optimizer settings).  Returns the final state, which carries the
    initial margins when phase 2 ran.

    Raises ``check_phase2_subjects``'s ConfigError before any training.
    """
    check_phase2_subjects(phase2_epochs, len(subjects))
    state = TrainState(np.random.default_rng([seed, 1]))
    # A step that overflows ends in a non-finite loss, which train_phase
    # raises as NaNLossError: numpy's warnings would only precede it.
    with np.errstate(over="ignore", invalid="ignore"):
        train_phase(model, subjects, state, phase1_epochs, batch_size, opt, on_epoch_end=on_epoch_end)
        if phase2_epochs > 0:
            state.adam = None  # phase 2 starts from zero moments; phase 1's go now, in place
            state.rng, state.phase_start = np.random.default_rng([seed, 2]), state.epoch
            state.margins0 = init_margins(model, margin_init_set(subjects))
            train_phase(
                model, subjects, state, phase2_epochs, batch_size,
                phase2_opt if phase2_opt is not None else opt, on_epoch_end=on_epoch_end,
            )
    return state


def validation_hook(val_subjects: list[TrainSubject]) -> EpochEnd:
    """Early-warning monitoring on held-out training subjects; no early
    stopping.  The ``on_epoch_end`` callback this returns sets the finished
    epoch's ``val_l_r``: the L_R of the subjects' first samples."""

    def hook(model: BrainSurfCNN, state: TrainState) -> None:
        preds = model.predict(np.stack([s.samples[0] for s in val_subjects]))
        targets = np.stack([s.target for s in val_subjects])
        state.rows[-1].val_l_r = rc_loss(preds, targets, None).l_r.item()

    return hook
