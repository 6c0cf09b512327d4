"""Deterministic training loop, end-to-end inference and parameter sweeps.

One optimization step per truncated-backprop window, Adam updates, hidden
state carried across window boundaries without gradient flow.  Everything is
deterministic given (dataset, config, seed).
"""

from __future__ import annotations

import logging
import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass, replace

import numpy as np

from .exceptions import DomainError
from .losses import sequence_loss_and_grad
from .metrics import f1_at_tiou
from .scorer import ScorerParams, backward_sequence, forward_sequence, init_params
from .switchboard import (
    ActionInterval,
    SwitchConfig,
    decode_sequence,
    encode_instances,
)

log = logging.getLogger("switchdet")

# One video is (T x D feature matrix, list of ground-truth instances).
Video = tuple[np.ndarray, list[ActionInterval]]

# Frames per scorer call in infer_instances; bounds the forward cache's memory.
INFER_WINDOW = 1024


@dataclass(frozen=True)
class TrainConfig:
    alpha: float = 0.0
    learning_rate: float = 1e-3
    epochs: int = 3
    bptt_len: int = 128
    seed: int = 0
    num_switches: int = 2
    hidden_dim: int = 32

    def __post_init__(self) -> None:
        if not 0 <= self.alpha < math.inf:
            raise DomainError(f"alpha must be finite and >= 0, got {self.alpha}")
        if not 0 < self.learning_rate < math.inf:
            raise DomainError(
                f"learning_rate must be finite and > 0, got {self.learning_rate}"
            )
        for name, low in (("epochs", 1), ("bptt_len", 2), ("seed", 0), ("hidden_dim", 1)):
            if getattr(self, name) < low:
                raise DomainError(f"{name} must be >= {low}, got {getattr(self, name)}")
        SwitchConfig(self.num_switches)


@dataclass
class EpochStats:
    """Per-epoch aggregate of the window losses."""

    epoch: int
    mean_total: float
    mean_ce: float
    mean_cons: float
    num_cc_positions: int
    num_windows: int

    def to_json(self) -> dict:
        return asdict(self)


class Adam:
    """Bias-corrected Adam over the scorer's parameter vector, in place."""

    def __init__(
        self, params: ScorerParams, lr, beta1=0.9, beta2=0.999, eps=1e-8
    ):
        self.lr = lr
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self.t = 0
        self.m = np.zeros_like(params.flat)
        self.v = np.zeros_like(params.flat)

    def step(self, params: ScorerParams, grads: ScorerParams) -> None:
        self.t += 1
        bc1 = 1.0 - self.beta1**self.t
        bc2 = 1.0 - self.beta2**self.t
        g, m, v = grads.flat, self.m, self.v
        m *= self.beta1
        m += (1.0 - self.beta1) * g
        v *= self.beta2
        v += (1.0 - self.beta2) * g * g
        params.flat -= self.lr * (m / bc1) / (np.sqrt(v / bc2) + self.eps)


def _windows(params: ScorerParams, feats: np.ndarray, width: int):
    """Run the scorer over consecutive ``width``-frame windows of one stream.

    Each window starts from the hidden state the previous one ended in, with
    no gradient across the boundary.  Yields (rows, logits, cache), ``rows``
    the window's slice of the stream.  The cell is looked up as
    ``trainer.forward_sequence`` per window, so replacing it reaches both loops.
    """
    h0 = None
    for start in range(0, len(feats), width):
        rows = slice(start, start + width)
        logits, cache = forward_sequence(params, feats[rows], h0)
        yield rows, logits, cache
        h0 = cache.h[-1]


def train(
    dataset: list[Video], config: TrainConfig
) -> tuple[ScorerParams, list[EpochStats]]:
    """Train the scorer on encoded ground-truth states.

    Ground truth is encoded with the drop-newest policy, so videos whose
    overlap exceeds the switch count still train on what fits.
    """
    if not any(len(feats) for feats, _ in dataset):
        raise DomainError("empty dataset: no frame to train on")
    switch_cfg = SwitchConfig(config.num_switches)
    feature_dim = np.asarray(dataset[0][0]).shape[1]
    encoded = []
    for feats, insts in dataset:
        feats = np.asarray(feats, dtype=np.float64)
        labels, _ = encode_instances(insts, feats.shape[0], switch_cfg)
        encoded.append((feats, labels))

    params = init_params(
        feature_dim, config.hidden_dim, switch_cfg.num_states, config.seed
    )
    opt = Adam(params, config.learning_rate)

    history: list[EpochStats] = []
    for epoch in range(config.epochs):
        totals, ces, conss = [], [], []
        num_cc = 0
        for feats, labels in encoded:
            for rows, logits, cache in _windows(params, feats, config.bptt_len):
                result = sequence_loss_and_grad(logits, labels[rows], config.alpha)
                opt.step(params, backward_sequence(cache, result.grad))
                totals.append(result.total)
                ces.append(result.ce_part)
                conss.append(result.cons_part)
                num_cc += result.num_cc_positions
        history.append(
            EpochStats(
                epoch=epoch,
                mean_total=float(np.mean(totals)),
                mean_ce=float(np.mean(ces)),
                mean_cons=float(np.mean(conss)),
                num_cc_positions=num_cc,
                num_windows=len(totals),
            )
        )
    return params, history


def infer_instances(
    params: ScorerParams, features, config: SwitchConfig
) -> list[ActionInterval]:
    """Inference: per-frame argmax state, decoded into intervals.

    The scorer runs over windows of INFER_WINDOW frames with the hidden
    state carried across them, so the result equals the frame-by-frame
    composition (one-step scorer, argmax, online decoder) that live
    streams use.  No thresholds anywhere.
    """
    if params.num_states != config.num_states:
        raise DomainError(
            f"checkpoint has {params.num_states} states, config expects "
            f"{config.num_states}"
        )
    states = np.empty(len(features), dtype=np.int64)
    for rows, logits, _ in _windows(params, features, INFER_WINDOW):
        states[rows] = logits.argmax(axis=1)
    return decode_sequence(states, config)


@dataclass
class SweepRow:
    num_switches: int
    alpha: float
    f1: float
    precision: float
    recall: float
    num_proposals: int
    num_gt: int
    seed: int
    error: str | None = None

    CSV_HEADER = "num_switches,alpha,f1,precision,recall,num_proposals,num_gt,seed"

    def to_csv(self) -> str:
        return (
            f"{self.num_switches},{self.alpha},{self.f1:.6f},"
            f"{self.precision:.6f},{self.recall:.6f},"
            f"{self.num_proposals},{self.num_gt},{self.seed}"
        )


def run_cell(
    train_set: list[Video],
    eval_set: list[Video],
    config: TrainConfig,
    tiou_threshold: float = 0.5,
) -> SweepRow:
    """Train one configuration and evaluate it on the held-out videos.

    A DomainError from training or evaluation gives a row with NaN metrics
    and the error message instead of being raised.
    """
    try:
        params, _ = train(train_set, config)
        switch_cfg = SwitchConfig(config.num_switches)
        preds = {}
        gts = {}
        for i, (feats, insts) in enumerate(eval_set):
            vid = f"eval{i:04d}"
            preds[vid] = infer_instances(params, feats, switch_cfg)
            gts[vid] = insts
        report = f1_at_tiou(preds, gts, tiou_threshold)
    except DomainError as exc:
        outcome = dict(f1=math.nan, precision=math.nan, recall=math.nan,
                       num_proposals=0, num_gt=0, error=str(exc))
    else:
        outcome = dict(f1=report.f1, precision=report.precision, recall=report.recall,
                       num_proposals=report.num_pred, num_gt=report.num_gt)
    return SweepRow(num_switches=config.num_switches, alpha=config.alpha,
                    seed=config.seed, **outcome)


# The train set, eval set and tIoU threshold of a sweep pool worker.  The
# pool's initializer sets them once in each worker, never in the calling
# process, so that each task is one cell's TrainConfig.
_worker_args: tuple[list[Video], list[Video], float] = ([], [], 0.5)


def _init_worker(*args) -> None:
    global _worker_args
    _worker_args = args


def _run_worker_cell(config: TrainConfig) -> SweepRow:
    train_set, eval_set, tiou_threshold = _worker_args
    return run_cell(train_set, eval_set, config, tiou_threshold)


def sweep_alpha(
    train_set: list[Video],
    eval_set: list[Video],
    alphas: list[float],
    switch_counts: list[int],
    base: TrainConfig,
    seeds: tuple[int, ...] = (0, 1, 2),
    tiou_threshold: float = 0.5,
    jobs: int = 1,
) -> list[SweepRow]:
    """Train one model per (num_switches, alpha, seed) cell.

    Each reported row is the componentwise median across seeds.  Failed
    cells come back with NaN metrics and their error message instead of
    aborting the whole sweep.  Rows are sorted by (num_switches, alpha).
    """
    if not alphas or not switch_counts or not seeds:
        raise DomainError("empty sweep grid")
    configs = []
    for k in sorted(switch_counts):
        for alpha in sorted(alphas):
            for seed in seeds:
                configs.append(replace(base, num_switches=k, alpha=alpha, seed=seed))
    workers = min(jobs, len(configs))
    if workers > 1:
        with ProcessPoolExecutor(
            max_workers=workers,
            initializer=_init_worker,
            initargs=(train_set, eval_set, tiou_threshold),
        ) as pool:
            results = list(pool.map(_run_worker_cell, configs))
    else:
        results = [run_cell(train_set, eval_set, c, tiou_threshold) for c in configs]
    for r in results:
        if r.error is not None:
            log.warning(
                "sweep cell k=%d alpha=%g seed=%d failed: %s",
                r.num_switches, r.alpha, r.seed, r.error,
            )

    rows = []
    n_seeds = len(seeds)
    for i in range(0, len(results), n_seeds):
        cell = results[i : i + n_seeds]
        ok = [r for r in cell if r.error is None]
        if not ok:
            rows.append(cell[0])
            continue
        rows.append(replace(
            ok[0],
            f1=float(np.median([r.f1 for r in ok])),
            precision=float(np.median([r.precision for r in ok])),
            recall=float(np.median([r.recall for r in ok])),
            num_proposals=int(np.median([r.num_proposals for r in ok])),
        ))
    return rows


def rows_to_csv(rows: list[SweepRow]) -> str:
    return "\n".join([SweepRow.CSV_HEADER] + [r.to_csv() for r in rows]) + "\n"
