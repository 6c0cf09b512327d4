"""Deterministic training loop, end-to-end inference and parameter sweeps.

One optimization step per truncated-backprop window, Adam updates, hidden
state carried across window boundaries without gradient flow.  Everything is
deterministic given (dataset, config, seed).
"""

from __future__ import annotations

import logging
import math
from collections import Counter
from dataclasses import asdict, dataclass, replace
from functools import partial

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
    integer_field,
)

log = logging.getLogger("switchdet")

# One video is (T x D feature matrix, list of ground-truth instances).
Video = tuple[np.ndarray, list[ActionInterval]]

# Frames per scorer call in infer_instances.  It fixes the gemm shape of the
# head, which runs once per window, and bounds the forward cache's memory;
# the recurrence walks each window in scorer.BLOCK-row blocks, so the
# loop's own memory is one block.
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
            if integer_field(self, name) < low:
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
    """Bias-corrected Adam over the scorer's parameter array, in place.

    Every operation is elementwise, so a stack's (M, n) array steps each
    model exactly as that model would step alone.
    """

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
    the window's slice of the stream; a stack of models walks the windows
    together.  The cell is looked up as ``trainer.forward_sequence`` per
    window, so replacing it reaches both loops.
    """
    h0 = None
    for start in range(0, len(feats), width):
        rows = slice(start, start + width)
        logits, cache = forward_sequence(params, feats[rows], h0)
        yield rows, logits, cache
        h0 = cache.h[..., -1, :]


def train(
    dataset: list[Video], config: TrainConfig
) -> tuple[ScorerParams, list[EpochStats]]:
    """Train the scorer on encoded ground-truth states.

    Ground truth is encoded with the drop-newest policy, so videos whose
    overlap exceeds the switch count still train on what fits.
    """
    params, (history,) = _train_stack(dataset, [config])
    return params, history


def _train_stack(
    dataset: list[Video], configs: list[TrainConfig]
) -> tuple[ScorerParams, list[list[EpochStats]]]:
    """Train one model per config as one stack, over one walk of the windows.

    The configs may differ only in alpha and seed.  Each model, and its
    history, equals bit for bit what its config trains alone; one config
    trains unstacked.
    """
    config = configs[0]
    if not any(len(feats) for feats, _ in dataset):
        raise DomainError("empty dataset: no frame to train on")
    switch_cfg = SwitchConfig(config.num_switches)
    feature_dim = np.asarray(dataset[0][0]).shape[1]
    encoded = []
    for feats, insts in dataset:
        feats = np.asarray(feats, dtype=np.float64)
        labels, _ = encode_instances(insts, feats.shape[0], switch_cfg)
        encoded.append((feats, labels))

    dims = (feature_dim, config.hidden_dim, switch_cfg.num_states)
    flat = np.stack([init_params(*dims, c.seed).flat for c in configs])
    alpha = np.array([c.alpha for c in configs])
    if len(configs) == 1:
        flat, alpha = flat[0], alpha[0]
    params = ScorerParams(flat, *dims)
    opt = Adam(params, config.learning_rate)

    histories: list[list[EpochStats]] = [[] for _ in configs]
    for epoch in range(config.epochs):
        parts = []
        num_cc = 0
        for feats, labels in encoded:
            for rows, logits, cache in _windows(params, feats, config.bptt_len):
                result = sequence_loss_and_grad(logits, labels[rows], alpha)
                opt.step(params, backward_sequence(cache, result.grad))
                parts.append((result.total, result.ce_part, result.cons_part))
                num_cc += result.num_cc_positions
        # (models, 3, windows), one C-contiguous row per model and part, so
        # each mean sums as the mean of that model's own list would.
        means = np.ascontiguousarray(np.reshape(parts, (len(parts), 3, -1)).T)
        for history, (total, ce, cons), cc in zip(histories, means, np.reshape(num_cc, -1)):
            history.append(
                EpochStats(
                    epoch=epoch,
                    mean_total=float(np.mean(total)),
                    mean_ce=float(np.mean(ce)),
                    mean_cons=float(np.mean(cons)),
                    num_cc_positions=int(cc),
                    num_windows=len(parts),
                )
            )
    return params, histories


def _argmax_states(params: ScorerParams, features) -> np.ndarray:
    """Per-frame argmax state of each model, over INFER_WINDOW windows."""
    states = np.empty(params.flat.shape[:-1] + (len(features),), dtype=np.int64)
    for rows, logits, _ in _windows(params, features, INFER_WINDOW):
        states[..., rows] = logits.argmax(axis=-1)
    return states


def infer_instances(
    params: ScorerParams, features, config: SwitchConfig
) -> list[ActionInterval]:
    """Inference: per-frame argmax state, decoded into intervals.

    The scorer runs over windows of INFER_WINDOW frames with the hidden
    state carried across them, as the frame-by-frame composition (one-step
    scorer, argmax, online decoder) that live streams use does.  Their
    logits agree to within 1e-12, not bit for bit, since a one-row input
    projection runs as a gemv; so the intervals are equal unless an argmax
    is within that rounding of a tie.  No thresholds anywhere.
    """
    if params.num_states != config.num_states:
        raise DomainError(
            f"checkpoint has {params.num_states} states, config expects "
            f"{config.num_states}"
        )
    return decode_sequence(_argmax_states(params, features), config)


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


def _run_stack(
    train_set: list[Video],
    eval_set: list[Video],
    configs: list[TrainConfig],
    tiou_threshold: float,
) -> list[SweepRow]:
    """Train each config (same switch count) and evaluate it on the
    held-out videos, all configs as one stack.

    A DomainError from training or evaluation gives a row with NaN metrics
    and the error message instead of being raised.  A stack raises if any
    one of its models does, so a stack that raises is rerun one config at a
    time: each row is then the row of that config trained alone.
    """
    try:
        params, _ = _train_stack(train_set, configs)
        switch_cfg = SwitchConfig(configs[0].num_switches)
        preds: list[dict] = [{} for _ in configs]
        gts = {}
        for i, (feats, insts) in enumerate(eval_set):
            vid = f"eval{i:04d}"
            states = np.reshape(_argmax_states(params, feats), (len(configs), -1))
            for pred, row in zip(preds, states):
                pred[vid] = decode_sequence(row, switch_cfg)
            gts[vid] = insts
        reports = [f1_at_tiou(pred, gts, tiou_threshold) for pred in preds]
    except DomainError as exc:
        if len(configs) > 1:
            return [row for c in configs
                    for row in _run_stack(train_set, eval_set, [c], tiou_threshold)]
        outcomes = [dict(f1=math.nan, precision=math.nan, recall=math.nan,
                         num_proposals=0, num_gt=0, error=str(exc))]
    else:
        outcomes = [dict(f1=r.f1, precision=r.precision, recall=r.recall,
                         num_proposals=r.num_pred, num_gt=r.num_gt) for r in reports]
    return [SweepRow(num_switches=c.num_switches, alpha=c.alpha, seed=c.seed, **outcome)
            for c, outcome in zip(configs, outcomes)]


def check_sweep_grid(alphas, switch_counts, seeds) -> None:
    """Raise DomainError if a sweep grid axis is empty or repeats a value.

    A repeated value would train duplicate cells, and a repeated switch
    count would take a pool worker of its own.
    """
    if not alphas or not switch_counts or not seeds:
        raise DomainError("empty sweep grid")
    for name, values in (("alphas", alphas), ("switch counts", switch_counts),
                         ("seeds", seeds)):
        repeated = sorted(v for v, n in Counter(values).items() if n > 1)
        if repeated:
            raise DomainError(
                f"repeated {name} in the sweep grid: {', '.join(map(str, repeated))}"
            )


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

    The cells of each switch count train as one stack of models, one pool
    task per stack, on min(jobs, switch counts) workers; with one worker
    they run in this process.  Each row equals, bit for bit, that of the
    cell trained alone.

    Each reported row is the componentwise median across seeds.  Failed
    cells come back with NaN metrics and their error message instead of
    aborting the whole sweep.  Rows are sorted by (num_switches, alpha).
    An empty grid axis or a repeated grid value is a DomainError.
    """
    check_sweep_grid(alphas, switch_counts, seeds)
    stacks = [
        [replace(base, num_switches=k, alpha=alpha, seed=seed)
         for alpha in sorted(alphas) for seed in seeds]
        for k in sorted(switch_counts)
    ]
    run = partial(_run_stack, train_set, eval_set, tiou_threshold=tiou_threshold)
    workers = min(jobs, len(stacks))
    if workers > 1:
        # Imported here: multiprocessing costs a process that never sweeps
        # about 2 MB.
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = [r for rows in pool.map(run, stacks) for r in rows]
    else:
        results = [r for rows in map(run, stacks) for r in rows]
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
