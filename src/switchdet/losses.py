"""Conservativeness-regularized training loss with analytic gradients.

The per-frame classifier is trained with cross entropy against ground-truth
state labels plus an auxiliary penalty applied only where its own argmax
prediction changes between consecutive frames: at such a frame t the previous
prediction acts as a pseudo-label and the penalty is -log softmax(logits_t)
at that pseudo-label.  Pseudo-labels and the change mask are treated as
constants when differentiating.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .exceptions import DomainError


@dataclass
class LossResult:
    """A loss and its gradient; for a stack, each field holds one per model."""

    total: float | np.ndarray
    ce_part: float | np.ndarray
    cons_part: float | np.ndarray
    grad: np.ndarray  # d(total)/d(logits), same shape as the logits
    num_cc_positions: int | np.ndarray


def _as_finite(x, name: str, ndim: int) -> np.ndarray:
    arr = np.asarray(x, dtype=np.float64)
    if arr.ndim != ndim:
        raise DomainError(f"{name} must be {ndim}-d, got shape {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise DomainError(f"non-finite values in {name}")
    return arr


def log_softmax(rows: np.ndarray) -> np.ndarray:
    """Row-wise log softmax with max subtraction; rows along the last axis."""
    shifted = rows - rows.max(axis=-1, keepdims=True)
    return shifted - np.log(np.exp(shifted).sum(axis=-1, keepdims=True))


def sequence_loss_and_grad(logits, gt_states, alpha) -> LossResult:
    """Combined loss over one sequence and its exact gradient w.r.t. logits.

    ce_part averages cross entropy against gt_states over all T frames.
    cons_part averages the conservativeness penalty over the frames t >= 1
    where argmax(logits_t) != argmax(logits_{t-1}) (0 when there are none).
    total = ce_part + alpha * cons_part.

    A stack of M models passes (M, T, S) logits and one alpha per model (or
    one for all); every field of the result then holds one value per model,
    each equal bit for bit to that model's own (T, S) call.
    """
    rows = np.asarray(logits, dtype=np.float64)
    if rows.ndim not in (2, 3):
        raise DomainError(f"logits must be 2-d or 3-d, got shape {rows.shape}")
    stack = _as_finite(rows[None] if rows.ndim == 2 else rows, "logits", ndim=3)
    m, t, s = stack.shape
    if not stack.size:
        raise DomainError("empty logit sequence")
    alphas = np.asarray(alpha, dtype=np.float64)
    if alphas.shape not in ((), (m,)) or (rows.ndim == 2 and alphas.ndim):
        raise DomainError(f"alpha shape {alphas.shape} does not match {m} models")
    if not (alphas.min() >= 0 and math.isfinite(alphas.max())):
        raise DomainError(f"alpha must be finite and >= 0, got {alpha}")
    y = np.asarray(gt_states, dtype=np.int64)
    if y.shape != (t,):
        raise DomainError(f"gt length {y.shape} does not match logits length {t}")
    if y.size and (y.min() < 0 or y.max() >= s):
        raise DomainError("ground-truth state out of range")

    logp = log_softmax(stack)
    probs = np.exp(logp)
    frames = np.arange(t)

    # A C-contiguous (M, T) copy of the picks, so each model's mean sums as
    # a 1-D mean does.
    ce_part = -np.ascontiguousarray(logp[:, frames, y]).mean(axis=1)
    grad = probs.copy()
    grad[:, frames, y] -= 1.0
    grad /= t

    pred = stack.argmax(axis=2)  # ties resolve to the lowest index
    # Each change position's model and frame, model by model.
    models, before = np.nonzero(pred[:, 1:] != pred[:, :-1])
    cc = before + 1
    num_cc = np.bincount(models, minlength=m)
    targets = pred[models, before]
    penalties = -logp[models, cc, targets]
    # Each model's mean over its own positions, as its own call takes it.
    stops = np.cumsum(num_cc).tolist()
    cons_part = np.array([penalties[start:stop].mean() if stop > start else 0.0
                          for start, stop in zip([0] + stops, stops)])
    gcons = np.zeros_like(logp)
    gcons[models, cc] = probs[models, cc]
    gcons[models, cc, targets] -= 1.0
    # gcons is zero off the change positions, so there (and for a model
    # with none) this adds exactly +0.0, as the single-model code adds nothing.
    grad += (alphas / np.maximum(num_cc, 1))[:, None, None] * gcons
    total = ce_part + alphas * cons_part

    if rows.ndim == 2:
        return LossResult(total=float(total[0]), ce_part=float(ce_part[0]),
                          cons_part=float(cons_part[0]), grad=grad[0],
                          num_cc_positions=int(num_cc[0]))
    return LossResult(total=total, ce_part=ce_part, cons_part=cons_part,
                      grad=grad, num_cc_positions=num_cc)
