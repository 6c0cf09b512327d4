"""Independent references that only the tests use: each gives a second,
simpler implementation of what the package computes."""

import numpy as np

from switchdet.exceptions import DomainError
from switchdet.losses import _as_finite, log_softmax


def batched_cc_loss(logits) -> float:
    """Batched conservativeness penalty over a (B, L, S) logit tensor.

    Mean over all (batch, frame) positions with t >= 1 whose argmax differs
    from the previous frame's, of -log softmax at the previous argmax;
    0 when no position changes.
    """
    arr = _as_finite(logits, "logits", ndim=3)
    if arr.shape[1] < 2:
        raise DomainError(f"need sequence length >= 2, got {arr.shape[1]}")
    pred = arr.argmax(axis=2)
    mask = pred[:, 1:] != pred[:, :-1]
    if not mask.any():
        return 0.0
    targets = pred[:, :-1][mask]
    logp = log_softmax(arr[:, 1:][mask])
    return float(-logp[np.arange(targets.size), targets].mean())


def concurrency_profile(instances, length: int) -> np.ndarray:
    """Number of active instances at each frame."""
    conc = np.zeros(length, dtype=np.int64)
    for inst in instances:
        conc[inst.start_frame : inst.end_frame + 1] += 1
    return conc
