"""Minimal trainable per-frame state classifier.

One light gated recurrent cell (update gate only, no reset gate) followed by
a linear head over states, with exact manual backpropagation through time.
Small enough to train on a desk CPU; the hidden state is a convex mix of its
previous value and a tanh candidate, so it stays in [-1, 1] elementwise.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .exceptions import DomainError

CHECKPOINT_MAGIC = b"ASWP"
CHECKPOINT_VERSION = 1

# Field order also fixes the checkpoint layout.
_PARAM_FIELDS = ("w_z", "u_z", "b_z", "w_h", "u_h", "b_h", "w_o", "b_o")


def _param_shapes(d: int, h: int, s: int) -> list[tuple[int, ...]]:
    """Shapes of the _PARAM_FIELDS arrays for D features, H hidden units, S states."""
    return [(h, d), (h, h), (h,), (h, d), (h, h), (h,), (s, h), (s,)]


def _param_count(d: int, h: int, s: int) -> int:
    return sum(math.prod(shape) for shape in _param_shapes(d, h, s))


class ScorerParams:
    """The scorer's parameters as one C-contiguous float64 vector ``flat``.

    ``flat`` is laid out as the checkpoint body: the _PARAM_FIELDS arrays in
    order, each row-major.  The named arrays are reshaped views into it, so
    an in-place edit of either is an edit of both.
    """

    w_z: np.ndarray  # (H, D) update-gate input weights
    u_z: np.ndarray  # (H, H) update-gate recurrent weights
    b_z: np.ndarray  # (H,)
    w_h: np.ndarray  # (H, D) candidate input weights
    u_h: np.ndarray  # (H, H) candidate recurrent weights
    b_h: np.ndarray  # (H,)
    w_o: np.ndarray  # (S, H) output head
    b_o: np.ndarray  # (S,)

    def __init__(self, flat, d: int, h: int, s: int) -> None:
        self.flat = np.ascontiguousarray(flat, dtype=np.float64)
        n = _param_count(d, h, s)
        if self.flat.shape != (n,):
            raise DomainError(f"flat has shape {self.flat.shape}, expected ({n},)")
        self.feature_dim, self.hidden_dim, self.num_states = d, h, s
        start = 0
        for name, shape in zip(_PARAM_FIELDS, _param_shapes(d, h, s)):
            stop = start + math.prod(shape)
            setattr(self, name, self.flat[start:stop].reshape(shape))
            start = stop
        if not np.isfinite(self.flat).all():
            bad = next(name for name in _PARAM_FIELDS
                       if not np.isfinite(getattr(self, name)).all())
            raise DomainError(f"non-finite values in {bad}")

    def arrays(self) -> list[np.ndarray]:
        return [getattr(self, name) for name in _PARAM_FIELDS]

    def zeros_like(self) -> "ScorerParams":
        return ScorerParams(
            np.zeros_like(self.flat), self.feature_dim, self.hidden_dim, self.num_states
        )


@dataclass
class ForwardCache:
    """Intermediates retained by forward_sequence for the backward pass."""

    params: ScorerParams
    xs: np.ndarray       # (T, D)
    h_prev: np.ndarray   # (T, H) hidden state entering each step
    z: np.ndarray        # (T, H) update gate
    h_cand: np.ndarray   # (T, H) tanh candidate
    h: np.ndarray        # (T, H) hidden state after each step


def init_params(
    feature_dim: int, hidden_dim: int, num_states: int, seed: int
) -> ScorerParams:
    """Glorot-uniform weights, zero biases; deterministic per seed."""
    if feature_dim < 1 or hidden_dim < 1 or num_states < 1:
        raise DomainError("feature_dim, hidden_dim and num_states must be >= 1")
    rng = np.random.default_rng(seed)
    d, h, s = feature_dim, hidden_dim, num_states
    params = ScorerParams(np.zeros(_param_count(d, h, s)), d, h, s)
    for w in (params.w_z, params.u_z, params.w_h, params.u_h, params.w_o):
        a = np.sqrt(6.0 / sum(w.shape))
        w[:] = rng.uniform(-a, a, size=w.shape)
    return params


def _read_only(value: float) -> np.ndarray:
    arr = np.array(value)
    arr.flags.writeable = False
    return arr


# Operands of the per-step ufuncs: a 0-d array is cheaper to pass than a
# Python float, which numpy converts on every call.
_ZERO, _ONE, _MINUS_ONE = _read_only(0.0), _read_only(1.0), _read_only(-1.0)


def forward_step(
    params: ScorerParams, x, h_prev
) -> tuple[np.ndarray, np.ndarray]:
    """One streaming step: returns (logits row, new hidden state)."""
    x = np.asarray(x, dtype=np.float64)
    if x.shape != (params.feature_dim,):
        raise DomainError(f"feature shape {x.shape} != ({params.feature_dim},)")
    logits, cache = forward_sequence(params, x[None], h_prev)
    return logits[0], cache.h[0]


def forward_sequence(
    params: ScorerParams, xs, h0=None
) -> tuple[np.ndarray, ForwardCache]:
    """Run the cell over a whole sequence; h0 defaults to zeros.

    The only implementation of the cell: forward_step is its one-row call,
    and passing the last hidden state as the next h0 continues a stream.
    Each step writes in place into buffers allocated once per call.
    """
    xs = np.asarray(xs, dtype=np.float64)
    if xs.ndim != 2 or xs.shape[1] != params.feature_dim:
        raise DomainError(
            f"features must be (T, {params.feature_dim}), got {xs.shape}"
        )
    t = xs.shape[0]
    if t == 0:
        raise DomainError("empty input sequence")
    if not np.all(np.isfinite(xs)):
        raise DomainError("non-finite values in features")
    hd = params.hidden_dim
    h0 = np.zeros(hd) if h0 is None else np.asarray(h0, dtype=np.float64)
    if h0.shape != (hd,):
        raise DomainError(f"h0 shape {h0.shape} != ({hd},)")

    # Input projections for every step at once; the loop only does the
    # recurrent matvecs and elementwise gates.
    az_x = xs @ params.w_z.T
    az_x += params.b_z
    ah_x = xs @ params.w_h.T
    ah_x += params.b_h
    h_prev = np.empty((t, hd))
    z_all = np.empty((t, hd))
    cand_all = np.empty((t, hd))
    h_all = np.empty((t, hd))
    # Numerator and denominator exps of the sigmoid, one exp call for both.
    exps = np.empty((2, hd))
    num, neg_abs = exps
    den, keep = np.empty((2, hd))
    u_z, u_h = params.u_z, params.u_h
    h = h0
    for z, cand, h_next, a_z, a_h in zip(z_all, cand_all, h_all, az_x, ah_x):
        np.dot(u_z, h, out=z)
        np.add(a_z, z, out=z)
        # z = sigmoid(z) as exp(min(z, 0)) / (1 + exp(-|z|)): that is
        # 1 / (1 + exp(-z)) where z >= 0 and exp(z) / (1 + exp(z))
        # elsewhere, with no mask and no exp that can overflow.
        np.minimum(z, _ZERO, out=num)
        np.copysign(z, _MINUS_ONE, out=neg_abs)
        np.exp(exps, out=exps)
        np.add(neg_abs, _ONE, out=den)
        np.divide(num, den, out=z)
        np.dot(u_h, h, out=cand)
        np.add(a_h, cand, out=cand)
        np.tanh(cand, out=cand)
        # h_next = (1 - z) * h + z * cand
        np.subtract(_ONE, z, out=keep)
        np.multiply(keep, h, out=keep)
        np.multiply(z, cand, out=h_next)
        np.add(keep, h_next, out=h_next)
        h = h_next
    h_prev[0] = h0
    h_prev[1:] = h_all[:-1]
    logits = h_all @ params.w_o.T
    logits += params.b_o
    cache = ForwardCache(
        params=params, xs=xs, h_prev=h_prev, z=z_all, h_cand=cand_all, h=h_all
    )
    return logits, cache


def backward_sequence(cache: ForwardCache, dlogits) -> ScorerParams:
    """Exact BPTT: parameter gradients for a cotangent on the logits.

    The factors that do not depend on the carried gradient are computed for
    the whole window first; each step writes in place into buffers
    allocated once per call, keeping the operand order of every product.
    """
    p = cache.params
    dlogits = np.asarray(dlogits, dtype=np.float64)
    t = cache.xs.shape[0]
    if dlogits.shape != (t, p.num_states):
        raise DomainError(
            f"dlogits shape {dlogits.shape} != ({t}, {p.num_states})"
        )
    dh_out = dlogits @ p.w_o  # (T, H)

    z_all = cache.z
    diff = cache.h_cand - cache.h_prev
    one_minus_z = _ONE - z_all
    dtanh = cache.h_cand * cache.h_cand
    np.subtract(_ONE, dtanh, out=dtanh)
    daz = np.empty_like(z_all)
    dah = np.empty_like(z_all)
    dh, carry, back = np.zeros((3, p.hidden_dim))
    u_z_t, u_h_t = p.u_z.T, p.u_h.T
    rows = (daz, dah, z_all, one_minus_z, diff, dtanh, dh_out)
    for da_z, da_h, z, omz, dif, dtan, dh_o in zip(*(r[::-1] for r in rows)):
        np.add(dh_o, carry, out=dh)
        # da_z = dh * (cand - h_prev) * z * (1 - z)
        np.multiply(dh, dif, out=da_z)
        np.multiply(da_z, z, out=da_z)
        np.multiply(da_z, omz, out=da_z)
        # da_h = dh * z * (1 - cand^2)
        np.multiply(dh, z, out=da_h)
        np.multiply(da_h, dtan, out=da_h)
        # carry = dh * (1 - z) + u_z^T da_z + u_h^T da_h; one matvec over
        # the stacked [u_z; u_h] would round differently.
        np.multiply(dh, omz, out=carry)
        np.dot(u_z_t, da_z, out=back)
        np.add(carry, back, out=carry)
        np.dot(u_h_t, da_h, out=back)
        np.add(carry, back, out=carry)

    grads = p.zeros_like()
    np.matmul(daz.T, cache.xs, out=grads.w_z)
    np.matmul(daz.T, cache.h_prev, out=grads.u_z)
    daz.sum(axis=0, out=grads.b_z)
    np.matmul(dah.T, cache.xs, out=grads.w_h)
    np.matmul(dah.T, cache.h_prev, out=grads.u_h)
    dah.sum(axis=0, out=grads.b_h)
    np.matmul(dlogits.T, cache.h, out=grads.w_o)
    dlogits.sum(axis=0, out=grads.b_o)
    return grads


def save_checkpoint(path, params: ScorerParams) -> None:
    """Binary checkpoint: magic, version, dims, then ``params.flat`` as f64 LE."""
    header = CHECKPOINT_MAGIC + struct.pack(
        "<IIII",
        CHECKPOINT_VERSION,
        params.feature_dim,
        params.hidden_dim,
        params.num_states,
    )
    with open(path, "wb") as fh:
        fh.write(header)
        fh.write(params.flat.astype("<f8").tobytes())


def load_checkpoint(path) -> ScorerParams:
    data = Path(path).read_bytes()
    if len(data) < 20 or data[:4] != CHECKPOINT_MAGIC:
        raise DomainError(f"{path}: not a scorer checkpoint")
    version, d, h, s = struct.unpack("<IIII", data[4:20])
    if version != CHECKPOINT_VERSION:
        raise DomainError(f"{path}: unsupported checkpoint version {version}")
    n = _param_count(d, h, s)
    if len(data) != 20 + 8 * n:
        problem = "truncated" if len(data) < 20 + 8 * n else "trailing bytes in"
        raise DomainError(f"{path}: {problem} checkpoint")
    flat = np.frombuffer(data, dtype="<f8", count=n, offset=20).astype(np.float64)
    return ScorerParams(flat, d, h, s)
