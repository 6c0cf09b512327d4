"""Minimal trainable per-frame state classifier.

One light gated recurrent cell (update gate only, no reset gate) followed by
a linear head over states, with exact manual backpropagation through time.
Small enough to train on a desk CPU; the hidden state is a convex mix of its
previous value and a tanh candidate, so it stays in [-1, 1] elementwise.
A stack of M models, with a leading model axis on every array, runs its M
recurrences over the same frames with one batched product per step.
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
    """The parameters of one scorer, or of a stack of M scorers, as one array.

    ``flat`` is a C-contiguous float64 array, ``(n,)`` for one model and
    ``(M, n)`` for a stack.  Each row is laid out as the checkpoint body: the
    _PARAM_FIELDS arrays in order, each row-major.  The named arrays are
    reshaped views into it with the same leading model axis (``w_z`` is
    ``(H, D)`` or ``(M, H, D)``), so an in-place edit of either is an edit
    of both.
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
        if d < 1 or h < 1 or s < 1:
            raise DomainError(f"feature, hidden and state dims must be >= 1, got {d, h, s}")
        self.flat = np.ascontiguousarray(flat, dtype=np.float64)
        n = _param_count(d, h, s)
        if self.flat.ndim not in (1, 2) or self.flat.shape[-1] != n or not self.flat.size:
            raise DomainError(f"flat has shape {self.flat.shape}, expected ({n},) or (M, {n})")
        self.feature_dim, self.hidden_dim, self.num_states = d, h, s
        lead = self.flat.shape[:-1]
        start = 0
        for name, shape in zip(_PARAM_FIELDS, _param_shapes(d, h, s)):
            stop = start + math.prod(shape)
            setattr(self, name, self.flat[..., start:stop].reshape(lead + shape))
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

    def model(self, i: int) -> "ScorerParams":
        """Model ``i`` of a stack, as a view."""
        return ScorerParams(self.flat[i], self.feature_dim, self.hidden_dim, self.num_states)


@dataclass
class ForwardCache:
    """Intermediates retained by forward_sequence for the backward pass.

    The hidden arrays carry the parameters' leading model axis, if any.
    """

    params: ScorerParams
    xs: np.ndarray       # (T, D), shared by every model of a stack
    h_prev: np.ndarray   # (T, H) hidden state entering each step
    z: np.ndarray        # (T, H) update gate
    h_cand: np.ndarray   # (T, H) tanh candidate
    h: np.ndarray        # (T, H) hidden state after each step


def init_params(
    feature_dim: int, hidden_dim: int, num_states: int, seed: int
) -> ScorerParams:
    """Glorot-uniform weights, zero biases; deterministic per seed."""
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


def _matvec(stacked: bool):
    """The per-step matvec and the view the loops give their per-step arrays.

    ``np.dot`` of 2-D matrices and 1-D vectors for one model.  A stack's
    per-step arrays are (M, H, 1) column views, so that one batched
    ``np.matmul`` does all M matvecs.  Both equal per-model ``np.dot`` bit
    for bit.
    """
    if stacked:
        return np.matmul, lambda a: a[..., None]
    return np.dot, lambda a: a


def _frames_first(a: np.ndarray) -> np.ndarray:
    """A stack's ``(M, T, X)`` as a ``(T, M, X)`` view, for the per-step loops."""
    return a if a.ndim == 2 else a.swapaxes(0, 1)


def _models_first(a: np.ndarray) -> np.ndarray:
    """A stack's ``(T, M, X)`` as a C-contiguous ``(M, T, X)``: each model's
    rows are then one contiguous matrix, as the whole-window products need."""
    return a if a.ndim == 2 else np.ascontiguousarray(a.swapaxes(0, 1))


def forward_step(
    params: ScorerParams, x, h_prev
) -> tuple[np.ndarray, np.ndarray]:
    """One streaming step: returns (logits row, new hidden state)."""
    logits, cache = forward_sequence(params, np.asarray(x)[None], h_prev)
    return logits[..., 0, :], cache.h[..., 0, :]


def forward_sequence(
    params: ScorerParams, xs, h0=None
) -> tuple[np.ndarray, ForwardCache]:
    """Run the cell over a whole sequence; h0 defaults to zeros.

    The only implementation of the cell: forward_step is its one-row call,
    and passing the last hidden state as the next h0 continues a stream.
    A stack of M models runs over the same xs, with h0, the logits and the
    cache's hidden arrays (M, H), (M, T, S) and (M, T, H).  Each step writes
    in place into buffers allocated once per call.
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
    lead = params.flat.shape[:-1]
    hd = params.hidden_dim
    h0 = np.zeros(lead + (hd,)) if h0 is None else np.asarray(h0, dtype=np.float64)
    if h0.shape != lead + (hd,):
        raise DomainError(f"h0 shape {h0.shape} != {lead + (hd,)}")
    h0 = np.ascontiguousarray(h0)
    w_z, u_z, b_z, w_h, u_h, b_h, w_o, b_o = params.arrays()

    # Input projections and biases of both gates for every step at once,
    # one (T, 2H) block per model; the loop adds one row of it per step.
    xa = np.empty((t,) + lead + (2 * hd,))
    by_model = _frames_first(xa)
    np.matmul(xs, np.swapaxes(w_z, -1, -2), out=by_model[..., :hd])
    np.matmul(xs, np.swapaxes(w_h, -1, -2), out=by_model[..., hd:])
    xa += np.concatenate((b_z, b_h), axis=-1)
    z_all, cand_all, h_all = np.empty((3, t) + lead + (hd,))
    gates = np.empty(lead + (2 * hd,))
    matvec, col = _matvec(bool(lead))
    g, a_z, a_h = col(gates), col(gates[..., :hd]), col(gates[..., hd:])
    # Numerator and denominator exps of the sigmoid, one exp call for both.
    exps = np.empty((2,) + lead + (hd,))
    num, neg_abs = col(exps)
    den, keep = col(np.empty((2,) + lead + (hd,)))
    # One matvec of the stacked [u_z; u_h] for both gates.  Checked for
    # H = 1-79 on OpenBLAS 0.3.31 (the scipy-openblas64 build bundled with
    # numpy 2.4.6, DYNAMIC_ARCH, SkylakeX core), whose dgemv computes rows in
    # blocks of four: the stacked product equals the per-gate ones when 4
    # divides H, and at most H not divisible by 4 a row of u_z falls in
    # another block than in u_z alone and rounds differently.  Those H keep
    # one matvec per gate.  Another BLAS may block otherwise; then
    # test_scorer.py::test_stacked_gates_equal_per_gate_matvecs fails.
    if hd % 4 == 0:
        u_a, out_a, u_b, out_b = np.concatenate((u_z, u_h), axis=-2), g, None, None
    else:
        u_a, out_a, u_b, out_b = u_z, a_z, u_h, a_h
    h = col(h0)
    for z, cand, h_next, a in zip(col(z_all), col(cand_all), col(h_all), col(xa)):
        matvec(u_a, h, out=out_a)
        if u_b is not None:
            matvec(u_b, h, out=out_b)
        np.add(g, a, out=g)
        # z = sigmoid(a_z) as exp(min(a_z, 0)) / (1 + exp(-|a_z|)): that is
        # 1 / (1 + exp(-a_z)) where a_z >= 0 and exp(a_z) / (1 + exp(a_z))
        # elsewhere, with no mask and no exp that can overflow.
        np.minimum(a_z, _ZERO, out=num)
        np.copysign(a_z, _MINUS_ONE, out=neg_abs)
        np.exp(exps, out=exps)
        np.add(neg_abs, _ONE, out=den)
        np.divide(num, den, out=z)
        np.tanh(a_h, out=cand)
        # h_next = (1 - z) * h + z * cand
        np.subtract(_ONE, z, out=keep)
        np.multiply(keep, h, out=keep)
        np.multiply(z, cand, out=h_next)
        np.add(keep, h_next, out=h_next)
        h = h_next
    h_prev = np.empty_like(h_all)
    h_prev[0] = h0
    h_prev[1:] = h_all[:-1]
    h_prev, z_all, cand_all, h_all = (
        _models_first(a) for a in (h_prev, z_all, cand_all, h_all)
    )
    logits = np.matmul(h_all, np.swapaxes(w_o, -1, -2))
    logits += b_o[..., None, :]
    cache = ForwardCache(
        params=params, xs=xs, h_prev=h_prev, z=z_all, h_cand=cand_all, h=h_all
    )
    return logits, cache


def backward_sequence(cache: ForwardCache, dlogits) -> ScorerParams:
    """Exact BPTT: parameter gradients for a cotangent on the logits.

    A stack's cotangent is (M, T, S), and its gradients are a stack too.
    The factors that do not depend on the carried gradient are computed for
    the whole window first; each step writes in place into buffers
    allocated once per call, keeping the operand order of every product.
    """
    p = cache.params
    dlogits = np.asarray(dlogits, dtype=np.float64)
    t = cache.xs.shape[0]
    lead = p.flat.shape[:-1]
    if dlogits.shape != lead + (t, p.num_states):
        raise DomainError(
            f"dlogits shape {dlogits.shape} != {lead + (t, p.num_states)}"
        )
    _, u_z, _, _, u_h, _, w_o, _ = p.arrays()
    hd = p.hidden_dim
    dlogits = np.ascontiguousarray(dlogits)
    h_prev, z_all, h_cand, h_all = cache.h_prev, cache.z, cache.h_cand, cache.h
    dh_out = np.matmul(dlogits, w_o)  # (T, H) per model

    diff = h_cand - h_prev
    one_minus_z = _ONE - z_all
    dtanh = h_cand * h_cand
    np.subtract(_ONE, dtanh, out=dtanh)
    daz, dah = np.empty((2, t) + lead + (hd,))
    matvec, col = _matvec(bool(lead))
    dh, carry, back = col(np.zeros((3,) + lead + (hd,)))
    u_z_t, u_h_t = np.swapaxes(u_z, -1, -2), np.swapaxes(u_h, -1, -2)
    rows = [col(a) for a in (daz, dah)] + [
        col(_frames_first(a)) for a in (z_all, one_minus_z, diff, dtanh, dh_out)
    ]
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
        matvec(u_z_t, da_z, out=back)
        np.add(carry, back, out=carry)
        matvec(u_h_t, da_h, out=back)
        np.add(carry, back, out=carry)

    daz, dah = _models_first(daz), _models_first(dah)
    grads = p.zeros_like()
    g_w_z, g_u_z, g_b_z, g_w_h, g_u_h, g_b_h, g_w_o, g_b_o = grads.arrays()
    np.matmul(np.swapaxes(daz, -1, -2), cache.xs, out=g_w_z)
    np.matmul(np.swapaxes(daz, -1, -2), h_prev, out=g_u_z)
    daz.sum(axis=-2, out=g_b_z)
    np.matmul(np.swapaxes(dah, -1, -2), cache.xs, out=g_w_h)
    np.matmul(np.swapaxes(dah, -1, -2), h_prev, out=g_u_h)
    dah.sum(axis=-2, out=g_b_h)
    np.matmul(np.swapaxes(dlogits, -1, -2), h_all, out=g_w_o)
    dlogits.sum(axis=-2, out=g_b_o)
    return grads


def save_checkpoint(path, params: ScorerParams) -> None:
    """Binary checkpoint: magic, version, dims, then ``params.flat`` as f64 LE."""
    if params.flat.ndim != 1:
        raise DomainError(f"a checkpoint holds one model, got a stack of {len(params.flat)}")
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
