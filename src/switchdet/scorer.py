"""Minimal trainable per-frame state classifier.

One light gated recurrent cell (update gate only, no reset gate) followed by
a linear head over states, with exact manual backpropagation through time.
Small enough to train on a desk CPU; the hidden state is a convex mix of its
previous value and a tanh candidate, so it stays in [-1, 1] elementwise.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .exceptions import DomainError

CHECKPOINT_MAGIC = b"ASWP"
CHECKPOINT_VERSION = 1

# Field order also fixes the checkpoint layout.
_PARAM_FIELDS = ("w_z", "u_z", "b_z", "w_h", "u_h", "b_h", "w_o", "b_o")


@dataclass
class ScorerParams:
    w_z: np.ndarray  # (H, D) update-gate input weights
    u_z: np.ndarray  # (H, H) update-gate recurrent weights
    b_z: np.ndarray  # (H,)
    w_h: np.ndarray  # (H, D) candidate input weights
    u_h: np.ndarray  # (H, H) candidate recurrent weights
    b_h: np.ndarray  # (H,)
    w_o: np.ndarray  # (S, H) output head
    b_o: np.ndarray  # (S,)

    def __post_init__(self) -> None:
        h, d = self.w_z.shape
        s = self.w_o.shape[0]
        expected = {
            "w_z": (h, d), "u_z": (h, h), "b_z": (h,),
            "w_h": (h, d), "u_h": (h, h), "b_h": (h,),
            "w_o": (s, h), "b_o": (s,),
        }
        for name, shape in expected.items():
            arr = getattr(self, name)
            if arr.shape != shape:
                raise DomainError(f"{name} has shape {arr.shape}, expected {shape}")
            if not np.all(np.isfinite(arr)):
                raise DomainError(f"non-finite values in {name}")

    @property
    def feature_dim(self) -> int:
        return self.w_z.shape[1]

    @property
    def hidden_dim(self) -> int:
        return self.w_z.shape[0]

    @property
    def num_states(self) -> int:
        return self.w_o.shape[0]

    def arrays(self) -> list[np.ndarray]:
        return [getattr(self, name) for name in _PARAM_FIELDS]

    def copy(self) -> "ScorerParams":
        return ScorerParams(*(a.copy() for a in self.arrays()))

    def zeros_like(self) -> "ScorerParams":
        return ScorerParams(*(np.zeros_like(a) for a in self.arrays()))


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

    def glorot(rows, cols):
        a = np.sqrt(6.0 / (rows + cols))
        return rng.uniform(-a, a, size=(rows, cols))

    d, h, s = feature_dim, hidden_dim, num_states
    return ScorerParams(
        w_z=glorot(h, d), u_z=glorot(h, h), b_z=np.zeros(h),
        w_h=glorot(h, d), u_h=glorot(h, h), b_h=np.zeros(h),
        w_o=glorot(s, h), b_o=np.zeros(s),
    )


def _sigmoid(x: np.ndarray) -> np.ndarray:
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    e = np.exp(x[~pos])
    out[~pos] = e / (1.0 + e)
    return out


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
    h = np.zeros(hd) if h0 is None else np.asarray(h0, dtype=np.float64).copy()
    if h.shape != (hd,):
        raise DomainError(f"h0 shape {h.shape} != ({hd},)")

    # Input projections for every step at once; the loop only does the
    # recurrent matvecs and elementwise gates.
    az_x = xs @ params.w_z.T + params.b_z
    ah_x = xs @ params.w_h.T + params.b_h
    h_prev = np.empty((t, hd))
    z_all = np.empty((t, hd))
    cand_all = np.empty((t, hd))
    h_all = np.empty((t, hd))
    for i in range(t):
        h_prev[i] = h
        z = _sigmoid(az_x[i] + params.u_z @ h)
        cand = np.tanh(ah_x[i] + params.u_h @ h)
        h = (1.0 - z) * h + z * cand
        z_all[i] = z
        cand_all[i] = cand
        h_all[i] = h
    logits = h_all @ params.w_o.T + params.b_o
    cache = ForwardCache(
        params=params, xs=xs, h_prev=h_prev, z=z_all, h_cand=cand_all, h=h_all
    )
    return logits, cache


def backward_sequence(cache: ForwardCache, dlogits) -> ScorerParams:
    """Exact BPTT: parameter gradients for a cotangent on the logits."""
    p = cache.params
    dlogits = np.asarray(dlogits, dtype=np.float64)
    t = cache.xs.shape[0]
    if dlogits.shape != (t, p.num_states):
        raise DomainError(
            f"dlogits shape {dlogits.shape} != ({t}, {p.num_states})"
        )
    grads = p.zeros_like()
    grads.w_o[:] = dlogits.T @ cache.h
    grads.b_o[:] = dlogits.sum(axis=0)
    dh_out = dlogits @ p.w_o  # (T, H)

    daz = np.empty_like(cache.z)
    dah = np.empty_like(cache.z)
    carry = np.zeros(p.hidden_dim)
    for i in range(t - 1, -1, -1):
        dh = dh_out[i] + carry
        z = cache.z[i]
        cand = cache.h_cand[i]
        dz = dh * (cand - cache.h_prev[i])
        da_z = dz * z * (1.0 - z)
        da_h = dh * z * (1.0 - cand * cand)
        daz[i] = da_z
        dah[i] = da_h
        carry = dh * (1.0 - z) + p.u_z.T @ da_z + p.u_h.T @ da_h

    grads.w_z[:] = daz.T @ cache.xs
    grads.u_z[:] = daz.T @ cache.h_prev
    grads.b_z[:] = daz.sum(axis=0)
    grads.w_h[:] = dah.T @ cache.xs
    grads.u_h[:] = dah.T @ cache.h_prev
    grads.b_h[:] = dah.sum(axis=0)
    return grads


def save_checkpoint(path, params: ScorerParams) -> None:
    """Binary checkpoint: magic, version, dims, then matrices row-major f64 LE."""
    header = CHECKPOINT_MAGIC + struct.pack(
        "<IIII",
        CHECKPOINT_VERSION,
        params.feature_dim,
        params.hidden_dim,
        params.num_states,
    )
    with open(path, "wb") as fh:
        fh.write(header)
        for arr in params.arrays():
            fh.write(np.ascontiguousarray(arr, dtype="<f8").tobytes())


def load_checkpoint(path) -> ScorerParams:
    data = Path(path).read_bytes()
    if len(data) < 20 or data[:4] != CHECKPOINT_MAGIC:
        raise DomainError(f"{path}: not a scorer checkpoint")
    version, d, h, s = struct.unpack("<IIII", data[4:20])
    if version != CHECKPOINT_VERSION:
        raise DomainError(f"{path}: unsupported checkpoint version {version}")
    shapes = [(h, d), (h, h), (h,), (h, d), (h, h), (h,), (s, h), (s,)]
    offset = 20
    arrays = []
    for shape in shapes:
        n = int(np.prod(shape))
        chunk = data[offset : offset + 8 * n]
        if len(chunk) != 8 * n:
            raise DomainError(f"{path}: truncated checkpoint")
        arrays.append(np.frombuffer(chunk, dtype="<f8").astype(np.float64).reshape(shape))
        offset += 8 * n
    if offset != len(data):
        raise DomainError(f"{path}: trailing bytes in checkpoint")
    return ScorerParams(*arrays)
