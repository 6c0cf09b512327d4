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
import threading
from dataclasses import dataclass
from functools import partial
from types import SimpleNamespace

import numpy as np

from .exceptions import DomainError
from .formats import read_binary, write_binary

CHECKPOINT_MAGIC = b"ASWP"
_CHECKPOINT_HEADER = "III"  # D, H, S; the body is ScorerParams.flat as f64

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
    They are C-contiguous and the caller's own: no later call writes them.
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


# Operand of the per-step ufuncs: a 0-d array is cheaper to pass than a
# Python float, which numpy converts on every call.
_ONE = _read_only(1.0)


def _bound_matvecs(*mats: np.ndarray) -> list:
    """The per-step matvec by each matrix, as a callable ``f(v, out)``.

    A 2-D matrix gives its bound ``ndarray.dot`` over flat rows: the routine
    ``np.dot`` calls, without its dispatcher's Python frame.  Stacked
    (..., H, H) blocks give one batched ``np.matmul`` over (..., H, 1)
    columns, which multiplies each block on its own.  Both equal per-block
    ``np.dot`` bit for bit.  No lambda: a Python frame per matvec is what
    this avoids.
    """
    if mats[0].ndim == 2:
        return [m.dot for m in mats]
    return [partial(np.matmul, m) for m in mats]


def _swap_stack(a: np.ndarray) -> np.ndarray:
    """A stack's ``(M, T, X)`` as a ``(T, M, X)`` view, and back; one
    model's ``(T, X)`` as it is."""
    return a if a.ndim == 2 else a.swapaxes(0, 1)


# Steps per block of the forward's walk.  A window is projected and walked
# BLOCK rows at a time, so that no input projection is big enough for the
# BLAS to start a thread, and the forward's workspace holds one block.
BLOCK = 128


def _block_bounds(t: int) -> list[tuple[int, int]]:
    """(start, stop) of the blocks a T-step window is walked in: BLOCK rows
    each, except that a last block of one row joins the one before it,
    since a one-row projection runs as a gemv and rounds differently from
    the same row of a gemm.  So a block has at most BLOCK + 1 rows."""
    stops = list(range(BLOCK, t, BLOCK))
    if stops and t - stops[-1] == 1:
        stops.pop()
    return list(zip([0] + stops, stops + [t]))


# Each thread's workspaces, one per loop: the buffers of the last shape the
# thread ran and the per-step views the loop walks.
_WORKSPACES = threading.local()


def _workspace(build, *key) -> SimpleNamespace:
    """``build(*key)`` for the calling thread: reused while its key repeats,
    replaced when the key changes.  The forward's key is (leading model
    shape, H), since every window walks the same BLOCK + 1 rows; the
    backward's is (T, leading model shape, H).  Nothing a caller holds may
    be a view of a workspace, since the next call overwrites it."""
    held = getattr(_WORKSPACES, build.__name__, None)
    if held is None or held[0] != key:
        held = (key, build(*key))
        setattr(_WORKSPACES, build.__name__, held)
    return held[1]


def _forward_workspace(lead: tuple, hd: int) -> SimpleNamespace:
    """Buffers and per-step views for one block.  The buffers are laid out
    step-major and, within a step, block-major (a stack's gate row is
    (4, M, H)), so that every per-step operand of a ufunc is one flat
    contiguous row; only the recurrent product may take (H, 1) columns."""
    n = BLOCK + 1
    ws = SimpleNamespace()
    # The input part [xa_z, -xa_z, xa_h] of every step's gate row.
    xa = np.empty((n, 3) + lead + (hd,))
    ws.xa_z, ws.xa_nz, ws.xa_h = xa[:, 0], xa[:, 1], xa[:, 2]
    # A step's gate row is [0, a_z, -a_z, a_h]: one minimum of its middle
    # two blocks against its first two gives [min(a_z, 0), -|a_z|].  No step
    # writes the first block, so it stays 0 across calls.
    row = np.zeros((4,) + lead + (hd,))
    ws.pre, ws.low, ws.mid, ws.a_h = (v.reshape(-1) for v in (row[1:], row[:2], row[1:3], row[3]))
    # The recurrent product of [u_z, -u_z, u_h], of two kinds chosen here
    # alone.  For one model when 4 divides H, one matvec of the stacked
    # [u_z; -u_z; u_h] over flat rows: on OpenBLAS 0.3.31 (the
    # scipy-openblas64 build bundled with numpy 2.4.6, DYNAMIC_ARCH, SkylakeX
    # core) dgemv computes rows in blocks of four, so only at those H does
    # each row round as in its own matrix (checked for H = 1-79).  Otherwise
    # one batched matmul of the (3,) + lead + (H, H) blocks over (H, 1)
    # columns, which multiplies each block on its own at any H.  Another BLAS
    # may block otherwise; then
    # test_scorer.py::test_stacked_gates_equal_per_gate_matvecs fails.
    ws.fused = hd % 4 == 0 and not lead
    ws.gates = ws.pre if ws.fused else row[1:, ..., None]
    # Numerator and denominator exps of the sigmoid, one exp call for both.
    exps = np.empty((2,) + lead + (hd,))
    ws.exps, ws.num, ws.neg_abs = exps.reshape(-1), exps[0].reshape(-1), exps[1].reshape(-1)
    ws.den = np.empty(ws.a_h.size)
    # kz[i] = [1 - z, z] and hc = [h0, cand, h, cand, h, ...], so that step
    # i's kz[i] * hc[2i:2i+2] = [(1 - z) * h_prev, z * cand] is one product.
    kz = np.empty((n, 2) + lead + (hd,))
    ws.hc = hc = np.empty((2 * n + 1,) + lead + (hd,))
    pairs = hc[:-1].reshape(kz.shape)  # pairs[i] = [h_prev, cand] of step i
    mix = np.empty((2, ws.a_h.size))
    ws.mix, (ws.mix_keep, ws.mix_new) = mix.reshape(-1), mix
    # Each step's h_prev, z, cand and h, which the cache keeps.
    ws.kept = pairs[:, 0], kz[:, 1], pairs[:, 1], hc[2::2]
    # A step's h_prev as the recurrent product takes it, and its other
    # operands as flat rows (views, since each step's part of these buffers
    # is contiguous).
    h_in = pairs[:, 0] if ws.fused else pairs[:, 0, ..., None]
    ws.steps = list(zip(h_in, *(
        v.reshape(n, -1) for v in (xa, kz, kz[:, 0], kz[:, 1], pairs[:, 1], pairs, hc[2::2])
    )))
    return ws


def _forward_blocks(ws: SimpleNamespace, params: ScorerParams, xs: np.ndarray,
                    h0: np.ndarray, outs: tuple):
    """The per-step views of ``ws`` for a window of ``xs``, block by block.

    Before a block's steps, projects its input rows into the workspace,
    biases included; after them, copies its rows of h_prev, z, cand and h
    into ``outs``, their ``(T,) + lead + (H,)`` views.  Two projections: one
    of the stacked [w_z; w_h] rounds differently.
    """
    w_z, _, b_z, w_h, _, b_h, _, _ = params.arrays()
    w_z_t, w_h_t = np.swapaxes(w_z, -1, -2), np.swapaxes(w_h, -1, -2)
    hc = ws.hc
    hc[0] = h0
    for start, stop in _block_bounds(len(xs)):
        n = stop - start
        xa_z, xa_nz, xa_h = ws.xa_z[:n], ws.xa_nz[:n], ws.xa_h[:n]
        np.matmul(xs[start:stop], w_z_t, out=_swap_stack(xa_z))
        np.matmul(xs[start:stop], w_h_t, out=_swap_stack(xa_h))
        xa_z += b_z
        xa_h += b_h
        np.negative(xa_z, xa_nz)
        yield from ws.steps[:n]
        for out, rows in zip(outs, ws.kept):
            out[start:stop] = rows[:n]
        hc[0] = hc[2 * n]


def _backward_workspace(t: int, lead: tuple, hd: int) -> SimpleNamespace:
    """Buffers and per-step views for a T-step window, laid out as the
    forward's: every per-step operand of a ufunc is one flat row, and only
    a stack's two recurrent matvecs see (M, H, 1) columns."""
    ws = SimpleNamespace()
    # f[i] = [cand - h_prev, z, 1 - z], g[i] = [z, 1 - cand^2, 1] and
    # d[i] = [da_z, da_h, carry into step i - 1]; g's last row stays 1.
    ws.f = f = np.empty((t, 3) + lead + (hd,))
    ws.g = g = np.empty_like(f)
    g[:, 2] = 1.0
    ws.d = d = np.empty_like(f)
    ws.dh_out = np.empty((t,) + lead + (hd,))
    dh, back = np.empty((2,) + lead + (hd,))
    ws.dh, ws.back, ws.carry0 = dh.reshape(-1), back.reshape(-1), np.zeros(dh.size)
    # back, da_z and da_h as the matvecs take them: (M, H, 1) columns for a
    # stack, flat rows for one model.
    ws.back_in, *cols = (a[..., None] if lead else a for a in (back, d[:, 0], d[:, 1]))
    rows = (v.reshape(t, -1) for v in (d[:, 0], d[:, 2], f[:, 2], ws.dh_out))
    blocks = (v.reshape(t, 3, -1) for v in (d, f, g))
    ws.steps = list(zip(*(a[::-1] for a in (*blocks, *rows, *cols))))
    return ws


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
    cache's hidden arrays (M, H), (M, T, S) and (M, T, H).  The steps walk
    the window in blocks of BLOCK rows (_block_bounds), each projecting only
    its own input rows, and write in place into the thread's one workspace
    for this stack shape, whose buffers are laid out step by step, so that
    one call covers operands that would otherwise take two or three.  The
    cache's hidden arrays are C-contiguous copies of them, and the head runs
    once over the whole window.
    """
    xs = np.asarray(xs, dtype=np.float64)
    if xs.ndim != 2 or xs.shape[1] != params.feature_dim:
        raise DomainError(
            f"features must be (T, {params.feature_dim}), got {xs.shape}"
        )
    t = xs.shape[0]
    if t == 0:
        raise DomainError("empty input sequence")
    if not np.isfinite(xs).all():
        raise DomainError("non-finite values in features")
    lead = params.flat.shape[:-1]
    hd = params.hidden_dim
    h0 = np.zeros(lead + (hd,)) if h0 is None else np.asarray(h0, dtype=np.float64)
    if h0.shape != lead + (hd,):
        raise DomainError(f"h0 shape {h0.shape} != {lead + (hd,)}")
    if not np.isfinite(h0).all():
        raise DomainError("non-finite values in h0")
    _, u_z, _, _, u_h, _, w_o, b_o = params.arrays()
    ws = _workspace(_forward_workspace, lead, hd)
    mats = (u_z, -u_z, u_h)
    (matvec,) = _bound_matvecs(np.concatenate(mats) if ws.fused else np.stack(mats))
    gates, pre, low, mid, a_h = ws.gates, ws.pre, ws.low, ws.mid, ws.a_h
    num, neg_abs, exps, den = ws.num, ws.neg_abs, ws.exps, ws.den
    mix, mix_keep, mix_new = ws.mix, ws.mix_keep, ws.mix_new
    # Local names for the ufuncs: looking np and its attribute up on every
    # call is a measurable share of a call on rows this short.
    add, subtract, multiply, divide = np.add, np.subtract, np.multiply, np.divide
    minimum, exp, tanh = np.minimum, np.exp, np.tanh
    # The cache's h_prev, z, cand and h: the blocks' rows, copied, since the
    # next block overwrites the workspace.
    cached = [np.empty(lead + (t, hd)) for _ in range(4)]
    steps = _forward_blocks(ws, params, xs, h0, tuple(map(_swap_stack, cached)))
    for h, a, kz_i, keep, z, cand, pair, h_next in steps:
        matvec(h, gates)
        add(pre, a, pre)
        # z = sigmoid(a_z) as exp(min(a_z, 0)) / (1 + exp(-|a_z|)): that is
        # 1 / (1 + exp(-a_z)) where a_z >= 0 and exp(a_z) / (1 + exp(a_z))
        # elsewhere, with no mask and no exp that can overflow.
        minimum(mid, low, out=exps)
        exp(exps, exps)
        add(neg_abs, _ONE, den)
        divide(num, den, z)
        tanh(a_h, cand)
        # h_next = (1 - z) * h + z * cand
        subtract(_ONE, z, keep)
        multiply(kz_i, pair, mix)
        add(mix_keep, mix_new, h_next)
    h_prev, z_all, cand_all, h_all = cached
    logits = np.matmul(h_all, np.swapaxes(w_o, -1, -2))
    logits += b_o[..., None, :]
    cache = ForwardCache(
        params=params, xs=xs, h_prev=h_prev, z=z_all, h_cand=cand_all, h=h_all
    )
    return logits, cache


def backward_sequence(cache: ForwardCache, dlogits) -> ScorerParams:
    """Exact BPTT: parameter gradients for a cotangent on the logits.

    A stack's cotangent is (M, T, S), and its gradients are a stack too.
    The factors that do not depend on the carried gradient are laid out
    step by step for the whole window first, f[i] = [cand - h_prev, z, 1 - z]
    and g[i] = [z, 1 - cand^2, 1], so that one product gives all three rows
    of d[i] = [da_z, da_h, carry into step i - 1].  Each step writes in place
    into the thread's workspace for this window shape, keeping the operand
    order of every product; the product by 1 is exact.
    """
    p = cache.params
    dlogits = np.asarray(dlogits, dtype=np.float64)
    t = cache.xs.shape[0]
    lead = p.flat.shape[:-1]
    if dlogits.shape != lead + (t, p.num_states):
        raise DomainError(
            f"dlogits shape {dlogits.shape} != {lead + (t, p.num_states)}"
        )
    if not np.isfinite(dlogits).all():
        raise DomainError("non-finite values in dlogits")
    _, u_z, _, _, u_h, _, w_o, _ = p.arrays()
    hd = p.hidden_dim
    dlogits = np.ascontiguousarray(dlogits)
    h_prev, z_all, h_cand = (_swap_stack(a) for a in (cache.h_prev, cache.z, cache.h_cand))
    ws = _workspace(_backward_workspace, t, lead, hd)
    np.matmul(dlogits, w_o, out=_swap_stack(ws.dh_out))

    f, g, d = ws.f, ws.g, ws.d
    np.subtract(h_cand, h_prev, f[:, 0])
    f[:, 1] = z_all
    np.subtract(_ONE, z_all, f[:, 2])
    g[:, 0] = z_all
    np.multiply(h_cand, h_cand, g[:, 1])
    np.subtract(_ONE, g[:, 1], g[:, 1])
    dh, back, back_in, carry = ws.dh, ws.back, ws.back_in, ws.carry0
    matvec_z, matvec_h = _bound_matvecs(np.swapaxes(u_z, -1, -2), np.swapaxes(u_h, -1, -2))
    # Local names for the ufuncs, as in forward_sequence.
    add, multiply = np.add, np.multiply
    for d_i, f_i, g_i, da_z, carry_i, omz, dh_o, az_in, ah_in in ws.steps:
        add(dh_o, carry, dh)
        # [da_z, da_h, carry] = [dh * (cand - h_prev) * z * (1 - z),
        #                        dh * z * (1 - cand^2), dh * (1 - z)]
        multiply(dh, f_i, d_i)
        multiply(d_i, g_i, d_i)
        multiply(da_z, omz, da_z)
        # carry += u_z^T da_z + u_h^T da_h; one matvec over the stacked
        # [u_z; u_h] would round differently.
        matvec_z(az_in, back_in)
        add(carry_i, back, carry_i)
        matvec_h(ah_in, back_in)
        add(carry_i, back, carry_i)
        carry = carry_i

    # C-contiguous (M, T, H) operands: on strided ones, matmul may take
    # another BLAS call and round differently.
    daz, dah = (np.ascontiguousarray(_swap_stack(a)) for a in (d[:, 0], d[:, 1]))
    h_prev_c, h_c = (np.ascontiguousarray(a) for a in (cache.h_prev, cache.h))
    grads = p.zeros_like()
    g_w_z, g_u_z, g_b_z, g_w_h, g_u_h, g_b_h, g_w_o, g_b_o = grads.arrays()
    np.matmul(np.swapaxes(daz, -1, -2), cache.xs, out=g_w_z)
    np.matmul(np.swapaxes(daz, -1, -2), h_prev_c, out=g_u_z)
    daz.sum(axis=-2, out=g_b_z)
    np.matmul(np.swapaxes(dah, -1, -2), cache.xs, out=g_w_h)
    np.matmul(np.swapaxes(dah, -1, -2), h_prev_c, out=g_u_h)
    dah.sum(axis=-2, out=g_b_h)
    np.matmul(np.swapaxes(dlogits, -1, -2), h_c, out=g_w_o)
    dlogits.sum(axis=-2, out=g_b_o)
    return grads


def save_checkpoint(path, params: ScorerParams) -> None:
    """Binary checkpoint: magic, version, dims, then ``params.flat`` as f64 LE."""
    if params.flat.ndim != 1:
        raise DomainError(f"a checkpoint holds one model, got a stack of {len(params.flat)}")
    write_binary(path, CHECKPOINT_MAGIC, _CHECKPOINT_HEADER,
                 (params.feature_dim, params.hidden_dim, params.num_states), [params.flat], "<f8")


def load_checkpoint(path) -> ScorerParams:
    (d, h, s), flat = read_binary(path, CHECKPOINT_MAGIC, "checkpoint", _CHECKPOINT_HEADER,
                                  _param_count, "<f8")
    return ScorerParams(flat, d, h, s)
