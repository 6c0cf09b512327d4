import numpy as np
import pytest

from switchdet.exceptions import DomainError
from switchdet.losses import sequence_loss_and_grad
from switchdet.scorer import (
    ScorerParams,
    backward_sequence,
    forward_sequence,
    forward_step,
    init_params,
    load_checkpoint,
    save_checkpoint,
)


def zero_params(d=3, h=2, s=4):
    p = init_params(d, h, s, seed=0)
    for arr in p.arrays():
        arr[:] = 0.0
    return p


class TestInit:
    def test_deterministic_per_seed(self):
        a = init_params(4, 3, 2, seed=42)
        b = init_params(4, 3, 2, seed=42)
        for x, y in zip(a.arrays(), b.arrays()):
            assert np.array_equal(x, y)

    def test_biases_zero(self):
        p = init_params(4, 3, 2, seed=1)
        assert not p.b_z.any() and not p.b_h.any() and not p.b_o.any()

    def test_seeds_differ(self):
        assert not np.array_equal(
            init_params(4, 3, 2, seed=1).w_z, init_params(4, 3, 2, seed=2).w_z
        )

    def test_weight_range(self):
        p = init_params(8, 16, 4, seed=3)
        bound = np.sqrt(6.0 / (16 + 8))
        assert np.abs(p.w_z).max() <= bound

    def test_rejects_zero_dims(self):
        with pytest.raises(DomainError):
            init_params(0, 3, 2, seed=0)


class TestForward:
    def test_zero_weights_emit_bias(self):
        p = zero_params()
        p.b_o[:] = [1.0, -2.0, 0.5, 0.0]
        xs = np.random.default_rng(0).normal(size=(5, 3))
        logits, cache = forward_sequence(p, xs)
        assert np.allclose(logits, np.tile(p.b_o, (5, 1)))
        assert not cache.h.any()

    def test_saturated_gate_scalar_trace(self):
        # H=1: gate forced ~1, so h ~ tanh(w_h x) and logits ~ w_o h + b_o.
        p = init_params(1, 1, 2, seed=0)
        p.w_z[:] = 0.0
        p.u_z[:] = 0.0
        p.b_z[:] = 50.0
        p.u_h[:] = 0.0
        p.b_h[:] = 0.0
        p.w_h[:] = 0.7
        p.w_o[:, 0] = [1.5, -0.5]
        p.b_o[:] = [0.1, 0.2]
        x = np.array([[2.0]])
        logits, _ = forward_sequence(p, x)
        h = np.tanh(0.7 * 2.0)
        assert np.allclose(logits[0], [1.5 * h + 0.1, -0.5 * h + 0.2], atol=1e-9)

    def test_streaming_matches_batch(self):
        rng = np.random.default_rng(4)
        p = init_params(6, 5, 4, seed=7)
        xs = rng.normal(size=(32, 6))
        batch_logits, _ = forward_sequence(p, xs)
        h = np.zeros(5)
        for t in range(32):
            row, h = forward_step(p, xs[t], h)
            assert np.abs(row - batch_logits[t]).max() < 1e-12

    def test_hidden_state_bounded(self):
        rng = np.random.default_rng(5)
        p = init_params(3, 4, 2, seed=1)
        xs = rng.normal(size=(64, 3)) * 1e3  # huge inputs
        _, cache = forward_sequence(p, xs)
        assert np.abs(cache.h).max() <= 1.0

    def test_dim_mismatch(self):
        p = init_params(3, 4, 2, seed=1)
        with pytest.raises(DomainError):
            forward_sequence(p, np.zeros((5, 2)))

    def test_empty_sequence(self):
        p = init_params(3, 4, 2, seed=1)
        with pytest.raises(DomainError):
            forward_sequence(p, np.zeros((0, 3)))

    def test_rejects_non_finite_features(self):
        p = init_params(3, 4, 2, seed=1)
        xs = np.zeros((5, 3))
        xs[2, 1] = np.nan
        with pytest.raises(DomainError, match="non-finite"):
            forward_sequence(p, xs)


class TestBackward:
    def test_zero_cotangent(self):
        p = init_params(3, 4, 2, seed=1)
        _, cache = forward_sequence(p, np.random.default_rng(0).normal(size=(6, 3)))
        grads = backward_sequence(cache, np.zeros((6, 2)))
        assert all(not g.any() for g in grads.arrays())

    def test_head_bias_is_column_sum(self):
        p = init_params(3, 4, 5, seed=1)
        _, cache = forward_sequence(p, np.random.default_rng(1).normal(size=(1, 3)))
        dlogits = np.random.default_rng(2).normal(size=(1, 5))
        grads = backward_sequence(cache, dlogits)
        assert np.allclose(grads.b_o, dlogits.sum(axis=0))

    def test_shape_mismatch(self):
        p = init_params(3, 4, 2, seed=1)
        _, cache = forward_sequence(p, np.zeros((6, 3)))
        with pytest.raises(DomainError):
            backward_sequence(cache, np.zeros((5, 2)))

    def test_full_chain_matches_finite_differences(self):
        rng = np.random.default_rng(6)
        checked = 0
        trial = 0
        while checked < 10:
            trial += 1
            t, d, h, s = 8, 4, 3, 4
            params = init_params(d, h, s, seed=100 + trial)
            xs = rng.normal(size=(t, d))
            y = rng.integers(0, s, size=t)
            logits, cache = forward_sequence(params, xs)
            top2 = np.sort(logits, axis=1)[:, -2:]
            if (top2[:, 1] - top2[:, 0]).min() < 1e-3:
                continue
            res = sequence_loss_and_grad(logits, y, 0.025)
            grads = backward_sequence(cache, res.grad)
            eps = 1e-5
            for name in ("w_z", "u_z", "b_z", "w_h", "u_h", "b_h", "w_o", "b_o"):
                arr = getattr(params, name)
                g = getattr(grads, name)
                it = np.nditer(arr, flags=["multi_index"])
                for _ in it:
                    idx = it.multi_index
                    orig = arr[idx]
                    arr[idx] = orig + eps
                    lp = sequence_loss_and_grad(
                        forward_sequence(params, xs)[0], y, 0.025
                    ).total
                    arr[idx] = orig - eps
                    lm = sequence_loss_and_grad(
                        forward_sequence(params, xs)[0], y, 0.025
                    ).total
                    arr[idx] = orig
                    fd = (lp - lm) / (2 * eps)
                    rel = abs(fd - g[idx]) / max(1e-6, abs(fd) + abs(g[idx]))
                    assert rel < 1e-5, (name, idx, fd, g[idx])
            checked += 1


class TestCheckpoint:
    def test_round_trip(self, tmp_path):
        p = init_params(5, 4, 8, seed=9)
        path = tmp_path / "model.aswp"
        save_checkpoint(path, p)
        q = load_checkpoint(path)
        for a, b in zip(p.arrays(), q.arrays()):
            assert np.array_equal(a, b)

    def test_header_layout(self, tmp_path):
        p = init_params(5, 4, 8, seed=9)
        path = tmp_path / "model.aswp"
        save_checkpoint(path, p)
        raw = path.read_bytes()
        assert raw[:4] == b"ASWP"
        assert np.frombuffer(raw[4:20], dtype="<u4").tolist() == [1, 5, 4, 8]

    def test_rejects_garbage(self, tmp_path):
        path = tmp_path / "bad.aswp"
        path.write_bytes(b"nope")
        with pytest.raises(DomainError):
            load_checkpoint(path)

    def test_rejects_truncated(self, tmp_path):
        p = init_params(5, 4, 8, seed=9)
        path = tmp_path / "model.aswp"
        save_checkpoint(path, p)
        path.write_bytes(path.read_bytes()[:-8])
        with pytest.raises(DomainError):
            load_checkpoint(path)
