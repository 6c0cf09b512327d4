import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from switchdet.exceptions import DomainError
from switchdet.losses import (
    log_softmax,
    sequence_loss_and_grad,
)

from oracles import batched_cc_loss


def logits_for_probs(probs):
    return np.log(np.asarray(probs, dtype=np.float64))


def random_case(rng, t_max=16, s_max=8, tie_margin=1e-3):
    """Random logits with no argmax near-tie, plus random targets."""
    while True:
        t = int(rng.integers(1, t_max + 1))
        s = int(rng.integers(2, s_max + 1))
        logits = rng.normal(size=(t, s)) * 2.0
        top2 = np.sort(logits, axis=1)[:, -2:]
        if (top2[:, 1] - top2[:, 0]).min() > tie_margin:
            return logits, rng.integers(0, s, size=t)


def fd_grad(logits, y, alpha, eps=1e-4):
    grad = np.zeros_like(logits)
    for i in range(logits.shape[0]):
        for j in range(logits.shape[1]):
            lp = logits.copy()
            lp[i, j] += eps
            lm = logits.copy()
            lm[i, j] -= eps
            grad[i, j] = (
                sequence_loss_and_grad(lp, y, alpha).total
                - sequence_loss_and_grad(lm, y, alpha).total
            ) / (2 * eps)
    return grad


class TestSequenceLoss:
    def test_single_frame_has_no_penalty(self):
        logits = logits_for_probs([[0.5, 0.5]])
        res = sequence_loss_and_grad(logits, [1], alpha=1.0)
        assert res.total == pytest.approx(np.log(2), rel=1e-9)
        assert res.cons_part == 0.0
        assert res.num_cc_positions == 0

    def test_confident_correct_constant_prediction(self):
        logits = np.tile([20.0, 0.0, 0.0, 0.0], (6, 1))
        res = sequence_loss_and_grad(logits, [0] * 6, alpha=0.1)
        assert res.total == pytest.approx(0.0, abs=1e-8)
        assert res.num_cc_positions == 0

    def test_total_is_ce_plus_weighted_cons(self):
        rng = np.random.default_rng(5)
        # Logits of +-1e4, far past exp's range, with a change at frame 1.
        large = (np.array([[1e4, -1e4, 0.0], [-1e4, 1e4, 0.0]]), [0, 1])
        for logits, y in [large] + [random_case(rng) for _ in range(20)]:
            res = sequence_loss_and_grad(logits, y, alpha=0.3)
            assert np.isfinite(res.total) and np.isfinite(res.grad).all()
            assert res.total == pytest.approx(
                res.ce_part + 0.3 * res.cons_part, rel=1e-12
            )

    def test_alpha_linearity(self):
        rng = np.random.default_rng(6)
        logits, y = random_case(rng, t_max=12)
        r0 = sequence_loss_and_grad(logits, y, 0.0)
        r1 = sequence_loss_and_grad(logits, y, 1.0)
        r2 = sequence_loss_and_grad(logits, y, 2.0)
        slope = r1.total - r0.total
        assert slope == pytest.approx(r0.cons_part, rel=1e-9, abs=1e-12)
        assert r2.total - r1.total == pytest.approx(slope, rel=1e-9, abs=1e-12)

    def test_zero_change_law(self):
        rng = np.random.default_rng(7)
        # An exact tie at frame 1 resolves to the lowest index, 0, which
        # moves off frame 0's argmax 1; the highest index would stay.
        tie = (np.array([[0.0, 5.0, 0.0], [10.0, 10.0, 0.0]]), [0, 0])
        for logits, y in [tie] + [random_case(rng) for _ in range(50)]:
            res = sequence_loss_and_grad(logits, y, 1.0)
            # The first index of each row's maximum, independently of numpy.
            pred = [row.index(max(row)) for row in logits.tolist()]
            changed = any(a != b for a, b in zip(pred, pred[1:]))
            assert (res.cons_part > 0) == changed

    def test_shift_invariance(self):
        rng = np.random.default_rng(8)
        logits, y = random_case(rng)
        shifted = logits + rng.normal(size=(logits.shape[0], 1)) * 5.0
        a = sequence_loss_and_grad(logits, y, 0.05)
        b = sequence_loss_and_grad(shifted, y, 0.05)
        assert abs(a.total - b.total) < 1e-10
        assert np.abs(a.grad - b.grad).max() < 1e-10

    @pytest.mark.parametrize("alpha", [0.0, 0.025, 0.1])
    def test_gradient_matches_finite_differences(self, alpha):
        rng = np.random.default_rng(9)
        for _ in range(25):
            logits, y = random_case(rng)
            res = sequence_loss_and_grad(logits, y, alpha)
            fd = fd_grad(logits, y, alpha)
            rel = np.abs(fd - res.grad) / np.maximum(
                1e-8, np.abs(fd) + np.abs(res.grad)
            )
            assert rel.max() < 1e-5

    def test_length_mismatch(self):
        with pytest.raises(DomainError):
            sequence_loss_and_grad(np.zeros((3, 2)), [0, 1], 0.0)
        with pytest.raises(DomainError, match="empty logit sequence"):
            sequence_loss_and_grad(np.zeros((0, 2)), [], 0.0)

    def test_negative_alpha(self):
        with pytest.raises(DomainError):
            sequence_loss_and_grad(np.zeros((2, 2)), [0, 0], -0.1)

    def test_target_out_of_range(self):
        with pytest.raises(DomainError):
            sequence_loss_and_grad(np.zeros((2, 2)), [0, 2], 0.0)


class TestBatchedLoss:
    def test_constant_prediction_is_zero(self):
        logits = np.tile([3.0, 0.0, 1.0], (2, 5, 1))
        assert batched_cc_loss(logits) == 0.0

    def test_single_change(self):
        logits = logits_for_probs([[[0.9, 0.1], [0.1, 0.9]]])
        assert batched_cc_loss(logits) == pytest.approx(-np.log(0.1), rel=1e-9)

    def test_constant_sequence_contributes_nothing(self):
        changing = logits_for_probs([[0.9, 0.1], [0.1, 0.9], [0.2, 0.8]])
        constant = np.tile([5.0, 0.0], (3, 1))
        both = batched_cc_loss(np.stack([changing, constant]))
        alone = batched_cc_loss(changing[None])
        assert both == pytest.approx(alone, rel=1e-12)

    def test_matches_sequence_form_for_single_batch(self):
        rng = np.random.default_rng(10)
        for _ in range(100):
            logits, y = random_case(rng, t_max=16)
            if logits.shape[0] < 2:
                continue
            res = sequence_loss_and_grad(logits, y, alpha=1.0)
            batched = batched_cc_loss(logits[None])
            assert batched == pytest.approx(res.cons_part, rel=1e-12, abs=1e-15)

    def test_rejects_short_sequences(self):
        with pytest.raises(DomainError):
            batched_cc_loss(np.zeros((1, 1, 3)))


def test_log_softmax_normalizes():
    rng = np.random.default_rng(1)
    rows = rng.normal(size=(4, 6)) * 100
    assert np.exp(log_softmax(rows)).sum(axis=1) == pytest.approx(np.ones(4))


class TestStackedLoss:
    @pytest.mark.parametrize("m, t, s", [(1, 1, 2), (2, 9, 4), (5, 64, 8), (3, 200, 16)])
    def test_each_model_equals_its_own_call(self, m, t, s):
        rng = np.random.default_rng(100 * m + t)
        logits = rng.normal(size=(m, t, s)) * 2.0
        logits[0] = np.tile(rng.normal(size=s), (t, 1))  # one model never changes
        y = rng.integers(0, s, size=t)
        alphas = np.array([0.0, 0.025, 0.1, 1.0, 0.05])[:m]
        res = sequence_loss_and_grad(logits, y, alphas)
        assert res.grad.shape == logits.shape and res.num_cc_positions[0] == 0
        for i in range(m):
            one = sequence_loss_and_grad(logits[i], y, float(alphas[i]))
            for name in ("total", "ce_part", "cons_part", "num_cc_positions"):
                assert getattr(res, name)[i] == getattr(one, name), name
            assert res.grad[i].tobytes() == one.grad.tobytes()

    def test_cons_part_matches_batched_form_per_model(self):
        # The stacked penalty against the independent batched reference.
        rng = np.random.default_rng(11)
        logits = rng.normal(size=(4, 16, 5)) * 2.0
        res = sequence_loss_and_grad(logits, rng.integers(0, 5, size=16), 1.0)
        for i in range(4):
            batched = batched_cc_loss(logits[i][None])
            assert batched == pytest.approx(res.cons_part[i], rel=1e-12, abs=1e-15)

    def test_scalar_alpha_applies_to_every_model(self):
        rng = np.random.default_rng(12)
        logits = rng.normal(size=(3, 10, 4))
        y = rng.integers(0, 4, size=10)
        a = sequence_loss_and_grad(logits, y, 0.05)
        b = sequence_loss_and_grad(logits, y, np.full(3, 0.05))
        assert a.total.tobytes() == b.total.tobytes()
        assert a.grad.tobytes() == b.grad.tobytes()

    @pytest.mark.parametrize("logits, alpha, match", [
        (np.zeros((2, 3, 2)), [0.0, 0.1, 0.2], "alpha shape"),
        (np.zeros((2, 3, 2)), [], "alpha shape"),
        (np.zeros((3, 2)), [0.0], "alpha shape"),
        (np.zeros((2, 3, 2)), [0.0, -0.1], "finite and >= 0"),
        (np.zeros((2, 3, 2)), [np.nan, 0.1], "finite and >= 0"),
        (np.zeros((3, 2)), np.inf, "finite and >= 0"),
        (np.zeros((1, 2, 3, 2)), 0.0, "2-d or 3-d"),
        (np.zeros((0, 3, 2)), [], "empty logit sequence"),
    ], ids=["too-many-alphas", "no-alpha", "alpha-array-for-one-model", "one-negative", "one-nan",
            "infinite", "four-d", "no-model"])
    def test_rejects_bad_stack(self, logits, alpha, match):
        y = np.zeros(logits.shape[-2], dtype=int)
        with pytest.raises(DomainError, match=match):
            sequence_loss_and_grad(logits, y, np.array(alpha))


@st.composite
def loss_stacks(draw):
    """(logits, gt, alphas) of an (M, T, S) stack.  Some models never change
    their argmax, and each model's first frame has another argmax than the
    previous model's last frame, so a change counted across models shows."""
    m = draw(st.integers(1, 8))
    t = draw(st.integers(1, 200))
    s = draw(st.sampled_from([2, 4, 8, 16]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    logits = rng.normal(size=(m, t, s)) * draw(st.sampled_from([0.1, 1.0, 5.0]))
    for i in range(m):
        if i:
            other = (logits[i - 1, -1].argmax() + 1 + rng.integers(s - 1)) % s
            logits[i, 0, other] = logits[i, 0].max() + 1.0
        if draw(st.booleans()):
            logits[i] = logits[i, :1]
    alphas = draw(st.lists(st.floats(0.0, 10.0), min_size=m, max_size=m))
    return logits, rng.integers(0, s, size=t), np.array(alphas)


@settings(max_examples=150, deadline=None)
@given(case=loss_stacks())
def test_stack_equals_each_models_own_call(case):
    logits, y, alphas = case
    res = sequence_loss_and_grad(logits, y, alphas)
    for i in range(len(logits)):
        one = sequence_loss_and_grad(logits[i], y, float(alphas[i]))
        for name in ("total", "ce_part", "cons_part", "num_cc_positions", "grad"):
            got, want = np.asarray(getattr(res, name)[i]), np.asarray(getattr(one, name))
            assert got.dtype == want.dtype and got.tobytes() == want.tobytes(), name
