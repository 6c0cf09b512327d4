"""Acceptance suite: one test (and one printed pass/fail line) per criterion.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines.  The ablation-trend criterion trains real models on synthetic data
and takes a couple of minutes of CPU; everything else is fast.
"""

import dataclasses
import time

import numpy as np
import pytest

from switchdet.losses import sequence_loss_and_grad
from switchdet.metrics import (
    f1_at_tiou,
    hungarian_assign,
    interval_map,
    point_map,
)
from switchdet.scorer import backward_sequence, forward_sequence, init_params
from switchdet.switchboard import (
    ActionInterval,
    SwitchConfig,
    decode_sequence,
    decode_streaming,
    encode_instances,
)
from switchdet.synthgen import SynthConfig, generate_stream
from switchdet.trainer import TrainConfig, sweep_alpha

from conftest import random_clean_instances, spans
from oracles import batched_cc_loss, concurrency_profile
from test_metrics import brute_force_assignment_cost, brute_force_tp


def report(criterion, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    print(f"\nACCEPTANCE {criterion}: {status} {detail}".rstrip())
    assert ok, f"criterion {criterion} failed: {detail}"


def test_criterion_1_encode_decode_round_trip():
    t0 = time.time()
    checked = 0
    for num_switches in (1, 2, 3, 4):
        rng = np.random.default_rng(1000 + num_switches)
        config = SwitchConfig(num_switches)
        for _ in range(1000):
            instances = random_clean_instances(rng, num_switches, length=128)
            labels, rep = encode_instances(instances, 128, config)
            assert rep.dropped_instances == [] and rep.merged_instances == []
            if spans(decode_sequence(labels, config)) != spans(instances):
                report(1, False, f"round trip mismatch at k={num_switches}")
            checked += 1
    elapsed = time.time() - t0
    report(
        1,
        elapsed < 10.0,
        f"{checked} instance sets round-tripped exactly in {elapsed:.2f}s",
    )


def test_criterion_2_streaming_equals_batch():
    rng = np.random.default_rng(2)
    for _ in range(1000):
        k = int(rng.integers(1, 5))
        config = SwitchConfig(k)
        t = int(rng.integers(1, 513))
        states = rng.integers(0, config.num_states, size=t)
        streamed = decode_streaming(states, config)
        batch = decode_sequence(states, config)
        same = spans(streamed) == spans(batch) and [
            i.truncated for i in streamed
        ] == [i.truncated for i in batch]
        if not same:
            report(2, False, f"divergence at k={k}, T={t}")
    report(2, True, "1000 random sequences, streaming == batch decode")


def _random_no_tie_logits(rng, t_max, s_max, margin=1e-3, t_min=1):
    while True:
        t = int(rng.integers(t_min, t_max + 1))
        s = int(rng.integers(2, s_max + 1))
        logits = rng.normal(size=(t, s)) * 2.0
        top2 = np.sort(logits, axis=1)[:, -2:]
        if (top2[:, 1] - top2[:, 0]).min() > margin:
            return logits


def test_criterion_3_loss_gradient_check():
    rng = np.random.default_rng(3)
    eps = 1e-4
    worst = 0.0
    for _ in range(100):
        logits = _random_no_tie_logits(rng, t_max=16, s_max=8)
        t, s = logits.shape
        y = rng.integers(0, s, size=t)
        for alpha in (0.0, 0.025, 0.1):
            res = sequence_loss_and_grad(logits, y, alpha)
            for i in range(t):
                for j in range(s):
                    lp = logits.copy()
                    lp[i, j] += eps
                    lm = logits.copy()
                    lm[i, j] -= eps
                    fd = (
                        sequence_loss_and_grad(lp, y, alpha).total
                        - sequence_loss_and_grad(lm, y, alpha).total
                    ) / (2 * eps)
                    rel = abs(fd - res.grad[i, j]) / max(
                        1e-8, abs(fd) + abs(res.grad[i, j])
                    )
                    worst = max(worst, rel)
    report(3, worst < 1e-5, f"max relative gradient error {worst:.2e}")


def test_criterion_4_full_chain_parameter_gradients():
    rng = np.random.default_rng(4)
    eps = 1e-5
    worst = 0.0
    checked = 0
    trial = 0
    while checked < 50:
        trial += 1
        t = int(rng.integers(2, 9))
        d = int(rng.integers(1, 5))
        h = int(rng.integers(1, 5))
        s = int(rng.integers(2, 5))
        params = init_params(d, h, s, seed=4000 + trial)
        xs = rng.normal(size=(t, d))
        y = rng.integers(0, s, size=t)
        logits, cache = forward_sequence(params, xs)
        top2 = np.sort(logits, axis=1)[:, -2:]
        if (top2[:, 1] - top2[:, 0]).min() < 1e-3:
            continue
        res = sequence_loss_and_grad(logits, y, 0.025)
        grads = backward_sequence(cache, res.grad)
        for arr, g in zip(params.arrays(), grads.arrays()):
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
                worst = max(worst, rel)
        checked += 1
    report(4, worst < 1e-5, f"50 instances, max relative error {worst:.2e}")


def test_criterion_5_batched_equals_sequence_form():
    rng = np.random.default_rng(5)
    for _ in range(200):
        logits = _random_no_tie_logits(rng, 16, 8, margin=0.0, t_min=2)
        y = rng.integers(0, logits.shape[1], size=logits.shape[0])
        res = sequence_loss_and_grad(logits, y, alpha=1.0)
        batched = batched_cc_loss(logits[None])
        if abs(batched - res.cons_part) > 1e-12 * max(1.0, abs(batched)):
            report(5, False, f"divergence {batched} vs {res.cons_part}")
    constant = np.tile([4.0, 0.0, 1.0], (3, 10, 1))
    y0 = np.zeros(10, dtype=int)
    assert batched_cc_loss(constant) == 0.0
    assert sequence_loss_and_grad(constant[0], y0, 1.0).cons_part == 0.0
    report(5, True, "200 cases equal to 1e-12; zero when prediction constant")


def test_criterion_6_matching_oracles():
    rng = np.random.default_rng(6)
    for _ in range(500):
        m, n = rng.integers(1, 8, size=2)
        cost = rng.normal(size=(m, n))
        pairs = hungarian_assign(cost)
        total = sum(cost[i, j] for i, j in pairs)
        if abs(total - brute_force_assignment_cost(cost)) > 1e-9:
            report(6, False, f"assignment cost {total} not optimal")
    for trial in range(500):
        num_p = int(rng.integers(0, 7))
        num_g = int(rng.integers(0, 7))
        preds = [
            ActionInterval(int(s), int(s + d))
            for s, d in zip(
                rng.integers(0, 50, num_p), rng.integers(0, 20, num_p)
            )
        ]
        gts = [
            ActionInterval(int(s), int(s + d))
            for s, d in zip(
                rng.integers(0, 50, num_g), rng.integers(0, 20, num_g)
            )
        ]
        rep = f1_at_tiou({"v": preds}, {"v": gts}, 0.5)
        if rep.tp != brute_force_tp(preds, gts, 0.5):
            report(6, False, f"TP {rep.tp} below oracle at trial {trial}")
    report(6, True, "500 assignments + 500 matchings agree with brute force")


# ---------------------------------------------------------------------------
# Criterion 7: ablation-trend reproduction on synthetic data.
# Training hyperparameters are fixed here; the whole block stays under the
# five-minute CPU budget.

TREND_TRAIN = TrainConfig(
    epochs=3, learning_rate=3e-3, bptt_len=128, hidden_dim=32
)
ALPHAS = (0.0, 0.01, 0.025, 0.05)


@pytest.fixture(scope="module")
def trend_rows():
    synth = dict(
        length=20000, arrival_rate=0.035, noise_sigma=0.25, signature_seed=7
    )
    train_set = [generate_stream(SynthConfig(seed=101, **synth))]
    eval_set = [generate_stream(SynthConfig(seed=501, **synth))]
    # sanity: the tuned arrival rate yields roughly 30% overlapping frames
    conc = concurrency_profile(train_set[0][1], 20000)
    assert 0.2 < (conc >= 2).mean() < 0.4
    t0 = time.time()
    rows = sweep_alpha(
        train_set, eval_set, alphas=[0.0], switch_counts=[1], base=TREND_TRAIN
    )
    rows += sweep_alpha(
        train_set, eval_set, alphas=list(ALPHAS), switch_counts=[2],
        base=TREND_TRAIN,
    )
    return {(r.num_switches, r.alpha): r for r in rows}, time.time() - t0


@pytest.fixture(scope="module")
def high_overlap_rows():
    synth = dict(
        length=20000, arrival_rate=0.06, max_concurrent=3,
        noise_sigma=0.25, signature_seed=7,
    )
    train_set = [generate_stream(SynthConfig(seed=111, **synth))]
    eval_set = [generate_stream(SynthConfig(seed=511, **synth))]
    t0 = time.time()
    rows = sweep_alpha(
        train_set, eval_set, alphas=[0.025], switch_counts=[1, 2, 3],
        base=TREND_TRAIN,
    )
    return {r.num_switches: r for r in rows}, time.time() - t0


@pytest.mark.slow
def test_criterion_7a_second_switch_raises_recall(trend_rows):
    rows, _ = trend_rows
    r1, r2 = rows[(1, 0.0)].recall, rows[(2, 0.0)].recall
    report("7a", r2 > r1, f"recall 2-switch {r2:.3f} > 1-switch {r1:.3f}")


@pytest.mark.slow
def test_criterion_7b_proposals_decrease_with_alpha(trend_rows):
    rows, _ = trend_rows
    props = [rows[(2, a)].num_proposals for a in ALPHAS]
    ok = all(a > b for a, b in zip(props, props[1:]))
    report("7b", ok, f"num_proposals over alpha {ALPHAS}: {props}")


@pytest.mark.slow
def test_criterion_7c_alpha_raises_precision(trend_rows):
    rows, _ = trend_rows
    p0, p25 = rows[(2, 0.0)].precision, rows[(2, 0.025)].precision
    report("7c", p25 > p0, f"precision {p25:.3f} (a=0.025) > {p0:.3f} (a=0)")


@pytest.mark.slow
def test_criterion_7d_recall_nondecreasing_in_switches(high_overlap_rows):
    rows, _ = high_overlap_rows
    recalls = [rows[k].recall for k in (1, 2, 3)]
    ok = all(a <= b for a, b in zip(recalls, recalls[1:]))
    report("7d", ok, f"high-overlap recall by switches: {recalls}")


@pytest.mark.slow
def test_criterion_7_runtime_budget(trend_rows, high_overlap_rows):
    total = trend_rows[1] + high_overlap_rows[1]
    report("7-budget", total < 300.0, f"trend training took {total:.0f}s")


def test_criterion_8_metric_sanity():
    rng = np.random.default_rng(8)
    gts = {
        "v": [
            ActionInterval(10, 40, class_id=0),
            ActionInterval(60, 90, class_id=1),
        ]
    }
    perfect = {
        "v": [
            ActionInterval(10, 40, class_id=0, score=0.9),
            ActionInterval(60, 90, class_id=1, score=0.8),
        ]
    }
    ok = f1_at_tiou(perfect, gts, 0.5).f1 == 1.0
    ap = interval_map(perfect, gts, [0.3, 0.5, 0.7, 0.9])
    ok = ok and all(v == 1.0 for v in ap.map_per_threshold.values())
    pm = point_map(perfect, gts, [1, 2, 3])
    ok = ok and all(v == 1.0 for v in pm.per_offset.values())
    for _ in range(100):
        case_gts = {
            "v": [
                ActionInterval(int(s), int(s) + 5)
                for s in rng.integers(0, 200, 4)
            ]
        }
        case_preds = {
            "v": [
                ActionInterval(int(s), int(s) + 5, score=float(sc))
                for s, sc in zip(rng.integers(0, 200, 5), rng.uniform(size=5))
            ]
        }
        vals = [
            point_map(case_preds, case_gts, [o]).per_offset[o]
            for o in (1, 2, 4, 8, 16)
        ]
        if not all(a <= b + 1e-12 for a, b in zip(vals, vals[1:])):
            report(8, False, f"p-AP not monotone: {vals}")
    report(8, ok, "perfect inputs score 1.0; p-AP monotone in offset")


def test_criterion_9_cli_determinism(tmp_path):
    from switchdet.cli import main
    from switchdet.formats import read_instances, write_instances

    feats = tmp_path / "x.aswf"
    gt = tmp_path / "gt.jsonl"
    scored = tmp_path / "scored.jsonl"
    states = tmp_path / "s.json"
    enc_report = tmp_path / "enc_report.json"
    decoded = tmp_path / "dec.jsonl"
    decoded_stream = tmp_path / "dec_stream.jsonl"
    ckpt = tmp_path / "m.aswp"
    history = tmp_path / "h.jsonl"
    preds = tmp_path / "p.jsonl"
    f1_out = tmp_path / "f1.json"
    map_out = tmp_path / "map.json"
    odas_out = tmp_path / "odas.json"
    sweep_out = tmp_path / "sweep.csv"

    commands = [
        ["gen", "--length", "600", "--arrival-rate", "0.03", "--seed", "9",
         "--out-features", str(feats), "--out-instances", str(gt)],
        ["encode", "--instances", str(gt), "--length", "600",
         "--num-switches", "2", "--out", str(states),
         "--report", str(enc_report)],
        ["decode", "--states", str(states), "--out", str(decoded)],
        ["decode", "--states", str(states), "--streaming",
         "--out", str(decoded_stream)],
        ["train", "--video", str(feats), str(gt), "--epochs", "1",
         "--hidden-dim", "8", "--seed", "3",
         "--out-checkpoint", str(ckpt), "--out-history", str(history)],
        ["infer", "--checkpoint", str(ckpt), "--features", str(feats),
         "--num-switches", "2", "--out", str(preds)],
        ["eval-f1", "--preds", str(decoded), "--gts", str(gt),
         "--out", str(f1_out)],
        ["eval-map", "--preds", str(scored), "--gts", str(gt),
         "--out", str(map_out)],
        ["eval-odas", "--preds", str(scored), "--gts", str(gt),
         "--fps", "5", "--out", str(odas_out)],
        ["sweep", "--alphas", "0,0.05", "--switches", "1", "--length", "400",
         "--eval-length", "300", "--epochs", "1", "--hidden-dim", "8",
         "--num-seeds", "2", "--seed", "7", "--out", str(sweep_out)],
    ]
    outputs = [
        feats, gt, states, enc_report, decoded, decoded_stream, ckpt,
        history, preds, f1_out, map_out, odas_out, sweep_out,
    ]
    first = {}
    for argv in commands:
        if argv[0] in ("eval-map", "eval-odas") and not scored.exists():
            # eval-map and eval-odas require scored class predictions,
            # which decode/infer outputs do not carry; derive a fixed
            # scored file from the generated ground truth.
            videos = read_instances(gt)
            write_instances(scored, {
                vid: [
                    dataclasses.replace(inst, score=0.9 - 0.01 * i)
                    for i, inst in enumerate(insts)
                ]
                for vid, insts in videos.items()
            })
        assert main(argv) == 0, argv
    for path in outputs:
        first[path] = path.read_bytes()
        manifest = path.with_name(path.name + ".manifest.json")
        if manifest.exists():
            first[manifest] = manifest.read_bytes()
    for argv in commands:
        assert main(argv) == 0, argv
    for path, blob in first.items():
        if path.read_bytes() != blob:
            report(9, False, f"output {path.name} changed between runs")
    report(9, True, f"{len(commands)} subcommands byte-identical on rerun")
