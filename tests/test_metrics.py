import dataclasses
import itertools
import math
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from switchdet.exceptions import DomainError
from switchdet.formats import read_instances, write_instances
from switchdet.metrics import (
    _iou,
    average_precision,
    f1_at_tiou,
    hungarian_assign,
    interval_map,
    point_map,
)
from switchdet.switchboard import FRAME_LIMIT, ActionInterval


def tiou(a, b):
    """Reference temporal IoU of two ActionIntervals over inclusive frames."""
    inter = min(a.end_frame, b.end_frame) - max(a.start_frame, b.start_frame) + 1
    if inter <= 0:
        return 0.0
    union = a.num_frames + b.num_frames - inter
    return inter / union


def brute_force_assignment_cost(cost):
    """Minimum total cost over all injective assignments of min(m, n) pairs."""
    m, n = cost.shape
    best = np.inf
    if m <= n:
        for perm in itertools.permutations(range(n), m):
            best = min(best, sum(cost[i, j] for i, j in enumerate(perm)))
    else:
        for perm in itertools.permutations(range(m), n):
            best = min(best, sum(cost[i, j] for j, i in enumerate(perm)))
    return best


def brute_force_tp(preds, gts, threshold):
    """Max count of matched pairs with tiou >= threshold over all matchings."""
    m, n = len(preds), len(gts)
    if m == 0 or n == 0:
        return 0
    hits = [
        [tiou(p, g) >= threshold for g in gts] for p in preds
    ]
    best = 0
    if m <= n:
        for perm in itertools.permutations(range(n), m):
            best = max(best, sum(hits[i][j] for i, j in enumerate(perm)))
    else:
        for perm in itertools.permutations(range(m), n):
            best = max(best, sum(hits[i][j] for j, i in enumerate(perm)))
    return best


def iv(start, end, **kw):
    return ActionInterval(start, end, **kw)


def _spans(intervals):
    return np.array([a.span for a in intervals], dtype=np.int64).reshape(-1, 2)


def overlap_matrix(rows, cols):
    """Temporal IoU of every (row, col) pair of two span arrays."""
    return _iou(rows[:, None], cols[None, :])


class TestTiou:
    def test_identical(self):
        assert tiou(iv(0, 9), iv(0, 9)) == 1.0

    def test_partial_overlap(self):
        assert tiou(iv(0, 9), iv(5, 14)) == pytest.approx(5 / 15)

    def test_disjoint(self):
        assert tiou(iv(0, 4), iv(10, 12)) == 0.0

    def test_symmetry(self):
        rng = np.random.default_rng(0)
        for _ in range(100):
            a = iv(int(rng.integers(0, 50)), int(rng.integers(50, 100)))
            b = iv(int(rng.integers(0, 50)), int(rng.integers(50, 100)))
            assert tiou(a, b) == tiou(b, a)
            assert tiou(a, a) == 1.0


class TestHungarian:
    def test_diagonal(self):
        assert hungarian_assign([[1, 2], [2, 1]]) == [(0, 0), (1, 1)]

    def test_cross(self):
        assert hungarian_assign([[4, 1], [2, 3]]) == [(0, 1), (1, 0)]

    def test_empty(self):
        assert hungarian_assign(np.zeros((0, 0))) == []

    def test_rejects_non_finite(self):
        with pytest.raises(DomainError):
            hungarian_assign([[np.inf, 1.0]])

    def test_rejects_non_matrix(self):
        with pytest.raises(DomainError, match="must be a matrix"):
            hungarian_assign([1.0, 2.0])

    def test_matches_brute_force(self):
        rng = np.random.default_rng(1)
        for _ in range(200):
            m, n = rng.integers(1, 8, size=2)
            cost = rng.normal(size=(m, n))
            pairs = hungarian_assign(cost)
            assert len(pairs) == min(m, n)
            total = sum(cost[i, j] for i, j in pairs)
            assert total == pytest.approx(
                brute_force_assignment_cost(cost), abs=1e-9
            )


class TestF1:
    def test_perfect(self):
        gts = {"v": [iv(0, 9), iv(20, 29)]}
        report = f1_at_tiou(gts, gts, 0.5)
        assert report.f1 == 1.0 and report.tp == 2

    def test_below_threshold(self):
        report = f1_at_tiou({"v": [iv(0, 9)]}, {"v": [iv(5, 14)]}, 0.5)
        assert report.tp == 0 and report.f1 == 0.0

    def test_extra_prediction(self):
        report = f1_at_tiou(
            {"v": [iv(0, 9), iv(50, 59)]}, {"v": [iv(0, 9)]}, 0.5
        )
        assert report.precision == 0.5
        assert report.recall == 1.0
        assert report.f1 == pytest.approx(2 / 3)

    def test_empty_vs_empty_convention(self):
        report = f1_at_tiou({}, {}, 0.5)
        assert report.precision == report.recall == report.f1 == 1.0

    def test_no_predictions(self):
        report = f1_at_tiou({}, {"v": [iv(0, 9)]}, 0.5)
        assert report.f1 == 0.0

    def test_micro_aggregation_across_videos(self):
        preds = {"a": [iv(0, 9)], "b": [iv(0, 9), iv(20, 25)]}
        gts = {"a": [iv(0, 9)], "b": [iv(0, 9)]}
        report = f1_at_tiou(preds, gts, 0.5)
        assert (report.tp, report.num_pred, report.num_gt) == (2, 3, 2)

    def test_bad_threshold(self):
        with pytest.raises(DomainError):
            f1_at_tiou({}, {}, 0.0)

    def test_tp_matches_brute_force(self):
        # p0 hits g0 and g1, p1 only g0: a greedy pass that gives p0 its
        # earliest-starting hit, g0, must be undone to reach tp = 2.
        cases = [([iv(1, 10), iv(0, 5)], [iv(0, 9), iv(2, 11)])]
        rng = np.random.default_rng(2)
        for _ in range(200):
            preds = [
                iv(int(s), int(s) + int(d))
                for s, d in zip(
                    rng.integers(0, 40, rng.integers(0, 6)),
                    rng.integers(0, 15, 6),
                )
            ]
            gts = [
                iv(int(s), int(s) + int(d))
                for s, d in zip(
                    rng.integers(0, 40, rng.integers(0, 6)),
                    rng.integers(0, 15, 6),
                )
            ]
            cases.append((preds, gts))
        assert brute_force_tp(*cases[0], 0.5) == 2
        for preds, gts in cases:
            report = f1_at_tiou({"v": preds}, {"v": gts}, 0.5)
            assert report.tp == brute_force_tp(preds, gts, 0.5)

    def test_augmenting_path_through_every_row(self):
        # p_i hits g_i and g_i+1 (IoU 5/15 each), and the last prediction
        # hits only g_0: every ground truth is matched only if one path
        # moves each p_i from g_i to g_i+1, longer than the recursion limit.
        n = 1500
        gts = [iv(10 * i, 10 * i + 9) for i in range(n + 1)]
        preds = [iv(10 * i + 5, 10 * i + 14) for i in range(n)] + [iv(0, 9)]
        report = f1_at_tiou({"v": preds}, {"v": gts}, 0.3)
        assert report.tp == n + 1


@st.composite
def few_intervals(draw):
    """Up to 6 intervals on a short timeline: shared starts are common, and
    some intervals repeat an earlier one exactly."""
    out = []
    for _ in range(draw(st.integers(0, 6))):
        if out and draw(st.booleans()):
            base = draw(st.sampled_from(out))
            end = base.end_frame if draw(st.booleans()) else base.start_frame + draw(
                st.integers(0, 8))
            out.append(iv(base.start_frame, end))
        else:
            start = draw(st.integers(0, 12))
            out.append(iv(start, start + draw(st.integers(0, 8))))
    return out


@settings(max_examples=150, deadline=None)
@given(few_intervals(), few_intervals())
def test_tp_equals_brute_force_on_few_intervals(preds, gts):
    for threshold in (0.1, 0.5, 1.0):
        report = f1_at_tiou({"v": preds}, {"v": gts}, threshold)
        assert report.tp == brute_force_tp(preds, gts, threshold)


class TestIntervalMap:
    def test_perfect(self):
        gts = {"v": [iv(0, 9, class_id=0), iv(20, 29, class_id=1)]}
        preds = {
            "v": [
                iv(0, 9, class_id=0, score=0.9),
                iv(20, 29, class_id=1, score=0.8),
            ]
        }
        report = interval_map(preds, gts, [0.3, 0.5, 0.7])
        assert report.average_map == 1.0
        assert all(v == 1.0 for v in report.map_per_threshold.values())

    def test_hit_ranked_first(self):
        gts = {"v": [iv(0, 9, class_id=0)]}
        preds = {
            "v": [
                iv(0, 9, class_id=0, score=0.9),
                iv(50, 59, class_id=0, score=0.8),
            ]
        }
        report = interval_map(preds, gts, [0.5])
        assert report.map_per_threshold[0.5] == 1.0

    def test_miss_ranked_first(self):
        gts = {"v": [iv(0, 9, class_id=0)]}
        preds = {
            "v": [
                iv(0, 9, class_id=0, score=0.8),
                iv(50, 59, class_id=0, score=0.9),
            ]
        }
        report = interval_map(preds, gts, [0.5])
        assert report.map_per_threshold[0.5] == 0.5

    def test_requires_scores(self):
        gts = {"v": [iv(0, 9, class_id=0)]}
        with pytest.raises(DomainError):
            interval_map({"v": [iv(0, 9, class_id=0)]}, gts, [0.5])

    def test_classless_predictions_score_one_pooled_ap(self):
        gts = {"v": [iv(0, 9, class_id=0)]}
        report = interval_map({"v": [iv(0, 9, score=0.5)]}, gts, [0.5])
        assert report.per_class_ap == {0.5: {None: 1.0}}
        assert report.average_map == 1.0

    def test_removing_correct_prediction_never_raises_ap(self):
        rng = np.random.default_rng(3)
        for _ in range(30):
            gts = {
                "v": [
                    iv(int(s), int(s) + 9, class_id=0)
                    for s in rng.integers(0, 90, 3) * 10
                ]
            }
            preds = {
                "v": [
                    iv(g.start_frame, g.end_frame, class_id=0, score=float(sc))
                    for g, sc in zip(gts["v"], rng.uniform(size=3))
                ]
            }
            full = interval_map(preds, gts, [0.5]).average_map
            reduced = interval_map(
                {"v": preds["v"][1:]}, gts, [0.5]
            ).average_map
            assert reduced <= full + 1e-12


class TestPointMap:
    def test_exact_starts(self):
        gts = {"v": [iv(10, 20, class_id=0)]}
        preds = {"v": [iv(10, 25, class_id=0, score=0.9)]}
        report = point_map(preds, gts, [1, 2, 3])
        assert all(v == 1.0 for v in report.per_offset.values())
        assert report.mean == 1.0

    def test_start_outside_every_offset(self):
        gts = {"v": [iv(14, 30)]}
        preds = {"v": [iv(10, 30, score=0.9)]}
        report = point_map(preds, gts, [1, 2, 3])
        assert all(v == 0.0 for v in report.per_offset.values())

    def test_monotone_in_offset(self):
        rng = np.random.default_rng(4)
        for _ in range(100):
            gts = {
                "v": [iv(int(s), int(s) + 5) for s in rng.integers(0, 100, 4)]
            }
            preds = {
                "v": [
                    iv(int(s), int(s) + 5, score=float(sc))
                    for s, sc in zip(
                        rng.integers(0, 100, 5), rng.uniform(size=5)
                    )
                ]
            }
            values = [
                point_map(preds, gts, [o]).per_offset[o] for o in (1, 3, 7, 15)
            ]
            assert all(a <= b + 1e-12 for a, b in zip(values, values[1:]))

    def test_requires_scores(self):
        with pytest.raises(DomainError):
            point_map({"v": [iv(0, 9)]}, {"v": [iv(0, 9)]}, [3])

    def test_rejects_bad_offsets(self):
        with pytest.raises(DomainError):
            point_map({}, {}, [0])

    @pytest.mark.parametrize("offsets, match", [
        ([2, 2.5, 3], r"whole frame counts, got \[2\.5\]"),
        ([1, 3, 1, 3.0, 4], r"must differ, got \[1, 3\] more than once"),
    ], ids=["fractional", "repeated"])
    def test_rejects_offsets_that_share_a_key(self, offsets, match):
        # The report has one key per frame count, so these would collide.
        preds = {"v": [iv(0, 9, class_id=0, score=0.9)]}
        gts = {"v": [iv(2, 9, class_id=0)]}
        with pytest.raises(DomainError, match=match):
            point_map(preds, gts, offsets)

    def test_whole_float_offsets_are_frame_counts(self):
        preds = {"v": [iv(0, 9, class_id=0, score=0.9)]}
        gts = {"v": [iv(2, 9, class_id=0)]}
        report = point_map(preds, gts, [1.0, 2.0, 3])
        assert report == point_map(preds, gts, [1, 2, 3])
        assert report.per_offset == {1: 0.0, 2: 1.0, 3: 1.0}

    def test_rejects_ground_truth_mixing_classed_and_classless(self):
        gts = {"v": [iv(10, 20, class_id=0), iv(40, 50)]}
        preds = {"v": [iv(10, 20, class_id=0, score=0.9)]}
        with pytest.raises(DomainError, match="class_id"):
            point_map(preds, gts, [3])


class TestAveragePrecision:
    def test_all_hits(self):
        assert average_precision([True, True], 2) == 1.0

    def test_no_preds(self):
        assert average_precision([], 3) == 0.0

    def test_rejects_no_ground_truth(self):
        with pytest.raises(DomainError, match="at least one ground truth"):
            average_precision([True], 0)

    def test_in_unit_interval(self):
        rng = np.random.default_rng(5)
        for _ in range(100):
            num_gt = int(rng.integers(1, 8))
            flags = (rng.uniform(size=rng.integers(1, 10)) < 0.5).tolist()
            # each hit consumes one ground truth, so cap the hit count
            while sum(flags) > num_gt:
                flags[flags.index(True)] = False
            ap = average_precision(flags, num_gt)
            assert 0.0 <= ap <= 1.0


# Scalar reference implementations: the per-pair loops that the vectorised
# metrics replaced, kept here as oracles.


def reference_average_precision(tp_flags, num_gt):
    if not len(tp_flags):
        return 0.0
    flags = np.asarray(tp_flags, dtype=np.float64)
    cum_tp = np.cumsum(flags)
    precision = cum_tp / np.arange(1, flags.size + 1)
    recall = cum_tp / num_gt
    mprec = np.concatenate(([0.0], precision, [0.0]))
    mrec = np.concatenate(([0.0], recall, [1.0]))
    for i in range(mprec.size - 2, -1, -1):
        mprec[i] = max(mprec[i], mprec[i + 1])
    idx = np.flatnonzero(mrec[1:] != mrec[:-1]) + 1
    return float(np.sum((mrec[idx] - mrec[idx - 1]) * mprec[idx]))


def reference_ranked(preds):
    flat = [(vid, i, p) for vid in sorted(preds) for i, p in enumerate(preds[vid])]
    flat.sort(key=lambda rec: (-rec[2].score, rec[2].start_frame, rec[0], rec[1]))
    return flat


def reference_interval_map(preds, gts, thresholds):
    ranked = reference_ranked(preds)
    classes = sorted({g.class_id for vg in gts.values() for g in vg})
    gt_by_class = {c: {} for c in classes}
    for video_id in gts:
        for g in gts[video_id]:
            gt_by_class[g.class_id].setdefault(video_id, []).append(g)
    per_class_ap, map_per_threshold = {}, {}
    for thr in thresholds:
        by_class = {}
        for c in classes:
            class_gts = gt_by_class[c]
            num_gt = sum(len(v) for v in class_gts.values())
            matched = {vid: [False] * len(v) for vid, v in class_gts.items()}
            flags = []
            for video_id, _, p in ranked:
                if p.class_id != c:
                    continue
                best, best_iou = -1, thr
                for j, g in enumerate(class_gts.get(video_id, [])):
                    if matched[video_id][j]:
                        continue
                    overlap = tiou(p, g)
                    if overlap >= best_iou:
                        best, best_iou = j, overlap
                if best >= 0:
                    matched[video_id][best] = True
                flags.append(best >= 0)
            by_class[c] = reference_average_precision(flags, num_gt)
        per_class_ap[thr] = by_class
        map_per_threshold[thr] = (
            float(np.mean(list(by_class.values()))) if by_class else 0.0
        )
    average_map = float(np.mean(list(map_per_threshold.values())))
    return {"per_class_ap": per_class_ap, "map": map_per_threshold,
            "average_map": average_map}


def reference_point_map(preds, gts, offsets):
    classwise = {g.class_id is not None for vg in gts.values() for g in vg} == {True}
    ranked = reference_ranked(preds)
    classes = (
        sorted({g.class_id for vg in gts.values() for g in vg})
        if classwise else [None]
    )
    per_offset = {}
    for offset in offsets:
        aps = []
        for c in classes:
            class_gts = {
                vid: [g for g in vg if not classwise or g.class_id == c]
                for vid, vg in gts.items()
            }
            num_gt = sum(len(v) for v in class_gts.values())
            if num_gt == 0:
                continue
            matched = {vid: [False] * len(v) for vid, v in class_gts.items()}
            flags = []
            for video_id, _, p in ranked:
                if classwise and p.class_id != c:
                    continue
                best, best_dist = -1, offset + 1
                for j, g in enumerate(class_gts.get(video_id, [])):
                    if matched[video_id][j]:
                        continue
                    dist = abs(p.start_frame - g.start_frame)
                    if dist <= offset and dist < best_dist:
                        best, best_dist = j, dist
                if best >= 0:
                    matched[video_id][best] = True
                flags.append(best >= 0)
            aps.append(reference_average_precision(flags, num_gt))
        per_offset[int(offset)] = float(np.mean(aps)) if aps else 0.0
    return per_offset, float(np.mean(list(per_offset.values())))


def dense_tp(vp, vg, threshold):
    """True positives of one dense assignment over the whole video."""
    if not vp or not vg:
        return 0
    overlaps = np.array([[tiou(p, g) for g in vg] for p in vp])
    hit_bonus = float(min(len(vp), len(vg)) + 1)
    cost = -(overlaps + hit_bonus * (overlaps >= threshold))
    return sum(overlaps[i, j] >= threshold for i, j in hungarian_assign(cost))


def random_stream(rng, count, length, max_len, num_classes=None, scored=False):
    """Random intervals with forced ties: repeated intervals, equal starts
    and grid-aligned intervals."""
    out = []
    for _ in range(count):
        roll = rng.random()
        if out and roll < 0.15:
            base = out[int(rng.integers(len(out)))]
            start, end = base.start_frame, base.end_frame
        elif out and roll < 0.3:
            start = out[int(rng.integers(len(out)))].start_frame
            end = start + int(rng.integers(0, max_len))
        elif roll < 0.6:
            # On a coarse grid, equal IoUs and distances are common.
            start = 5 * int(rng.integers(0, length // 5))
            end = start + 5 * int(rng.integers(1, 4)) - 1
        else:
            start = int(rng.integers(0, length))
            end = start + int(rng.integers(0, max_len))
        kw = {}
        if num_classes:
            kw["class_id"] = int(rng.integers(num_classes))
        if scored:
            # Few distinct scores, so ranking ties are common.
            kw["score"] = float(rng.integers(1, 6)) / 5
        out.append(iv(start, end, **kw))
    return out


def random_videos(rng, num_classes, scored, length):
    videos = {}
    for v in range(int(rng.integers(1, 4))):
        videos[f"v{v}"] = random_stream(
            rng, int(rng.integers(0, 25)), length, 40, num_classes, scored
        )
    return videos


class TestOverlapMatrix:
    def test_equals_scalar_tiou_exactly(self):
        rng = np.random.default_rng(10)
        for _ in range(50):
            rows = random_stream(rng, int(rng.integers(1, 20)), 100, 12)
            cols = random_stream(rng, int(rng.integers(1, 20)), 100, 12)
            rows.append(iv(7, 7))  # single frame
            cols += [iv(7, 7), iv(500, 510)]  # single frame; disjoint from all
            got = overlap_matrix(_spans(rows), _spans(cols))
            want = np.array([[tiou(a, b) for b in cols] for a in rows])
            assert got.shape == want.shape
            assert (got == want).all()


class TestF1Groups:
    def test_tp_equals_dense_assignment(self):
        rng = np.random.default_rng(12)
        for _ in range(30):
            preds, gts = {}, {}
            for v in range(int(rng.integers(1, 4))):
                preds[f"v{v}"] = random_stream(rng, int(rng.integers(20, 80)), 3000, 60)
                gts[f"v{v}"] = random_stream(rng, int(rng.integers(10, 50)), 3000, 60)
            for threshold in (0.3, 0.5, 0.7):
                report = f1_at_tiou(preds, gts, threshold)
                want = sum(dense_tp(preds[v], gts[v], threshold) for v in preds)
                assert report.tp == want

    def test_rejects_disjoint_video_ids(self):
        with pytest.raises(DomainError, match="share no video id"):
            f1_at_tiou({"video": [iv(0, 9)]}, {"synth": [iv(0, 9)]}, 0.5)

    def test_partly_shared_video_ids_are_scored(self):
        report = f1_at_tiou(
            {"a": [iv(0, 9)], "b": [iv(0, 9)]}, {"a": [iv(0, 9)], "c": [iv(5, 9)]}, 0.5
        )
        assert (report.tp, report.num_pred, report.num_gt) == (1, 2, 2)


class TestRankedMatcher:
    def test_interval_map_equals_scalar_loop(self):
        rng = np.random.default_rng(13)
        thresholds = [0.1, 0.3, 0.5, 0.7, 1.0]
        for classes in (1, 3):
            for _ in range(60):
                # Short videos pack intervals densely: ties that change a match.
                length = int(rng.choice([100, 300]))
                gts = random_videos(rng, classes, False, length)
                preds = random_videos(rng, classes, True, length)
                preds["only_preds"] = random_stream(
                    rng, 5, 300, 40, classes, scored=True
                )
                if not any(gts.values()):
                    continue
                got = interval_map(preds, gts, thresholds)
                want = reference_interval_map(preds, gts, thresholds)
                assert got.per_class_ap == want["per_class_ap"]
                assert got.map_per_threshold == want["map"]
                assert got.average_map == want["average_map"]

    def test_point_map_equals_scalar_loop(self):
        rng = np.random.default_rng(14)
        for classes in (3, None):
            for _ in range(60):
                length = int(rng.choice([100, 300]))
                gts = random_videos(rng, classes, False, length)
                preds = random_videos(rng, 3, True, length)
                preds["only_preds"] = random_stream(rng, 5, 300, 40, 3, scored=True)
                got = point_map(preds, gts, [1, 4, 10])
                per_offset, mean = reference_point_map(preds, gts, [1, 4, 10])
                assert got.per_offset == per_offset
                assert got.mean == mean

    def test_tie_breaks_follow_the_scalar_loop(self):
        # The first prediction is equally close to both ground truths; the
        # second only fits the later one.  Interval mAP takes the last of
        # equal IoUs, so the second prediction misses (AP 0.5); point AP
        # takes the first of equal distances, so it hits (AP 1.0).
        gts = {"v": [iv(0, 9, class_id=0), iv(10, 19, class_id=0)]}
        preds = {
            "v": [
                iv(5, 14, class_id=0, score=0.9),
                iv(10, 19, class_id=0, score=0.8),
            ]
        }
        assert interval_map(preds, gts, [0.3]).average_map == 0.5
        assert point_map(preds, gts, [5]).mean == 1.0

    def test_taken_best_and_next_candidate_below_the_floor(self):
        # Both predictions best fit the first ground truth; the first takes
        # it.  The second's next candidate, the other ground truth, has IoU
        # 0.25 (start distance 5): a hit at the lower floor, a miss at the
        # higher one, where nothing open is left to take.
        gts = {"v": [iv(0, 9, class_id=0), iv(5, 19, class_id=0)]}
        preds = {
            "v": [
                iv(0, 9, class_id=0, score=0.9),
                iv(0, 9, class_id=0, score=0.8),
            ]
        }
        got = interval_map(preds, gts, [0.2, 0.3])
        want = reference_interval_map(preds, gts, [0.2, 0.3])
        assert got.map_per_threshold == want["map"] == {0.2: 1.0, 0.3: 0.5}
        assert got.per_class_ap == want["per_class_ap"]
        got = point_map(preds, gts, [4, 6])
        assert (got.per_offset, got.mean) == reference_point_map(preds, gts, [4, 6])
        assert got.per_offset == {4: 0.5, 6: 1.0}

    def test_average_precision_equals_envelope_loop(self):
        rng = np.random.default_rng(15)
        for _ in range(200):
            flags = (rng.uniform(size=rng.integers(0, 30)) < 0.4).tolist()
            num_gt = sum(flags) + int(rng.integers(1, 5))
            want = reference_average_precision(flags, num_gt)
            assert average_precision(flags, num_gt) == want


def relabelled(videos, class_id):
    return {
        vid: [dataclasses.replace(x, class_id=class_id) for x in intervals]
        for vid, intervals in videos.items()
    }


class TestClassRule:
    """Classwise when every interval has a class_id, pooled when a side has none."""

    def test_pooled_interval_map_equals_scalar_loop_on_one_class(self):
        rng = np.random.default_rng(16)
        thresholds = [0.1, 0.3, 0.5, 0.7, 1.0]
        for classes in (1, 3):
            for case in range(60):
                length = int(rng.choice([100, 300]))
                gts = random_videos(rng, classes, False, length)
                preds = random_videos(rng, classes, True, length)
                preds["only_preds"] = random_stream(
                    rng, 5, 300, 40, classes, scored=True
                )
                # Strip the classes of one side, in turn.
                if case % 2:
                    gts = relabelled(gts, None)
                else:
                    preds = relabelled(preds, None)
                if not any(gts.values()):
                    continue
                got = interval_map(preds, gts, thresholds)
                want = reference_interval_map(
                    relabelled(preds, 0), relabelled(gts, 0), thresholds
                )
                assert got.per_class_ap == {
                    thr: {None: by_class[0]}
                    for thr, by_class in want["per_class_ap"].items()
                }
                assert got.map_per_threshold == want["map"]
                assert got.average_map == want["average_map"]

    def test_point_map_pools_classless_predictions(self):
        rng = np.random.default_rng(17)
        for _ in range(60):
            length = int(rng.choice([100, 300]))
            gts = random_videos(rng, 3, False, length)
            preds = random_videos(rng, None, True, length)
            got = point_map(preds, gts, [1, 4, 10])
            want = reference_point_map(preds, relabelled(gts, None), [1, 4, 10])
            assert (got.per_offset, got.mean) == want

    def test_mixed_predictions_rejected(self):
        gts = {"v": [iv(0, 9, class_id=0)]}
        preds = {"v": [iv(0, 9, class_id=0, score=0.9), iv(20, 29, score=0.8)]}
        with pytest.raises(DomainError, match="predictions mix"):
            interval_map(preds, gts, [0.5])
        with pytest.raises(DomainError, match="predictions mix"):
            point_map(preds, gts, [3])


class TestVideoIds:
    def test_interval_map_rejects_disjoint_video_ids(self):
        with pytest.raises(DomainError, match="share no video id"):
            interval_map(
                {"video": [iv(0, 9, class_id=0, score=0.9)]},
                {"synth": [iv(0, 9, class_id=0)]},
                [0.5],
            )

    def test_point_map_rejects_disjoint_video_ids(self):
        with pytest.raises(DomainError, match="share no video id"):
            point_map({"video": [iv(0, 9, score=0.9)]}, {"synth": [iv(0, 9)]}, [3])

    def test_empty_predictions_stay_legal(self):
        gts = {"v": [iv(0, 9, class_id=0)]}
        assert f1_at_tiou({}, gts, 0.5).f1 == 0.0
        assert interval_map({}, gts, [0.5]).average_map == 0.0
        assert point_map({}, gts, [3]).mean == 0.0


class TestIntervalMapThresholds:
    def test_no_threshold_rejected(self):
        gts = {"v": [iv(0, 9, class_id=0)]}
        with pytest.raises(DomainError, match="no IoU thresholds"):
            interval_map({"v": []}, gts, [])

    def test_zero_threshold_rejected(self):
        # A prediction far from the ground truth used to score mAP 1.0 at 0.0.
        gts = {"v": [iv(0, 9, class_id=0)]}
        preds = {"v": [iv(100, 109, class_id=0, score=0.9)]}
        with pytest.raises(DomainError, match=r"\(0, 1\]"):
            interval_map(preds, gts, [0.0])

    @pytest.mark.parametrize("bad", [-0.5, 1.5, float("nan")])
    def test_out_of_range_threshold_rejected(self, bad):
        gts = {"v": [iv(0, 9, class_id=0)]}
        preds = {"v": [iv(0, 9, class_id=0, score=0.9)]}
        with pytest.raises(DomainError):
            interval_map(preds, gts, [0.5, bad])

    def test_threshold_one_accepted(self):
        gts = {"v": [iv(0, 9, class_id=0)]}
        preds = {"v": [iv(0, 9, class_id=0, score=0.9)]}
        assert interval_map(preds, gts, [1.0]).average_map == 1.0

    def test_repeated_thresholds_rejected(self):
        # The report has one key per threshold: a repeat would be averaged once.
        gts = {"v": [iv(0, 9, class_id=0)]}
        preds = {"v": [iv(0, 9, class_id=0, score=0.9)]}
        with pytest.raises(DomainError, match=r"IoU thresholds must differ, got \[0\.5\] more"):
            interval_map(preds, gts, [0.5, 0.5, 0.9])


def test_ranked_metrics_take_numpy_floors():
    gts = {"v": [iv(0, 9, class_id=0), iv(20, 29, class_id=0)]}
    preds = {"v": [iv(1, 9, class_id=0, score=0.9), iv(24, 29, class_id=0, score=0.8)]}
    assert (interval_map(preds, gts, np.array([0.5, 0.7]))
            == interval_map(preds, gts, [0.5, 0.7]))
    assert point_map(preds, gts, np.array([1, 3])) == point_map(preds, gts, [1, 3])
    with pytest.raises(DomainError, match="no IoU thresholds"):
        interval_map(preds, gts, np.array([]))
    with pytest.raises(DomainError, match=r"IoU thresholds must differ"):
        interval_map(preds, gts, np.array([0.5, 0.5]))
    with pytest.raises(DomainError, match=r"offsets must differ"):
        point_map(preds, gts, np.array([2, 2]))


# The dense matcher that the sorted-sweep candidate search replaced, kept as
# a reference: every (prediction, ground truth) gain of a video in one
# matrix, per class.


def dense_iou_gain(pred_spans, gt_spans):
    return overlap_matrix(pred_spans, gt_spans[::-1])


def dense_start_gain(pred_spans, gt_spans):
    dist = np.abs(pred_spans[:, None, 0] - gt_spans[None, :, 0])
    return -dist.astype(np.float64)


def dense_ranked_flags(ranked, gts, gain, floors):
    flags = np.zeros((len(floors), len(ranked)), dtype=bool)
    positions = {}
    for at, (video_id, _) in enumerate(ranked):
        positions.setdefault(video_id, []).append(at)
    lowest = min(floors)
    for video_id, at in positions.items():
        if not gts.get(video_id):
            continue
        gains = gain(_spans([ranked[i][1] for i in at]), _spans(gts[video_id]))
        rows, cols = np.nonzero(gains >= lowest)
        cand_gains = gains[rows, cols]
        order = np.lexsort((cols, -cand_gains, rows))
        pairs = list(zip(cand_gains[order].tolist(), cols[order].tolist()))
        bounds = np.searchsorted(rows, np.arange(len(at) + 1)).tolist()
        candidates = [
            (at[row], pairs[lo:hi])
            for row, (lo, hi) in enumerate(zip(bounds, bounds[1:]))
            if lo < hi
        ]
        for hits, floor in zip(flags, floors):
            taken = set()
            hit_at = []
            for pos, row_pairs in candidates:
                for g, col in row_pairs:
                    if g < floor:
                        break
                    if col not in taken:
                        taken.add(col)
                        hit_at.append(pos)
                        break
            hits[hit_at] = True
    return flags


def dense_ap_per_class(preds, gts, gain, floors):
    pooled = False
    for videos in (preds, gts):
        has_class = {iv.class_id is not None for vs in videos.values() for iv in vs}
        pooled |= has_class == {False}
    ranked = [(video_id, p) for video_id in sorted(preds) for p in preds[video_id]]
    ranked.sort(key=lambda rec: (-rec[1].score, rec[1].start_frame))
    gt_by_class = {}
    for video_id, vg in gts.items():
        for g in vg:
            c = None if pooled else g.class_id
            gt_by_class.setdefault(c, {}).setdefault(video_id, []).append(g)
    per_class = {floor: {} for floor in floors}
    for c in sorted(gt_by_class):
        class_gts = gt_by_class[c]
        num_gt = sum(len(v) for v in class_gts.values())
        class_ranked = [(vid, p) for vid, p in ranked if pooled or p.class_id == c]
        flags = dense_ranked_flags(class_ranked, class_gts, gain, list(per_class))
        for by_class, hits in zip(per_class.values(), flags):
            by_class[c] = average_precision(hits, num_gt)
    means = {
        floor: float(np.mean(list(by_class.values()))) if by_class else 0.0
        for floor, by_class in per_class.items()
    }
    return per_class, means, float(np.mean(list(means.values())))


@st.composite
def scored_videos(draw):
    """Ground truth and scored predictions of a few videos, dense with ties:
    equal scores, starts and IoUs on a coarse grid, single-frame intervals,
    and classes that only one side has."""
    length = draw(st.sampled_from([40, 150]))
    classless = draw(st.sampled_from(["neither", "preds", "gts"]))

    def stream(scored, classes):
        out = []
        for _ in range(draw(st.integers(0, 14))):
            start = draw(st.integers(0, length // 5)) * 5 + draw(st.sampled_from([0, 0, 1, 3]))
            end = start + draw(st.sampled_from([0, 0, 4, 9, 14, draw(st.integers(0, 40))]))
            kw = {"class_id": draw(st.sampled_from(classes)) if classes else None}
            if scored:
                kw["score"] = draw(st.sampled_from([0.2, 0.4, 0.6, 0.8, 1.0]))
            out.append(iv(start, end, **kw))
        return out

    gts, preds = {}, {}
    for v in range(draw(st.integers(1, 3))):
        gts[f"v{v}"] = stream(False, None if classless == "gts" else [0, 1, 2])
        preds[f"v{v}"] = stream(True, None if classless == "preds" else [1, 2, 3])
    if draw(st.booleans()):
        preds["only_preds"] = stream(True, None if classless == "preds" else [0, 1])
    return preds, gts


@settings(max_examples=100, deadline=None)
@given(videos=scored_videos())
def test_interval_map_equals_dense_reference(videos):
    preds, gts = videos
    thresholds = [0.1, 0.3, 0.5, 0.7, 1.0]
    got = interval_map(preds, gts, thresholds)
    per_class, means, mean = dense_ap_per_class(preds, gts, dense_iou_gain, thresholds)
    assert (got.per_class_ap, got.map_per_threshold, got.average_map) == (
        per_class, means, mean)


@settings(max_examples=100, deadline=None)
@given(videos=scored_videos())
def test_point_map_equals_dense_reference(videos):
    preds, gts = videos
    offsets = [1, 4, 10, 2]
    got = point_map(preds, gts, offsets)
    _, means, mean = dense_ap_per_class(preds, gts, dense_start_gain, [-o for o in offsets])
    assert got.per_offset == {int(-floor): m for floor, m in means.items()}
    assert got.mean == mean


class TestEntryConversion:
    """Library callers' intervals pass the checks of the instance reader."""

    @pytest.mark.parametrize("metric", [
        lambda p, g: f1_at_tiou(p, g, 0.5),
        lambda p, g: interval_map(p, g, [0.5]),
        lambda p, g: point_map(p, g, [3]),
    ], ids=["f1", "interval_map", "point_map"])
    @pytest.mark.parametrize("bad, match", [
        (iv(0, 10**23, class_id=0, score=0.9), "must be below 2\\*\\*62"),
        (iv(2**62, 2**62, class_id=0, score=0.9), "must be below 2\\*\\*62"),
        (iv(0, 9, class_id=0, score=float("nan")), "score must be finite"),
        (iv(0, 9, class_id=0, score=float("inf")), "score must be finite"),
        (iv(0, 9, class_id=0, score=10**400), "score must be finite"),
        (iv(0, 9, class_id=2**63, score=0.9), "class_id must fit int64"),
    ], ids=["huge-end", "end-at-limit", "nan-score", "inf-score", "huge-int-score",
            "huge-class"])
    def test_rejects_values_beyond_the_columns(self, metric, bad, match):
        gts = {"v": [iv(0, 9, class_id=0)]}
        with pytest.raises(DomainError, match=match):
            metric({"v": [iv(0, 9, class_id=0, score=0.5), bad]}, gts)
        with pytest.raises(DomainError, match=match):
            metric({"v": [iv(0, 9, class_id=0, score=0.5)]}, {"v": [bad]})

    @pytest.mark.parametrize("metric", [
        lambda p, g: f1_at_tiou(p, g, 0.5),
        lambda p, g: interval_map(p, g, [0.5]),
        lambda p, g: point_map(p, g, [3]),
    ], ids=["f1", "interval_map", "point_map"])
    @pytest.mark.parametrize("bad, match", [
        (iv(0.5, 5.7, class_id=0, score=0.9), "start and end must be integers"),
        (iv(False, True, class_id=0, score=0.9), "start and end must be integers"),
        (iv(np.int64(0), np.int64(9), class_id=0, score=0.9), "start and end must be integers"),
        (iv(0, 9, class_id=True, score=0.9), "class_id must be an integer"),
        (iv(0, 9, class_id=0, score="0.9"), "score must be a number"),
        (iv(0, 9, class_id=0, score=0.9, truncated="no"), "truncated must be true or false"),
    ], ids=["float-frames", "bool-frames", "numpy-frames", "bool-class", "string-score",
            "string-truncated"])
    def test_rejects_what_a_record_cannot_hold(self, metric, bad, match):
        gts = {"v": [iv(0, 9, class_id=0)]}
        with pytest.raises(DomainError, match=f"^video v: bad instance record .*{match}"):
            metric({"v": [iv(0, 9, class_id=0, score=0.5), bad]}, gts)
        with pytest.raises(DomainError, match=match):
            metric({"v": [iv(0, 9, class_id=0, score=0.5)]}, {"v": [bad]})

    def test_largest_frames_score_exactly(self):
        top = 2**62 - 1
        gts = {"v": [iv(0, top, class_id=0), iv(top, top, class_id=0)]}
        preds = {"v": [iv(0, top, class_id=0, score=0.9), iv(top, top, class_id=0, score=0.8)]}
        assert f1_at_tiou(preds, gts, 1.0).tp == 2
        assert interval_map(preds, gts, [1.0]).average_map == 1.0
        assert point_map(preds, gts, [1]).mean == 1.0

    @pytest.mark.parametrize("offset", [float("nan"), float("inf")])
    def test_rejects_non_finite_offset(self, offset):
        with pytest.raises(DomainError, match="positive and finite"):
            point_map({}, {"v": [iv(0, 9)]}, [3, offset])


# Values an ActionInterval holds but an instance record does not, as
# (field, value); "frames" replaces both start and end.
UNRECORDABLE = [
    ("frames", (0.5, 5.7)), ("frames", (0.0, 5.0)), ("frames", (False, True)),
    ("frames", (np.int64(2), np.int64(7))), ("frames", (3, FRAME_LIMIT)),
    ("class_id", True), ("class_id", 2**63), ("class_id", -(2**63) - 1),
    ("score", math.nan), ("score", math.inf), ("score", 10**400), ("score", "0.9"),
    ("truncated", "no"), ("truncated", 1), ("truncated", None), ("truncated", np.True_),
]


@st.composite
def recordable_or_not(draw):
    """Predictions and ground truth of the same videos, every interval classed
    and every prediction scored, where some intervals may hold a value from
    UNRECORDABLE.  Valid values include the columns' extremes."""

    def interval(scored):
        start = draw(st.sampled_from([0, 2, 5, 9, FRAME_LIMIT - 12]))
        fields = {
            "frames": (start, start + draw(st.sampled_from([0, 3, 8, 11]))),
            "class_id": draw(st.sampled_from([0, 1, -(2**63), 2**63 - 1])),
            "score": draw(st.sampled_from([0.25, 0.5, 1, 10**300]
                                          + ([] if scored else [None]))),
            "truncated": draw(st.booleans()),
        }
        if draw(st.integers(0, 3)) == 0:
            field, value = draw(st.sampled_from(UNRECORDABLE))
            fields[field] = value
        (start, end), kw = fields.pop("frames"), fields
        return ActionInterval(start, end, **kw)

    # Each video has an interval on both sides, since a file has no line for
    # a video without one; and lists come in the order the writer sorts them
    # to, since ranking ties keep each video's record order.
    names = [f"v{i}" for i in range(draw(st.integers(1, 3)))]
    return tuple(
        {v: sorted((interval(scored) for _ in range(draw(st.integers(1, 4)))),
                   key=lambda a: a.span) for v in names}
        for scored in (True, False))


RULE_METRICS = [
    lambda p, g: f1_at_tiou(p, g, 0.5),
    lambda p, g: interval_map(p, g, [0.3, 0.7]),
    lambda p, g: point_map(p, g, [1, 5]),
]


@settings(max_examples=150, deadline=None)
@given(videos=recordable_or_not())
def test_metrics_refuse_exactly_what_the_writer_refuses(videos):
    preds, gts = videos
    with tempfile.TemporaryDirectory() as tmp:
        paths = [Path(tmp, "preds.jsonl"), Path(tmp, "gts.jsonl")]
        try:
            for path, side in zip(paths, videos):
                write_instances(path, side)
        except DomainError:
            written = None
        else:
            written = [read_instances(path) for path in paths]
    for metric in RULE_METRICS:
        if written is None:
            with pytest.raises(DomainError):
                metric(preds, gts)
        else:
            assert metric(preds, gts).to_json() == metric(*written).to_json()


F1_THRESHOLDS = [0.1, 0.5, 1.0]
MAP_THRESHOLDS = [0.1, 0.3, 0.5, 0.7, 1.0]
OFFSETS = [1, 4, 10]


def f1_reports(preds, gts):
    return [f1_at_tiou(preds, gts, t).to_json() for t in F1_THRESHOLDS]


def ap_reports(preds, gts):
    return (interval_map(preds, gts, MAP_THRESHOLDS).to_json(),
            point_map(preds, gts, OFFSETS).to_json())


def frames_of(*sides):
    return [f for side in sides for vs in side.values() for a in vs for f in a.span]


@settings(max_examples=100, deadline=None)
@given(videos=scored_videos(), data=st.data())
def test_shifting_every_interval_leaves_every_metric(videos, data):
    frames = frames_of(*videos)
    shift = data.draw(st.integers(-min(frames, default=0),
                                  FRAME_LIMIT - 1 - max(frames, default=0)))
    moved = tuple(
        {v: [dataclasses.replace(a, start_frame=a.start_frame + shift,
                                 end_frame=a.end_frame + shift) for a in vs]
         for v, vs in side.items()}
        for side in videos)
    assert f1_reports(*moved) == f1_reports(*videos)
    assert ap_reports(*moved) == ap_reports(*videos)


@settings(max_examples=100, deadline=None)
@given(videos=scored_videos(), data=st.data())
def test_permuting_records_and_renaming_videos(videos, data):
    preds, gts = videos
    ids = sorted(set(preds) | set(gts))
    names = data.draw(st.lists(st.text(min_size=1, max_size=3), min_size=len(ids),
                               max_size=len(ids), unique=True))
    rename = dict(zip(ids, names))
    moved_preds = {rename[v]: data.draw(st.permutations(vs)) for v, vs in preds.items()}
    renamed_gts = {rename[v]: vs for v, vs in gts.items()}
    moved_gts = {v: data.draw(st.permutations(vs)) for v, vs in renamed_gts.items()}
    assert f1_reports(moved_preds, moved_gts) == f1_reports(preds, gts)
    # Ranking ties on (score, start) break by (video, index) order.  Ground
    # truth keeps its order for AP: of two ground truths equally near a
    # prediction, the greedy match takes the one its index picks.
    keys = [(a.score, a.start_frame) for vs in preds.values() for a in vs]
    if len(set(keys)) == len(keys):
        assert ap_reports(moved_preds, renamed_gts) == ap_reports(preds, gts)


@settings(max_examples=100, deadline=None)
@given(videos=scored_videos(), data=st.data())
def test_an_unmatched_last_prediction_leaves_ap(videos, data):
    preds, gts = videos
    pred_classes = {a.class_id is None for vs in preds.values() for a in vs}
    gt_classes = {a.class_id is None for vs in gts.values() for a in vs}
    classless = pred_classes == {True} or (not pred_classes and gt_classes == {True})
    # Past every interval by more than the largest offset, and below every score.
    start = max(frames_of(*videos), default=0) + max(OFFSETS) + 1 + data.draw(st.integers(0, 5))
    score = min((a.score for vs in preds.values() for a in vs), default=1.0) - data.draw(
        st.sampled_from([1e-9, 0.1, 5.0]))
    extra = ActionInterval(start, start + data.draw(st.integers(0, 9)), score=score,
                           class_id=None if classless else data.draw(st.integers(0, 3)))
    video = data.draw(st.sampled_from(sorted(set(preds) | set(gts))))
    rows = list(preds.get(video, []))
    rows.insert(data.draw(st.integers(0, len(rows))), extra)
    assert ap_reports({**preds, video: rows}, gts) == ap_reports(preds, gts)
