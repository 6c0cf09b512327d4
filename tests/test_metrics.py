import itertools

import numpy as np
import pytest

from switchdet.exceptions import DomainError
from switchdet.metrics import (
    _overlap_groups,
    _overlap_matrix,
    _spans,
    average_precision,
    f1_at_tiou,
    hungarian_assign,
    interval_map,
    point_map,
    tiou,
)
from switchdet.switchboard import ActionInterval


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
            report = f1_at_tiou({"v": preds}, {"v": gts}, 0.5)
            assert report.tp == brute_force_tp(preds, gts, 0.5)


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

    def test_requires_classes(self):
        gts = {"v": [iv(0, 9, class_id=0)]}
        with pytest.raises(DomainError):
            interval_map({"v": [iv(0, 9, score=0.5)]}, gts, [0.5])

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
            got = _overlap_matrix(_spans(rows), _spans(cols))
            want = np.array([[tiou(a, b) for b in cols] for a in rows])
            assert got.shape == want.shape
            assert (got == want).all()

    def test_groups_share_no_frame(self):
        rng = np.random.default_rng(11)
        for _ in range(50):
            rows = _spans(random_stream(rng, 30, 1000, 30))
            cols = _spans(random_stream(rng, 30, 1000, 30))
            groups = list(_overlap_groups(rows, cols))
            group_of_row = np.full(len(rows), -1)
            group_of_col = np.full(len(cols), -1)
            for k, (r, c) in enumerate(groups):
                group_of_row[r] = group_of_col[c] = k
            overlaps = _overlap_matrix(rows, cols)
            # Every overlapping pair lies inside one group.
            i, j = np.nonzero(overlaps)
            assert (group_of_row[i] >= 0).all()
            assert (group_of_row[i] == group_of_col[j]).all()


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
