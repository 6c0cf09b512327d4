import itertools

import numpy as np
import pytest

from switchdet.exceptions import DomainError
from switchdet.metrics import (
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
