"""Evaluation suite: temporal IoU, optimal matching, F1, interval mAP, start mAP.

Class-agnostic detection quality is scored with an F1 built on optimal
bipartite matching: per video, predictions are matched to ground truth by
temporal IoU via a minimum-cost assignment, matched pairs above the IoU
threshold count as true positives, and counts are micro-aggregated across
videos.  Class-aware quality uses standard score-ranked average precision
over intervals; start detection uses point-level AP within a frame offset.

Overlaps are computed a whole matrix at a time.  Intervals that share no
frame have IoU 0, so the optimal matching is solved separately on each group
of intervals chained by shared frames, and its cost grows with the groups'
sizes, not with predictions x ground truth.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np
from scipy.optimize import linear_sum_assignment

from .exceptions import DomainError
from .switchboard import ActionInterval


def tiou(a: ActionInterval, b: ActionInterval) -> float:
    """Temporal IoU over inclusive frame index intervals."""
    inter = min(a.end_frame, b.end_frame) - max(a.start_frame, b.start_frame) + 1
    if inter <= 0:
        return 0.0
    union = a.num_frames + b.num_frames - inter
    return inter / union


def _spans(intervals) -> np.ndarray:
    """(n, 2) int64 array of inclusive [start, end] frames."""
    return np.array(
        [(iv.start_frame, iv.end_frame) for iv in intervals], dtype=np.int64
    ).reshape(-1, 2)


def _overlap_matrix(rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
    """Temporal IoU of every (row, col) pair of two span arrays; equals tiou."""
    inter = (
        np.minimum(rows[:, None, 1], cols[None, :, 1])
        - np.maximum(rows[:, None, 0], cols[None, :, 0])
        + 1
    )
    np.maximum(inter, 0, out=inter)
    row_len = rows[:, 1] - rows[:, 0] + 1
    col_len = cols[:, 1] - cols[:, 0] + 1
    return inter / (row_len[:, None] + col_len[None, :] - inter)


def _overlap_groups(rows: np.ndarray, cols: np.ndarray):
    """Yield (row indices, col indices) of each group holding both kinds.

    One sort-and-sweep over the starts of all spans: a group ends where the
    next span starts after every span so far has ended, so spans of different
    groups share no frame.
    """
    spans = np.concatenate([rows, cols])
    order = np.argsort(spans[:, 0], kind="stable")
    reach = np.maximum.accumulate(spans[order, 1])
    cuts = np.flatnonzero(spans[order[1:], 0] > reach[:-1]) + 1
    for members in np.split(order, cuts):
        members.sort()
        split = int(np.searchsorted(members, len(rows)))
        if 0 < split < len(members):
            yield members[:split], members[split:] - len(rows)


def _check_shared_videos(preds: Mapping, gts: Mapping) -> None:
    """Predictions and ground truth that both name videos must share one."""
    if preds and gts and set(preds).isdisjoint(gts):
        raise DomainError(
            f"predictions (videos {sorted(preds)[:3]}) and ground truth "
            f"(videos {sorted(gts)[:3]}) share no video id"
        )


def hungarian_assign(cost) -> list[tuple[int, int]]:
    """Minimum-total-cost injective assignment of min(m, n) (row, col) pairs."""
    arr = np.asarray(cost, dtype=np.float64)
    if arr.size == 0:
        return []
    if arr.ndim != 2:
        raise DomainError(f"cost must be a matrix, got shape {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise DomainError("non-finite entries in cost matrix")
    rows, cols = linear_sum_assignment(arr)
    return sorted(zip(rows.tolist(), cols.tolist()))


@dataclass
class MatchReport:
    """Micro-aggregated matching outcome across videos."""

    tp: int = 0
    num_pred: int = 0
    num_gt: int = 0
    precision: float = 0.0
    recall: float = 0.0
    f1: float = 0.0

    def to_json(self) -> dict:
        return {
            "f1": self.f1,
            "precision": self.precision,
            "recall": self.recall,
            "tp": self.tp,
            "num_pred": self.num_pred,
            "num_gt": self.num_gt,
        }


def f1_at_tiou(
    preds: Mapping[str, Sequence[ActionInterval]],
    gts: Mapping[str, Sequence[ActionInterval]],
    threshold: float = 0.5,
) -> MatchReport:
    """Optimal-matching F1 at one IoU threshold.

    Matched pairs with IoU >= threshold are true positives.  The assignment
    cost rewards above-threshold pairs lexicographically before raw IoU, so
    the matching maximizes the true-positive count first and total IoU
    second.  Both terms add up over the overlap groups of a video, so each
    group is matched on its own.  With no predictions and no ground truth at
    all, precision and recall are 1 by convention.
    """
    if not (0.0 < threshold <= 1.0):
        raise DomainError(f"threshold must be in (0, 1], got {threshold}")
    _check_shared_videos(preds, gts)
    report = MatchReport()
    for video_id in sorted(set(preds) | set(gts)):
        vp = _spans(preds.get(video_id, ()))
        vg = _spans(gts.get(video_id, ()))
        report.num_pred += len(vp)
        report.num_gt += len(vg)
        if not len(vp) or not len(vg):
            continue
        for rows, cols in _overlap_groups(vp, vg):
            overlaps = _overlap_matrix(vp[rows], vg[cols])
            # A hit outweighs any achievable sum of IoUs in the group.
            hit_bonus = float(min(len(rows), len(cols)) + 1)
            cost = -(overlaps + hit_bonus * (overlaps >= threshold))
            for i, j in hungarian_assign(cost):
                if overlaps[i, j] >= threshold:
                    report.tp += 1
    if report.num_pred == 0 and report.num_gt == 0:
        report.precision = report.recall = report.f1 = 1.0
    else:
        report.precision = report.tp / report.num_pred if report.num_pred else 0.0
        report.recall = report.tp / report.num_gt if report.num_gt else 0.0
        denom = report.precision + report.recall
        report.f1 = 2 * report.precision * report.recall / denom if denom else 0.0
    return report


def average_precision(tp_flags: Sequence[bool], num_gt: int) -> float:
    """All-point interpolated AP from score-ranked hit flags."""
    if num_gt <= 0:
        raise DomainError("average_precision needs at least one ground truth")
    if not len(tp_flags):
        return 0.0
    flags = np.asarray(tp_flags, dtype=np.float64)
    cum_tp = np.cumsum(flags)
    precision = cum_tp / np.arange(1, flags.size + 1)
    recall = cum_tp / num_gt
    # Precision envelope over increasing recall.
    mprec = np.concatenate(([0.0], precision, [0.0]))
    mrec = np.concatenate(([0.0], recall, [1.0]))
    mprec = np.maximum.accumulate(mprec[::-1])[::-1]
    idx = np.flatnonzero(mrec[1:] != mrec[:-1]) + 1
    return float(np.sum((mrec[idx] - mrec[idx - 1]) * mprec[idx]))


def _ranked_preds(
    preds: Mapping[str, Sequence[ActionInterval]], require_class: bool
) -> list[tuple[str, ActionInterval]]:
    flat = []
    for video_id in sorted(preds):
        for p in preds[video_id]:
            if p.score is None:
                raise DomainError(f"prediction without score in video {video_id}")
            if require_class and p.class_id is None:
                raise DomainError(f"prediction without class_id in video {video_id}")
            flat.append((video_id, p))
    # Score descending; earlier start, then (video, index) order: the sort is stable.
    flat.sort(key=lambda rec: (-rec[1].score, rec[1].start_frame))
    return flat


def _ranked_flags(ranked, gts, gain, floors) -> np.ndarray:
    """Greedy hit flags of score-ranked predictions, one row per floor.

    ``ranked`` holds (video id, prediction) in rank order and ``gts`` maps
    video ids to ground truth.  ``gain(pred spans, gt spans)`` scores every
    pair of one video, larger being better.  In rank order, each prediction
    takes the unmatched ground truth of its video with the largest gain (the
    first on ties) and is a hit if that gain reaches the floor.

    Once per video, each row keeps only its candidate columns, those whose
    gain reaches the lowest floor, ordered by gain descending and then by
    column; every floor then walks those short lists.
    """
    flags = np.zeros((len(floors), len(ranked)), dtype=bool)
    positions: dict[str, list[int]] = {}
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
        # nonzero lists rows in ascending order: each row's pairs are a slice.
        bounds = np.searchsorted(rows, np.arange(len(at) + 1)).tolist()
        candidates = [
            (at[row], pairs[lo:hi])
            for row, (lo, hi) in enumerate(zip(bounds, bounds[1:]))
            if lo < hi
        ]
        for hits, floor in zip(flags, floors):
            taken: set[int] = set()
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


def _iou_gain(pred_spans: np.ndarray, gt_spans: np.ndarray) -> np.ndarray:
    # Reversed columns: of equal IoUs, interval mAP matches the last ground
    # truth, so the matcher's first maximum must be the last column.
    return _overlap_matrix(pred_spans, gt_spans[::-1])


def _start_gain(pred_spans: np.ndarray, gt_spans: np.ndarray) -> np.ndarray:
    dist = np.abs(pred_spans[:, None, 0] - gt_spans[None, :, 0])
    return -dist.astype(np.float64)


@dataclass
class APReport:
    per_class_ap: dict[float, dict[int, float]]  # threshold -> class -> AP
    map_per_threshold: dict[float, float]
    average_map: float

    def to_json(self) -> dict:
        return {
            "map": {str(t): v for t, v in self.map_per_threshold.items()},
            "average_map": self.average_map,
            "per_class_ap": {
                str(t): {str(c): v for c, v in by_class.items()}
                for t, by_class in self.per_class_ap.items()
            },
        }


def interval_map(
    preds: Mapping[str, Sequence[ActionInterval]],
    gts: Mapping[str, Sequence[ActionInterval]],
    thresholds: Sequence[float],
) -> APReport:
    """Classwise score-ranked AP with greedy IoU matching, per threshold.

    Only classes with at least one ground-truth instance enter the mean.
    """
    if not thresholds:
        raise DomainError("no IoU thresholds given")
    if not all(0.0 < thr <= 1.0 for thr in thresholds):
        raise DomainError(f"IoU thresholds must be in (0, 1], got {list(thresholds)}")
    for video_id, vg in gts.items():
        for g in vg:
            if g.class_id is None:
                raise DomainError(f"ground truth without class_id in {video_id}")
    _check_shared_videos(preds, gts)
    ranked = _ranked_preds(preds, require_class=True)
    classes = sorted({g.class_id for vg in gts.values() for g in vg})
    gt_by_class: dict[int, dict[str, list[ActionInterval]]] = {c: {} for c in classes}
    for video_id in gts:
        for g in gts[video_id]:
            gt_by_class[g.class_id].setdefault(video_id, []).append(g)

    per_class_ap: dict[float, dict[int, float]] = {thr: {} for thr in thresholds}
    for c in classes:
        class_gts = gt_by_class[c]
        num_gt = sum(len(v) for v in class_gts.values())
        class_ranked = [(vid, p) for vid, p in ranked if p.class_id == c]
        flags = _ranked_flags(class_ranked, class_gts, _iou_gain, thresholds)
        for thr, hits in zip(thresholds, flags):
            per_class_ap[thr][c] = average_precision(hits, num_gt)
    map_per_threshold = {
        thr: float(np.mean(list(by_class.values()))) if by_class else 0.0
        for thr, by_class in per_class_ap.items()
    }
    average_map = float(np.mean(list(map_per_threshold.values())))
    return APReport(per_class_ap, map_per_threshold, average_map)


@dataclass
class PointAPReport:
    per_offset: dict[int, float]  # offset in frames -> p-AP (class mean if classwise)
    mean: float

    def to_json(self) -> dict:
        return {
            "p_ap": {str(o): v for o, v in self.per_offset.items()},
            "p_map": self.mean,
        }


def point_map(
    preds: Mapping[str, Sequence[ActionInterval]],
    gts: Mapping[str, Sequence[ActionInterval]],
    offsets: Sequence[int],
) -> PointAPReport:
    """Average precision of action-start detection within a frame offset.

    A ranked prediction is a hit at offset o if an unmatched ground truth
    (same class when ground truth carries classes) starts within o frames.
    Classwise mean when every ground truth has a class, one pooled AP when
    none has; ground truth that mixes the two is rejected.
    """
    if not offsets or any(o <= 0 for o in offsets):
        raise DomainError("offsets must be positive")
    has_class = {g.class_id is not None for vg in gts.values() for g in vg}
    if len(has_class) > 1:
        raise DomainError("ground truth mixes intervals with and without class_id")
    classwise = has_class == {True}
    _check_shared_videos(preds, gts)
    ranked = _ranked_preds(preds, require_class=False)
    classes = (
        sorted({g.class_id for vg in gts.values() for g in vg})
        if classwise
        else [None]
    )

    # A start within `offset` frames is a gain of at least -offset.
    floors = [-o for o in offsets]
    aps: list[list[float]] = [[] for _ in offsets]
    for c in classes:
        class_gts = {
            vid: [g for g in vg if not classwise or g.class_id == c]
            for vid, vg in gts.items()
        }
        num_gt = sum(len(v) for v in class_gts.values())
        if num_gt == 0:
            continue
        class_ranked = [
            (vid, p) for vid, p in ranked if not classwise or p.class_id == c
        ]
        flags = _ranked_flags(class_ranked, class_gts, _start_gain, floors)
        for offset_aps, hits in zip(aps, flags):
            offset_aps.append(average_precision(hits, num_gt))
    per_offset = {
        int(o): float(np.mean(a)) if a else 0.0 for o, a in zip(offsets, aps)
    }
    return PointAPReport(per_offset, float(np.mean(list(per_offset.values()))))
