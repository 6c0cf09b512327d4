"""Evaluation suite: temporal IoU, optimal matching, F1, interval mAP, start mAP.

Class-agnostic detection quality is scored with an F1 built on optimal
bipartite matching: per video, predictions are matched to ground truth by
temporal IoU via a minimum-cost assignment, matched pairs above the IoU
threshold count as true positives, and counts are micro-aggregated across
videos.  Class-aware quality uses standard score-ranked average precision
over intervals; start detection uses point-level AP within a frame offset.
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
    second.  With no predictions and no ground truth at all, precision and
    recall are 1 by convention.
    """
    if not (0.0 < threshold <= 1.0):
        raise DomainError(f"threshold must be in (0, 1], got {threshold}")
    report = MatchReport()
    for video_id in sorted(set(preds) | set(gts)):
        vp = list(preds.get(video_id, ()))
        vg = list(gts.get(video_id, ()))
        report.num_pred += len(vp)
        report.num_gt += len(vg)
        if not vp or not vg:
            continue
        overlaps = np.array([[tiou(p, g) for g in vg] for p in vp])
        # A hit outweighs any achievable sum of IoUs in the video.
        hit_bonus = float(min(len(vp), len(vg)) + 1)
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
    for i in range(mprec.size - 2, -1, -1):
        mprec[i] = max(mprec[i], mprec[i + 1])
    idx = np.flatnonzero(mrec[1:] != mrec[:-1]) + 1
    return float(np.sum((mrec[idx] - mrec[idx - 1]) * mprec[idx]))


def _ranked_preds(
    preds: Mapping[str, Sequence[ActionInterval]], require_class: bool
) -> list[tuple[str, int, ActionInterval]]:
    flat = []
    for video_id in sorted(preds):
        for i, p in enumerate(preds[video_id]):
            if p.score is None:
                raise DomainError(f"prediction without score in video {video_id}")
            if require_class and p.class_id is None:
                raise DomainError(f"prediction without class_id in video {video_id}")
            flat.append((video_id, i, p))
    # Score descending; earlier start, then stable (video, index) on ties.
    flat.sort(key=lambda rec: (-rec[2].score, rec[2].start_frame, rec[0], rec[1]))
    return flat


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
    for video_id, vg in gts.items():
        for g in vg:
            if g.class_id is None:
                raise DomainError(f"ground truth without class_id in {video_id}")
    ranked = _ranked_preds(preds, require_class=True)
    classes = sorted({g.class_id for vg in gts.values() for g in vg})
    gt_by_class: dict[int, dict[str, list[ActionInterval]]] = {c: {} for c in classes}
    for video_id in gts:
        for g in gts[video_id]:
            gt_by_class[g.class_id].setdefault(video_id, []).append(g)

    per_class_ap: dict[float, dict[int, float]] = {}
    map_per_threshold: dict[float, float] = {}
    for thr in thresholds:
        by_class: dict[int, float] = {}
        for c in classes:
            class_gts = gt_by_class[c]
            num_gt = sum(len(v) for v in class_gts.values())
            matched = {vid: [False] * len(v) for vid, v in class_gts.items()}
            flags = []
            for video_id, _, p in ranked:
                if p.class_id != c:
                    continue
                candidates = class_gts.get(video_id, [])
                best, best_iou = -1, thr
                for j, g in enumerate(candidates):
                    if matched[video_id][j]:
                        continue
                    overlap = tiou(p, g)
                    if overlap >= best_iou:
                        best, best_iou = j, overlap
                if best >= 0:
                    matched[video_id][best] = True
                    flags.append(True)
                else:
                    flags.append(False)
            by_class[c] = average_precision(flags, num_gt)
        per_class_ap[thr] = by_class
        map_per_threshold[thr] = (
            float(np.mean(list(by_class.values()))) if by_class else 0.0
        )
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
    ranked = _ranked_preds(preds, require_class=False)
    classes = (
        sorted({g.class_id for vg in gts.values() for g in vg})
        if classwise
        else [None]
    )

    per_offset: dict[int, float] = {}
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
                candidates = class_gts.get(video_id, [])
                best, best_dist = -1, offset + 1
                for j, g in enumerate(candidates):
                    if matched[video_id][j]:
                        continue
                    dist = abs(p.start_frame - g.start_frame)
                    if dist <= offset and dist < best_dist:
                        best, best_dist = j, dist
                if best >= 0:
                    matched[video_id][best] = True
                    flags.append(True)
                else:
                    flags.append(False)
            aps.append(average_precision(flags, num_gt))
        per_offset[int(offset)] = float(np.mean(aps)) if aps else 0.0
    return PointAPReport(per_offset, float(np.mean(list(per_offset.values()))))
