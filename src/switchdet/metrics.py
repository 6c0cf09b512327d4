"""Evaluation suite: temporal IoU, F1 by maximum matching, interval mAP, start mAP.

Class-agnostic detection quality is scored with an F1 over a one-to-one
matching: per video, a prediction and a ground truth whose temporal IoU
reaches the threshold may be matched, each interval at most once, and the
true positives are the size of a maximum such matching, micro-aggregated
across videos.  Ranked quality uses standard score-ranked average precision
over intervals; start detection uses point-level AP within a frame offset.
Both are classwise when every interval has a class and pooled
(class-agnostic) when either side has none.

Every metric takes per-video intervals as IntervalColumns, the instance
reader's output, or as lists of ActionIntervals, which it converts once
under the reader's rules (formats.interval_columns).  No metric builds a
predictions x ground truth matrix: a sorted sweep over ground-truth starts
finds each prediction's candidates, the pairs that F1 matches and that the
ranked metrics match greedily.

scipy.optimize is imported only inside hungarian_assign, which no metric
calls: the import alone costs a process about 48 MB and half a second.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import asdict, dataclass
from typing import Mapping, Sequence

import numpy as np

from .exceptions import DomainError
from .formats import IntervalColumns, interval_columns
from .switchboard import FRAME_LIMIT, ActionInterval

_NO_SPANS = np.empty((0, 2), dtype=np.int64)


def _columns(videos: Mapping) -> dict[str, IntervalColumns]:
    """Each video's intervals as columns, converting lists once at entry."""
    return {
        video_id: v if isinstance(v, IntervalColumns) else interval_columns(video_id, v)
        for video_id, v in videos.items()
    }


def _iou(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Temporal IoU of broadcastable (..., 2) span arrays of inclusive frames."""
    inter = np.minimum(a[..., 1], b[..., 1]) - np.maximum(a[..., 0], b[..., 0]) + 1
    np.maximum(inter, 0, out=inter)
    return inter / ((a[..., 1] - a[..., 0] + 1) + (b[..., 1] - b[..., 0] + 1) - inter)


def _check_shared_videos(preds: Mapping, gts: Mapping) -> None:
    """Predictions and ground truth that both name videos must share one."""
    if preds and gts and set(preds).isdisjoint(gts):
        raise DomainError(
            f"predictions (videos {sorted(preds)[:3]}) and ground truth "
            f"(videos {sorted(gts)[:3]}) share no video id"
        )


def hungarian_assign(cost) -> list[tuple[int, int]]:
    """Minimum-total-cost injective assignment of min(m, n) (row, col) pairs.

    No metric calls it, since F1 needs only the size of a maximum matching.
    scipy.optimize is imported on the first call, not with the module: that
    import alone would cost every process about 48 MB and half a second.
    """
    from scipy.optimize import linear_sum_assignment

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
        return asdict(self)


def _matching_size(rows, cols) -> int:
    """Size of a maximum matching of the bipartite graph of (row, col) edges.

    ``rows`` is ascending.  A greedy pass gives each row its first free
    column; then each row left unmatched looks for an augmenting path
    (Kuhn's method), walked with an explicit stack so that no path length
    can reach Python's recursion limit.
    """
    firsts = np.flatnonzero(np.diff(rows, prepend=-1)).tolist()
    cols = cols.tolist()
    adjacency = [cols[lo:hi] for lo, hi in zip(firsts, firsts[1:] + [len(cols)])]
    owner: dict[int, int] = {}  # column -> the row matched to it
    unmatched = []
    for row, row_cols in enumerate(adjacency):
        col = next((c for c in row_cols if c not in owner), None)
        if col is None:
            unmatched.append(row)
        else:
            owner[col] = row
    size = len(adjacency) - len(unmatched)
    for root in unmatched:
        seen: set[int] = set()
        path_rows, path_cols = [root], []
        todo = [iter(adjacency[root])]
        while todo:
            col = next((c for c in todo[-1] if c not in seen), None)
            if col is None:  # a dead end: back up one row
                todo.pop()
                path_rows.pop()
                if path_cols:
                    path_cols.pop()
                continue
            seen.add(col)
            path_cols.append(col)
            if col not in owner:
                # Each row on the path takes the column after it.
                owner.update(zip(path_cols, path_rows))
                size += 1
                break
            path_rows.append(owner[col])
            todo.append(iter(adjacency[owner[col]]))
    return size


def f1_at_tiou(
    preds: Mapping[str, Sequence[ActionInterval]],
    gts: Mapping[str, Sequence[ActionInterval]],
    threshold: float = 0.5,
) -> MatchReport:
    """One-to-one matching F1 at one IoU threshold.

    The true positives of a video are the size of a maximum matching of its
    predictions to its ground truth over the pairs with IoU >= threshold, so
    no other one-to-one matching has more hits.  With no predictions and no
    ground truth at all, precision and recall are 1 by convention.
    """
    if not (0.0 < threshold <= 1.0):
        raise DomainError(f"threshold must be in (0, 1], got {threshold}")
    _check_shared_videos(preds, gts)
    preds, gts = _columns(preds), _columns(gts)
    report = MatchReport()
    for video_id in sorted(set(preds) | set(gts)):
        vp = preds[video_id].spans if video_id in preds else _NO_SPANS
        vg = gts[video_id].spans if video_id in gts else _NO_SPANS
        report.num_pred += len(vp)
        report.num_gt += len(vg)
        if len(vp) and len(vg):
            rows, cols, _ = _iou_candidates(vp, vg, threshold)
            report.tp += _matching_size(rows, cols)
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


def _pairs_by_start(gt_starts: np.ndarray, lo: np.ndarray, hi: np.ndarray):
    """(row, col) of every ground truth col that starts in [lo[row], hi[row]].

    One sort of the starts makes each row's window a slice of that order;
    rows come out ascending, and cols by start within a row.
    """
    order = np.argsort(gt_starts, kind="stable")
    sorted_starts = gt_starts[order]
    first = np.searchsorted(sorted_starts, lo, side="left")
    counts = np.searchsorted(sorted_starts, hi, side="right") - first
    rows = np.repeat(np.arange(len(lo)), counts)
    # Pair i is slot i - (pairs before its row) of its row's window.
    shift = np.repeat(first - (np.cumsum(counts) - counts), counts)
    return rows, order[np.arange(len(rows)) + shift]


def _iou_candidates(pred_spans, gt_spans, lowest):
    """(row, col, IoU) of the pairs whose IoU reaches lowest > 0.

    Such a pair shares a frame, so the ground truth starts by the
    prediction's end and at most the longest ground truth before its start.
    """
    longest = int((gt_spans[:, 1] - gt_spans[:, 0]).max())
    rows, cols = _pairs_by_start(
        gt_spans[:, 0], pred_spans[:, 0] - longest, pred_spans[:, 1]
    )
    iou = _iou(pred_spans[rows], gt_spans[cols])
    keep = iou >= lowest
    # Reversed columns: of equal IoUs, interval mAP matches the last ground
    # truth, so the matcher's first column must be the last one.
    return rows[keep], len(gt_spans) - 1 - cols[keep], iou[keep]


def _start_candidates(pred_spans, gt_spans, lowest):
    """(row, col, -start distance) of the pairs within -lowest frames."""
    # Distances between frames below FRAME_LIMIT are below it too.
    reach = int(min(-lowest, FRAME_LIMIT))
    starts = pred_spans[:, 0]
    rows, cols = _pairs_by_start(gt_spans[:, 0], starts - reach, starts + reach)
    dist = np.abs(starts[rows] - gt_spans[cols, 0])
    return rows, cols, -dist.astype(np.float64)


def _ranked_flags(videos, spans, gts, candidates, floors) -> np.ndarray:
    """Greedy hit flags of score-ranked predictions, one row per floor.

    ``videos`` and ``spans`` hold each prediction's video index and span in
    rank order, and ``gts[video index]`` the ground-truth spans.
    ``candidates(pred spans, gt spans, lowest floor)`` gives the (row, col,
    gain) pairs of one video whose gain, larger being better, reaches the
    lowest floor.  In rank order, each prediction takes the unmatched ground
    truth of its video with the largest gain (the first column on ties) and
    is a hit if that gain reaches the floor.

    Once per video, each row's candidates are ordered by gain descending and
    then by column; every floor then walks those short lists.
    """
    flags = np.zeros((len(floors), len(spans)), dtype=bool)
    lowest = min(floors)
    by_video = np.argsort(videos, kind="stable")
    cuts = np.flatnonzero(np.diff(videos[by_video])) + 1
    for at in np.split(by_video, cuts):
        if not len(at) or not len(gts[videos[at[0]]]):
            continue
        rows, cols, gains = candidates(spans[at], gts[videos[at[0]]], lowest)
        order = np.lexsort((cols, -gains, rows))
        rows = rows[order]
        pairs = list(zip(gains[order].tolist(), cols[order].tolist()))
        # Rows are ascending: each row's pairs are a slice.
        bounds = np.searchsorted(rows, np.arange(len(at) + 1)).tolist()
        row_pairs = [
            (pos, pairs[lo:hi])
            for pos, lo, hi in zip(at.tolist(), bounds, bounds[1:])
            if lo < hi
        ]
        for hits, floor in zip(flags, floors):
            taken: set[int] = set()
            hit_at = []
            for pos, pos_pairs in row_pairs:
                for g, col in pos_pairs:
                    if g < floor:
                        break
                    if col not in taken:
                        taken.add(col)
                        hit_at.append(pos)
                        break
            hits[hit_at] = True
    return flags


def _ap_per_class(preds, gts, candidates, floors):
    """Score-ranked AP of every class that has ground truth, at each floor.

    Returns {floor: {class: AP}}, {floor: mean over those classes, 0.0 when
    there are none} and the mean over floors.  Classwise when every interval
    carries a class_id; one pooled class, ``None``, when either side carries
    none; a side that mixes the two is rejected.
    """
    _check_shared_videos(preds, gts)
    preds, gts = _columns(preds), _columns(gts)
    pooled = False
    for side, videos in (("predictions", preds), ("ground truth", gts)):
        has_class = {
            flag for v in videos.values() for flag in np.unique(~v.classless).tolist()
        }
        if len(has_class) > 1:
            raise DomainError(f"{side} mix intervals with and without class_id")
        pooled |= has_class == {False}
    video_ids = sorted(preds)
    for video_id in video_ids:
        if preds[video_id].scoreless.any():
            raise DomainError(f"prediction without score in video {video_id}")
    ranked = [preds[video_id] for video_id in video_ids]
    videos = np.repeat(np.arange(len(ranked)), [len(v) for v in ranked])
    spans = np.concatenate([v.spans for v in ranked] or [_NO_SPANS])
    scores = np.concatenate([v.scores for v in ranked] or [np.empty(0)])
    classes = np.concatenate([v.class_ids for v in ranked] or [np.empty(0, np.int64)])
    # Score descending, then earlier start; lexsort is stable, so ties keep
    # (video, index) order.
    rank = np.lexsort((spans[:, 0], -scores))
    videos, spans, classes = videos[rank], spans[rank], classes[rank]
    gt_classes = np.unique(
        np.concatenate([v.class_ids for v in gts.values()] or [np.empty(0, np.int64)])
    ).tolist()
    if pooled and gt_classes:
        gt_classes = [None]
    per_class: dict = {floor: {} for floor in floors}
    for c in gt_classes:
        class_gts = {
            video_id: v.spans if c is None else v.spans[v.class_ids == c]
            for video_id, v in gts.items()
        }
        num_gt = sum(map(len, class_gts.values()))
        chosen = slice(None) if c is None else classes == c
        flags = _ranked_flags(
            videos[chosen],
            spans[chosen],
            [class_gts.get(video_id, _NO_SPANS) for video_id in video_ids],
            candidates,
            list(per_class),
        )
        for by_class, hits in zip(per_class.values(), flags):
            by_class[c] = average_precision(hits, num_gt)
    means = {
        floor: float(np.mean(list(by_class.values()))) if by_class else 0.0
        for floor, by_class in per_class.items()
    }
    return per_class, means, float(np.mean(list(means.values())))


def _refuse_repeats(name: str, floors) -> None:
    """Floors given more than once are a DomainError: a report has one key each."""
    repeated = sorted(v for v, n in Counter(floors).items() if n > 1)
    if repeated:
        raise DomainError(f"{name} must differ, got {repeated} more than once")


@dataclass
class APReport:
    per_class_ap: dict[float, dict[int | None, float]]  # threshold -> class -> AP
    map_per_threshold: dict[float, float]
    average_map: float

    def to_json(self) -> dict:
        return {
            "map": {str(t): v for t, v in self.map_per_threshold.items()},
            "average_map": self.average_map,
            "per_class_ap": {
                # The pooled class None is written as a classless record's "null".
                str(t): {
                    "null" if c is None else str(c): v for c, v in by_class.items()
                }
                for t, by_class in self.per_class_ap.items()
            },
        }


def interval_map(
    preds: Mapping[str, Sequence[ActionInterval]],
    gts: Mapping[str, Sequence[ActionInterval]],
    thresholds: Sequence[float],
) -> APReport:
    """Score-ranked AP with greedy IoU matching, per threshold.

    Classwise when every interval has a class_id, else one pooled
    class-agnostic AP under class ``None``; a side that mixes classed and
    classless intervals is rejected.  Only classes with at least one
    ground-truth instance enter the mean.
    """
    if len(thresholds) == 0:
        raise DomainError("no IoU thresholds given")
    if not all(0.0 < thr <= 1.0 for thr in thresholds):
        raise DomainError(f"IoU thresholds must be in (0, 1], got {list(thresholds)}")
    _refuse_repeats("IoU thresholds", thresholds)
    return APReport(*_ap_per_class(preds, gts, _iou_candidates, thresholds))


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
    of its class starts within o frames.  Offsets are distinct whole frame
    counts, each a key of the report.  Classes follow interval_map's
    rule: classwise mean when every interval has a class_id, one pooled AP
    when either side has none, and a side that mixes the two is rejected.
    """
    if len(offsets) == 0 or not all(0 < o < math.inf for o in offsets):
        raise DomainError(f"offsets must be positive and finite, got {list(offsets)}")
    fractional = [o for o in offsets if o != int(o)]
    if fractional:
        raise DomainError(f"offsets must be whole frame counts, got {fractional}")
    _refuse_repeats("offsets", map(int, offsets))
    # A start within `offset` frames is a gain of at least -offset.
    _, means, mean = _ap_per_class(preds, gts, _start_candidates, [-o for o in offsets])
    return PointAPReport({int(-floor): m for floor, m in means.items()}, mean)
