"""Axis-aligned boxes as arrays: the scene records, the one box decode and
box IoU, and NMS.

A box is a (cx, cy, w, h) row in pixels, center-size because decoding
offsets against an anchor is the gradient path, and a set of boxes is an
[n, 4] float64 array.  `decode` and `overlap` keep (x, y) on a last axis
of 2 and broadcast, so one formula serves anchor assignment, the taped
predicted-box overlap (whose vjp reads the pieces `overlap` returns),
detection extraction, NMS and AP matching.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

# Offsets dw/dh are clamped to [-EXP_CLAMP, EXP_CLAMP] before being
# exponentiated, so a decoded side never exceeds 1000x the anchor side.
EXP_CLAMP = math.log(1000.0)


def _store_rows(record, **columns) -> None:
    """Store a record's `boxes` as an [n, 4] float64 array with positive
    sides (any empty input gives n = 0), and each named column as n values
    of its dtype."""
    boxes = np.asarray(record.boxes, dtype=np.float64)
    if boxes.size == 0:
        boxes = boxes.reshape(0, 4)
    if boxes.ndim != 2 or boxes.shape[1] != 4:
        raise ValueError(f"boxes must be [n, 4] (cx, cy, w, h), got shape {boxes.shape}")
    if not np.all(boxes[:, 2:] > 0):
        raise ValueError("box sides must be positive")
    object.__setattr__(record, "boxes", boxes)
    for name, dtype in columns.items():
        values = np.asarray(getattr(record, name), dtype=dtype).reshape(-1)
        if len(values) != len(boxes):
            raise ValueError(f"{len(boxes)} boxes but {len(values)} {name}")
        object.__setattr__(record, name, values)


@dataclass(frozen=True, eq=False)
class GroundTruth:
    """Scene annotation: boxes [n, 4] (cx, cy, w, h) and class ids [n]."""

    boxes: np.ndarray
    class_ids: np.ndarray

    def __post_init__(self):
        _store_rows(self, class_ids=np.int64)

    def __len__(self) -> int:
        return len(self.boxes)


@dataclass(frozen=True, eq=False)
class Detections:
    """A scene's detections: boxes [n, 4], class ids [n] and scores [n].
    `extract_detections` and `nms` return them by descending score."""

    boxes: np.ndarray
    class_ids: np.ndarray
    scores: np.ndarray

    def __post_init__(self):
        _store_rows(self, class_ids=np.int64, scores=np.float64)

    def __len__(self) -> int:
        return len(self.boxes)

    def take(self, index) -> Detections:
        """The detections an index array or boolean mask picks, in its order."""
        return Detections(self.boxes[index], self.class_ids[index], self.scores[index])


def decode(anchors, offsets):
    """Apply offsets [..., 4] to anchors [..., 4]: the decoded center and
    side [..., 2], and the side growth exp(clip([dw, dh])) [..., 2]."""
    grow = np.exp(np.clip(offsets[..., 2:], -EXP_CLAMP, EXP_CLAMP))
    return anchors[..., :2] + offsets[..., :2] * anchors[..., 2:], anchors[..., 2:] * grow, grow


def overlap(center, side, boxes):
    """IoU of the boxes of `center` and `side` [..., 2] with `boxes` [..., 4]
    (broadcast; disjoint pairs give 0), and its pieces (hi, lo, box_hi,
    box_lo, extent, clipped, inter, union): both boxes' edges, the overlap
    extent and max(extent, 0) [..., 2], and the two areas of the ratio."""
    hi, box_hi = center + side * 0.5, boxes[..., :2] + boxes[..., 2:] * 0.5
    lo, box_lo = center - side * 0.5, boxes[..., :2] - boxes[..., 2:] * 0.5
    extent = np.minimum(hi, box_hi) - np.maximum(lo, box_lo)
    clipped = np.maximum(extent, 0.0)
    inter = clipped[..., 0] * clipped[..., 1]
    union = side[..., 0] * side[..., 1] + boxes[..., 2] * boxes[..., 3] - inter
    return inter / union, (hi, lo, box_hi, box_lo, extent, clipped, inter, union)


def pairwise_iou(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """IoU of every box of `a` [n, 4] with every box of `b` [m, 4], [n, m]."""
    # column-major: (x, y) outermost, so each op runs along m, not on pairs
    a, b = np.asfortranarray(a), np.asfortranarray(b)
    return overlap(a[:, None, :2], a[:, None, 2:], b)[0]


def nms(dets: Detections, iou_threshold: float) -> Detections:
    """Greedy non-maximum suppression within each class.

    Detections are visited by descending score, equal scores by lower
    class id, then input order.  One is kept unless an already kept
    detection of its class overlaps it by more than `iou_threshold`.  The
    output keeps the visiting order.
    """
    if not (0.0 < iou_threshold <= 1.0):
        raise ValueError(f"iou_threshold must be in (0, 1], got {iou_threshold}")
    order = np.lexsort((dets.class_ids, -dets.scores))  # stable: ties keep input order
    dets = dets.take(order)
    keep = np.ones(len(dets), dtype=bool)
    for c in sorted(set(dets.class_ids.tolist())):
        members = np.flatnonzero(dets.class_ids == c)
        over = pairwise_iou(dets.boxes[members], dets.boxes[members]) > iou_threshold
        alive = np.ones(len(members), dtype=bool)
        for i in range(len(members)):
            if alive[i]:
                alive[i + 1:] &= ~over[i, i + 1:]
        keep[members] = alive
    return dets.take(keep)
