"""Axis-aligned boxes: IoU, the anchor-offset codec, and NMS.

Boxes are center-size (cx, cy, w, h) because decoding offsets against an
anchor is the gradient path; the corner form is a derived view.  The array
helpers at the bottom run on plain ndarrays or autodiff tensors alike.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from . import autodiff as ad

# Offsets dw/dh are clamped to [-EXP_CLAMP, EXP_CLAMP] before being
# exponentiated, so a decoded side never exceeds 1000x the anchor side.
EXP_CLAMP = math.log(1000.0)


@dataclass(frozen=True)
class Box:
    """Axis-aligned rectangle in pixels, center-size form."""

    cx: float
    cy: float
    w: float
    h: float

    def __post_init__(self):
        if not (self.w > 0 and self.h > 0):
            raise ValueError(f"box sides must be positive, got w={self.w}, h={self.h}")

    def corners(self) -> tuple[float, float, float, float]:
        """(x1, y1, x2, y2) view with x1 < x2 and y1 < y2."""
        return (self.cx - self.w / 2, self.cy - self.h / 2,
                self.cx + self.w / 2, self.cy + self.h / 2)

    def area(self) -> float:
        return self.w * self.h


@dataclass(frozen=True)
class Detection:
    box: Box
    class_id: int
    score: float

    def __post_init__(self):
        if not (0.0 <= self.score <= 1.0):
            raise ValueError(f"score must be in [0, 1], got {self.score}")


def iou(a: Box, b: Box) -> float:
    """Intersection over union of two valid boxes, in [0, 1]."""
    ax1, ay1, ax2, ay2 = a.corners()
    bx1, by1, bx2, by2 = b.corners()
    iw = min(ax2, bx2) - max(ax1, bx1)
    ih = min(ay2, by2) - max(ay1, by1)
    if iw <= 0.0 or ih <= 0.0:
        return 0.0
    inter = iw * ih
    return inter / (a.area() + b.area() - inter)


def nms(dets: list[Detection], iou_threshold: float,
        per_class: bool = True) -> list[Detection]:
    """Greedy non-maximum suppression by descending score.

    Equal scores break ties by lower class id, then input order; the output
    keeps that ordering.  With `per_class`, only same-class pairs suppress
    each other.
    """
    if not (0.0 < iou_threshold <= 1.0):
        raise ValueError(f"iou_threshold must be in (0, 1], got {iou_threshold}")
    order = sorted(range(len(dets)),
                   key=lambda i: (-dets[i].score, dets[i].class_id, i))
    kept: list[Detection] = []
    for i in order:
        d = dets[i]
        suppressed = any(
            (not per_class or k.class_id == d.class_id)
            and iou(k.box, d.box) > iou_threshold
            for k in kept)
        if not suppressed:
            kept.append(d)
    return kept


# ---------------------------------------------------------------------
# array forms, shared by the numpy and the autodiff paths
# ---------------------------------------------------------------------

def decode_cxywh(acx, acy, aw, ah, dx, dy, dw, dh):
    """Apply offset arrays to anchor component arrays; returns cx, cy, w, h."""
    cx = acx + dx * aw
    cy = acy + dy * ah
    w = aw * ad.exp(ad.clip(dw, -EXP_CLAMP, EXP_CLAMP))
    h = ah * ad.exp(ad.clip(dh, -EXP_CLAMP, EXP_CLAMP))
    return cx, cy, w, h


def iou_cxywh(acx, acy, aw, ah, bcx, bcy, bw, bh):
    """Elementwise IoU between two box component stacks.

    Differentiable through min/max subgradients; disjoint pairs give 0.
    """
    ix = ad.minimum(acx + aw * 0.5, bcx + bw * 0.5) - ad.maximum(acx - aw * 0.5, bcx - bw * 0.5)
    iy = ad.minimum(acy + ah * 0.5, bcy + bh * 0.5) - ad.maximum(acy - ah * 0.5, bcy - bh * 0.5)
    inter = ad.maximum(ix, 0.0) * ad.maximum(iy, 0.0)
    union = aw * ah + bw * bh - inter
    return inter / union
