"""Anchor-to-object assignment: one record per scene and anchor grid.

`assign_ao` builds the [h, w, nc, na, n_gt] IoU tensor between anchor
cells and objects once, clusters every cell to the same-class object it
overlaps most, and normalizes each cluster by its own best overlap (PONO).
That guarantees every object at least one anchor with a normalized overlap
of exactly 1 regardless of how coarse the anchor set is.  The returned
`Assignment` holds everything later steps read: the object index, raw and
normalized overlap, and the assigned box per cell.  Labels come from
thresholding the normalized map (PONO), thresholding raw overlap (AO), or
the ambiguity-managed product with the predicted-box overlap map (AMS).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .anchors import AnchorGrid
from .geometry import decode_cxywh, iou_cxywh

UNASSIGNED = -1


@dataclass(frozen=True)
class GroundTruth:
    """Scene annotation: one box and one class id per object."""

    boxes: list
    class_ids: list

    def __post_init__(self):
        if len(self.boxes) != len(self.class_ids):
            raise ValueError("boxes and class_ids must have equal length")

    def __len__(self) -> int:
        return len(self.boxes)


@dataclass(frozen=True)
class Assignment:
    """One scene against one anchor grid; every array is shaped like the grid.

    `gt_box` holds the assigned object's (cx, cy, w, h) per cell, with unit
    dummy boxes on unassigned cells; multiply by `mask` after any
    computation on it.
    """

    gt_index: np.ndarray   # object per cell, UNASSIGNED where no same-class overlap
    ao: np.ndarray         # raw overlap with the assigned object, 0 if none
    pono: np.ndarray       # ao divided by its cluster's maximum, in [0, 1]
    gt_box: tuple
    mask: np.ndarray       # 1.0 on assigned cells, 0.0 elsewhere


def _grid_gt_iou(grid: AnchorGrid, gt: GroundTruth) -> np.ndarray:
    """IoU between every anchor cell and every object, [h, w, nc, na, n_gt];
    objects of a different class score 0."""
    out = np.zeros(grid.boxes.shape[:4] + (len(gt),), dtype=np.float64)
    b = grid.boxes
    for k, (box, cid) in enumerate(zip(gt.boxes, gt.class_ids)):
        out[:, :, cid, :, k] = iou_cxywh(b[..., cid, :, 0], b[..., cid, :, 1],
                                         b[..., cid, :, 2], b[..., cid, :, 3],
                                         box.cx, box.cy, box.w, box.h)
    return out


def _cluster(overlaps: np.ndarray, n_gt: int) -> np.ndarray:
    """Object index per cell by maximum overlap, with coverage repair.

    Ties break toward the lowest object index; cells with no positive
    same-class overlap stay unassigned.  If the argmax pass leaves an
    object with an empty cluster (all its overlapping cells were won by
    other objects), the object claims its single best-overlap cell so
    that no object is ever left without an anchor.
    """
    idx = np.argmax(overlaps, axis=-1)
    best = np.take_along_axis(overlaps, idx[..., None], axis=-1)[..., 0]
    gt_index = np.where(best > 0.0, idx, UNASSIGNED).astype(np.int64)

    # Claimed cells are reserved (never re-stolen), so every object is
    # repaired at most once and the pass terminates.
    counts = np.bincount(gt_index[gt_index != UNASSIGNED], minlength=n_gt)
    reserved = np.zeros(gt_index.shape, dtype=bool)
    queue = [k for k in range(n_gt) if counts[k] == 0]
    while queue:
        k = queue.pop(0)
        if counts[k] > 0:
            continue
        ov = np.where(reserved, -1.0, overlaps[..., k])
        cell = np.unravel_index(np.argmax(ov), gt_index.shape)
        if ov[cell] <= 0.0:
            continue  # no free overlapping cell exists for this object
        prev = gt_index[cell]
        gt_index[cell] = k
        reserved[cell] = True
        counts[k] += 1
        if prev != UNASSIGNED:
            counts[prev] -= 1
            if counts[prev] == 0:
                queue.append(int(prev))
    return gt_index


def assign_ao(grid: AnchorGrid, gt: GroundTruth) -> Assignment:
    """Cluster anchor cells to objects and normalize each cluster (PONO).

    The anchor x object IoU tensor is built once here; every field of the
    record is read off it.  Assigned cells have positive overlap, so the
    normalization is always well defined and the maximal cell of every
    cluster lands exactly on 1.0.
    """
    shape = grid.boxes.shape[:4]
    if len(gt) == 0:
        return Assignment(np.full(shape, UNASSIGNED, dtype=np.int64),
                          np.zeros(shape), np.zeros(shape),
                          tuple(np.ones(shape) for _ in range(4)), np.zeros(shape))
    overlaps = _grid_gt_iou(grid, gt)
    gt_index = _cluster(overlaps, len(gt))
    unassigned = gt_index == UNASSIGNED
    safe = np.maximum(gt_index, 0)
    ao = np.where(unassigned, 0.0,
                  np.take_along_axis(overlaps, safe[..., None], axis=-1)[..., 0])
    pono = np.zeros_like(ao)
    for k in range(len(gt)):
        cluster = gt_index == k
        if np.any(cluster):
            pono[cluster] = ao[cluster] / ao[cluster].max()
    picked = np.asarray([[b.cx, b.cy, b.w, b.h] for b in gt.boxes])[safe]
    gt_box = tuple(np.where(unassigned, 1.0, picked[..., d]) for d in range(4))
    return Assignment(gt_index, ao, pono, gt_box,
                      (~unassigned).astype(np.float64))


def pred_iou_values(grid: AnchorGrid, offsets, assignment: Assignment):
    """Overlap of each cell's decoded box with its assigned object (0 where
    unassigned); generic over ndarray/Tensor offsets ([h, w, nc, na, 4])."""
    if offsets.shape != grid.boxes.shape:
        raise ValueError(f"offsets shape {offsets.shape} does not match grid {grid.boxes.shape}")
    b = grid.boxes
    cx, cy, w, h = decode_cxywh(b[..., 0], b[..., 1], b[..., 2], b[..., 3],
                                offsets[..., 0], offsets[..., 1],
                                offsets[..., 2], offsets[..., 3])
    return iou_cxywh(cx, cy, w, h, *assignment.gt_box) * assignment.mask


def ams_labels(pono: np.ndarray, o_hat: np.ndarray,
               threshold: float = 0.5) -> np.ndarray:
    """Positive (uint8 1) where normalized overlap times predicted overlap
    beats the threshold.  The predicted map is used as plain data: no
    gradient is ever taken through label computation."""
    return ((pono * np.asarray(o_hat)) > threshold).astype(np.uint8)


def pono_labels(pono: np.ndarray, threshold: float = 0.5) -> np.ndarray:
    """Positive where normalized overlap alone beats the threshold."""
    return (pono > threshold).astype(np.uint8)


def threshold_labels(values: np.ndarray, threshold: float = 0.5) -> np.ndarray:
    """Positive where a raw overlap map beats the threshold (baseline rule)."""
    return (values > threshold).astype(np.uint8)
