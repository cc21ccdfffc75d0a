"""Anchor-to-object assignment: one record per scene and anchor grid.

`assign_ao` builds the [h, w, nc, na, n_gt] IoU tensor between anchor cells
and objects once, in one `geometry.overlap` call of every object against
its own class's cells, clusters every cell to the same-class object it
overlaps most, and normalizes each cluster by its own best overlap (PONO).
That guarantees every object at least one anchor with a normalized overlap
of exactly 1 regardless of how coarse the anchor set is.  The returned
`SceneAssignment` holds the int64 object index and raw overlap per cell
and per-object tables.
`train.SceneBank` keeps a drawn record's index map, in a type it picks, and
its tables, and `SceneBank.batch` builds a batch's `Assignment`, the layout
`pred_iou_values` and the label rules read: it is the one place the raw and
normalized overlaps and assigned box per cell are derived from a record.
Labels come from thresholding the normalized map (PONO), thresholding raw
overlap (AO), or the ambiguity-managed product with the predicted-box
overlap map (AMS).  The abstract's "soft" assignment is that
prediction-dependent AMS label; its threshold stays hard.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .geometry import EXP_CLAMP, GroundTruth, decode, overlap

UNASSIGNED = -1
# AMS labels a cell positive where pono * o_hat beats this
AMS_THRESHOLD = 0.5
# the AO baseline labels a cell positive where its raw overlap beats this
AO_THRESHOLD = 0.5


@dataclass(frozen=True)
class SceneAssignment:
    """One scene against one anchor grid: maps shaped like the grid [h, w,
    nc, na], and tables whose row k + 1 is object k's and row 0 a dummy."""

    gt_index: np.ndarray     # int64 object per cell, UNASSIGNED where no same-class overlap
    ao: np.ndarray           # raw overlap with the assigned object, 0 if none
    cluster_max: np.ndarray  # [1 + n_gt]: 1.0, then each cluster's maximum ao
    boxes: np.ndarray        # [1 + n_gt, 4]: a unit box, then each object's (cx, cy, w, h)


@dataclass(frozen=True)
class Assignment:
    """N scenes against one anchor grid, every array [N, h, w, nc, na], from
    `train.SceneBank.batch`.  `gt_box` [..., 4] holds the assigned
    object's (cx, cy, w, h) per cell, with unit dummy boxes on unassigned
    cells; mask any computation on it with `gt_index != UNASSIGNED`."""

    gt_index: np.ndarray   # int64 object per cell within its scene, or UNASSIGNED
    ao: np.ndarray         # raw overlap with the assigned object, 0 if none
    pono: np.ndarray       # ao divided by its cluster's maximum, in [0, 1]
    gt_box: np.ndarray


def _grid_gt_iou(grid: np.ndarray, gt: GroundTruth) -> np.ndarray:
    """IoU between every anchor cell of `grid` [h, w, nc, na, 4] and every
    object, [h, w, nc, na, n_gt]; objects of a different class score 0.
    Each object is scored on its own class's cells only, in one `overlap`
    call, so a class id of nc or more raises IndexError: `train.SceneBank`
    refuses one first."""
    own = grid[:, :, gt.class_ids]  # [h, w, n_gt, na, 4]
    iou = overlap(own[..., :2], own[..., 2:], gt.boxes[:, None])[0]
    out = np.zeros((*grid.shape[:4], len(gt)))
    out[:, :, gt.class_ids, :, np.arange(len(gt))] = iou.transpose(2, 0, 1, 3)
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


def assign_ao(grid: np.ndarray, gt: GroundTruth) -> SceneAssignment:
    """Cluster anchor cells to objects and normalize each cluster (PONO).

    The anchor x object IoU tensor is built once here; the record's maps and
    tables are read off it.  Assigned cells have positive overlap, so the
    normalization is always well defined and the maximal cell of every
    cluster lands exactly on 1.0.
    """
    shape, n = grid.shape[:4], len(gt)
    gt_index, ao = np.full(shape, UNASSIGNED), np.zeros(shape)
    if n:
        overlaps = _grid_gt_iou(grid, gt)
        gt_index = _cluster(overlaps, n)
        ao = np.where(gt_index == UNASSIGNED, 0.0, np.take_along_axis(
            overlaps, np.maximum(gt_index, 0)[..., None], axis=-1)[..., 0])
    cluster_max = np.zeros(1 + n)
    np.maximum.at(cluster_max, gt_index + 1, ao)
    cluster_max[0] = 1.0
    return SceneAssignment(gt_index, ao, cluster_max,
                           np.concatenate([np.ones((1, 4)), gt.boxes]))


def pred_iou_values(grid: np.ndarray, offsets, assignment: Assignment):
    """Overlap of each cell's decoded box with its assigned object (0 where
    unassigned), [N, h, w, nc, na]; generic over ndarray/Tensor offsets
    [N, h, w, nc, na, 4].  `assignment` is the N scenes' `Assignment`.

    The forward is `geometry.decode` then `geometry.overlap`, the box
    decode and IoU of every other caller.  Tensor offsets get one tape
    record whose vjp is the IoU gradient through the decode
    (UnitBox, Yu et al., ACM MM 2016) written out.  It keeps the
    subgradients of the elementwise form: a min/max tie passes the
    gradient to the decoded box's edge, max(ix, 0) passes it at ix = 0,
    and the dw/dh clamp passes it on its closed interval."""
    if offsets.shape[1:] != grid.shape \
            or offsets.shape[:-1] != assignment.gt_index.shape:
        raise ValueError(f"offsets shape {offsets.shape} does not match grid "
                         f"{grid.shape} with assignments stacked as "
                         f"{assignment.gt_index.shape}")
    ov = ad.values_of(offsets)
    keep = assignment.gt_index != UNASSIGNED
    center, side, grow = decode(grid, ov)
    iou, (hi, lo, gt_hi, gt_lo, extent, clipped, inter, union) = \
        overlap(center, side, assignment.gt_box)
    out = iou * keep
    if not isinstance(offsets, ad.Tensor):
        return out

    def vjp(grad):
        d_iou = grad * keep
        d_union = -d_iou * inter / (union * union)
        d_inter = d_iou / union - d_union
        d_overlap = d_inter[..., None] * clipped[..., ::-1] * (extent >= 0.0)
        d_hi = d_overlap * (hi <= gt_hi)
        d_lo = -d_overlap * (lo >= gt_lo)
        d_side = (d_hi - d_lo) * 0.5 + d_union[..., None] * side[..., ::-1]
        inside = (ov[..., 2:] >= -EXP_CLAMP) & (ov[..., 2:] <= EXP_CLAMP)
        return np.concatenate([(d_hi + d_lo) * grid[..., 2:],
                               d_side * grid[..., 2:] * grow * inside], axis=-1)

    return ad.record(out, [(offsets, vjp)])


def ams_labels(pono: np.ndarray, o_hat: np.ndarray) -> np.ndarray:
    """Positive (uint8 1) where normalized overlap times predicted overlap
    beats AMS_THRESHOLD.  The predicted map is used as plain data: no
    gradient is ever taken through label computation."""
    return ((pono * np.asarray(o_hat)) > AMS_THRESHOLD).astype(np.uint8)

