"""Detection extraction and average-precision scoring.

AP uses the all-points (continuous) interpolation: detections are sorted
by descending score, greedily matched to the highest-overlap unmatched
same-class object of their scene, and the precision envelope is
integrated over recall.
"""

from __future__ import annotations

import numpy as np

from . import autodiff as ad
from .anchors import AnchorGrid
from .assignment import GroundTruth
from .geometry import Box, Detection, decode_cxywh, iou, nms


def extract_detections(logits, offsets, grid: AnchorGrid,
                       score_min: float = 0.05,
                       nms_iou: float = 0.5) -> list[Detection]:
    """Decode every cell of one scene's logits [h, w, nc, na] and offsets
    [h, w, nc, na, 4] whose score clears `score_min`, then per-class NMS."""
    logits = np.asarray(ad.values_of(logits))
    offsets = np.asarray(ad.values_of(offsets))
    if logits.shape != grid.boxes.shape[:4]:
        raise ValueError(f"logits shape {logits.shape} does not match grid")
    scores = ad.sigmoid(logits)
    sel = np.argwhere(scores >= score_min)
    dets = []
    for i, j, c, a in sel:
        b = grid.boxes[i, j, c, a]
        o = offsets[i, j, c, a]
        cx, cy, w, h = decode_cxywh(b[0], b[1], b[2], b[3],
                                    o[0], o[1], o[2], o[3])
        dets.append(Detection(box=Box(float(cx), float(cy), float(w), float(h)),
                              class_id=int(c), score=float(scores[i, j, c, a])))
    return nms(dets, nms_iou, per_class=True)


def _sorted_class_dets(dets_per_scene: list[list[Detection]], class_id: int):
    """(scene, det) pairs of one class, by descending score with a
    deterministic (scene, insertion) tie-break."""
    flat = []
    for s, dets in enumerate(dets_per_scene):
        for k, d in enumerate(dets):
            if d.class_id == class_id:
                flat.append((s, k, d))
    flat.sort(key=lambda t: (-t[2].score, t[0], t[1]))
    return flat


def _greedy_match(flat, gts: list[GroundTruth], class_id: int,
                  iou_match: float) -> tuple[np.ndarray, int]:
    """True-positive flags for score-sorted detections, plus the object count.

    Each object is matched at most once; a detection takes the
    highest-overlap unmatched object of its scene (ties to the lowest
    object index) when the overlap reaches `iou_match`.
    """
    n_gt = 0
    candidates: list[list[int]] = []
    for gt in gts:
        idxs = [k for k, c in enumerate(gt.class_ids) if c == class_id]
        candidates.append(idxs)
        n_gt += len(idxs)
    matched = [set() for _ in gts]
    tp = np.zeros(len(flat), dtype=bool)
    for rank, (s, _, det) in enumerate(flat):
        best_iou, best_k = 0.0, -1
        for k in candidates[s]:
            if k in matched[s]:
                continue
            v = iou(det.box, gts[s].boxes[k])
            if v > best_iou:
                best_iou, best_k = v, k
        if best_k >= 0 and best_iou >= iou_match:
            matched[s].add(best_k)
            tp[rank] = True
    return tp, n_gt


def average_precision(dets_per_scene: list[list[Detection]],
                      gts: list[GroundTruth], class_id: int,
                      iou_match: float = 0.5) -> float:
    """Area under the precision-recall curve with the precision envelope."""
    flat = _sorted_class_dets(dets_per_scene, class_id)
    tp, n_gt = _greedy_match(flat, gts, class_id, iou_match)
    if n_gt == 0 or len(flat) == 0:
        return 0.0
    cum_tp = np.cumsum(tp)
    ranks = np.arange(1, len(flat) + 1)
    recall = cum_tp / n_gt
    precision = cum_tp / ranks
    # envelope: precision at recall >= r
    env = np.maximum.accumulate(precision[::-1])[::-1]
    ap = 0.0
    prev_r = 0.0
    for k in range(len(flat)):
        if tp[k]:
            ap += (recall[k] - prev_r) * env[k]
            prev_r = recall[k]
    return float(ap)


def map_eval(dets_per_scene: list[list[Detection]], gts: list[GroundTruth],
             iou_match: float = 0.5) -> tuple[dict[int, float], float]:
    """Per-class AP over classes present in the annotations, and their mean."""
    present = sorted({c for gt in gts for c in gt.class_ids})
    per_class = {c: average_precision(dets_per_scene, gts, c, iou_match)
                 for c in present}
    mean = sum(per_class.values()) / len(per_class) if per_class else 0.0
    return per_class, mean


def dataset_detections(model, grid: AnchorGrid, scenes,
                       score_min: float = 0.05,
                       nms_iou: float = 0.5) -> list[list[Detection]]:
    """Forward every scene in pure numpy, one scene per forward, and
    extract detections."""
    out = []
    for scene in scenes:
        pred = model.forward(model.params, scene.image[None])
        out.append(extract_detections(pred.logits[0], pred.offsets[0], grid,
                                      score_min, nms_iou))
    return out
