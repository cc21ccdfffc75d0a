"""Detection extraction and average-precision scoring.

AP uses the all-points (continuous) interpolation: detections are sorted
by descending score, greedily matched to the highest-overlap unmatched
same-class object of their scene, and the precision envelope is
integrated over recall.
"""

from __future__ import annotations

from collections import Counter

import numpy as np

from .data import pixels
from .geometry import Detections, GroundTruth, decode, nms, pairwise_iou
from .loss import sigmoid

# a detection matches an object it overlaps at least this much
IOU_MATCH = 0.5


def extract_detections(logits, offsets, grid: np.ndarray, score_min: float,
                       nms_iou: float) -> Detections:
    """Decode every cell of one scene's logits [h, w, nc, na] and offsets
    [h, w, nc, na, 4] whose score clears `score_min`, then per-class NMS."""
    if logits.shape != grid.shape[:4]:
        raise ValueError(f"logits shape {logits.shape} does not match grid")
    scores = sigmoid(logits)
    sel = np.nonzero(scores >= score_min)
    boxes = np.concatenate(decode(grid[sel], offsets[sel])[:2], axis=1)
    return nms(Detections(boxes, sel[2], scores[sel]), nms_iou)


def _ranked_matches(dets_per_scene: list[Detections], gts: list[GroundTruth]):
    """Class ids and true-positive flags of all detections, ranked by
    descending score, ties by scene, then list order.

    Each object is matched at most once: a detection takes the
    highest-overlap unmatched same-class object of its scene (ties to the
    lowest object index) when that overlap is positive and reaches
    `IOU_MATCH`.  A match depends only on the scene's detections of the
    class, so each scene is matched on its own, from one IoU matrix.
    """
    if len(dets_per_scene) != len(gts):
        raise ValueError(f"{len(dets_per_scene)} detection lists for {len(gts)} scenes")
    ranked = []  # (-score, scene, list index, class id, hit) per detection
    for s, (dets, gt) in enumerate(zip(dets_per_scene, gts)):
        overlaps = np.where(dets.class_ids[:, None] == gt.class_ids,
                            pairwise_iou(dets.boxes, gt.boxes), 0.0)
        order = np.argsort(-dets.scores, kind="stable")
        hits, matched = [False] * len(dets), set()
        for k, row in zip(order.tolist(), overlaps[order].tolist()):
            best, best_j = 0.0, -1
            for j, v in enumerate(row):
                if v > best and j not in matched:
                    best, best_j = v, j
            if best_j >= 0 and best >= IOU_MATCH:
                matched.add(best_j)
                hits[k] = True
        ranked += zip((-dets.scores).tolist(), [s] * len(dets), range(len(dets)),
                      dets.class_ids.tolist(), hits)
    ranked.sort()
    return (np.array([r[3] for r in ranked], dtype=np.int64),
            np.array([r[4] for r in ranked], dtype=bool))


def _area(tp: np.ndarray, n_gt: int) -> float:
    """Area under the precision-recall curve of one class's ranked
    true-positive flags, with the precision envelope."""
    if n_gt == 0 or len(tp) == 0:
        return 0.0
    cum_tp = np.cumsum(tp)
    ranks = np.arange(1, len(tp) + 1)
    recall = cum_tp / n_gt
    precision = cum_tp / ranks
    # envelope: precision at recall >= r
    env = np.maximum.accumulate(precision[::-1])[::-1]
    ap = 0.0
    prev_r = 0.0
    for k in range(len(tp)):
        if tp[k]:
            ap += (recall[k] - prev_r) * env[k]
            prev_r = recall[k]
    return float(ap)


def map_eval(dets_per_scene: list[Detections], gts: list[GroundTruth]
             ) -> tuple[dict[int, float], float, dict[int, int], dict[int, int]]:
    """Per-class AP over the classes present in the annotations, their
    mean, and each of those classes' annotated object and detection counts."""
    classes, tp = _ranked_matches(dets_per_scene, gts)
    n_gt = dict(sorted(Counter(c for gt in gts for c in gt.class_ids.tolist()).items()))
    per_class = {c: _area(tp[classes == c], n) for c, n in n_gt.items()}
    n_det = {c: int(np.count_nonzero(classes == c)) for c in n_gt}
    mean = sum(per_class.values()) / len(per_class) if per_class else 0.0
    return per_class, mean, n_gt, n_det


def dataset_detections(model, grid: np.ndarray, scenes, score_min: float,
                       nms_iou: float) -> list[Detections]:
    """Forward every scene in pure numpy, one scene per forward, and
    extract detections."""
    out = []
    for scene in scenes:
        pred = model.forward(model.params, pixels(scene.image[None]))
        out.append(extract_detections(pred.logits[0], pred.offsets[0], grid,
                                      score_min, nms_iou))
    return out
