"""Per-class anchor shape discovery and the dense anchor grid.

Anchor shapes come from k-means over the (w, h) pairs of each class
independently, with distance 1 - IoU of the two shapes aligned at a common
center.  The centroid update minimizes the within-cluster cost directly
(multi-start local search), so the clustering objective never increases
and the single-cluster solution matches an exhaustive grid search.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.optimize import minimize

from .geometry import Box

# Cap on local-search restarts per centroid update; small clusters get one
# start per member, large clusters a deterministic area-spread subsample.
_MAX_STARTS = 8


@dataclass(frozen=True)
class AnchorSet:
    """Per-class anchor shapes, [n_classes, n_anchors, 2] as (w, h) pixels.

    Within each class, shapes are sorted by ascending area so the anchor
    index is deterministic.
    """

    shapes: np.ndarray

    def __post_init__(self):
        s = np.asarray(self.shapes, dtype=np.float64)
        if s.ndim != 3 or s.shape[2] != 2:
            raise ValueError(f"shapes must be [n_classes, n_anchors, 2], got {s.shape}")
        if not np.all(s > 0):
            raise ValueError("anchor sides must be positive")
        object.__setattr__(self, "shapes", s)

    @property
    def n_classes(self) -> int:
        return self.shapes.shape[0]

    @property
    def n_anchors(self) -> int:
        return self.shapes.shape[1]


@dataclass(frozen=True)
class AnchorGrid:
    """Dense anchor boxes [h_f, w_f, n_classes, n_anchors, 4] as (cx, cy, w, h).

    Cell (i, j) centers its anchors at ((j + 0.5) * stride, (i + 0.5) * stride).
    """

    boxes: np.ndarray
    feat_stride: int

    @property
    def h_f(self) -> int:
        return self.boxes.shape[0]

    @property
    def w_f(self) -> int:
        return self.boxes.shape[1]

    @property
    def n_classes(self) -> int:
        return self.boxes.shape[2]

    @property
    def n_anchors(self) -> int:
        return self.boxes.shape[3]

    def cell(self, i: int, j: int, c: int, a: int) -> Box:
        cx, cy, w, h = self.boxes[i, j, c, a]
        return Box(cx, cy, w, h)


def wh_iou(shapes_a: np.ndarray, shapes_b: np.ndarray) -> np.ndarray:
    """IoU of (..., 2) shape stacks aligned at a common center (broadcasts)."""
    a = np.asarray(shapes_a, dtype=np.float64)
    b = np.asarray(shapes_b, dtype=np.float64)
    inter = np.minimum(a[..., 0], b[..., 0]) * np.minimum(a[..., 1], b[..., 1])
    union = a[..., 0] * a[..., 1] + b[..., 0] * b[..., 1] - inter
    return inter / union


def _cluster_cost(shape: np.ndarray, members: np.ndarray) -> float:
    return float(np.sum(1.0 - wh_iou(shape[None, :], members)))


def _refine_shape(start: np.ndarray, members: np.ndarray) -> tuple[np.ndarray, float]:
    """Local minimization of the summed 1 - IoU cost, in log coordinates."""

    def cost(p):
        return _cluster_cost(np.exp(p), members)

    res = minimize(cost, np.log(start), method="Nelder-Mead",
                   options={"xatol": 1e-10, "fatol": 1e-12, "maxiter": 500})
    return np.exp(res.x), float(res.fun)


def _best_shape(members: np.ndarray,
                current: np.ndarray | None = None) -> np.ndarray:
    """Shape minimizing the summed 1 - IoU distance to `members`.

    Multi-start: the component-wise mean, a deterministic subsample of the
    members, and the current centroid each seed a local search; exact-cost
    candidates (the starts themselves) compete too, so zero-cost starts are
    returned bit-for-bit.
    """
    starts = [members.mean(axis=0)]
    if len(members) <= _MAX_STARTS:
        starts.extend(members)
    else:
        order = np.argsort(members[:, 0] * members[:, 1], kind="stable")
        picks = np.linspace(0, len(members) - 1, _MAX_STARTS).astype(int)
        starts.extend(members[order[picks]])
    if current is not None:
        starts.append(np.asarray(current, dtype=np.float64))

    best, best_cost = None, np.inf
    for s in starts:
        for cand, cost in ((s, _cluster_cost(s, members)), _refine_shape(s, members)):
            if cost < best_cost:
                best, best_cost = np.asarray(cand, dtype=np.float64), cost
    return best


def _farthest_point_init(shapes: np.ndarray, k: int,
                         rng: np.random.Generator) -> np.ndarray:
    """Seeded farthest-point seeding under the 1 - IoU distance."""
    centroids = [shapes[rng.integers(len(shapes))]]
    while len(centroids) < k:
        d = 1.0 - wh_iou(shapes[:, None, :], np.asarray(centroids)[None, :, :])
        centroids.append(shapes[int(np.argmax(d.min(axis=1)))])
    return np.asarray(centroids, dtype=np.float64)


def _kmeans_one_class(shapes: np.ndarray, n_a: int, rng: np.random.Generator,
                      max_iter: int) -> np.ndarray:
    centroids = _farthest_point_init(shapes, n_a, rng)
    assign = None
    for _ in range(max_iter):
        d = 1.0 - wh_iou(shapes[:, None, :], centroids[None, :, :])
        new_assign = np.argmin(d, axis=1)
        # empty-cluster repair: hand each empty cluster its own worst-fit
        # point, never draining a cluster down to nothing; with fewer
        # points than clusters some centroids stay duplicated
        for k in range(n_a):
            if np.any(new_assign == k):
                continue
            order = np.argsort(-d[np.arange(len(shapes)), new_assign],
                               kind="stable")
            for i in order:
                i = int(i)
                if np.sum(new_assign == new_assign[i]) > 1:
                    new_assign[i] = k
                    centroids[k] = shapes[i]
                    break
        moved = False
        for k in range(n_a):
            members = shapes[new_assign == k]
            if members.size == 0:
                continue
            cand = _best_shape(members, centroids[k])
            if _cluster_cost(cand, members) < _cluster_cost(centroids[k], members):
                centroids[k] = cand
                moved = True
        if assign is not None and np.array_equal(assign, new_assign) and not moved:
            break
        assign = new_assign
    return centroids


def sizes_per_class(gts, n_classes: int) -> list[np.ndarray]:
    """The (w, h) of every object, grouped by class: k-means input."""
    sizes = [[] for _ in range(n_classes)]
    for gt in gts:
        for box, cid in zip(gt.boxes, gt.class_ids):
            sizes[cid].append((box.w, box.h))
    return [np.asarray(s, dtype=np.float64).reshape(-1, 2) for s in sizes]


def kmeans_anchors(gt_sizes_per_class: list, n_a: int, seed: int,
                   max_iter: int = 60) -> AnchorSet:
    """Cluster each class's (w, h) samples into `n_a` anchor shapes.

    Deterministic given `seed`; classes with fewer distinct shapes than
    `n_a` may yield duplicate centroids.  Raises if a class has no samples.
    """
    if n_a < 1:
        raise ValueError("n_a must be >= 1")
    out = []
    for c, sizes in enumerate(gt_sizes_per_class):
        arr = np.asarray(sizes, dtype=np.float64).reshape(-1, 2)
        if arr.size == 0:
            raise ValueError(f"class {c} has no box samples to cluster")
        rng = np.random.default_rng([seed, c])
        centroids = _kmeans_one_class(arr, n_a, rng, max_iter)
        order = np.lexsort((centroids[:, 0], centroids[:, 1],
                            centroids[:, 0] * centroids[:, 1]))
        out.append(centroids[order])
    return AnchorSet(np.asarray(out))


def kmeans_objective(anchor_set: AnchorSet, gt_sizes_per_class: list) -> float:
    """Summed min-over-centroids 1 - IoU cost over all classes."""
    total = 0.0
    for c in range(anchor_set.n_classes):
        arr = np.asarray(gt_sizes_per_class[c], dtype=np.float64).reshape(-1, 2)
        d = 1.0 - wh_iou(arr[:, None, :], anchor_set.shapes[c][None, :, :])
        total += float(d.min(axis=1).sum())
    return total


def build_grid(anchor_set: AnchorSet, h_f: int, w_f: int,
               feat_stride: int) -> AnchorGrid:
    """Tile the anchor shapes over every cell center of an h_f x w_f map."""
    if min(h_f, w_f, feat_stride) < 1:
        raise ValueError("h_f, w_f and feat_stride must be >= 1")
    nc, na = anchor_set.n_classes, anchor_set.n_anchors
    boxes = np.empty((h_f, w_f, nc, na, 4), dtype=np.float64)
    boxes[..., 0] = ((np.arange(w_f) + 0.5) * feat_stride)[None, :, None, None]
    boxes[..., 1] = ((np.arange(h_f) + 0.5) * feat_stride)[:, None, None, None]
    boxes[..., 2] = anchor_set.shapes[..., 0][None, None, :, :]
    boxes[..., 3] = anchor_set.shapes[..., 1][None, None, :, :]
    return AnchorGrid(boxes=boxes, feat_stride=feat_stride)


def save_anchor_set(path, anchor_set: AnchorSet) -> None:
    """One `class w h` line per shape, full float precision."""
    with open(path, "w") as f:
        for c in range(anchor_set.n_classes):
            for a in range(anchor_set.n_anchors):
                w, h = (float(v) for v in anchor_set.shapes[c, a])
                f.write(f"{c} {w!r} {h!r}\n")


def load_anchor_set(path) -> AnchorSet:
    per_class: dict[int, list] = {}
    with open(path) as f:
        for ln, line in enumerate(f, start=1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            parts = line.split()
            if len(parts) != 3:
                raise ValueError(f"{path}:{ln}: expected 'class w h', got {line!r}")
            try:
                c, w, h = int(parts[0]), float(parts[1]), float(parts[2])
            except ValueError as e:
                raise ValueError(f"{path}:{ln}: {e}") from None
            per_class.setdefault(c, []).append((w, h))
    if not per_class:
        raise ValueError(f"{path}: no anchor shapes found")
    n_classes = max(per_class) + 1
    counts = {len(v) for v in per_class.values()}
    if len(per_class) != n_classes or len(counts) != 1:
        raise ValueError(f"{path}: every class 0..{n_classes - 1} needs the same shape count")
    shapes = np.asarray([per_class[c] for c in range(n_classes)], dtype=np.float64)
    order = np.argsort(shapes[..., 0] * shapes[..., 1], axis=1, kind="stable")
    shapes = np.take_along_axis(shapes, order[..., None], axis=1)
    return AnchorSet(shapes)
