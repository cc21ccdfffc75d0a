"""Per-class anchor shape discovery, and the anchor grid the shapes tile.

Anchor shapes are a float64 array [n_classes, n_anchors, 2] of (w, h)
pixels, each class's sorted by ascending area, as a run and its checkpoint
hold them.  `anchor_grid` checks them and tiles them at one image size.

Anchor shapes come from k-means over the (w, h) pairs of each class
independently, with distance 1 - IoU of the two shapes aligned at a common
center.  The centroid update minimizes the within-cluster cost directly
and keeps a new shape only when it strictly lowers that cost, so the
clustering objective never increases.  The update is a compass search in
log (w, h): every start moves at once, and each start halves its own step
when no move lowers its cost.  A start carries the cost of its current
shape from the round that reached it, so a round scores only the 8 moves
of every active start against all cluster members, in one array op that
writes into two work buffers allocated once per class.  The cost is
piecewise smooth with kinks at the members' sides, where optima often
sit, so the search runs its step down to `_STEP_TOL` rather than relying
on a gradient.

Lloyd's loop runs in two phases.  While members still move between
clusters, each centroid takes one search started from itself, since it is
already near its cluster's optimum.  Once a step changes nothing, every
later step uses the multi-start search (the mean, up to `_MAX_STARTS`
members and the centroid), so the loop stops only at a fixed point of the
multi-start update, and a single cluster matches an exhaustive grid
search.  Every search of one class goes through a cache keyed by its
members and its start: a start's path depends on nothing else, so the
first multi-start step reuses the last single-start search, and the step
that confirms the fixed point searches only from centroids that moved.
"""

from __future__ import annotations

import math

import numpy as np

from .data import atomic_open, text_lines
from .model import FEAT_STRIDE

# Cap on local-search restarts per centroid update; small clusters get one
# start per member, large clusters a deterministic area-spread subsample.
_MAX_STARTS = 8
# The 8 compass moves in log (w, h); the first step and the step below
# which a start stops.  A stop at 1e-11 left the cost up to 3e-12 above
# the former Nelder-Mead update on kinked optima; 1e-13 never did over
# 1000 random clusters.
_MOVES = np.array([[-1, -1], [-1, 0], [-1, 1], [0, -1],
                   [0, 1], [1, -1], [1, 0], [1, 1]], dtype=np.float64)
_STEP0 = 0.25
_STEP_TOL = 1e-13
# Cap on the Lloyd steps of one class's k-means, both phases together
_MAX_STEPS = 60
# most anchor shapes per class: over 10x any run's n_a (5); above the box
# count k-means spends time superlinear in n_a on duplicate centroids
MAX_N_A = 64


def anchor_grid(shapes: np.ndarray, image_size: int) -> np.ndarray:
    """The anchor boxes [h_f, w_f, n_classes, n_anchors, 4] as (cx, cy, w, h):
    the shapes [n_classes, n_anchors, 2] tiled over a square image's stride-8
    map, cell (i, j) at ((j + 0.5) * 8, (i + 0.5) * 8).  Shapes of another
    layout or with a side <= 0, and an image with no stride-8 cell, raise
    ValueError."""
    shapes = np.asarray(shapes, dtype=np.float64)
    if shapes.ndim != 3 or shapes.shape[2] != 2:
        raise ValueError(f"shapes must be [n_classes, n_anchors, 2], got {shapes.shape}")
    if not np.all(shapes > 0):
        raise ValueError("anchor sides must be positive")
    f = image_size // FEAT_STRIDE
    if f < 1:
        raise ValueError(f"a {image_size}px image has no stride-{FEAT_STRIDE} cell")
    centers = (np.arange(f) + 0.5) * FEAT_STRIDE
    boxes = np.empty((f, f, *shapes.shape[:2], 4))
    boxes[..., 0] = centers[None, :, None, None]
    boxes[..., 1] = centers[:, None, None, None]
    boxes[..., 2:] = shapes
    return boxes


def wh_iou(shapes_a: np.ndarray, shapes_b: np.ndarray) -> np.ndarray:
    """IoU of (..., 2) shape stacks aligned at a common center (broadcasts)."""
    a = np.asarray(shapes_a, dtype=np.float64)
    b = np.asarray(shapes_b, dtype=np.float64)
    inter = np.minimum(a[..., 0], b[..., 0]) * np.minimum(a[..., 1], b[..., 1])
    union = a[..., 0] * a[..., 1] + b[..., 0] * b[..., 1] - inter
    return inter / union


def _cluster_cost(shapes: np.ndarray, members: np.ndarray) -> np.ndarray:
    """Summed 1 - IoU from each shape of a (..., 2) stack to all members."""
    return np.sum(1.0 - wh_iou(shapes[..., None, :], members), axis=-1)


def _local_search(starts: np.ndarray, members: np.ndarray,
                  work: tuple) -> tuple[np.ndarray, np.ndarray]:
    """Compass search of the summed 1 - IoU cost in log (w, h), all starts
    at once.

    Each start carries the cost of its current shape from the round that
    reached it, so a round scores only every active start's 8 moves
    against every member, into [starts * 8, members] views of the two flat
    buffers `work`.  A start takes its cheapest move (the first of equal
    costs) when that strictly lowers its cost, else halves its step; it
    stops once the step falls below `_STEP_TOL`.
    Returns the end shapes and their costs.
    """
    mw, mh = members[:, 0], members[:, 1]
    m_area = mw * mh
    rows, m = len(starts) * len(_MOVES), len(members)
    inter, union = (buf[:rows * m].reshape(rows, m) for buf in work)

    def score(log_shapes: np.ndarray) -> np.ndarray:
        # `_cluster_cost` term by term in the same order, so the same doubles
        w, h = np.exp(log_shapes).T
        i, u = inter[:len(w)], union[:len(w)]
        np.minimum(w[:, None], mw, out=i)
        np.minimum(h[:, None], mh, out=u)
        i *= u
        np.add((w * h)[:, None], m_area, out=u)
        u -= i
        i /= u
        np.subtract(1.0, i, out=i)
        return np.sum(i, axis=-1)

    pos = np.log(starts)
    cost = score(pos)
    step = np.full(len(pos), _STEP0)
    active = np.arange(len(pos))
    while active.size:
        cand = pos[active, None, :] + step[active, None, None] * _MOVES
        cand_cost = score(cand.reshape(-1, 2)).reshape(len(active), -1)
        move = np.argmin(cand_cost, axis=1)
        move_cost = cand_cost[np.arange(len(active)), move]
        went = move_cost < cost[active]
        pos[active[went]] = cand[went, move[went]]
        cost[active[went]] = move_cost[went]
        step[active[~went]] *= 0.5
        active = active[step[active] >= _STEP_TOL]
    return np.exp(pos), cost


def _cached_search(starts: np.ndarray, members: np.ndarray,
                   cache: dict) -> tuple[np.ndarray, np.ndarray]:
    """`_local_search` through `cache`, which maps (members, start) bytes
    to that start's end and end cost, and holds its buffers as "work";
    only starts not yet searched on these members are searched, once.

    A start's path depends on nothing but itself and the members, so a
    cached end is bit for bit the end a new batch would reach.
    """
    seen = cache.setdefault(members.tobytes(), {})
    todo = {s.tobytes(): s for s in starts if s.tobytes() not in seen}
    if todo:
        ends, costs = _local_search(np.asarray(list(todo.values())), members, cache["work"])
        seen.update(zip(todo, zip(ends, costs)))
    found = [seen[s.tobytes()] for s in starts]
    return (np.asarray([end for end, _ in found]),
            np.asarray([cost for _, cost in found]))


def _best_shape(members: np.ndarray, current: np.ndarray, cache: dict) -> np.ndarray:
    """Shape minimizing the summed 1 - IoU distance to `members`.

    Multi-start: the component-wise mean, a deterministic subsample of the
    members, and the current centroid each seed a local search (through
    `cache`); exact-cost candidates (the starts themselves) compete too,
    so zero-cost starts are returned bit-for-bit.
    """
    starts = [members.mean(axis=0)]
    if len(members) <= _MAX_STARTS:
        starts.extend(members)
    else:
        order = np.argsort(members[:, 0] * members[:, 1], kind="stable")
        picks = np.linspace(0, len(members) - 1, _MAX_STARTS).astype(int)
        starts.extend(members[order[picks]])
    starts.append(np.asarray(current, dtype=np.float64))
    starts = np.asarray(starts, dtype=np.float64)

    ends, end_costs = _cached_search(starts, members, cache)
    start_costs = _cluster_cost(starts, members)
    # interleaved (start, its end) order: the first of equal costs wins
    cands = np.stack([starts, ends], axis=1).reshape(-1, 2)
    costs = np.stack([start_costs, end_costs], axis=1).reshape(-1)
    return cands[int(np.argmin(costs))]


def _farthest_point_init(shapes: np.ndarray, k: int,
                         rng: np.random.Generator) -> np.ndarray:
    """Seeded farthest-point seeding under the 1 - IoU distance."""
    centroids = [shapes[rng.integers(len(shapes))]]
    while len(centroids) < k:
        d = 1.0 - wh_iou(shapes[:, None, :], np.asarray(centroids)[None, :, :])
        centroids.append(shapes[int(np.argmax(d.min(axis=1)))])
    return np.asarray(centroids, dtype=np.float64)


def _kmeans_one_class(shapes: np.ndarray, n_a: int,
                      rng: np.random.Generator) -> np.ndarray:
    """Lloyd's algorithm under the 1 - IoU distance, in two phases.

    Each step assigns every shape to its nearest centroid and then moves
    each centroid only when its new shape strictly lowers the cluster cost.
    Until the first step that changes nothing, a centroid's new shape is
    one compass search started from the centroid itself.  From that step
    on, every step uses the multi-start `_best_shape`, and the loop ends
    at the first multi-start step that changes nothing.  `_MAX_STEPS` caps
    the steps of both phases together.
    """
    centroids = _farthest_point_init(shapes, n_a, rng)
    # `_local_search`'s buffers, for its largest batch (`_best_shape`'s)
    size = (_MAX_STARTS + 2) * len(_MOVES) * len(shapes)
    searches: dict = {"work": (np.empty(size), np.empty(size))}
    assign = None
    multistart = False
    for _ in range(_MAX_STEPS):
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
            if multistart:
                cand = _best_shape(members, centroids[k], searches)
            else:
                cand = _cached_search(centroids[k][None], members, searches)[0][0]
            if _cluster_cost(cand, members) < _cluster_cost(centroids[k], members):
                centroids[k] = cand
                moved = True
        if assign is not None and np.array_equal(assign, new_assign) and not moved:
            if multistart:
                break
            multistart = True
        assign = new_assign
    return centroids


def sizes_per_class(gts, n_classes: int) -> list[np.ndarray]:
    """The (w, h) of every object, grouped by class: k-means input."""
    boxes = np.concatenate([gt.boxes for gt in gts] or [np.zeros((0, 4))])
    class_ids = np.concatenate([gt.class_ids for gt in gts] or [np.zeros(0, dtype=np.int64)])
    return [boxes[class_ids == c, 2:] for c in range(n_classes)]


def check_no_empty_class(present: np.ndarray, n_classes: int) -> None:
    """Raise a ValueError naming the first class below `n_classes` missing
    from `present`, the sorted distinct ids below it that have boxes."""
    if len(present) < n_classes:
        gaps = np.flatnonzero(present != np.arange(len(present)))
        c = int(gaps[0]) if gaps.size else len(present)
        raise ValueError(f"class {c} has no boxes, but the classes run to {n_classes - 1}")


def kmeans_anchors(gt_sizes_per_class: list, n_a: int, seed: int) -> np.ndarray:
    """Cluster each class's (w, h) samples into `n_a` anchor shapes, with
    at most `_MAX_STEPS` Lloyd steps per class.

    Deterministic given `seed`; classes with fewer distinct shapes than
    `n_a` may yield duplicate centroids.  An `n_a` outside 1..MAX_N_A
    raises a ValueError, and so does a class with no samples, naming it,
    before any class is clustered.
    """
    if n_a < 1:
        raise ValueError("n_a must be >= 1")
    if n_a > MAX_N_A:
        raise ValueError(f"n_a must be at most {MAX_N_A}, got {n_a}")
    per_class = [np.asarray(s, dtype=np.float64).reshape(-1, 2) for s in gt_sizes_per_class]
    check_no_empty_class(np.flatnonzero([arr.size for arr in per_class]), len(per_class))
    out = []
    for c, arr in enumerate(per_class):
        rng = np.random.default_rng([seed, c])
        centroids = _kmeans_one_class(arr, n_a, rng)
        order = np.lexsort((centroids[:, 0], centroids[:, 1],
                            centroids[:, 0] * centroids[:, 1]))
        out.append(centroids[order])
    return np.asarray(out)


def save_anchor_set(path, shapes: np.ndarray) -> None:
    """One `class w h` line per shape, full float precision, written
    atomically."""
    with atomic_open(path) as f:
        for c, class_shapes in enumerate(shapes):
            for w, h in class_shapes:
                f.write(f"{c} {float(w)!r} {float(h)!r}\n")


def load_anchor_set(path) -> np.ndarray:
    per_class: dict[int, list] = {}
    for ln, line in text_lines(path):
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
        if c < 0:
            raise ValueError(f"{path}:{ln}: class id {c} is negative")
        if not (0 < w < math.inf and 0 < h < math.inf):
            raise ValueError(f"{path}:{ln}: anchor sides must be finite "
                             f"and positive, got {w!r} {h!r}")
        per_class.setdefault(c, []).append((w, h))
    if not per_class:
        raise ValueError(f"{path}: no anchor shapes found")
    n_classes = max(per_class) + 1
    counts = {len(v) for v in per_class.values()}
    if len(per_class) != n_classes or len(counts) != 1:
        raise ValueError(f"{path}: every class 0..{n_classes - 1} needs the same shape count")
    shapes = np.asarray([per_class[c] for c in range(n_classes)], dtype=np.float64)
    order = np.argsort(shapes[..., 0] * shapes[..., 1], axis=1, kind="stable")
    return np.take_along_axis(shapes, order[..., None], axis=1)
