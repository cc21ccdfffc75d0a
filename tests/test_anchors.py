import functools
import re

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st
from scipy.optimize import minimize

from ponodet import anchors
from ponodet.anchors import (anchor_grid, kmeans_anchors, load_anchor_set,
                             save_anchor_set, sizes_per_class, wh_iou, _MAX_STARTS,
                             _MOVES, _cluster_cost)
from ponodet.benchmarks import crowded_benchmark, imbalanced_benchmark
from ponodet.data import generate


def build_grid(shapes: np.ndarray, h_f: int, w_f: int,
               feat_stride: int) -> np.ndarray:
    """The anchor boxes [h_f, w_f, n_classes, n_anchors, 4] of the shapes
    [n_classes, n_anchors, 2] tiled over every cell center of an h_f x w_f
    map: the general form of `anchors.anchor_grid`, for grids of any size
    and stride."""
    if min(h_f, w_f, feat_stride) < 1:
        raise ValueError("h_f, w_f and feat_stride must be >= 1")
    nc, na = shapes.shape[:2]
    boxes = np.empty((h_f, w_f, nc, na, 4), dtype=np.float64)
    boxes[..., 0] = ((np.arange(w_f) + 0.5) * feat_stride)[None, :, None, None]
    boxes[..., 1] = ((np.arange(h_f) + 0.5) * feat_stride)[:, None, None, None]
    boxes[..., 2] = shapes[..., 0][None, None, :, :]
    boxes[..., 3] = shapes[..., 1][None, None, :, :]
    return boxes


def search_work(n_starts: int, n_members: int) -> tuple[np.ndarray, np.ndarray]:
    """`_local_search` buffers for `n_starts` starts on `n_members` members."""
    size = n_starts * len(_MOVES) * n_members
    return np.empty(size), np.empty(size)


def best_shape(members: np.ndarray) -> np.ndarray:
    """`_best_shape` from the members' mean, on a cache of its own: the
    mean is already its first start, so the shape is the one the search
    finds without a current centroid."""
    cache = {"work": search_work(_MAX_STARTS + 2, len(members))}
    return anchors._best_shape(members, members.mean(axis=0), cache)


def grid_search_single_shape(samples: np.ndarray, resolution: int = 120):
    """Exhaustive search for the one shape minimizing summed 1 - IoU."""
    lo = samples.min() * 0.5
    hi = samples.max() * 1.5
    ws = np.linspace(lo, hi, resolution)
    grid = np.stack(np.meshgrid(ws, ws, indexing="ij"), axis=-1).reshape(-1, 2)
    costs = np.sum(1.0 - wh_iou(grid[:, None, :], samples), axis=-1)
    i = int(np.argmin(costs))
    return grid[i], float(costs[i])


def kmeans_objective(shapes: np.ndarray, gt_sizes_per_class: list) -> float:
    """Summed min-over-centroids 1 - IoU cost over all classes."""
    total = 0.0
    for c in range(len(shapes)):
        arr = np.asarray(gt_sizes_per_class[c], dtype=np.float64).reshape(-1, 2)
        d = 1.0 - wh_iou(arr[:, None, :], shapes[c][None, :, :])
        total += float(d.min(axis=1).sum())
    return total


def per_class_objective(shapes: np.ndarray, gt_sizes_per_class: list) -> list:
    return [kmeans_objective(shapes[c:c + 1], [sizes])
            for c, sizes in enumerate(gt_sizes_per_class)]


# The Nelder-Mead centroid update k-means used before the batched local
# search, kept as its reference.

def nm_refine_shape(start: np.ndarray, members: np.ndarray) -> tuple[np.ndarray, float]:
    """Local minimization of the summed 1 - IoU cost, in log coordinates."""

    def cost(p):
        return _cluster_cost(np.exp(p), members)

    res = minimize(cost, np.log(start), method="Nelder-Mead",
                   options={"xatol": 1e-10, "fatol": 1e-12, "maxiter": 500})
    return np.exp(res.x), float(res.fun)


def nm_best_shape(members: np.ndarray, current: np.ndarray | None = None,
                  cache: dict | None = None) -> np.ndarray:
    """Shape minimizing the summed 1 - IoU distance to `members`.

    Multi-start: the component-wise mean, a deterministic subsample of the
    members, and the current centroid each seed a local search; exact-cost
    candidates (the starts themselves) compete too, so zero-cost starts are
    returned bit-for-bit.  `cache` is `_best_shape`'s and goes unused.
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
        for cand, cost in ((s, _cluster_cost(s, members)), nm_refine_shape(s, members)):
            if cost < best_cost:
                best, best_cost = np.asarray(cand, dtype=np.float64), cost
    return best


# The compass search before the search cache, its carried costs and its
# work buffers, kept as their reference: every round scores all 9
# candidates, the unmoved one first, into fresh arrays.

COMPASS_MOVES = np.array([[0, 0], [-1, -1], [-1, 0], [-1, 1], [0, -1],
                          [0, 1], [1, -1], [1, 0], [1, 1]], dtype=np.float64)


def compass_search_oracle(starts: np.ndarray,
                          members: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    pos = np.log(starts)
    step = np.full(len(pos), anchors._STEP0)
    active = np.arange(len(pos))
    while active.size:
        cand = pos[active, None, :] + step[active, None, None] * COMPASS_MOVES
        cost = _cluster_cost(np.exp(cand), members)
        # the unmoved candidate is first, so argmin > 0 is a strict descent
        move = np.argmin(cost, axis=1)
        went = move > 0
        pos[active[went]] = cand[went, move[went]]
        step[active[~went]] *= 0.5
        active = active[step[active] >= anchors._STEP_TOL]
    shapes = np.exp(pos)
    return shapes, _cluster_cost(shapes, members)


def oracle_best_shape(members: np.ndarray,
                      current: np.ndarray | None = None) -> np.ndarray:
    """`_best_shape` searching every start with `compass_search_oracle`."""
    starts = [members.mean(axis=0)]
    if len(members) <= _MAX_STARTS:
        starts.extend(members)
    else:
        order = np.argsort(members[:, 0] * members[:, 1], kind="stable")
        picks = np.linspace(0, len(members) - 1, _MAX_STARTS).astype(int)
        starts.extend(members[order[picks]])
    if current is not None:
        starts.append(np.asarray(current, dtype=np.float64))
    starts = np.asarray(starts, dtype=np.float64)

    ends, end_costs = compass_search_oracle(starts, members)
    start_costs = _cluster_cost(starts, members)
    cands = np.stack([starts, ends], axis=1).reshape(-1, 2)
    costs = np.stack([start_costs, end_costs], axis=1).reshape(-1)
    return cands[int(np.argmin(costs))]


# The k-means loop before the two-phase form, kept as its reference: the
# multi-start centroid update at every Lloyd step.

def multistart_lloyd(shapes: np.ndarray, n_a: int,
                     rng: np.random.Generator) -> np.ndarray:
    centroids = anchors._farthest_point_init(shapes, n_a, rng)
    assign = None
    for _ in range(anchors._MAX_STEPS):
        d = 1.0 - wh_iou(shapes[:, None, :], centroids[None, :, :])
        new_assign = np.argmin(d, axis=1)
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
            cand = oracle_best_shape(members, centroids[k])
            if _cluster_cost(cand, members) < _cluster_cost(centroids[k], members):
                centroids[k] = cand
                moved = True
        if assign is not None and np.array_equal(assign, new_assign) and not moved:
            break
        assign = new_assign
    return centroids


@functools.cache
def pinned_split(name: str) -> tuple[list, int]:
    """A pinned benchmark's training-box sizes per class and its k-means seed."""
    bench = crowded_benchmark() if name == "crowded" else imbalanced_benchmark()
    gts = [s.gt for s in generate(bench.gen, bench.n_train)]
    return sizes_per_class(gts, bench.gen.n_classes), bench.train_cfg.seed


def oracle_anchors(sizes: list, n_a: int, seed: int, monkeypatch) -> np.ndarray:
    with monkeypatch.context() as m:
        m.setattr(anchors, "_kmeans_one_class", multistart_lloyd)
        return kmeans_anchors(sizes, n_a, seed)


class TestWhIoU:
    def test_identical(self):
        assert wh_iou(np.array([10.0, 20.0]), np.array([10.0, 20.0])) == 1.0

    def test_nested(self):
        # 10x10 inside 20x20 sharing a center: 100 / 400
        assert wh_iou(np.array([10.0, 10.0]), np.array([20.0, 20.0])) == 0.25


class TestKmeans:
    def test_zero_variance(self):
        sizes = [np.full((40, 2), 10.0)]
        aset = kmeans_anchors(sizes, n_a=3, seed=0)
        np.testing.assert_array_equal(aset[0], np.full((3, 2), 10.0))

    def test_two_point_clusters(self):
        sizes = [np.array([[10.0, 10.0]] * 50 + [[40.0, 40.0]] * 50)]
        aset = kmeans_anchors(sizes, n_a=2, seed=3)
        np.testing.assert_allclose(aset[0], [[10, 10], [40, 40]])

    def test_single_centroid_matches_grid_search(self):
        rng = np.random.default_rng(17)
        for trial in range(4):
            samples = rng.uniform(6.0, 40.0, size=(5, 2))
            aset = kmeans_anchors([samples], n_a=1, seed=trial)
            got_cost = float(np.sum(1.0 - wh_iou(aset[0, 0], samples)))
            _, grid_cost = grid_search_single_shape(samples)
            assert got_cost <= grid_cost + 1e-6

    def test_deterministic(self):
        rng = np.random.default_rng(5)
        sizes = [rng.uniform(5, 50, size=(80, 2)), rng.uniform(8, 30, size=(40, 2))]
        a = kmeans_anchors(sizes, n_a=3, seed=9)
        b = kmeans_anchors(sizes, n_a=3, seed=9)
        np.testing.assert_array_equal(a, b)

    def test_objective_beats_init(self):
        # the final objective can never exceed the farthest-point seeding cost
        rng = np.random.default_rng(6)
        sizes = [rng.uniform(5, 60, size=(120, 2))]
        aset = kmeans_anchors(sizes, n_a=4, seed=1)
        # rerun with max_iter=0-equivalent: 1 iteration still updates, so
        # compare against a degenerate clustering of one shape instead
        single = kmeans_anchors(sizes, n_a=1, seed=1)
        wide = np.repeat(single, 4, axis=1)
        assert kmeans_objective(aset, sizes) <= kmeans_objective(wide, sizes) + 1e-12

    def test_lloyd_steps_capped_at_60(self, monkeypatch):
        # the loop reads the cap: under a cap of 2, a class that needs more
        # steps makes 2 steps of one single-start search per centroid
        assert anchors._MAX_STEPS == 60
        starts, cached_search = [], anchors._cached_search

        def spy(batch, members, cache):
            starts.append(len(batch))
            return cached_search(batch, members, cache)

        monkeypatch.setattr(anchors, "_cached_search", spy)
        monkeypatch.setattr(anchors, "_MAX_STEPS", 2)
        shapes = np.random.default_rng(29).uniform(5, 60, size=(100, 2))
        anchors._kmeans_one_class(shapes, 3, np.random.default_rng(0))
        assert starts == [1] * 6

    def test_objective_nonincreasing_with_iterations(self, monkeypatch):
        rng = np.random.default_rng(7)
        sizes = [rng.uniform(5, 60, size=(100, 2))]
        # the class's k-means under each cap, drawn as `kmeans_anchors` draws it
        costs = []
        for cap in (1, 2, 4, 8, 16, 32):
            monkeypatch.setattr(anchors, "_MAX_STEPS", cap)
            costs.append(kmeans_objective(anchors._kmeans_one_class(
                sizes[0], 3, np.random.default_rng([2, 0]))[None], sizes))
        assert all(costs[i + 1] <= costs[i] + 1e-12 for i in range(len(costs) - 1))

    def test_sorted_by_area(self):
        rng = np.random.default_rng(8)
        sizes = [rng.uniform(5, 60, size=(100, 2))]
        aset = kmeans_anchors(sizes, n_a=4, seed=0)
        areas = aset[0, :, 0] * aset[0, :, 1]
        assert np.all(np.diff(areas) >= 0)

    @pytest.mark.parametrize("name", ["imbalanced_n_a3", "crowded_200_boxes"])
    def test_objective_within_nelder_mead_oracle(self, name, monkeypatch):
        if name == "imbalanced_n_a3":
            bench, n_a = imbalanced_benchmark(), 3
            gts = [s.gt for s in generate(bench.gen, bench.n_train)]
            sizes = sizes_per_class(gts, bench.gen.n_classes)
        else:
            bench = crowded_benchmark()
            n_a = bench.n_anchors
            gts = [s.gt for s in generate(bench.gen, bench.n_train)]
            boxes = [(c, b[2], b[3]) for gt in gts
                     for b, c in zip(gt.boxes, gt.class_ids)]
            picks = np.random.default_rng(0).choice(len(boxes), 200, replace=False)
            sizes = [np.asarray([boxes[i][1:] for i in sorted(picks)
                                 if boxes[i][0] == c]).reshape(-1, 2)
                     for c in range(bench.gen.n_classes)]
        seed = bench.train_cfg.seed
        got = per_class_objective(kmeans_anchors(sizes, n_a, seed), sizes)
        monkeypatch.setattr(anchors, "_best_shape", nm_best_shape)
        want = per_class_objective(kmeans_anchors(sizes, n_a, seed), sizes)
        assert all(g <= w + 1e-9 for g, w in zip(got, want)), (got, want)

    def test_single_cluster_within_oracles(self):
        rng = np.random.default_rng(23)
        for _ in range(100):
            members = rng.uniform(4.0, 60.0, size=(int(rng.integers(2, 9)), 2))
            cost = _cluster_cost(best_shape(members), members)
            assert cost <= _cluster_cost(nm_best_shape(members), members) + 1e-12
            assert cost <= grid_search_single_shape(members)[1] + 1e-6

    @pytest.mark.parametrize("name,n_a", [("crowded", 2), ("imbalanced", 3)])
    def test_pinned_split_matches_multistart_oracle(self, name, n_a, monkeypatch):
        sizes, seed = pinned_split(name)
        got = kmeans_anchors(sizes, n_a, seed)
        want = oracle_anchors(sizes, n_a, seed, monkeypatch)
        np.testing.assert_array_equal(got, want)

    def test_imbalanced_five_anchors_within_multistart_oracle(self, monkeypatch):
        sizes, seed = pinned_split("imbalanced")
        got = kmeans_anchors(sizes, 5, seed)
        want = oracle_anchors(sizes, 5, seed, monkeypatch)
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=0)
        got_obj, want_obj = (per_class_objective(a, sizes) for a in (got, want))
        assert all(g <= w + 1e-12 for g, w in zip(got_obj, want_obj)), (got_obj, want_obj)

    def test_single_start_steps_then_multistart_to_the_fixed_point(self, monkeypatch):
        rng = np.random.default_rng(29)
        shapes, n_a = rng.uniform(5, 60, size=(100, 2)), 3
        calls, in_best = [], []
        cached_search, best_shape = anchors._cached_search, anchors._best_shape

        def spy_search(starts, members, cache):
            # only the searches asked for outside `_best_shape`, hits included
            if not in_best:
                calls.append("local")
            return cached_search(starts, members, cache)

        def spy_best(members, current=None, cache=None):
            calls.append("best")
            in_best.append(True)
            try:
                return best_shape(members, current, cache)
            finally:
                in_best.pop()

        monkeypatch.setattr(anchors, "_cached_search", spy_search)
        monkeypatch.setattr(anchors, "_best_shape", spy_best)
        centroids = anchors._kmeans_one_class(shapes, n_a, np.random.default_rng(0))
        n_local, n_best = calls.count("local"), calls.count("best")
        # every cluster is non-empty at every step, so each step makes n_a calls
        assert calls == ["local"] * n_local + ["best"] * n_best, calls
        assert n_local % n_a == 0 and n_best % n_a == 0
        assert n_local >= 2 * n_a and n_best >= n_a
        assert (n_local + n_best) // n_a < anchors._MAX_STEPS  # converged, not capped
        # the last, multi-start step changed nothing: the result is its fixed point
        assign = np.argmin(1.0 - wh_iou(shapes[:, None, :], centroids[None]), axis=1)
        for k in range(n_a):
            members = shapes[assign == k]
            cache = {"work": search_work(_MAX_STARTS + 2, len(members))}
            assert not (_cluster_cost(best_shape(members, centroids[k], cache), members)
                        < _cluster_cost(centroids[k], members))

    def test_search_matches_compass_oracle(self, monkeypatch):
        batches = []
        cached_search = anchors._cached_search

        def spy(starts, members, cache):
            batches.append((starts.copy(), members.copy()))
            return cached_search(starts, members, cache)

        # every batch the pinned splits search, `_best_shape`'s starts included
        monkeypatch.setattr(anchors, "_cached_search", spy)
        for name, n_a in [("crowded", 2), ("imbalanced", 3)]:
            sizes, seed = pinned_split(name)
            kmeans_anchors(sizes, n_a, seed)
        assert any(len(starts) > 1 for starts, _ in batches)
        rng = np.random.default_rng(37)
        for n in [1, 2, 5, 9, 40, 300, 1000]:
            members = rng.uniform(4.0, 60.0, size=(n, 2))
            for n_starts in [1, 4, 10]:
                batches.append((rng.uniform(2.0, 80.0, size=(n_starts, 2)), members))
            # one start on a member, one inside the cluster, one far out
            batches.append((np.stack([members[n // 2], members.mean(axis=0),
                                      [300.0, 1.5]]), members))
        # the start on the lone shape only halves its step, so it stops
        # rounds before the far start, which must first walk there
        batches.append((np.array([[12.0, 7.0], [90.0, 2.0]]), np.array([[12.0, 7.0]])))
        for starts, members in batches:
            got = anchors._local_search(starts, members, search_work(len(starts), len(members)))
            want = compass_search_oracle(starts, members)
            np.testing.assert_array_equal(got[0], want[0])
            np.testing.assert_array_equal(got[1], want[1])

    def test_pinned_crowded_searches_each_start_once(self, monkeypatch):
        sizes, seed = pinned_split("crowded")
        searched, per_class = [], []
        local_search, best_shape = anchors._local_search, anchors._best_shape
        one_class = anchors._kmeans_one_class

        def spy_local(starts, members, work=None):
            searched.append(len(starts))
            return local_search(starts, members, work)

        def spy_best(members, current=None, cache=None):
            before = sum(searched)
            out = best_shape(members, current, cache)
            per_class[-1].append(sum(searched) - before)
            return out

        def spy_class(*args):
            per_class.append([])
            return one_class(*args)

        monkeypatch.setattr(anchors, "_local_search", spy_local)
        monkeypatch.setattr(anchors, "_best_shape", spy_best)
        monkeypatch.setattr(anchors, "_kmeans_one_class", spy_class)
        kmeans_anchors(sizes, 2, seed)
        # the first multi-start step reuses phase 1's search from the
        # centroid; the confirming step searches only from the new centroid
        assert per_class == [[9, 9, 1, 1], [9, 9, 1, 1]], per_class
        assert sum(searched) <= 84  # 120 with every start searched each time

    def test_one_pair_of_work_buffers_per_class(self, monkeypatch):
        sizes, seed = pinned_split("crowded")
        pairs, searches = [], []  # the pairs are held, so no id is reused
        local_search = anchors._local_search

        def spy_local(starts, members, work=None):
            if not any(work is p for p in pairs):
                pairs.append(work)
            searches.append(len(members))
            return local_search(starts, members, work)

        monkeypatch.setattr(anchors, "_local_search", spy_local)
        kmeans_anchors(sizes, 2, seed)
        assert len(pairs) == len(sizes) == 2 and len(searches) > 2 * len(pairs)
        for pair, shapes in zip(pairs, sizes):
            # the largest start batch (mean, 8 members, centroid) x 8 moves
            # by every shape of the class
            assert len(pair) == 2 and pair[0] is not pair[1]
            assert all(buf.shape == ((_MAX_STARTS + 2) * 8 * len(shapes),) for buf in pair)

    def test_empty_class_error_names_class(self, monkeypatch):
        # raised before any class is clustered, class 0 included
        clustered = []
        monkeypatch.setattr(anchors, "_kmeans_one_class",
                            lambda *a: clustered.append(a) or np.ones((2, 2)))
        sizes = [np.full((400, 2), 10.0), np.empty((0, 2)), np.full((4, 2), 9.0)]
        with pytest.raises(ValueError, match="class 1 has no boxes, but the classes run to 2"):
            kmeans_anchors(sizes, n_a=2, seed=0)
        assert clustered == []

    def test_n_a_bounded(self):
        with pytest.raises(ValueError, match=f"n_a must be at most {anchors.MAX_N_A}, "
                                             f"got {anchors.MAX_N_A + 1}"):
            kmeans_anchors([np.full((4, 2), 9.0)], n_a=anchors.MAX_N_A + 1, seed=0)


class TestBuildGrid:
    def test_single_cell(self):
        aset = np.array([[[4.0, 4.0]]])
        grid = build_grid(aset, 1, 1, 8)
        assert grid[0, 0, 0, 0].tolist() == [4.0, 4.0, 4.0, 4.0]

    def test_centers(self):
        aset = np.array([[[4.0, 4.0]]])
        grid = build_grid(aset, 2, 2, 8)
        centers = {tuple(grid[i, j, 0, 0, :2].tolist())
                   for i in range(2) for j in range(2)}
        assert centers == {(4.0, 4.0), (12.0, 4.0), (4.0, 12.0), (12.0, 12.0)}

    def test_cell_count_and_shapes(self):
        aset = np.arange(1, 2 * 3 * 2 + 1, dtype=float).reshape(2, 3, 2)
        grid = build_grid(aset, 5, 7, 4)
        assert grid.shape == (5, 7, 2, 3, 4)
        np.testing.assert_array_equal(grid[2, 3, :, :, 2:], aset)

    def test_centers_inside_image(self):
        aset = np.full((1, 2, 2), 9.0)
        grid = build_grid(aset, 6, 6, 8)
        assert grid[..., 0].max() < 6 * 8
        assert grid[..., 1].min() > 0

    def test_validates_sizes(self):
        aset = np.full((1, 1, 2), 4.0)
        with pytest.raises(ValueError):
            build_grid(aset, 0, 3, 8)

    @pytest.mark.parametrize("size", [32, 48, 64])
    def test_equals_the_square_stride_8_grid_of_a_run(self, size):
        aset = np.random.default_rng(size).uniform(4, 30, (2, 3, 2))
        want = anchor_grid(aset, size)
        np.testing.assert_array_equal(build_grid(aset, size // 8, size // 8, 8), want)

    def test_run_grid_needs_a_stride_8_cell(self):
        with pytest.raises(ValueError, match="a 7px image has no stride-8 cell"):
            anchor_grid(np.full((1, 1, 2), 4.0), 7)

    @pytest.mark.parametrize("shapes", [np.full((2, 2), 4.0), np.full((1, 2, 3), 4.0),
                                        np.full((1, 1, 1, 2), 4.0)])
    def test_run_grid_needs_class_anchor_side_shapes(self, shapes):
        with pytest.raises(ValueError, match=re.escape(
                f"shapes must be [n_classes, n_anchors, 2], got {shapes.shape}")):
            anchor_grid(shapes, 32)

    @pytest.mark.parametrize("side", [0.0, -3.0, np.nan])
    def test_run_grid_needs_positive_sides(self, side):
        shapes = np.full((2, 2, 2), 9.0)
        shapes[1, 0, 1] = side
        with pytest.raises(ValueError, match="anchor sides must be positive"):
            anchor_grid(shapes, 32)


class TestAnchorFile:
    def test_roundtrip(self, tmp_path):
        rng = np.random.default_rng(11)
        sizes = [rng.uniform(5, 50, size=(30, 2)), rng.uniform(5, 50, size=(30, 2))]
        aset = kmeans_anchors(sizes, n_a=3, seed=4)
        path = tmp_path / "anchors.txt"
        save_anchor_set(path, aset)
        loaded = load_anchor_set(path)
        np.testing.assert_array_equal(loaded, aset)

    def test_failed_write_keeps_previous_file(self, tmp_path):
        path = tmp_path / "anchors.txt"
        save_anchor_set(path, np.full((1, 2, 2), 8.0))
        before = path.read_bytes()
        # the second class's sides do not convert, after the first line is out
        broken = np.array([[[9.0, 9.0]], [["w", "h"]]], dtype=object)
        with pytest.raises(ValueError):
            save_anchor_set(path, broken)
        assert path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["anchors.txt"]

    def test_malformed_line(self, tmp_path):
        path = tmp_path / "anchors.txt"
        path.write_text("0 10.0 12.0\n0 nonsense\n")
        with pytest.raises(ValueError, match=":2"):
            load_anchor_set(path)

    @pytest.mark.parametrize("line", ["0 inf 5", "0 1e400 5", "0 nan 5",
                                      "0 -2 3", "0 5 0", "-1 5 5"])
    def test_bad_line_named(self, tmp_path, line):
        path = tmp_path / "anchors.txt"
        path.write_text(f"0 10.0 12.0\n{line}\n")
        with pytest.raises(ValueError, match=re.escape(f"{path}:2: ")):
            load_anchor_set(path)

    def test_non_utf8_byte_named(self, tmp_path):
        path = tmp_path / "anchors.txt"
        path.write_bytes(b"0 10.0 12.0\n0 5 5\xe9\n")
        with pytest.raises(ValueError, match=re.escape(f"{path}:2: byte 0xe9 is not UTF-8")):
            load_anchor_set(path)

    @settings(max_examples=200, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(st.one_of(
        st.text(),
        st.lists(st.lists(st.sampled_from(
            ["0", "1", "2", "-1", "5", "0.5", "1e400", "-2", "nan", "inf",
             "0x10", "#", "1e-320", "x"]), max_size=4).map(" ".join),
            max_size=6).map("\n".join)))
    def test_any_text_loads_or_names_the_file(self, tmp_path, text):
        path = tmp_path / "anchors.txt"
        path.write_text(text, encoding="utf-8")
        try:
            aset = load_anchor_set(path)
        except ValueError as e:
            assert str(e).startswith(str(path)), str(e)
        else:
            assert np.all(np.isfinite(aset)) and np.all(aset > 0)
