import numpy as np
import pytest

from ponodet.evaluation import IOU_MATCH, _ranked_matches, extract_detections, map_eval
from ponodet.geometry import Detections, GroundTruth, pairwise_iou
from ponodet.loss import sigmoid

from test_anchors import build_grid
from test_geometry import (CLAMP_OFFSETS, decode_cxywh, dets_of, iou_oracle, nms_oracle,
                           rows_of)


def average_precision(dets_per_scene, gts, class_id):
    """One class's AP as `map_eval` scores it; 0.0 for a class with no
    annotated object."""
    return map_eval(dets_per_scene, gts)[0].get(class_id, 0.0)


def object_counts(gts, classes):
    """Each class's annotated object count, counted scene by scene."""
    return {c: sum(int(np.sum(gt.class_ids == c)) for gt in gts) for c in classes}


def detection_counts(dets_per_scene, classes):
    """Each class's detection count, counted scene by scene."""
    return {c: sum(int(np.sum(d.class_ids == c)) for d in dets_per_scene) for c in classes}


def extract_oracle(logits, offsets, grid, score_min, nms_iou):
    """The former per-cell loop: decode each selected cell on its own, then
    the per-pair NMS oracle; (cx, cy, w, h, class_id, score) rows."""
    scores = sigmoid(logits)
    rows = []
    for i, j, c, a in np.argwhere(scores >= score_min):
        b, o = grid[i, j, c, a], offsets[i, j, c, a]
        box = decode_cxywh(b[0], b[1], b[2], b[3], o[0], o[1], o[2], o[3])
        rows.append((*map(float, box), int(c), float(scores[i, j, c, a])))
    keep = nms_oracle([r[:4] for r in rows], [r[4] for r in rows],
                      [r[5] for r in rows], nms_iou)
    return [rows[k] for k in keep]


def brute_force_ap(dets_per_scene, gts, class_id, iou_match=0.5):
    """Threshold-sweep oracle: rebuild the match set from scratch at every
    distinct score threshold, then integrate the precision envelope over
    the achieved recalls."""
    flat = []  # (scene, box, score) of the class's detections
    for s, dets in enumerate(dets_per_scene):
        for *box, c, score in rows_of(dets):
            if c == class_id:
                flat.append((s, box, score))
    n_gt = sum(sum(1 for c in gt.class_ids if c == class_id) for gt in gts)
    if n_gt == 0 or not flat:
        return 0.0

    def point_at(threshold):
        kept = [d for d in flat if d[2] >= threshold]
        kept.sort(key=lambda t: -t[2])
        matched = [set() for _ in gts]
        tp = 0
        for s, box, _ in kept:
            best, best_k = 0.0, -1
            for k, (gt_box, c) in enumerate(zip(gts[s].boxes, gts[s].class_ids)):
                if c != class_id or k in matched[s]:
                    continue
                v = iou_oracle(box, gt_box)
                if v > best:
                    best, best_k = v, k
            if best_k >= 0 and best >= iou_match:
                matched[s].add(best_k)
                tp += 1
        if not kept:
            return 0.0, 1.0
        return tp / n_gt, tp / len(kept)

    points = sorted(point_at(t) for t in {score for *_, score in flat})
    recalls = sorted({r for r, _ in points})
    ap, prev = 0.0, 0.0
    for r in recalls:
        if r == 0.0:
            continue
        env = max(p for rr, p in points if rr >= r)
        ap += (r - prev) * env
        prev = r
    return ap


def ranked_matches_oracle(dets_per_scene, gts):
    """The former `_ranked_matches`: a (-score, scene, list index, class id,
    hit) tuple per detection, sorted."""
    ranked = []
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


def det(cx, cy, w, h, cls, score):
    return (cx, cy, w, h, cls, score)


class TestAveragePrecision:
    def test_perfect_detections(self):
        gts = [GroundTruth([(10, 10, 8, 8), (30, 30, 6, 6)], [0, 0])]
        dets = [dets_of(det(10, 10, 8, 8, 0, 0.9), det(30, 30, 6, 6, 0, 0.8))]
        assert average_precision(dets, gts, 0) == 1.0

    def test_no_detections(self):
        gts = [GroundTruth([(10, 10, 8, 8)], [0])]
        assert average_precision([dets_of()], gts, 0) == 0.0

    def test_hand_rolled_pr_example(self):
        # 2 objects; TP(0.9), FP(0.8), TP(0.7) => AP = 0.5*1 + 0.5*(2/3)
        gts = [GroundTruth([(10, 10, 8, 8), (40, 40, 8, 8)], [0, 0])]
        dets = [dets_of(det(10, 10, 8, 8, 0, 0.9),
                        det(25, 25, 4, 4, 0, 0.8),
                        det(40, 40, 8, 8, 0, 0.7))]
        assert average_precision(dets, gts, 0) == pytest.approx(5 / 6, abs=1e-12)

    def test_trailing_fp_never_raises_ap(self):
        gts = [GroundTruth([(10, 10, 8, 8)], [0])]
        dets = [dets_of(det(10, 10, 8, 8, 0, 0.9))]
        base = average_precision(dets, gts, 0)
        dets2 = [dets_of(det(10, 10, 8, 8, 0, 0.9), det(40, 40, 4, 4, 0, 0.1))]
        assert average_precision(dets2, gts, 0) <= base

    def test_monotone_score_rescale_invariance(self):
        rng = np.random.default_rng(0)
        gts = [GroundTruth([(10, 10, 8, 8), (30, 30, 8, 8)], [0, 0])]
        dets = [dets_of(*[det(10 + rng.normal(), 10, 8, 8, 0, s)
                          for s in (0.9, 0.6, 0.4, 0.2)])]
        a = average_precision(dets, gts, 0)
        resc = [Detections(dets[0].boxes, dets[0].class_ids, dets[0].scores ** 3)]
        assert average_precision(resc, gts, 0) == pytest.approx(a, abs=1e-12)

    def test_greedy_match_each_gt_once(self):
        gts = [GroundTruth([(10, 10, 8, 8)], [0])]
        dets = [dets_of(det(10, 10, 8, 8, 0, 0.9), det(10, 10, 8, 8, 0, 0.8))]
        # second duplicate is a false positive: AP = area under p=1 up to
        # r=1 is cut by the duplicate only after recall saturates
        assert average_precision(dets, gts, 0) == 1.0

    def test_matches_brute_force_on_random_instances(self):
        rng = np.random.default_rng(42)
        for _ in range(100):
            n_scenes = rng.integers(1, 4)
            gts, dets = [], []
            for _ in range(n_scenes):
                n_obj = rng.integers(0, 4)
                boxes = [(*rng.uniform(10, 50, 2), *rng.uniform(5, 15, 2))
                         for _ in range(n_obj)]
                gts.append(GroundTruth(boxes, [0] * n_obj))
                ds = []
                for cx, cy, w, h in boxes:
                    if rng.random() < 0.8:
                        ds.append(det(cx + rng.normal(0, 2), cy + rng.normal(0, 2),
                                      w * rng.uniform(0.8, 1.2), h, 0,
                                      float(rng.uniform(0.1, 1.0))))
                for _ in range(rng.integers(0, 3)):
                    ds.append(det(*rng.uniform(10, 50, 2), *rng.uniform(5, 15, 2),
                                  0, float(rng.uniform(0.1, 1.0))))
                dets.append(dets_of(*ds))
            got = average_precision(dets, gts, 0)
            want = brute_force_ap(dets, gts, 0)
            assert got == pytest.approx(want, abs=1e-9)


class TestRankedMatches:
    """The ranking on arrays gives the tuple sort's dtypes and bytes."""

    @staticmethod
    def assert_matches_oracle(dets, gts):
        got, want = _ranked_matches(dets, gts), ranked_matches_oracle(dets, gts)
        for a, b in zip(got, want, strict=True):
            assert a.dtype == b.dtype and a.tobytes() == b.tobytes()
        return got

    def test_random_instances_with_ties(self):
        # scores from a few levels tie within and across scenes, 0.0 among
        # them; some scenes have no detections and some no objects
        rng = np.random.default_rng(44)
        seen = {"empty_dets": 0, "empty_gt": 0, "zero": 0}
        for _ in range(200):
            gts, dets = [], []
            for _ in range(rng.integers(0, 5)):
                n_obj, n_det = rng.integers(0, 5), rng.integers(0, 7)
                gts.append(GroundTruth(
                    [(*rng.uniform(10, 40, 2), *rng.uniform(5, 15, 2)) for _ in range(n_obj)],
                    rng.integers(0, 2, n_obj)))
                near = [gts[-1].boxes[rng.integers(n_obj)] + rng.normal(0, 1.5, 4)
                        if n_obj and rng.random() < 0.7 else rng.uniform(10, 40, 4)
                        for _ in range(n_det)]
                dets.append(dets_of(*[det(cx, cy, abs(w) + 1, abs(h) + 1,
                                          rng.integers(0, 2),
                                          rng.choice([0.0, 0.25, 0.5, 1.0]))
                                      for cx, cy, w, h in near]))
                seen["empty_dets"] += n_det == 0
                seen["empty_gt"] += n_obj == 0
                seen["zero"] += int(np.sum(dets[-1].scores == 0.0))
            self.assert_matches_oracle(dets, gts)
        assert min(seen.values()) > 0

    def test_zero_scores_kept_at_score_min_zero(self):
        # logits this low give a score of exactly 0.0, which score_min 0 keeps
        grid = build_grid(np.asarray([[[8.0, 8.0]]]), 4, 4, 8)
        rng = np.random.default_rng(45)
        gts, dets = [], []
        for _ in range(3):
            logits = np.where(rng.random((4, 4, 1, 1)) < 0.5, -1000.0, 0.0)
            dets.append(extract_detections(logits, rng.normal(0, 0.1, (4, 4, 1, 1, 4)),
                                           grid, 0.0, 1.0))
            gts.append(GroundTruth(grid[rng.integers(4), rng.integers(4)].reshape(-1, 4),
                                   [0]))
        assert sum(int(np.sum(d.scores == 0.0)) for d in dets) > 0
        classes, hits = self.assert_matches_oracle(dets, gts)
        assert len(classes) == 48 and hits.any()

    def test_no_scenes(self):
        classes, hits = self.assert_matches_oracle([], [])
        assert classes.shape == hits.shape == (0,)


class TestMapEval:
    def test_all_perfect(self):
        gts = [GroundTruth([(10, 10, 8, 8), (30, 30, 8, 8)], [0, 1])]
        dets = [dets_of(det(10, 10, 8, 8, 0, 0.9), det(30, 30, 8, 8, 1, 0.8))]
        per_class, mean, n_gt, n_det = map_eval(dets, gts)
        assert per_class == {0: 1.0, 1: 1.0}
        assert mean == 1.0
        assert n_gt == object_counts(gts, per_class)
        assert n_det == detection_counts(dets, per_class) == {0: 1, 1: 1}

    def test_half(self):
        gts = [GroundTruth([(10, 10, 8, 8), (30, 30, 8, 8)], [0, 1])]
        dets = [dets_of(det(10, 10, 8, 8, 0, 0.9))]
        per_class, mean, n_gt, n_det = map_eval(dets, gts)
        assert per_class == {0: 1.0, 1: 0.0}
        assert mean == 0.5
        assert n_gt == object_counts(gts, per_class)
        # class 1 is scored without a detection
        assert n_det == detection_counts(dets, per_class) == {0: 1, 1: 0}

    def test_only_present_classes_counted(self):
        gts = [GroundTruth([(10, 10, 8, 8)], [1])]
        dets = [dets_of(det(10, 10, 8, 8, 1, 0.9), det(20, 20, 8, 8, 0, 0.8))]
        per_class, mean, n_gt, n_det = map_eval(dets, gts)
        assert set(per_class) == {1}
        assert n_gt == object_counts(gts, per_class) == {1: 1}
        # the class-0 detection has no annotated class to count under
        assert n_det == detection_counts(dets, per_class) == {1: 1}

    def test_object_counts_over_scenes(self):
        gts = [GroundTruth([(10, 10, 8, 8), (30, 30, 8, 8), (50, 50, 8, 8)], [2, 0, 2]),
               GroundTruth(np.zeros((0, 4)), []),
               GroundTruth([(20, 20, 8, 8)], [2])]
        per_class, _, n_gt, n_det = map_eval([dets_of()] * 3, gts)
        assert list(n_gt) == list(per_class) == [0, 2]
        assert n_gt == object_counts(gts, per_class) == {0: 1, 2: 3}
        assert n_det == {0: 0, 2: 0}

    def test_detection_counts_over_scenes(self):
        gts = [GroundTruth([(10, 10, 8, 8), (30, 30, 8, 8)], [0, 2]),
               GroundTruth([(20, 20, 8, 8)], [2])]
        dets = [dets_of(det(10, 10, 8, 8, 0, 0.9), det(30, 30, 8, 8, 2, 0.4),
                        det(31, 30, 8, 8, 2, 0.3), det(50, 50, 8, 8, 1, 0.8)),
                dets_of(det(20, 20, 8, 8, 2, 0.7), det(5, 5, 8, 8, 3, 0.6))]
        _, _, _, n_det = map_eval(dets, gts)
        assert list(n_det) == [0, 2]
        assert n_det == detection_counts(dets, [0, 2]) == {0: 1, 2: 3}


class TestExtractDetections:
    def grid(self):
        return build_grid(np.full((1, 1, 2), 8.0), 2, 2, 8)

    def test_all_low_logits_empty(self):
        grid = self.grid()
        assert extract_detections(np.full((2, 2, 1, 1), -10.0),
                                  np.zeros((2, 2, 1, 1, 4)), grid, 0.05, 0.5).boxes.shape == (0, 4)

    def test_single_hot_cell_is_anchor_box(self):
        grid = self.grid()
        logits = np.full((2, 2, 1, 1), -10.0)
        logits[1, 0, 0, 0] = 10.0
        dets = extract_detections(logits, np.zeros((2, 2, 1, 1, 4)), grid, 0.05, 0.5)
        assert len(dets) == 1
        assert dets.boxes[0].tolist() == grid[1, 0, 0, 0].tolist()
        assert dets.scores[0] > 0.9999

    def test_duplicates_collapse_under_nms(self):
        grid = self.grid()
        logits = np.full((2, 2, 1, 1), 4.0)  # every cell fires
        offsets = np.zeros((2, 2, 1, 1, 4))
        # all four cells decode onto the same spot
        for i in range(2):
            for j in range(2):
                acx, acy, aw, ah = grid[i, j, 0, 0]
                offsets[i, j, 0, 0, 0] = (8.0 - acx) / aw
                offsets[i, j, 0, 0, 1] = (8.0 - acy) / ah
        logits[0, 0, 0, 0] = 5.0
        dets = extract_detections(logits, offsets, grid, score_min=0.05, nms_iou=0.5)
        assert len(dets) == 1
        assert dets.scores[0] == pytest.approx(1 / (1 + np.exp(-5.0)))

    def test_matches_per_cell_loop(self):
        rng = np.random.default_rng(7)
        grid = build_grid(np.sort(rng.uniform(4, 16, (2, 3, 2)), axis=1), 6, 6, 4)
        for _ in range(10):
            # few logit levels: equal scores and same-spot duplicates are common
            logits = rng.choice([-4.0, 0.0, 1.0, 2.0], size=grid.shape[:4])
            offsets = rng.choice([0.0, 0.25, -0.5], size=grid.shape)
            for score_min, nms_iou in ((0.05, 0.5), (0.5, 0.3), (0.05, 0.9)):
                got = extract_detections(logits, offsets, grid, score_min, nms_iou)
                assert rows_of(got) == extract_oracle(logits, offsets, grid,
                                                      score_min, nms_iou)

    def test_clamped_offsets_and_empty_selection_match_per_cell_loop(self):
        rng = np.random.default_rng(9)
        grid = build_grid(np.sort(rng.uniform(4, 16, (2, 3, 2)), axis=1), 6, 6, 4)
        logits = rng.choice([-4.0, 0.0, 1.0, 2.0], size=grid.shape[:4])
        # dw / dh inside, at and beyond the clamp
        offsets = np.asarray(CLAMP_OFFSETS)[rng.integers(len(CLAMP_OFFSETS),
                                                         size=grid.shape[:4])]
        for score_min, nms_iou in ((0.05, 1.0), (0.5, 0.5), (0.99, 0.5)):
            got = extract_detections(logits, offsets, grid, score_min, nms_iou)
            assert rows_of(got) == extract_oracle(logits, offsets, grid,
                                                  score_min, nms_iou)
        assert len(got) == 0 and got.boxes.shape == (0, 4)
