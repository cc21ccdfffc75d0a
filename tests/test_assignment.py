import numpy as np
import pytest

from ponodet.anchors import AnchorSet, build_grid, kmeans_anchors
from ponodet.assignment import (UNASSIGNED, GroundTruth, ams_labels, assign_ao,
                                pono_labels, pred_iou_values, threshold_labels)
from ponodet.data import GenSpec, generate
from ponodet.geometry import Box, iou


def square_grid(shapes, h=4, w=4, stride=8):
    return build_grid(AnchorSet(np.asarray(shapes, float)), h, w, stride)


class TestAssignAO:
    def test_empty_gt_all_unassigned(self):
        grid = square_grid([[[8.0, 8.0]]])
        am = assign_ao(grid, GroundTruth(boxes=[], class_ids=[]))
        assert np.all(am.gt_index == UNASSIGNED)

    def test_single_gt_class_separation(self):
        grid = square_grid([[[8.0, 8.0]], [[8.0, 8.0]]])
        gt = GroundTruth(boxes=[Box(12, 12, 10, 10)], class_ids=[0])
        am = assign_ao(grid, gt)
        covered = am.gt_index[:, :, 0, 0]
        assert np.all(am.gt_index[:, :, 1, 0] == UNASSIGNED)
        # class-0 cells with positive overlap all map to object 0
        raw = am.ao
        assert np.all((covered == 0) == (raw[:, :, 0, 0] > 0))

    def test_argmax_between_two_objects(self):
        # two cells: the left cell overlaps object b more (0.6 vs 0.4-ish),
        # object a keeps the right cell, so no repair interferes
        grid = square_grid([[[10.0, 10.0]]], h=1, w=2, stride=10)
        a = Box(14, 5, 10, 10)
        b = Box(3, 5, 10, 10)
        gt = GroundTruth(boxes=[a, b], class_ids=[0, 0])
        am = assign_ao(grid, gt)
        left = grid.cell(0, 0, 0, 0)
        assert iou(left, b) > iou(left, a) > 0
        assert am.gt_index[0, 0, 0, 0] == 1
        assert am.gt_index[0, 1, 0, 0] == 0

    def test_tie_breaks_to_lowest_index(self):
        # duplicate objects tie on every cell: argmax gives cells to object
        # 0, then the repair hands object 1 exactly one cell back
        grid = square_grid([[[10.0, 10.0]]], h=1, w=2, stride=10)
        box = Box(10, 5, 10, 10)
        gt = GroundTruth(boxes=[box, box], class_ids=[0, 0])
        am = assign_ao(grid, gt)
        idx = am.gt_index[0, :, 0, 0]
        assert sorted(idx.tolist()) == [0, 1]
        assert idx[1] == 0  # the non-repaired cell keeps the argmax tie-break

    def test_assignment_invariants(self):
        grid = square_grid([[[8.0, 8.0], [16.0, 16.0]], [[8.0, 8.0], [16.0, 16.0]]],
                           h=4, w=4, stride=8)
        gt = GroundTruth(
            boxes=[Box(10, 10, 12, 9), Box(22, 20, 8, 8), Box(15, 25, 10, 14)],
            class_ids=[0, 1, 0])
        am = assign_ao(grid, gt)
        raw = am.ao
        idx = am.gt_index
        for cell in np.argwhere(idx != UNASSIGNED):
            i, j, c, a = cell
            k = idx[i, j, c, a]
            assert gt.class_ids[k] == c
            assert raw[i, j, c, a] > 0

    def test_coverage_repair_for_stolen_object(self):
        # one huge and one small same-class object; every anchor is large,
        # so pure argmax would hand every overlapping cell to the big one
        grid = square_grid([[[30.0, 30.0]]], h=4, w=4, stride=8)
        big = Box(16, 16, 30, 30)
        small = Box(16, 16, 5, 5)
        gt = GroundTruth(boxes=[big, small], class_ids=[0, 0])
        am = assign_ao(grid, gt)
        assert np.any(am.gt_index == 0)
        assert np.any(am.gt_index == 1)


class TestPono:
    def test_single_anchor_cluster_gets_one(self):
        grid = square_grid([[[6.0, 6.0]]], h=2, w=2, stride=16)
        gt = GroundTruth(boxes=[Box(8, 8, 5, 5)], class_ids=[0])
        am = assign_ao(grid, gt)
        cluster = am.pono[am.gt_index == 0]
        assert cluster.max() == 1.0

    def test_direct_normalization(self):
        grid = square_grid([[[10.0, 10.0]]], h=1, w=2, stride=10)
        gt = GroundTruth(boxes=[Box(7.5, 5, 10, 10)], class_ids=[0])
        am = assign_ao(grid, gt)
        assert np.all(am.gt_index == 0)
        np.testing.assert_allclose(am.pono, am.ao / am.ao.max())

    def test_zero_on_unassigned(self):
        grid = square_grid([[[8.0, 8.0]], [[8.0, 8.0]]])
        gt = GroundTruth(boxes=[Box(10, 10, 8, 8)], class_ids=[0])
        am = assign_ao(grid, gt)
        assert np.all(am.pono[:, :, 1, :] == 0)

    def test_pono_at_least_ao(self):
        rng = np.random.default_rng(0)
        grid = square_grid([[[8.0, 8.0], [14.0, 20.0]]], h=4, w=4, stride=8)
        boxes = [Box(rng.uniform(8, 24), rng.uniform(8, 24),
                     rng.uniform(6, 20), rng.uniform(6, 20)) for _ in range(3)]
        gt = GroundTruth(boxes=boxes, class_ids=[0, 0, 0])
        am = assign_ao(grid, gt)
        assert np.all(am.pono >= am.ao - 1e-15)

    def test_every_object_reaches_exactly_one(self):
        spec = GenSpec(n_classes=2, class_freq=(0.6, 0.4),
                       size_ranges=((6.0, 30.0), (6.0, 30.0)),
                       objects_per_scene=(1, 4), crowding=0.5, seed=42,
                       image_size=64)
        scenes = generate(spec, 40)
        rng = np.random.default_rng(7)
        for scene in scenes:
            shapes = rng.uniform(6, 40, size=(2, rng.integers(1, 4), 2))
            grid = build_grid(AnchorSet(shapes), 8, 8, 8)
            am = assign_ao(grid, scene.gt)
            for k in range(len(scene.gt)):
                cluster = am.pono[am.gt_index == k]
                assert cluster.size > 0
                assert cluster.max() == 1.0


class TestPredIoU:
    def test_zero_offsets_equal_ao(self):
        grid = square_grid([[[8.0, 8.0], [12.0, 16.0]]], h=3, w=3, stride=8)
        gt = GroundTruth(boxes=[Box(10, 12, 9, 9), Box(20, 18, 12, 14)],
                         class_ids=[0, 0])
        am = assign_ao(grid, gt)
        o_hat = pred_iou_values(grid, np.zeros(grid.boxes.shape), am)
        np.testing.assert_allclose(o_hat, am.ao, atol=1e-15)

    def test_perfect_anchor(self):
        grid = square_grid([[[8.0, 8.0]]], h=1, w=1, stride=8)
        gt = GroundTruth(boxes=[Box(4, 4, 8, 8)], class_ids=[0])
        am = assign_ao(grid, gt)
        o_hat = pred_iou_values(grid, np.zeros(grid.boxes.shape), am)
        assert o_hat[0, 0, 0, 0] == 1.0

    def test_offsets_fit_gt_exactly(self):
        grid = square_grid([[[4.0, 4.0]]], h=2, w=2, stride=10)
        # anchor at (5, 5): shift to (12, 10) and double the width
        gt = GroundTruth(boxes=[Box(7.0, 5.0, 8.0, 4.0)], class_ids=[0])
        am = assign_ao(grid, gt)
        offsets = np.zeros(grid.boxes.shape)
        offsets[0, 0, 0, 0] = [0.5, 0.0, np.log(2.0), 0.0]
        o_hat = pred_iou_values(grid, offsets, am)
        assert o_hat[0, 0, 0, 0] == pytest.approx(1.0, abs=1e-12)

    def test_shape_mismatch(self):
        grid = square_grid([[[8.0, 8.0]]])
        gt = GroundTruth(boxes=[Box(8, 8, 8, 8)], class_ids=[0])
        with pytest.raises(ValueError):
            pred_iou_values(grid, np.zeros((2, 2, 1, 1, 4)), assign_ao(grid, gt))


class TestLabels:
    def test_ams_product_rule(self):
        o = np.array([[[[1.0, 0.9, 0.0]]]])
        oh = np.array([[[[0.6, 0.5, 0.0]]]])
        np.testing.assert_array_equal(ams_labels(o, oh), [[[[1, 0, 0]]]])

    def test_untrained_predictions_all_negative(self):
        assert ams_labels(np.ones((2, 2, 1, 1)), np.zeros((2, 2, 1, 1))).sum() == 0

    def test_pono_rule_strict_threshold(self):
        o = np.array([[[[1.0, 0.5, 0.2, 0.4]]]])
        np.testing.assert_array_equal(pono_labels(o), [[[[1, 0, 0, 0]]]])

    def test_pono_rule_from_cluster(self):
        # overlaps {0.2, 0.4} normalize to {0.5, 1.0} -> labels {0, 1}
        o = np.array([[[[0.5, 1.0]]]])
        np.testing.assert_array_equal(pono_labels(o), [[[[0, 1]]]])

    def test_ao_threshold_rule(self):
        raw = np.array([[[[0.51, 0.5, 0.49]]]])
        np.testing.assert_array_equal(threshold_labels(raw, 0.5), [[[[1, 0, 0]]]])

    def test_ams_subset_of_pono(self):
        rng = np.random.default_rng(3)
        o = rng.uniform(0, 1, (4, 4, 2, 3))
        oh = rng.uniform(0, 1, (4, 4, 2, 3))
        assert np.all(ams_labels(o, oh) <= pono_labels(o))

    def test_label_invariant_product_gate(self):
        rng = np.random.default_rng(4)
        o = rng.uniform(0, 1, (4, 4, 1, 2))
        oh = rng.uniform(0, 1, (4, 4, 1, 2))
        labels = ams_labels(o, oh)
        assert np.all((o * oh)[labels == 1] > 0.5)


class TestAmbiguitySuppression:
    def test_torn_anchor_stays_negative(self):
        """An anchor overlapping two disjoint same-class objects can never
        satisfy both at once; its normalized overlap stays at or below the
        gate, so the ambiguity-managed label is negative for any
        prediction."""
        grid = square_grid([[[12.0, 12.0]]], h=1, w=3, stride=12)
        a = Box(8, 6, 12, 12)
        b = Box(28, 6, 12, 12)
        gt = GroundTruth(boxes=[a, b], class_ids=[0, 0])
        am = assign_ao(grid, gt)
        mid = am.pono[0, 1, 0, 0]
        assert 0.0 < mid <= 0.5

        # geometric fact: no single box overlaps both disjoint objects
        # above 0.5 -- exhaustive search over a coarse offset grid
        anchor = grid.cell(0, 1, 0, 0)
        best = 0.0
        from ponodet.geometry import Offsets, decode
        for dx in np.linspace(-1.5, 1.5, 13):
            for dw in np.linspace(-1.5, 1.5, 13):
                for dh in np.linspace(-1.5, 1.5, 9):
                    cand = decode(anchor, Offsets(dx, 0.0, dw, dh))
                    best = max(best, min(iou(cand, a), iou(cand, b)))
        assert best <= 0.5

        # whatever the network predicts, the product rule keeps it negative
        for trial in range(20):
            oh = np.random.default_rng(trial).uniform(0, 1, am.pono.shape)
            assert ams_labels(am.pono, oh)[0, 1, 0, 0] == 0
