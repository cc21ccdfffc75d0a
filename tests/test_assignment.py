from dataclasses import fields
from itertools import accumulate

import numpy as np
import pytest

from ponodet import autodiff as ad
from ponodet import benchmarks as B
from ponodet.anchors import anchor_grid, kmeans_anchors
from ponodet.assignment import (AO_THRESHOLD, UNASSIGNED, Assignment, GroundTruth,
                                _cluster, _grid_gt_iou, ams_labels, assign_ao,
                                pred_iou_values)
from ponodet.data import GenSpec, Scene, generate, hflip
from ponodet.geometry import overlap
from ponodet.train import SceneBank, TrainConfig, _gate_and_labels

from test_anchors import build_grid
from test_autodiff import zero_leaf
from test_geometry import CLAMP_OFFSETS, decode_cxywh, iou_cxywh, iou_oracle


def square_grid(shapes, h=4, w=4, stride=8):
    return build_grid(np.asarray(shapes, float), h, w, stride)


def stack_records(records) -> Assignment:
    """The oracle batch: the scenes' `assign_ao` records on a leading scene
    axis, in list order, each kept as its own arrays.  A cell takes its
    object's row of the joined tables, an unassigned cell its scene's dummy
    row.  The bank's rows must give the same bits."""
    gt_index = np.concatenate([r.gt_index[None] for r in records], dtype=np.int64)
    ao = np.concatenate([r.ao[None] for r in records])
    first = [*accumulate([len(r.cluster_max) for r in records[:-1]], initial=1)]
    rows = gt_index + np.array(first)[:, None, None, None, None]
    pono = ao / np.concatenate([r.cluster_max for r in records]).take(rows)
    return Assignment(gt_index, ao, pono,
                      np.concatenate([r.boxes for r in records]).take(rows, axis=0))


def drawn(bank, keys) -> Assignment:
    """The assignment of the bank's batch of variants `keys` (index,
    mirrored), filling rows on first use as a training iteration does."""
    return bank.batch(keys)[1]


def per_class_iou(grid, gt) -> np.ndarray:
    """The oracle of `_grid_gt_iou`: one `overlap` call per class present,
    of that class's cells against its objects, into a zero tensor."""
    out = np.zeros(grid.shape[:4] + (len(gt),), dtype=np.float64)
    for c in sorted(set(gt.class_ids.tolist())):
        objs = np.flatnonzero(gt.class_ids == c)
        cells = grid[:, :, c, :, None, :]
        out[:, :, c][..., objs] = overlap(cells[..., :2], cells[..., 2:], gt.boxes[objs])[0]
    return out


def scene_maps(grid, gt) -> Assignment:
    """One scene's maps [h, w, nc, na] as the oracle batch derives them
    from its `assign_ao` record, taken off the scene axis."""
    one = stack_records([assign_ao(grid, gt)])
    return Assignment(*(getattr(one, f.name)[0] for f in fields(Assignment)))


def full_maps(grid, gt) -> Assignment:
    """The oracle: one scene's int64 object index, raw and normalized
    overlap and assigned box, each built per cell off the IoU tensor."""
    shape = grid.shape[:4]
    if len(gt) == 0:
        return Assignment(np.full(shape, UNASSIGNED, dtype=np.int64),
                          np.zeros(shape), np.zeros(shape), np.ones(shape + (4,)))
    overlaps = per_class_iou(grid, gt)
    gt_index = _cluster(overlaps, len(gt))
    unassigned = gt_index == UNASSIGNED
    safe = np.maximum(gt_index, 0)
    ao = np.where(unassigned, 0.0,
                  np.take_along_axis(overlaps, safe[..., None], axis=-1)[..., 0])
    cluster_max = np.zeros(len(gt))
    np.maximum.at(cluster_max, gt_index[~unassigned], ao[~unassigned])
    pono = np.zeros_like(ao)
    pono[~unassigned] = ao[~unassigned] / cluster_max[gt_index[~unassigned]]
    gt_box = np.where(unassigned[..., None], 1.0, gt.boxes[safe])
    return Assignment(gt_index, ao, pono, gt_box)


def assert_same_bits(got: Assignment, want: Assignment) -> None:
    for f in fields(Assignment):
        a, b = getattr(got, f.name), getattr(want, f.name)
        assert a.dtype == b.dtype and a.shape == b.shape, f.name
        assert a.tobytes() == b.tobytes(), f.name


def assert_bank_matches_oracle(bank, keys) -> Assignment:
    """The bank's batch of `keys` has the bits of the oracle batch of the
    variants' records, and that of the per-cell oracle maps on a scene
    axis: int64 indices and the same float bytes."""
    gts = [(hflip(bank.scenes[i]) if mirrored else bank.scenes[i]).gt
           for i, mirrored in keys]
    got = drawn(bank, keys)
    assert_same_bits(got, stack_records([assign_ao(bank.grid, gt) for gt in gts]))
    want = [full_maps(bank.grid, gt) for gt in gts]
    assert_same_bits(got, Assignment(*(np.stack([getattr(w, f.name) for w in want])
                                       for f in fields(Assignment))))
    return got


def exact_cell_scenes(counts):
    """Scenes of `counts` objects on one-anchor 8 x 8 shapes at image size
    160, and the shapes: object k is the exact box of anchor cell k of the
    20 x 20 grid and touches its neighbours only, so cell k keeps object k."""
    shapes = np.full((1, 1, 2), 8.0)
    cells = anchor_grid(shapes, 160).reshape(-1, 4)
    return [Scene(np.zeros((160, 160, 3), np.uint8),
                  GroundTruth(boxes=cells[:n], class_ids=[0] * n)) for n in counts], shapes


class TestAssignAO:
    def test_empty_gt_all_unassigned(self):
        grid = square_grid([[[8.0, 8.0]]])
        am = scene_maps(grid, GroundTruth(boxes=[], class_ids=[]))
        assert np.all(am.gt_index == UNASSIGNED)
        np.testing.assert_array_equal(am.gt_box, np.ones(grid.shape))

    def test_gt_box_rows(self):
        # assigned cells hold their object's row; unassigned cells a unit box
        grid = square_grid([[[8.0, 8.0]], [[12.0, 10.0]]])
        gt = GroundTruth(boxes=[(12, 12, 10, 10), (20, 18, 12, 9), (8, 22, 7, 8)],
                         class_ids=[0, 1, 0])
        am = scene_maps(grid, gt)
        assert am.gt_box.shape == grid.shape
        on = am.gt_index != UNASSIGNED
        assert on.any() and not on.all()
        np.testing.assert_array_equal(am.gt_box[on], gt.boxes[am.gt_index[on]])
        np.testing.assert_array_equal(am.gt_box[~on], 1.0)

    def test_single_gt_class_separation(self):
        grid = square_grid([[[8.0, 8.0]], [[8.0, 8.0]]])
        gt = GroundTruth(boxes=[(12, 12, 10, 10)], class_ids=[0])
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
        a = (14, 5, 10, 10)
        b = (3, 5, 10, 10)
        gt = GroundTruth(boxes=[a, b], class_ids=[0, 0])
        am = assign_ao(grid, gt)
        left = tuple(grid[0, 0, 0, 0])
        assert iou_oracle(left, b) > iou_oracle(left, a) > 0
        assert am.gt_index[0, 0, 0, 0] == 1
        assert am.gt_index[0, 1, 0, 0] == 0

    def test_tie_breaks_to_lowest_index(self):
        # duplicate objects tie on every cell: argmax gives cells to object
        # 0, then the repair hands object 1 exactly one cell back
        grid = square_grid([[[10.0, 10.0]]], h=1, w=2, stride=10)
        box = (10, 5, 10, 10)
        gt = GroundTruth(boxes=[box, box], class_ids=[0, 0])
        am = assign_ao(grid, gt)
        idx = am.gt_index[0, :, 0, 0]
        assert sorted(idx.tolist()) == [0, 1]
        assert idx[1] == 0  # the non-repaired cell keeps the argmax tie-break

    def test_assignment_invariants(self):
        grid = square_grid([[[8.0, 8.0], [16.0, 16.0]], [[8.0, 8.0], [16.0, 16.0]]],
                           h=4, w=4, stride=8)
        gt = GroundTruth(
            boxes=[(10, 10, 12, 9), (22, 20, 8, 8), (15, 25, 10, 14)],
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
        big = (16, 16, 30, 30)
        small = (16, 16, 5, 5)
        gt = GroundTruth(boxes=[big, small], class_ids=[0, 0])
        am = assign_ao(grid, gt)
        assert np.any(am.gt_index == 0)
        assert np.any(am.gt_index == 1)


class TestPono:
    def test_single_anchor_cluster_gets_one(self):
        grid = square_grid([[[6.0, 6.0]]], h=2, w=2, stride=16)
        gt = GroundTruth(boxes=[(8, 8, 5, 5)], class_ids=[0])
        am = scene_maps(grid, gt)
        cluster = am.pono[am.gt_index == 0]
        assert cluster.max() == 1.0

    def test_direct_normalization(self):
        grid = square_grid([[[10.0, 10.0]]], h=1, w=2, stride=10)
        gt = GroundTruth(boxes=[(7.5, 5, 10, 10)], class_ids=[0])
        am = scene_maps(grid, gt)
        assert np.all(am.gt_index == 0)
        np.testing.assert_allclose(am.pono, am.ao / am.ao.max())

    def test_zero_on_unassigned(self):
        grid = square_grid([[[8.0, 8.0]], [[8.0, 8.0]]])
        gt = GroundTruth(boxes=[(10, 10, 8, 8)], class_ids=[0])
        am = scene_maps(grid, gt)
        assert np.all(am.pono[:, :, 1, :] == 0)

    def test_pono_at_least_ao(self):
        rng = np.random.default_rng(0)
        grid = square_grid([[[8.0, 8.0], [14.0, 20.0]]], h=4, w=4, stride=8)
        boxes = [(rng.uniform(8, 24), rng.uniform(8, 24),
                     rng.uniform(6, 20), rng.uniform(6, 20)) for _ in range(3)]
        gt = GroundTruth(boxes=boxes, class_ids=[0, 0, 0])
        am = scene_maps(grid, gt)
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
            grid = build_grid(shapes, 8, 8, 8)
            am = scene_maps(grid, scene.gt)
            for k in range(len(scene.gt)):
                cluster = am.pono[am.gt_index == k]
                assert cluster.size > 0
                assert cluster.max() == 1.0


class TestCompactRecord:
    """A scene's record keeps the index and raw overlap maps and per-object
    tables; the bank keeps each drawn record's index map as a row and its
    tables, and recomputes the raw overlap per batch.  Its stacked batches
    have the oracle's bits."""

    @pytest.mark.parametrize("name", ["crowded", "imbalanced"])
    def test_stack_gives_the_oracle_bits(self, name):
        spec = getattr(B, f"{name}_benchmark")().gen
        scenes = generate(spec, 10)
        empty = Scene(np.zeros_like(scenes[0].image), GroundTruth(boxes=[], class_ids=[]))
        pool = scenes + [empty]
        rng = np.random.default_rng(41)
        bank = SceneBank(pool, rng.uniform(6.0, 30.0, (spec.n_classes, 2, 2)))
        mirrored = 0
        for size in (1, 2, 3):
            for trial in range(4):
                idx = rng.integers(0, len(pool), size)
                if trial == 0:
                    idx[-1] = len(pool) - 1  # the scene without objects
                flips = rng.random(size) < 0.5
                mirrored += int(flips.sum())
                got = assert_bank_matches_oracle(
                    bank, [(int(i), bool(f)) for i, f in zip(idx, flips)])
                assert got.gt_box.shape == (size, *bank.grid.shape)
        assert mirrored > 0

    @pytest.mark.parametrize("name,variants", [("crowded", 800), ("imbalanced", 400)])
    def test_every_variant_of_a_pinned_bank_gives_the_record_bits(self, name, variants):
        # the bank keeps an index map per variant and no float map, so each
        # batch recomputes the raw overlap; it must give the record's bits
        bank = getattr(B, f"{name}_benchmark")().setup.bank
        keys = [(i, mirrored) for i in range(len(bank.scenes)) for mirrored in (False, True)]
        assert len(keys) == variants
        for i, mirrored in keys:
            scene = bank.scenes[i]
            gt = (hflip(scene) if mirrored else scene).gt
            assert_same_bits(drawn(bank, [(i, mirrored)]),
                             stack_records([assign_ao(bank.grid, gt)]))
        per_cell = [a for a in vars(bank).values()
                    if isinstance(a, np.ndarray) and a.shape[1:] == bank.grid.shape[:4]]
        assert [a.dtype for a in per_cell] == [np.int8]

    @pytest.mark.parametrize("n", [127, 128, 300])
    def test_index_type_holds_every_object(self, n):
        (scene,), shapes = exact_cell_scenes([n])
        record = assign_ao(anchor_grid(shapes, 160), scene.gt)
        assert len(record.cluster_max) == len(record.boxes) == n + 1
        np.testing.assert_array_equal(record.gt_index.reshape(-1)[:n], np.arange(n))
        bank = SceneBank([scene], shapes)
        assert bank.gt_index.dtype == (np.int8 if n < 128 else np.int16)
        flat = drawn(bank, [(0, False)]).gt_index.reshape(-1)
        np.testing.assert_array_equal(flat[:n], np.arange(n))
        assert np.all(flat[n:] == UNASSIGNED) and UNASSIGNED == -1

    def test_narrow_and_wide_indices_stack_together(self):
        # a 300-object scene after a 127-object one sits past any int8 offset
        scenes, shapes = exact_cell_scenes([127, 300, 0, 128])
        bank = SceneBank(scenes, shapes)
        assert bank.gt_index.dtype == np.int16
        got = assert_bank_matches_oracle(bank, [(0, False), (1, True), (2, False), (3, False)])
        assert got.gt_index.max() == 299 and np.all(got.gt_index[2] == UNASSIGNED)
        for keys in ([(3, True), (1, False)], [(2, True)], [(0, True), (0, False)]):
            assert_bank_matches_oracle(bank, keys)


class TestPredIoU:
    def test_zero_offsets_equal_ao(self):
        grid = square_grid([[[8.0, 8.0], [12.0, 16.0]]], h=3, w=3, stride=8)
        gt = GroundTruth(boxes=[(10, 12, 9, 9), (20, 18, 12, 14)],
                         class_ids=[0, 0])
        am = assign_ao(grid, gt)
        o_hat = pred_iou_values(grid, np.zeros((1, *grid.shape)),
                                stack_records([am]))
        np.testing.assert_allclose(o_hat[0], am.ao, atol=1e-15)

    def test_perfect_anchor(self):
        grid = square_grid([[[8.0, 8.0]]], h=1, w=1, stride=8)
        gt = GroundTruth(boxes=[(4, 4, 8, 8)], class_ids=[0])
        am = assign_ao(grid, gt)
        o_hat = pred_iou_values(grid, np.zeros((1, *grid.shape)),
                                stack_records([am]))
        assert o_hat[0, 0, 0, 0, 0] == 1.0

    def test_offsets_fit_gt_exactly(self):
        grid = square_grid([[[4.0, 4.0]]], h=2, w=2, stride=10)
        # anchor at (5, 5): shift to (12, 10) and double the width
        gt = GroundTruth(boxes=[(7.0, 5.0, 8.0, 4.0)], class_ids=[0])
        am = assign_ao(grid, gt)
        offsets = np.zeros((1, *grid.shape))
        offsets[0, 0, 0, 0, 0] = [0.5, 0.0, np.log(2.0), 0.0]
        o_hat = pred_iou_values(grid, offsets, stack_records([am]))
        assert o_hat[0, 0, 0, 0, 0] == pytest.approx(1.0, abs=1e-12)

    def test_shape_mismatch(self):
        grid = square_grid([[[8.0, 8.0]]])
        gt = GroundTruth(boxes=[(8, 8, 8, 8)], class_ids=[0])
        stacked = stack_records([assign_ao(grid, gt)])
        with pytest.raises(ValueError):
            pred_iou_values(grid, np.zeros((1, 2, 2, 1, 1, 4)), stacked)
        # one scene's unstacked offsets, and a stack of another length
        with pytest.raises(ValueError):
            pred_iou_values(grid, np.zeros(grid.shape), stacked)
        with pytest.raises(ValueError):
            pred_iou_values(grid, np.zeros((2, *grid.shape)), stacked)

    def test_stacked_scenes_match_one_at_a_time(self):
        grid = square_grid([[[8.0, 8.0], [12.0, 16.0]]], h=3, w=3, stride=8)
        gts = [GroundTruth(boxes=[(10, 12, 9, 9)], class_ids=[0]),
               GroundTruth(boxes=[(20, 18, 12, 14), (6, 6, 8, 7)],
                           class_ids=[0, 0])]
        records = [assign_ao(grid, gt) for gt in gts]
        stacked = stack_records(records)
        assert stacked.gt_box.shape == (2, *grid.shape)
        offsets = np.random.default_rng(3).uniform(-0.3, 0.3, (2, *grid.shape))
        o_hat = pred_iou_values(grid, offsets, stacked)
        for k, (gt, rec) in enumerate(zip(gts, records)):
            alone = scene_maps(grid, gt)
            np.testing.assert_array_equal(stacked.pono[k], alone.pono)
            np.testing.assert_array_equal(stacked.gt_index[k], alone.gt_index)
            np.testing.assert_array_equal(stacked.gt_box[k], alone.gt_box)
            one = pred_iou_values(grid, offsets[k:k + 1], stack_records([rec]))
            np.testing.assert_array_equal(o_hat[k], one[0])


def special_grid_scenes():
    """A 3 x 3 two-class grid and scenes whose objects sit at the IoU's
    kinks against its anchors: identical, touching, nested and disjoint
    boxes, objects of both classes, and a scene without objects."""
    grid = square_grid([[[8.0, 8.0], [4.0, 4.0]], [[16.0, 8.0], [8.0, 16.0]]],
                       h=3, w=3, stride=8)
    gts = [GroundTruth(boxes=[(4, 4, 8, 8), (16, 4, 8, 8), (20, 20, 2, 2),
                              (100, 100, 4, 4), (12, 12, 16, 8), (4, 20, 8, 8)],
                       class_ids=[0, 0, 0, 0, 1, 1]),
           GroundTruth(boxes=[(12, 12, 24, 24)], class_ids=[1]),
           GroundTruth(boxes=[], class_ids=[])]
    return grid, gts


def assert_same_iou(grid, gt) -> None:
    """`_grid_gt_iou` has the per-class oracle's dtype and bytes."""
    got, want = _grid_gt_iou(grid, gt), per_class_iou(grid, gt)
    assert got.dtype == want.dtype and got.shape == want.shape
    assert got.tobytes() == want.tobytes()


class TestOneIoU:
    """The anchor x object tensor and the predicted-box overlap give the
    component oracle's bits."""

    def test_grid_gt_iou_matches_oracle(self):
        grid, gts = special_grid_scenes()
        for gt in gts:
            want = np.zeros(grid.shape[:4] + (len(gt),))
            for k, (box, c) in enumerate(zip(gt.boxes, gt.class_ids)):
                want[:, :, c, :, k] = iou_cxywh(*np.moveaxis(grid[:, :, c], -1, 0), *box)
            got = _grid_gt_iou(grid, gt)
            np.testing.assert_array_equal(got, want)
        assert got.shape == (3, 3, 2, 2, 0)

    @pytest.mark.parametrize("name,variants", [("crowded", 800), ("imbalanced", 400)])
    def test_one_call_gives_the_per_class_bits_on_a_pinned_bank(self, name, variants):
        bank = getattr(B, f"{name}_benchmark")().setup.bank
        gts = [g for scene in bank.scenes for g in (scene.gt, hflip(scene).gt)]
        assert len(gts) == variants
        for gt in gts:
            assert_same_iou(bank.grid, gt)

    def test_one_call_gives_the_per_class_bits_on_edge_scenes(self):
        # objects at the IoU's kinks, none, and one class of two, then 127,
        # 128 and 300 objects on a one-class grid
        grid, gts = special_grid_scenes()
        boxes = [(4, 4, 8, 8), (12, 12, 8, 8)]
        for gt in [*gts, *(GroundTruth(boxes=boxes, class_ids=[c, c]) for c in (0, 1))]:
            assert_same_iou(grid, gt)
        scenes, shapes = exact_cell_scenes([127, 128, 300])
        for scene in scenes:
            assert_same_iou(anchor_grid(shapes, 160), scene.gt)

    def test_pred_iou_forward_matches_oracle(self):
        grid, gts = special_grid_scenes()
        stacked = stack_records([assign_ao(grid, gt) for gt in gts])
        rng = np.random.default_rng(11)
        offsets = np.asarray(CLAMP_OFFSETS)[rng.integers(len(CLAMP_OFFSETS),
                                                         size=stacked.gt_index.shape)]
        offsets[0, 0, 0] = 0.0  # the anchors that equal or touch their objects
        box = decode_cxywh(*np.moveaxis(grid, -1, 0), *np.moveaxis(offsets, -1, 0))
        want = iou_cxywh(*box, *np.moveaxis(stacked.gt_box, -1, 0)) \
            * (stacked.gt_index != UNASSIGNED)
        np.testing.assert_array_equal(pred_iou_values(grid, offsets, stacked), want)
        taped = pred_iou_values(grid, zero_leaf(offsets, ad.Tape()), stacked)
        np.testing.assert_array_equal(taped.values, want)
        assert np.any(want == 1.0) and np.any((want > 0.0) & (want < 1.0))


def rule_labels(rule, overlaps):
    """`_gate_and_labels` under a PONO or AO rule, for a record whose raw and
    normalized overlaps both equal `overlaps`; the labels equal the gate."""
    a = Assignment(np.zeros(overlaps.shape, np.int64), overlaps, overlaps,
                   np.ones(overlaps.shape + (4,)))
    gate, labels = _gate_and_labels(a, np.zeros(overlaps.shape),
                                    TrainConfig(label_rule=rule))
    np.testing.assert_array_equal(gate, labels)
    return labels


class TestLabels:
    def test_ams_product_rule(self):
        o = np.array([[[[1.0, 0.9, 0.0]]]])
        oh = np.array([[[[0.6, 0.5, 0.0]]]])
        np.testing.assert_array_equal(ams_labels(o, oh), [[[[1, 0, 0]]]])

    def test_untrained_predictions_all_negative(self):
        assert ams_labels(np.ones((2, 2, 1, 1)), np.zeros((2, 2, 1, 1))).sum() == 0

    def test_pono_rule_strict_threshold(self):
        o = np.array([[[[1.0, 0.5, 0.2, 0.4]]]])
        np.testing.assert_array_equal(rule_labels("PONO", o), [[[[1, 0, 0, 0]]]])

    def test_pono_rule_from_cluster(self):
        # overlaps {0.2, 0.4} normalize to {0.5, 1.0} -> labels {0, 1}
        o = np.array([[[[0.5, 1.0]]]])
        np.testing.assert_array_equal(rule_labels("PONO", o), [[[[0, 1]]]])

    def test_ao_threshold_rule(self):
        # the AO baseline is positive strictly above AO_THRESHOLD on the raw overlap
        assert AO_THRESHOLD == 0.5
        raw = np.array([[[[0.51, 0.5, 0.49]]]])
        np.testing.assert_array_equal(rule_labels("AO", raw), [[[[1, 0, 0]]]])

    def test_ams_subset_of_pono(self):
        rng = np.random.default_rng(3)
        o = rng.uniform(0, 1, (4, 4, 2, 3))
        oh = rng.uniform(0, 1, (4, 4, 2, 3))
        assert np.all(ams_labels(o, oh) <= (o > 0.5))

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
        a = (8, 6, 12, 12)
        b = (28, 6, 12, 12)
        gt = GroundTruth(boxes=[a, b], class_ids=[0, 0])
        am = scene_maps(grid, gt)
        mid = am.pono[0, 1, 0, 0]
        assert 0.0 < mid <= 0.5

        # geometric fact: no single box overlaps both disjoint objects
        # above 0.5 -- exhaustive search over a coarse offset grid
        anchor = grid[0, 1, 0, 0]
        best = 0.0
        for dx in np.linspace(-1.5, 1.5, 13):
            for dw in np.linspace(-1.5, 1.5, 13):
                for dh in np.linspace(-1.5, 1.5, 9):
                    cand = tuple(map(float, decode_cxywh(*anchor, dx, 0.0, dw, dh)))
                    best = max(best, min(iou_oracle(cand, a), iou_oracle(cand, b)))
        assert best <= 0.5

        # whatever the network predicts, the product rule keeps it negative
        for trial in range(20):
            oh = np.random.default_rng(trial).uniform(0, 1, am.pono.shape)
            assert ams_labels(am.pono, oh)[0, 1, 0, 0] == 0
