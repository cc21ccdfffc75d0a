import gc
import math
import os
import pickle
import re
import tracemalloc
import types
import weakref
from dataclasses import fields, replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ponodet import autodiff as ad
from ponodet.anchors import anchor_grid
from ponodet import loss as loss_mod
from ponodet import train as train_mod
from ponodet.assignment import GroundTruth, ams_labels, assign_ao, pred_iou_values
from ponodet.data import (GenSpec, Scene, config_from_kv, generate, hflip, load_dataset,
                          pixels, save_dataset)
from ponodet.evaluation import dataset_detections
from ponodet.loss import LossReport, initial_balance
from ponodet.model import ToyNet, ToyNetConfig, drawn_kernels, load_arrays, save_arrays
from ponodet.train import (MOMENTUM, RunState, SceneBank, TrainConfig, load_run, lr_at,
                           run_training, save_run, sgd_step, train_iteration)

from test_assignment import drawn, stack_records
from test_autodiff import add, reduce_sum
from test_model import TabularPredictor, leaves_of


def one_object_scene(image_size=32):
    img = np.zeros((image_size, image_size, 3), np.uint8)
    gt = GroundTruth(boxes=[(13.0, 14.0, 10.0, 9.0)], class_ids=[0])
    return Scene(img, gt)


def train_on_one_scene(state, scene, cfg) -> list[LossReport]:
    """`cfg.max_iter` steps from iteration 0 on the one scene, never
    mirrored: a tabular predictor's outputs are that scene's."""
    bank = SceneBank([scene], state.shapes)
    return [train_iteration(state, [(0, False)], cfg, bank) for _ in range(cfg.max_iter)]


def plain(n: int) -> list[tuple[int, bool]]:
    """The draw keys of a bank's first `n` scenes, none mirrored."""
    return [(i, False) for i in range(n)]


def tabular_state(scene, shapes=((8.0, 8.0),)):
    f = scene.image.shape[0] // 8
    aset = np.asarray([list(shapes)], float)
    model = TabularPredictor(f, f, 1, len(shapes))
    return RunState(model=model, shapes=aset, bw=initial_balance(1, len(shapes)))


def grid_of(state, scene):
    """The state's anchor shapes tiled at the scene's image size."""
    return anchor_grid(state.shapes, scene.image.shape[0])


class TestLrSchedule:
    def test_endpoints(self):
        cfg = TrainConfig(lr0=0.005, max_iter=100)
        assert lr_at(0, cfg) == 0.005
        assert lr_at(100, cfg) == 0.0

    def test_midpoint(self):
        cfg = TrainConfig(lr0=0.005, max_iter=100)
        assert lr_at(50, cfg) == pytest.approx(0.005 * 0.5 ** 0.9, rel=1e-12)
        assert lr_at(50, cfg) == pytest.approx(0.002679, abs=2e-6)


def per_array_sgd_step(params: dict, velocity: dict, grads: dict,
                       lr: float, momentum: float) -> None:
    """Test oracle: the per-array momentum step the flat `sgd_step`
    replaced.  v <- momentum * v + g;  p <- p - lr * v for each named
    array; a missing buffer starts at zero, a missing gradient counts as
    zero."""
    for name, p in params.items():
        v = velocity.get(name)
        if v is None:
            v = np.zeros_like(p)
            velocity[name] = v
        g = grads.get(name)
        v *= momentum
        if g is not None:
            v += g
        p -= lr * v


def by_name(state, vector) -> dict:
    """One of the state's flat vectors, split into the trained arrays' names
    and shapes in optimizer order."""
    out, start = {}, 0
    for name, a in {**state.model.params, **state.bw}.items():
        out[name] = vector[start:start + a.size].reshape(a.shape)
        start += a.size
    assert start == len(vector)
    return out


def assert_flat_views(state):
    """`model.params` and `bw` are views into `flat_params` in optimizer
    order, and `momentum` holds one buffer per trained array, in the same
    order, each the view into `flat_momentum` at the same offset as its
    array."""
    def address(a):
        return a.__array_interface__["data"][0]

    offsets, start = {}, 0
    for name, a in {**state.model.params, **state.bw}.items():
        assert a.dtype == np.float64 and a.flags.c_contiguous
        assert address(a) - address(state.flat_params) == 8 * start, name
        offsets[name] = start
        start += a.size
    assert start == len(state.flat_params) == len(state.flat_momentum)
    assert list(state.momentum) == list(offsets)
    for name, v in state.momentum.items():
        assert v.shape == np.shape({**state.model.params, **state.bw}[name])
        assert address(v) - address(state.flat_momentum) == 8 * offsets[name], name


class TestSgdStep:
    def test_plain_gradient_descent(self):
        p, v = np.array([1.0, 2.0]), np.zeros(2)
        # from zero velocity the first step is plain gradient descent
        sgd_step(p, v, np.array([0.5, -1.0]), lr=0.1)
        np.testing.assert_allclose(p, [0.95, 2.1])

    def test_zero_gradients_decay_buffers(self):
        p, v = np.array([1.0]), np.array([2.0])
        sgd_step(p, v, np.zeros(1), lr=0.1)
        np.testing.assert_allclose(v, [1.8])
        np.testing.assert_allclose(p, [1.0 - 0.18])

    def test_in_place_step_keeps_the_bits_and_makes_no_temporary(self):
        # the step writes lr * v into the used-up gradient: the same product
        # of the same operands, down to signed zeros and subnormals
        rng = np.random.default_rng(8)
        tiny = np.finfo(np.float64).smallest_subnormal
        pool = np.array([0.0, -0.0, tiny, -tiny, 7 * tiny, -np.finfo(np.float64).tiny / 3,
                         1e-310, 1.5, -2.25, 1e300])
        p, v, g = (rng.choice(pool, 40_000) for _ in range(3))
        for lr in (0.01, 1e-300, 0.0):
            want_p, want_v = p.copy(), v.copy()
            want_v *= MOMENTUM
            want_v += g
            want_p -= lr * want_v
            used = g.copy()
            tracemalloc.start()
            try:
                sgd_step(p, v, used, lr)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert p.tobytes() == want_p.tobytes() and v.tobytes() == want_v.tobytes()
            assert peak < p.nbytes // 4
        assert np.any(np.signbit(p) & (p == 0.0)) and np.any((p != 0) & (abs(p) < 1e-308))

    def test_quadratic_bowl_convergence(self):
        p, v = np.array([0.0]), np.zeros(1)
        for _ in range(500):
            g = 2.0 * (p - 3.0)
            sgd_step(p, v, g, lr=0.1)
        assert abs(float(p[0]) - 3.0) < 1e-6

    @pytest.mark.parametrize("mode", ["learned", "unit"])
    def test_flat_step_matches_per_array_loop(self, tmp_path, monkeypatch, mode):
        # the flat step over every trained array moves every parameter and
        # buffer to the bits the per-array loop gives, and in unit mode
        # leaves the balance weights and their zero buffers bit for bit
        scenes, cfg, state = TestDeterminismAndResume().make_setup(tmp_path)
        cfg = replace(cfg, mode=mode)
        run_training(state, SceneBank(scenes, state.shapes), replace(cfg, max_iter=3))
        params = {name: a.copy() for name, a in {**state.model.params, **state.bw}.items()}
        velocity = {name: v.copy() for name, v in state.momentum.items()}
        steps = []
        step = train_mod.sgd_step

        def spy(p, v, g, lr):
            steps.append((len(p), g.copy(), lr))
            step(p, v, g, lr)

        monkeypatch.setattr(train_mod, "sgd_step", spy)
        train_iteration(state, plain(2), cfg, SceneBank(scenes, state.shapes))
        (n, g, lr), = steps
        assert n == len(state.flat_params)
        bw_before = {name: params[name].tobytes() for name in state.bw}
        per_array_sgd_step(params, velocity, by_name(state, g), lr, MOMENTUM)
        for name, a in {**state.model.params, **state.bw}.items():
            np.testing.assert_array_equal(a, params[name], err_msg=name)
        assert list(state.momentum) == list(velocity)
        for name, v in state.momentum.items():
            np.testing.assert_array_equal(v, velocity[name], err_msg=name)
        if mode == "unit":
            for name in state.bw:
                assert state.bw[name].tobytes() == bw_before[name], name
                assert not state.momentum[name].any(), name


class TestTrainIteration:
    def test_zero_lr_reports_stable(self):
        scene = one_object_scene()
        state = tabular_state(scene)
        cfg = TrainConfig(lr0=0.0, max_iter=10, mode="learned")
        first = train_iteration(state, [(0, False)], cfg, SceneBank([scene], state.shapes))
        for _ in range(3):
            rep = train_iteration(state, [(0, False)], cfg, SceneBank([scene], state.shapes))
        assert rep.total == first.total
        assert rep.loc == first.loc and rep.cls == first.cls

    def test_tabular_single_object_converges(self):
        # unit mode so the reported loc is the plain positive-normalized
        # residual; offsets on gated cells fit the object and the loss
        # decays toward zero (smoothed, after warmup)
        scene = one_object_scene()
        state = tabular_state(scene, shapes=((8.0, 8.0), (12.0, 12.0)))
        cfg = TrainConfig(lr0=0.05, max_iter=400, mode="unit")
        reports = train_on_one_scene(state, scene, cfg)
        loc = np.array([r.loc for r in reports])
        smooth = np.convolve(loc, np.ones(25) / 25, mode="valid")
        tail = smooth[10:]
        assert np.all(np.diff(tail) <= 1e-9)
        assert loc[-1] < 1e-3

    def test_converged_cell_overlap_reaches_one(self):
        # with a matching anchor shape, fitting drives the best cell's
        # predicted overlap to 1 and its product-rule label positive
        scene = one_object_scene()
        state = tabular_state(scene, shapes=((10.0, 9.0),))
        cfg = TrainConfig(lr0=0.05, max_iter=400, mode="unit")
        train_on_one_scene(state, scene, cfg)
        bank = SceneBank([scene], state.shapes)
        grid, am = bank.grid, drawn(bank, [(0, False)])
        o_hat = pred_iou_values(grid, state.model.params["offsets"][None], am)
        best = np.unravel_index(np.argmax(am.pono), am.pono.shape)
        assert o_hat[best] > 0.999
        assert am.pono[best] * o_hat[best] > 0.5

    def test_torn_cell_never_labeled_positive(self):
        # two disjoint same-class objects share a middle anchor; its
        # normalized overlap stays at or below the gate so the product
        # rule keeps it negative for the entire run
        img = np.zeros((32, 32, 3), np.uint8)
        gt = GroundTruth(boxes=[(6.0, 12.0, 11.0, 11.0),
                                (18.0, 12.0, 11.0, 11.0)],
                         class_ids=[0, 0])
        scene = Scene(img, gt)
        state = tabular_state(scene, shapes=((11.0, 11.0),))
        bank = SceneBank([scene], state.shapes)
        grid, am = bank.grid, drawn(bank, [(0, False)])
        torn = (0, 1, 1, 0, 0)  # cell centered at (12, 12), overlapping both
        assert 0.0 < am.pono[torn] <= 0.5
        cfg = TrainConfig(lr0=0.05, max_iter=150, mode="learned")
        train_on_one_scene(state, scene, cfg)
        o_hat = pred_iou_values(grid, state.model.params["offsets"][None], am)
        assert ams_labels(am.pono, o_hat)[torn] == 0

    def test_report_total_decomposition(self):
        scene = one_object_scene()
        state = tabular_state(scene)
        rep = train_iteration(state, [(0, False)], TrainConfig(max_iter=5),
                              SceneBank([scene], state.shapes))
        assert rep.total == rep.loc + rep.cls + rep.reg

    def test_unit_mode_trains_without_weight_updates(self):
        scene = one_object_scene()
        state = tabular_state(scene)
        s0 = state.bw["bw.s_cls_grid"].copy()
        cfg = TrainConfig(lr0=0.05, max_iter=5, mode="unit")
        for _ in range(5):
            train_iteration(state, [(0, False)], cfg, SceneBank([scene], state.shapes))
        np.testing.assert_array_equal(state.bw["bw.s_cls_grid"], s0)
        assert state.bw["bw.s_cls"] == 1.0


def per_scene_reference(state, batch, cfg):
    """Test oracle: the per-scene loop `train_iteration` replaced.  Each
    scene gets its own forward, overlap map, loss maps and per-grid sums,
    which are added up over the batch.  Returns the loss terms, n_pos,
    per_grid_pos and the gradients the optimizer would receive; the state
    is left unchanged."""
    learned = cfg.mode == "learned"
    params = leaves_of({**state.model.params, **(state.bw if learned else {})})
    loc_sums = cls_sums = None
    n_pos = 0
    per_grid_pos = np.zeros(state.shapes.shape[:2], np.int64)
    for scene in batch:
        grid = grid_of(state, scene)
        one = stack_records([assign_ao(grid, scene.gt)])
        out = state.model.forward(params, pixels(scene.image[None]))
        o_hat = pred_iou_values(grid, out.offsets, one)
        gate, labels = train_mod._gate_and_labels(one, ad.values_of(o_hat), cfg)
        loc_map = loss_mod.loc_loss_map(gate, o_hat)
        cls_fn = loss_mod.bce_logits if cfg.cls_loss == "CE" else loss_mod.focal_logits
        cls_map = cls_fn(labels.astype(np.float64), out.logits)
        ls, cs = reduce_sum(loc_map, (0, 1, 2)), reduce_sum(cls_map, (0, 1, 2))
        loc_sums = ls if loc_sums is None else add(loc_sums, ls)
        cls_sums = cs if cls_sums is None else add(cls_sums, cs)
        n_pos += int(gate.sum())
        per_grid_pos += labels.sum(axis=(0, 1, 2), dtype=np.int64)
    n_total = len(batch) * grid.size // 4
    total, *terms = loss_mod.weighted_totals(loc_sums, cls_sums, max(1, n_pos),
                                             n_total, cfg.mode, params)
    ad.backward(total)
    grads = {name: t.grad for name, t in params.items()}
    return tuple(terms), n_pos, per_grid_pos, grads


class TestBatchedIteration:
    @pytest.mark.parametrize("rule,mode,cls_loss", [("AMS", "learned", "CE"),
                                                    ("AO", "retina_norm", "FL"),
                                                    ("PONO", "unit", "CE")])
    def test_batch_of_two_matches_per_scene_loop(self, tmp_path, monkeypatch,
                                                 rule, mode, cls_loss):
        scenes, cfg, state = TestDeterminismAndResume().make_setup(tmp_path)
        cfg = replace(cfg, label_rule=rule, mode=mode, cls_loss=cls_loss)
        # a few steps first, so the AMS labels see trained offsets
        run_training(state, SceneBank(scenes, state.shapes), replace(cfg, max_iter=4))
        batch = [scenes[1], scenes[4]]
        terms, n_pos, per_grid_pos, grads = per_scene_reference(state, batch, cfg)
        assert n_pos > 0
        seen = {}
        monkeypatch.setattr(train_mod, "sgd_step",
                            lambda params, velocity, g, lr:
                            seen.update(by_name(state, g.copy())))
        report = train_iteration(state, [(1, False), (4, False)], cfg,
                                 SceneBank(scenes, state.shapes))
        np.testing.assert_allclose((report.loc, report.cls, report.reg), terms,
                                   rtol=1e-12, atol=1e-12)
        assert report.n_pos == n_pos
        np.testing.assert_array_equal(report.per_grid_pos, per_grid_pos)
        # the step sees every trained array; outside learned mode the loss
        # gives the balance weights no gradient, so theirs stays zero
        assert list(seen) == [*state.model.params, *state.bw]
        assert seen.keys() - grads.keys() == (set() if mode == "learned" else set(state.bw))
        for name, g in seen.items():
            if name in grads:
                np.testing.assert_allclose(g, grads[name], rtol=1e-12, atol=1e-12,
                                           err_msg=name)
            else:
                assert not g.any(), name

    def test_one_taped_forward_per_batch(self, tmp_path, monkeypatch):
        scenes, cfg, state = TestDeterminismAndResume().make_setup(tmp_path)
        calls = []
        forward = state.model.forward
        monkeypatch.setattr(state.model, "forward",
                            lambda params, images: calls.append(images.shape) or
                            forward(params, images))
        train_iteration(state, plain(3), cfg, SceneBank(scenes, state.shapes))
        assert calls == [(3, 32, 32, 3)]


class TestSceneCache:
    def crowded_scene(self):
        img = np.zeros((32, 32, 3), np.uint8)
        gt = GroundTruth(boxes=[(10.0, 10.0, 12.0, 10.0), (17.0, 12.0, 12.0, 10.0),
                                (22.0, 24.0, 9.0, 14.0)], class_ids=[0, 0, 0])
        return Scene(img, gt)

    def test_gate_follows_the_rule_on_a_reused_state(self):
        # the loc gate and n_pos come from the current config, never from
        # an entry cached under another label rule
        scene = self.crowded_scene()
        shapes = ((8.0, 8.0), (14.0, 12.0))
        pono = TrainConfig(lr0=0.0, max_iter=5, label_rule="PONO")
        ao = TrainConfig(lr0=0.0, max_iter=5, label_rule="AO")
        reused = tabular_state(scene, shapes=shapes)
        bank = SceneBank([scene], reused.shapes)
        n_pono = train_iteration(reused, [(0, False)], pono, bank).n_pos
        n_ao = train_iteration(reused, [(0, False)], ao, bank).n_pos
        fresh = tabular_state(scene, shapes=shapes)
        assert n_ao == train_iteration(fresh, [(0, False)], ao,
                                       SceneBank([scene], fresh.shapes)).n_pos
        assert 0 < n_ao != n_pono  # 2 against 11 on this scene and these anchors

    def test_new_scene_at_a_collected_scene_id_is_a_miss(self):
        # scenes die between direct train_iteration calls and CPython hands
        # their ids to new scenes; each new scene must get its own gate
        cfg = TrainConfig(lr0=0.0, max_iter=5, label_rule="PONO")
        img = np.zeros((32, 32, 3), np.uint8)
        reused = tabular_state(one_object_scene())
        for k in (1, 2, 3, 1, 3, 2):
            scene = Scene(img, GroundTruth(
                [(6.0 + 8 * j, 6.0, 8.0, 8.0) for j in range(k)], [0] * k))
            n_pos = train_iteration(reused, [(0, False)], cfg,
                                    SceneBank([scene], reused.shapes)).n_pos
            fresh = tabular_state(scene)
            assert n_pos == train_iteration(fresh, [(0, False)], cfg,
                                            SceneBank([scene], fresh.shapes)).n_pos
            del scene

    def test_run_training_keeps_no_entries(self, monkeypatch):
        # the bank copies each assignment into its rows: no record outlives
        # its fill, and the state holds no scene data
        scene = self.crowded_scene()
        state = tabular_state(scene)
        made = []
        assign = train_mod.assign_ao

        def recording_assign(grid, gt):
            a = assign(grid, gt)
            made.append(weakref.ref(a))
            return a

        monkeypatch.setattr(train_mod, "assign_ao", recording_assign)
        cfg = TrainConfig(max_iter=3)
        run_training(state, SceneBank([scene], state.shapes), cfg)
        gc.collect()
        assert len(made) == len(drawn_variants(cfg, 1))
        assert all(ref() is None for ref in made)
        assert {f.name for f in fields(RunState)} == {"model", "bw", "shapes",
                                                      "iteration", "momentum"}

    def test_bank_keeps_its_entries_past_the_call(self):
        scene = self.crowded_scene()
        state = tabular_state(scene)
        bank = SceneBank([scene], state.shapes)
        cfg = TrainConfig(max_iter=3)
        run_training(state, bank, cfg)
        assert filled_keys(bank) == drawn_variants(cfg, 1) == {(0, False), (0, True)}
        assert bank.scenes[0] is scene
        rows = stack_records([assign_ao(bank.grid, scene.gt),
                              assign_ao(bank.grid, hflip(scene).gt)])
        np.testing.assert_array_equal(bank.gt_index[:2], rows.gt_index)
        got = bank.batch([(0, False), (0, True)])[1]
        for name in ("gt_index", "ao", "pono", "gt_box"):
            np.testing.assert_array_equal(getattr(got, name), getattr(rows, name))


def first_draws(cfg: TrainConfig, n_scenes: int) -> list:
    """(scene index, mirrored) of every scene `run_training` draws from
    iteration 0 to cfg.max_iter, replayed from the per-iteration RNG, each
    once, in the order of its first draw."""
    keys = {}
    for it in range(cfg.max_iter):
        rng = np.random.default_rng([cfg.seed, 7, it])
        for i in rng.integers(0, n_scenes, size=cfg.batch_size):
            keys.setdefault((int(i), bool(rng.random() < 0.5)))
    return list(keys)


def drawn_variants(cfg: TrainConfig, n_scenes: int) -> set:
    """The keys of `first_draws` as a set."""
    return set(first_draws(cfg, n_scenes))


def filled_keys(bank: SceneBank) -> set:
    """(scene index, mirrored) of every row the bank has filled."""
    return {(int(row) // 2, bool(row % 2)) for row in np.flatnonzero(bank.filled)}


class TestSceneBank:
    def test_each_variant_assigned_once_across_runs(self, tmp_path, monkeypatch):
        scenes, cfg, state = TestDeterminismAndResume().make_setup(tmp_path, max_iter=5)
        bank = SceneBank(scenes, state.shapes)
        calls = []
        assign = train_mod.assign_ao
        monkeypatch.setattr(train_mod, "assign_ao",
                            lambda grid, gt: calls.append(gt) or assign(grid, gt))
        run_training(state, bank, cfg)
        first = len(calls)
        assert filled_keys(bank) == drawn_variants(cfg, len(scenes))
        assert first == bank.filled.sum()
        # a second run on the bank draws the first run's variants and more
        longer = replace(cfg, max_iter=9, label_rule="AO")
        run_training(RunState.fresh(state.model.cfg, state.shapes, longer.seed), bank, longer)
        assert filled_keys(bank) == drawn_variants(longer, len(scenes))
        assert len(calls) == bank.filled.sum() > first
        # one assignment per key, made on its own variant's ground truth
        for gt, (i, mirrored) in zip(calls, first_draws(longer, len(scenes)), strict=True):
            if mirrored:
                np.testing.assert_array_equal(gt.boxes, hflip(scenes[i]).gt.boxes)
                np.testing.assert_array_equal(gt.class_ids, scenes[i].gt.class_ids)
            else:
                assert gt is scenes[i].gt

    def test_mirrored_variant_fills_one_row(self, tmp_path, monkeypatch):
        scenes, _, state = TestDeterminismAndResume().make_setup(tmp_path)
        bank = SceneBank(scenes, state.shapes)
        calls = []
        assign = train_mod.assign_ao
        monkeypatch.setattr(train_mod, "assign_ao",
                            lambda grid, gt: calls.append(gt) or assign(grid, gt))
        row = train_mod.scene_cache(bank, (2, True))
        assert row == 5 and bank.scenes[2] is scenes[2]
        mirrored = hflip(scenes[2])
        np.testing.assert_array_equal(calls[0].boxes, mirrored.gt.boxes)
        n = len(mirrored.gt)
        np.testing.assert_array_equal(bank.boxes[bank.first[row]:][:n], mirrored.gt.boxes)
        again = train_mod.scene_cache(bank, (2, True))
        assert again == row and len(calls) == 1
        assert filled_keys(bank) == {(2, True)}

    def test_the_bank_holds_one_byte_per_cell_and_row(self):
        # below 128 objects the bank keeps an int8 index per anchor cell of
        # each of its 2N rows and no float map, and per-object tables of one
        # dummy row and a row per object per variant; drawing variants fills
        # these arrays and makes no other
        from ponodet import benchmarks
        spec = benchmarks.crowded_benchmark().gen
        scenes = generate(spec, 4)
        boxes = np.random.default_rng(5).uniform(8.0, 40.0, (127, 4))
        scenes.append(Scene(np.zeros_like(scenes[0].image),
                            GroundTruth(boxes=boxes, class_ids=[0] * 127)))
        bank = SceneBank(scenes, np.full((spec.n_classes, 2, 2), [9.0, 12.0]))

        def arrays():
            return {name: a for name, a in vars(bank).items()
                    if isinstance(a, np.ndarray) and name not in ("shapes", "grid")}

        held = arrays()
        cells, rows = math.prod(bank.grid.shape[:4]), 2 * len(scenes)
        per_cell = [a for a in held.values() if a.shape == (rows, *bank.grid.shape[:4])]
        assert [a.dtype for a in per_cell] == [np.int8]
        assert per_cell[0].nbytes == cells * rows
        objects = sum(1 + len(scene.gt) for scene in scenes)
        assert sorted(len(a) for a in held.values() if a.ndim < 5 and len(a) != rows) \
            == [2 * objects] * 2
        for i in range(len(scenes)):
            for mirrored in (False, True):
                train_mod.scene_cache(bank, (i, mirrored))
                now = arrays()
                assert now.keys() == held.keys()
                assert all(now[k] is a and a.base is None for k, a in held.items())
        assert bank.filled.all()

    def test_empty_bank_refused(self):
        with pytest.raises(ValueError, match="at least one scene"):
            SceneBank([], np.full((1, 2, 2), 8.0))

    def test_class_outside_the_shapes_refused_at_build(self):
        # a two-class dataset on one-class anchors
        from ponodet import benchmarks
        scenes = generate(benchmarks.crowded_benchmark().gen, 6)
        first = next(i for i, s in enumerate(scenes) if 1 in s.gt.class_ids)
        with pytest.raises(ValueError, match=re.escape(
                f"scene {first} has class id 1, but the anchors cover classes 0..0")):
            SceneBank(scenes, np.full((1, 2, 2), 9.0))

    def test_scenes_of_another_image_shape_refused(self):
        # a bank tiles one grid, so every scene must share scene 0's image
        scenes = [one_object_scene(32), one_object_scene(32), one_object_scene(40)]
        with pytest.raises(ValueError, match=re.escape(
                "scene 2 has image shape (40, 40, 3), scene 0 (32, 32, 3)")):
            SceneBank(scenes, np.full((1, 2, 2), 8.0))

    def test_bank_on_another_grid_rejected(self, tmp_path):
        scenes, cfg, state = TestDeterminismAndResume().make_setup(tmp_path)
        other = np.full((1, 2, 2), [8.0, 13.0])
        with pytest.raises(ValueError, match="other anchor shapes than the run"):
            run_training(state, SceneBank(scenes, other), cfg)
        assert state.iteration == 0
        # equal shapes made anew are the same shapes
        same = np.full((1, 2, 2), [8.0, 12.0])
        run_training(state, SceneBank(scenes, same), replace(cfg, max_iter=1))


class TestLoadedImages:
    def test_batch_and_eval_forwards_read_the_float_images(self, tmp_path, monkeypatch):
        # a scene keeps its 8-bit levels; every forward must read
        # levels.astype(float64) / 255.0
        scenes, cfg, state = TestDeterminismAndResume().make_setup(tmp_path, max_iter=1)
        save_dataset(tmp_path / "ds", scenes[:3])
        loaded = load_dataset(tmp_path / "ds")
        floats = [scene.image.astype(np.float64) / 255.0 for scene in loaded]
        seen, forward = [], ToyNet.forward
        monkeypatch.setattr(ToyNet, "forward", lambda self, params, images:
                            seen.append(ad.values_of(images)) or forward(self, params, images))
        bank = SceneBank(loaded, state.shapes)
        train_iteration(state, [(0, False), (2, True)], cfg, bank)
        dataset_detections(state.model, bank.grid, loaded, 0.05, 0.5)
        want = [np.stack([floats[0], floats[2][:, ::-1]]), *(f[None] for f in floats)]
        assert len(seen) == len(want)
        for got, expect in zip(seen, want):
            assert got.dtype == np.float64
            np.testing.assert_array_equal(got, expect)


class TestFreezeRule:
    def test_absent_class_weights_bit_equal(self):
        # class 1 never occurs: its grid weights must stay exactly at init
        img = np.zeros((32, 32, 3), np.uint8)
        scene = Scene(img, GroundTruth([(12, 12, 10, 10)], [0]))
        aset = np.full((2, 2, 2), 9.0)
        model = TabularPredictor(4, 4, 2, 2)
        state = RunState(model=model, shapes=aset, bw=initial_balance(2, 2))
        cfg = TrainConfig(lr0=0.05, max_iter=60, mode="learned")
        train_on_one_scene(state, scene, cfg)
        assert np.all(state.bw["bw.s_cls_grid"][1] == 1.0)
        assert np.all(state.bw["bw.s_loc_grid"][1] == 1.0)
        # the trained class moved
        assert np.any(state.bw["bw.s_cls_grid"][0] != 1.0)


class TestFreezeHoldsMomentum:
    def test_grid_that_loses_its_positives_keeps_value_and_momentum(self):
        # class 1 has positives for 3 iterations and then none for 5: from
        # then on its grids' s entries and their momentum stay bit for bit
        both = Scene(np.zeros((32, 32, 3), np.uint8),
                     GroundTruth([(9, 9, 10, 10), (22, 22, 10, 10)], [0, 1]))
        only_0 = Scene(np.zeros((32, 32, 3), np.uint8), GroundTruth([(9, 9, 10, 10)], [0]))
        aset = np.full((2, 2, 2), 10.0)
        state = RunState.fresh(ToyNetConfig(input_size=32, base_channels=2, levels=2,
                                            head_convs=1), aset, 0)
        bank = SceneBank([both, only_0], aset)
        cfg = TrainConfig(lr0=0.05, max_iter=8, label_rule="PONO")
        keys = ("bw.s_cls_grid", "bw.s_loc_grid")

        def class_1():
            return [a[1].copy() for key in keys
                    for a in (state.bw[key], state.momentum[key])]

        for _ in range(3):
            assert train_iteration(state, [(0, False)], cfg, bank).per_grid_pos[1].any()
        held = class_1()
        assert np.any(held[1] != 0.0)  # momentum the step could carry on
        for _ in range(5):
            assert not train_iteration(state, [(1, False)], cfg, bank).per_grid_pos[1].any()
            for now, then in zip(class_1(), held):
                np.testing.assert_array_equal(now, then)
        # class 0 keeps training
        assert np.any(state.bw["bw.s_cls_grid"][0] != 1.0)


class TestDeterminismAndResume:
    def make_setup(self, tmp_path, max_iter=12):
        spec = GenSpec(n_classes=1, class_freq=(1.0,),
                       size_ranges=((8.0, 14.0),), objects_per_scene=(1, 2),
                       crowding=0.0, seed=3, image_size=32)
        scenes = generate(spec, 6)
        aset = np.full((1, 2, 2), [8.0, 12.0])
        cfg = TrainConfig(lr0=0.01, max_iter=max_iter, batch_size=2, seed=5,
                          mode="learned")
        state = RunState.fresh(ToyNetConfig(input_size=32, base_channels=2, levels=2,
                                            head_convs=1), aset, cfg.seed)
        return scenes, cfg, state

    def test_seeded_rerun_identical_reports(self, tmp_path):
        scenes, cfg, state_a = self.make_setup(tmp_path)
        _, _, state_b = self.make_setup(tmp_path)
        ra = run_training(state_a, SceneBank(scenes, state_a.shapes), cfg)
        rb = run_training(state_b, SceneBank(scenes, state_b.shapes), cfg)
        assert [r.total for r in ra] == [r.total for r in rb]
        for k in state_a.model.params:
            np.testing.assert_array_equal(state_a.model.params[k],
                                          state_b.model.params[k])

    def test_checkpoint_resume_bit_exact(self, tmp_path):
        # a mid-run checkpoint must restore the remaining iterations
        # bit-for-bit (same lr schedule, momentum buffers, batch draws), in
        # every weighting mode
        for mode in loss_mod.MODES:
            run_dir = tmp_path / mode
            scenes, cfg, state = self.make_setup(tmp_path)
            cfg = replace(cfg, checkpoint_every=6, mode=mode)
            straight = run_training(state, SceneBank(scenes, state.shapes), cfg,
                                    run_dir=run_dir)
            log = (run_dir / "log.csv").read_bytes()

            resumed_state = load_run(run_dir / "ckpt_000006.bin")
            assert resumed_state.iteration == 6
            rest = run_training(resumed_state, SceneBank(scenes, resumed_state.shapes), cfg,
                                run_dir=run_dir)
            # a resumed run removes no checkpoint of the run it resumes, and
            # cuts the log back to the checkpoint before it appends
            assert sorted(p.name for p in run_dir.glob("ckpt_*")) == \
                ["ckpt_000006.bin", "ckpt_000012.bin"]
            assert (run_dir / "log.csv").read_bytes() == log
            # into a directory with no log: the header and the resumed rows
            run_training(load_run(run_dir / "ckpt_000006.bin"),
                         SceneBank(scenes, resumed_state.shapes), cfg, run_dir=run_dir / "new")
            lines = log.decode().splitlines(keepends=True)
            assert (run_dir / "new" / "log.csv").read_text() == "".join(lines[:1] + lines[7:])

            assert [r.total for r in rest] == [r.total for r in straight[6:]], mode
            assert resumed_state.flat_params.tobytes() == state.flat_params.tobytes(), mode
            assert resumed_state.flat_momentum.tobytes() == state.flat_momentum.tobytes(), mode

    def test_log_on_disk_at_each_checkpoint(self, tmp_path, monkeypatch):
        # a kill right after a checkpoint must leave a log that reaches the
        # checkpoint: the header and one row per iteration up to it
        scenes, cfg, state = self.make_setup(tmp_path, max_iter=10)
        cfg = replace(cfg, checkpoint_every=5)
        log = tmp_path / "log.csv"
        on_disk = []
        save = train_mod.save_run

        def spy(path, st):
            on_disk.append((st.iteration, log.read_text().splitlines()))
            save(path, st)

        monkeypatch.setattr(train_mod, "save_run", spy)
        run_training(state, SceneBank(scenes, state.shapes), cfg, run_dir=tmp_path)
        assert [it for it, _ in on_disk] == [5, 10]
        for it, lines in on_disk:
            assert lines[:1] == [LossReport.CSV_HEADER]
            assert [int(row.split(",")[0]) for row in lines[1:]] == list(range(it))

    def test_bank_of_another_image_size_refused_before_any_file_is_touched(self, tmp_path):
        # an earlier run's checkpoints and log stay as they were
        scenes, cfg, state = self.make_setup(tmp_path, max_iter=2)
        cfg = replace(cfg, checkpoint_every=1)
        run_training(state, SceneBank(scenes, state.shapes), cfg, run_dir=tmp_path)
        before = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
        assert sorted(before) == ["ckpt_000001.bin", "ckpt_000002.bin", "log.csv"]
        fresh = RunState.fresh(state.model.cfg, state.shapes, cfg.seed)
        with pytest.raises(ValueError, match=re.escape(
                "the scene bank's images are 48px, but the run's network is for 32px")):
            run_training(fresh, SceneBank([one_object_scene(48)], state.shapes), cfg,
                         run_dir=tmp_path)
        assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == before

    def test_resume_refuses_a_log_row_without_an_iteration(self, tmp_path):
        scenes, cfg, state = self.make_setup(tmp_path, max_iter=4)
        cfg = replace(cfg, checkpoint_every=2)
        run_training(state, SceneBank(scenes, state.shapes), cfg, run_dir=tmp_path)
        log = tmp_path / "log.csv"
        lines = log.read_text().splitlines(keepends=True)
        lines[2] = "x0" + lines[2][1:]
        log.write_text("".join(lines))
        resumed = load_run(tmp_path / "ckpt_000002.bin")
        with pytest.raises(ValueError, match=re.escape(f"{log}:3: 'x0' is no iteration number")):
            run_training(resumed, SceneBank(scenes, resumed.shapes), cfg, run_dir=tmp_path)
        assert log.read_text() == "".join(lines) and resumed.iteration == 2

    def test_log_rows_deterministic(self, tmp_path):
        scenes, cfg, state = self.make_setup(tmp_path, max_iter=5)
        run_training(state, SceneBank(scenes, state.shapes), cfg, run_dir=tmp_path / "a")
        scenes, cfg, state = self.make_setup(tmp_path, max_iter=5)
        run_training(state, SceneBank(scenes, state.shapes), cfg, run_dir=tmp_path / "b")
        assert (tmp_path / "a" / "log.csv").read_bytes() == \
            (tmp_path / "b" / "log.csv").read_bytes()


class TestCheckpoint:
    def test_learned_round_trip_byte_identical(self, tmp_path):
        scenes, cfg, state = TestDeterminismAndResume().make_setup(tmp_path, max_iter=3)
        run_training(state, SceneBank(scenes, state.shapes), cfg)
        save_run(tmp_path / "a.bin", state)
        save_run(tmp_path / "b.bin", load_run(tmp_path / "a.bin"))
        assert (tmp_path / "a.bin").read_bytes() == (tmp_path / "b.bin").read_bytes()
        names = list(load_arrays(tmp_path / "a.bin"))
        bw = list(initial_balance(1, 2))
        assert [n for n in names if n.startswith("bw.")] == bw
        # momentum: the model's buffers, then the balance weights' in order
        mom = [n[len("mom."):] for n in names if n.startswith("mom.")]
        assert mom == list(state.model.params) + bw

    @pytest.mark.parametrize("mode", ["unit", "retina_norm"])
    def test_fixed_weights_have_no_momentum(self, tmp_path, mode):
        # a fixed-weight run writes every trained array's buffer, in the
        # order a learned run does, and the balance weights' are all zero
        scenes, cfg, state = TestDeterminismAndResume().make_setup(tmp_path, max_iter=2)
        run_training(state, SceneBank(scenes, state.shapes), replace(cfg, mode=mode))
        save_run(tmp_path / "final.bin", state)
        arrays = load_arrays(tmp_path / "final.bin")
        bw = list(initial_balance(1, 2))
        assert [n for n in arrays if n.startswith("bw.")] == bw
        mom = [n[len("mom."):] for n in arrays if n.startswith("mom.")]
        assert mom == list(state.model.params) + bw
        for name in bw:
            assert not arrays[f"mom.{name}"].any(), name
            np.testing.assert_array_equal(arrays[name], initial_balance(1, 2)[name])


def bench_run(bench, cell=("AMS", "learned", "CE")):
    """One batch of a pinned benchmark's training scenes, a fresh state of
    its net on fixed 12 x 12 anchors, and its config set to the cell's
    (label rule, mode, classification loss)."""
    from ponodet import benchmarks
    b = getattr(benchmarks, f"{bench}_benchmark")()
    scenes = generate(b.gen, b.train_cfg.batch_size)
    nc = b.gen.n_classes
    state = RunState.fresh(b.net, np.full((nc, b.n_anchors, 2), 12.0), 0)
    rule, mode, cls_loss = cell
    cfg = replace(b.train_cfg, label_rule=rule, mode=mode, cls_loss=cls_loss)
    return scenes, state, cfg


def count_records(monkeypatch) -> list[int]:
    """The tape records each `backward` call finds, from now on."""
    counts = []
    backward = ad.backward
    monkeypatch.setattr(ad, "backward", lambda root: counts.append(
        len(root.tape.records)) or backward(root))
    return counts


class TestTapeShape:
    """What one iteration puts on the tape: one record per conv (bias and
    activation included), upsample, concat and reshape of the network, then
    the head: the overlap map, the two loss maps and the weighted total."""

    @pytest.mark.parametrize("bench,cell,records", [
        ("crowded", ("AMS", "learned", "CE"), 18 + 4),
        ("imbalanced", ("AO", "retina_norm", "FL"), 22 + 4)])
    def test_records_per_iteration(self, monkeypatch, bench, cell, records):
        scenes, state, cfg = bench_run(bench, cell)
        counts = count_records(monkeypatch)
        train_iteration(state, plain(len(scenes)), cfg, SceneBank(scenes, state.shapes))
        assert counts == [records]


class TestRunLeaves:
    """A run's leaves are built with its state, one per trained array, and
    every iteration records on them."""

    def test_no_leaf_built_after_the_state(self, monkeypatch):
        scenes, state, cfg = bench_run("crowded")
        made = []
        leaf = ad.leaf
        monkeypatch.setattr(ad, "leaf", lambda *args: made.append(args) or leaf(*args))
        run_training(state, SceneBank(scenes, state.shapes), replace(cfg, max_iter=3))
        assert state.iteration == 3 and len(made) == 0
        assert list(state.leaves) == list(state.model.params) + list(state.bw)
        assert len(state.leaves) == 28

    def test_raising_iteration_leaves_no_records(self, monkeypatch):
        scenes, state, cfg = bench_run("crowded")
        _, twin, _ = bench_run("crowded")
        bank, keys = SceneBank(scenes, state.shapes), plain(len(scenes))
        weighted = loss_mod.weighted_totals
        at_raise = []

        def raise_once(*args):
            weighted(*args)
            at_raise.append(len(state.tape.records))
            monkeypatch.setattr(loss_mod, "weighted_totals", weighted)
            raise RuntimeError("injected")

        monkeypatch.setattr(loss_mod, "weighted_totals", raise_once)
        with pytest.raises(RuntimeError, match="injected"):
            train_iteration(state, keys, cfg, bank)
        assert at_raise == [22] and state.tape.records == []
        assert state.iteration == 0

        counts = count_records(monkeypatch)
        report = train_iteration(state, keys, cfg, bank)
        want = train_iteration(twin, keys, cfg, bank)
        assert counts == [22, 22]
        assert (report.total, report.loc, report.cls, report.reg, report.n_pos) \
            == (want.total, want.loc, want.cls, want.reg, want.n_pos)
        np.testing.assert_array_equal(report.per_grid_pos, want.per_grid_pos)
        assert state.flat_params.tobytes() == twin.flat_params.tobytes()


class TestRunWork:
    """A run's tape holds nothing but its records: conv2d's padded inputs,
    spread maps and patch matrices live for one call, so between two
    iterations the tape reaches only its empty record list, and no record
    holds a patch matrix."""

    @pytest.mark.parametrize("bench", ["crowded", "imbalanced"])
    def test_tape_holds_nothing_between_iterations(self, monkeypatch, bench):
        scenes, state, cfg = bench_run(bench)
        seen = []
        step = train_mod.train_iteration

        def watch(*args):
            report = step(*args)
            # the tape's class is a referent of every instance of it
            reached = [r for r in gc.get_referents(state.tape) if r is not ad.Tape]
            assert reached == [[]] and reached[0] is state.tape.records
            seen.append(state.iteration)
            return report

        monkeypatch.setattr(train_mod, "train_iteration", watch)
        run_training(state, SceneBank(scenes, state.shapes), replace(cfg, max_iter=3))
        assert seen == [1, 2, 3]

    @pytest.mark.parametrize("bench", ["crowded", "imbalanced"])
    def test_no_record_holds_a_patch_matrix(self, bench):
        # after a taped forward, no conv2d record reaches a [rows, k*k*cin]
        # matrix through its vjps' closures, defaults or bound arrays: the
        # kernel vjp lowers the input it holds again
        scenes, state, cfg = bench_run(bench)
        images, _ = SceneBank(scenes, state.shapes).batch(plain(len(scenes)))
        try:
            state.model.forward(state.leaves, images)
            convs = [(pre, pulls) for _, pre, pulls in state.tape.records
                     if pulls[0][1].__qualname__.startswith("conv2d.")]
            assert len(convs) == len(state.model.params) // 2
            for pre, pulls in convs:
                k, _, cin, _ = next(p.shape for p, fn in pulls if fn.__name__ == "vjp_w")
                held = reachable_arrays([pre, *(fn for _, fn in pulls)])
                assert held and not [a.shape for a in held
                                     if a.ndim == 2 and a.shape[1] == k * k * cin]
        finally:
            state.tape.records.clear()


def reachable_arrays(fns) -> list[np.ndarray]:
    """The arrays the callables `fns` reach through closure cells, default
    arguments and bound `__self__`, following nested functions."""
    found, seen, todo = [], set(), list(fns)
    while todo:
        fn = todo.pop()
        if fn is None or id(fn) in seen:
            continue
        seen.add(id(fn))
        held = [c.cell_contents for c in getattr(fn, "__closure__", None) or ()]
        held += [*(getattr(fn, "__defaults__", None) or ()), getattr(fn, "__self__", None)]
        found += [a for a in held if isinstance(a, np.ndarray)]
        todo += [f for f in held if isinstance(f, types.FunctionType)]
    return found


class TestLossLog:
    """`run_training` returns one `LossLog`: run-long arrays that read as
    the list of the iterations' `LossReport`s."""

    def twin_reports(self, bench, iters):
        """The log of a run of `iters` iterations on a pinned net and the
        `train_iteration` reports of a twin state fed the same draws."""
        scenes, state, cfg = bench_run(bench)
        _, twin, _ = bench_run(bench)
        cfg = replace(cfg, max_iter=iters)
        bank = SceneBank(scenes, state.shapes)
        log = run_training(state, bank, cfg)
        want = []
        for it in range(iters):
            rng = np.random.default_rng([cfg.seed, 7, it])
            keys = [(int(i), rng.random() < 0.5)
                    for i in rng.integers(0, len(scenes), size=cfg.batch_size)]
            want.append(train_iteration(twin, keys, cfg, bank))
        assert state.flat_params.tobytes() == twin.flat_params.tobytes()
        return log, want, cfg

    def assert_same(self, got, want, cfg, iterations=None):
        """Each item of `got` is a `LossReport` with the fields, types and
        `csv_row` bytes of the matching one of `want`."""
        iterations = range(len(want)) if iterations is None else iterations
        assert len(got) == len(want) == len(iterations)
        for i, a, b in zip(iterations, got, want):
            assert isinstance(a, LossReport)
            for name in ("total", "loc", "cls", "reg", "n_pos"):
                assert type(getattr(a, name)) is type(getattr(b, name)), name
                assert getattr(a, name) == getattr(b, name), name
            assert a.per_grid_pos.dtype == b.per_grid_pos.dtype
            assert a.per_grid_pos.tobytes() == b.per_grid_pos.tobytes()
            lr = lr_at(i, cfg)
            assert a.csv_row(i, lr).encode() == b.csv_row(i, lr).encode()

    @pytest.mark.parametrize("bench", ["crowded", "imbalanced"])
    def test_items_are_the_iterations_reports(self, bench):
        log, want, cfg = self.twin_reports(bench, 20)
        assert isinstance(log, loss_mod.LossLog)
        self.assert_same(log, want, cfg)
        self.assert_same([log[i] for i in range(20)], want, cfg)
        self.assert_same([log[i - 20] for i in range(20)], want, cfg)
        np.testing.assert_array_equal(log.total, [r.total for r in want])
        np.testing.assert_array_equal(log.per_grid_pos, [r.per_grid_pos for r in want])
        assert log.n_pos.dtype == log.per_grid_pos.dtype == np.int64
        assert log.per_grid_pos.shape == (20, *want[0].per_grid_pos.shape)
        for bad in (20, -21):
            with pytest.raises(IndexError):
                log[bad]

    def test_slices(self):
        log, want, cfg = self.twin_reports("crowded", 19)
        for part in (slice(3, 11), slice(None, None, 3), slice(-5, None), slice(7, 7)):
            got = log[part]
            assert isinstance(got, loss_mod.LossLog)
            self.assert_same(got, want[part], cfg, range(19)[part])

    def test_pickle_round_trip(self):
        log, want, cfg = self.twin_reports("crowded", 17)
        back = pickle.loads(pickle.dumps(log))
        self.assert_same(back, want, cfg)
        # the pickle holds the used rows only, not the 32 rows grown to
        row = 8 * (5 + want[0].per_grid_pos.size)
        assert len(pickle.dumps(log)) < len(pickle.dumps(log[:1])) + 17 * row
        back.append(want[0])
        assert len(back) == 18 and back[-1].total == want[0].total

    @pytest.mark.parametrize("ahead", [0, 1])
    def test_state_at_or_past_max_iter_gives_an_empty_log(self, ahead):
        scenes, state, cfg = bench_run("crowded")
        bank = SceneBank(scenes, state.shapes)
        state.iteration = 10 ** 12 + ahead
        tracemalloc.start()
        try:
            log = run_training(state, bank, replace(cfg, max_iter=10 ** 12))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(log) == 0 and list(log) == [] and len(log.total) == 0
        assert peak < 64 * 1024


class TestFlatState:
    def test_building_a_state_allocates_no_throwaway_gradients(self):
        # the flat parameter, momentum and gradient vectors are 3 copies of
        # the trained arrays; a zero gradient per leaf would be a fourth
        from ponodet import benchmarks
        b = benchmarks.imbalanced_benchmark()
        shapes = np.full((2, b.n_anchors, 2), 12.0)
        model = ToyNet(b.net, 2, b.n_anchors, drawn_kernels(0))
        bw = initial_balance(2, b.n_anchors)
        tracemalloc.start()
        try:
            state = RunState(model=model, shapes=shapes, bw=bw)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 3.5 * state.flat_params.nbytes, peak / state.flat_params.nbytes
        for name, t in state.leaves.items():
            assert np.shares_memory(t.grad, state.flat_grad), name

    def test_fresh_state_is_a_toynet_for_the_grid(self):
        net = ToyNetConfig(input_size=32, base_channels=2, levels=2, head_convs=1)
        shapes = np.full((3, 2, 2), 9.0)
        state = RunState.fresh(net, shapes, 7)
        want = ToyNet(net, 3, 2, drawn_kernels(7))
        assert (state.model.cfg, state.model.n_classes, state.model.n_anchors) == (net, 3, 2)
        assert list(state.model.params) == list(want.params)
        for name, p in want.params.items():
            np.testing.assert_array_equal(state.model.params[name], p)
        assert list(state.bw) == list(initial_balance(3, 2))
        for name, s in initial_balance(3, 2).items():
            np.testing.assert_array_equal(state.bw[name], s)
        assert state.iteration == 0 and state.shapes is shapes

    def test_fresh_state_arrays_are_views(self, tmp_path):
        _, _, made = TestDeterminismAndResume().make_setup(tmp_path)
        state = RunState.fresh(made.model.cfg, made.shapes, 0)
        assert_flat_views(state)
        assert not state.flat_momentum.any()

    def test_stepped_buffers_are_views(self, tmp_path):
        scenes, cfg, state = TestDeterminismAndResume().make_setup(tmp_path)
        momentum = state.momentum
        run_training(state, SceneBank(scenes, state.shapes), replace(cfg, max_iter=2, mode="unit"))
        assert_flat_views(state)
        run_training(state, SceneBank(scenes, state.shapes), replace(cfg, max_iter=3))
        assert_flat_views(state)
        assert state.momentum is momentum and state.flat_momentum.any()

    def test_loaded_state_arrays_are_views(self, tmp_path):
        scenes, cfg, state = TestDeterminismAndResume().make_setup(tmp_path, max_iter=3)
        run_training(state, SceneBank(scenes, state.shapes), cfg)
        save_run(tmp_path / "a.bin", state)
        loaded = load_run(tmp_path / "a.bin")
        assert_flat_views(loaded)
        np.testing.assert_array_equal(loaded.flat_params, state.flat_params)
        np.testing.assert_array_equal(loaded.flat_momentum, state.flat_momentum)


class TestLoadRun:
    def test_missing_entry_named(self, tmp_path):
        scenes, cfg, state = TestDeterminismAndResume().make_setup(tmp_path, max_iter=2)
        run_training(state, SceneBank(scenes, state.shapes), cfg)
        save_run(tmp_path / "full.bin", state)
        arrays = load_arrays(tmp_path / "full.bin")
        required = [key for key in arrays if not key.startswith("mom.")]
        assert "meta.model_kind" in required and "model.cls_out.w" in required
        for key in required:
            path = tmp_path / "partial.bin"
            save_arrays(path, {k: v for k, v in arrays.items() if k != key})
            with pytest.raises(ValueError, match=re.escape(f"{path}: checkpoint has no {key!r}")):
                load_run(path)

    @pytest.mark.parametrize("mode,dropped,named", [
        ("learned", ["mom.stem1.w"], "mom.stem1.w"),
        ("learned", ["mom.bw.s_cls"], "mom.bw.s_cls"),
        ("learned", ["mom.stem0.w", "mom.bw.s_loc_grid"], "mom.stem0.w"),
        ("unit", ["mom.cls_out.b"], "mom.cls_out.b"),
        # no buffer, as the parent wrote at iteration 0, and the model's
        # alone, as it wrote for fixed weights
        pytest.param("learned", "mom.", "mom.stem0.w", id="learned-no_buffers"),
        pytest.param("unit", "mom.bw.", "mom.bw.s_cls", id="unit-model_buffers_only")])
    def test_partial_momentum_rejected(self, tmp_path, mode, dropped, named):
        # a resume would restart a missing buffer at zero, so every trained
        # array's buffer is required, and the first missing one is named
        scenes, cfg, state = TestDeterminismAndResume().make_setup(tmp_path, max_iter=2)
        run_training(state, SceneBank(scenes, state.shapes), replace(cfg, mode=mode))
        save_run(tmp_path / "full.bin", state)
        arrays = load_arrays(tmp_path / "full.bin")
        if isinstance(dropped, str):  # every entry under a prefix
            dropped = [k for k in arrays if k.startswith(dropped)]
        assert named in dropped and set(dropped) <= set(arrays)
        path = tmp_path / "partial.bin"
        save_arrays(path, {k: v for k, v in arrays.items() if k not in dropped})
        with pytest.raises(ValueError, match=re.escape(f"{path}: checkpoint has no {named!r}")):
            load_run(path)

    def test_every_momentum_buffer_loads(self, tmp_path):
        scenes, cfg, state = TestDeterminismAndResume().make_setup(tmp_path, max_iter=2)
        run_training(state, SceneBank(scenes, state.shapes), cfg)
        save_run(tmp_path / "full.bin", state)
        loaded = load_run(tmp_path / "full.bin")
        assert list(loaded.momentum) == list(state.leaves)
        for name, v in state.momentum.items():
            assert loaded.momentum[name].tobytes() == v.tobytes(), name

    def test_entry_shape_checked_against_meta(self, tmp_path):
        scenes, cfg, state = TestDeterminismAndResume().make_setup(tmp_path, max_iter=2)
        run_training(state, SceneBank(scenes, state.shapes), cfg)
        save_run(tmp_path / "full.bin", state)
        arrays = load_arrays(tmp_path / "full.bin")
        checked = [key for key in arrays if not key.startswith("meta.")]
        assert {"model.stem0.w", "anchors.shapes", "bw.s_cls", "bw.s_loc_grid",
                "mom.stem0.w", "mom.bw.s_cls_grid"} <= set(checked)
        path = tmp_path / "bad.bin"
        for key in checked:
            save_arrays(path, {**arrays, key: np.ones(arrays[key].shape + (2,))})
            with pytest.raises(ValueError, match=re.escape(f"{path}: entry {key!r} has shape")):
                load_run(path)
        save_arrays(path, {**arrays, "mom.nothing": np.zeros(3)})
        with pytest.raises(ValueError, match=re.escape(f"{path}: checkpoint has an unknown entry 'mom.nothing'")):
            load_run(path)


    @pytest.mark.parametrize("key,value", [("meta.n_classes", -1.0),
                                           ("meta.n_anchors", 0.0),
                                           ("meta.input_size", 0.0),
                                           ("meta.n_classes", np.nan)])
    def test_size_below_one_named(self, tmp_path, key, value):
        scenes, cfg, state = TestDeterminismAndResume().make_setup(tmp_path, max_iter=1)
        save_run(tmp_path / "full.bin", state)
        arrays = load_arrays(tmp_path / "full.bin")
        path = tmp_path / "bad.bin"
        save_arrays(path, {**arrays, key: np.asarray(value)})
        with pytest.raises(ValueError, match=re.escape(f"{path}: entry {key!r} is")):
            load_run(path)

    @pytest.mark.parametrize("side", [0.0, -3.0, np.inf, np.nan])
    def test_bad_anchor_side_named(self, tmp_path, side):
        _, _, state = TestDeterminismAndResume().make_setup(tmp_path, max_iter=1)
        save_run(tmp_path / "full.bin", state)
        arrays = load_arrays(tmp_path / "full.bin")
        arrays["anchors.shapes"][0, 1, 0] = side
        path = tmp_path / "bad.bin"
        save_arrays(path, arrays)
        with pytest.raises(ValueError,
                           match=re.escape(f"{path}: entry 'anchors.shapes' holds a side")):
            load_run(path)

    @pytest.mark.parametrize("key,value", [("model.stem0.w", np.nan),
                                           ("model.cls_out.b", -np.inf),
                                           ("bw.s_cls", np.inf),
                                           ("bw.s_loc_grid", np.nan),
                                           ("mom.stem1.w", np.inf),
                                           ("mom.bw.s_cls_grid", np.nan)])
    def test_non_finite_value_named(self, tmp_path, key, value):
        # a NaN kernel would score mAP 0 and an infinite weight would plot
        # as 0, each from a checkpoint that loaded
        _, _, state = TestDeterminismAndResume().make_setup(tmp_path, max_iter=1)
        save_run(tmp_path / "full.bin", state)
        arrays = load_arrays(tmp_path / "full.bin")
        arrays[key].reshape(-1)[-1] = value
        path = tmp_path / "bad.bin"
        save_arrays(path, arrays)
        with pytest.raises(ValueError, match=re.escape(
                f"{path}: entry {key!r} holds a value that is not finite")):
            load_run(path)

    def test_tabular_checkpoint_rejected(self, tmp_path):
        # a predictor with meta.model_kind 0 (the former tabular kind) writes
        # the same entries the tabular runs used to
        path = tmp_path / "tabular.bin"
        save_run(path, tabular_state(one_object_scene()))
        assert float(load_arrays(path)["meta.model_kind"]) == 0.0
        with pytest.raises(ValueError, match=re.escape(
                f"{path}: entry 'meta.model_kind' is 0.0, but a ToyNet checkpoint has 1.0")):
            load_run(path)

    @pytest.mark.parametrize("key,value,message", [
        ("meta.levels", np.nan, "is nan, but must be a whole number"),
        ("meta.head_convs", np.inf, "is inf, but must be a whole number"),
        ("meta.iteration", 2.5, "is 2.5, but must be a whole number"),
        ("meta.iteration", -1.0, "is -1.0, but must be at least 0"),
        ("meta.feat_stride", np.nan, "is nan, but must be a whole number"),
        ("meta.model_kind", [1.0, 1.0], "has shape (2,), but a meta entry holds one number"),
        ("meta.base_channels", [[2.0]], "has shape (1, 1), but a meta entry holds one number")])
    def test_bad_meta_entry_named(self, tmp_path, key, value, message):
        scenes, cfg, state = TestDeterminismAndResume().make_setup(tmp_path, max_iter=1)
        save_run(tmp_path / "full.bin", state)
        path = tmp_path / "bad.bin"
        save_arrays(path, {**load_arrays(tmp_path / "full.bin"), key: np.asarray(value)})
        with pytest.raises(ValueError, match=re.escape(f"{path}: entry {key!r} {message}")):
            load_run(path)

    def test_toynet_levels_named(self, tmp_path):
        scenes, cfg, state = TestDeterminismAndResume().make_setup(tmp_path, max_iter=1)
        save_run(tmp_path / "full.bin", state)
        path = tmp_path / "bad.bin"
        save_arrays(path, {**load_arrays(tmp_path / "full.bin"),
                           "meta.levels": np.asarray(1.0)})
        with pytest.raises(ValueError, match=re.escape(f"{path}: levels must be >= 2")):
            load_run(path)

    @pytest.mark.parametrize("levels", [3000, 10**11])
    def test_toynet_levels_bounded(self, tmp_path, levels):
        scenes, cfg, state = TestDeterminismAndResume().make_setup(tmp_path, max_iter=1)
        save_run(tmp_path / "full.bin", state)
        path = tmp_path / "bad.bin"
        save_arrays(path, {**load_arrays(tmp_path / "full.bin"),
                           "meta.levels": np.asarray(float(levels))})
        with pytest.raises(ValueError, match=re.escape(
                f"{path}: levels = {levels} is too many for a 32px input") + "$"):
            load_run(path)


class TestIterationLifetime:
    def test_taped_tensors_freed_without_cyclic_gc(self, tmp_path, monkeypatch):
        scenes, cfg, state = TestDeterminismAndResume().make_setup(tmp_path)
        roots = []
        backward = ad.backward

        def keep_ref(root):
            roots.append(weakref.ref(root))
            backward(root)

        monkeypatch.setattr(ad, "backward", keep_ref)
        gc.collect()
        gc.disable()
        try:
            train_iteration(state, plain(2), cfg, SceneBank(scenes, state.shapes))
            assert len(roots) == 1 and roots[0]() is None
        finally:
            gc.enable()

    def test_non_finite_loss_names_the_iteration(self, tmp_path):
        scenes, cfg, state = TestDeterminismAndResume().make_setup(tmp_path,
                                                                   max_iter=40)
        cfg = replace(cfg, lr0=1e6)
        with np.errstate(all="ignore"), \
                pytest.raises(FloatingPointError, match=r"at iteration \d+"):
            run_training(state, SceneBank(scenes, state.shapes), cfg, run_dir=tmp_path)
        rows = (tmp_path / "log.csv").read_text().splitlines()[1:]
        assert all(math.isfinite(float(r.split(",")[1])) for r in rows)
        assert len(rows) == state.iteration - 1


CONFIG_FIELDS = [(cls, f.name) for cls in (TrainConfig, ToyNetConfig)
                 for f in fields(cls)]


class TestConfigParsing:
    def test_defaults_and_overrides(self):
        cfg = config_from_kv(TrainConfig, {"max_iter": "50", "mode": "unit"}, "cfg.txt")
        assert cfg.max_iter == 50 and cfg.mode == "unit"
        assert cfg.lr0 == 0.005 and train_mod.MOMENTUM == 0.9 and train_mod.POLY_POWER == 0.9

    def test_empty_kv_gives_defaults(self):
        assert config_from_kv(TrainConfig, {}, "cfg.txt") == TrainConfig()
        assert config_from_kv(ToyNetConfig, {}, "cfg.txt") == ToyNetConfig()

    def test_every_field_round_trips(self):
        cfg = TrainConfig(lr0=0.02, max_iter=7, batch_size=3, mode="unit",
                          label_rule="AO", cls_loss="FL", seed=42, checkpoint_every=2)
        net = ToyNetConfig(input_size=96, base_channels=3, levels=3, head_convs=0)
        for c in (cfg, net):
            kv = {f.name: str(getattr(c, f.name)) for f in fields(c)}
            assert all(getattr(c, f.name) != f.default for f in fields(c))
            assert config_from_kv(type(c), kv, "cfg.txt") == c

    def test_validation(self):
        with pytest.raises(ValueError):
            TrainConfig(label_rule="NOPE")
        with pytest.raises(ValueError):
            TrainConfig(cls_loss="hinge")

    @pytest.mark.parametrize("cls,key,text,message", [
        (TrainConfig, "lr0", "abc", "lr0: could not convert string to float: 'abc'"),
        (TrainConfig, "lr0", "inf", "lr0 must be finite and >= 0"),
        (TrainConfig, "lr0", "nan", "lr0 must be finite and >= 0"),
        (TrainConfig, "batch_size", "0", "batch_size must be >= 1"),
        (TrainConfig, "checkpoint_every", "-1", "checkpoint_every must be >= 0"),
        (TrainConfig, "seed", "-1", "seed must be >= 0"),
        (ToyNetConfig, "base_channels", "abc", "base_channels: invalid literal"),
        (ToyNetConfig, "levels", "1", "levels must be >= 2"),
        (ToyNetConfig, "head_convs", "-1", "head_convs must be >= 0")])
    def test_bad_value_names_file_and_key(self, cls, key, text, message):
        with pytest.raises(ValueError, match=re.escape(f"cfg.txt: {message}")):
            config_from_kv(cls, {key: text}, "cfg.txt")

    @settings(max_examples=300, deadline=None)
    @given(st.sampled_from([TrainConfig, ToyNetConfig]),
           st.dictionaries(st.sampled_from([name for _, name in CONFIG_FIELDS]),
                           st.one_of(st.text(max_size=8),
                                     st.integers(-3, 300).map(str),
                                     st.floats().map(repr),
                                     st.sampled_from(["true", "no", "AMS", "FL",
                                                      "unit", "learned"]))))
    def test_any_text_parses_or_names_the_file(self, cls, kv):
        try:
            cfg = config_from_kv(cls, kv, "cfg.txt")
        except ValueError as e:
            assert str(e).startswith("cfg.txt: ")
        else:
            assert isinstance(cfg, cls)
