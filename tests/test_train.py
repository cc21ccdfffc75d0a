import math
import os

import numpy as np
import pytest

from ponodet.anchors import AnchorSet, build_grid
from ponodet.assignment import GroundTruth
from ponodet.data import GenSpec, Scene, generate
from ponodet.geometry import Box
from ponodet.loss import BalanceWeights
from ponodet.model import TabularPredictor, ToyNet, ToyNetConfig
from ponodet.train import (RunState, TrainConfig, load_run, lr_at,
                           run_training, save_run, sgd_step, train_iteration,
                           train_config_from_kv)


def one_object_scene(image_size=32):
    img = np.zeros((image_size, image_size, 3))
    gt = GroundTruth(boxes=[Box(13.0, 14.0, 10.0, 9.0)], class_ids=[0])
    return Scene(img, gt)


def tabular_state(scene, shapes=((8.0, 8.0),), stride=8):
    size = scene.image.shape[0]
    f = size // stride
    aset = AnchorSet(np.asarray([list(shapes)], float))
    grid = build_grid(aset, f, f, stride)
    model = TabularPredictor(f, f, 1, len(shapes))
    return RunState(model=model, grid=grid, bw=BalanceWeights.initial(1, len(shapes)))


class TestLrSchedule:
    def test_endpoints(self):
        cfg = TrainConfig(lr0=0.005, max_iter=100)
        assert lr_at(0, cfg) == 0.005
        assert lr_at(100, cfg) == 0.0

    def test_midpoint(self):
        cfg = TrainConfig(lr0=0.005, poly_power=0.9, max_iter=100)
        assert lr_at(50, cfg) == pytest.approx(0.005 * 0.5 ** 0.9, rel=1e-12)
        assert lr_at(50, cfg) == pytest.approx(0.002679, abs=2e-6)


class TestSgdStep:
    def test_plain_gradient_descent(self):
        p = {"x": np.array([1.0, 2.0])}
        v = {}
        sgd_step(p, v, {"x": np.array([0.5, -1.0])}, lr=0.1, momentum=0.0)
        np.testing.assert_allclose(p["x"], [0.95, 2.1])

    def test_zero_gradients_decay_buffers(self):
        p = {"x": np.array([1.0])}
        v = {"x": np.array([2.0])}
        sgd_step(p, v, {}, lr=0.1, momentum=0.9)
        np.testing.assert_allclose(v["x"], [1.8])
        np.testing.assert_allclose(p["x"], [1.0 - 0.18])

    def test_quadratic_bowl_convergence(self):
        p = {"x": np.array(0.0)}
        v = {}
        for _ in range(500):
            g = 2.0 * (p["x"] - 3.0)
            sgd_step(p, v, {"x": g}, lr=0.1, momentum=0.9)
        assert abs(float(p["x"]) - 3.0) < 1e-6


class TestTrainIteration:
    def test_zero_lr_reports_stable(self):
        scene = one_object_scene()
        state = tabular_state(scene)
        cfg = TrainConfig(lr0=0.0, max_iter=10, mode="learned")
        first = train_iteration(state, [scene], cfg)
        for _ in range(3):
            rep = train_iteration(state, [scene], cfg)
        assert rep.total == first.total
        assert rep.loc == first.loc and rep.cls == first.cls

    def test_tabular_single_object_converges(self):
        # unit mode so the reported loc is the plain positive-normalized
        # residual; offsets on gated cells fit the object and the loss
        # decays toward zero (smoothed, after warmup)
        scene = one_object_scene()
        state = tabular_state(scene, shapes=((8.0, 8.0), (12.0, 12.0)))
        cfg = TrainConfig(lr0=0.05, max_iter=400, mode="unit", flip=False)
        reports = run_training(state, [scene], cfg)
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
        cfg = TrainConfig(lr0=0.05, max_iter=400, mode="unit", flip=False)
        run_training(state, [scene], cfg)
        from ponodet.assignment import assign_ao, pred_iou_values
        am = assign_ao(state.grid, scene.gt)
        o_hat = pred_iou_values(state.grid, state.model.params["offsets"], am)
        best = np.unravel_index(np.argmax(am.pono), am.pono.shape)
        assert o_hat[best] > 0.999
        assert am.pono[best] * o_hat[best] > 0.5

    def test_torn_cell_never_labeled_positive(self):
        # two disjoint same-class objects share a middle anchor; its
        # normalized overlap stays at or below the gate so the product
        # rule keeps it negative for the entire run
        img = np.zeros((32, 32, 3))
        gt = GroundTruth(boxes=[Box(6.0, 12.0, 11.0, 11.0),
                                Box(18.0, 12.0, 11.0, 11.0)],
                         class_ids=[0, 0])
        scene = Scene(img, gt)
        state = tabular_state(scene, shapes=((11.0, 11.0),))
        from ponodet.assignment import ams_labels, assign_ao, pred_iou_values
        am = assign_ao(state.grid, scene.gt)
        torn = (1, 1, 0, 0)  # cell centered at (12, 12), overlapping both
        assert 0.0 < am.pono[torn] <= 0.5
        cfg = TrainConfig(lr0=0.05, max_iter=150, mode="learned", flip=False)
        run_training(state, [scene], cfg)
        o_hat = pred_iou_values(state.grid, state.model.params["offsets"], am)
        assert ams_labels(am.pono, o_hat)[torn] == 0

    def test_report_total_decomposition(self):
        scene = one_object_scene()
        state = tabular_state(scene)
        rep = train_iteration(state, [scene], TrainConfig(max_iter=5))
        assert rep.total == rep.loc + rep.cls + rep.reg

    def test_unit_mode_trains_without_weight_updates(self):
        scene = one_object_scene()
        state = tabular_state(scene)
        s0 = state.bw.s_cls_grid.copy()
        cfg = TrainConfig(lr0=0.05, max_iter=5, mode="unit")
        for _ in range(5):
            train_iteration(state, [scene], cfg)
        np.testing.assert_array_equal(state.bw.s_cls_grid, s0)
        assert state.bw.s_cls == 1.0


class TestSceneCache:
    def crowded_scene(self):
        img = np.zeros((32, 32, 3))
        gt = GroundTruth(boxes=[Box(10.0, 10.0, 12.0, 10.0), Box(17.0, 12.0, 12.0, 10.0),
                                Box(22.0, 24.0, 9.0, 14.0)], class_ids=[0, 0, 0])
        return Scene(img, gt)

    def test_gate_follows_the_rule_on_a_reused_state(self):
        # the loc gate and n_pos come from the current config, never from
        # an entry cached under another label rule
        scene = self.crowded_scene()
        shapes = ((8.0, 8.0), (14.0, 12.0))
        pono = TrainConfig(lr0=0.0, max_iter=5, label_rule="PONO")
        ao = TrainConfig(lr0=0.0, max_iter=5, label_rule="AO", ao_threshold=0.3)
        reused = tabular_state(scene, shapes=shapes)
        n_pono = train_iteration(reused, [scene], pono).n_pos
        n_ao = train_iteration(reused, [scene], ao).n_pos
        fresh = tabular_state(scene, shapes=shapes)
        assert n_ao == train_iteration(fresh, [scene], ao).n_pos
        assert n_ao != n_pono

    def test_new_scene_at_a_collected_scene_id_is_a_miss(self):
        # scenes die between direct train_iteration calls and CPython hands
        # their ids to new scenes; each new scene must get its own gate
        cfg = TrainConfig(lr0=0.0, max_iter=5, label_rule="PONO")
        img = np.zeros((32, 32, 3))
        reused = tabular_state(one_object_scene())
        for k in (1, 2, 3, 1, 3, 2):
            scene = Scene(img, GroundTruth(
                [Box(6.0 + 8 * j, 6.0, 8.0, 8.0) for j in range(k)], [0] * k))
            n_pos = train_iteration(reused, [scene], cfg).n_pos
            assert n_pos == train_iteration(tabular_state(scene), [scene], cfg).n_pos
            del scene

    def test_run_training_keeps_no_entries(self):
        scene = self.crowded_scene()
        state = tabular_state(scene)
        run_training(state, [scene], TrainConfig(max_iter=3, flip=False))
        assert state._scene_cache == {}


class TestFreezeRule:
    def test_absent_class_weights_bit_equal(self):
        # class 1 never occurs: its grid weights must stay exactly at init
        img = np.zeros((32, 32, 3))
        scene = Scene(img, GroundTruth([Box(12, 12, 10, 10)], [0]))
        aset = AnchorSet(np.full((2, 2, 2), 9.0))
        grid = build_grid(aset, 4, 4, 8)
        model = TabularPredictor(4, 4, 2, 2)
        state = RunState(model=model, grid=grid, bw=BalanceWeights.initial(2, 2))
        cfg = TrainConfig(lr0=0.05, max_iter=60, mode="learned", flip=False)
        run_training(state, [scene], cfg)
        assert np.all(state.bw.s_cls_grid[1] == 1.0)
        assert np.all(state.bw.s_loc_grid[1] == 1.0)
        # the trained class moved
        assert np.any(state.bw.s_cls_grid[0] != 1.0)


class TestDeterminismAndResume:
    def make_setup(self, tmp_path, max_iter=12):
        spec = GenSpec(n_classes=1, class_freq=(1.0,),
                       size_ranges=((8.0, 14.0),), objects_per_scene=(1, 2),
                       crowding=0.0, seed=3, image_size=32)
        scenes = generate(spec, 6)
        aset = AnchorSet(np.full((1, 2, 2), [8.0, 12.0]))
        grid = build_grid(aset, 4, 4, 8)
        cfg = TrainConfig(lr0=0.01, max_iter=max_iter, batch_size=2, seed=5,
                          mode="learned")
        net = ToyNet(ToyNetConfig(input_size=32, base_channels=2, levels=2,
                                  head_convs=1), 1, 2, seed=cfg.seed)
        state = RunState(model=net, grid=grid, bw=BalanceWeights.initial(1, 2))
        return scenes, cfg, state

    def test_seeded_rerun_identical_reports(self, tmp_path):
        scenes, cfg, state_a = self.make_setup(tmp_path)
        _, _, state_b = self.make_setup(tmp_path)
        ra = run_training(state_a, scenes, cfg)
        rb = run_training(state_b, scenes, cfg)
        assert [r.total for r in ra] == [r.total for r in rb]
        for k in state_a.model.params:
            np.testing.assert_array_equal(state_a.model.params[k],
                                          state_b.model.params[k])

    def test_checkpoint_resume_bit_exact(self, tmp_path):
        # a mid-run checkpoint must restore the remaining iterations
        # bit-for-bit (same lr schedule, momentum buffers, batch draws)
        from dataclasses import replace
        scenes, cfg, state = self.make_setup(tmp_path)
        cfg = replace(cfg, checkpoint_every=6)
        straight = run_training(state, scenes, cfg, checkpoint_dir=tmp_path)

        resumed_state = load_run(tmp_path / "ckpt_000006.bin")
        assert resumed_state.iteration == 6
        rest = run_training(resumed_state, scenes, cfg)

        assert [r.total for r in rest] == [r.total for r in straight[6:]]
        for k in state.model.params:
            np.testing.assert_array_equal(resumed_state.model.params[k],
                                          state.model.params[k])
        np.testing.assert_array_equal(resumed_state.bw.s_loc_grid,
                                      state.bw.s_loc_grid)

    def test_log_rows_deterministic(self, tmp_path):
        scenes, cfg, state = self.make_setup(tmp_path, max_iter=5)
        run_training(state, scenes, cfg, log_path=tmp_path / "a.csv")
        scenes, cfg, state = self.make_setup(tmp_path, max_iter=5)
        run_training(state, scenes, cfg, log_path=tmp_path / "b.csv")
        assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()


class TestConfigParsing:
    def test_defaults_and_overrides(self):
        cfg = train_config_from_kv({"max_iter": "50", "mode": "unit",
                                    "flip": "false"})
        assert cfg.max_iter == 50 and cfg.mode == "unit" and cfg.flip is False
        assert cfg.lr0 == 0.005 and cfg.momentum == 0.9 and cfg.poly_power == 0.9

    def test_empty_kv_gives_defaults(self):
        assert train_config_from_kv({}) == TrainConfig()

    def test_every_field_round_trips(self):
        from dataclasses import fields
        cfg = TrainConfig(lr0=0.02, momentum=0.5, poly_power=1.5, max_iter=7,
                          batch_size=3, mode="unit", label_rule="AO",
                          cls_loss="FL", seed=42, ao_threshold=0.4, flip=False,
                          checkpoint_every=2)
        kv = {f.name: str(getattr(cfg, f.name)) for f in fields(TrainConfig)}
        assert all(getattr(cfg, f.name) != f.default for f in fields(TrainConfig))
        assert train_config_from_kv(kv) == cfg

    def test_validation(self):
        with pytest.raises(ValueError):
            TrainConfig(momentum=1.0)
        with pytest.raises(ValueError):
            TrainConfig(label_rule="NOPE")
        with pytest.raises(ValueError):
            TrainConfig(cls_loss="hinge")
