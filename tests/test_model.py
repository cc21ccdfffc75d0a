import numpy as np
import pytest

from ponodet import autodiff as ad
from ponodet.anchors import AnchorSet, build_grid
from ponodet.assignment import GroundTruth, assign_ao, pred_iou_values
from ponodet.geometry import Box
from ponodet.loss import bce_logits, loc_loss_map
from ponodet.model import (TabularPredictor, ToyNet, ToyNetConfig,
                           leaf_params, load_arrays, save_arrays)


class TestToyNetConfig:
    def test_divisibility_enforced(self):
        with pytest.raises(ValueError):
            ToyNetConfig(input_size=40, levels=3)  # needs a multiple of 32
        assert ToyNetConfig(input_size=64, levels=3).feat_size == 8

    def test_min_levels(self):
        with pytest.raises(ValueError):
            ToyNetConfig(input_size=64, levels=1)


class TestTabular:
    def test_zero_init_predictions(self):
        m = TabularPredictor(4, 4, 2, 3)
        out = m.forward(m.params)
        assert np.all(ad.sigmoid(out.logits) == 0.5)
        assert np.all(out.offsets == 0.0)

    def test_forward_is_identity_on_params(self):
        m = TabularPredictor(2, 2, 1, 1)
        m.params["logits"][0, 0, 0, 0] = 3.0
        out = m.forward(m.params)
        assert out.logits[0, 0, 0, 0] == 3.0


class TestToyNetForward:
    def test_output_shapes(self):
        cfg = ToyNetConfig(input_size=32, base_channels=4, levels=2, head_convs=1)
        net = ToyNet(cfg, n_classes=2, n_anchors=3, seed=0)
        out = net.forward(net.params, np.zeros((32, 32, 3)))
        assert out.logits.shape == (4, 4, 2, 3)
        assert out.offsets.shape == (4, 4, 2, 3, 4)

    def test_input_size_checked(self):
        cfg = ToyNetConfig(input_size=32, base_channels=4, levels=2, head_convs=1)
        net = ToyNet(cfg, 1, 1, seed=0)
        with pytest.raises(ValueError):
            net.forward(net.params, np.zeros((16, 16, 3)))

    def test_zero_weights_give_constant_logits(self):
        cfg = ToyNetConfig(input_size=32, base_channels=4, levels=2, head_convs=1)
        net = ToyNet(cfg, 2, 2, seed=1)
        zeroed = {k: np.zeros_like(v) for k, v in net.params.items()}
        out = net.forward(zeroed, np.random.default_rng(0).uniform(0, 1, (32, 32, 3)))
        assert np.ptp(out.logits) == 0.0
        assert np.ptp(out.offsets) == 0.0

    def test_deterministic_init(self):
        cfg = ToyNetConfig(input_size=32, base_channels=4, levels=2, head_convs=1)
        a = ToyNet(cfg, 2, 2, seed=7)
        b = ToyNet(cfg, 2, 2, seed=7)
        for k in a.params:
            np.testing.assert_array_equal(a.params[k], b.params[k])

    def test_translation_covariance_interior(self):
        # shifting the input by the coarsest pyramid stride shifts the
        # stride-8 output by the matching number of cells on interior cells
        cfg = ToyNetConfig(input_size=256, base_channels=2, levels=2, head_convs=1)
        net = ToyNet(cfg, 1, 1, seed=3)
        rng = np.random.default_rng(5)
        img = rng.uniform(0, 1, (256, 256, 3))
        shift = 16  # stride of the coarsest level; 2 cells at stride 8
        shifted = np.zeros_like(img)
        shifted[:, shift:, :] = img[:, :-shift, :]
        out_a = net.forward(net.params, img).logits[:, :, 0, 0]
        out_b = net.forward(net.params, shifted).logits[:, :, 0, 0]
        cells = shift // 8
        m = 14  # interior margin (cells) larger than the receptive field
        np.testing.assert_allclose(out_b[m:-m, m + cells:-m],
                                   out_a[m:-m, m:-m - cells], atol=1e-10)


class TestToyNetGradients:
    @pytest.mark.slow
    def test_full_gradcheck_on_small_scene(self):
        cfg = ToyNetConfig(input_size=32, base_channels=2, levels=2, head_convs=1)
        net = ToyNet(cfg, 1, 1, seed=11)
        rng = np.random.default_rng(2)
        image = rng.uniform(0, 1, (32, 32, 3))
        grid = build_grid(AnchorSet(np.full((1, 1, 2), 10.0)), 4, 4, 8)
        gt = GroundTruth(boxes=[Box(12.5, 11.0, 11.0, 9.0)], class_ids=[0])
        am = assign_ao(grid, gt)
        gate = (am.pono > 0.5).astype(float)
        labels = gate.copy()
        names = sorted(net.params)

        def total_loss(*tensors):
            params = dict(zip(names, tensors))
            out = net.forward(params, image)
            o_hat = pred_iou_values(grid, out.offsets, am)
            loc = loc_loss_map(gate, o_hat).sum() / max(1.0, gate.sum())
            cls = bce_logits(labels, out.logits).mean()
            return loc + cls

        err = ad.grad_check(total_loss, [net.params[n] for n in names], step=1e-4)
        assert err < 1e-3


class TestCheckpointFormat:
    def test_roundtrip(self, tmp_path):
        rng = np.random.default_rng(0)
        arrays = {
            "a.w": rng.normal(size=(3, 3, 2, 4)),
            "scalar": np.asarray(3.75),
            "b": rng.normal(size=7),
        }
        path = tmp_path / "ckpt.bin"
        save_arrays(path, arrays)
        loaded = load_arrays(path)
        assert set(loaded) == set(arrays)
        for k in arrays:
            np.testing.assert_array_equal(loaded[k], np.asarray(arrays[k], float))

    def test_rejects_foreign_file(self, tmp_path):
        path = tmp_path / "junk.bin"
        path.write_bytes(b"NOTACKPT" + b"\x00" * 16)
        with pytest.raises(ValueError):
            load_arrays(path)

    def test_bytes_deterministic(self, tmp_path):
        arrays = {"x": np.linspace(0, 1, 10).reshape(2, 5)}
        save_arrays(tmp_path / "a.bin", arrays)
        save_arrays(tmp_path / "b.bin", arrays)
        assert (tmp_path / "a.bin").read_bytes() == (tmp_path / "b.bin").read_bytes()
