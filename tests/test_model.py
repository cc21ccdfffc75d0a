import re
import struct
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from ponodet import autodiff as ad
from ponodet.assignment import GroundTruth, assign_ao, pred_iou_values
from ponodet.loss import bce_logits, loc_loss_map, sigmoid
from ponodet.model import (FEAT_STRIDE, MAGIC, PredictorOutput, ToyNet, ToyNetConfig,
                           drawn_kernels, load_arrays, net_floats, save_arrays)

from test_anchors import build_grid
from test_assignment import stack_records
from test_autodiff import add, div, grad_check, mean, reduce_sum, zero_leaf


def leaves_of(params: dict) -> dict:
    """Each array of a name->array dict as a leaf on one new tape."""
    tape = ad.Tape()
    return {name: zero_leaf(a, tape) for name, a in params.items()}


class TabularPredictor:
    """Identity predictor: every output cell is an independent parameter.
    Its `cfg.input_size`, as a ToyNet's, is the image side whose stride-8
    cells its h_f rows are."""

    def __init__(self, h_f: int, w_f: int, n_classes: int, n_anchors: int):
        self.h_f, self.w_f = h_f, w_f
        self.cfg = SimpleNamespace(input_size=FEAT_STRIDE * h_f)
        self.n_classes, self.n_anchors = n_classes, n_anchors
        self.params = {
            "logits": np.zeros((h_f, w_f, n_classes, n_anchors)),
            "offsets": np.zeros((h_f, w_f, n_classes, n_anchors, 4)),
        }

    def forward(self, params, images=None) -> PredictorOutput:
        """The parameters themselves, with a leading axis of 1; `images`
        is ignored."""
        logits, offsets = params["logits"], params["offsets"]
        return PredictorOutput(logits=ad.reshape(logits, (1, *logits.shape)),
                               offsets=ad.reshape(offsets, (1, *offsets.shape)))

    def meta(self) -> dict:
        return {"model_kind": 0.0, "h_f": float(self.h_f), "w_f": float(self.w_f),
                "n_classes": float(self.n_classes), "n_anchors": float(self.n_anchors)}


class TestToyNetConfig:
    def test_divisibility_enforced(self):
        with pytest.raises(ValueError):
            ToyNetConfig(input_size=40, levels=3)  # needs a multiple of 32
        assert ToyNetConfig(input_size=64, levels=3).feat_size == 8

    @pytest.mark.parametrize("size", [0, -16])
    def test_input_size_positive(self, size):
        with pytest.raises(ValueError, match="input_size must be a positive multiple of 16"):
            ToyNetConfig(input_size=size)

    @pytest.mark.parametrize("levels", [3000, 10**11])
    def test_levels_bounded_by_input_size(self, levels):
        # before 2 ** (levels - 1) is built: 10**11 once filled memory
        with pytest.raises(ValueError, match=f"^levels = {levels} is too many for a 48px input$"):
            ToyNetConfig(input_size=48, levels=levels)

    def test_min_levels(self):
        with pytest.raises(ValueError):
            ToyNetConfig(input_size=64, levels=1)

    @pytest.mark.parametrize("key,value,message", [
        ("base_channels", 0, "base_channels must be >= 1"),
        ("head_convs", -1, "head_convs must be >= 0")])
    def test_layer_sizes_bounded(self, key, value, message):
        with pytest.raises(ValueError, match=message):
            ToyNetConfig(input_size=64, **{key: value})


class TestTabular:
    def test_zero_init_predictions(self):
        m = TabularPredictor(4, 4, 2, 3)
        out = m.forward(m.params)
        assert out.logits.shape == (1, 4, 4, 2, 3)
        assert out.offsets.shape == (1, 4, 4, 2, 3, 4)
        assert np.all(sigmoid(out.logits) == 0.5)
        assert np.all(out.offsets == 0.0)

    def test_forward_is_identity_on_params(self):
        m = TabularPredictor(2, 2, 1, 1)
        m.params["logits"][0, 0, 0, 0] = 3.0
        out = m.forward(m.params)
        assert out.logits[0, 0, 0, 0, 0] == 3.0


class TestToyNetLayers:
    def test_parameter_names_order_and_shapes(self):
        # the walk order fixes the kernel draws and the checkpoint order
        cfg = ToyNetConfig(input_size=32, base_channels=2, levels=2, head_convs=1)
        net = ToyNet(cfg, 1, 2, drawn_kernels(0))
        kernels = [("stem0", 3, 3, 2), ("stem1", 3, 2, 4), ("stem2", 3, 4, 8),
                   ("enc1", 3, 8, 16), ("dec1", 3, 16, 8), ("dec0", 3, 16, 4),
                   ("pyr0_0", 3, 4, 4), ("pyr1_0", 3, 8, 8), ("cls0", 3, 12, 8),
                   ("cls_out", 1, 8, 2), ("reg0", 3, 12, 8), ("reg_out", 1, 8, 8)]
        want = []
        for name, k, cin, cout in kernels:
            want += [(f"{name}.w", (k, k, cin, cout)), (f"{name}.b", (cout,))]
        assert [(name, p.shape) for name, p in net.params.items()] == want
        assert np.all(net.params["cls_out.b"] == -2.0)
        assert np.all(net.params["reg_out.b"] == 0.0)

    def test_init_runs_no_conv(self, monkeypatch):
        # building the network draws kernels only; a forward or a conv call
        # there would be counted by a tracer wrapping either
        def fail(*args, **kwargs):
            raise AssertionError("called at init")

        monkeypatch.setattr(ad, "conv2d", fail)
        monkeypatch.setattr(ToyNet, "forward", fail)
        ToyNet(ToyNetConfig(input_size=64, base_channels=3, levels=3), 2, 2,
               drawn_kernels(0))

    def test_walk_stand_ins_hold_no_pixels(self):
        # a stand-in stack of one 2**20 px scene would take 26 TB
        cfg = ToyNetConfig(input_size=2 ** 20, base_channels=1, levels=2, head_convs=0)
        net = ToyNet(cfg, 1, 1, drawn_kernels(0))
        assert net.params["stem0.w"].shape == (3, 3, 3, 1)

    @pytest.mark.parametrize("input_size,base_channels,levels,head_convs,nc,na", [
        (32, 2, 2, 1, 1, 2), (32, 1, 2, 0, 2, 3), (48, 4, 2, 2, 2, 2),
        (64, 3, 3, 0, 1, 1), (64, 5, 3, 3, 3, 2), (128, 2, 4, 2, 2, 5),
        # sized from walks at smaller head_convs, base_channels or both
        (48, 2, 2, 4, 2, 2), (64, 3, 3, 6, 1, 3), (32, 9, 2, 0, 2, 2), (64, 12, 3, 5, 2, 3)])
    def test_closed_form_sizes_match_the_walk(self, input_size, base_channels, levels,
                                              head_convs, nc, na):
        # the kernel and bias floats the walk builds, and per image each
        # conv's patch matrix [h_out * w_out, k * k * cin] and output
        cfg = ToyNetConfig(input_size=input_size, base_channels=base_channels,
                           levels=levels, head_convs=head_convs)
        net = ToyNet(cfg, nc, na, drawn_kernels(0))
        acts = []

        def conv(name, x, cout, stride=1, k=3, act=True, bias=0.0):
            side = (x.shape[1] - 1) // stride + 1
            acts.append(side * side * (k * k * x.shape[3] + cout))
            return np.empty((1, side, side, cout))

        net._walk(conv, np.empty((1, input_size, input_size, 3)))
        assert net_floats(cfg, nc, na) == (sum(p.size for p in net.params.values()),
                                           sum(acts))

    def test_meta_lists_the_config_fields(self):
        cfg = ToyNetConfig(input_size=64, base_channels=3, levels=3, head_convs=0)
        assert ToyNet(cfg, 2, 5, drawn_kernels(0)).meta() == {
            "model_kind": 1.0, "input_size": 64.0, "base_channels": 3.0,
            "levels": 3.0, "head_convs": 0.0, "n_classes": 2.0, "n_anchors": 5.0}


class TestToyNetForward:
    def test_output_shapes(self):
        cfg = ToyNetConfig(input_size=32, base_channels=4, levels=2, head_convs=1)
        net = ToyNet(cfg, 2, 3, drawn_kernels(0))
        out = net.forward(net.params, np.zeros((2, 32, 32, 3)))
        assert out.logits.shape == (2, 4, 4, 2, 3)
        assert out.offsets.shape == (2, 4, 4, 2, 3, 4)

    def test_input_size_checked(self):
        cfg = ToyNetConfig(input_size=32, base_channels=4, levels=2, head_convs=1)
        net = ToyNet(cfg, 1, 1, drawn_kernels(0))
        with pytest.raises(ValueError):
            net.forward(net.params, np.zeros((1, 16, 16, 3)))
        with pytest.raises(ValueError, match="image stack"):
            net.forward(net.params, np.zeros((32, 32, 3)))

    @pytest.mark.parametrize("dtype", [np.uint8, np.float32, np.int64])
    def test_refuses_an_image_stack_that_is_not_float64(self, dtype):
        # an unconverted 8-bit stack would otherwise run as values 0..255
        cfg = ToyNetConfig(input_size=32, base_channels=4, levels=2, head_convs=1)
        net = ToyNet(cfg, 1, 1, drawn_kernels(0))
        images = np.zeros((1, 32, 32, 3), dtype=dtype)
        for params in (net.params, leaves_of(net.params)):
            with pytest.raises(ValueError, match=f"float64 image stack, got {np.dtype(dtype)}"):
                net.forward(params, images)

    def test_zero_weights_give_constant_logits(self):
        cfg = ToyNetConfig(input_size=32, base_channels=4, levels=2, head_convs=1)
        net = ToyNet(cfg, 2, 2, drawn_kernels(1))
        zeroed = {k: np.zeros_like(v) for k, v in net.params.items()}
        out = net.forward(zeroed, np.random.default_rng(0).uniform(0, 1, (2, 32, 32, 3)))
        assert np.ptp(out.logits) == 0.0
        assert np.ptp(out.offsets) == 0.0

    def test_deterministic_init(self):
        cfg = ToyNetConfig(input_size=32, base_channels=4, levels=2, head_convs=1)
        a = ToyNet(cfg, 2, 2, drawn_kernels(7))
        b = ToyNet(cfg, 2, 2, drawn_kernels(7))
        for k in a.params:
            np.testing.assert_array_equal(a.params[k], b.params[k])

    @pytest.mark.parametrize("taped", [False, True])
    def test_stack_forward_matches_per_scene_forwards(self, taped):
        cfg = ToyNetConfig(input_size=32, base_channels=4, levels=2, head_convs=2)
        net = ToyNet(cfg, 2, 3, drawn_kernels(4))
        images = np.random.default_rng(6).uniform(0, 1, (3, 32, 32, 3))

        def forward(stack):
            params = leaves_of(net.params) if taped else net.params
            out = net.forward(params, stack)
            return ad.values_of(out.logits), ad.values_of(out.offsets)

        logits, offsets = forward(images)
        for k in range(len(images)):
            one_logits, one_offsets = forward(images[k:k + 1])
            np.testing.assert_allclose(logits[k], one_logits[0], rtol=1e-12, atol=1e-13)
            np.testing.assert_allclose(offsets[k], one_offsets[0], rtol=1e-12, atol=1e-13)

    def test_translation_covariance_interior(self):
        # shifting the input by the coarsest pyramid stride shifts the
        # stride-8 output by the matching number of cells on interior cells
        cfg = ToyNetConfig(input_size=256, base_channels=2, levels=2, head_convs=1)
        net = ToyNet(cfg, 1, 1, drawn_kernels(3))
        rng = np.random.default_rng(5)
        img = rng.uniform(0, 1, (256, 256, 3))
        shift = 16  # stride of the coarsest level; 2 cells at stride 8
        shifted = np.zeros_like(img)
        shifted[:, shift:, :] = img[:, :-shift, :]
        out_a, out_b = net.forward(net.params, np.stack([img, shifted])).logits[..., 0, 0]
        cells = shift // 8
        m = 14  # interior margin (cells) larger than the receptive field
        np.testing.assert_allclose(out_b[m:-m, m + cells:-m],
                                   out_a[m:-m, m:-m - cells], atol=1e-10)


class TestToyNetGradients:
    @pytest.mark.slow
    def test_full_gradcheck_on_small_scene(self):
        cfg = ToyNetConfig(input_size=32, base_channels=2, levels=2, head_convs=1)
        net = ToyNet(cfg, 1, 1, drawn_kernels(11))
        rng = np.random.default_rng(2)
        image = rng.uniform(0, 1, (32, 32, 3))
        grid = build_grid(np.full((1, 1, 2), 10.0), 4, 4, 8)
        gt = GroundTruth(boxes=[(12.5, 11.0, 11.0, 9.0)], class_ids=[0])
        stacked = stack_records([assign_ao(grid, gt)])
        gate = (stacked.pono > 0.5).astype(float)
        labels = gate.copy()
        names = sorted(net.params)

        def total_loss(*tensors):
            params = dict(zip(names, tensors))
            out = net.forward(params, image[None])
            o_hat = pred_iou_values(grid, out.offsets, stacked)
            loc = div(reduce_sum(loc_loss_map(gate, o_hat)), max(1.0, gate.sum()))
            cls = mean(bce_logits(labels, out.logits))
            return add(loc, cls)

        err = grad_check(total_loss, [net.params[n] for n in names], step=1e-4)
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

    def test_non_utf8_entry_name_rejected(self, tmp_path):
        path = tmp_path / "foreign.bin"
        path.write_bytes(MAGIC + b"\x01\x00\x00\x00" + b"\x02\x00\xff\xfe" + b"\x00" + bytes(8))
        with pytest.raises(ValueError, match=re.escape(f"{path}: entry name is not UTF-8")):
            load_arrays(path)

    def test_repeated_entry_name_rejected(self, tmp_path):
        # two one-value entries named "a"; the later one must not win
        header = struct.pack("<H", 1) + b"a" + struct.pack("<Bq", 1, 1)
        path = tmp_path / "twice.bin"
        path.write_bytes(MAGIC + struct.pack("<I", 2) + header * 2
                         + struct.pack("<2d", 1.0, 2.0))
        with pytest.raises(ValueError, match=re.escape(f"{path}: entry 'a' is given twice")):
            load_arrays(path)

    def test_bytes_deterministic(self, tmp_path):
        arrays = {"x": np.linspace(0, 1, 10).reshape(2, 5)}
        save_arrays(tmp_path / "a.bin", arrays)
        save_arrays(tmp_path / "b.bin", arrays)
        assert (tmp_path / "a.bin").read_bytes() == (tmp_path / "b.bin").read_bytes()

    def test_failed_write_keeps_previous_file(self, tmp_path):
        path = tmp_path / "ckpt.bin"
        save_arrays(path, {"x": np.arange(3.0)})
        before = path.read_bytes()
        with pytest.raises(ValueError):
            save_arrays(path, {"x": np.ones(2), "y": "not a number"})
        assert path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["ckpt.bin"]

    @settings(max_examples=15, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(st.dictionaries(st.text("abc.", min_size=1, max_size=4),
                           st.lists(st.integers(0, 3), max_size=3),
                           min_size=1, max_size=3))
    def test_every_truncation_rejected_naming_the_file(self, tmp_path, shapes):
        path = tmp_path / "ckpt.bin"
        save_arrays(path, {name: np.ones(shape) for name, shape in shapes.items()})
        blob = path.read_bytes()
        for cut in range(len(blob)):
            path.write_bytes(blob[:cut])
            with pytest.raises(ValueError, match=re.escape(str(path))):
                load_arrays(path)
        path.write_bytes(blob + b"\0")
        with pytest.raises(ValueError, match="1 bytes after the last entry"):
            load_arrays(path)
