"""Differentiable predictors emitting per-anchor score logits and offsets.

Two predictors share one interface:

* ``TabularPredictor`` -- the outputs are themselves the parameters, one
  free value per cell.  It isolates the loss dynamics from representation
  learning and is tied to a single fixed scene.
* ``ToyNet`` -- a small encoder-decoder convnet with skip connections.
  Every pyramid level is processed by a small conv stack, resized to the
  stride-8 map, concatenated, and read by a classification head and an
  offset regression head.

Both return outputs with a leading scene axis: ToyNet runs a whole image
stack [N, H, W, 3] through one forward (each conv, bias and leaky ReLU is
one ``conv2d`` call and one tape record), and the tabular predictor's
outputs carry an axis of 1.  Parameters are plain float64 arrays in a
name->array dict; each training iteration wraps them as leaves on a fresh
tape.  Passing the raw arrays runs the same forward in pure numpy for
inference.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .data import atomic_open

FEAT_STRIDE = 8

# initial classification-head bias; keeps early scores ~0.12 instead of 0.5
CLS_BIAS_INIT = -2.0

LEAK = 0.1


@dataclass
class PredictorOutput:
    """logits [N, h, w, nc, na] and offsets [N, h, w, nc, na, 4]."""

    logits: object
    offsets: object


@dataclass(frozen=True)
class ToyNetConfig:
    """Sizing of the toy network; output stride is fixed at 8."""

    input_size: int = 64
    base_channels: int = 8
    levels: int = 3
    head_convs: int = 2

    def __post_init__(self):
        if self.levels < 2:
            raise ValueError("levels must be >= 2")
        need = FEAT_STRIDE * 2 ** (self.levels - 1)
        if self.input_size % need:
            raise ValueError(
                f"input_size must be a multiple of {need} for {self.levels} levels")

    @property
    def feat_size(self) -> int:
        return self.input_size // FEAT_STRIDE


class TabularPredictor:
    """Identity predictor: every output cell is an independent parameter."""

    def __init__(self, h_f: int, w_f: int, n_classes: int, n_anchors: int):
        self.h_f, self.w_f = h_f, w_f
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


class ToyNet:
    """Encoder-decoder detector with multi-scale concatenation at stride 8."""

    def __init__(self, cfg: ToyNetConfig, n_classes: int, n_anchors: int,
                 seed: int = 0):
        self.cfg = cfg
        self.n_classes, self.n_anchors = n_classes, n_anchors
        self.params: dict[str, np.ndarray] = {}
        rng = np.random.default_rng([seed, 1])
        c = cfg.base_channels

        def conv(name, cin, cout, k=3, bias=0.0):
            limit = np.sqrt(3.0 / (k * k * cin))
            self.params[f"{name}.w"] = rng.uniform(-limit, limit, (k, k, cin, cout))
            self.params[f"{name}.b"] = np.full(cout, bias, dtype=np.float64)
            return cout

        # encoder: three stride-2 convs to /8, then one per extra level
        enc_ch = [conv("stem0", 3, c)]
        enc_ch[0] = conv("stem1", enc_ch[0], 2 * c)
        enc_ch[0] = conv("stem2", enc_ch[0], 4 * c)
        for k in range(1, cfg.levels):
            enc_ch.append(conv(f"enc{k}", enc_ch[k - 1], enc_ch[k - 1] * 2))
        # decoder with skip concatenation, halved channels
        dec_ch = [0] * cfg.levels
        top = cfg.levels - 1
        dec_ch[top] = conv(f"dec{top}", enc_ch[top], max(enc_ch[top] // 2, 2))
        for k in range(top - 1, -1, -1):
            dec_ch[k] = conv(f"dec{k}", dec_ch[k + 1] + enc_ch[k],
                             max(enc_ch[k] // 2, 2))
        for k in range(cfg.levels):
            for i in range(cfg.head_convs):
                conv(f"pyr{k}_{i}", dec_ch[k], dec_ch[k])
        cat_ch = sum(dec_ch)
        head_ch = max(2 * c, 8)
        for prefix, cout, bias in (("cls", n_classes * n_anchors, CLS_BIAS_INIT),
                                   ("reg", n_classes * n_anchors * 4, 0.0)):
            ch = cat_ch
            for i in range(cfg.head_convs):
                ch = conv(f"{prefix}{i}", ch, head_ch)
            conv(f"{prefix}_out", ch, cout, k=1, bias=bias)

    def forward(self, params, images) -> PredictorOutput:
        """Predictions for an image stack [N, input_size, input_size, 3]."""
        cfg = self.cfg
        shape = ad.values_of(images).shape
        if len(shape) != 4 or shape[1:3] != (cfg.input_size, cfg.input_size):
            raise ValueError(f"expected an [N, {cfg.input_size}, {cfg.input_size}, C] "
                             f"image stack, got shape {shape}")

        def conv(name, x, stride=1, act=True):
            w, b = params[f"{name}.w"], params[f"{name}.b"]
            pad = 0 if ad.values_of(w).shape[0] == 1 else 1
            return ad.conv2d(x, w, b, stride=stride, pad=pad,
                             leak=LEAK if act else None)

        x = conv("stem0", images, stride=2)
        x = conv("stem1", x, stride=2)
        x = conv("stem2", x, stride=2)
        enc = [x]
        for k in range(1, cfg.levels):
            enc.append(conv(f"enc{k}", enc[-1], stride=2))

        top = cfg.levels - 1
        dec = [None] * cfg.levels
        dec[top] = conv(f"dec{top}", enc[top])
        for k in range(top - 1, -1, -1):
            dec[k] = conv(f"dec{k}", ad.concat([ad.upsample2(dec[k + 1]), enc[k]], axis=-1))

        pyramids = []
        for k in range(cfg.levels):
            h = dec[k]
            for i in range(cfg.head_convs):
                h = conv(f"pyr{k}_{i}", h)
            for _ in range(k):
                h = ad.upsample2(h)
            pyramids.append(h)
        trunk = ad.concat(pyramids, axis=-1)

        heads = {}
        for prefix in ("cls", "reg"):
            h = trunk
            for i in range(cfg.head_convs):
                h = conv(f"{prefix}{i}", h)
            heads[prefix] = conv(f"{prefix}_out", h, act=False)

        n, s = shape[0], cfg.feat_size
        logits = ad.reshape(heads["cls"], (n, s, s, self.n_classes, self.n_anchors))
        offsets = ad.reshape(heads["reg"], (n, s, s, self.n_classes, self.n_anchors, 4))
        return PredictorOutput(logits=logits, offsets=offsets)

    def meta(self) -> dict:
        return {"model_kind": 1.0, "input_size": float(self.cfg.input_size),
                "base_channels": float(self.cfg.base_channels),
                "levels": float(self.cfg.levels),
                "head_convs": float(self.cfg.head_convs),
                "n_classes": float(self.n_classes),
                "n_anchors": float(self.n_anchors)}


def leaf_params(params: dict[str, np.ndarray], tape: ad.Tape) -> dict[str, ad.Tensor]:
    return {name: ad.leaf(arr, tape) for name, arr in params.items()}


# ---------------------------------------------------------------------
# flat binary checkpoint format
#
#   magic   8 bytes  b"PONODET1"
#   count   uint32 LE
#   per entry: name_len uint16 LE, name utf-8, ndim uint8,
#              dims int64 LE each
#   data    float64 LE arrays back to back, entry order
# ---------------------------------------------------------------------

MAGIC = b"PONODET1"


def save_arrays(path, arrays: dict[str, np.ndarray]) -> None:
    names = list(arrays.keys())
    with atomic_open(path, "wb") as f:
        f.write(MAGIC)
        f.write(struct.pack("<I", len(names)))
        for name in names:
            arr = np.asarray(arrays[name], dtype=np.float64)
            enc = name.encode()
            f.write(struct.pack("<H", len(enc)))
            f.write(enc)
            f.write(struct.pack("<B", arr.ndim))
            for d in arr.shape:
                f.write(struct.pack("<q", d))
        for name in names:
            arr = np.ascontiguousarray(np.asarray(arrays[name], dtype=np.float64))
            f.write(arr.astype("<f8").tobytes())


def load_arrays(path) -> dict[str, np.ndarray]:
    """Read a `save_arrays` file; a foreign, truncated or overlong file
    raises ValueError naming the path and the fault."""
    with open(path, "rb") as f:
        blob = f.read()
    if blob[:8] != MAGIC:
        raise ValueError(f"{path}: not a checkpoint file")
    pos = 8

    def take(n: int) -> bytes:
        nonlocal pos
        if pos + n > len(blob):
            raise ValueError(f"{path}: checkpoint truncated at {len(blob)} bytes")
        pos += n
        return blob[pos - n:pos]

    (count,) = struct.unpack("<I", take(4))
    entries = []
    for _ in range(count):
        (name_len,) = struct.unpack("<H", take(2))
        try:
            name = take(name_len).decode()
        except UnicodeDecodeError:
            raise ValueError(f"{path}: entry name is not UTF-8") from None
        (ndim,) = struct.unpack("<B", take(1))
        entries.append((name, struct.unpack(f"<{ndim}q", take(8 * ndim))))
    out = {}
    for name, shape in entries:
        if min(shape, default=0) < 0:
            raise ValueError(f"{path}: entry {name!r} has shape {shape}")
        data = np.frombuffer(take(8 * math.prod(shape)), dtype="<f8")
        out[name] = data.astype(np.float64).reshape(shape)
    if pos != len(blob):
        raise ValueError(f"{path}: {len(blob) - pos} bytes after the last entry")
    return out
