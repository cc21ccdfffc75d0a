"""Localization / classification losses and the learned balance weights.

The localization term penalizes the squared shortfall of the predicted-box
overlap on well-covered cells; classification is per-cell binary cross
entropy (focal variant available for the ablation).  The maps' per-grid
sums are weighted by trainable multipliers, one pair globally and one pair
per (class, anchor) grid, parameterized as lambda = exp(-s) so they stay
positive.  A regularizer of the s values keeps the multipliers from
collapsing to zero; sums, weights and regularizer make one tape record,
the total.  A grid that saw no positive label in an iteration keeps its
s entries and their momentum through that iteration's step (the training
loop holds them), so easy all-negative grids cannot inflate their own
weights.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad

MODES = ("learned", "unit", "retina_norm")

# Gate for the localization loss and for counting positive anchors: a cell
# participates once its normalized overlap exceeds this.
LOC_GATE = 0.5


def initial_balance(n_classes: int, n_anchors: int,
                    value: float = 1.0) -> dict[str, np.ndarray]:
    """The trainable balance parameters s, lambda = exp(-s) for every entry:
    the global `bw.s_cls` and `bw.s_loc` (0-d), then the per-grid
    `bw.s_cls_grid` and `bw.s_loc_grid` [n_classes, n_anchors].  The keys
    are the checkpoint's entry names, and `learned` mode steps the arrays
    in place with the model parameters, in this order."""
    grid = (n_classes, n_anchors)
    return {"bw.s_cls": np.full((), value), "bw.s_loc": np.full((), value),
            "bw.s_cls_grid": np.full(grid, value),
            "bw.s_loc_grid": np.full(grid, value)}


@dataclass
class LossReport:
    total: float
    loc: float
    cls: float
    reg: float
    n_pos: int
    per_grid_pos: np.ndarray

    CSV_HEADER = "iteration,total,loc,cls,reg,n_pos,lr"

    def csv_row(self, iteration: int, lr: float) -> str:
        return (f"{iteration},{self.total!r},{self.loc!r},{self.cls!r},"
                f"{self.reg!r},{self.n_pos},{lr!r}")


# ---------------------------------------------------------------------
# elementwise losses: the forward is the same on ndarrays and Tensors; a
# Tensor input gets one tape record whose vjp is written out
# ---------------------------------------------------------------------

def loc_loss_map(gate, o_hat):
    """Gated squared-shortfall map; generic over ndarray/Tensor `o_hat`.

    `gate` is the 0/1 array of cells whose normalized overlap beats the
    threshold; it carries no gradient.
    """
    shortfall = 1.0 - ad.values_of(o_hat)
    out = gate * shortfall ** 2.0
    if not isinstance(o_hat, ad.Tensor):
        return out
    return ad.record(out, [(o_hat, lambda g: -(g * gate * 2.0 * shortfall))])


def sigmoid(z: np.ndarray) -> np.ndarray:
    """1 / (1 + exp(-z)) without overflow: exp only ever sees -|z|."""
    e = np.exp(-np.abs(z))
    return np.where(z >= 0, 1.0 / (1.0 + e), e / (1.0 + e))


def _bce(p, z):
    """`bce_logits` on arrays."""
    mag = np.maximum(z, -z)
    return np.maximum(z, 0.0) - z * p + np.log1p(np.exp(-mag))


def _bce_slope(p, z):
    """d bce / dz = sigmoid(z) - p, in a form that does not cancel:
    (1 - p) - s for z >= 0 and s - p below, with s = sigmoid(-|z|)."""
    e = np.exp(-np.abs(z))
    s = e / (1.0 + e)
    return np.where(z >= 0, (1.0 - p) - s, s - p)


def bce_logits(p, z):
    """Binary cross entropy from logits, in the saturation-safe form
    max(z, 0) - z*p + log(1 + exp(-|z|)); generic over ndarray/Tensor `z`.
    The vjp is sigmoid(z) - p."""
    zv = ad.values_of(z)
    out = _bce(p, zv)
    if not isinstance(z, ad.Tensor):
        return out
    return ad.record(out, [(z, lambda g: g * _bce_slope(p, zv))])


def focal_logits(p, z, alpha: float = 0.25, gamma: float = 2.0):
    """Focal loss from logits for hard labels p in {0, 1}:
    alpha_t (1 - p_t)^gamma times the cross entropy (Lin et al., ICCV
    2017); generic over ndarray/Tensor `z`."""
    zv = ad.values_of(z)
    sign = 2.0 * p - 1.0
    one_minus_pt = sigmoid(-sign * zv)
    alpha_t = alpha * p + (1.0 - alpha) * (1.0 - p)
    weight = alpha_t * one_minus_pt ** gamma
    ce = _bce(p, zv)
    out = weight * ce
    if not isinstance(z, ad.Tensor):
        return out

    def vjp(g):
        # the modulating factor through sigmoid(-sign * z), then the
        # cross entropy; for hard labels the two terms share a sign
        d_weight = alpha_t * gamma * one_minus_pt ** (gamma - 1.0) \
            * (one_minus_pt * (1.0 - one_minus_pt)) * -sign
        return g * (d_weight * ce + weight * _bce_slope(p, zv))

    return ad.record(out, [(z, vjp)])


# ---------------------------------------------------------------------
# weighted totals
# ---------------------------------------------------------------------

def weighted_totals(loc_map, cls_map, n_pos: float, n_total: float,
                    mode: str, bw=None):
    """The balanced loss of the loss maps [..., n_classes, n_anchors]:
    each map is summed per grid over its leading axes into `sums`, and its
    term is lam * sum(lam_grid * sums) / norm, normalized by `n_pos` for
    localization and by `n_total` for classification.  Returns (total,
    loc, cls, reg): the total is one tape record when any input is a
    Tensor, and the three terms are floats.  `bw` maps the
    `initial_balance` keys to the s values and is read in `learned` mode
    only.

    learned      -- lam = exp(-s) and lam_grid = exp(-s_grid) for each
                    term, plus the regularizer
                    s_cls + s_loc + mean(s_cls_grid + s_loc_grid).
    unit         -- all multipliers 1, no regularizer.
    retina_norm  -- multipliers 1 except the classification lam pinned
                    at n_total / n_pos, no regularizer.
    """
    def term(loss_map, norm, s=None, s_grid=None, lam=1.0):
        """The term's value, its map's pull and the pulls to s and s_grid."""
        values = ad.values_of(loss_map)
        sums = values.sum(axis=tuple(range(values.ndim - 2)))
        lam_grid = None
        if s is not None:
            lam, lam_grid = np.exp(-ad.values_of(s)), np.exp(-ad.values_of(s_grid))
        inner = (sums if lam_grid is None else lam_grid * sums).sum() / norm

        def d_map(g):
            d = g * lam / norm
            d = np.full(sums.shape, d) if lam_grid is None else d * lam_grid
            return np.broadcast_to(d, values.shape)

        s_pulls = [] if s is None else [
            (s, lambda g: -(g * inner * lam)),
            (s_grid, lambda g: -(g * lam / norm * sums * lam_grid))]
        return lam * inner, (loss_map, d_map), s_pulls

    if mode == "learned":
        loc, loc_pull, loc_s = term(loc_map, n_pos, bw["bw.s_loc"], bw["bw.s_loc_grid"])
        cls, cls_pull, cls_s = term(cls_map, n_total, bw["bw.s_cls"], bw["bw.s_cls_grid"])
        s_cls, s_loc, cls_grid, loc_grid = (bw[key] for key in (
            "bw.s_cls", "bw.s_loc", "bw.s_cls_grid", "bw.s_loc_grid"))
        grid = ad.values_of(cls_grid) + ad.values_of(loc_grid)
        reg = ad.values_of(s_cls) + ad.values_of(s_loc) + grid.mean()

        def d_grid(g):
            return np.full(grid.shape, g / grid.size)

        # each s leaf takes its regularizer pull first, then its term's
        s_pulls = [(s_cls, lambda g: g), (s_loc, lambda g: g), (cls_grid, d_grid),
                   (loc_grid, d_grid), *cls_s, *loc_s]
    elif mode in MODES:
        loc, loc_pull, _ = term(loc_map, n_pos)
        cls, cls_pull, _ = term(cls_map, n_total,
                                lam=n_total / n_pos if mode == "retina_norm" else 1.0)
        reg, s_pulls = 0.0, []
    else:
        raise ValueError(f"unknown mode {mode!r}; expected one of {MODES}")
    total = (loc + cls) + reg
    pulls = [loc_pull, cls_pull, *s_pulls]
    if any(isinstance(x, ad.Tensor) for x, _ in pulls):
        total = ad.record(total, pulls)
    else:
        total = float(total)
    return total, float(loc), float(cls), float(reg)
