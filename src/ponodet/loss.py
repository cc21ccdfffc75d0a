"""Localization / classification losses and the learned balance weights.

The localization term penalizes the squared shortfall of the predicted-box
overlap on well-covered cells; classification is per-cell binary cross
entropy (focal variant available for the ablation).  Totals are weighted by
trainable multipliers, one pair globally and one pair per (class, anchor)
grid, parameterized as lambda = exp(-s) so they stay positive.  A
regularizer of the s values keeps the multipliers from collapsing to zero,
and grids that saw no positive label in an iteration have their s entries
frozen (gradient zeroed, regularizer included) so easy all-negative grids
cannot inflate their own weights.
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
# elementwise losses
# ---------------------------------------------------------------------

def loc_loss_map(gate, o_hat):
    """Gated squared-shortfall map; generic over ndarray/Tensor `o_hat`.

    `gate` is the 0/1 array of cells whose normalized overlap beats the
    threshold; it carries no gradient.
    """
    return gate * (1.0 - o_hat) ** 2.0


def bce_logits(p, z):
    """Binary cross entropy from logits, in the saturation-safe form
    max(z, 0) - z*p + log(1 + exp(-|z|)); generic over ndarray/Tensor."""
    mag = ad.maximum(z, -z)
    return ad.maximum(z, 0.0) - z * p + ad.log1p(ad.exp(-mag))


def focal_logits(p, z, alpha: float = 0.25, gamma: float = 2.0):
    """Focal loss from logits for hard labels p in {0, 1}."""
    sign = 2.0 * p - 1.0
    one_minus_pt = ad.sigmoid(-sign * z)
    alpha_t = alpha * p + (1.0 - alpha) * (1.0 - p)
    return alpha_t * one_minus_pt ** gamma * bce_logits(p, z)


# ---------------------------------------------------------------------
# weighted totals
# ---------------------------------------------------------------------

def weighted_totals(loc_sums, cls_sums, n_pos: float, n_total: float,
                    mode: str, bw=None):
    """Combine per-grid loss sums [n_classes, n_anchors] into the three
    loss terms.  Generic over ndarray/Tensor inputs; `bw` maps the
    `initial_balance` keys to the s values and is read in `learned` mode
    only.

    learned      -- every term scaled by its exp(-s) multiplier, plus the
                    s regularizer.
    unit         -- all multipliers 1, no regularizer.
    retina_norm  -- multipliers 1 except the classification weight pinned
                    at n_total / n_pos, no regularizer.
    """
    if mode == "learned":
        loc = ad.exp(-bw["bw.s_loc"]) * (
            (ad.exp(-bw["bw.s_loc_grid"]) * loc_sums).sum() / n_pos)
        cls = ad.exp(-bw["bw.s_cls"]) * (
            (ad.exp(-bw["bw.s_cls_grid"]) * cls_sums).sum() / n_total)
        reg = bw["bw.s_cls"] + bw["bw.s_loc"] \
            + (bw["bw.s_cls_grid"] + bw["bw.s_loc_grid"]).mean()
    elif mode == "unit":
        loc = loc_sums.sum() / n_pos
        cls = cls_sums.sum() / n_total
        reg = 0.0
    elif mode == "retina_norm":
        loc = loc_sums.sum() / n_pos
        cls = (n_total / n_pos) * (cls_sums.sum() / n_total)
        reg = 0.0
    else:
        raise ValueError(f"unknown mode {mode!r}; expected one of {MODES}")
    return loc, cls, reg
