import math

import numpy as np
import pytest

from ponodet.anchors import AnchorSet
from ponodet.assignment import GroundTruth
from ponodet.data import Scene
from ponodet.loss import (LOC_GATE, bce_logits, focal_logits, initial_balance,
                          loc_loss_map, weighted_totals)
from ponodet.train import RunState, TrainConfig, anchor_grid, train_iteration

from test_autodiff import grad_check
from test_model import TabularPredictor


# ---------------------------------------------------------------------
# scalar reference forms of the loss maps
# ---------------------------------------------------------------------

def loc_loss_elem(o: float, o_hat: float) -> float:
    """Squared overlap shortfall (1 - o_hat)^2, active only where o > 0.5."""
    return (1.0 - o_hat) ** 2 if o > LOC_GATE else 0.0


def cls_loss_elem(p: int, p_hat: float) -> float:
    """Binary cross entropy for a probability in (0, 1)."""
    return -p * math.log(p_hat) - (1 - p) * math.log1p(-p_hat)


def focal_loss_elem(p: int, p_hat: float, alpha: float = 0.25,
                    gamma: float = 2.0) -> float:
    """Focal modulation of the cross entropy (ablation only)."""
    p_t = p_hat if p == 1 else 1.0 - p_hat
    alpha_t = alpha if p == 1 else 1.0 - alpha
    return alpha_t * (1.0 - p_t) ** gamma * (-math.log(p_t))


class TestLocLossElem:
    def test_perfect_fit(self):
        assert loc_loss_elem(1.0, 1.0) == 0.0

    def test_gate_inactive(self):
        assert loc_loss_elem(0.4, 0.0) == 0.0
        assert loc_loss_elem(0.5, 0.0) == 0.0  # strict threshold

    def test_quadratic(self):
        assert loc_loss_elem(1.0, 0.5) == pytest.approx(0.25)

    def test_gradient_on_active_branch(self):
        def f(oh):
            return loc_loss_map(np.array(1.0), oh).sum()
        assert grad_check(f, [np.array([0.3, 0.8])]) < 1e-7


class TestClsLossElem:
    def test_half(self):
        assert cls_loss_elem(1, 0.5) == pytest.approx(math.log(2.0), rel=1e-12)

    def test_confident_negative(self):
        assert cls_loss_elem(0, 1e-12) == pytest.approx(0.0, abs=1e-11)

    def test_quarter(self):
        assert cls_loss_elem(1, 0.25) == pytest.approx(math.log(4.0), rel=1e-12)

    def test_logit_form_matches_probability_form(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            z = rng.normal(0, 3)
            p = rng.integers(0, 2)
            p_hat = 1.0 / (1.0 + math.exp(-z))
            assert float(bce_logits(float(p), np.array(z))) == \
                pytest.approx(cls_loss_elem(p, p_hat), rel=1e-9)

    def test_logit_form_saturation_safe(self):
        v = bce_logits(np.array([1.0, 0.0]), np.array([-500.0, 500.0]))
        assert np.all(np.isfinite(v))
        assert v[0] == pytest.approx(500.0)


class TestFocalLossElem:
    def test_vanishes_for_confident_positive(self):
        assert focal_loss_elem(1, 1 - 1e-9) == pytest.approx(0.0, abs=1e-12)

    def test_direct_value(self):
        # 0.25 * (0.5)^2 * ln 2
        assert focal_loss_elem(1, 0.5) == pytest.approx(0.25 * 0.25 * math.log(2.0))

    def test_gamma_zero_reduces_to_scaled_ce(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            p_hat = rng.uniform(0.05, 0.95)
            p = int(rng.integers(0, 2))
            assert focal_loss_elem(p, p_hat, alpha=0.5, gamma=0.0) == \
                pytest.approx(0.5 * cls_loss_elem(p, p_hat), rel=1e-12)

    def test_logit_form_matches(self):
        rng = np.random.default_rng(2)
        z = rng.normal(0, 2, size=8)
        p = rng.integers(0, 2, size=8).astype(float)
        got = focal_logits(p, z)
        want = [focal_loss_elem(int(pi), 1 / (1 + math.exp(-zi)))
                for pi, zi in zip(p, z)]
        np.testing.assert_allclose(got, want, rtol=1e-9)


class TestBalancedTotals:
    """`weighted_totals` on per-grid loss sums, as `train_iteration` calls it."""

    def test_unit_zero_maps(self):
        z = np.zeros((1, 1))
        assert weighted_totals(z, z, 1, 4, "unit") == (0.0, 0.0, 0.0)

    def test_learned_identity_weights(self):
        rng = np.random.default_rng(3)
        loc_sums, cls_sums = rng.uniform(0, 4, (2, 3)), rng.uniform(0, 8, (2, 3))
        bw = initial_balance(2, 3, value=0.0)
        loc, cls, reg = weighted_totals(loc_sums, cls_sums, 5, 96, "learned", bw)
        assert loc == pytest.approx(loc_sums.sum() / 5, rel=1e-12)
        assert cls == pytest.approx(cls_sums.sum() / 96, rel=1e-12)
        assert reg == 0.0

    def test_retina_vs_unit_cls_ratio(self):
        # all-negative map at p_hat = 0.5: unit-mode classification loss is
        # exactly ln 2 and trails the positive-normalized form by n_pos/N
        h = w = 4
        cls_sums = np.full((h, w, 2, 2), math.log(2.0)).sum(axis=(0, 1))
        n, n_pos = h * w * 2 * 2, 2
        _, unit, _ = weighted_totals(cls_sums, cls_sums, n_pos, n, "unit")
        _, retina, _ = weighted_totals(cls_sums, cls_sums, n_pos, n, "retina_norm")
        assert unit == pytest.approx(math.log(2.0), rel=1e-12)
        assert unit / retina == pytest.approx(n_pos / n, rel=1e-12)

    def test_npos_floor(self):
        # no object, so no gated cell: the loc normalizer is floored at 1
        scene = Scene(np.zeros((16, 16, 3)), GroundTruth([], []))
        state = RunState.fresh(TabularPredictor(2, 2, 1, 1),
                               anchor_grid(AnchorSet(np.full((1, 1, 2), 8.0)), 16))
        rep = train_iteration(state, [scene], TrainConfig(max_iter=2, mode="unit"))
        assert rep.loc == 0.0 and np.isfinite(rep.total)
        assert rep.n_pos == 0

    def test_unknown_mode(self):
        z = np.zeros((1, 1))
        with pytest.raises(ValueError):
            weighted_totals(z, z, 1, 4, "bogus")


class TestBalanceWeights:
    def test_lambda_positive_for_any_finite_s(self):
        # positivity is structural: every exp(-s) multiplier stays positive
        # for any finite s, so positive loss sums give positive terms
        sums = np.ones((2, 2))
        for value in (-40.0, 40.0):
            bw = initial_balance(2, 2, value=value)
            loc, cls, _ = weighted_totals(sums, sums, 1, 4, "learned", bw)
            assert loc > 0 and cls > 0

    def test_initial_keys_shapes_and_order(self):
        # the keys are the checkpoint entry names, in optimizer order
        bw = initial_balance(2, 3, value=0.5)
        assert list(bw) == ["bw.s_cls", "bw.s_loc", "bw.s_cls_grid", "bw.s_loc_grid"]
        assert [v.shape for v in bw.values()] == [(), (), (2, 3), (2, 3)]
        assert all(v.dtype == np.float64 and np.all(v == 0.5) for v in bw.values())


class TestSelfBalancingFixedPoint:
    @pytest.mark.parametrize("L", [0.5, 2.0, 10.0])
    def test_gradient_descent_converges_to_log_loss(self, L):
        # single learned weight with constant aggregated loss L: the
        # stationary point of e^{-s} L + s sits at s* = ln L
        s, v = 1.0, 0.0
        for _ in range(4000):
            g = 1.0 - math.exp(-s) * L
            v = 0.9 * v + g
            s -= 0.01 * v
        assert s == pytest.approx(math.log(L), abs=1e-3)
