"""Loss values, exact gradients, and the diagnostic curve shapes."""

import numpy as np
import pytest

from brolip.errors import ContractError
from brolip.losses import (LossConfig, ce_cr_loss, cr_ramp_risks, la_loss,
                           loss_curves, ramp_loss)

CE_CFG = LossConfig(temperature=1.0, offset=0.0, annealing=0.0, cr_weight=0.0)


def ce_reference(z, t):
    shifted = z - np.max(z)
    return float(np.log(np.sum(np.exp(shifted))) - shifted[t])


class TestAnnealedLoss:
    def test_reduces_to_cross_entropy(self):
        rng = np.random.default_rng(0)
        for trial in range(200):
            z = rng.standard_normal(5) * 3
            t = int(rng.integers(5))
            res = la_loss(z, t, CE_CFG)
            assert abs(res.loss - ce_reference(z, t)) < 1e-12

    def test_symmetric_logits_closed_form(self):
        k = 4
        cfg = LossConfig(temperature=0.5, offset=0.0, annealing=3.0)
        res = la_loss(np.zeros(k), 1, cfg)
        want = -0.5 * (1 - 1 / k) ** 3 * np.log(1 / k)
        assert res.loss == pytest.approx(want, abs=1e-14)

    def test_frozen_high_precision_oracle(self):
        # default config on logits (3, 0, 0), target 0; values recomputed
        # with 50-digit arithmetic and frozen here
        res = la_loss(np.array([3.0, 0.0, 0.0]), 0, LossConfig())
        assert res.loss == pytest.approx(0.0015567797896141484, abs=1e-15)
        want_grad = [-0.0084880425282032132, 0.0042440212641016066,
                     0.0042440212641016066]
        np.testing.assert_allclose(res.grad, want_grad, atol=1e-15)

    def test_high_precision_oracle_recomputed(self):
        # same case, oracle evaluated live at 50 digits
        mp = pytest.importorskip("mpmath")
        mp.mp.dps = 50
        temp, xi, beta = map(mp.mpf, ("0.75", "2", "5"))
        u = [(mp.mpf(3) - xi) / temp, mp.mpf(0), mp.mpf(0)]
        exps = [mp.e ** ui for ui in u]
        p = [e / sum(exps) for e in exps]
        loss = -temp * (1 - p[0]) ** beta * mp.log(p[0])
        bracket = beta * p[0] * (1 - p[0]) ** (beta - 1) * mp.log(p[0]) \
            - (1 - p[0]) ** beta
        grad = [bracket * ((1 if j == 0 else 0) - p[j]) for j in range(3)]
        res = la_loss(np.array([3.0, 0.0, 0.0]), 0, LossConfig())
        assert abs(res.loss - float(loss)) < 1e-15
        for got, want in zip(res.grad, grad):
            assert abs(got - float(want)) < 1e-15

    @pytest.mark.parametrize("temp", [0.25, 0.75, 1.0])
    @pytest.mark.parametrize("offset", [0.0, 2.0])
    @pytest.mark.parametrize("beta", [0.0, 1.0, 5.0])
    def test_gradient_matches_finite_differences(self, temp, offset, beta):
        cfg = LossConfig(temperature=temp, offset=offset, annealing=beta)
        rng = np.random.default_rng(int(temp * 100 + offset * 10 + beta))
        for trial in range(5):
            z = rng.standard_normal(4) * 2
            t = int(rng.integers(4))
            res = la_loss(z, t, cfg)
            h = 1e-6
            for i in range(4):
                zp, zm = z.copy(), z.copy()
                zp[i] += h
                zm[i] -= h
                num = (la_loss(zp, t, cfg).loss - la_loss(zm, t, cfg).loss) / (2 * h)
                denom = max(1.0, abs(res.grad[i]))
                assert abs(res.grad[i] - num) / denom < 1e-6

    def test_permutation_equivariance(self):
        cfg = LossConfig()
        z = np.array([1.0, -0.5, 2.0, 0.25])
        res = la_loss(z, 0, cfg)
        perm = [0, 3, 1, 2]  # keeps the target slot
        res_p = la_loss(z[perm], 0, cfg)
        assert res_p.loss == pytest.approx(res.loss, abs=1e-15)
        np.testing.assert_allclose(res_p.grad, res.grad[perm], atol=1e-15)

    def test_annealing_monotone_in_beta_above_half(self):
        rng = np.random.default_rng(1)
        cfg1 = LossConfig(temperature=1.0, offset=0.0, annealing=1.0)
        cfg2 = LossConfig(temperature=1.0, offset=0.0, annealing=4.0)
        for trial in range(100):
            z = rng.standard_normal(3)
            z[0] = abs(z[0]) + 2.0  # p_t > 1/2
            l1 = la_loss(z, 0, cfg1).loss
            l2 = la_loss(z, 0, cfg2).loss
            assert l2 <= l1 + 1e-15

    def test_loss_nonnegative_and_annealed_to_zero(self):
        cfg = LossConfig()
        z = np.array([60.0, 0.0])
        res = la_loss(z, 0, cfg)
        assert 0.0 <= res.loss < 1e-12

    def test_saturation_flag(self):
        cfg = LossConfig(temperature=1.0, offset=0.0, annealing=0.0)
        res = la_loss(np.array([-800.0, 0.0]), 0, cfg)
        assert res.saturated
        assert np.isfinite(res.loss)

    def test_contracts(self):
        with pytest.raises(ContractError):
            la_loss(np.zeros(1), 0, LossConfig())
        with pytest.raises(ContractError):
            LossConfig(temperature=0.0)


class TestMarginHingeLoss:
    def test_gamma_zero_is_cross_entropy(self):
        rng = np.random.default_rng(2)
        cfg = LossConfig(cr_weight=0.0)
        for trial in range(50):
            z = rng.standard_normal(4)
            t = int(rng.integers(4))
            assert ce_cr_loss(z, t, cfg).loss == pytest.approx(
                ce_reference(z, t), abs=1e-12)

    def test_negative_margin_is_inactive(self):
        cfg = LossConfig(cr_weight=0.7)
        z = np.array([0.0, 5.0, 2.0])
        assert ce_cr_loss(z, 0, cfg).loss == pytest.approx(
            ce_reference(z, 0), abs=1e-12)

    def test_positive_margin_subtracts_weighted_hinge(self):
        cfg = LossConfig(cr_weight=0.5)
        z = np.array([2.0, 0.0])
        assert ce_cr_loss(z, 0, cfg).loss == pytest.approx(
            ce_reference(z, 0) - 1.0, abs=1e-12)

    def test_gradient_matches_finite_differences_off_zero_margin(self):
        cfg = LossConfig(cr_weight=0.5)
        rng = np.random.default_rng(3)
        checked = 0
        while checked < 30:
            z = rng.standard_normal(4)
            t = int(rng.integers(4))
            rest = np.delete(z, t)
            if abs(z[t] - np.max(rest)) < 1e-2:
                continue
            checked += 1
            res = ce_cr_loss(z, t, cfg)
            h = 1e-6
            for i in range(4):
                zp, zm = z.copy(), z.copy()
                zp[i] += h
                zm[i] -= h
                num = (ce_cr_loss(zp, t, cfg).loss - ce_cr_loss(zm, t, cfg).loss) / (2 * h)
                assert abs(res.grad[i] - num) / max(1.0, abs(res.grad[i])) < 1e-6


class TestRampLoss:
    def test_boundaries(self):
        assert ramp_loss(1.0, 1.0) == 0.0
        assert ramp_loss(0.0, 1.0) == 1.0
        assert ramp_loss(-3.0, 1.0) == 1.0
        assert ramp_loss(0.5, 1.0) == 0.5
        assert ramp_loss(2.5, 5.0) == 0.5

    def test_width_contract(self):
        with pytest.raises(ContractError):
            ramp_loss(0.0, 0.0)

    def test_hinge_risk_is_ramp_risk_minus_one(self):
        rng = np.random.default_rng(4)
        for trial in range(100):
            margins = rng.standard_normal(16) * 2
            tau = float(np.max(margins))
            if tau <= 0:
                continue
            cr, ramp = cr_ramp_risks(margins, tau)
            assert abs(cr - (ramp - 1.0)) < 1e-10


class TestLossCurves:
    def test_header_and_rows(self):
        from brolip.losses import LOSS_CURVE_HEADER
        assert LOSS_CURVE_HEADER == "p_t,la,la_grad,ce,cecr,cecr_grad"
        rows = loss_curves(LossConfig(), [0.25, 0.5, 0.75])
        assert len(rows) == 3 and len(rows[0]) == 6

    def test_ce_derivative_reciprocal(self):
        (row,) = loss_curves(LossConfig(cr_weight=0.0), [0.4])
        p, _, _, ce, cecr, cecr_d = row
        assert ce == pytest.approx(-np.log(0.4))
        assert cecr_d == pytest.approx(-1.0 / 0.4)

    def test_annealed_derivative_vanishes_near_one(self):
        rows = loss_curves(LossConfig(annealing=5.0), [0.6, 0.99])
        d_low, d_high = abs(rows[0][2]), abs(rows[1][2])
        assert d_high < 0.1 * d_low

    def test_hinge_switches_on_at_half(self):
        eps = 1e-9
        lo, hi = loss_curves(LossConfig(cr_weight=0.5), [0.5 - eps, 0.5 + eps])
        jump = lo[5] - hi[5]
        assert jump == pytest.approx(4.0 * 0.5, rel=1e-6)
        lo2, hi2 = loss_curves(LossConfig(cr_weight=1.25), [0.5 - eps, 0.5 + eps])
        assert (lo2[5] - hi2[5]) == pytest.approx(4.0 * 1.25, rel=1e-6)

    def test_grid_domain_contract(self):
        with pytest.raises(ContractError):
            loss_curves(LossConfig(), [0.0, 0.5])
        with pytest.raises(ContractError):
            loss_curves(LossConfig(), [1.0])
