import math

import numpy as np
import pytest

from lossmix.losses import (LossKind, NonDifferentiableLoss, loss_output_grad,
                            loss_value)


def onehot_rows(labels, k):
    out = np.zeros((len(labels), k))
    out[np.arange(len(labels)), labels] = 1.0
    return out


class TestValues:
    def test_mse_zero_at_fit(self):
        preds = np.array([[0.2, 0.8], [0.6, 0.4]])
        assert loss_value(LossKind.MSE, preds, preds).value == 0.0

    def test_ce_binary_half(self):
        # -ln 0.5
        v = loss_value(LossKind.CE, np.array([[0.5]]), np.array([[1.0]]))
        assert v.value == pytest.approx(0.6931471805599453, abs=1e-12)

    def test_mse_definition(self):
        preds = np.array([[0.0, 0.0], [1.0, 1.0]])
        targets = np.array([[1.0, 0.0], [1.0, 0.0]])
        # per-sample squared error summed over outputs, then averaged
        assert loss_value(LossKind.MSE, preds, targets).value == pytest.approx(1.0)

    def test_zero_one_all_correct(self):
        preds = np.array([[0.9, 0.1], [0.2, 0.8]])
        targets = onehot_rows([0, 1], 2)
        assert loss_value(LossKind.ZERO_ONE, preds, targets).value == 0.0

    def test_zero_one_rate(self):
        preds = np.array([[0.9, 0.1], [0.9, 0.1], [0.2, 0.8], [0.6, 0.4]])
        targets = onehot_rows([0, 1, 1, 1], 2)
        assert loss_value(LossKind.ZERO_ONE, preds, targets).value == 0.5

    def test_zero_one_in_unit_interval_and_monotone_invariant(self):
        rng = np.random.default_rng(0)
        preds = rng.uniform(0.05, 0.95, (40, 3))
        targets = onehot_rows(rng.integers(0, 3, 40), 3)
        v = loss_value(LossKind.ZERO_ONE, preds, targets).value
        assert 0.0 <= v <= 1.0
        # strictly monotone transform preserving argmax leaves the rate alone
        v2 = loss_value(LossKind.ZERO_ONE, np.exp(preds), targets).value
        assert v == v2

    def test_jsd_symmetric_and_bounded(self):
        rng = np.random.default_rng(1)
        p = rng.dirichlet(np.ones(4), 25)
        q = rng.dirichlet(np.ones(4), 25)
        ab = loss_value(LossKind.JSD, p, q).value
        ba = loss_value(LossKind.JSD, q, p).value
        assert ab == pytest.approx(ba, abs=1e-13)
        assert 0.0 <= ab <= math.log(2.0)

    def test_all_nonnegative(self):
        rng = np.random.default_rng(2)
        preds = rng.uniform(0.05, 0.95, (10, 3))
        targets = onehot_rows(rng.integers(0, 3, 10), 3)
        for kind in LossKind:
            assert loss_value(kind, preds, targets).value >= 0.0

    def test_shape_mismatch(self):
        with pytest.raises(ValueError, match="shape"):
            loss_value(LossKind.MSE, np.zeros((2, 2)), np.zeros((3, 2)))

    def test_nonfinite_rejected(self):
        with pytest.raises(ValueError, match="finite"):
            loss_value(LossKind.MSE, np.array([[np.nan]]), np.array([[0.0]]))


class TestGrads:
    def test_mse_zero_at_fit(self):
        preds = np.array([[0.2, 0.8]])
        assert np.all(loss_output_grad(LossKind.MSE, preds, preds) == 0.0)

    def test_mse_scalar_case(self):
        g = loss_output_grad(LossKind.MSE, np.array([[0.9]]), np.array([[1.0]]))
        assert g[0, 0] == pytest.approx(-0.2, abs=1e-15)

    def test_zero_one_refuses(self):
        with pytest.raises(NonDifferentiableLoss, match="non-differentiable"):
            loss_output_grad(LossKind.ZERO_ONE, np.array([[0.5]]),
                             np.array([[1.0]]))

    @pytest.mark.parametrize("kind", [LossKind.MSE, LossKind.CE, LossKind.JSD])
    @pytest.mark.parametrize("k", [1, 3])
    def test_matches_finite_differences(self, kind, k):
        rng = np.random.default_rng(3)
        preds = rng.uniform(0.1, 0.9, (5, k))
        if k == 1:
            targets = rng.uniform(0.1, 0.9, (5, 1))
        else:
            targets = onehot_rows(rng.integers(0, k, 5), k)
        analytic = loss_output_grad(kind, preds, targets)
        numeric = np.zeros_like(preds)
        h = 1e-6
        for idx in np.ndindex(preds.shape):
            hi = preds.copy(); hi[idx] += h
            lo = preds.copy(); lo[idx] -= h
            numeric[idx] = (loss_value(kind, hi, targets).value
                            - loss_value(kind, lo, targets).value) / (2 * h)
        scale = max(np.abs(numeric).max(), 1e-300)
        assert np.abs(analytic - numeric).max() / scale <= 1e-7

