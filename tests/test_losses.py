import math

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from lossmix import netcore
from lossmix.losses import (LossKind, _argmax_classes, loss_output_grad, loss_value,
                            row_max, row_sum)
from lossmix.netcore import finite_diff_grad


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
        with pytest.raises(ValueError, match="non-differentiable"):
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
        numeric = finite_diff_grad(
            lambda flat: loss_value(kind, flat.reshape(preds.shape), targets).value,
            preds.ravel(), 1e-6).reshape(preds.shape)
        scale = max(np.abs(numeric).max(), 1e-300)
        assert np.abs(analytic - numeric).max() / scale <= 1e-7


# arrays of entries that tell reduce orders apart (signed zeros, subnormals,
# infinities, NaNs and floats of every magnitude) or of floats of one
# magnitude, whose sums round differently in another order
edge_floats = st.one_of(
    st.sampled_from([0.0, -0.0, 1.0, -1.0, 5e-324, -5e-324, 2.2250738585072014e-308,
                     math.inf, -math.inf, math.nan, -math.nan]),
    st.floats(width=64))
entry_kinds = st.sampled_from([edge_floats, st.floats(-10.0, 10.0)])


def short_axis_arrays(widths=st.integers(1, 9), vectors=True):
    """(K,) (unless not vectors), (n, K) or (R, n, K) float64 arrays with K
    drawn from widths, each entry drawn on its own (no fill value)."""
    samples = st.integers(1, 40)
    leads = st.one_of(st.tuples(samples), st.tuples(st.integers(1, 4), samples),
                      *([st.just(())] if vectors else []))
    shapes = st.tuples(leads, widths).map(lambda t: (*t[0], t[1]))
    return st.tuples(shapes, entry_kinds).flatmap(
        lambda t: arrays(np.float64, t[0], elements=t[1], fill=st.nothing()))


def assert_same_bits(got, want, nan_payload=True):
    assert got.shape == want.shape and got.dtype == want.dtype
    if not nan_payload:
        nan = np.isnan(want)
        assert np.array_equal(np.isnan(got), nan)
        got, want = got[~nan], want[~nan]
    assert got.tobytes() == want.tobytes()


class TestReductions:
    """The column-by-column reductions give numpy's bits. The reduce order
    is a numpy internal, so this guards against an upgrade changing it."""

    @given(short_axis_arrays(), st.booleans())
    @example(np.array([[-0.0, -0.0], [-0.0, 0.0]]), False)
    @example(np.full((2, 3, 1), -0.0), True)
    def test_row_sum_is_numpys_sum(self, x, keepdims):
        with np.errstate(all="ignore"):
            assert_same_bits(row_sum(x, keepdims), x.sum(axis=-1, keepdims=keepdims))

    @given(short_axis_arrays(), st.booleans())
    def test_row_max_is_numpys_max(self, x, keepdims):
        # numpy's reduce writes its default NaN; the columns keep their own
        with np.errstate(all="ignore"):
            assert_same_bits(row_max(x, keepdims), x.max(axis=-1, keepdims=keepdims),
                             nan_payload=False)

    @given(short_axis_arrays(vectors=False))
    def test_bias_grad_is_numpys_sum_over_samples(self, delta):
        # K = 1 keeps numpy's pairwise sum; K > 1 is einsum's in-order sum,
        # which takes the other operand's NaN where two NaNs meet
        with np.errstate(all="ignore"):
            assert_same_bits(netcore._bias_grad(delta), delta.sum(axis=-2),
                             nan_payload=False)

    @given(short_axis_arrays(st.just(2)))
    def test_two_column_argmax_is_numpys_argmax(self, x):
        # the first maximum wins a tie and the first NaN counts as the maximum
        assert_same_bits(_argmax_classes(x), x.argmax(axis=-1))
