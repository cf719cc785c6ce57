import importlib.machinery
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import lossmix
from lossmix import netcore
from lossmix.losses import LossKind, loss_means, loss_output_grad, loss_value
from lossmix.netcore import Batch, MLPSpec, ShapeError


def make_batch(n=6, d=3, k=2, seed=0):
    rng = np.random.default_rng(seed)
    inputs = rng.standard_normal((n, d))
    targets = np.zeros((n, k))
    targets[np.arange(n), rng.integers(0, k, n)] = 1.0
    return Batch(inputs=inputs, targets=targets)


def spectral_net():
    """The 1-200-1 sigmoid net of the capture experiment on its 256-point grid."""
    spec = MLPSpec((1, 200, 1), hidden_activation="sigmoid", output_kind="sigmoid")
    x = np.linspace(-np.pi, np.pi, 256, endpoint=False)[:, None]
    return spec, x, netcore.init_params(spec, 1, 3.0)


class TestSpecValidation:
    def test_requires_two_layers(self):
        with pytest.raises(ValueError):
            MLPSpec((4,))

    def test_rejects_zero_width(self):
        with pytest.raises(ValueError):
            MLPSpec((4, 0, 2))

    def test_softmax_needs_width_two(self):
        with pytest.raises(ValueError, match="sigmoid"):
            MLPSpec((4, 1), output_kind="softmax")
        MLPSpec((4, 1), output_kind="sigmoid")  # binary head is the way out

    def test_param_count(self):
        spec = MLPSpec((3, 5, 2))
        assert spec.n_params == 3 * 5 + 5 + 5 * 2 + 2


class TestForward:
    def test_zero_params_linear_gives_zero(self):
        spec = MLPSpec((3, 3), output_kind="linear")
        batch = make_batch(d=3, k=3)
        out = netcore.forward(spec, np.zeros(spec.n_params), batch)
        assert np.all(out == 0.0)

    def test_zero_params_softmax_gives_uniform(self):
        spec = MLPSpec((3, 3), hidden_activation="relu", output_kind="softmax")
        batch = make_batch(d=3, k=3)
        out = netcore.forward(spec, np.zeros(spec.n_params), batch)
        np.testing.assert_allclose(out, 1.0 / 3.0, atol=1e-15)

    def test_sigmoid_unit_at_zero_preactivation(self):
        spec = MLPSpec((1, 1), output_kind="sigmoid")
        batch = Batch(inputs=np.array([[2.0]]), targets=np.array([[1.0]]))
        out = netcore.forward(spec, np.zeros(2), batch)
        assert out[0, 0] == 0.5

    def test_sigmoid_layers_are_scipy_expit(self):
        # netcore loads expit's extension alone; scipy.special, imported
        # afterwards in the same fresh interpreter, names the same ufunc
        src = str(Path(lossmix.__file__).resolve().parents[1])
        probe = ("import sys; from lossmix import netcore; netcore._sigmoid(0.0); "
                 "print(sorted(m for m in sys.modules if m.startswith('scipy'))); "
                 "from scipy.special import expit; print(netcore._expit is expit)")
        out = subprocess.run([sys.executable, "-c", probe], capture_output=True,
                             text=True, check=True, env={**os.environ, "PYTHONPATH": src})
        assert out.stdout.splitlines() == ["['scipy.special._special_ufuncs']", "True"]
        # so the bits are expit's
        from scipy.special import expit
        assert netcore._load_expit() is expit
        spec = MLPSpec((3, 7, 2), hidden_activation="sigmoid", output_kind="sigmoid")
        params = netcore.init_params(spec, 6, 1.5)
        batch = make_batch(n=9)
        (w0, b0), (w1, b1) = netcore.unpack_params(spec, params)
        want = expit(expit(batch.inputs @ w0 + b0) @ w1 + b1)
        assert np.array_equal(netcore.forward(spec, params, batch), want)
        # the spectral shape, a 256 x 200 pre-activation: there the plain
        # formula 1/(1+exp(-z)) misses expit's bits in about 2% of entries,
        # and the spectral reference digests depend on those bits
        wide, x, params = spectral_net()
        (w0, b0), _ = netcore.unpack_params(wide, params)
        z = x @ w0 + b0
        _, (_, acts, _) = netcore._forward_cache(wide, params, x)
        assert np.array_equal(acts[1], expit(z))
        assert not np.array_equal(1.0 / (1.0 + np.exp(-z)), expit(z))

    def test_expit_falls_back_to_scipy_special(self, monkeypatch):
        # a scipy without the extension: expit comes from scipy.special
        from scipy.special import expit
        wide, x, params = spectral_net()
        want, _ = netcore._forward_cache(wide, params, x)
        find_spec = importlib.machinery.PathFinder.find_spec

        def no_extension(name, path=None, target=None):
            return None if name == netcore._EXPIT_MODULE else find_spec(name, path, target)

        monkeypatch.setattr(importlib.machinery.PathFinder, "find_spec", no_extension)
        monkeypatch.delitem(sys.modules, netcore._EXPIT_MODULE, raising=False)
        monkeypatch.setattr(netcore, "_expit", None)
        got, _ = netcore._forward_cache(wide, params, x)
        assert netcore._expit is expit
        assert np.array_equal(got, want)

    def test_softmax_rows_sum_to_one(self):
        spec = MLPSpec((3, 8, 4), output_kind="softmax")
        params = netcore.init_params(spec, 4, 1.5)
        batch = make_batch(k=4)
        out = netcore.forward(spec, params, batch)
        np.testing.assert_allclose(out.sum(axis=1), 1.0, atol=1e-12)
        assert out.min() >= 0.0

    def test_dimension_mismatch_names_layer(self):
        spec = MLPSpec((3, 2))
        batch = make_batch(d=4)
        with pytest.raises(ShapeError, match="layer 0"):
            netcore.forward(spec, np.zeros(spec.n_params), batch)

    def test_param_length_checked(self):
        spec = MLPSpec((3, 2))
        with pytest.raises(ShapeError, match="length"):
            netcore.forward(spec, np.zeros(3), make_batch())


class TestBackward:
    def test_zero_output_grad(self):
        spec = MLPSpec((3, 5, 2), output_kind="softmax")
        params = netcore.init_params(spec, 5, 0.5)
        batch = make_batch()
        grad = netcore.backward(spec, params, batch, np.zeros((batch.n, 2)))
        assert np.all(grad == 0.0)

    def test_linear_one_to_one(self):
        # loss = output -> gradient is (x, 1) for (weight, bias)
        spec = MLPSpec((1, 1), output_kind="linear")
        x = 3.7
        batch = Batch(inputs=np.array([[x]]), targets=np.array([[0.0]]))
        grad = netcore.backward(spec, np.array([0.3, -0.2]), batch,
                                np.array([[1.0]]))
        np.testing.assert_allclose(grad, [x, 1.0], rtol=0, atol=0)

    @pytest.mark.parametrize("activation", ["sigmoid", "tanh", "relu"])
    @pytest.mark.parametrize("output_kind", ["linear", "softmax", "sigmoid"])
    def test_matches_finite_differences(self, activation, output_kind):
        k = 1 if output_kind == "sigmoid" else 3
        spec = MLPSpec((3, 6, 5, k), hidden_activation=activation,
                       output_kind=output_kind)
        params = netcore.init_params(spec, 11, 0.6)
        batch = make_batch(k=k, seed=12)
        rng = np.random.default_rng(13)
        out_grad = rng.standard_normal((batch.n, k))

        def total(p):
            return float((netcore.forward(spec, p, batch) * out_grad).sum())

        analytic = netcore.backward(spec, params, batch, out_grad)
        numeric = netcore.finite_diff_grad(total, params, 1e-5)
        scale = max(np.abs(numeric).max(), 1e-300)
        assert np.abs(analytic - numeric).max() / scale <= 1e-6

    def test_shape_mismatch(self):
        spec = MLPSpec((3, 2))
        params = np.zeros(spec.n_params)
        with pytest.raises(ShapeError):
            netcore.backward(spec, params, make_batch(), np.zeros((6, 3)))


@pytest.mark.parametrize("output_kind", ["linear", "softmax", "sigmoid"])
def test_term_values_and_grads_match_forward_and_backward(output_kind):
    k = 1 if output_kind == "sigmoid" else 3
    spec = MLPSpec((3, 6, k), hidden_activation="tanh", output_kind=output_kind)
    params = netcore.init_params(spec, 21, 0.6)
    batch = make_batch(k=k, seed=22)
    kinds = (LossKind.CE, LossKind.MSE, LossKind.JSD)
    acts, vals, grads = netcore.term_values_and_grads(
        spec, params, batch.inputs, batch.targets, kinds)
    want_preds = netcore.forward(spec, params, batch)
    # the forward's activations: the inputs, the hidden layer, the predictions
    assert len(acts) == 3 and np.array_equal(acts[0], batch.inputs)
    assert np.array_equal(acts[-1], want_preds)
    for kind, value, grad in zip(kinds, vals, grads, strict=True):
        assert value == loss_value(kind, want_preds, batch.targets).value
        want = netcore.backward(spec, params, batch,
                                loss_output_grad(kind, want_preds, batch.targets))
        assert np.array_equal(grad, want)
    # values of every term, a gradient for the listed ones only
    _, vals_one, grads_one = netcore.term_values_and_grads(
        spec, params, batch.inputs, batch.targets, kinds, (LossKind.JSD,))
    assert vals_one == vals
    assert len(grads_one) == 1 and np.array_equal(grads_one[0], grads[2])


@pytest.mark.parametrize("output_kind", ["linear", "softmax", "sigmoid"])
@pytest.mark.parametrize("shared_inputs", [True, False])
def test_stacked_pass_matches_each_run_alone(output_kind, shared_inputs):
    k = 1 if output_kind == "sigmoid" else 3
    spec = MLPSpec((3, 6, k), hidden_activation="relu", output_kind=output_kind)
    params = np.stack([netcore.init_params(spec, s, 0.6) for s in (1, 2, 3)])
    batches = [make_batch(k=k, seed=s) for s in ((22,) * 3 if shared_inputs else (4, 5, 6))]
    inputs = batches[0].inputs if shared_inputs else np.stack([b.inputs for b in batches])
    targets = batches[0].targets if shared_inputs else np.stack([b.targets for b in batches])
    kinds = (LossKind.CE, LossKind.MSE, LossKind.JSD)
    acts, vals, grads = netcore.term_values_and_grads(spec, params, inputs, targets, kinds)
    preds = acts[-1]
    assert preds.shape[0] == 3 and all(g.shape == params.shape for g in grads)
    for r, batch in enumerate(batches):
        a_r, v_r, g_r = netcore.term_values_and_grads(
            spec, params[r], batch.inputs, batch.targets, kinds)
        assert np.array_equal(preds[r], a_r[-1])
        assert [v[r] for v in vals] == v_r
        assert all(np.array_equal(g[r], g1) for g, g1 in zip(grads, g_r, strict=True))
        assert (loss_means(LossKind.ZERO_ONE, preds, targets)[r]
                == loss_value(LossKind.ZERO_ONE, a_r[-1], batch.targets).value)


@pytest.mark.parametrize("hidden", ["sigmoid", "tanh", "relu"])
@pytest.mark.parametrize("stacked", [False, True])
def test_shared_hidden_derivatives_give_backwards_bits(hidden, stacked):
    # two hidden layers, so every term's backward reads two shared derivatives
    spec = MLPSpec((3, 6, 5, 2), hidden_activation=hidden, output_kind="softmax")
    seeds = (1, 2, 3) if stacked else (1,)
    params = np.stack([netcore.init_params(spec, s, 0.8) for s in seeds])
    if not stacked:
        params = params[0]
    batch = make_batch(n=9, k=2, seed=31)
    kinds = (LossKind.CE, LossKind.MSE, LossKind.JSD)
    acts, _, grads = netcore.term_values_and_grads(
        spec, params, batch.inputs, batch.targets, kinds)
    for kind, grad in zip(kinds, grads, strict=True):
        want = netcore.backward(spec, params, batch,
                                loss_output_grad(kind, acts[-1], batch.targets))
        assert np.array_equal(grad, want)


def test_fan_in_and_fan_out_one_products_give_matmul_bits():
    # a fan-in-1 layer forwards a * w and the backward into a one-unit
    # output layer takes delta * w.T: one multiply per entry, as in @
    spec, x, params = spectral_net()
    (w0, b0), (w1, b1) = netcore.unpack_params(spec, params)
    a1 = netcore._sigmoid(x @ w0 + b0)
    preds = netcore._sigmoid(a1 @ w1 + b1)
    assert np.array_equal(netcore.forward(spec, params, Batch(x, preds)), preds)
    out_grad = np.random.default_rng(3).standard_normal(preds.shape)
    delta2 = out_grad * preds * (1.0 - preds)
    delta1 = (delta2 @ w1.T) * (a1 * (1.0 - a1))
    want = np.concatenate([(x.T @ delta1).ravel(), delta1.sum(axis=0),
                           (a1.T @ delta2).ravel(), delta2.sum(axis=0)])
    got = netcore.backward(spec, params, Batch(x, preds), out_grad)
    assert np.array_equal(got, want)


def test_forward_from_a_later_layer_gives_the_full_pass_bits():
    spec = MLPSpec((1, 1, 8, 2), hidden_activation="tanh", output_kind="softmax")
    params = np.stack([netcore.init_params(spec, s, 1.5) for s in (1, 2)])
    x = np.linspace(-2.0, 2.0, 13)[:, None]
    preds, (_, acts, _) = netcore._forward_cache(spec, params, x)
    for start in (1, 2):
        tail, (_, tail_acts, _) = netcore._forward_cache(spec, params, acts[start], start)
        assert np.array_equal(tail, preds) and len(tail_acts) == 4 - start
    with pytest.raises(ShapeError, match="layer 2 expects input dim 8"):
        netcore._forward_cache(spec, params, acts[1], 2)


def test_elementwise_layers_end_before_the_first_fan_in_above_one():
    assert netcore.elementwise_layers(MLPSpec((1, 200, 1), output_kind="linear")) == 1
    assert netcore.elementwise_layers(MLPSpec((1, 1, 8, 1), output_kind="linear")) == 2
    assert netcore.elementwise_layers(MLPSpec((2, 12, 2))) == 0
    # the output layer always runs again, even with fan-in 1
    assert netcore.elementwise_layers(MLPSpec((1, 1), output_kind="linear")) == 0
    assert netcore.elementwise_layers(MLPSpec((1, 1, 1), output_kind="linear")) == 1


def test_stacked_inputs_need_one_block_per_run():
    spec = MLPSpec((3, 2))
    params = np.zeros((2, spec.n_params))
    # inputs shared by every run are fine; a third block for two runs is not
    assert netcore.forward(spec, params, make_batch()).shape == (2, 6, 2)
    with pytest.raises(ShapeError, match="input blocks"):
        netcore._forward_cache(spec, params, np.zeros((3, 6, 3)))


class TestFiniteDiff:
    def test_constant_function(self):
        grad = netcore.finite_diff_grad(lambda p: 4.2, np.array([1.0, 2.0]), 1e-5)
        np.testing.assert_allclose(grad, 0.0, atol=1e-12)

    def test_quadratic(self):
        grad = netcore.finite_diff_grad(lambda p: float((p ** 2).sum()),
                                        np.array([1.0, 2.0]), 1e-5)
        np.testing.assert_allclose(grad, [2.0, 4.0], atol=1e-8)

    def test_product(self):
        grad = netcore.finite_diff_grad(lambda p: float(p[0] * p[1]),
                                        np.array([3.0, 5.0]), 1e-5)
        np.testing.assert_allclose(grad, [5.0, 3.0], atol=1e-8)

    def test_nonfinite_names_coordinate(self):
        def bad(p):
            return float("nan") if p[1] != 2.0 else 1.0

        with pytest.raises(ValueError, match="coordinate 1"):
            netcore.finite_diff_grad(bad, np.array([1.0, 2.0]), 1e-5)


class TestInit:
    def test_same_seed_identical(self):
        spec = MLPSpec((4, 3, 2))
        assert np.array_equal(netcore.init_params(spec, 7, 0.5),
                              netcore.init_params(spec, 7, 0.5))

    def test_zero_scale(self):
        spec = MLPSpec((4, 3, 2))
        assert np.all(netcore.init_params(spec, 7, 0.0) == 0.0)

    def test_different_seeds_differ(self):
        spec = MLPSpec((4, 3, 2))
        a = netcore.init_params(spec, 1, 0.5)
        b = netcore.init_params(spec, 2, 0.5)
        assert np.any(a != b)

    def test_entries_within_scale(self):
        spec = MLPSpec((10, 10, 10))
        params = netcore.init_params(spec, 9, 0.25)
        assert np.abs(params).max() <= 0.25
