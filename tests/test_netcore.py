import importlib.machinery
import os
import subprocess
import sys
from dataclasses import replace
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

import lossmix
from lossmix import netcore
from lossmix.losses import LossKind, loss_means, loss_output_grad, loss_value
from lossmix.netcore import Batch, MLPSpec


def make_batch(n=6, d=3, k=2, seed=0):
    rng = np.random.default_rng(seed)
    inputs = rng.standard_normal((n, d))
    targets = np.zeros((n, k))
    targets[np.arange(n), rng.integers(0, k, n)] = 1.0
    return Batch(inputs=inputs, targets=targets)


def weights_and_biases(spec, params):
    """Each layer's (w, b), the rows of its unpack_params block [w; b]."""
    return [(wb[..., :-1, :], wb[..., -1, :]) for wb in netcore.unpack_params(spec, params)]


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
        (w0, b0), (w1, b1) = weights_and_biases(spec, params)
        want = expit(expit(batch.inputs @ w0 + b0) @ w1 + b1)
        assert np.array_equal(netcore.forward(spec, params, batch), want)
        # the spectral shape, a 256 x 200 pre-activation: there the plain
        # formula 1/(1+exp(-z)) misses expit's bits in about 2% of entries,
        # and the spectral reference digests depend on those bits
        wide, x, params = spectral_net()
        (w0, b0), _ = weights_and_biases(wide, params)
        z = x @ w0 + b0
        _, (_, acts) = netcore._forward_cache(wide, params, x)
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
        with pytest.raises(ValueError, match="layer 0"):
            netcore.forward(spec, np.zeros(spec.n_params), batch)

    def test_param_length_checked(self):
        spec = MLPSpec((3, 2))
        with pytest.raises(ValueError, match="length"):
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
        with pytest.raises(ValueError, match="output gradient shape"):
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
    assert vals.shape == (3,) and grads.shape == (3, spec.n_params)
    for kind, value, grad in zip(kinds, vals, grads, strict=True):
        assert value == loss_value(kind, want_preds, batch.targets).value
        want = netcore.backward(spec, params, batch,
                                loss_output_grad(kind, want_preds, batch.targets))
        assert np.array_equal(grad, want)
    # values of every term, a gradient for the listed ones only
    _, vals_one, grads_one = netcore.term_values_and_grads(
        spec, params, batch.inputs, batch.targets, kinds, (LossKind.JSD,))
    assert np.array_equal(vals_one, vals)
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
    assert preds.shape[0] == 3 and vals.shape == (3, 3)
    assert grads.shape == (3,) + params.shape
    for r, batch in enumerate(batches):
        a_r, v_r, g_r = netcore.term_values_and_grads(
            spec, params[r], batch.inputs, batch.targets, kinds)
        assert np.array_equal(preds[r], a_r[-1])
        assert np.array_equal(vals[r], v_r)
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


@pytest.mark.parametrize("output_kind", netcore.OUTPUT_KINDS)
@pytest.mark.parametrize("hidden", netcore.HIDDEN_ACTIVATIONS)
def test_passes_write_into_no_array_of_the_caller(hidden, output_kind):
    # the passes build their temporaries in place; a linear head takes the
    # output gradient itself as its top delta, so a write there is the
    # caller's array. Bytes are compared, so even a sign of zero counts.
    k = 1 if output_kind == "sigmoid" else 2
    spec = MLPSpec((3, 6, 5, k), hidden_activation=hidden, output_kind=output_kind)
    batch = make_batch(n=9, k=k, seed=41)
    kinds = (LossKind.CE, LossKind.MSE, LossKind.JSD)
    for params in (netcore.init_params(spec, 1, 0.8),
                   np.stack([netcore.init_params(spec, s, 0.8) for s in (1, 2)])):
        out_grad = np.random.default_rng(42).standard_normal(params.shape[:-1] + (9, k))
        given = (params, batch.inputs, batch.targets, out_grad)
        kept = [a.tobytes() for a in given]
        acts, _, _ = netcore.term_values_and_grads(spec, params, batch.inputs,
                                                   batch.targets, kinds)
        _, (_, fresh) = netcore._forward_cache(spec, params, batch.inputs)
        assert [a.tobytes() for a in acts] == [a.tobytes() for a in fresh]
        _, cache = netcore._forward_cache(spec, params, batch.inputs)
        before = [a.tobytes() for a in cache[1]]
        netcore._backward_from_cache(spec, cache, [out_grad, out_grad])
        assert [a.tobytes() for a in cache[1]] == before
        netcore.backward(spec, params, batch, out_grad)
        assert [a.tobytes() for a in given] == kept


def test_fan_in_and_fan_out_one_products_give_matmul_bits(monkeypatch):
    # a fan-in-1 layer forwards one GEMM [a, 1] @ [w; b] and the backward
    # into a one-unit output layer is one GEMM [delta, 0] @ [w.T; 0]: the
    # bits of x @ w, then + b, and of delta @ w.T, byte for byte, for lone
    # params and for each run of a stack
    spec, x, params = spectral_net()
    stack = np.stack([params] + [netcore.init_params(spec, s, 3.0) for s in (2, 3)])
    out_grad = np.random.default_rng(3).standard_normal((3, 256, 1))
    out_grad[:, :8] = 0.0  # zero deltas against every output weight, negative ones too
    deltas = []  # the delta whose bias gradient each layer takes, top layer first
    bias_grad = netcore._bias_grad
    monkeypatch.setattr(netcore, "_bias_grad", lambda d: deltas.append(d) or bias_grad(d))

    def reference(p, g):
        (w0, b0), (w1, b1) = weights_and_biases(spec, p)
        a1 = netcore._sigmoid(x @ w0 + b0)
        preds = netcore._sigmoid(a1 @ w1 + b1)
        delta2 = g * preds * (1.0 - preds)
        delta1 = (delta2 @ w1.T) * (a1 * (1.0 - a1))
        grad = np.concatenate([(x.T @ delta1).ravel(), delta1.sum(axis=0),
                               (a1.T @ delta2).ravel(), delta2.sum(axis=0)])
        return preds, grad, delta1

    want = [reference(p, g) for p, g in zip(stack, out_grad)]
    # @ makes +0 of a zero delta times a negative weight; a broadcast, -0
    assert not np.signbit(want[0][2][:8]).any()
    batch = Batch(x, np.zeros((256, 1)))
    lone = [(p, g, [w]) for p, g, w in zip(stack, out_grad, want)]
    for p, g, runs in lone + [(stack, out_grad, want)]:
        deltas.clear()
        preds = netcore.forward(spec, p, batch)
        grad = netcore.backward(spec, p, batch, g)
        assert preds.tobytes() == np.stack([w[0] for w in runs]).reshape(preds.shape).tobytes()
        assert grad.tobytes() == np.stack([w[1] for w in runs]).reshape(grad.shape).tobytes()
        assert deltas[1].tobytes() == np.stack([w[2] for w in runs]).reshape(
            deltas[1].shape).tobytes()

    # a non-finite delta row is exactly as finite, value for value, as under @
    bad = out_grad[0].copy()
    bad[8], bad[9] = np.inf, np.nan
    with np.errstate(invalid="ignore"):  # the gradient sums inf - inf
        _, _, delta1 = reference(params, bad)
        deltas.clear()
        netcore.backward(spec, params, batch, bad)
    assert not np.isfinite(delta1[8:10]).any() and np.isfinite(delta1[10:]).all()
    assert np.array_equal(deltas[1], delta1, equal_nan=True)

    # the bias is added after the product is rounded: where one rounding,
    # round(a * w + b), differs from two, a fused kernel would miss. A relu
    # layer keeps its positive pre-activations, bit for bit.
    relu = MLPSpec((1, 200, 2), hidden_activation="relu", output_kind="linear")
    p = np.random.default_rng(7).standard_normal(relu.n_params)
    (w0, b0), _ = weights_and_biases(relu, p)
    z = x @ w0 + b0
    _, (_, acts) = netcore._forward_cache(relu, p, x)
    assert acts[1].tobytes() == np.maximum(z, 0.0).tobytes()
    rows, cols = np.nonzero(z > 0)
    once = [float(Fraction(x[i, 0]) * Fraction(w0[0, j]) + Fraction(b0[j]))
            for i, j in zip(rows[:500], cols[:500])]
    assert (np.array(once) != z[rows[:500], cols[:500]]).sum() > 50


def tail_net(spec, params, start):
    """The layers from start on as a net of their own, and their params."""
    tail = replace(spec, layer_widths=spec.layer_widths[start:])
    return tail, params[..., -tail.n_params:]


def test_forward_from_a_later_layer_gives_the_full_pass_bits():
    spec = MLPSpec((1, 1, 8, 2), hidden_activation="tanh", output_kind="softmax")
    params = np.stack([netcore.init_params(spec, s, 1.5) for s in (1, 2)])
    x = np.linspace(-2.0, 2.0, 13)[:, None]
    preds, (_, acts) = netcore._forward_cache(spec, params, x)
    for start in (1, 2):
        tail, (_, tail_acts) = netcore._forward_cache(*tail_net(spec, params, start),
                                                      acts[start])
        assert np.array_equal(tail, preds) and len(tail_acts) == 4 - start
    with pytest.raises(ValueError, match="layer 0 expects input dim 8"):
        netcore._forward_cache(*tail_net(spec, params, 2), acts[1])


@pytest.mark.parametrize("widths", [(2, 12, 2), (1, 200, 1), (1, 1, 8, 1), (1, 1, 1)])
@pytest.mark.parametrize("stacked", [False, True])
def test_tail_net_on_shuffled_rows_gives_the_full_pass_bits(widths, stacked):
    # nets with 0, 1 and 2 leading fan-in-1 layers, and one whose output
    # layer has fan-in 1 too: from a pass over the rows in another order,
    # predictions_in_data_order gives a forward's bits in data order, at n
    # with and without OpenBLAS's 4-row tail
    spec = MLPSpec(widths, hidden_activation="sigmoid", output_kind="sigmoid")
    params = np.stack([netcore.init_params(spec, s, 1.5) for s in (1, 2, 3)])
    if not stacked:
        params = params[0]
    rng = np.random.default_rng(5)
    for n in (37, 255, 256):
        x = rng.standard_normal((n, widths[0]))
        orders = np.stack([rng.permutation(n) for _ in range(3)])
        orders = orders if stacked else orders[0]
        _, (_, acts) = netcore._forward_cache(spec, params, x[orders])
        got = netcore.predictions_in_data_order(spec, params, acts, orders)
        want = netcore.forward(spec, params, Batch(x, np.zeros((n, widths[-1]))))
        assert np.array_equal(got, want)


def test_unpack_params_blocks_are_views_of_the_flat_layout():
    # each layer's weights, row by row, then its biases: the blocks
    # concatenate back to the params, and a write through one lands there
    spec = MLPSpec((3, 5, 2))
    for params in (netcore.init_params(spec, 1, 1.0),
                   np.stack([netcore.init_params(spec, s, 1.0) for s in (1, 2)])):
        blocks = netcore.unpack_params(spec, params)
        lead = params.shape[:-1]
        assert [b.shape for b in blocks] == [lead + (4, 5), lead + (6, 2)]
        flat = np.concatenate([b.reshape(lead + (-1,)) for b in blocks], axis=-1)
        assert flat.tobytes() == params.tobytes()
        blocks[1][..., -1, :] = 7.0  # the output biases, the last entries
        assert (params[..., -2:] == 7.0).all() and (params[..., :-2] != 7.0).all()


@pytest.mark.parametrize("output_kind", netcore.OUTPUT_KINDS)
@pytest.mark.parametrize("stacked", [False, True])
def test_one_k_term_backward_gives_k_one_term_bits(output_kind, stacked):
    k = 1 if output_kind == "sigmoid" else 2
    spec = MLPSpec((3, 6, 5, k), hidden_activation="tanh", output_kind=output_kind)
    params = np.stack([netcore.init_params(spec, s, 0.8) for s in (1, 2)])
    if not stacked:
        params = params[0]
    batch = make_batch(n=9, k=k, seed=51)
    out_grads = np.random.default_rng(52).standard_normal(
        (3,) + params.shape[:-1] + (9, k))
    _, cache = netcore._forward_cache(spec, params, batch.inputs)
    grads = netcore._backward_from_cache(spec, cache, out_grads)
    assert grads.shape == (3,) + params.shape
    for g, grad in zip(out_grads, grads, strict=True):
        (one,) = netcore._backward_from_cache(spec, cache, [g])
        assert grad.tobytes() == one.tobytes()


def test_no_term_takes_no_derivative(monkeypatch):
    spec = MLPSpec((3, 6, 5, 2), hidden_activation="tanh")
    params = np.stack([netcore.init_params(spec, s, 0.8) for s in (1, 2)])
    _, cache = netcore._forward_cache(spec, params, make_batch().inputs)
    derivs = []
    monkeypatch.setattr(netcore, "_hidden_deriv", lambda *a: derivs.append(a))
    assert netcore._backward_from_cache(spec, cache, []).shape == (0, 2, spec.n_params)
    assert derivs == []


def test_stacked_inputs_need_one_block_per_run():
    spec = MLPSpec((3, 2))
    params = np.zeros((2, spec.n_params))
    # inputs shared by every run are fine; a third block for two runs is not
    assert netcore.forward(spec, params, make_batch()).shape == (2, 6, 2)
    with pytest.raises(ValueError, match="input blocks"):
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
