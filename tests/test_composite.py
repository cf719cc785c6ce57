import itertools
import math

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from lossmix import composite, verify
from lossmix.composite import (VALUE_FLOOR, BetaWeights, Scheme, adaptive_betas,
                               composite_grad, composite_value,
                               constraint9_check, critical_p,
                               directional_curvature, dvalue_dp)
from lossmix.losses import CLAMP

# K terms in [1, 5], powers in [1, 8], term values from VALUE_FLOOR up to the
# largest clamped cross-entropy. The 1e-12 tolerances are verify's. Above
# about 1e3, one value's (v^p)^(1/p) alone can round off by more than 1e-12.
MAX_VALUE = -math.log(CLAMP)
powers = st.floats(1.0, 8.0)
norm_lists = st.lists(st.floats(0.0, allow_infinity=False), min_size=1, max_size=5)


@st.composite
def compositions(draw):
    """(values, simplex weights, p_lo <= p_hi) for a random K."""
    k = draw(st.integers(1, 5))
    values = draw(st.lists(st.floats(VALUE_FLOOR, MAX_VALUE), min_size=k, max_size=k))
    w = np.array(draw(st.lists(st.floats(0.0, 1.0), min_size=k, max_size=k)))
    w += w.sum() == 0  # all zero weights stand for equal ones
    p_lo, p_hi = sorted((draw(powers), draw(powers)))
    return values, BetaWeights(tuple(w / w.sum())), p_lo, p_hi


# verify's finite-difference domain: values in [0.1, 0.9], weights (b, 1 - b)
# with b in [0.2, 0.8], either mode
fd_values = st.lists(st.floats(0.1, 0.9), min_size=2, max_size=2).map(np.array)
fd_betas = st.floats(0.2, 0.8).map(lambda b: BetaWeights((b, 1.0 - b)))
modes = st.sampled_from(composite.MODES)


class TestBetaWeights:
    def test_simplex_enforced(self):
        with pytest.raises(ValueError, match="sum to 1"):
            BetaWeights((0.5, 0.6))
        with pytest.raises(ValueError, match="nonnegative"):
            BetaWeights((1.5, -0.5))

    def test_constructors(self):
        assert BetaWeights.uniform(4).betas == (0.25, 0.25, 0.25, 0.25)
        assert BetaWeights.one_hot(3, 1).betas == (0.0, 1.0, 0.0)


class TestValue:
    def test_worked_example(self):
        # sqrt(0.5*0.04 + 0.5*0.64)
        got = composite_value([0.2, 0.8], BetaWeights.uniform(2), 2.0)
        assert got == pytest.approx(0.5830951894845301, abs=1e-12)

    def test_p1_is_linear(self):
        got = composite_value([0.2, 0.8], BetaWeights.uniform(2), 1.0)
        assert got == 0.5

    def test_equal_values_any_p(self):
        for p in (1.0, 2.0, 3.7):
            got = composite_value([0.4, 0.4], BetaWeights((0.3, 0.7)), p)
            assert got == pytest.approx(0.4, abs=1e-15)

    def test_rejects_p_below_one(self):
        with pytest.raises(ValueError, match="below 1"):
            composite_value([0.2, 0.8], BetaWeights.uniform(2), 0.5)

    @given(compositions(), st.integers(0, 4))
    def test_one_hot_reduction_sweep(self, case, index):
        values, _, p, _ = case
        assert verify.one_hot_equals_single_loss(values, index % len(values), p)[0]


class TestGrad:
    def test_worked_scalar_example(self):
        got = composite_grad([0.5, 0.5], [np.array([1.0]), np.array([3.0])],
                             BetaWeights.uniform(2), 2.0)
        assert got[0] == pytest.approx(2.0, abs=1e-12)

    def test_p1_exact_linear(self):
        g1, g2 = np.array([1.0, -2.0]), np.array([0.5, 4.0])
        betas = BetaWeights((0.3, 0.7))
        got = composite_grad([0.4, 0.6], [g1, g2], betas, 1.0)
        np.testing.assert_array_equal(got, 0.3 * g1 + 0.7 * g2)

    @given(fd_values, fd_betas, st.floats(1.0, 4.0), modes)
    def test_matches_finite_differences(self, values, betas, p, mode):
        assert verify.gradient_matches_finite_differences(values, betas, p, mode)[0]

    def test_length_mismatch(self):
        with pytest.raises(ValueError, match="gradients"):
            composite_grad([0.2, 0.8], [np.zeros(2)], BetaWeights.uniform(2), 2.0)

    @pytest.mark.parametrize("mode", composite.MODES)
    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_bit_identical_to_np_dot_formulas(self, k, mode):
        # the value and gradient as written before the shared power-sum
        # kernel: np.dot over the floored values, with a p == 1 branch
        def reference(vals, grads, b, p):
            v = np.maximum(vals, composite.VALUE_FLOOR)
            if p == 1.0:
                return float(np.dot(b, v)), b
            m = float(np.dot(b, v ** p))
            return (float(np.dot(b, v ** p) ** (1.0 / p)),
                    m ** (1.0 / p - 1.0) * b * v ** (p - 1.0))

        rng = np.random.default_rng(40 + k)
        for trial in range(300):
            vals = rng.uniform(0.0, 1.5, k)
            vals[rng.random(k) < 0.1] = 1e-14  # below the floor
            w = rng.uniform(0.05, 1.0, k)
            betas = BetaWeights(tuple(w / w.sum()))
            b = betas.as_array() if mode == "weighted" else np.ones(k)
            p = 1.0 if trial % 5 == 0 else float(rng.uniform(1.0, 5.0))
            grads = [rng.standard_normal(4) for _ in range(k)]
            want_value, coeffs = reference(vals, grads, b, p)
            want_grad = np.zeros(4)
            for c, g in zip(coeffs, grads):
                want_grad += c * g
            assert composite_value(vals, betas, p, mode) == want_value
            np.testing.assert_array_equal(
                composite_grad(vals, grads, betas, p, mode), want_grad)


class TestAdaptiveBetas:
    def test_softmax_example(self):
        betas = adaptive_betas([1.0, 2.0])
        assert betas.betas[0] == pytest.approx(0.7310585786300049, abs=1e-12)
        assert betas.betas[1] == pytest.approx(0.2689414213699951, abs=1e-12)

    def test_equal_norms_uniform(self):
        assert adaptive_betas([3.0, 3.0, 3.0]).betas == (1 / 3, 1 / 3, 1 / 3)

    def test_paper_max_assigns_max_to_first(self):
        # the printed rule hands the larger softmax weight to the first term
        # regardless of which loss produced it
        a = adaptive_betas([1.0, 2.0], rule="paper-max")
        b = adaptive_betas([2.0, 1.0], rule="paper-max")
        assert a.betas == b.betas
        assert a.betas[0] == pytest.approx(0.7310585786300049, abs=1e-12)
        assert a.betas[0] >= 0.5

    def test_paper_max_tie(self):
        assert adaptive_betas([1.0, 1.0], rule="paper-max").betas == (0.5, 0.5)

    def test_paper_max_needs_two(self):
        with pytest.raises(ValueError, match="two"):
            adaptive_betas([1.0, 2.0, 3.0], rule="paper-max")

    def test_softmax_permutation_equivariant(self):
        rng = np.random.default_rng(6)
        norms = rng.uniform(0, 5, 4)
        perm = rng.permutation(4)
        base = np.asarray(adaptive_betas(norms).betas)
        shuffled = np.asarray(adaptive_betas(norms[perm]).betas)
        np.testing.assert_allclose(shuffled, base[perm], atol=1e-15)

    @given(norm_lists)
    def test_largest_weight_tracks_smallest_norm(self, norms):
        assert verify.adaptive_betas_on_simplex(norms)[0]

    def test_large_norms_stay_finite(self):
        betas = adaptive_betas([1e6, 1e6 + 1.0])
        assert abs(sum(betas.betas) - 1.0) <= 1e-12


class TestDvalueDp:
    def test_equal_values_zero(self):
        got = dvalue_dp([0.4, 0.4], BetaWeights.uniform(2), 2.0)
        assert got == pytest.approx(0.0, abs=1e-12)

    @given(fd_values, fd_betas, st.floats(1.2, 4.0), modes)
    @example([0.2, 0.8], BetaWeights.uniform(2), 2.0, "weighted")
    def test_matches_finite_difference(self, values, betas, p, mode):
        assert verify.dvalue_dp_matches_finite_differences(values, betas, p, mode)[0]

    def test_unweighted_negative(self):
        got = dvalue_dp([0.3, 0.4], BetaWeights.uniform(2), 2.0, "unweighted")
        assert got < 0.0


class TestConstraintNine:
    def test_worked_example(self):
        assert constraint9_check(0.5, 0.1, -0.02, 3.0)

    def test_p1_negative_curvature(self):
        assert not constraint9_check(0.5, 0.1, -0.02, 1.0)

    def test_zero_curvature_boundary(self):
        assert constraint9_check(0.5, 0.1, 0.0, 2.0)

    def test_critical_p_analytic(self):
        assert critical_p(0.5, 0.1, -0.02) == 2.0

    def test_critical_p_zero_curvature(self):
        assert critical_p(0.5, 0.1, 0.0) == 1.0

    def test_zero_gradient_rejected(self):
        with pytest.raises(ValueError, match="undefined critical"):
            critical_p(0.5, 0.0, -0.02)

    @given(st.floats(0.05, 1.0), st.floats(0.1, 2.0), st.sampled_from([-1.0, 1.0]),
           st.floats(0.01, 2.0))
    def test_flips_at_critical_p(self, L, g, sign, h):
        assert verify.constraint9_flips_at_critical_p(L, sign * g, -h)[0]


def curvature(fn, params, direction, h=1e-4):
    """directional_curvature of a one-term loss at one parameter vector."""
    def loss_fn(w):
        return np.array([[fn(row)] for row in w])

    params, direction = np.array([params]), np.array([direction])
    g, h2 = directional_curvature(loss_fn, params, direction, h, f0=loss_fn(params))
    return g[0, 0], h2[0, 0]


class TestDirectionalCurvature:
    def test_quadratic(self):
        g, h2 = curvature(lambda w: float((w ** 2).sum()), [1.0, 0.0], [1.0, 0.0])
        assert g == pytest.approx(2.0, abs=1e-6)
        assert h2 == pytest.approx(2.0, abs=1e-6)

    def test_linear_zero_curvature(self):
        g, h2 = curvature(lambda w: float(3.0 * w[0] - w[1]), [0.5, 0.5], [0.0, 1.0])
        assert g == pytest.approx(-1.0, abs=1e-6)
        assert h2 == pytest.approx(0.0, abs=1e-6)

    def test_sine(self):
        g, h2 = curvature(lambda w: float(np.sin(w[0])), [0.0], [1.0])
        assert g == pytest.approx(1.0, abs=1e-6)
        assert h2 == pytest.approx(0.0, abs=1e-6)

    def test_requires_unit_direction(self):
        with pytest.raises(ValueError, match="unit"):
            curvature(lambda w: 0.0, [1.0], [2.0])

    def test_vector_form_matches_one_term_calls(self):
        # one call over a stack of runs and a vector of terms gives each
        # entry the bits of a call for that run and term alone
        terms = [lambda w: float((w ** 2).sum()),
                 lambda w: float(np.sin(w).sum() + 1.0),
                 lambda w: float(np.exp(0.3 * w[0]) * np.cosh(w[-1]))]

        def loss_fn(w):
            return np.array([[t(row) for t in terms] for row in w])

        rng = np.random.default_rng(17)
        for _ in range(100):
            params = rng.uniform(-2.0, 2.0, (2, 3))
            d = rng.standard_normal((2, 3))
            d /= np.linalg.norm(d, axis=1, keepdims=True)
            h = float(rng.choice([1e-5, 1e-4, 1e-3]))
            g, h2 = directional_curvature(loss_fn, params, d, h, f0=loss_fn(params))
            assert g.shape == h2.shape == (2, 3)
            for r, k in itertools.product(range(2), range(3)):
                assert (g[r, k], h2[r, k]) == curvature(terms[k], params[r], d[r], h)
                # the arithmetic of Python floats
                t = terms[k]
                f_0, f_hi, f_lo = (t(params[r]), t(params[r] + h * d[r]),
                                   t(params[r] - h * d[r]))
                assert g[r, k] == (f_hi - f_lo) / (2.0 * h)
                assert h2[r, k] == (f_hi - 2.0 * f_0 + f_lo) / (h * h)

    def test_vector_form_rejects_any_nonfinite_term(self):
        def loss_fn(w):
            return np.array([[1.0, np.inf if row[0] > 0 else 1.0] for row in w])

        with pytest.raises(ValueError, match="non-finite"):
            directional_curvature(loss_fn, np.array([[0.0]]), np.array([[1.0]]),
                                  1e-4, f0=np.ones((1, 2)))


class TestScheme:
    @given(compositions())
    def test_multi_is_nonlinear_p1(self, case):
        # assert the identity at the objective level, where both are the
        # linear combination of the terms
        values, betas, _, _ = case
        assert (composite_value(values, betas, Scheme.multi().effective_p)
                == composite_value(values, betas, Scheme.nonlinear(1.0).effective_p))
        assert verify.p1_equals_linear_combination(values, betas)[0]

    def test_labels(self):
        assert Scheme.single(0).label() == "single[0]"
        assert Scheme.nonlinear(2.0).label() == "nonlinear(p=2)"

    def test_invalid_kind(self):
        with pytest.raises(ValueError):
            Scheme(kind="other")


def test_mutation_hook_flips_gradient(monkeypatch):
    vals = [0.5, 0.5]
    grads = [np.array([1.0]), np.array([3.0])]
    clean = composite_grad(vals, grads, BetaWeights.uniform(2), 2.0)
    monkeypatch.setenv(composite.MUTATE_ENV, "composite-grad-sign")
    mutated = composite_grad(vals, grads, BetaWeights.uniform(2), 2.0)
    np.testing.assert_array_equal(mutated, -clean)


@given(compositions())
def test_weighted_mean_rises_and_norm_falls_in_p(case):
    values, betas, p_lo, p_hi = case
    assert verify.weighted_power_mean_monotone_in_p(values, betas, p_lo, p_hi)[0]
    assert verify.unweighted_norm_monotone_in_p(values, p_lo, p_hi)[0]


@given(compositions())
def test_weighted_value_within_term_range(case):
    values, betas, p, _ = case
    assert verify.value_between_min_and_max(values, betas, p)[0]


@given(st.integers(1, 5).flatmap(lambda k: st.tuples(
    st.lists(st.lists(st.floats(VALUE_FLOOR, MAX_VALUE), min_size=k, max_size=k),
             min_size=1, max_size=8),
    st.lists(st.floats(0.0, 1.0), min_size=k, max_size=k))), powers)
def test_power_sum_field_has_each_vectors_bits(case, p):
    points, b = case
    field = np.array(points).T  # (terms, points)
    v, m = composite.power_sum(field, np.array(b), p)
    for j in range(field.shape[1]):
        vj, mj = composite.power_sum(field[:, j], np.array(b), p)
        assert np.array_equal(vj, v[:, j])
        assert mj.tobytes() == m[j].tobytes()


@given(norm_lists)
def test_adaptive_betas_keep_the_shifted_exp_formula(norms):
    n = np.asarray(norms)
    e = np.exp(-(n - n.min()))  # the formula adaptive_betas had before softmax
    assert adaptive_betas(norms).betas == tuple((e / e.sum()).tolist())
