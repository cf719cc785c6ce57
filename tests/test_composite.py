import numpy as np
import pytest

from lossmix import composite
from lossmix.composite import (BetaWeights, Scheme, adaptive_betas,
                               composite_grad, composite_value,
                               constraint9_check, critical_p,
                               directional_curvature, dvalue_dp)
from lossmix.netcore import finite_diff_grad


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

    def test_one_hot_reduction_sweep(self):
        rng = np.random.default_rng(1)
        for _ in range(1000):
            vals = rng.uniform(0.02, 0.98, 3)
            idx = int(rng.integers(0, 3))
            p = float(rng.choice([1.0, 1.5, 2.0, 3.0, 4.0]))
            got = composite_value(vals, BetaWeights.one_hot(3, idx), p)
            assert abs(got - vals[idx]) <= 1e-12

    def test_unweighted_monotone_down_and_subadditive(self):
        rng = np.random.default_rng(3)
        betas = BetaWeights.uniform(2)
        for _ in range(1000):
            vals = rng.uniform(0.02, 0.98, 2)
            p_lo, p_hi = sorted(rng.uniform(1.0, 6.0, 2))
            lo = composite_value(vals, betas, p_lo, "unweighted")
            hi = composite_value(vals, betas, p_hi, "unweighted")
            assert hi <= lo + 1e-12
            assert hi <= vals.sum() + 1e-12

    def test_bounds(self):
        rng = np.random.default_rng(4)
        for _ in range(200):
            vals = rng.uniform(0.02, 0.98, 3)
            w = rng.uniform(0.05, 1.0, 3)
            betas = BetaWeights(tuple(w / w.sum()))
            got = composite_value(vals, betas, float(rng.uniform(1, 6)))
            assert vals.min() - 1e-12 <= got <= vals.max() + 1e-12


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

    def test_matches_finite_differences(self):
        rng = np.random.default_rng(5)
        eye = [np.array([1.0, 0.0]), np.array([0.0, 1.0])]
        for _ in range(100):
            vals = rng.uniform(0.1, 0.9, 2)
            b1 = rng.uniform(0.2, 0.8)
            betas = BetaWeights((b1, 1.0 - b1))
            p = float(rng.choice([1.0, 1.5, 2.0, 3.0, 4.0]))
            mode = str(rng.choice(["weighted", "unweighted"]))
            analytic = composite_grad(vals, eye, betas, p, mode)
            numeric = finite_diff_grad(
                lambda v: composite_value(v, betas, p, mode), vals, 1e-5)
            for a, num in zip(analytic, numeric):
                assert abs(a - num) <= 1e-8 * max(abs(num), abs(a))

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

    def test_largest_weight_tracks_smallest_norm(self):
        rng = np.random.default_rng(7)
        for _ in range(100):
            norms = rng.uniform(0, 10, int(rng.integers(2, 6)))
            betas = adaptive_betas(norms)
            assert int(np.argmax(betas.as_array())) == int(np.argmin(norms))

    def test_large_norms_stay_finite(self):
        betas = adaptive_betas([1e6, 1e6 + 1.0])
        assert abs(sum(betas.betas) - 1.0) <= 1e-12


class TestDvalueDp:
    def test_equal_values_zero(self):
        got = dvalue_dp([0.4, 0.4], BetaWeights.uniform(2), 2.0)
        assert got == pytest.approx(0.0, abs=1e-12)

    def test_matches_finite_difference(self):
        got = dvalue_dp([0.2, 0.8], BetaWeights.uniform(2), 2.0)

        def f(p):
            return composite_value([0.2, 0.8], BetaWeights.uniform(2), p)

        num = (f(2.0 + 1e-6) - f(2.0 - 1e-6)) / 2e-6
        assert got == pytest.approx(num, abs=1e-8)

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


class TestDirectionalCurvature:
    def test_quadratic(self):
        g, h2 = directional_curvature(lambda w: float((w ** 2).sum()),
                                      np.array([1.0, 0.0]),
                                      np.array([1.0, 0.0]), 1e-4)
        assert g == pytest.approx(2.0, abs=1e-6)
        assert h2 == pytest.approx(2.0, abs=1e-6)

    def test_linear_zero_curvature(self):
        g, h2 = directional_curvature(lambda w: float(3.0 * w[0] - w[1]),
                                      np.array([0.5, 0.5]),
                                      np.array([0.0, 1.0]), 1e-4)
        assert g == pytest.approx(-1.0, abs=1e-6)
        assert h2 == pytest.approx(0.0, abs=1e-6)

    def test_sine(self):
        g, h2 = directional_curvature(lambda w: float(np.sin(w[0])),
                                      np.array([0.0]), np.array([1.0]), 1e-4)
        assert g == pytest.approx(1.0, abs=1e-6)
        assert h2 == pytest.approx(0.0, abs=1e-6)

    def test_requires_unit_direction(self):
        with pytest.raises(ValueError, match="unit"):
            directional_curvature(lambda w: 0.0, np.array([1.0]),
                                  np.array([2.0]), 1e-4)


class TestScheme:
    def test_multi_is_nonlinear_p1(self):
        # assert the identity at the objective level
        rng = np.random.default_rng(9)
        for _ in range(50):
            vals = rng.uniform(0.05, 0.95, 2)
            b1 = rng.uniform(0.1, 0.9)
            betas = BetaWeights((b1, 1.0 - b1))
            multi = composite_value(vals, betas, Scheme.multi().effective_p)
            non1 = composite_value(vals, betas, Scheme.nonlinear(1.0).effective_p)
            assert multi == non1

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
