import math

import numpy as np
import pytest

from lossmix import data, netcore, optim, pacbayes
from lossmix.losses import LossKind, loss_value
from lossmix.netcore import MLPSpec
from lossmix.pacbayes import (BoundParams, GaussianPosterior, GaussianPrior,
                              bernoulli_kl, dp_pac_bound, empirical_risk,
                              kl_gaussians, kl_inverse, linear_pac_bound,
                              risk_certificate)


class TestBoundParams:
    def test_lambda_regime_enforced(self):
        with pytest.raises(ValueError, match="1/2"):
            BoundParams(lam=0.5, l_max=1.0, delta=0.1, m=10)
        with pytest.raises(ValueError, match="1/2"):
            BoundParams(lam=0.2, l_max=1.0, delta=0.1, m=10)
        BoundParams(lam=0.50001, l_max=1.0, delta=0.1, m=10)

    def test_m_at_least_two(self):
        with pytest.raises(ValueError, match="m"):
            BoundParams(lam=1.0, l_max=1.0, delta=0.1, m=1)


class TestGaussianKL:
    def test_equal_distributions(self):
        q = GaussianPosterior(mean=np.zeros(3), sigma=1.0)
        p = GaussianPrior(lambda_p=1.0)
        assert kl_gaussians(q, p) == 0.0

    def test_unit_shift(self):
        q = GaussianPosterior(mean=np.array([1.0]), sigma=1.0)
        p = GaussianPrior(lambda_p=1.0)
        assert kl_gaussians(q, p) == pytest.approx(0.5, abs=1e-15)

    def test_matches_mc_oracle(self):
        d = 4
        q = GaussianPosterior(mean=np.linspace(-0.5, 1.0, d), sigma=0.7)
        p = GaussianPrior(lambda_p=1.2)
        closed = kl_gaussians(q, p)
        rng = np.random.default_rng(0)
        n = 100_000
        w = q.mean + q.sigma * rng.standard_normal((n, d))
        log_ratio = ((-0.5 * ((w - q.mean) / q.sigma) ** 2).sum(1)
                     - d * math.log(q.sigma)
                     - ((-0.5 * (w / p.lambda_p) ** 2).sum(1)
                        - d * math.log(p.lambda_p)))
        mc = float(log_ratio.mean())
        se = float(log_ratio.std(ddof=1) / math.sqrt(n))
        assert abs(mc - closed) <= 3 * se


class TestEmpiricalRisk:
    def setup_method(self):
        self.spec = MLPSpec((2, 6, 2), output_kind="softmax")
        self.data = data.two_moons(60, 0.1, seed=1)
        self.mean = netcore.init_params(self.spec, 2, 0.5)

    def test_point_mass_limit(self):
        q = GaussianPosterior(mean=self.mean, sigma=1e-12)
        est = empirical_risk(q, self.spec, self.data, 20, seed=3)
        preds = netcore.forward(self.spec, self.mean, self.data.as_batch())
        from lossmix.losses import loss_value
        exact = loss_value(LossKind.ZERO_ONE, preds, self.data.targets).value
        assert est.value == pytest.approx(exact, abs=1e-6)

    def test_zero_one_range(self):
        q = GaussianPosterior(mean=self.mean, sigma=0.5)
        est = empirical_risk(q, self.spec, self.data, 30, seed=4)
        assert 0.0 <= est.value <= 1.0

    def test_se_shrinks_with_samples(self):
        q = GaussianPosterior(mean=self.mean, sigma=0.5)
        ratios = []
        for seed in range(5, 10):
            small = empirical_risk(q, self.spec, self.data, 200, seed=seed)
            large = empirical_risk(q, self.spec, self.data, 400, seed=seed + 50)
            ratios.append(large.std_error / small.std_error)
        assert abs(float(np.mean(ratios)) - 1 / math.sqrt(2)) <= 0.2

    def test_deterministic(self):
        q = GaussianPosterior(mean=self.mean, sigma=0.3)
        a = empirical_risk(q, self.spec, self.data, 25, seed=11)
        b = empirical_risk(q, self.spec, self.data, 25, seed=11)
        assert a == b

    @pytest.mark.parametrize("n_samples", ["one", "two", "past-one-stack"])
    def test_same_bits_as_one_forward_per_draw(self, n_samples):
        chunk = optim.stack_size(self.spec, self.data, self.data)
        n = {"one": 1, "two": 2, "past-one-stack": 2 * chunk + 3}[n_samples]
        q = GaussianPosterior(mean=self.mean, sigma=0.5)
        rng = np.random.default_rng(12)
        batch = self.data.as_batch()
        draws = np.array([
            loss_value(LossKind.ZERO_ONE, netcore.forward(self.spec, q.sample(rng), batch),
                       self.data.targets).value
            for _ in range(n)])
        se = float(draws.std(ddof=1) / math.sqrt(n)) if n > 1 else 0.0
        est = empirical_risk(q, self.spec, self.data, n, seed=12)
        assert (est.value, est.std_error) == (float(draws.mean()), se)

    def test_non_finite_predictions_rejected(self):
        mean = self.mean.copy()
        mean[0] = np.nan
        q = GaussianPosterior(mean=mean, sigma=0.1)
        with pytest.raises(ValueError, match="non-finite"):
            empirical_risk(q, self.spec, self.data, 3, seed=0)

    @pytest.mark.parametrize("width", [6, 600])
    def test_draws_go_through_netcore_in_stacks(self, monkeypatch, width):
        # the stack is as tall as a training stack on this dataset: at width
        # 600 that is one run, so each draw has a forward of its own
        spec = MLPSpec((2, width, 2), output_kind="softmax")
        chunk = optim.stack_size(spec, self.data, self.data)
        assert (chunk == 1) == (width == 600)
        heights = []
        forward = netcore.forward

        def counted(spec, params, batch):
            heights.append(len(params))
            return forward(spec, params, batch)

        monkeypatch.setattr(netcore, "forward", counted)
        q = GaussianPosterior(mean=netcore.init_params(spec, 2, 0.5), sigma=0.1)
        empirical_risk(q, spec, self.data, 2 * chunk + 1, seed=0)
        assert heights == [chunk, chunk, 1]


class TestBounds:
    def test_linear_monotone(self):
        params = BoundParams(lam=1.0, l_max=1.0, delta=0.1, m=100)
        kls = np.linspace(0, 10, 15)
        bounds = [linear_pac_bound(0.2, k, params) for k in kls]
        assert all(b > a for a, b in zip(bounds, bounds[1:]))
        risks = np.linspace(0, 1, 15)
        bounds = [linear_pac_bound(r, 1.0, params) for r in risks]
        assert all(b > a for a, b in zip(bounds, bounds[1:]))

    def test_dp_branch_switch_and_continuity(self):
        delta, m = 0.05, 400
        eps_star = math.sqrt(math.log(3.0 / delta) / m)
        below = dp_pac_bound(1.0, BoundParams(lam=1.0, l_max=1.0, delta=delta,
                                              m=m, eps_dp=eps_star * 0.5))
        above = dp_pac_bound(1.0, BoundParams(lam=1.0, l_max=1.0, delta=delta,
                                              m=m, eps_dp=eps_star * 2.0))
        assert above > below  # the privacy branch takes over
        near_lo = dp_pac_bound(1.0, BoundParams(lam=1.0, l_max=1.0, delta=delta,
                                                m=m, eps_dp=eps_star * (1 - 1e-9)))
        near_hi = dp_pac_bound(1.0, BoundParams(lam=1.0, l_max=1.0, delta=delta,
                                                m=m, eps_dp=eps_star * (1 + 1e-9)))
        assert abs(near_hi - near_lo) <= 1e-9

    def test_dp_monotone(self):
        kls = np.linspace(0, 20, 10)
        params = BoundParams(lam=1.0, l_max=1.0, delta=0.1, m=100)
        bounds = [dp_pac_bound(k, params) for k in kls]
        assert all(b > a for a, b in zip(bounds, bounds[1:]))
        ms = [10, 100, 1000]
        by_m = [dp_pac_bound(5.0, BoundParams(lam=1.0, l_max=1.0, delta=0.1, m=m))
                for m in ms]
        assert all(b < a for a, b in zip(by_m, by_m[1:]))


class TestBernoulliKL:
    def test_worked_example(self):
        assert bernoulli_kl(0.1, 0.3) == pytest.approx(0.1163217565860046,
                                                       abs=1e-9)

    def test_zero_budget(self):
        assert kl_inverse(0.3, 0.0) == 0.3

    def test_zero_risk_closed_form(self):
        assert kl_inverse(0.0, 0.1) == pytest.approx(0.09516258196404048,
                                                     abs=1e-9)

    def test_inverse_at_least_q(self):
        rng = np.random.default_rng(13)
        for _ in range(100):
            q = float(rng.uniform(0, 1))
            c = float(rng.uniform(0, 2))
            assert kl_inverse(q, c) >= q


class TestBisect:
    """pacbayes._bisect must be scipy.optimize.bisect, bit for bit."""

    P_MAX = 1.0 - 1e-15  # kl_inverse's upper end

    def pairs(self):
        rng = np.random.default_rng(21)
        n = 2200
        qs = np.concatenate([
            rng.uniform(0, 1, n),
            np.zeros(n // 4),
            1.0 - 10.0 ** rng.uniform(-14.9, -1, n),
            [1.0 - 2e-15, 1.0 - 5e-15, 1.0 - 1e-14]])
        for q in qs:
            for c in 10.0 ** rng.uniform(-12, math.log10(5.0), 3):
                yield float(q), float(c)

    def test_same_bits_as_scipy(self):
        from scipy.optimize import bisect
        reached = 0
        for q, c in self.pairs():
            if q >= self.P_MAX or bernoulli_kl(q, self.P_MAX) <= c:
                continue  # kl_inverse answers without bisecting
            reached += 1
            def f(p):
                return bernoulli_kl(q, p) - c
            lo = q if q > 0 else 1e-300
            want = bisect(f, lo, self.P_MAX, xtol=1e-12)
            got = pacbayes._bisect(f, lo, self.P_MAX, xtol=1e-12)
            assert got.hex() == float(want).hex(), (q, c)
            assert kl_inverse(q, c) == got
        assert reached >= 10_000

    @pytest.mark.parametrize("f, error", [
        (lambda x: math.nan, ValueError),  # NaN value
        (lambda x: x + 1.0, ValueError),   # same sign at both ends
    ])
    def test_raises_what_scipy_raises(self, f, error):
        from scipy.optimize import bisect
        with pytest.raises(error):
            bisect(f, 0.0, 1.0, xtol=1e-12)
        with pytest.raises(error):
            pacbayes._bisect(f, 0.0, 1.0, xtol=1e-12)

    def test_no_convergence_raises(self):
        from scipy.optimize import bisect
        # 100 halvings of [-1e300, 1e300] leave an interval far above xtol
        for solve in (bisect, pacbayes._bisect):
            with pytest.raises(RuntimeError, match="Failed to converge"):
                solve(lambda x: x - 0.1, -1e300, 1e300, xtol=1e-300)

    def test_root_at_an_end(self):
        assert pacbayes._bisect(lambda x: x, 0.0, 1.0, xtol=1e-12) == 0.0
        assert pacbayes._bisect(lambda x: x - 1.0, 0.0, 1.0, xtol=1e-12) == 1.0


class TestCertificate:
    def setup_method(self):
        self.spec = MLPSpec((2, 6, 2), output_kind="softmax")
        self.data = data.two_moons(80, 0.1, seed=14)
        self.mean = netcore.init_params(self.spec, 15, 0.5)
        self.params = BoundParams(lam=1.0, l_max=1.0, delta=0.05, m=self.data.n,
                                  eps_dp=0.01)

    def test_upper_bound_dominates_empirical(self):
        q = GaussianPosterior(mean=self.mean, sigma=0.2)
        cert = risk_certificate(q, GaussianPrior(lambda_p=1.0), self.spec,
                                self.data, self.params, n_samples=30, seed=16)
        assert cert.risk_upper >= cert.emp_risk
        assert cert.dp_bound > 0

    def test_perfect_classifier_composition(self):
        # emp risk 0 with kl 0 collapses to the inverse of the pure slack term
        slack = dp_pac_bound(0.0, self.params)
        assert kl_inverse(0.0, slack) == pytest.approx(1.0 - math.exp(-slack),
                                                       abs=1e-9)

    def test_deterministic(self):
        q = GaussianPosterior(mean=self.mean, sigma=0.2)
        a = risk_certificate(q, GaussianPrior(lambda_p=1.0), self.spec,
                             self.data, self.params, n_samples=20, seed=17)
        b = risk_certificate(q, GaussianPrior(lambda_p=1.0), self.spec,
                             self.data, self.params, n_samples=20, seed=17)
        assert a == b

    def test_json_fields(self):
        q = GaussianPosterior(mean=self.mean, sigma=0.2)
        cert = risk_certificate(q, GaussianPrior(lambda_p=1.0), self.spec,
                                self.data, self.params, n_samples=10, seed=18)
        assert set(cert.to_json_dict()) == {"emp_risk", "emp_se", "kl_q_p", "m",
                                            "delta", "eps_dp", "dp_bound",
                                            "risk_upper"}
