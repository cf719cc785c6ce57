import math
from dataclasses import asdict

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from lossmix import data, netcore, optim, verify
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
        q = GaussianPosterior(mean=np.linspace(-0.5, 1.0, 4), sigma=0.7)
        assert verify.gaussian_kl_matches_mc(q, GaussianPrior(lambda_p=1.2), 0)[0]


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
        # continuity at eps_star: verify's pacbayes.dp_bound_branch_continuous


class TestBernoulliKL:
    def test_worked_example(self):
        assert bernoulli_kl(0.1, 0.3) == pytest.approx(0.1163217565860046,
                                                       abs=1e-9)

    def test_zero_budget(self):
        assert kl_inverse(0.3, 0.0) == 0.3

    def test_zero_risk_closed_form(self):
        assert kl_inverse(0.0, 0.1) == pytest.approx(0.09516258196404048,
                                                     abs=1e-9)

    # verify's domain: q in [0, 0.9] and p in [q + 0.01, 0.99]
    @given(st.floats(0.0, 0.9).flatmap(
        lambda q: st.tuples(st.just(q), st.floats(q + 0.01, 0.99))))
    def test_inversion_roundtrip(self, qp):
        assert verify.bernoulli_kl_inversion_roundtrip(*qp)[0]

    def test_inverse_at_least_q(self):
        rng = np.random.default_rng(13)
        for _ in range(100):
            q = float(rng.uniform(0, 1))
            c = float(rng.uniform(0, 2))
            assert kl_inverse(q, c) >= q


class TestBisect:
    """kl_inverse's bisection must be scipy.optimize.bisect's, bit for bit."""

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
            want = bisect(lambda p: bernoulli_kl(q, p) - c, q if q > 0 else 1e-300,
                          self.P_MAX, xtol=1e-12)
            assert kl_inverse(q, c).hex() == float(want).hex(), (q, c)
        assert reached >= 10_000

    def test_nan_budget_raises(self):
        # scipy's bisect raised on the NaN it would bisect; the budget check
        # now rejects it before any step
        with pytest.raises(ValueError, match="kl budget"):
            kl_inverse(0.3, math.nan)


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
        assert set(asdict(cert)) == {"emp_risk", "emp_se", "kl_q_p", "m",
                                            "delta", "eps_dp", "dp_bound",
                                            "risk_upper"}
