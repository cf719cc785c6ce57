import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from lossmix import analysis, composite, data, netcore, optim, verify
from lossmix.analysis import (Grid, GridField, boltzmann, box_sharpness, default_kl_testbed,
                              generalized_entropy, gibbs_divergence, kl_divergence,
                              scheme_kl_report, sharpness, sharpness_sweep)
from lossmix.composite import VALUE_FLOOR, BetaWeights, Scheme
from lossmix.losses import CLAMP, LossKind, loss_value
from lossmix.netcore import Batch, MLPSpec


def line_grid(lo=-3.0, hi=3.0, points=601):
    return Grid(lo, hi, points)


class TestGrid:
    def test_validation(self):
        with pytest.raises(ValueError, match="bounds"):
            Grid(1.0, 0.0, 11)
        with pytest.raises(ValueError, match="n_points"):
            Grid(0.0, 1.0, 2)
        with pytest.raises(ValueError, match="budget"):
            Grid(0.0, 1.0, analysis.MAX_GRID_POINTS + 1)

    def test_field_length_checked(self):
        with pytest.raises(ValueError, match="values"):
            GridField(line_grid(points=11), np.zeros(10))


class TestBoltzmann:
    def test_constant_field_uniform(self):
        grid = line_grid(points=101)
        res = boltzmann(GridField(grid, np.full(101, 2.5)), 1.0)
        np.testing.assert_allclose(res.density.values,
                                   res.density.values[0], atol=1e-15)
        assert res.density.is_density()

    def test_quadratic_symmetric_peak(self):
        grid = line_grid(points=601)
        x = grid.axis()
        res = boltzmann(GridField(grid, x ** 2), 1.0)
        dens = res.density.values
        assert np.argmax(dens) == 300
        np.testing.assert_allclose(dens, dens[::-1], atol=1e-12)

    @given(arrays(np.float64, st.integers(3, 301), elements=st.floats(-2.0, 4.0)),
           st.floats(0.2, 8.0))
    def test_normalization_random_fields(self, values, temperature):
        field = GridField(line_grid(points=len(values)), values)
        assert verify.densities_normalized(field, temperature)[0]

    def test_extreme_field_survives_shifting(self):
        grid = line_grid(points=101)
        x = grid.axis()
        res = boltzmann(GridField(grid, 500.0 * x ** 2), 10.0)
        assert res.density.is_density()
        assert np.isfinite(res.log_z)


class TestKLDivergence:
    def test_self_zero(self):
        grid = line_grid(points=201)
        p = boltzmann(GridField(grid, grid.axis() ** 2), 1.0).density
        assert kl_divergence(p, p) == 0.0

    @given(arrays(np.float64, st.tuples(st.just(2), st.integers(3, 101)),
                  elements=st.floats(0.0, 3.0)))
    def test_nonnegative_sweep(self, fields):
        assert verify.kl_nonnegative(line_grid(points=fields.shape[1]), *fields)[0]

    def test_support_violation(self):
        grid = line_grid(points=11)
        p = GridField(grid, np.full(11, 1.0 / (grid.cell_volume * 11)))
        q_vals = p.values.copy()
        q_vals[3] = 0.0
        with pytest.raises(ValueError, match="zero mass"):
            kl_divergence(p, GridField(grid, q_vals))


class TestSchemeReport:
    def setup_method(self):
        self.L1, self.L2, self.p_opt = default_kl_testbed()
        self.betas = BetaWeights.uniform(2)

    def test_p1_equals_multi_in_both_quantities(self):
        report = scheme_kl_report(self.L1, self.L2, self.p_opt, self.betas, [1.0])
        for mode in ("weighted", "unweighted"):
            r = report.modes[mode]
            assert r.d_non[1.0] == r.d_multi
            assert r.kl_non[1.0] == pytest.approx(r.kl_multi, abs=1e-14)

    def test_identical_fields_weighted_all_equal(self):
        report = scheme_kl_report(self.L1, self.L1, self.p_opt, self.betas,
                                  [1.0, 2.0, 3.0])
        r = report.modes["weighted"]
        for v in [r.d_single_2, r.d_multi, *r.d_non.values()]:
            assert v == pytest.approx(r.d_single_1, abs=1e-12)
        for v in [r.kl_single_2, r.kl_multi, *r.kl_non.values()]:
            assert v == pytest.approx(r.kl_single_1, abs=1e-12)

    def test_unweighted_divergence_monotone_on_testbed(self):
        report = scheme_kl_report(self.L1, self.L2, self.p_opt, self.betas,
                                  [1.0, 2.0, 3.0, 4.0])
        # the values themselves: verify's analysis.testbed_divergence_monotone_in_p
        assert report.modes["unweighted"].orderings["d_non_non_increasing_in_p"]

    def test_dd_dp_negative_on_testbed(self):
        report = scheme_kl_report(self.L1, self.L2, self.p_opt, self.betas,
                                  [1.5, 2.5])
        for v in report.modes["unweighted"].dD_dp.values():
            assert v < 0.0

    def test_testbed_offset_clip_keeps_every_bit(self):
        # the quadratic is above 0.99 past |2.51|, so clipping the offset at
        # 3 moves no value where the unclipped square is finite
        x = np.linspace(-40.0, 40.0, 80_001)
        for center in (1.0, -1.0):
            assert np.array_equal(analysis.testbed_loss(x, center),
                                  np.clip(0.05 + 0.15 * (x - center) ** 2, 0.01, 0.99))

    def test_practical_range_flagged(self):
        grid = self.L1.grid
        hot = GridField(grid, self.L1.values + 2.0)  # outside (0, 1)
        report = scheme_kl_report(hot, self.L2, self.p_opt, self.betas, [1.0])
        assert not report.modes["weighted"].practical_range_ok

    def test_json_fields(self):
        report = scheme_kl_report(self.L1, self.L2, self.p_opt, self.betas,
                                  [1.0, 2.0])
        doc = report.to_json_dict()
        for mode in ("weighted", "unweighted"):
            for key in ("mode", "p_list", "d_single_1", "d_single_2", "d_multi",
                        "d_non", "dD_dp", "kl_non", "orderings"):
                assert key in doc[mode]


class TestPointwiseInequality:
    # test_composite's domain: K in [1, 5], values up to -ln CLAMP, p in [1, 8]
    @given(arrays(np.float64, st.tuples(st.integers(1, 5), st.integers(1, 64)),
                  elements=st.floats(VALUE_FLOOR, -math.log(CLAMP))),
           st.floats(1.0, 8.0))
    def test_corollary_driver(self, terms, p):
        assert verify.pointwise_norm_inequality(terms, p)[0]


class TestGeneralizedEntropy:
    def setup_method(self):
        self.L1, self.L2, _ = default_kl_testbed()
        self.betas = BetaWeights.uniform(2)

    def test_one_hot_reduces_to_single_gibbs(self):
        one_hot = BetaWeights.one_hot(2, 0)
        got = generalized_entropy([self.L1, self.L2], one_hot, 2.0, "weighted")
        grid = self.L1.grid
        direct = math.log(np.exp(-self.L1.values).sum() * grid.cell_volume)
        assert got == pytest.approx(direct, abs=1e-12)

    def test_p1_degenerate_case(self):
        b = BetaWeights((0.3, 0.7))
        got = generalized_entropy([self.L1, self.L2], b, 1.0, "weighted")
        grid = self.L1.grid
        mix = 0.3 * self.L1.values + 0.7 * self.L2.values
        direct = math.log(np.exp(-mix).sum() * grid.cell_volume)
        assert got == pytest.approx(direct, abs=1e-12)

    def test_unweighted_monotone_in_p(self):
        rng = np.random.default_rng(3)
        grid = self.L1.grid
        for _ in range(10):
            f1 = GridField(grid, rng.uniform(0.01, 0.99, grid.n_points))
            f2 = GridField(grid, rng.uniform(0.01, 0.99, grid.n_points))
            s1 = generalized_entropy([f1, f2], self.betas, 1.0, mode="unweighted")
            s2 = generalized_entropy([f1, f2], self.betas, 2.0, mode="unweighted")
            assert s2 >= s1 - 1e-12

    def test_grid_vs_mc_within_three_se(self):
        # the default 601-point grid's quadrature bias is larger than verify's
        assert verify.entropy_grid_matches_mc(601, 50_000, 4, 1e-3)[0]


@pytest.mark.parametrize("p", [math.inf, math.nan], ids=["inf", "nan"])
@pytest.mark.parametrize("entry", [
    lambda L1, L2, p_opt, betas, p: composite.power_mean(
        np.stack([L1.values, L2.values]), betas.as_array(), p),
    lambda L1, L2, p_opt, betas, p: generalized_entropy([L1, L2], betas, p, "weighted"),
    lambda L1, L2, p_opt, betas, p: generalized_entropy([L1, L2], betas, p, "unweighted"),
    lambda L1, L2, p_opt, betas, p: analysis.generalized_entropy_mc(
        [lambda x: analysis.testbed_loss(x[:, 0], 1.0),
         lambda x: analysis.testbed_loss(x[:, 0], -1.0)],
        betas, p, [(-3.0, 3.0)], 100, 0, "weighted"),
    lambda L1, L2, p_opt, betas, p: scheme_kl_report(L1, L2, p_opt, betas, [p]),
], ids=["power_mean", "entropy-weighted", "entropy-unweighted", "entropy-mc",
        "kl_report"])
def test_entry_points_reject_a_power_that_is_not_finite(entry, p):
    # p is checked where the power sum is taken: at p = inf the objective
    # would read 1 everywhere, and at NaN every estimate would be NaN
    L1, L2, p_opt = default_kl_testbed()
    with pytest.raises(ValueError, match="not finite"):
        entry(L1, L2, p_opt, BetaWeights.uniform(2), p)


ALPHAS = [0.05, 0.1, 0.25, 0.5]


class TestSharpness:
    def test_alpha_zero_exact(self):
        spec = MLPSpec((2, 4, 2), output_kind="softmax")
        params = netcore.init_params(spec, 0, 0.5)
        rng = np.random.default_rng(6)
        targets = np.zeros((8, 2))
        targets[np.arange(8), rng.integers(0, 2, 8)] = 1.0
        batch = Batch(inputs=rng.standard_normal((8, 2)), targets=targets)
        assert sharpness(spec, params, batch, 0.0) == 0.0

    def test_analytic_one_parameter_box(self):
        # risk w^2 at w=1, box |nu| <= 0.25 (|1| + 1) = [-0.5, 0.5]:
        # max at nu = 0.5 gives 1.5^2 - 1 = 1.25
        value, nu = box_sharpness(lambda w: float(w[0] ** 2),
                                  lambda w: np.array([2.0 * w[0]]),
                                  np.array([1.0]), 0.25, seed=7)
        assert value == pytest.approx(1.25, abs=1e-6)
        assert nu[0] == pytest.approx(0.5, abs=1e-12)

    def test_monotone_in_alpha(self):
        spec = MLPSpec((2, 6, 2), output_kind="softmax")
        params = netcore.init_params(spec, 8, 0.5)
        rng = np.random.default_rng(9)
        targets = np.zeros((16, 2))
        targets[np.arange(16), rng.integers(0, 2, 16)] = 1.0
        batch = Batch(inputs=rng.standard_normal((16, 2)), targets=targets)
        values = sharpness_sweep(spec, params, batch, [0.05, 0.1, 0.25, 0.5],
                                 seed=10)
        assert all(v >= 0 for v in values)
        assert all(b >= a for a, b in zip(values, values[1:]))

    # the sweep floats an ascent that ran its restarts one after another
    # gave: verify's problem, and acceptance criterion 11's trained net
    def test_verify_sweep_bits_are_pinned(self):
        spec, params, batch = verify._small_problem(27)
        values = sharpness_sweep(spec, params, batch, ALPHAS, seed=28)
        assert [v.hex() for v in values] == [
            "0x1.83552703fd160p-4", "0x1.597ef78a493b4p-2",
            "0x1.a33467033781ap+0", "0x1.fa951139eafd9p+1"]

    def test_trained_net_sweep_bits_are_pinned(self):
        full = data.two_moons(160, 0.1, seed=109)
        train_set, val_set = data.train_val_split(full, 0.75, seed=110)
        spec = MLPSpec((2, 10, 2), hidden_activation="tanh", output_kind="softmax")
        cfg = optim.TrainConfig(scheme=Scheme.single(0), optimizer="adam",
                                learning_rate=0.02, epochs=8, batch_size=32, seed=3)
        rec = optim.train(spec, train_set, val_set, cfg)
        values = sharpness_sweep(spec, rec.final_params, train_set.as_batch(), ALPHAS,
                                 seed=111)
        assert [v.hex() for v in values] == [
            "0x1.51cdba958c930p-4", "0x1.4f402dec32db1p-2",
            "0x1.4d5e9a6962111p+1", "0x1.07491cb9a68d2p+3"]

    def test_a_tie_keeps_the_earlier_restart(self):
        # risk min(w, 1/4) from w = 0 in the box [-5/8, 5/8], steps of 1/16
        # to the right: the nu = 0 start reaches the cap at step 4 and moves
        # on along it; a later start that begins above the cap is at it from
        # step 0. Restart order, then step order, and a strict > keep the
        # first start's nu at step 4
        seed = 3
        later = np.random.default_rng(seed).uniform(-0.625, 0.625, analysis.RESTARTS - 1)
        assert later.max() > 0.25
        value, nu = box_sharpness(lambda w: float(min(w[0], 0.25)),
                                  lambda w: np.array([1.0]),
                                  np.array([0.0]), 0.625, seed=seed)
        assert value == 0.25
        assert nu[0] == 0.25

    def test_stacked_risks_and_grads_have_each_rows_bits(self):
        spec, params, batch = verify._small_problem(27)
        stack = params + np.random.default_rng(4).uniform(-0.3, 0.3, (5, params.size))
        risks, grads = analysis._ce_risks_and_grads(spec, batch)
        stacked_risks, stacked_grads = risks(stack), grads(stack)
        for row, risk, grad in zip(stack, stacked_risks, stacked_grads, strict=True):
            lone = loss_value(LossKind.CE, netcore.forward(spec, row, batch), batch.targets)
            assert risk == lone.value
            _, _, (lone_grad,) = netcore.term_values_and_grads(
                spec, row, batch.inputs, batch.targets, (), (LossKind.CE,))
            assert np.array_equal(grad, lone_grad)

    def test_a_sweep_forwards_each_step_once_for_every_restart(self, monkeypatch):
        # per alpha: the base risk, the starts' risks, then a gradient and a
        # risk per step, each one forward of the whole stack of restarts
        calls = []

        def counting(*args, _fn=netcore._forward_cache, **kwargs):
            calls.append(1)
            return _fn(*args, **kwargs)

        monkeypatch.setattr(netcore, "_forward_cache", counting)
        spec, params, batch = verify._small_problem(27)
        sharpness_sweep(spec, params, batch, ALPHAS, seed=28)
        assert len(calls) == len(ALPHAS) * (1 + 1 + 2 * analysis.ASCENT_STEPS) == 168


def test_gibbs_divergence_drops_with_pointwise_drop():
    # any pointwise decrease of the objective lowers the relative divergence
    L1, L2, p_opt = default_kl_testbed()
    grid = L1.grid
    high = GridField(grid, L1.values + 0.3)
    assert gibbs_divergence(p_opt, L1) < gibbs_divergence(p_opt, high)
