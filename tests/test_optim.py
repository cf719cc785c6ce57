import itertools
from dataclasses import replace

import numpy as np
import pytest

from lossmix import composite, data, netcore, optim
from lossmix.composite import (BetaWeights, Scheme, composite_grad, composite_value,
                               constraint9_check)
from lossmix.losses import LossKind
from lossmix.netcore import MLPSpec
from lossmix.optim import TrainConfig, TrainingDiverged, optimizer_step, train


def moons_setup(seed=0):
    full = data.two_moons(240, 0.1, seed=seed)
    train_set, val_set = data.train_val_split(full, 0.75, seed=seed)
    spec = MLPSpec((2, 12, 2), hidden_activation="tanh", output_kind="softmax")
    return spec, train_set, val_set


class TestOptimizerStep:
    def test_sgd_example(self):
        cfg = TrainConfig(scheme=Scheme.multi(), learning_rate=0.1)
        params, state = optimizer_step("sgd", None, np.array([1.0]),
                                       np.array([2.0]), cfg)
        assert params[0] == pytest.approx(0.8, abs=1e-15)
        assert state["t"] == 1

    def test_zero_gradient_keeps_params(self):
        cfg = TrainConfig(scheme=Scheme.multi(), learning_rate=0.1)
        p0 = np.array([1.0, -2.0])
        for kind in ("sgd", "momentum", "adam"):
            state = None
            p = p0
            for _ in range(5):
                p, state = optimizer_step(kind, state, p, np.zeros(2), cfg)
            np.testing.assert_array_equal(p, p0)
            assert state["t"] == 5

    def test_momentum_accumulates(self):
        cfg = TrainConfig(scheme=Scheme.multi(), learning_rate=0.1, momentum=0.5)
        g = np.array([1.0])
        p, state = optimizer_step("momentum", None, np.array([0.0]), g, cfg)
        assert p[0] == pytest.approx(-0.1)
        p, _ = optimizer_step("momentum", state, p, g, cfg)
        assert p[0] == pytest.approx(-0.1 - 0.1 * 1.5)

    def test_nonfinite_gradient_rejected(self):
        cfg = TrainConfig(scheme=Scheme.multi())
        with pytest.raises(ValueError, match="non-finite"):
            optimizer_step("sgd", None, np.array([1.0]), np.array([np.nan]), cfg)


class TestConfigValidation:
    def test_warmup_needs_ce(self):
        with pytest.raises(ValueError, match="cross-entropy"):
            TrainConfig(scheme=Scheme.single(0), terms=(LossKind.MSE,),
                        warmup_epochs=1, epochs=5)

    def test_warmup_below_epochs(self):
        with pytest.raises(ValueError, match="warmup"):
            TrainConfig(scheme=Scheme.multi(), warmup_epochs=5, epochs=5)

    def test_paper_max_needs_two_terms(self):
        with pytest.raises(ValueError, match="two"):
            TrainConfig(scheme=Scheme.multi(), terms=(LossKind.CE,),
                        beta_rule="paper-max")

    def test_fixed_betas_one_per_term(self):
        with pytest.raises(ValueError, match="3 fixed_betas for 2 terms"):
            TrainConfig(scheme=Scheme.multi(), beta_rule="fixed",
                        fixed_betas=(0.2, 0.3, 0.5))

    def test_zero_one_term_rejected(self):
        with pytest.raises(ValueError, match="zero_one"):
            TrainConfig(scheme=Scheme.multi(),
                        terms=(LossKind.CE, LossKind.ZERO_ONE))

    def test_paper_values_recorded(self):
        # the tested noise and regularization magnitudes pass through verbatim
        cfg = TrainConfig(scheme=Scheme.nonlinear(2.0), noise_eps=1e-4,
                          l2_reg=5e-4)
        d = cfg.to_dict()
        assert d["noise_eps"] == 1e-4
        assert d["l2_reg"] == 5e-4


class TestTrain:
    def test_convex_regression_descends(self):
        rng = np.random.default_rng(5)
        X = rng.uniform(-1, 1, (80, 2))
        y = (X @ np.array([1.5, -2.0]))[:, None] + 0.3
        ds = data.Dataset(inputs=X, targets=y, k_classes=0)
        spec = MLPSpec((2, 1), output_kind="linear")
        cfg = TrainConfig(scheme=Scheme.single(0), terms=(LossKind.MSE,),
                          optimizer="sgd", learning_rate=0.1, epochs=50,
                          batch_size=16, seed=1)
        record = train(spec, ds, ds, cfg)
        assert record.rows[-1].losses[0] < record.rows[0].losses[0]

    def test_deterministic_csv(self):
        spec, train_set, val_set = moons_setup()
        cfg = TrainConfig(scheme=Scheme.nonlinear(2.0), epochs=4, seed=3,
                          warmup_epochs=1, noise_eps=1e-4)
        a = train(spec, train_set, val_set, cfg).to_csv_text()
        b = train(spec, train_set, val_set, cfg).to_csv_text()
        assert a == b

    def test_csv_header_fixed(self):
        spec, train_set, val_set = moons_setup()
        cfg = TrainConfig(scheme=Scheme.multi(), epochs=2, seed=4)
        record = train(spec, train_set, val_set, cfg)
        header = record.to_csv_text().splitlines()[0]
        assert header == ("epoch,train_acc,val_acc,loss_ce,loss_mse,composite,"
                          "beta_1,beta_2,gnorm_1,gnorm_2,constraint9,seconds")

    def test_warmup_rows_are_ce(self):
        spec, train_set, val_set = moons_setup()
        cfg = TrainConfig(scheme=Scheme.nonlinear(3.0), epochs=4,
                          warmup_epochs=2, seed=5)
        record = train(spec, train_set, val_set, cfg)
        for row in record.rows[:2]:
            assert row.betas == (1.0, 0.0)
            assert row.composite == row.losses[0]
        assert record.rows[2].betas != (1.0, 0.0)

    def test_rows_finite_and_on_simplex(self):
        spec, train_set, val_set = moons_setup()
        cfg = TrainConfig(scheme=Scheme.nonlinear(2.0), epochs=5, seed=6,
                          noise_eps=1e-4, l2_reg=5e-4, warmup_epochs=1)
        record = train(spec, train_set, val_set, cfg)
        for row in record.rows:
            assert 0.0 <= row.train_acc <= 1.0
            assert 0.0 <= row.val_acc <= 1.0
            assert np.isfinite(row.losses).all()
            assert abs(sum(row.betas) - 1.0) <= 1e-12
            assert min(row.betas) >= 0.0

    def test_multi_equals_nonlinear_p1_with_fixed_betas(self):
        spec, train_set, val_set = moons_setup()
        base = dict(epochs=5, seed=7, beta_rule="fixed", fixed_betas=(0.5, 0.5),
                    noise_eps=0.0)
        rec_m = train(spec, train_set, val_set,
                      TrainConfig(scheme=Scheme.multi(), **base))
        rec_1 = train(spec, train_set, val_set,
                      TrainConfig(scheme=Scheme.nonlinear(1.0), **base))
        for a, b in zip(rec_m.rows, rec_1.rows):
            assert abs(a.composite - b.composite) <= 1e-10
            assert abs(a.train_acc - b.train_acc) <= 1e-10

    def test_single_scheme_pins_betas(self):
        spec, train_set, val_set = moons_setup()
        cfg = TrainConfig(scheme=Scheme.single(1), epochs=3, seed=8)
        record = train(spec, train_set, val_set, cfg)
        for row in record.rows:
            assert row.betas == (0.0, 1.0)
            assert row.composite == row.losses[1]

    @pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
    def test_divergence_carries_partial_trajectory(self):
        rng = np.random.default_rng(9)
        X = rng.uniform(-1, 1, (40, 2))
        y = (X @ np.array([1.0, 1.0]))[:, None]
        ds = data.Dataset(inputs=X, targets=y, k_classes=0)
        spec = MLPSpec((2, 1), output_kind="linear")
        cfg = TrainConfig(scheme=Scheme.single(0), terms=(LossKind.MSE,),
                          optimizer="sgd", learning_rate=1e6, epochs=50,
                          batch_size=8, seed=9)
        with pytest.raises(TrainingDiverged) as err:
            train(spec, ds, ds, cfg)
        assert isinstance(err.value.record, optim.TrajectoryRecord)

    def test_epoch_callback_sees_every_epoch(self):
        spec, train_set, val_set = moons_setup()
        seen = []
        cfg = TrainConfig(scheme=Scheme.multi(), epochs=3, seed=10)
        train(spec, train_set, val_set, cfg,
              epoch_callback=lambda e, p, y: seen.append((e, p.copy(), y)))
        assert [e for e, _, _ in seen] == [0, 1, 2]
        for _, params, preds in seen:
            # the row's predictions, handed over instead of recomputed
            assert np.array_equal(
                preds, netcore.forward(spec, params, train_set.as_batch()))

    def test_noise_statistics(self):
        rng = np.random.default_rng(11)
        eps = 2e-3
        draws = optim.sample_gradient_noise(rng, eps, 150_000)
        assert abs(draws.var() / eps ** 2 - 1.0) <= 0.05


def per_term_row(spec, params, data, val, config, betas, epoch, warmup):
    """_epoch_row as written with one three-forward curvature probe per term."""
    batch = data.as_batch()
    preds, vals, grads = netcore.term_values_and_grads(spec, params, batch, config.terms)
    p_eff = config.effective_p
    if warmup:
        comp = vals[config.terms.index(LossKind.CE)]
    elif config.scheme.kind == "single":
        comp = vals[config.scheme.index]
    else:
        comp = composite_value(vals, betas, p_eff, config.mode)
    comp_grad = composite_grad(vals, grads, betas, p_eff, config.mode)
    norm = float(np.linalg.norm(comp_grad))
    satisfied = False
    if norm > 0:
        direction = -comp_grad / norm
        h = optim.CURVATURE_H
        satisfied = True
        for kind, v in zip(config.terms, vals):
            fn = netcore.term_loss_fn(spec, batch, kind)
            f0, f_hi, f_lo = fn(params), fn(params + h * direction), fn(params - h * direction)
            g_dir = (f_hi - f_lo) / (2.0 * h)
            h_dir = (f_hi - 2.0 * f0 + f_lo) / (h * h)
            if not constraint9_check(max(v, 1e-12), g_dir, h_dir, p_eff):
                satisfied = False
                break
    return optim.TrajectoryRow(
        epoch=epoch,
        train_acc=optim._accuracy(spec, params, data, preds),
        val_acc=optim._accuracy(spec, params, val),
        losses=tuple(vals), composite=comp, betas=tuple(betas.betas),
        grad_norms=tuple(float(np.linalg.norm(g)) for g in grads),
        constraint9=int(satisfied), seconds=0.0)


def sigmoid_regression_setup():
    raw = data.freq_target_1d([1.0, 3.0], [1.0, 0.5], 48)
    y = raw.targets[:, 0]
    scaled = 0.1 + 0.8 * (y - y.min()) / (y.max() - y.min())
    ds = data.Dataset(inputs=raw.inputs, targets=scaled[:, None], k_classes=0)
    spec = MLPSpec((1, 10, 1), hidden_activation="sigmoid", output_kind="sigmoid")
    return spec, ds, ds


@pytest.mark.parametrize("net", ["softmax-classification", "sigmoid-regression"])
def test_epoch_row_matches_per_term_curvature_loop(net):
    spec, train_set, val_set = (moons_setup(3) if net == "softmax-classification"
                                else sigmoid_regression_setup())
    schemes = [Scheme.single(0), Scheme.single(1), Scheme.multi(),
               Scheme.nonlinear(2.0), Scheme.nonlinear(4.0)]
    term_sets = [(LossKind.CE, LossKind.MSE, LossKind.JSD), (LossKind.MSE, LossKind.CE)]
    flags = []
    for terms, scheme, mode in itertools.product(term_sets, schemes, composite.MODES):
        cfg = TrainConfig(scheme=scheme, mode=mode, terms=terms, epochs=6,
                          batch_size=16, learning_rate=0.3, init_scale=1.0,
                          warmup_epochs=1, seed=4)
        snapshots = []
        record = train(spec, train_set, val_set, cfg,
                       epoch_callback=lambda e, p, y: snapshots.append(p.copy()))
        for row, params in zip(record.rows, snapshots, strict=True):
            want = per_term_row(spec, params, train_set, val_set, cfg,
                                BetaWeights(row.betas), row.epoch,
                                row.epoch < cfg.warmup_epochs)
            assert replace(row, seconds=0.0) == want
            flags.append(want.constraint9)
    # both outcomes of constraint 9 are pinned, not just one
    assert set(flags) == {0, 1}


def test_save_run_layout(tmp_path):
    spec, train_set, val_set = moons_setup()
    cfg = TrainConfig(scheme=Scheme.nonlinear(2.0), epochs=2, seed=12)
    record = train(spec, train_set, val_set, cfg)
    out = optim.save_run(tmp_path / "run", record, cfg, config_hash="abc123")
    assert (out / "trajectory.csv").exists()
    assert (out / "params.npz").exists()
    meta = (out / "run.json").read_text()
    assert "abc123" in meta and "wall_clock" in meta
