import ctypes
import itertools
import json
import os
import subprocess
import sys
from dataclasses import asdict, replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lossmix import composite, data, netcore, optim
from lossmix.composite import (BetaWeights, Scheme, composite_grad, composite_value,
                               constraint9_check)
from lossmix.losses import LossKind, loss_value
from lossmix.netcore import MLPSpec
from lossmix.optim import TrainConfig, TrainingDiverged, optimizer_step, train


def moons_setup(seed=0, n=240, width=12, hidden="tanh", output_kind="softmax"):
    full = data.two_moons(n, 0.1, seed=seed)
    train_set, val_set = data.train_val_split(full, 0.75, seed=seed)
    spec = MLPSpec((2, width, 2), hidden_activation=hidden, output_kind=output_kind)
    return spec, train_set, val_set


def tone_setup(width, n_points, hidden="sigmoid", output_kind="sigmoid",
               freqs=(1.0, 3.0, 5.0), amps=(1.0, 1.0, 1.0)):
    """A 1-width-1 net and a tone target in [0.1, 0.9], the target as both
    sets; criterion 08's net and target by default."""
    spec = MLPSpec((1, width, 1), hidden_activation=hidden, output_kind=output_kind)
    raw = data.freq_target_1d(list(freqs), list(amps), n_points)
    y = raw.targets[:, 0]
    ds = data.Dataset(inputs=raw.inputs,
                      targets=(0.1 + 0.8 * (y - y.min()) / (y.max() - y.min()))[:, None])
    return spec, ds, ds


def epoch_final_params(monkeypatch):
    """Each run's epoch-final parameters, keyed by its config, as the
    telemetry rows of later train calls see them."""
    seen = {}
    epoch_row = optim._epoch_row

    def spy(spec, params, data, val, configs, *args):
        for cfg, p in zip(configs, params, strict=True):
            seen.setdefault(cfg, []).append(p.copy())
        return epoch_row(spec, params, data, val, configs, *args)

    monkeypatch.setattr(optim, "_epoch_row", spy)
    return seen


class TestOptimizerStep:
    def test_sgd_example(self):
        cfg = TrainConfig(scheme=Scheme.multi(), optimizer="sgd", learning_rate=0.1)
        params, state = optimizer_step(None, np.array([1.0]), np.array([2.0]), cfg)
        assert params[0] == pytest.approx(0.8, abs=1e-15)
        assert state["t"] == 1

    def test_zero_gradient_keeps_params(self):
        p0 = np.array([1.0, -2.0])
        for kind in optim.OPTIMIZERS:
            cfg = TrainConfig(scheme=Scheme.multi(), optimizer=kind, learning_rate=0.1)
            state = None
            p = p0
            for _ in range(5):
                p, state = optimizer_step(state, p, np.zeros(2), cfg)
            np.testing.assert_array_equal(p, p0)
            assert state["t"] == 5

    def test_momentum_accumulates(self):
        cfg = TrainConfig(scheme=Scheme.multi(), optimizer="momentum",
                          learning_rate=0.1, momentum=0.5)
        g = np.array([1.0])
        p, state = optimizer_step(None, np.array([0.0]), g, cfg)
        assert p[0] == pytest.approx(-0.1)
        p, _ = optimizer_step(state, p, g, cfg)
        assert p[0] == pytest.approx(-0.1 - 0.1 * 1.5)

    def test_nonfinite_gradient_rejected(self):
        cfg = TrainConfig(scheme=Scheme.multi(), optimizer="sgd")
        with pytest.raises(ValueError, match="non-finite"):
            optimizer_step(None, np.array([1.0]), np.array([np.nan]), cfg)


class TestConfigValidation:
    def test_sequences_become_tuples(self):
        cfg = TrainConfig(scheme=Scheme.multi(), terms=["ce", "mse"],
                          beta_rule="fixed", fixed_betas=[0.25, 0.75])
        assert cfg.terms == (LossKind.CE, LossKind.MSE)
        assert cfg.fixed_betas == (0.25, 0.75)

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

    def test_fixed_betas_need_the_fixed_rule(self):
        with pytest.raises(ValueError, match="only by beta_rule 'fixed'"):
            TrainConfig(scheme=Scheme.multi(), beta_rule="softmax",
                        fixed_betas=(0.2, 0.8))

    def test_fixed_rule_needs_fixed_betas(self):
        with pytest.raises(ValueError, match="needs fixed_betas"):
            TrainConfig(scheme=Scheme.multi(), beta_rule="fixed")

    def test_unknown_mode_rejected(self):
        # a single run would train and record the mode; a multi run would
        # fail only once its warm-up is over
        with pytest.raises(ValueError, match="unknown mode 'bogus'"):
            TrainConfig(scheme=Scheme.multi(), mode="bogus")
        with pytest.raises(ValueError, match="unknown mode 'bogus'"):
            TrainConfig(scheme=Scheme.single(0), mode="bogus")

    def test_negative_init_scale_rejected(self):
        with pytest.raises(ValueError, match="init_scale must be nonnegative"):
            TrainConfig(scheme=Scheme.single(0), init_scale=-1.0)

    def test_zero_one_term_rejected(self):
        with pytest.raises(ValueError, match="zero_one"):
            TrainConfig(scheme=Scheme.multi(),
                        terms=(LossKind.CE, LossKind.ZERO_ONE))

    def test_paper_values_recorded(self):
        # the tested noise and regularization magnitudes pass through verbatim
        cfg = TrainConfig(scheme=Scheme.nonlinear(2.0), noise_eps=1e-4,
                          l2_reg=5e-4)
        d = asdict(cfg)
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

    def test_epoch_callback_sees_every_epoch(self, monkeypatch):
        # a record without rows holds every epoch's training-set predictions
        # at that epoch's final parameters
        spec, train_set, val_set = moons_setup()
        cfg = TrainConfig(scheme=Scheme.multi(), epochs=3, seed=10)
        params = epoch_final_params(monkeypatch)
        assert train(spec, train_set, val_set, cfg).predictions == []
        record = train(spec, train_set, val_set, cfg, rows=False)
        assert len(record.predictions) == len(params[cfg]) == 3
        for preds, p in zip(record.predictions, params[cfg]):
            assert np.array_equal(preds, netcore.forward(spec, p, train_set.as_batch()))

    def test_noise_statistics(self):
        rng = np.random.default_rng(11)
        eps = 2e-3
        draws = optim.sample_gradient_noise(rng, eps, 150_000)
        assert abs(draws.var() / eps ** 2 - 1.0) <= 0.05


def per_term_row(spec, params, data, val, config, betas, epoch, warmup):
    """_epoch_row as written with one three-forward curvature probe per term."""
    batch = data.as_batch()
    acts, vals, grads = netcore.term_values_and_grads(spec, params, batch.inputs,
                                                     batch.targets, config.terms)
    p_eff = config.scheme.effective_p
    # the direction the run steps along: its followed term's gradient, or
    # the composite's
    if warmup:
        followed = config.terms.index(LossKind.CE)
    elif config.scheme.kind == "single":
        followed = config.scheme.index
    else:
        followed = None
    if followed is None:
        comp = composite_value(vals, betas, p_eff, config.mode)
        descent = composite_grad(vals, grads, betas, p_eff, config.mode)
    else:
        comp = vals[followed]
        descent = grads[followed]
    norm = float(np.linalg.norm(descent))
    satisfied = False
    if norm > 0:
        direction = -descent / norm
        h = optim.CURVATURE_H
        satisfied = True
        for kind, v in zip(config.terms, vals):
            def fn(w):
                return loss_value(kind, netcore.forward(spec, w, batch), batch.targets).value
            f0, f_hi, f_lo = fn(params), fn(params + h * direction), fn(params - h * direction)
            g_dir = (f_hi - f_lo) / (2.0 * h)
            h_dir = (f_hi - 2.0 * f0 + f_lo) / (h * h)
            if not constraint9_check(max(v, 1e-12), g_dir, h_dir, p_eff):
                satisfied = False
                break
    return optim.TrajectoryRow(
        epoch=epoch,
        train_acc=optim._accuracy(spec, params, data, acts[-1]),
        val_acc=optim._accuracy(spec, params, val),
        losses=tuple(vals), composite=comp, betas=tuple(betas.betas),
        grad_norms=tuple(float(np.linalg.norm(g)) for g in grads),
        constraint9=int(satisfied))


@pytest.mark.parametrize("net", ["softmax-classification", "sigmoid-regression"])
def test_epoch_row_matches_per_term_curvature_loop(net, monkeypatch):
    spec, train_set, val_set = (
        moons_setup(3) if net == "softmax-classification"
        else tone_setup(10, 48, freqs=(1.0, 3.0), amps=(1.0, 0.5)))
    # at seed 4 every sigmoid-regression row satisfies constraint 9; seed 7
    # adds rows that do not
    seeds = (4,) if net == "softmax-classification" else (4, 7)
    schemes = [Scheme.single(0), Scheme.single(1), Scheme.multi(),
               Scheme.nonlinear(2.0), Scheme.nonlinear(4.0)]
    term_sets = [(LossKind.CE, LossKind.MSE, LossKind.JSD), (LossKind.MSE, LossKind.CE)]
    flags = []
    snapshots = epoch_final_params(monkeypatch)
    for terms, scheme, mode, seed in itertools.product(term_sets, schemes,
                                                       composite.MODES, seeds):
        cfg = TrainConfig(scheme=scheme, mode=mode, terms=terms, epochs=6,
                          batch_size=16, learning_rate=0.3, init_scale=1.0,
                          warmup_epochs=1, seed=seed)
        record = train(spec, train_set, val_set, cfg)
        for row, params in zip(record.rows, snapshots[cfg], strict=True):
            want = per_term_row(spec, params, train_set, val_set, cfg,
                                BetaWeights(row.betas), row.epoch,
                                row.epoch < cfg.warmup_epochs)
            assert row == want
            flags.append(want.constraint9)
    # both outcomes of constraint 9 are pinned, not just one
    assert set(flags) == {0, 1}


def test_unweighted_curvature_follows_the_stepped_term(monkeypatch):
    # a run that follows one term (CE in warm-up, then a single scheme's own
    # term) steps along that term's gradient, and its constraint-9 check
    # must probe the same direction, not the unweighted sum of every term's
    spec, train_set, val_set = moons_setup()
    cfg = TrainConfig(scheme=Scheme.single(1), mode="unweighted", epochs=3,
                      warmup_epochs=1, seed=5)
    directions = []

    def spy(*args, **kwargs):
        directions.append(args[2].copy())
        return composite.directional_curvature(*args, **kwargs)

    monkeypatch.setattr(optim, "directional_curvature", spy)
    snapshots = epoch_final_params(monkeypatch)
    train(spec, train_set, val_set, cfg)
    assert len(directions) == len(snapshots[cfg]) == 3
    for epoch, (direction, params) in enumerate(zip(directions, snapshots[cfg])):
        _, _, grads = netcore.term_values_and_grads(
            spec, params[None], train_set.inputs, train_set.targets, cfg.terms)
        g = grads[optim._followed(cfg, epoch)][0]
        assert np.array_equal(direction, [-g / np.linalg.norm(g)])


def test_save_run_layout(tmp_path):
    spec, train_set, val_set = moons_setup()
    cfg = TrainConfig(scheme=Scheme.nonlinear(2.0), epochs=2, seed=12)
    record = train(spec, train_set, val_set, cfg)
    out = optim.save_run(tmp_path / "run", record, "abc123")
    assert (out / "trajectory.csv").exists()
    assert (out / "params.npz").exists()
    meta = (out / "run.json").read_text()
    assert "abc123" in meta and "wall_clock" in meta
    # the sidecar's config is the record's own
    assert json.loads(meta)["config"] == json.loads(json.dumps(asdict(cfg)))
    assert json.loads(meta)["wall_clock"]["epoch_seconds"] == record.epoch_seconds
    assert len(record.epoch_seconds) == cfg.epochs


# --- stacked runs --------------------------------------------------------------

def stack_setup(task, n, seed, width, hidden, output_kind):
    """(spec, train set, val set) of moons_setup, or of a two-tone target."""
    if task == "moons":
        return moons_setup(seed, n, width, hidden, output_kind)
    return tone_setup(width, n, hidden, output_kind, (1.0, 2.0), (1.0, 0.5))


@st.composite
def stacks(draw):
    """stack_setup's arguments, shared hyperparameters and (scheme, seed) runs."""
    task = draw(st.sampled_from(["moons", "tone"]))
    # a softmax head needs two outputs, and the regression target has one
    heads = [k for k in netcore.OUTPUT_KINDS if task == "moons" or k != "softmax"]
    setup = (task, draw(st.integers(8, 40)), draw(st.integers(0, 3)),
             draw(st.integers(1, 10)), draw(st.sampled_from(netcore.HIDDEN_ACTIVATIONS)),
             draw(st.sampled_from(heads)))
    terms = tuple(draw(st.lists(st.sampled_from([LossKind.CE, LossKind.MSE, LossKind.JSD]),
                                min_size=1, max_size=3, unique=True)))
    rules = [r for r in optim.BETA_RULES if r != "paper-max" or len(terms) == 2]
    epochs = draw(st.integers(1, 2))
    hyper = dict(
        terms=terms, epochs=epochs, mode=draw(st.sampled_from(composite.MODES)),
        optimizer=draw(st.sampled_from(optim.OPTIMIZERS)),
        beta_rule=draw(st.sampled_from(rules)), batch_size=draw(st.integers(4, 48)),
        warmup_epochs=draw(st.integers(0, epochs - 1)) if LossKind.CE in terms else 0,
        noise_eps=draw(st.sampled_from([0.0, 1e-4, 1e-3])),
        l2_reg=draw(st.sampled_from([0.0, 5e-4, 1e-3])))
    if hyper["beta_rule"] == "fixed":
        w = np.array(draw(st.lists(st.floats(0.05, 1.0), min_size=len(terms),
                                   max_size=len(terms))))
        hyper["fixed_betas"] = tuple(w / w.sum())
    schemes = [*map(Scheme.single, range(len(terms))), Scheme.multi(),
               Scheme.nonlinear(2.5)]
    runs = draw(st.lists(st.tuples(st.sampled_from(schemes), st.integers(0, 3)),
                         min_size=1, max_size=4))
    return setup, hyper, runs


STACK_SCHEMES = [Scheme.single(0), Scheme.single(1), Scheme.multi(),
                 Scheme.nonlinear(2.5)]
STACK_RUNS = [(s, seed) for s in STACK_SCHEMES for seed in (1, 2)]

# each case: stack_setup's arguments and shared hyperparameters, trained as
# STACK_RUNS; the moons sets have 180 training rows, so a minibatch of 32
# leaves an uneven 20
STACK_CASES = {
    "softmax-tanh-adam-softmax-rule-jsd-warmup-noise-l2": (
        ("moons", 240, 0, 10, "tanh", "softmax"),
        dict(epochs=4, optimizer="adam", beta_rule="softmax", warmup_epochs=1,
             terms=(LossKind.CE, LossKind.MSE, LossKind.JSD), noise_eps=1e-4,
             l2_reg=5e-4)),
    "sigmoid-relu-momentum-paper-max": (
        ("moons", 240, 1, 10, "relu", "sigmoid"),
        dict(epochs=4, optimizer="momentum", beta_rule="paper-max", learning_rate=0.05)),
    "linear-sigmoid-sgd-fixed-jsd": (
        ("tone", 50, 0, 10, "sigmoid", "linear"),
        dict(epochs=4, optimizer="sgd", beta_rule="fixed", fixed_betas=(0.7, 0.3),
             terms=(LossKind.MSE, LossKind.JSD), learning_rate=0.2, batch_size=16,
             l2_reg=1e-3)),
    "sigmoid-tanh-adam-softmax-rule-unweighted": (
        ("tone", 50, 0, 10, "tanh", "sigmoid"),
        dict(epochs=4, optimizer="adam", mode="unweighted", batch_size=12,
             noise_eps=1e-3, terms=(LossKind.MSE, LossKind.CE, LossKind.JSD))),
}


def assert_stack_matches_runs_alone(setup, hyper, runs):
    spec, train_set, val_set = stack_setup(*setup)
    base = TrainConfig(scheme=Scheme.multi(), **hyper)
    configs = [replace(base, scheme=s, seed=seed) for s, seed in runs]
    assert optim.stack_size(spec, train_set, val_set) >= len(configs)
    stacked = train(spec, train_set, val_set, configs)
    for cfg, record in zip(configs, stacked, strict=True):
        alone = train(spec, train_set, val_set, [cfg])[0]
        assert (record.config, record.stack_size, alone.stack_size) == (cfg, len(configs), 1)
        assert record.to_csv_text() == alone.to_csv_text()
        assert record.final_params.tobytes() == alone.final_params.tobytes()


@pytest.mark.parametrize("case", list(STACK_CASES))
def test_stacked_runs_match_runs_trained_alone(case):
    setup, hyper = STACK_CASES[case]
    assert_stack_matches_runs_alone(setup, hyper, STACK_RUNS)


# each example trains every run twice, so this one test takes fewer than the
# profile's examples
@settings(max_examples=10)
@given(stacks())
def test_drawn_stacks_match_runs_trained_alone(case):
    assert_stack_matches_runs_alone(*case)


def test_lone_config_is_a_one_run_stack():
    spec, train_set, val_set = moons_setup()
    cfg = TrainConfig(scheme=Scheme.nonlinear(2.0), epochs=2, seed=3)
    record = train(spec, train_set, val_set, cfg)
    (listed,) = train(spec, train_set, val_set, [cfg])
    assert record.to_csv_text() == listed.to_csv_text()
    assert np.array_equal(record.final_params, listed.final_params)


def test_stacked_configs_may_differ_only_in_scheme_and_seed():
    spec, train_set, val_set = moons_setup()
    a = TrainConfig(scheme=Scheme.multi(), epochs=2, seed=1)
    with pytest.raises(ValueError, match="scheme and seed"):
        train(spec, train_set, val_set, [a, replace(a, learning_rate=0.5)])


def forward_stack_heights(monkeypatch):
    heights = []
    cached = netcore._forward_cache

    def recording(spec, params, inputs):
        heights.append(np.shape(params)[0])
        return cached(spec, params, inputs)

    monkeypatch.setattr(netcore, "_forward_cache", recording)
    return heights


def test_spectral_shape_trains_one_run_at_a_time(monkeypatch):
    # the criterion-08 net: 256 rows through a width-200 layer
    spec, ds, _ = tone_setup(200, 256)
    assert optim.stack_size(spec, ds, ds) == 1
    heights = forward_stack_heights(monkeypatch)
    base = TrainConfig(scheme=Scheme.multi(), epochs=1, batch_size=256)
    train(spec, ds, ds, [replace(base, scheme=s) for s in STACK_SCHEMES[1:]])
    assert heights and set(heights) == {1}


def test_two_moons_shape_trains_nine_runs_as_one_stack(monkeypatch):
    # the shipped two_moons config: 300 training rows, a 2-16-2 net
    full = data.two_moons(400, 0.1, seed=7)
    train_set, val_set = data.train_val_split(full, 0.75, seed=7)
    spec = MLPSpec((2, 16, 2), hidden_activation="tanh", output_kind="softmax")
    assert optim.stack_size(spec, train_set, val_set) >= 9
    heights = forward_stack_heights(monkeypatch)
    base = TrainConfig(scheme=Scheme.multi(), epochs=1)
    configs = [replace(base, scheme=s, seed=seed)
               for s in STACK_SCHEMES[1:] for seed in (1, 2, 3)]
    records = train(spec, train_set, val_set, configs)
    assert set(heights) == {9}
    assert {r.stack_size for r in records} == {9}


def test_epoch_callback_sees_every_run_and_epoch(monkeypatch):
    spec, train_set, val_set = moons_setup()
    # room for two runs per stack, so the three runs train as stacks of 2 and 1
    monkeypatch.setattr(optim, "STACK_ELEMENTS", 2 * train_set.n * 12)
    base = TrainConfig(scheme=Scheme.multi(), epochs=3)
    configs = [replace(base, scheme=s, seed=5) for s in STACK_SCHEMES[1:]]
    params = epoch_final_params(monkeypatch)
    train(spec, train_set, val_set, configs)
    records = train(spec, train_set, val_set, configs, rows=False)
    assert [r.stack_size for r in records] == [2, 2, 1]
    for cfg, record in zip(configs, records, strict=True):
        assert record.config == cfg
        assert len(record.predictions) == len(params[cfg]) == 3
        for preds, p in zip(record.predictions, params[cfg]):
            assert np.array_equal(preds, netcore.forward(spec, p, train_set.as_batch()))
        assert np.array_equal(params[cfg][-1], record.final_params)


def diverging_recipe():
    rng = np.random.default_rng(9)
    X = rng.uniform(-1, 1, (40, 2))
    y = 0.5 + 0.2 * (X @ np.array([1.0, 1.0]))[:, None]
    ds = data.Dataset(inputs=X, targets=y, k_classes=0)
    spec = MLPSpec((2, 1), output_kind="linear")
    base = TrainConfig(scheme=Scheme.single(0), terms=(LossKind.JSD, LossKind.MSE),
                       optimizer="sgd", learning_rate=10.0, epochs=50, batch_size=8)
    # the bounded JSD run survives; the two MSE runs, the same config twice,
    # blow up in the same step, and the first of them is named
    mse = replace(base, scheme=Scheme.single(1), seed=9)
    return spec, ds, [replace(base, seed=9), mse, mse]


# (width, grid size, batch size, layer widths of a tanh net or None); a
# batch of the whole grid reuses the step's forward for the capture. On
# grids that are not a multiple of 4 rows, BLAS may round a row of a
# layer's product by the row's place in the batch: un-permuting the step's
# predictions moves bits at 200x50, 16x37 and the tanh net (at 8x37, with
# this seed, it happens not to)
CAPTURE_SETUPS = {
    "": (8, 64, 16, None),
    "-full-batch-200x50": (200, 50, 50, None),
    "-full-batch-8x37": (8, 37, 37, None),
    "-full-batch-16x37": (16, 37, 37, None),
    "-full-batch-tanh-1-1-8-1x37": (8, 37, 37, (1, 1, 8, 1)),
}


@pytest.mark.parametrize("lone, setup", [
    (lone, setup) for setup in CAPTURE_SETUPS for lone in (False, True)],
    ids=[("lone-config" if lone else "three-scheme-stack") + setup
         for setup in CAPTURE_SETUPS for lone in (False, True)])
def test_rows_false_hands_the_callback_the_same_bits(lone, setup, monkeypatch):
    # each epoch's predictions on a record without rows, the reused capture
    # included, are the bits of a forward at the epoch's final parameters
    width, n_points, batch_size, tanh_widths = CAPTURE_SETUPS[setup]
    spec, ds, _ = tone_setup(width, n_points)
    if tanh_widths is not None:
        spec = MLPSpec(tanh_widths, hidden_activation="tanh", output_kind="linear")
    base = TrainConfig(scheme=Scheme.nonlinear(2.0), epochs=6, batch_size=batch_size,
                       learning_rate=0.02, init_scale=3.0, seed=4)
    configs = base if lone else [replace(base, scheme=s) for s in
                                 (Scheme.single(0), Scheme.multi(), Scheme.nonlinear(2.0))]
    params = epoch_final_params(monkeypatch)
    full = train(spec, ds, ds, configs)
    bare = train(spec, ds, ds, configs, rows=False)
    if lone:
        full, bare = [full], [bare]
    assert [r.stack_size for r in bare] == [r.stack_size for r in full]
    for record, want in zip(bare, full, strict=True):
        assert record.rows == [] and len(want.rows) == 6 and want.predictions == []
        assert len(record.predictions) == len(params[record.config]) == 6
        for preds, p in zip(record.predictions, params[record.config]):
            assert np.array_equal(preds, netcore.forward(spec, p, ds.as_batch()))
        assert np.array_equal(record.final_params, want.final_params)


@pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
def test_divergence_names_the_first_diverged_run(monkeypatch):
    spec, ds, configs = diverging_recipe()
    with pytest.raises(TrainingDiverged) as err:
        train(spec, ds, ds, configs)
    exc = err.value
    assert exc.run == 1 and exc.record.config == configs[1]
    assert "single[1] seed 9" in str(exc) and f"epoch {exc.epoch}" in str(exc)
    assert 0 < exc.epoch == len(exc.record.rows)
    assert exc.finished == []
    with pytest.raises(TrainingDiverged) as alone:
        train(spec, ds, ds, [configs[1]])
    assert alone.value.record.to_csv_text() == exc.record.to_csv_text()
    # one run per stack: the surviving run's stack finished first, and is kept
    monkeypatch.setattr(optim, "STACK_ELEMENTS", 1)
    with pytest.raises(TrainingDiverged) as err:
        train(spec, ds, ds, configs)
    assert err.value.run == 1
    (done,) = err.value.finished
    assert done.to_csv_text() == train(spec, ds, ds, configs[0]).to_csv_text()


@pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
def test_divergence_without_rows_names_the_same_run():
    spec, ds, configs = diverging_recipe()
    with pytest.raises(TrainingDiverged) as err:
        train(spec, ds, ds, configs, rows=False)
    with pytest.raises(TrainingDiverged) as with_rows:
        train(spec, ds, ds, configs)
    exc = err.value
    assert exc.run == 1 and exc.record.config == configs[1]
    assert str(exc) == str(with_rows.value) and exc.epoch > 0
    assert exc.record.rows == [] and exc.finished == []


def test_rows_false_checks_the_capture_predictions(monkeypatch):
    # the last epoch has no next step to catch non-finite predictions
    spec, ds, _ = tone_setup(8, 64)
    base = TrainConfig(scheme=Scheme.multi(), epochs=1, batch_size=64)
    forward = netcore.forward

    def poisoned(*args):
        preds = forward(*args).copy()
        preds[1, 5] = np.nan
        return preds

    monkeypatch.setattr(netcore, "forward", poisoned)
    with pytest.raises(TrainingDiverged, match="non-finite predictions at epoch 0") as err:
        train(spec, ds, ds, [base, replace(base, seed=1)], rows=False)
    assert err.value.run == 1


def test_full_batch_capture_of_a_fan_in_two_net_is_a_full_forward(monkeypatch):
    # the first layer mixes the two input columns, so nothing of the step's
    # forward is reused: each epoch keeps one full capture forward, which
    # starts from the step's inputs put back in data order
    spec, train_set, val_set = moons_setup()
    starts = []
    cached = netcore._forward_cache

    def recording(spec, params, inputs, start=0):
        starts.append(start)
        return cached(spec, params, inputs, start)

    monkeypatch.setattr(netcore, "_forward_cache", recording)
    cfg = TrainConfig(scheme=Scheme.multi(), epochs=4, batch_size=train_set.n)
    train(spec, train_set, val_set, cfg, rows=False)
    assert netcore.elementwise_layers(spec) == 0
    assert starts == [0] * (2 * 4)


def test_rows_false_names_a_reused_capture_at_its_own_epoch(monkeypatch):
    # a full batch: epoch 2's capture runs inside epoch 3's step, and is
    # still checked first and named at epoch 2
    spec, ds, _ = tone_setup(8, 37)
    base = TrainConfig(scheme=Scheme.multi(), epochs=4, batch_size=37)
    cached = netcore._forward_cache
    captures = []

    def poisoned(spec, params, inputs, start=0):
        preds, cache = cached(spec, params, inputs, start)
        if start > 0:
            captures.append(start)
            if len(captures) == 3:
                preds = preds.copy()
                preds[1, 5] = np.nan
        return preds, cache

    monkeypatch.setattr(netcore, "_forward_cache", poisoned)
    configs = [base, replace(base, seed=1)]
    with pytest.raises(TrainingDiverged,
                       match="non-finite predictions at epoch 2 in run multi seed 1") as err:
        train(spec, ds, ds, configs, rows=False)
    assert err.value.run == 1 and err.value.epoch == 2
    # the partial record keeps the predictions of epochs 0 and 1
    monkeypatch.undo()
    clean = train(spec, ds, ds, configs, rows=False)[1]
    kept = err.value.record.predictions
    assert len(kept) == 2
    for preds, want in zip(kept, clean.predictions[:2]):
        assert np.array_equal(preds, want)


@pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
def test_full_batch_divergence_without_rows_is_named_by_the_step():
    # the captures stay finite, so the step's loss check names the epoch, as
    # it did when each epoch ran its own capture forward; a row would catch
    # the loss one epoch sooner
    spec, ds, configs = diverging_recipe()
    configs = [replace(c, batch_size=ds.n, learning_rate=1e4) for c in configs]
    with pytest.raises(TrainingDiverged) as err:
        train(spec, ds, ds, configs, rows=False)
    assert str(err.value) == "non-finite loss at epoch 36 in run single[1] seed 9"
    assert err.value.run == 1 and err.value.epoch == 36
    with pytest.raises(TrainingDiverged, match="loss at epoch 35 in run single"):
        train(spec, ds, ds, configs)


def test_value_error_is_not_relabelled_as_divergence(monkeypatch):
    spec, train_set, val_set = moons_setup()
    cfg = TrainConfig(scheme=Scheme.multi(), epochs=2)

    def broken(*args, **kwargs):
        raise ValueError("not about finiteness")

    monkeypatch.setattr(optim, "composite_grad", broken)
    with pytest.raises(ValueError, match="not about finiteness"):
        train(spec, train_set, val_set, cfg)
    # a head wider than the targets is a shape error, not divergence
    monkeypatch.undo()
    wide = MLPSpec((2, 12, 3), hidden_activation="tanh", output_kind="softmax")
    with pytest.raises(ValueError, match="shape mismatch"):
        train(spec=wide, data=train_set, val=val_set, configs=cfg)


HEAP_PROBE = """
import resource
from lossmix import data, optim
from lossmix.composite import Scheme
from lossmix.netcore import MLPSpec

spec = MLPSpec((1, 200, 1), hidden_activation="sigmoid", output_kind="sigmoid")
raw = data.freq_target_1d([1.0, 3.0, 5.0], [1.0, 1.0, 1.0], 256)
y = raw.targets[:, 0]
ds = data.Dataset(inputs=raw.inputs,
                  targets=(0.1 + 0.8 * (y - y.min()) / (y.max() - y.min()))[:, None])
faults = []
step = optim.optimizer_step

def mark(*args):
    faults.append(resource.getrusage(resource.RUSAGE_SELF).ru_minflt)
    return step(*args)

optim.optimizer_step = mark  # one full-batch step per epoch
cfg = optim.TrainConfig(scheme=Scheme.multi(), epochs=52, batch_size=256)
optim.train(spec, ds, ds, [cfg], rows=False)
print((faults[51] - faults[1]) / 50)  # after 1 warm-up epoch, then 50 more
"""


def test_wide_epochs_reuse_freed_heap_pages():
    # the tone_setup(200, 256) net; netcore keeps freed heap pages mapped, so
    # its epochs' 400 KB temporaries are not faulted in again: 804 minor
    # faults per epoch without it. A fresh interpreter, because what earlier
    # tests allocated moves glibc's dynamic thresholds.
    pytest.importorskip("resource")
    try:
        ctypes.CDLL(None).mallopt
    except (OSError, TypeError, AttributeError):
        pytest.skip("no mallopt in this C library")
    src = str(Path(netcore.__file__).resolve().parents[1])
    out = subprocess.run([sys.executable, "-c", HEAP_PROBE], capture_output=True,
                         text=True, check=True, env={**os.environ, "PYTHONPATH": src})
    assert float(out.stdout) < 5
