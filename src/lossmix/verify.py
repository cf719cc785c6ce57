"""Named invariant suite behind the `verify` command.

Each check is a small, fast, self-contained property with its own seeded
data; `run_all` returns a machine-readable summary naming every invariant
and whether it held. The composite-gradient check is the one a seeded
sign mutation (LOSSMIX_MUTATE=composite-grad-sign) must trip.

A property that holds for every input is written once, as a predicate on
one input that returns (ok, measure) with its tolerance inside. Its
INVARIANTS row is the check `_seeded` builds over fixed seeded draws (a
check with a test of its own calls it first), and the property tests in
tests/ call the same predicate on Hypothesis draws.
"""

from __future__ import annotations

import math
import tempfile
from pathlib import Path

import numpy as np

from . import analysis, composite, data, losses, netcore, optim, pacbayes, spectral
from .composite import BetaWeights, Scheme
from .losses import LossKind
from .netcore import Batch, MLPSpec


def _rel_vec(a: np.ndarray, b: np.ndarray) -> float:
    scale = max(np.max(np.abs(a)), np.max(np.abs(b)), 1e-300)
    return float(np.max(np.abs(a - b)) / scale)


def _small_problem(seed=0):
    spec = MLPSpec((3, 6, 4, 2), hidden_activation="tanh", output_kind="softmax")
    rng = np.random.default_rng(seed)
    inputs = rng.standard_normal((8, 3))
    labels = rng.integers(0, 2, 8)
    targets = np.zeros((8, 2))
    targets[np.arange(8), labels] = 1.0
    batch = Batch(inputs=inputs, targets=targets)
    params = netcore.init_params(spec, seed + 1, 0.5)
    return spec, params, batch


def _seeded(seed, n, draw, predicate, detail):
    """The check that runs predicate over n seeded draws and returns (every
    draw held, detail); detail is formatted with the draws' largest measure
    and their sum."""
    def check():
        rng = np.random.default_rng(seed)
        results = [predicate(*draw(rng)) for _ in range(n)]
        measures = [measure for _, measure in results]
        return (all(ok for ok, _ in results),
                detail.format(max=max(measures), sum=sum(measures)))

    return check


# --- netcore ---------------------------------------------------------------

def check_netcore_backward_oracle():
    spec, params, batch = _small_problem(3)
    rng = np.random.default_rng(4)
    out_grad = rng.standard_normal((batch.n, 2))

    def total(p):
        return float((netcore.forward(spec, p, batch) * out_grad).sum())

    analytic = netcore.backward(spec, params, batch, out_grad)
    numeric = netcore.finite_diff_grad(total, params, 1e-5)
    err = _rel_vec(analytic, numeric)
    return err <= 1e-6, f"max relative error {err:.2e}"


def check_netcore_forward_pure():
    spec, params, batch = _small_problem(5)
    a = netcore.forward(spec, params, batch)
    b = netcore.forward(spec, params, batch)
    ok = np.array_equal(a, b)
    return ok, "bit-identical repeat" if ok else "outputs differ across calls"


def check_netcore_softmax_simplex():
    spec, params, batch = _small_problem(6)
    preds = netcore.forward(spec, params, batch)
    sums = preds.sum(axis=1)
    err = float(np.max(np.abs(sums - 1.0)))
    return err <= 1e-12 and preds.min() >= 0.0, f"row-sum error {err:.2e}"


# --- losses ----------------------------------------------------------------

def check_losses_grad_oracle():
    rng = np.random.default_rng(7)
    preds = rng.uniform(0.1, 0.9, (5, 3))
    targets = np.zeros((5, 3))
    targets[np.arange(5), rng.integers(0, 3, 5)] = 1.0
    worst = 0.0
    for kind in (LossKind.MSE, LossKind.CE, LossKind.JSD):
        analytic = losses.loss_output_grad(kind, preds, targets)
        numeric = netcore.finite_diff_grad(
            lambda flat: losses.loss_value(kind, flat.reshape(preds.shape),
                                           targets).value,
            preds.ravel(), 1e-6).reshape(preds.shape)
        worst = max(worst, _rel_vec(analytic, numeric))
    return worst <= 1e-7, f"max relative error {worst:.2e}"


def check_losses_zero_at_fit():
    rng = np.random.default_rng(8)
    preds = rng.uniform(0.1, 0.9, (6, 4))
    ok = (losses.loss_value(LossKind.MSE, preds, preds).value == 0.0
          and losses.loss_value(LossKind.JSD, preds, preds).value <= 1e-15)
    return ok, "mse/jsd vanish at a perfect fit"


def check_losses_jsd_symmetric_bounded():
    rng = np.random.default_rng(9)
    a = rng.dirichlet(np.ones(4), 20)
    b = rng.dirichlet(np.ones(4), 20)
    ab = losses.loss_value(LossKind.JSD, a, b).value
    ba = losses.loss_value(LossKind.JSD, b, a).value
    ok = abs(ab - ba) <= 1e-12 and 0.0 <= ab <= math.log(2.0) + 1e-12
    return ok, f"jsd {ab:.6f}, asymmetry {abs(ab - ba):.2e}"


def check_losses_zero_one_argmax_invariant():
    rng = np.random.default_rng(10)
    preds = rng.uniform(0.05, 0.95, (30, 4))
    targets = np.zeros((30, 4))
    targets[np.arange(30), rng.integers(0, 4, 30)] = 1.0
    base = losses.loss_value(LossKind.ZERO_ONE, preds, targets).value
    transformed = losses.loss_value(LossKind.ZERO_ONE, preds ** 3 + 1.0, targets).value
    return base == transformed, "monotone transform preserved the rate"


# --- composite ---------------------------------------------------------------

def _pair_betas(rng, lo, hi):
    b1 = rng.uniform(lo, hi)
    return BetaWeights((b1, 1.0 - b1))


def _simplex_betas(rng, k):
    w = rng.uniform(0.1, 1.0, k)
    return BetaWeights(tuple(w / w.sum()))


def gradient_matches_finite_differences(values, betas, p, mode):
    """composite_grad, one parameter per value, vs central differences: 1e-8."""
    analytic = composite.composite_grad(values, np.eye(len(values)), betas, p, mode)
    numeric = netcore.finite_diff_grad(
        lambda v: composite.composite_value(v, betas, p, mode), values, 1e-5)
    err = max(abs(a - num) / max(abs(num), abs(a), 1e-300)
              for a, num in zip(analytic, numeric))
    return err <= 1e-8, err


def p1_equals_linear_combination(values, betas):
    """At p = 1 the weighted value is sum_m beta_m v_m, to 1e-12."""
    dev = abs(composite.composite_value(values, betas, 1.0, "weighted")
              - float(np.dot(betas.as_array(), values)))
    return dev <= 1e-12, dev


def one_hot_equals_single_loss(values, index, p):
    """One-hot weights give the chosen term's value at any p, to 1e-12."""
    got = composite.composite_value(values, BetaWeights.one_hot(len(values), index), p)
    dev = abs(got - values[index])
    return dev <= 1e-12, dev


def weighted_power_mean_monotone_in_p(values, betas, p_lo, p_hi):
    """The weighted value does not fall from p_lo to p_hi, to 1e-12."""
    ok = (composite.composite_value(values, betas, p_hi, "weighted")
          >= composite.composite_value(values, betas, p_lo, "weighted") - 1e-12)
    return ok, int(not ok)


def unweighted_norm_monotone_in_p(values, p_lo, p_hi):
    """The lp-norm neither rises from p_lo to p_hi nor exceeds the l1 norm."""
    betas = BetaWeights.uniform(len(values))
    lo = composite.composite_value(values, betas, p_lo, "unweighted")
    hi = composite.composite_value(values, betas, p_hi, "unweighted")
    count = int(hi > lo + 1e-12) + int(hi > np.sum(values) + 1e-12)
    return count == 0, count


def value_between_min_and_max(values, betas, p):
    """The weighted value lies in the terms' [min, max], to 1e-12."""
    got = composite.composite_value(values, betas, p)
    return min(values) - 1e-12 <= got <= max(values) + 1e-12, got


def dvalue_dp_matches_finite_differences(values, betas, p, mode):
    """dvalue_dp vs Richardson-extrapolated differences in p, to 1e-8; the
    1e-12 floor covers the oracle's own roundoff near zero."""
    def f(pp):
        return composite.composite_value(values, betas, pp, mode)

    h = 1e-3
    d1 = (f(p + h) - f(p - h)) / (2 * h)
    d2 = (f(p + h / 2) - f(p - h / 2)) / h
    num = (4 * d2 - d1) / 3
    got = composite.dvalue_dp(values, betas, p, mode)
    err = abs(got - num)
    return err <= 1e-8 * max(abs(num), abs(got)) + 1e-12, err


def adaptive_betas_on_simplex(norms):
    """Softmax weights lie on the simplex; the smallest norm gets the most."""
    arr = composite.adaptive_betas(norms).as_array()
    err = abs(arr.sum() - 1.0)
    return err <= 1e-12 and arr.min() >= 0.0 and arr[np.argmin(norms)] == arr.max(), err


def check_composite_adaptive_simplex():
    ok, detail = _seeded(18, 100, lambda rng: (
        rng.uniform(0.0, 50.0, int(rng.integers(2, 5))),), adaptive_betas_on_simplex,
        "simplex, smallest-norm preference, paper-max >= 0.5")()
    paper_max = composite.adaptive_betas([1.0, 2.0], rule="paper-max")
    return ok and paper_max.betas[0] >= 0.5, detail


def constraint9_flips_at_critical_p(L, g, h):
    """Constraint 9 holds 1e-9 above critical_p and fails 1e-9 below it."""
    star = composite.critical_p(L, g, h)
    return (composite.constraint9_check(L, g, h, star + 1e-9)
            and not composite.constraint9_check(L, g, h, star - 1e-9)), star


def check_composite_constraint9_critical():
    ok, _ = _seeded(19, 300, lambda rng: (
        rng.uniform(0.05, 1.0), rng.uniform(0.1, 2.0) * rng.choice([-1.0, 1.0]),
        -rng.uniform(0.01, 2.0)), constraint9_flips_at_critical_p, "")()
    exact = composite.critical_p(0.5, 0.1, -0.02)
    return ok and exact == 2.0, f"bracketing held; analytic case gave {exact!r}"


def check_composite_end_to_end_grad():
    spec, params, batch = _small_problem(20)
    betas = BetaWeights((0.6, 0.4))
    terms = (LossKind.CE, LossKind.MSE)
    p = 2.5

    def objective(w):
        preds = netcore.forward(spec, w, batch)
        vals = [losses.loss_value(k, preds, batch.targets).value for k in terms]
        return composite.composite_value(vals, betas, p)

    _, vals, grads = netcore.term_values_and_grads(spec, params, batch.inputs,
                                                  batch.targets, terms)
    analytic = composite.composite_grad(vals, grads, betas, p)
    numeric = netcore.finite_diff_grad(objective, params, 1e-5)
    err = _rel_vec(analytic, numeric)
    return err <= 1e-6, f"max relative error {err:.2e}"


# --- optim -------------------------------------------------------------------

def _tiny_run(**overrides):
    train = data.two_moons(60, 0.05, seed=100)
    val = data.two_moons(30, 0.05, seed=101)
    spec = MLPSpec((2, 8, 2), hidden_activation="tanh", output_kind="softmax")
    kwargs = dict(scheme=Scheme.nonlinear(2.0), epochs=4, batch_size=16,
                  seed=1, warmup_epochs=1, learning_rate=0.05)
    kwargs.update(overrides)
    cfg = optim.TrainConfig(**kwargs)
    return optim.train(spec, train, val, [cfg])[0], cfg


def check_optim_deterministic():
    rec1, _ = _tiny_run()
    rec2, _ = _tiny_run()
    ok = rec1.to_csv_text() == rec2.to_csv_text()
    return ok, "trajectory CSV byte-identical across reruns"


def check_optim_warmup_is_ce():
    rec, cfg = _tiny_run()
    row = rec.rows[0]
    ce_idx = cfg.terms.index(LossKind.CE)
    ok = (row.betas[ce_idx] == 1.0 and sum(row.betas) == 1.0
          and row.composite == row.losses[ce_idx])
    return ok, "warm-start epoch recorded one-hot CE and the CE value"


def check_optim_multi_equals_p1():
    rec_multi, _ = _tiny_run(scheme=Scheme.multi(), warmup_epochs=0,
                             beta_rule="fixed", fixed_betas=(0.5, 0.5))
    rec_p1, _ = _tiny_run(scheme=Scheme.nonlinear(1.0), warmup_epochs=0,
                          beta_rule="fixed", fixed_betas=(0.5, 0.5))
    worst = max(
        abs(a.composite - b.composite) + abs(a.train_acc - b.train_acc)
        for a, b in zip(rec_multi.rows, rec_p1.rows))
    return worst <= 1e-10, f"max per-epoch gap {worst:.2e}"


def check_optim_noise_variance():
    rng = np.random.default_rng(21)
    eps = 3e-3
    draws = optim.sample_gradient_noise(rng, eps, 200_000)
    ratio = float(draws.var() / eps ** 2)
    return abs(ratio - 1.0) <= 0.05, f"variance ratio {ratio:.4f}"


# --- data --------------------------------------------------------------------

def check_data_deterministic():
    a = data.two_moons(100, 0.1, seed=5)
    b = data.two_moons(100, 0.1, seed=5)
    c = data.gaussian_blobs(3, 20, 2, 0.5, seed=6)
    d_ = data.gaussian_blobs(3, 20, 2, 0.5, seed=6)
    ok = (np.array_equal(a.inputs, b.inputs)
          and np.array_equal(c.inputs, d_.inputs))
    return ok, "generators reproduce under their seeds"


def check_data_randomize_binomial():
    base = data.gaussian_blobs(10, 1000, 2, 0.5, seed=7)
    out = data.randomize_labels(base, 1.0, seed=8)
    changed = float(np.mean(np.argmax(out.targets, 1) != np.argmax(base.targets, 1)))
    expect = 0.9
    sd = math.sqrt(expect * (1 - expect) / base.n)
    ok = abs(changed - expect) <= 3 * sd
    return ok, f"changed fraction {changed:.4f} vs {expect} (3sd {3 * sd:.4f})"


def check_data_split():
    base = data.two_moons(100, 0.1, seed=9)
    train, val = data.train_val_split(base, 0.8, seed=10)
    merged = np.vstack([train.inputs, val.inputs])
    ok = (train.n, val.n) == (80, 20) and \
        np.array_equal(np.sort(merged, axis=0), np.sort(base.inputs, axis=0))
    return ok, "split disjoint, exhaustive, sized (80, 20)"


def check_data_cifar_roundtrip():
    rng = np.random.default_rng(22)
    labels = rng.integers(0, 10, 40)
    pixels = rng.integers(0, 256, (40, data.CIFAR_PIXELS))
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "batch.bin"
        data.write_cifar10_bin(path, labels, pixels)
        loaded = data.load_cifar10_bin(path, 40)
    ok = (np.array_equal(np.argmax(loaded.targets, 1), labels)
          and np.array_equal(loaded.inputs, pixels / 255.0))
    return ok, "loader round-trip bit-exact"


# --- analysis ------------------------------------------------------------------

def densities_normalized(field, temperature):
    """A Boltzmann density integrates to 1 on its grid, to 1e-12."""
    dens = analysis.boltzmann(field, temperature).density
    err = abs(dens.values.sum() * field.grid.cell_volume - 1.0)
    return err <= 1e-12, err


def check_analysis_kl_gaussian_oracle():
    grid = analysis.Grid(-8.0, 8.0, 4001)
    x = grid.axis()
    p = analysis.boltzmann(analysis.GridField(grid, 0.5 * x ** 2), 1.0).density
    q = analysis.boltzmann(analysis.GridField(grid, 0.5 * (x - 1.0) ** 2), 1.0).density
    got = analysis.kl_divergence(p, q)
    return abs(got - 0.5) <= 1e-3, f"got {got:.6f}, closed form 0.5"


def kl_nonnegative(grid, p_field, q_field):
    """KL(P || Q) >= 0 and |KL(P || P)| <= 1e-15 for two fields' Boltzmann
    densities on grid."""
    p, q = (analysis.boltzmann(analysis.GridField(grid, f), 1.0).density
            for f in (p_field, q_field))
    kl = analysis.kl_divergence(p, q)
    return kl >= 0.0 and abs(analysis.kl_divergence(p, p)) <= 1e-15, kl


def pointwise_norm_inequality(terms, p):
    """Pointwise over (terms, points) fields, the lp-norm is at most the sum."""
    terms = np.asarray(terms, dtype=np.float64)
    excess = max(0.0, float(np.max(composite.power_mean(terms, np.ones(len(terms)), p)
                                   - terms.sum(axis=0))))
    return excess <= 1e-12, excess


def check_analysis_entropy_monotone():
    L1, L2, _ = analysis.default_kl_testbed()
    betas = BetaWeights.uniform(2)
    values = [analysis.generalized_entropy([L1, L2], betas, p, mode="unweighted")
              for p in (1.0, 2.0, 3.0, 4.0)]
    ok = all(b >= a - 1e-12 for a, b in zip(values, values[1:]))
    return ok, f"entropies {['%.6f' % v for v in values]}"


def entropy_grid_matches_mc(points, n_draws, seed, bias):
    """The testbed's unweighted p = 2 entropy on a grid vs a Monte-Carlo
    estimate, within 3 standard errors plus the grid's quadrature bias."""
    L1, L2, _ = analysis.default_kl_testbed(points=points)
    betas = BetaWeights.uniform(2)
    grid_val = analysis.generalized_entropy([L1, L2], betas, 2.0, mode="unweighted")

    fns = [lambda pts, c=c: analysis.testbed_loss(pts[:, 0], c) for c in (1.0, -1.0)]
    mc = analysis.generalized_entropy_mc(fns, betas, 2.0, [(-3.0, 3.0)],
                                         n_draws=n_draws, seed=seed, mode="unweighted")
    return abs(mc.value - grid_val) <= 3 * mc.std_error + bias, (grid_val, mc)


def check_analysis_entropy_grid_vs_mc():
    ok, (grid_val, mc) = entropy_grid_matches_mc(1201, 40_000, 26, 1e-4)
    return ok, f"grid {grid_val:.6f} vs mc {mc.value:.6f} (se {mc.std_error:.2e})"


def check_analysis_kl_testbed_monotone():
    L1, L2, p_opt = analysis.default_kl_testbed()
    report = analysis.scheme_kl_report(L1, L2, p_opt, BetaWeights.uniform(2),
                                       [1.0, 2.0, 3.0, 4.0])
    d = report.modes["unweighted"].d_non
    ps = sorted(d)
    ok = all(d[b] <= d[a] + 1e-9 for a, b in zip(ps, ps[1:]))
    return ok, f"d_non {['%.6f' % d[p] for p in ps]}"


def check_analysis_sharpness():
    spec, params, batch = _small_problem(27)
    zero = analysis.sharpness(spec, params, batch, 0.0)
    sweep = analysis.sharpness_sweep(spec, params, batch, [0.05, 0.1, 0.25, 0.5],
                                     seed=28)
    ok = zero == 0.0 and all(b >= a for a, b in zip(sweep, sweep[1:])) \
        and all(v >= 0 for v in sweep)
    return ok, f"zeta(0)=0, sweep {['%.4f' % v for v in sweep]}"


# --- pacbayes ----------------------------------------------------------------

def bernoulli_kl_inversion_roundtrip(q, p):
    """kl_inverse(q, kl(q, p)) gives p back, to 1e-9."""
    err = abs(pacbayes.kl_inverse(q, pacbayes.bernoulli_kl(q, p)) - p)
    return err <= 1e-9, err


def _rate_pair(rng):
    q = float(rng.uniform(0.0, 0.9))
    return q, float(rng.uniform(q + 0.01, 0.99))


def check_pacbayes_bound_monotone():
    params = pacbayes.BoundParams(lam=1.0, l_max=1.0, delta=0.1, m=100)
    kls = np.linspace(0.0, 20.0, 30)
    linear = [pacbayes.linear_pac_bound(0.2, k, params) for k in kls]
    dp = [pacbayes.dp_pac_bound(k, params) for k in kls]
    ok = (all(b > a for a, b in zip(linear, linear[1:]))
          and all(b > a for a, b in zip(dp, dp[1:])))
    ms = [10, 100, 1000, 10000]
    dp_m = [pacbayes.dp_pac_bound(
        5.0, pacbayes.BoundParams(lam=1.0, l_max=1.0, delta=0.1, m=m)) for m in ms]
    ok &= all(b < a for a, b in zip(dp_m, dp_m[1:]))
    return ok, "bounds increase in kl, dp bound decreases in m"


def check_pacbayes_dp_branch_continuity():
    delta, m = 0.05, 400
    eps_star = math.sqrt(math.log(3.0 / delta) / m)
    lo = pacbayes.dp_pac_bound(1.0, pacbayes.BoundParams(
        lam=1.0, l_max=1.0, delta=delta, m=m, eps_dp=eps_star * (1 - 1e-9)))
    hi = pacbayes.dp_pac_bound(1.0, pacbayes.BoundParams(
        lam=1.0, l_max=1.0, delta=delta, m=m, eps_dp=eps_star * (1 + 1e-9)))
    gap = abs(hi - lo)
    return gap <= 1e-9, f"crossover gap {gap:.2e}"


def gaussian_kl_matches_mc(q, p, seed):
    """kl_gaussians(q, p) is within 3 standard errors of the mean
    log-density ratio over 100,000 draws from q."""
    dim = q.mean.size
    closed = pacbayes.kl_gaussians(q, p)
    rng = np.random.default_rng(seed)
    n = 100_000
    w = q.mean + q.sigma * rng.standard_normal((n, dim))
    log_q = (-0.5 * ((w - q.mean) / q.sigma) ** 2).sum(1) - dim * math.log(q.sigma)
    log_p = (-0.5 * (w / p.lambda_p) ** 2).sum(1) - dim * math.log(p.lambda_p)
    ratio = log_q - log_p
    mc, se = float(ratio.mean()), float(ratio.std(ddof=1) / math.sqrt(n))
    return abs(mc - closed) <= 3 * se, (closed, mc, se)


def check_pacbayes_gaussian_kl_mc():
    ok, (closed, mc, se) = gaussian_kl_matches_mc(
        pacbayes.GaussianPosterior(mean=np.linspace(-1, 1, 5), sigma=0.8),
        pacbayes.GaussianPrior(lambda_p=1.3), 30)
    return ok, f"closed {closed:.5f} vs mc {mc:.5f} (3se {3 * se:.5f})"


# --- spectral ------------------------------------------------------------------

def check_spectral_ft_oracle():
    unit = spectral.SigmoidUnit(a=1.0, b=0.0)
    xs = np.linspace(-60.0, 60.0, 240_001)
    sig = 1.0 / (1.0 + np.exp(-xs))
    dsig = sig * (1.0 - sig)
    worst = 0.0
    for omega in np.linspace(0.5, 5.0, 10):
        target = np.trapezoid(dsig * np.exp(-1j * omega * xs), xs)
        got = 1j * omega * spectral.sigmoid_ft(unit, float(omega))
        worst = max(worst, abs(got - target) / abs(target))
    return worst <= 1e-4, f"max relative error {worst:.2e}"


def check_spectral_ft_decay():
    unit = spectral.SigmoidUnit(a=1.0, b=0.0)
    ok = True
    for omega in range(5, 12):
        slope = (math.log(abs(spectral.sigmoid_ft(unit, omega + 1.0)))
                 - math.log(abs(spectral.sigmoid_ft(unit, float(omega)))))
        ok &= abs(slope + math.pi) <= 0.01 * math.pi
    mags = [abs(spectral.sigmoid_ft(unit, w)) for w in np.linspace(0.2, 20, 60)]
    ok &= all(b < a for a, b in zip(mags, mags[1:]))
    return ok, "log-slope -> -pi and |F| strictly decreasing"


def parseval_identity(residual):
    """The residual's energy is its DFT energy over n, to 1e-9 relative."""
    n = len(residual)
    lhs = float((residual ** 2).sum())
    rhs = float((np.abs(spectral.residual_spectrum(residual, np.zeros(n))) ** 2).sum() / n)
    err = abs(lhs - rhs) / max(lhs, 1e-300)
    return err <= 1e-9, err


def check_spectral_band_separability():
    n = 256
    x = np.linspace(-np.pi, np.pi, n, endpoint=False)
    target = np.sin(x) + np.sin(5 * x)
    bands = spectral.default_bands([1, 5])
    # tone 1 fitted, tone 5 missing
    rep_a = spectral.frequency_capture([np.sin(x)], target, bands, 0.2)
    # adding the captured band's exact component must leave the other band's
    # measurement untouched (exact-bin DFT separability)
    rep_b = spectral.frequency_capture([np.zeros(n)], target, bands, 0.2)
    ok = (rep_a.rel_errors[0, 0] <= 1e-20
          and abs(rep_a.rel_errors[0, 1] - 1.0) <= 1e-12
          and abs(rep_a.rel_errors[0, 1] - rep_b.rel_errors[0, 1]) <= 1e-12)
    return ok, f"band errors {rep_a.rel_errors[0].tolist()}"


INVARIANTS = [
    ("netcore.backward_matches_finite_differences", check_netcore_backward_oracle),
    ("netcore.forward_is_pure", check_netcore_forward_pure),
    ("netcore.softmax_rows_on_simplex", check_netcore_softmax_simplex),
    ("losses.output_grad_matches_finite_differences", check_losses_grad_oracle),
    ("losses.zero_at_perfect_fit", check_losses_zero_at_fit),
    ("losses.jsd_symmetric_and_bounded", check_losses_jsd_symmetric_bounded),
    ("losses.zero_one_argmax_invariant", check_losses_zero_one_argmax_invariant),
    ("composite.gradient_matches_finite_differences", _seeded(11, 40, lambda rng: (
        rng.uniform(0.1, 0.9, 2), _pair_betas(rng, 0.2, 0.8),
        rng.choice([1.0, 1.5, 2.0, 3.0, 4.0]), rng.choice(composite.MODES)),
        gradient_matches_finite_differences, "max relative error {max:.2e}")),
    ("composite.p1_equals_linear_combination", _seeded(12, 200, lambda rng: (
        rng.uniform(0.05, 0.95, 3), _simplex_betas(rng, 3)),
        p1_equals_linear_combination, "max deviation {max:.2e}")),
    ("composite.one_hot_equals_single_loss", _seeded(13, 200, lambda rng: (
        rng.uniform(0.05, 0.95, 3), int(rng.integers(0, 3)),
        float(rng.choice([1.0, 2.0, 3.0]))), one_hot_equals_single_loss,
        "max deviation {max:.2e}")),
    ("composite.weighted_power_mean_monotone_in_p", _seeded(14, 300, lambda rng: (
        rng.uniform(0.05, 0.95, 2), _pair_betas(rng, 0.1, 0.9),
        *sorted(rng.uniform(1.0, 5.0, 2))), weighted_power_mean_monotone_in_p,
        "{sum} violations")),
    ("composite.unweighted_norm_monotone_in_p", _seeded(15, 300, lambda rng: (
        rng.uniform(0.05, 0.95, 2), *sorted(rng.uniform(1.0, 5.0, 2))),
        unweighted_norm_monotone_in_p, "{sum} violations")),
    ("composite.value_between_min_and_max", _seeded(16, 200, lambda rng: (
        rng.uniform(0.05, 0.95, 3), _simplex_betas(rng, 3), float(rng.uniform(1, 5))),
        value_between_min_and_max, "weighted value stayed inside [min, max]")),
    ("composite.dvalue_dp_matches_finite_differences", _seeded(17, 60, lambda rng: (
        rng.uniform(0.1, 0.9, 2), _pair_betas(rng, 0.2, 0.8),
        float(rng.uniform(1.2, 4.0)), rng.choice(composite.MODES)),
        dvalue_dp_matches_finite_differences, "max absolute gap {max:.2e}")),
    ("composite.adaptive_betas_on_simplex", check_composite_adaptive_simplex),
    ("composite.constraint9_flips_at_critical_p", check_composite_constraint9_critical),
    ("composite.end_to_end_gradient_matches_finite_differences",
     check_composite_end_to_end_grad),
    ("optim.trajectory_deterministic", check_optim_deterministic),
    ("optim.warmup_records_one_hot_ce", check_optim_warmup_is_ce),
    ("optim.multi_equals_nonlinear_p1", check_optim_multi_equals_p1),
    ("optim.gradient_noise_variance_calibrated", check_optim_noise_variance),
    ("data.generators_deterministic", check_data_deterministic),
    ("data.randomize_labels_binomial", check_data_randomize_binomial),
    ("data.split_disjoint_exhaustive", check_data_split),
    ("data.cifar_roundtrip_bitexact", check_data_cifar_roundtrip),
    ("analysis.densities_normalized", _seeded(23, 20, lambda rng: (
        analysis.GridField(analysis.Grid(-2.0, 2.0, 301), rng.uniform(0.0, 3.0, 301)),
        float(rng.uniform(0.5, 5))), densities_normalized,
        "max normalization error {max:.2e}")),
    ("analysis.kl_matches_gaussian_closed_form", check_analysis_kl_gaussian_oracle),
    ("analysis.kl_nonnegative", _seeded(24, 50, lambda rng: (
        analysis.Grid(-1.0, 1.0, 101), rng.uniform(0, 2, 101), rng.uniform(0, 2, 101)),
        kl_nonnegative, "kl >= 0 and kl(P, P) = 0 over 50 pairs")),
    ("analysis.pointwise_norm_inequality", _seeded(25, 100, lambda rng: (
        np.stack([rng.uniform(0.01, 0.99, 64), rng.uniform(0.01, 0.99, 64)]),
        float(rng.uniform(1.0, 5.0))), pointwise_norm_inequality,
        "max excess {max:.2e}")),
    ("analysis.generalized_entropy_monotone_in_p", check_analysis_entropy_monotone),
    ("analysis.entropy_grid_matches_mc", check_analysis_entropy_grid_vs_mc),
    ("analysis.testbed_divergence_monotone_in_p", check_analysis_kl_testbed_monotone),
    ("analysis.sharpness_nonnegative_monotone_in_alpha", check_analysis_sharpness),
    ("pacbayes.bernoulli_kl_inversion_roundtrip", _seeded(29, 200, _rate_pair,
        bernoulli_kl_inversion_roundtrip, "max round-trip error {max:.2e}")),
    ("pacbayes.bounds_monotone", check_pacbayes_bound_monotone),
    ("pacbayes.dp_bound_branch_continuous", check_pacbayes_dp_branch_continuity),
    ("pacbayes.gaussian_kl_matches_mc", check_pacbayes_gaussian_kl_mc),
    ("spectral.sigmoid_ft_matches_quadrature", check_spectral_ft_oracle),
    ("spectral.sigmoid_ft_exponential_decay", check_spectral_ft_decay),
    ("spectral.parseval_identity", _seeded(31, 20, lambda rng: (
        rng.standard_normal(int(rng.choice([64, 128, 256]))),), parseval_identity,
        "max parseval error {max:.2e}")),
    ("spectral.capture_band_separability", check_spectral_band_separability),
]


def run_all() -> dict:
    """Run every named invariant; returns the summary for the verify command."""
    results = []
    for name, fn in INVARIANTS:
        try:
            passed, detail = fn()
        except Exception as exc:  # a crash is a failure with the reason attached
            passed, detail = False, f"raised {type(exc).__name__}: {exc}"
        results.append({"name": name, "passed": bool(passed), "detail": detail})
    return {
        "all_passed": all(r["passed"] for r in results),
        "n_invariants": len(results),
        "invariants": results,
    }
