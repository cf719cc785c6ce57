"""PAC-Bayes bound evaluators: the linear bound, the differentially-private
data-dependent-prior bound, Bernoulli-KL inversion, and the Monte-Carlo
0-1 risk of an isotropic Gaussian posterior over network weights, against
a zero-mean isotropic Gaussian prior.

Natural logarithms throughout. The linear bound is only meaningful for
lambda > 1/2, where its (1 - 1/(2 lambda)) factor is positive; the
evaluators reject anything at or below that threshold.

The Bernoulli-KL inversion bisects in ``kl_inverse`` itself, with the
steps of ``scipy.optimize.bisect`` from its one bracket, so the root has
scipy's bits; importing scipy.optimize cost about 0.2 s of every command's
start-up for that one call.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import netcore, optim
from .data import Dataset
from .losses import LossKind, loss_means
from .netcore import MLPSpec
from .schema import check_fields, setting


@dataclass(frozen=True)
class GaussianPosterior:
    """Isotropic Gaussian over the flat weight vector."""

    mean: np.ndarray
    sigma: float = setting(type="number", exclusiveMinimum=0)

    def __post_init__(self):
        check_fields(self)
        object.__setattr__(self, "mean", np.asarray(self.mean, dtype=np.float64))

    @property
    def dim(self) -> int:
        return self.mean.size

    def sample(self, rng: np.random.Generator) -> np.ndarray:
        return self.mean + self.sigma * rng.standard_normal(self.dim)


@dataclass(frozen=True)
class GaussianPrior:
    """Zero-mean isotropic Gaussian prior with standard deviation lambda_p."""

    lambda_p: float = setting(type="number", exclusiveMinimum=0)

    def __post_init__(self):
        check_fields(self)
        try:
            two_var = 2.0 * self.lambda_p ** 2
        except OverflowError:
            two_var = math.inf
        if not 0.0 < two_var < math.inf:  # kl_gaussians divides by it
            raise ValueError(f"2 lambda_p^2 is {two_var:g} for lambda_p "
                             f"{self.lambda_p:g}; it must be positive and finite")


@dataclass(frozen=True)
class BoundParams:
    lam: float = setting(type="number", key="lambda")
    l_max: float = setting(type="number", exclusiveMinimum=0)
    delta: float = setting(type="number", exclusiveMinimum=0, exclusiveMaximum=1)
    m: int  # the training set's size, not a config key
    eps_dp: float = setting(0.0, type="number", minimum=0)

    def __post_init__(self):
        check_fields(self)
        if self.lam <= 0.5:
            raise ValueError(
                "lambda must be greater than 1/2: the linear risk bound's "
                "(1 - 1/(2 lambda)) factor must be positive")
        if self.m < 2:
            raise ValueError("m must be at least 2")


def kl_spread_term(d: int, sigma: float, P: GaussianPrior) -> float:
    """d (ln(lambda_p / sigma) + sigma^2 / (2 lambda_p^2) - 1/2): the part of
    kl_gaussians that the posterior mean does not enter, so a config fixes
    it before any training. ValueError where it has no finite value."""
    try:
        term = d * (math.log(P.lambda_p / sigma) + sigma ** 2 / (2.0 * P.lambda_p ** 2)
                    - 0.5)
    except (OverflowError, ValueError):  # sigma ** 2, or the log of 0
        term = math.nan
    if not math.isfinite(term):
        raise ValueError(f"sigma {sigma:g} against lambda_p {P.lambda_p:g} in {d} "
                         f"dimensions gives the KL no finite value")
    return term


def kl_gaussians(Q: GaussianPosterior, P: GaussianPrior) -> float:
    """Closed-form KL from an isotropic Gaussian posterior to the zero-mean
    prior. FloatingPointError, naming the posterior mean, where it is not
    finite: only the trained mean can tell, so it is a runtime failure."""
    with np.errstate(over="ignore"):  # reported below, naming the mean
        shift = float(np.dot(Q.mean, Q.mean))
    kl = kl_spread_term(Q.dim, Q.sigma, P) + shift / (2.0 * P.lambda_p ** 2)
    if not math.isfinite(kl):
        raise FloatingPointError(f"the posterior mean's squared norm {shift:g} "
                                 f"gives the KL no finite value")
    return kl


@dataclass(frozen=True)
class EmpiricalRisk:
    value: float
    std_error: float


def empirical_risk(Q: GaussianPosterior, spec: MLPSpec, data: Dataset,
                   n_samples: int, seed: int) -> EmpiricalRisk:
    """Monte-Carlo 0-1 risk on the dataset over weight draws from the posterior.

    The draws go through netcore as (R, P) stacks of at most
    optim.stack_size draws, the size a training stack on this dataset has,
    so a wide net still takes one draw per forward; each draw's risk is
    the bits a forward of its own gives. The 0-1 loss is bounded in
    [0, 1], which the Bernoulli-kl inversion of risk_certificate needs.
    A draw whose predictions are not finite raises FloatingPointError:
    only the draws can tell, so it is a runtime failure, not a bad input.
    """
    if n_samples < 1:
        raise ValueError("need at least one posterior draw")
    if Q.dim != spec.n_params:
        raise ValueError("posterior dimension does not match the network")
    rng = np.random.default_rng(seed)
    chunk = optim.stack_size(spec, data, data)
    draws = np.empty(n_samples)
    for start in range(0, n_samples, chunk):
        stack = np.stack([Q.sample(rng) for _ in range(min(chunk, n_samples - start))])
        # a draw whose forward overflows is reported below, naming the draw,
        # so numpy's overflow and invalid-value warnings would only print first
        with np.errstate(over="ignore", invalid="ignore"):
            preds = netcore.forward(spec, stack, data)
        if not np.isfinite(preds).all():
            finite = np.isfinite(preds).reshape(len(stack), -1).all(axis=1)
            raise FloatingPointError(f"non-finite predictions for posterior draw "
                                     f"{start + int(np.argmin(finite))} of {n_samples}")
        draws[start:start + len(stack)] = loss_means(LossKind.ZERO_ONE, preds,
                                                     data.targets)
    se = float(draws.std(ddof=1) / math.sqrt(n_samples)) if n_samples > 1 else 0.0
    return EmpiricalRisk(value=float(draws.mean()), std_error=se)


def linear_pac_bound(emp_risk: float, kl: float, params: BoundParams) -> float:
    """[R_hat + (lambda L_max / m)(KL + ln(1/delta))] / (1 - 1/(2 lambda))."""
    if kl < 0:
        raise ValueError("kl must be nonnegative")
    penalty = params.lam * params.l_max / params.m * (kl + math.log(1.0 / params.delta))
    return (emp_risk + penalty) / (1.0 - 1.0 / (2.0 * params.lam))


def privacy_term(m: int, eps_dp: float) -> float:
    """m eps_dp^2, dp_pac_bound's privacy term; ValueError where it overflows."""
    try:
        term = m * eps_dp ** 2
    except OverflowError:
        term = math.inf
    if not math.isfinite(term):
        raise ValueError(f"m eps_dp^2 overflows for m {m} and eps_dp {eps_dp:g}")
    return term


def dp_pac_bound(kl: float, params: BoundParams) -> float:
    """(KL + ln 2m + 2 max{ln(3/delta), m eps^2}) / (m - 1)."""
    if kl < 0:
        raise ValueError("kl must be nonnegative")
    branch = max(math.log(3.0 / params.delta), privacy_term(params.m, params.eps_dp))
    return (kl + math.log(2.0 * params.m) + 2.0 * branch) / (params.m - 1.0)


def bernoulli_kl(q: float, p: float) -> float:
    """kl(q || p) between Bernoulli rates, with 0 ln 0 = 0."""
    if not 0.0 <= q <= 1.0 or not 0.0 < p < 1.0:
        raise ValueError("need q in [0, 1] and p in (0, 1)")
    out = 0.0
    if q > 0.0:
        out += q * math.log(q / p)
    if q < 1.0:
        out += (1.0 - q) * math.log((1.0 - q) / (1.0 - p))
    return out


def kl_inverse(q: float, c: float) -> float:
    """Largest p >= q with bernoulli_kl(q, p) <= c, by bisection."""
    if not c >= 0:  # a NaN budget fails too
        raise ValueError("kl budget must be nonnegative")
    if not 0.0 <= q <= 1.0:
        raise ValueError("q must be in [0, 1]")
    if c == 0.0 or q == 1.0:
        return q
    p_max = 1.0 - 1e-15
    if q >= p_max:
        return q
    if bernoulli_kl(q, p_max) <= c:
        return 1.0
    # scipy.optimize.bisect's steps for bernoulli_kl(q, .) - c on
    # [a, p_max]: it is -c at a, where kl(q, q) is 0 and kl(0, 1e-300)
    # rounds to 0, and positive at p_max, so neither end is a root; an
    # interval under 1 halves below xtol 1e-12 within 40 steps
    a = q if q > 0 else 1e-300
    dm = p_max - a
    rtol = 4 * math.ulp(1.0)  # scipy's smallest rtol, 4 eps
    while True:
        dm *= 0.5
        xm = a + dm
        fm = bernoulli_kl(q, xm) - c
        if fm * -c >= 0:
            a = xm
        if fm == 0 or abs(dm) < 1e-12 + rtol * abs(xm):
            return xm


@dataclass(frozen=True)
class Certificate:
    """Bundle of the pieces behind one certified risk upper bound; its
    dataclasses.asdict is the certificate file's document."""

    emp_risk: float
    emp_se: float
    kl_q_p: float
    m: int
    delta: float
    eps_dp: float
    dp_bound: float
    risk_upper: float


def risk_certificate(Q: GaussianPosterior, P: GaussianPrior, spec: MLPSpec,
                     data: Dataset, params: BoundParams, n_samples: int,
                     seed: int) -> Certificate:
    """Empirical risk + Gaussian KL + DP bound + Bernoulli inversion.

    The inverted bound turns the KL-between-risks statement into an
    explicit upper bound on the true risk, so certificates from models
    trained under different schemes compare on one scale.
    """
    risk = empirical_risk(Q, spec, data, n_samples, seed)
    kl = kl_gaussians(Q, P)
    bound = dp_pac_bound(kl, params)
    upper = kl_inverse(min(max(risk.value, 0.0), 1.0), bound)
    return Certificate(
        emp_risk=risk.value, emp_se=risk.std_error, kl_q_p=kl,
        m=params.m, delta=params.delta, eps_dp=params.eps_dp,
        dp_bound=bound, risk_upper=upper,
    )
