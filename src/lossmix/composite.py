"""Power-mean composition of loss terms.

The composite objective is (sum_m beta_m v_m^p)^(1/p) over per-term loss
values v_m, with simplex weights beta and a fixed power p >= 1. Two modes
exist because the weighted form and the bare lp-norm form behave
differently in p: the weighted power mean is non-decreasing in p, the
unweighted norm non-increasing. This module provides the power-sum kernel
(also used for the analysis module's objective fields), the value, its
exact gradient and p-derivative, the adaptive weight rules, and the
curvature constraint whose sign flip marks the critical power.

The value, the gradient and the adaptive weights take one run's (K,)
vector of term values, or a stack of runs with a leading run axis: values
(R, K), gradients (K, R, P), betas (R, K) and one p per run. Each row of a
stack gets the bits its run gets alone. So the runs are grouped by p and
each group is powered by its scalar p, since numpy takes fast paths for a
scalar exponent of 2 or 0.5 that an array of exponents misses; each run's
M = sum_m beta_m v_m^p is a dot of its own row; and each run's M^(1/p) and
M^(1/p - 1) is a scalar power, since one array power of the Ms can differ
from it in the last bit.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .netcore import softmax

VALUE_FLOOR = 1e-12
SIMPLEX_TOL = 1e-12
MODES = ("weighted", "unweighted")
SCHEME_KINDS = ("single", "multi", "nonlinear")

# verification hook: setting LOSSMIX_MUTATE=composite-grad-sign corrupts the
# composite gradient so the invariant suite can prove it would notice
MUTATE_ENV = "LOSSMIX_MUTATE"


def _check_simplex(rows) -> None:
    """Raise ValueError unless each row of weights is nonnegative and sums
    to 1 within SIMPLEX_TOL; both conditions are written so a NaN fails."""
    for row in rows:
        if len(row) < 1:
            raise ValueError("need at least one weight")
        if not all(b >= 0 for b in row):
            raise ValueError(f"weights must be nonnegative, got {tuple(row)}")
        if not abs(sum(row) - 1.0) <= SIMPLEX_TOL:
            raise ValueError(f"weights must sum to 1, got sum {sum(row)!r}")


@dataclass(frozen=True)
class BetaWeights:
    """Simplex weights over the loss terms."""

    betas: tuple[float, ...]

    def __post_init__(self):
        betas = tuple(float(b) for b in self.betas)
        _check_simplex((betas,))
        object.__setattr__(self, "betas", betas)

    @classmethod
    def uniform(cls, n: int) -> "BetaWeights":
        return cls(tuple(1.0 / n for _ in range(n)))

    @classmethod
    def one_hot(cls, n: int, index: int) -> "BetaWeights":
        if not 0 <= index < n:
            raise ValueError(f"index {index} out of range for {n} terms")
        return cls(tuple(1.0 if i == index else 0.0 for i in range(n)))

    def as_array(self) -> np.ndarray:
        return np.asarray(self.betas, dtype=np.float64)


@dataclass(frozen=True)
class Scheme:
    """Which objective a training run optimizes.

    single: one term alone; multi: the p=1 weighted combination;
    nonlinear: the full power mean at the given p. multi is identical to
    nonlinear(1) in weighted mode, which the tests assert.
    """

    kind: str
    index: int = 0
    p: float = 1.0

    def __post_init__(self):
        if self.kind not in SCHEME_KINDS:
            raise ValueError(f"unknown scheme kind {self.kind!r}")
        if not math.isfinite(self.p):
            raise ValueError(f"power must be finite, got {self.p!r}")
        if self.kind == "nonlinear" and self.p < 1.0:
            raise ValueError("power must be >= 1")
        # a field the kind ignores would train the same run under another name
        if self.kind != "nonlinear" and self.p != 1.0:
            raise ValueError(f"a {self.kind} scheme takes no p, got {self.p!r}")
        if self.kind != "single" and self.index != 0:
            raise ValueError(f"a {self.kind} scheme takes no index, got {self.index!r}")

    @classmethod
    def single(cls, index: int) -> "Scheme":
        return cls(kind="single", index=index)

    @classmethod
    def multi(cls) -> "Scheme":
        return cls(kind="multi")

    @classmethod
    def nonlinear(cls, p: float) -> "Scheme":
        return cls(kind="nonlinear", p=float(p))

    def label(self) -> str:
        if self.kind == "single":
            return f"single[{self.index}]"
        if self.kind == "multi":
            return "multi"
        return f"nonlinear(p={self.p:g})"


def weight_vector(betas, mode: str, k: int) -> np.ndarray:
    """The per-term weights of a mode: the betas, or all ones when unweighted.

    betas is a BetaWeights, or an (R, K) array of checked weight rows, one
    per run, as adaptive_betas returns for a stack.
    """
    if mode not in MODES:
        raise ValueError(f"unknown mode {mode!r}")
    if mode == "unweighted":
        return np.ones(k)
    b = betas.as_array() if isinstance(betas, BetaWeights) else np.asarray(betas, np.float64)
    if b.shape[-1] != k:
        raise ValueError(f"{b.shape[-1]} weights for {k} values")
    return b


def power_sum(stack, b: np.ndarray, p: float):
    """Floored values v and M = sum_m b_m v_m^p over the term axis of stack.

    Every composite quantity is built on this one reduction. stack is a
    1-d vector of term values (M is then a numpy scalar) or a 2-d
    (terms, points) array of fields (M is then one value per point), and b
    is one weight vector or one per point. Each point's M is the BLAS dot
    of its own contiguous row of powers: the bits a lone vector of its
    values gets, which a matrix-vector product misses.
    """
    v = np.maximum(np.asarray(stack, dtype=np.float64), VALUE_FLOOR)
    return v, np.vecdot(np.ascontiguousarray((v ** p).T), b)


def power_mean(stack, b: np.ndarray, p: float):
    """(sum_m b_m v_m^p)^(1/p) over the term axis of stack; see power_sum."""
    return power_sum(stack, b, p)[1] ** (1.0 / p)


def _power(p) -> float:
    """p as a float, checked to be finite and at least 1."""
    p = float(p)
    if not math.isfinite(p):
        raise ValueError(f"power p={p} is not finite")
    if p < 1.0:
        raise ValueError(f"power p={p} is below 1, outside the analyzed regime")
    return p


def _prep(values, betas, p, mode: str):
    """The values as float64 and, for each group of runs that share a power
    p, (rows, p, v, b, M): the group's floored (runs, K) values and weights
    and each run's M = sum_m b_m v_m^p. A lone (K,) vector is one group."""
    values = np.asarray(values, dtype=np.float64)
    if values.ndim == 1:
        groups = [(..., _power(p))]
    else:
        powers = [_power(q) for q in p]
        if len(powers) != len(values):
            raise ValueError(f"{len(powers)} powers for {len(values)} runs")
        groups = ([(slice(None), powers[0])] if len(set(powers)) == 1 else
                  [([r for r, x in enumerate(powers) if x == q], q)
                   for q in dict.fromkeys(powers)])
    b = weight_vector(betas, mode, values.shape[-1])
    if b.ndim > 1 and b.shape != values.shape:
        raise ValueError(f"weights of shape {b.shape} for values of shape {values.shape}")
    sums = []
    for rows, q in groups:
        bq = b if b.ndim == 1 else b[rows]
        v, m = power_sum(values[rows].T, bq, q)
        sums.append((rows, q, v.T, bq, m))
    return values, sums


def _scalar_powers(m, e):
    """m ** e, taken on each run's M as a numpy scalar."""
    return np.array([x ** e for x in m]) if isinstance(m, np.ndarray) else m ** e


def composite_value(values, betas, p, mode: str = "weighted"):
    """(sum_m beta_m v_m^p)^(1/p); unweighted mode drops the betas.

    A (K,) vector gives a float; an (R, K) stack gives each run's value in
    an (R,) array.
    """
    values, sums = _prep(values, betas, p, mode)
    out = np.empty(values.shape[:-1])
    for rows, q, _, _, m in sums:
        out[rows] = _scalar_powers(m, 1.0 / q)
    return float(out) if out.ndim == 0 else out


def composite_grad(values, grads: Sequence[np.ndarray], betas, p,
                   mode: str = "weighted") -> np.ndarray:
    """Chain-rule gradient M^(1/p - 1) * sum_m beta_m v_m^(p-1) g_m.

    M = sum_m beta_m v_m^p; the g_m are the per-term parameter gradients,
    one (R, P) array per term for an (R, K) stack of values. Each run's
    gradient is accumulated from zeros in term order.
    """
    values, sums = _prep(values, betas, p, mode)
    gs = [np.asarray(g, dtype=np.float64) for g in grads]
    if len(gs) != values.shape[-1]:
        raise ValueError(f"{len(gs)} gradients for {values.shape[-1]} values")
    if len({g.shape for g in gs}) > 1:
        raise ValueError("gradient vectors must share one shape")
    if values.ndim == 2 and gs[0].shape[:-1] != values.shape[:-1]:
        raise ValueError(f"gradients of shape {gs[0].shape} for {len(values)} runs")
    coeffs = np.empty(values.shape)
    for rows, q, v, bq, m in sums:
        coeffs[rows] = _scalar_powers(m, 1.0 / q - 1.0)[..., None] * bq * v ** (q - 1.0)
    total = np.zeros_like(gs[0])
    for k, g in enumerate(gs):
        total += coeffs[..., k, None] * g
    if os.environ.get(MUTATE_ENV, "") == "composite-grad-sign":
        total = -total
    return total


def adaptive_betas(grad_norms, rule: str = "softmax"):
    """Weights from per-term gradient norms.

    softmax: beta_m = exp(-norm_m) / Z, which rewards the term whose
    gradient is currently smallest. paper-max (two terms only): the
    larger softmax weight is handed to the first term as printed in the
    adaptive rule, and the second gets the remainder.

    A (K,) vector of norms gives a BetaWeights; an (R, K) stack gives an
    (R, K) array of weight rows, checked once.
    """
    norms = np.asarray(grad_norms, dtype=np.float64)
    if not np.all(np.isfinite(norms)):
        raise ValueError("non-finite gradient norms")
    soft = softmax(-norms)
    if rule == "softmax":
        betas = soft
    elif rule == "paper-max":
        if norms.shape[-1] != 2:
            raise ValueError("paper-max rule is defined for exactly two terms")
        b1 = soft.max(axis=-1)
        betas = np.stack([b1, 1.0 - b1], axis=-1)
    else:
        raise ValueError(f"unknown adaptive rule {rule!r}")
    if betas.ndim == 1:
        return BetaWeights(tuple(betas.tolist()))
    _check_simplex(betas.tolist())
    return betas


def dvalue_dp(values: Sequence[float], betas: BetaWeights, p: float,
              mode: str) -> float:
    """Exact derivative of composite_value with respect to p.

    d/dp M^(1/p) = M^(1/p) * [ -ln(M)/p^2 + (sum beta v^p ln v) / (p M) ].
    Both terms are kept; dropping the -ln(M)/p^2 piece flips signs in the
    weighted mode, so every monotonicity claim is checked numerically.
    """
    ((_, p, v, b, m),) = _prep(values, betas, p, mode)[1]
    term = float(np.dot(b, v ** p * np.log(v)))
    return float(m ** (1.0 / p) * (-np.log(m) / p ** 2 + term / (p * m)))


def constraint9_check(L: float, g: float, h: float, p: float) -> bool:
    """True iff (p - 1) g^2 + L h > 0, the strengthening condition."""
    if L <= 0:
        raise ValueError("loss value must be positive")
    return (p - 1.0) * g * g + L * h > 0.0


def critical_p(L: float, g: float, h: float) -> float:
    """The power where constraint9_check flips: 1 - L h / g^2."""
    if L <= 0:
        raise ValueError("loss value must be positive")
    if g == 0.0:
        raise ValueError("undefined critical power: zero first derivative")
    # formulated as a single quotient so the flip point lands exactly
    return (g * g - L * h) / (g * g)


def directional_curvature(loss_fn: Callable[[np.ndarray], np.ndarray],
                          params: np.ndarray, direction: np.ndarray, h: float,
                          f0: np.ndarray):
    """Central-difference first and second derivatives along unit directions.

    params and direction are (R, P) stacks, one unit direction per run;
    loss_fn maps such a stack to (R, terms) per-term values, and f0 is its
    value at params, which the caller already holds. Returns the (R, terms)
    arrays g and h; each entry is computed with the arithmetic of Python
    floats, so it is the same bits for one term alone as for many.
    """
    if h <= 0:
        raise ValueError("h must be positive")
    params = np.asarray(params, dtype=np.float64)
    direction = np.asarray(direction, dtype=np.float64)
    norm = np.linalg.norm(direction, axis=-1)
    if not np.all(np.isclose(norm, 1.0, rtol=0, atol=1e-8)):
        raise ValueError(f"direction must be a unit vector, norm {norm}")
    f0 = np.asarray(f0, dtype=np.float64)
    f_hi = np.asarray(loss_fn(params + h * direction), dtype=np.float64)
    f_lo = np.asarray(loss_fn(params - h * direction), dtype=np.float64)
    if not np.all(np.isfinite(f0) & np.isfinite(f_hi) & np.isfinite(f_lo)):
        raise ValueError("non-finite loss evaluation along direction")
    # +, -, * and / round the same elementwise as on Python floats
    g = (f_hi - f_lo) / (2.0 * h)
    h2 = (f_hi - 2.0 * f0 + f_lo) / (h * h)
    return g, h2
