"""Power-mean composition of loss terms.

The composite objective is (sum_m beta_m v_m^p)^(1/p) over per-term loss
values v_m, with simplex weights beta and a fixed power p >= 1. Two modes
exist because the weighted form and the bare lp-norm form behave
differently in p: the weighted power mean is non-decreasing in p, the
unweighted norm non-increasing. This module provides the power-sum kernel
(also used for the analysis module's objective fields), the value, its
exact gradient and p-derivative, the adaptive weight rules, and the
curvature constraint whose sign flip marks the critical power.
"""

from __future__ import annotations

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


def _mutated(tag: str) -> bool:
    return os.environ.get(MUTATE_ENV, "") == tag


@dataclass(frozen=True)
class BetaWeights:
    """Simplex weights over the loss terms."""

    betas: tuple[float, ...]

    def __post_init__(self):
        betas = tuple(float(b) for b in self.betas)
        if len(betas) < 1:
            raise ValueError("need at least one weight")
        if any(b < 0 for b in betas):
            raise ValueError(f"weights must be nonnegative, got {betas}")
        if abs(sum(betas) - 1.0) > SIMPLEX_TOL:
            raise ValueError(f"weights must sum to 1, got sum {sum(betas)!r}")
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
        if self.kind == "nonlinear" and self.p < 1.0:
            raise ValueError("power must be >= 1")

    @classmethod
    def single(cls, index: int) -> "Scheme":
        return cls(kind="single", index=index)

    @classmethod
    def multi(cls) -> "Scheme":
        return cls(kind="multi", p=1.0)

    @classmethod
    def nonlinear(cls, p: float) -> "Scheme":
        return cls(kind="nonlinear", p=float(p))

    @property
    def effective_p(self) -> float:
        return self.p if self.kind == "nonlinear" else 1.0

    def label(self) -> str:
        if self.kind == "single":
            return f"single[{self.index}]"
        if self.kind == "multi":
            return "multi"
        return f"nonlinear(p={self.p:g})"


def weight_vector(betas: BetaWeights, mode: str, k: int) -> np.ndarray:
    """The per-term weights of a mode: the betas, or all ones when unweighted."""
    if mode not in MODES:
        raise ValueError(f"unknown mode {mode!r}")
    if mode == "unweighted":
        return np.ones(k)
    b = betas.as_array()
    if b.size != k:
        raise ValueError(f"{b.size} weights for {k} values")
    return b


def power_sum(stack, b: np.ndarray, p: float):
    """Floored values v and M = sum_m b_m v_m^p over the term axis of stack.

    Every composite quantity is built on this one reduction. stack is a
    1-d vector of term values (M is then a numpy scalar) or a 2-d
    (terms, points) array of fields (M is then one value per point). Each
    point's M is the BLAS dot of its own contiguous row of powers: the bits
    a lone vector of its values gets, which a matrix-vector product misses.
    """
    v = np.maximum(np.asarray(stack, dtype=np.float64), VALUE_FLOOR)
    return v, np.vecdot(np.ascontiguousarray((v ** p).T), b)


def power_mean(stack, b: np.ndarray, p: float):
    """(sum_m b_m v_m^p)^(1/p) over the term axis of stack; see power_sum."""
    return power_sum(stack, b, p)[1] ** (1.0 / p)


def _prep(values: Sequence[float], betas: BetaWeights, p: float, mode: str):
    if p < 1.0:
        raise ValueError(f"power p={p} is below 1, outside the analyzed regime")
    values = np.asarray(values, dtype=np.float64)
    return values, weight_vector(betas, mode, values.size)


def composite_value(values: Sequence[float], betas: BetaWeights, p: float,
                    mode: str = "weighted") -> float:
    """(sum_m beta_m v_m^p)^(1/p); unweighted mode drops the betas."""
    values, b = _prep(values, betas, p, mode)
    return float(power_mean(values, b, p))


def composite_grad(values: Sequence[float], grads: Sequence[np.ndarray],
                   betas: BetaWeights, p: float, mode: str = "weighted") -> np.ndarray:
    """Chain-rule gradient M^(1/p - 1) * sum_m beta_m v_m^(p-1) g_m.

    M = sum_m beta_m v_m^p; the g_m are the per-term parameter gradients.
    """
    values, b = _prep(values, betas, p, mode)
    gs = [np.asarray(g, dtype=np.float64) for g in grads]
    if len(gs) != values.size:
        raise ValueError(f"{len(gs)} gradients for {values.size} values")
    if len({g.shape for g in gs}) > 1:
        raise ValueError("gradient vectors must share one shape")
    v, m = power_sum(values, b, p)
    coeffs = m ** (1.0 / p - 1.0) * b * v ** (p - 1.0)
    total = np.zeros_like(gs[0])
    for c, g in zip(coeffs, gs):
        total += c * g
    if _mutated("composite-grad-sign"):
        total = -total
    return total


def adaptive_betas(grad_norms: Sequence[float], rule: str = "softmax") -> BetaWeights:
    """Weights from per-term gradient norms.

    softmax: beta_m = exp(-norm_m) / Z, which rewards the term whose
    gradient is currently smallest. paper-max (two terms only): the
    larger softmax weight is handed to the first term as printed in the
    adaptive rule, and the second gets the remainder.
    """
    norms = np.asarray(grad_norms, dtype=np.float64)
    if not np.all(np.isfinite(norms)):
        raise ValueError("non-finite gradient norms")
    soft = softmax(-norms)
    if rule == "softmax":
        return BetaWeights(tuple(soft.tolist()))
    if rule == "paper-max":
        if norms.size != 2:
            raise ValueError("paper-max rule is defined for exactly two terms")
        b1 = float(soft.max())
        return BetaWeights((b1, 1.0 - b1))
    raise ValueError(f"unknown adaptive rule {rule!r}")


def dvalue_dp(values: Sequence[float], betas: BetaWeights, p: float,
              mode: str = "weighted") -> float:
    """Exact derivative of composite_value with respect to p.

    d/dp M^(1/p) = M^(1/p) * [ -ln(M)/p^2 + (sum beta v^p ln v) / (p M) ].
    Both terms are kept; dropping the -ln(M)/p^2 piece flips signs in the
    weighted mode, so every monotonicity claim is checked numerically.
    """
    values, b = _prep(values, betas, p, mode)
    v, m = power_sum(values, b, p)
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
