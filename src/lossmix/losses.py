"""Individual surrogate losses (MSE, CE, JSD, 0-1) with analytic gradients.

All values are means over samples. CE and JSD read rows as probability
vectors (a single column is treated as a Bernoulli parameter); their
inputs are clamped to [CLAMP, 1 - CLAMP] before any log. The 0-1 loss is
evaluation-only and refuses to produce a gradient.

``loss_means`` and ``loss_output_grad`` take predictions of shape
(n, k) or (R, n, k), one (n, k) block per stacked training run, against
(n, k) or matching targets, and leave finiteness to the caller;
``loss_value`` is the checked single-run form.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

CLAMP = 1e-12


class LossKind(str, enum.Enum):
    MSE = "mse"
    CE = "ce"
    JSD = "jsd"
    ZERO_ONE = "zero_one"


@dataclass(frozen=True)
class LossValue:
    value: float
    kind: LossKind

    def __post_init__(self):
        if not np.isfinite(self.value):
            raise ValueError(f"non-finite {self.kind.value} loss")


def _clip_probs(p: np.ndarray) -> np.ndarray:
    return np.clip(p, CLAMP, 1.0 - CLAMP)


def _check_shapes(predictions: np.ndarray, targets: np.ndarray) -> None:
    if predictions.ndim < 2 or predictions.shape[-2:] != targets.shape[-2:]:
        raise ValueError(
            f"shape mismatch: predictions {predictions.shape} vs targets {targets.shape}"
        )


def _as_rows(p: np.ndarray) -> np.ndarray:
    """Rows as distributions; a single column becomes (p, 1-p)."""
    if p.shape[-1] == 1:
        return np.concatenate([p, 1.0 - p], axis=-1)
    return p


def _argmax_classes(rows: np.ndarray) -> np.ndarray:
    if rows.shape[-1] == 1:
        return (rows[..., 0] >= 0.5).astype(int)
    return rows.argmax(axis=-1)


def loss_means(kind: LossKind, predictions: np.ndarray, targets: np.ndarray):
    """The mean loss over the sample axis: a float64 scalar for (n, k)
    predictions, one mean per run for (R, n, k). Non-finite inputs give
    non-finite means rather than an error."""
    _check_shapes(predictions, targets)
    if kind == LossKind.MSE:
        v = ((targets - predictions) ** 2).sum(axis=-1).mean(axis=-1)
    elif kind == LossKind.CE:
        f = _clip_probs(predictions)
        if predictions.shape[-1] == 1:
            per = -(targets * np.log(f) + (1.0 - targets) * np.log(1.0 - f))
        else:
            per = -(targets * np.log(f))
        v = per.sum(axis=-1).mean(axis=-1)
    elif kind == LossKind.JSD:
        p = _clip_probs(_as_rows(predictions))
        q = _clip_probs(_as_rows(targets))
        m = 0.5 * (p + q)
        per = 0.5 * (p * np.log(p / m) + q * np.log(q / m)).sum(axis=-1)
        v = per.mean(axis=-1)
    elif kind == LossKind.ZERO_ONE:
        v = np.mean(_argmax_classes(predictions) != _argmax_classes(targets), axis=-1)
    else:
        raise ValueError(f"unknown loss kind {kind!r}")
    # JSD rounding may undershoot zero by an ulp or two
    return np.where((v > -1e-15) & (v < 0.0), 0.0, v)[()]


def loss_value(kind: LossKind, predictions: np.ndarray, targets: np.ndarray) -> LossValue:
    """The checked mean loss of one (n, k) prediction block."""
    predictions = np.asarray(predictions, dtype=np.float64)
    targets = np.asarray(targets, dtype=np.float64)
    if predictions.shape != targets.shape or predictions.ndim != 2:
        raise ValueError(
            f"shape mismatch: predictions {predictions.shape} vs targets {targets.shape}"
        )
    if not (np.all(np.isfinite(predictions)) and np.all(np.isfinite(targets))):
        raise ValueError("non-finite loss inputs")
    return LossValue(value=float(loss_means(kind, predictions, targets)), kind=kind)


def loss_output_grad(kind: LossKind, predictions: np.ndarray,
                     targets: np.ndarray) -> np.ndarray:
    """Exact gradient of loss_means with respect to the predictions."""
    _check_shapes(predictions, targets)
    n = predictions.shape[-2]
    if kind == LossKind.ZERO_ONE:
        raise ValueError("non-differentiable surrogate target")
    if kind == LossKind.MSE:
        return 2.0 * (predictions - targets) / n
    if kind == LossKind.CE:
        f = _clip_probs(predictions)
        if predictions.shape[-1] == 1:
            return -(targets / f - (1.0 - targets) / (1.0 - f)) / n
        return -(targets / f) / n
    if kind == LossKind.JSD:
        p = _clip_probs(_as_rows(predictions))
        q = _clip_probs(_as_rows(targets))
        m = 0.5 * (p + q)
        g = 0.5 * np.log(p / m) / n
        if predictions.shape[-1] == 1:
            # d/df of JSD((f,1-f), (y,1-y))
            return (g[..., :1] - g[..., 1:2])
        return g
    raise ValueError(f"unknown loss kind {kind!r}")

