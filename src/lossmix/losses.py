"""Individual surrogate losses (MSE, CE, JSD, 0-1) with analytic gradients.

All values are means over samples. CE and JSD read rows as probability
vectors (a single column is treated as a Bernoulli parameter); their
inputs are clamped to [CLAMP, 1 - CLAMP] before any log. The 0-1 loss is
evaluation-only and refuses to produce a gradient.

``loss_means`` and ``loss_output_grad`` take predictions of shape
(n, k) or (R, n, k), one (n, k) block per stacked training run, against
(n, k) or matching targets, and leave finiteness to the caller;
``loss_value`` is the checked single-run form.

``row_sum`` and ``row_max`` reduce over the last axis with the bits of
numpy's ``sum`` and ``max``. numpy's reduce is slow over a short axis:
at (9, 300, 2), ``sum`` and ``max`` take about 60 and 120 us against 5 and
3 us for two elementwise ops on the columns. numpy adds an axis of fewer
than 8 entries left to right, onto its identity 0.0; pairwise summation
starts at 8. So below 8 the helpers take the columns left to right, and
``max`` is exact in any order. An axis of 8 or more keeps numpy's reduce.
The 0-1 loss compares two columns directly, with argmax's rules: the
first maximum wins a tie and the first NaN counts as the maximum.
(``netcore``'s bias gradient follows the same aim: einsum's in-order sum
over the samples only where a layer has n_out > 1, since with one column
numpy sums pairwise and einsum moved the spectral workload's digests.)
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

CLAMP = 1e-12
_PAIRWISE_FROM = 8  # numpy sums a contiguous axis this long pairwise


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
    # np.clip's bits, without its wrapper's per-call cost
    return np.minimum(np.maximum(p, CLAMP), 1.0 - CLAMP)


def _sample_mean(x: np.ndarray):
    """x.mean(axis=-1), bit for bit: numpy's mean is this reduce and divide."""
    return np.add.reduce(x, axis=-1) / x.shape[-1]


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


def _fold(op, x: np.ndarray, keepdims: bool) -> np.ndarray:
    """op over the columns of x, left to right, into a new array."""
    k = x.shape[-1]
    acc = op(x[..., 0], x[..., 1]) if k > 1 else x[..., 0].copy()
    for j in range(2, k):  # not in place: a 1-d x folds to a numpy scalar
        acc = op(acc, x[..., j])
    return acc[..., None] if keepdims else acc


def row_sum(x: np.ndarray, keepdims: bool = False) -> np.ndarray:
    """x.sum(axis=-1, keepdims=keepdims), bit for bit."""
    if x.shape[-1] >= _PAIRWISE_FROM:
        return x.sum(axis=-1, keepdims=keepdims)
    acc = _fold(np.add, x, keepdims)
    acc += 0.0  # numpy adds onto its identity 0.0, so -0.0 + -0.0 sums to 0.0
    return acc


def row_max(x: np.ndarray, keepdims: bool = False) -> np.ndarray:
    """x.max(axis=-1, keepdims=keepdims): the same bits, except that a NaN
    keeps its own sign and payload where numpy's reduce writes its
    default NaN."""
    if x.shape[-1] >= _PAIRWISE_FROM:
        return x.max(axis=-1, keepdims=keepdims)
    return _fold(np.maximum, x, keepdims)


def _argmax_classes(rows: np.ndarray) -> np.ndarray:
    if rows.shape[-1] == 1:
        return (rows[..., 0] >= 0.5).astype(int)
    if rows.shape[-1] == 2:
        # column 1 only where it is larger or NaN and column 0 is not NaN
        a, b = rows[..., 0], rows[..., 1]
        return np.greater(a == a, a >= b).astype(np.intp)
    return rows.argmax(axis=-1)


def loss_means(kind: LossKind, predictions: np.ndarray, targets: np.ndarray):
    """The mean loss over the sample axis: a float64 scalar for (n, k)
    predictions, one mean per run for (R, n, k). Non-finite inputs give
    non-finite means rather than an error."""
    _check_shapes(predictions, targets)
    if kind == LossKind.MSE:
        return _sample_mean(row_sum((targets - predictions) ** 2))
    if kind == LossKind.CE:
        f = _clip_probs(predictions)
        if predictions.shape[-1] == 1:
            per = -(targets * np.log(f) + (1.0 - targets) * np.log(1.0 - f))
        else:
            per = -(targets * np.log(f))
        return _sample_mean(row_sum(per))
    if kind == LossKind.JSD:
        p = _clip_probs(_as_rows(predictions))
        q = _clip_probs(_as_rows(targets))
        m = 0.5 * (p + q)
        v = _sample_mean(0.5 * row_sum(p * np.log(p / m) + q * np.log(q / m)))
        # rounding may undershoot zero by an ulp or two
        return np.where((v > -1e-15) & (v < 0.0), 0.0, v)[()]
    if kind == LossKind.ZERO_ONE:
        return np.mean(_argmax_classes(predictions) != _argmax_classes(targets), axis=-1)
    raise ValueError(f"unknown loss kind {kind!r}")


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

