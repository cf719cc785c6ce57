"""Dense feed-forward network substrate with exact reverse-mode gradients.

Everything downstream treats the network as a differentiable black box:
``forward`` produces predictions, ``backward`` pulls an output-space
gradient back to a flat parameter gradient, ``term_values_and_grads``
shares one forward pass and one set of hidden-layer derivatives among
every loss term's value and gradient, and
``finite_diff_grad`` is the independent central-difference oracle used to
check them. All arithmetic is float64; the verification suite asserts
1e-6-level gradient agreement, which float32 cannot sustain.

Parameters are one flat vector (P,) or a stack (R, P) of R runs of the
same architecture; inputs are (n, d), shared by every run, or (R, n, d).
A stacked pass runs each run's slice through the same numpy kernels as an
unstacked pass, and the tests pin that each run gets the same bits.

A product with inner dimension 1 is a broadcast: a layer with fan-in 1
forwards ``a * w``, and the backward into a layer with fan-out 1 takes
``delta * w.T``. Each is one multiply per entry: the bits of ``@``,
without a BLAS call. Every layer before the first with fan-in > 1
therefore works elementwise, and the bits of a row do not depend on where
it sits in the batch (``elementwise_layers``), while BLAS may round a row
of a wider product by its place. ``_forward_cache`` can start at that
first layer from activations a previous pass computed on the same rows in
another order.

The sigmoid is ``scipy.special.expit``: numpy has no sigmoid with the
same bits. The first sigmoid layer loads expit's compiled extension,
``scipy.special._special_ufuncs``, by itself (``_load_expit``), without
the scipy.special package, whose import costs about 0.3 s (mostly its
array-API layer) that no lossmix net needs. The ufunc is the very object
``scipy.special.expit`` names, so the bits cannot differ.

Importing this module sets glibc's malloc thresholds so that freed heap
pages stay mapped (see ``_keep_freed_pages``): a wide net's per-epoch
temporaries are then reused instead of faulted in and zeroed again by the
kernel every epoch.
"""

from __future__ import annotations

import ctypes
import importlib.machinery
import importlib.util
import os
import sys
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Sequence

import numpy as np

from .losses import LossKind, loss_means, loss_output_grad

HIDDEN_ACTIVATIONS = ("sigmoid", "tanh", "relu")
OUTPUT_KINDS = ("linear", "softmax", "sigmoid")

# glibc <malloc.h> mallopt parameters
_M_TRIM_THRESHOLD = -1
_M_MMAP_THRESHOLD = -3


def _keep_freed_pages() -> None:
    """Keep freed heap pages mapped for reuse.

    glibc's default thresholds (128 KiB, raised as mmapped blocks are
    freed) hand large freed blocks back to the kernel, by munmap or by
    trimming the top of the heap, so a 256 x 200 float64 temporary
    (400 KB) freed in one epoch is faulted in and zeroed again in the next.
    32 MiB is glibc's largest mmap threshold on 64-bit; a trim threshold
    above it keeps what the heap grew to. Does nothing where the C library
    has no mallopt.
    """
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, TypeError, AttributeError):
        return
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt(_M_MMAP_THRESHOLD, 32 << 20)
    mallopt(_M_TRIM_THRESHOLD, 64 << 20)


_keep_freed_pages()


@dataclass(frozen=True)
class MLPSpec:
    """Architecture of a fully-connected net, input width first."""

    layer_widths: tuple[int, ...]
    hidden_activation: str = "tanh"
    output_kind: str = "softmax"

    def __post_init__(self):
        object.__setattr__(self, "layer_widths", tuple(int(w) for w in self.layer_widths))
        if len(self.layer_widths) < 2:
            raise ValueError("need at least an input and an output layer")
        if any(w < 1 for w in self.layer_widths):
            raise ValueError(f"layer widths must be >= 1, got {self.layer_widths}")
        if self.hidden_activation not in HIDDEN_ACTIVATIONS:
            raise ValueError(f"unknown hidden activation {self.hidden_activation!r}")
        if self.output_kind not in OUTPUT_KINDS:
            raise ValueError(f"unknown output kind {self.output_kind!r}")
        if self.output_kind == "softmax" and self.layer_widths[-1] < 2:
            raise ValueError(
                "softmax output needs width >= 2; use output_kind='sigmoid' "
                "for a binary head"
            )

    @property
    def input_dim(self) -> int:
        return self.layer_widths[0]

    @property
    def output_dim(self) -> int:
        return self.layer_widths[-1]

    @cached_property
    def n_params(self) -> int:
        # computed once per spec: the training loop reads it every minibatch
        ws = self.layer_widths
        return sum(ws[i] * ws[i + 1] + ws[i + 1] for i in range(len(ws) - 1))


@dataclass(frozen=True)
class Batch:
    """A design matrix plus aligned targets (one-hot rows or regression values)."""

    inputs: np.ndarray
    targets: np.ndarray

    def __post_init__(self):
        inputs = np.asarray(self.inputs, dtype=np.float64)
        targets = np.asarray(self.targets, dtype=np.float64)
        if inputs.ndim != 2 or targets.ndim != 2:
            raise ValueError("inputs and targets must be 2-d arrays")
        if inputs.shape[0] != targets.shape[0]:
            raise ValueError(
                f"row mismatch: {inputs.shape[0]} inputs vs {targets.shape[0]} targets"
            )
        if inputs.shape[0] < 1:
            raise ValueError("batch must contain at least one sample")
        if not np.all(np.isfinite(inputs)):
            raise ValueError("non-finite inputs")
        if not np.all(np.isfinite(targets)):
            raise ValueError("non-finite targets")
        object.__setattr__(self, "inputs", inputs)
        object.__setattr__(self, "targets", targets)

    @property
    def n(self) -> int:
        return self.inputs.shape[0]


def init_params(spec: MLPSpec, seed: int, scale: float) -> np.ndarray:
    """Flat parameter vector with entries uniform in [-scale, scale]."""
    if scale < 0:
        raise ValueError("scale must be nonnegative")
    rng = np.random.default_rng(seed)
    return rng.uniform(-scale, scale, spec.n_params)


def unpack_params(spec: MLPSpec, params: np.ndarray) -> list[tuple[np.ndarray, np.ndarray]]:
    """Split flat parameters into per-layer (weight, bias) views; a stack
    (R, P) gives (R, n_in, n_out) weights and (R, n_out) biases."""
    params = np.asarray(params, dtype=np.float64)
    if params.ndim not in (1, 2) or params.shape[-1] != spec.n_params:
        raise ValueError(
            f"parameters of shape {params.shape}; spec needs vectors of length "
            f"{spec.n_params}, alone or stacked as (runs, {spec.n_params})"
        )
    lead = params.shape[:-1]
    ws = spec.layer_widths
    layers = []
    pos = 0
    for i in range(len(ws) - 1):
        n_in, n_out = ws[i], ws[i + 1]
        w = params[..., pos:pos + n_in * n_out].reshape(lead + (n_in, n_out))
        pos += n_in * n_out
        b = params[..., pos:pos + n_out]
        pos += n_out
        layers.append((w, b))
    return layers


def softmax(z: np.ndarray) -> np.ndarray:
    """exp(z) / sum exp(z) over the last axis; the max shift keeps exp from
    overflowing and cancels in the ratio."""
    shifted = z - z.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=-1, keepdims=True)


_EXPIT_MODULE = "scipy.special._special_ufuncs"
_expit = None  # loaded by the first sigmoid layer


def _load_expit():
    """scipy.special.expit, loaded from its compiled extension alone.

    The extension is found in scipy's own directory and registered in
    sys.modules under its full name, so a later ``import scipy.special``
    reuses it and names the same ufunc. Where the extension or its expit
    is missing (an older scipy), expit is imported from scipy.special.
    """
    module = sys.modules.get(_EXPIT_MODULE)
    if module is None:
        scipy = importlib.util.find_spec("scipy")
        dirs = ([os.path.join(d, "special") for d in scipy.submodule_search_locations]
                if scipy else [])
        spec = importlib.machinery.PathFinder.find_spec(_EXPIT_MODULE, dirs)
        if spec is not None:
            module = importlib.util.module_from_spec(spec)
            sys.modules[_EXPIT_MODULE] = module
            spec.loader.exec_module(module)
    expit = getattr(module, "expit", None)
    if expit is None:
        from scipy.special import expit
    return expit


def _sigmoid(z: np.ndarray) -> np.ndarray:
    global _expit
    if _expit is None:
        _expit = _load_expit()
    return _expit(z)


def _hidden(z: np.ndarray, kind: str) -> np.ndarray:
    if kind == "sigmoid":
        return _sigmoid(z)
    if kind == "tanh":
        return np.tanh(z)
    return np.maximum(z, 0.0)


def _hidden_deriv(a: np.ndarray, kind: str) -> np.ndarray:
    """The activation's derivative, from its output a = _hidden(z, kind)."""
    if kind == "sigmoid":
        return a * (1.0 - a)
    if kind == "tanh":
        return 1.0 - a * a
    return (a > 0.0).astype(np.float64)  # max(z, 0) > 0 exactly where z > 0


def elementwise_layers(spec: MLPSpec) -> int:
    """How many leading layers have fan-in 1, counting no further than the
    output layer.

    Such a layer computes ``a * w``, one multiply per entry, so with its
    activation it works elementwise: the bits of a row do not depend on
    where the row sits in the batch. What enters the first layer after
    them is therefore the same, row for row, in any order of the batch.
    """
    n_layers = len(spec.layer_widths) - 1
    k = 0
    while k < n_layers - 1 and spec.layer_widths[k] == 1:
        k += 1
    return k


def _forward_cache(spec: MLPSpec, params: np.ndarray, inputs: np.ndarray,
                   start: int = 0):
    """Forward pass keeping each layer's activations for a later backward pass.

    With start > 0, inputs are the activations entering layer start and the
    pass runs the layers from there on; its cache then covers only those
    layers and feeds no backward pass.
    """
    layers = unpack_params(spec, params)
    inputs = np.asarray(inputs, dtype=np.float64)
    width = spec.layer_widths[start]
    if inputs.ndim not in (2, 3) or inputs.shape[-1] != width:
        raise ValueError(
            f"layer {start} expects input dim {width}, got shape {inputs.shape}"
        )
    lead = layers[0][1].shape[:-1]
    if inputs.ndim == 3 and inputs.shape[:1] != lead:
        raise ValueError(f"{inputs.shape[0]} input blocks for parameters "
                         f"of shape {lead + (spec.n_params,)}")
    acts = [inputs]
    a = inputs
    n_layers = len(layers)
    for i in range(start, n_layers):
        w, b = layers[i]
        z = (a * w if w.shape[-2] == 1 else a @ w) + b[..., None, :]
        if i < n_layers - 1:
            a = _hidden(z, spec.hidden_activation)
        elif spec.output_kind == "softmax":
            a = softmax(z)
        elif spec.output_kind == "sigmoid":
            a = _sigmoid(z)
        else:
            a = z
        acts.append(a)
    return a, (layers, acts)


def forward(spec: MLPSpec, params: np.ndarray, batch: Batch) -> np.ndarray:
    """Predictions, one row per sample. Pure: same inputs, same bits out."""
    preds, _ = _forward_cache(spec, params, batch.inputs)
    return preds


def _hidden_derivs(spec: MLPSpec, cache) -> list[np.ndarray]:
    """Activation derivative of each hidden layer, first hidden layer first."""
    layers, acts = cache
    return [_hidden_deriv(a, spec.hidden_activation) for a in acts[1:len(layers)]]


def _backward_from_cache(spec: MLPSpec, cache, output_grad: np.ndarray,
                         derivs: list[np.ndarray]) -> np.ndarray:
    """Backward pass through a forward cache. derivs is _hidden_derivs of
    that cache, computed by the caller so several backward passes share it."""
    layers, acts = cache
    preds = acts[-1]
    output_grad = np.asarray(output_grad, dtype=np.float64)
    if output_grad.shape != preds.shape:
        raise ValueError(
            f"output gradient shape {output_grad.shape} does not match "
            f"predictions {preds.shape}"
        )
    n_layers = len(layers)
    if spec.output_kind == "softmax":
        # softmax jacobian-vector product, row by row
        inner = (output_grad * preds).sum(axis=-1, keepdims=True)
        delta = preds * (output_grad - inner)
    elif spec.output_kind == "sigmoid":
        delta = output_grad * preds * (1.0 - preds)
    else:
        delta = output_grad

    lead = layers[0][1].shape[:-1]
    grad = np.empty(lead + (spec.n_params,))
    pos = spec.n_params
    for i in range(n_layers - 1, -1, -1):
        w, _ = layers[i]
        n_in, n_out = w.shape[-2:]
        pos -= n_out
        grad[..., pos:pos + n_out] = delta.sum(axis=-2)
        pos -= n_in * n_out
        gw = acts[i].swapaxes(-1, -2) @ delta
        grad[..., pos:pos + n_in * n_out] = gw.reshape(lead + (-1,))
        if i > 0:
            wt = w.swapaxes(-1, -2)
            da = delta * wt if n_out == 1 else delta @ wt
            delta = da * derivs[i - 1]
    return grad


def backward(spec: MLPSpec, params: np.ndarray, batch: Batch,
             output_grad: np.ndarray) -> np.ndarray:
    """Gradient of sum_ij output_grad_ij * predictions_ij w.r.t. the flat params."""
    _, cache = _forward_cache(spec, params, batch.inputs)
    return _backward_from_cache(spec, cache, output_grad, _hidden_derivs(spec, cache))


def term_values_and_grads(spec: MLPSpec, params: np.ndarray, inputs: np.ndarray,
                          targets: np.ndarray, kinds: Sequence[LossKind],
                          grad_kinds: Sequence[LossKind] | None = None):
    """One forward pass, then the mean loss of every term in ``kinds`` and
    the parameter gradient of every term in ``grad_kinds`` (default: kinds).

    Returns (activations, values, gradients). activations are the
    forward's, one array entering each layer and then the predictions:
    activations[0] is the inputs and activations[-1] the predictions.
    Each term's numbers are the bits ``forward`` and ``backward`` give for
    that term alone. With stacked (R, P) params each value holds one mean
    per run and each gradient is (R, P). Nothing is checked for
    finiteness: the caller decides what a non-finite run means.
    """
    preds, cache = _forward_cache(spec, params, inputs)
    vals = [loss_means(k, preds, targets) for k in kinds]
    grad_kinds = kinds if grad_kinds is None else grad_kinds
    derivs = _hidden_derivs(spec, cache) if grad_kinds else None
    grads = [_backward_from_cache(spec, cache, loss_output_grad(k, preds, targets),
                                  derivs)
             for k in grad_kinds]
    return cache[1], vals, grads


def finite_diff_grad(loss_fn: Callable[[np.ndarray], float], params: np.ndarray,
                     h: float) -> np.ndarray:
    """Central differences (f(p + h e_i) - f(p - h e_i)) / 2h, the gradient oracle."""
    if h <= 0:
        raise ValueError("h must be positive")
    params = np.asarray(params, dtype=np.float64)
    grad = np.empty_like(params)
    for i in range(params.size):
        bumped = params.copy()
        bumped[i] = params[i] + h
        hi = loss_fn(bumped)
        bumped[i] = params[i] - h
        lo = loss_fn(bumped)
        if not (np.isfinite(hi) and np.isfinite(lo)):
            raise ValueError(f"non-finite loss evaluation at coordinate {i}")
        grad[i] = (hi - lo) / (2.0 * h)
    return grad
