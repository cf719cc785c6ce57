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
The flat layout is each layer's weights, row by row, then its biases, so
``unpack_params`` views each layer as one block ``[w; b]``.
A stacked pass runs each run's slice through the same numpy kernels as an
unstacked pass, and the tests pin that each run gets the same bits.

A product with inner dimension 1 is a GEMM with inner dimension 2. A
layer with fan-in 1 computes its pre-activation on its block as
``[a, 1] @ [w; b]``. A GEMM micro-kernel adds its k terms into one
accumulator in k order (Goto & van de Geijn 2008), so each entry is
round(round(a w) + b): the bits of ``a @ w`` then ``+= b``, never the one
rounding of a fused a w + b. The backward into a layer with fan-out 1 is
``[delta, 0] @ [w.T; 0]``, each entry round(delta w) + 0 * 0: the bits of
``delta @ w.T``. The zero padding adds no NaN, so a non-finite delta
spreads as under ``@``. As in ``@``, an exact -0 product enters its sum
as +0, where a broadcast ``a * w`` would keep -0. Each GEMM is one BLAS
call, a few times faster at the spectral net's (256, 200) than that
broadcast or numpy's own product with inner dimension 1. At one row or
one output unit numpy calls a matrix-vector kernel instead, which may
round ``a w + b`` once, so there the forward keeps ``a @ w`` then
``+= b``. A BLAS kernel may raise numpy's invalid-value flag on a
non-finite input, as it may in any layer.

Every layer before the first with fan-in > 1 therefore works row by row,
which ``predictions_in_data_order`` relies on.

Each layer's temporaries are built in place, with the bits of the
out-of-place expressions: a layer's product is a new array, so its bias
is added to it and its activation written over it, and the activation
derivatives and each backward delta are multiplied into arrays the pass
made itself (``(1 - a) * a`` has the bits of ``a * (1 - a)``: IEEE
multiplication commutes). No pass writes into an array its caller holds:
inputs, params, the output gradient and the cached activations stay as
they were. ``term_values_and_grads`` returns every term's values as one
array and writes each term's gradient into its own row of one stack.

Reductions keep numpy's bits at the shapes the nets have. A last axis of
fewer than 8 entries (the softmax's max and sum, its backward's inner
product, the loss row sums) is reduced column by column with
``losses.row_max`` and ``losses.row_sum``: numpy's reduce adds such an
axis left to right, and its per-call cost dwarfs the arithmetic on a
2-wide axis. A bias gradient sums delta over the sample axis, which numpy
adds row by row when the layer has n_out > 1; ``np.einsum("...ij->...j")``
adds in that order too, 2-4x faster at the two-moons stack's shapes. A
layer with n_out == 1 keeps ``delta.sum(axis=-2)``: its sample axis is
contiguous, so numpy sums it pairwise, and einsum there moved the spectral
workload's output digests (see ``_bias_grad``).

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
from dataclasses import dataclass, replace
from functools import cache, cached_property
from typing import Callable, Sequence

import numpy as np

from .losses import LossKind, loss_means, loss_output_grad, row_max, row_sum
from .schema import check_fields, setting

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

    layer_widths: tuple[int, ...] = setting(
        type="array", items={"type": "integer", "minimum": 1}, minItems=2)
    hidden_activation: str = setting("tanh", enum=list(HIDDEN_ACTIVATIONS))
    output_kind: str = setting("softmax", enum=list(OUTPUT_KINDS))

    def __post_init__(self):
        check_fields(self)
        object.__setattr__(self, "layer_widths", tuple(int(w) for w in self.layer_widths))
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


def unpack_params(spec: MLPSpec, params: np.ndarray) -> list[np.ndarray]:
    """Each layer's weights and biases as one (..., n_in + 1, n_out) view
    ``[w; b]`` of the params: (n_in + 1, n_out) for lone params, (R, n_in +
    1, n_out) for a stack (R, P)."""
    params = np.asarray(params, dtype=np.float64)
    if params.ndim not in (1, 2) or params.shape[-1] != spec.n_params:
        raise ValueError(f"parameters of shape {params.shape}; spec needs vectors of length "
                         f"{spec.n_params}, alone or stacked as (runs, {spec.n_params})")
    ws = spec.layer_widths
    blocks, pos = [], 0
    for n_in, n_out in zip(ws, ws[1:]):
        end = pos + (n_in + 1) * n_out
        blocks.append(params[..., pos:end].reshape(params.shape[:-1] + (n_in + 1, n_out)))
        pos = end
    return blocks


def softmax(z: np.ndarray) -> np.ndarray:
    """exp(z) / sum exp(z) over the last axis, written over z; the max
    shift keeps exp from overflowing and cancels in the ratio."""
    z -= row_max(z, keepdims=True)
    np.exp(z, out=z)
    z /= row_sum(z, keepdims=True)
    return z


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


def _sigmoid(z, out=None):
    global _expit
    if _expit is None:
        _expit = _load_expit()
    return _expit(z, out=out)


def _activate(z: np.ndarray, kind: str) -> None:
    """A hidden activation or an output head, written over z."""
    if kind == "sigmoid":
        _sigmoid(z, out=z)
    elif kind == "tanh":
        np.tanh(z, out=z)
    elif kind == "relu":
        np.maximum(z, 0.0, out=z)
    elif kind == "softmax":
        softmax(z)


def _hidden_deriv(a: np.ndarray, kind: str) -> np.ndarray:
    """The activation's derivative, from its output a = _activate(z, kind).
    (1 - a) * a has the bits of a * (1 - a): IEEE multiplication commutes."""
    if kind == "sigmoid":
        d = 1.0 - a
        d *= a
        return d
    if kind == "tanh":
        d = a * a
        return np.subtract(1.0, d, out=d)
    return (a > 0.0).astype(np.float64)  # max(z, 0) > 0 exactly where z > 0


def _forward_cache(spec: MLPSpec, params: np.ndarray, inputs: np.ndarray):
    """Forward pass keeping each layer's activations for a later backward pass."""
    blocks = unpack_params(spec, params)
    inputs = np.asarray(inputs, dtype=np.float64)
    if inputs.ndim not in (2, 3) or inputs.shape[-1] != spec.input_dim:
        raise ValueError(f"layer 0 expects input dim {spec.input_dim}, "
                         f"got shape {inputs.shape}")
    lead = blocks[0].shape[:-2]
    if inputs.ndim == 3 and inputs.shape[:1] != lead:
        raise ValueError(f"{inputs.shape[0]} input blocks for parameters "
                         f"of shape {lead + (spec.n_params,)}")
    acts = [inputs]
    a = inputs
    ws = spec.layer_widths
    for i, wb in enumerate(blocks):
        # the product is a new array: its bias and activation go in place
        if ws[i] == 1 and ws[i + 1] > 1 and a.shape[-2] > 1:
            # one GEMM [a, 1] @ [w; b] (see the module docstring)
            a1 = np.ones(a.shape[:-1] + (2,))
            a1[..., :1] = a
            a = a1 @ wb
        else:
            a = a @ wb[..., :-1, :]
            a += wb[..., -1:, :]
        _activate(a, spec.hidden_activation if i < len(blocks) - 1 else spec.output_kind)
        acts.append(a)
    return a, (blocks, acts)


def forward(spec: MLPSpec, params: np.ndarray, batch: Batch) -> np.ndarray:
    """Predictions, one row per sample. Pure: same inputs, same bits out."""
    preds, _ = _forward_cache(spec, params, batch.inputs)
    return preds


@cache
def _capture_tail(spec: MLPSpec) -> tuple[int, MLPSpec]:
    """The first layer with fan-in > 1, or the output layer, and the net of
    the layers from there on: built once per spec, not once per epoch."""
    ws = spec.layer_widths
    # the output layer's input is activation len(ws) - 2
    k = next((i for i, w in enumerate(ws[:-2]) if w > 1), len(ws) - 2)
    return k, replace(spec, layer_widths=ws[k:])


def predictions_in_data_order(spec: MLPSpec, params: np.ndarray, acts,
                              orders: np.ndarray) -> np.ndarray:
    """The bits of ``forward(spec, params, inputs)``, in data order, from the
    activations ``acts`` of a pass over ``inputs[orders]``: orders is (n,)
    for lone (P,) params and has one row per run, (R, n), for stacked.

    The layers before the first with fan-in > 1 work row by row (see the
    module docstring), so what enters that layer, or the output layer, is
    put back in data order, and the layers from there on run again as a net
    of their own on the last entries of the params. Reordering the pass's
    predictions instead would move bits: OpenBLAS rounds a row of an
    (n, h) @ (h, k) product by whether it falls in its kernel's 4-row tail,
    which exists where n % 4 != 0.
    """
    k, tail = _capture_tail(spec)
    ordered = np.empty_like(acts[k])
    # row i of run r's pass is data row orders[r, i]
    ordered[(*np.indices(orders.shape)[:-1], orders)] = acts[k]
    return _forward_cache(tail, params[..., -tail.n_params:], ordered)[0]


def _bias_grad(delta: np.ndarray) -> np.ndarray:
    """delta.sum(axis=-2), bit for bit: a layer's bias gradient.

    With more than one column, numpy adds the rows in order, and einsum
    does too without the reduce's overhead. A single column is contiguous
    along the summed axis, so numpy sums it pairwise, which einsum does not.
    """
    if delta.shape[-1] == 1:
        return delta.sum(axis=-2)
    return np.einsum("...ij->...j", delta)


def _backward_from_cache(spec: MLPSpec, cache, output_grads) -> np.ndarray:
    """Every term's backward pass through one forward cache: the (K, ..., P)
    stack of the parameter gradients of the K output gradients in
    output_grads, term k's in row k. The hidden-layer derivatives are
    computed once for all K, and not at all for K = 0; each term then runs
    its own pass. Only arrays this pass makes are written in place: a
    linear head takes a term's output gradient itself as its top delta."""
    blocks, acts = cache
    preds = acts[-1]
    grads = np.empty((len(output_grads),) + blocks[0].shape[:-2] + (spec.n_params,))
    if not len(grads):
        return grads
    derivs = [_hidden_deriv(a, spec.hidden_activation) for a in acts[1:-1]]
    for output_grad, grad in zip(output_grads, grads):
        output_grad = np.asarray(output_grad, dtype=np.float64)
        if output_grad.shape != preds.shape:
            raise ValueError(f"output gradient shape {output_grad.shape} does not "
                             f"match predictions {preds.shape}")
        if spec.output_kind == "softmax":
            # softmax jacobian-vector product, row by row
            inner = row_sum(output_grad * preds, keepdims=True)
            delta = output_grad - inner
            delta *= preds
        elif spec.output_kind == "sigmoid":
            delta = output_grad * preds
            delta *= 1.0 - preds
        else:
            delta = output_grad
        grad_blocks = unpack_params(spec, grad)
        for i in range(len(blocks) - 1, -1, -1):
            grad_blocks[i][..., -1, :] = _bias_grad(delta)
            grad_blocks[i][..., :-1, :] = acts[i].swapaxes(-1, -2) @ delta
            if i > 0:
                w = blocks[i][..., :-1, :]
                if w.shape[-1] == 1:
                    # one GEMM [delta, 0] @ [w.T; 0] (see the module docstring)
                    d0 = np.zeros(delta.shape[:-1] + (2,))
                    d0[..., :1] = delta
                    wt = np.zeros(w.shape[:-2] + (2, w.shape[-2]))
                    wt[..., 0, :] = w[..., 0]
                    delta = d0 @ wt
                else:
                    delta = delta @ w.swapaxes(-1, -2)
                delta *= derivs[i - 1]
    return grads


def backward(spec: MLPSpec, params: np.ndarray, batch: Batch,
             output_grad: np.ndarray) -> np.ndarray:
    """Gradient of sum_ij output_grad_ij * predictions_ij w.r.t. the flat params."""
    _, cache = _forward_cache(spec, params, batch.inputs)
    return _backward_from_cache(spec, cache, [output_grad])[0]


def term_values_and_grads(spec: MLPSpec, params: np.ndarray, inputs: np.ndarray,
                          targets: np.ndarray, kinds: Sequence[LossKind],
                          grad_kinds: Sequence[LossKind] | None = None):
    """One forward pass, then the mean loss of every term in ``kinds`` and
    the parameter gradient of every term in ``grad_kinds`` (default: kinds).

    Returns (activations, values, gradients). activations are the
    forward's, one array entering each layer and then the predictions:
    activations[0] is the inputs and activations[-1] the predictions.
    values is one (..., len(kinds)) array, a row of term means per run,
    and gradients the (len(grad_kinds), ..., P) stack of one backward
    call. Each term's numbers are the bits ``forward`` and ``backward``
    give for that term alone, with lone (P,) params or stacked (R, P).
    Nothing is checked for finiteness: the caller decides what a
    non-finite run means.
    """
    preds, cache = _forward_cache(spec, params, inputs)
    vals = np.empty(preds.shape[:-2] + (len(kinds),))
    for j, kind in enumerate(kinds):
        vals[..., j] = loss_means(kind, preds, targets)
    grad_kinds = kinds if grad_kinds is None else grad_kinds
    grads = _backward_from_cache(
        spec, cache, [loss_output_grad(kind, preds, targets) for kind in grad_kinds])
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
