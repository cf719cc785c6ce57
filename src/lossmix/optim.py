"""Training loop for the composed objective: optimizer steps, adaptive
weights, CE warm-start, Gaussian gradient noise, and full per-epoch
telemetry.

Each epoch ends with a telemetry row at the epoch-final parameters.
``train(..., rows=False)`` replaces the row with the training-set
predictions at those parameters, checked and kept on the record, for
callers that read nothing else; records then hold ``predictions``,
``final_params`` and no rows. When one minibatch covers the training set,
the next epoch's step forward gives them
(``netcore.predictions_in_data_order``); the last epoch runs its own.

A run is deterministic given its config (seed included): the same config
produces bit-identical trajectories. A stack-epoch's wall-clock time is
kept once, in its records' ``epoch_seconds``, and goes to ``run.json``;
the canonical trajectory CSV writes zeros in its seconds column so reruns
stay byte-identical.
"""

from __future__ import annotations

import json
import time
from dataclasses import asdict, dataclass, field, replace
from pathlib import Path

import numpy as np

from . import netcore
from .composite import (MODES, VALUE_FLOOR, BetaWeights, Scheme, adaptive_betas,
                        composite_grad, composite_value, constraint9_check,
                        directional_curvature)
from .data import Dataset
from .losses import LossKind, loss_means
from .netcore import MLPSpec
from .schema import check_fields, setting

OPTIMIZERS = ("sgd", "momentum", "adam")
BETA_RULES = ("softmax", "paper-max", "fixed")
CURVATURE_H = 1e-4
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8
STACK_ELEMENTS = 2 ** 16


class TrainingDiverged(RuntimeError):
    """A run's predictions, losses or gradients stopped being finite.

    Carries the epoch, that run's record (its config, and its trajectory
    up to the last complete epoch), and the finished records of the stacks
    trained before it.
    """

    def __init__(self, message: str, record: "TrajectoryRecord", epoch: int):
        super().__init__(message)
        self.record = record
        self.epoch = epoch
        self.finished: list[TrajectoryRecord] = []


@dataclass(frozen=True)
class TrainConfig:
    scheme: Scheme
    # the 0-1 loss has no gradient, so it cannot be a training term
    terms: tuple[LossKind, ...] = setting(
        (LossKind.CE, LossKind.MSE), type="array", minItems=1,
        items={"enum": [k.value for k in LossKind if k is not LossKind.ZERO_ONE]})
    mode: str = setting("weighted", enum=list(MODES))
    optimizer: str = setting("adam", enum=list(OPTIMIZERS))
    learning_rate: float = setting(0.01, type="number", exclusiveMinimum=0)
    momentum: float = setting(0.9, type="number", minimum=0)
    epochs: int = setting(50, type="integer", minimum=1)
    batch_size: int = setting(32, type="integer", minimum=1)
    noise_eps: float = setting(0.0, type="number", minimum=0)
    warmup_epochs: int = setting(0, type="integer", minimum=0)
    l2_reg: float = setting(0.0, type="number", minimum=0)
    seed: int = 0
    init_scale: float = setting(0.5, type="number", minimum=0)
    beta_rule: str = setting("softmax", enum=list(BETA_RULES))
    fixed_betas: tuple[float, ...] | None = setting(
        None, type="array", items={"type": "number"})

    def __post_init__(self):
        check_fields(self)
        object.__setattr__(self, "terms", tuple(LossKind(t) for t in self.terms))
        if self.fixed_betas is not None:
            object.__setattr__(self, "fixed_betas", tuple(self.fixed_betas))
        if self.warmup_epochs >= self.epochs:
            raise ValueError("warmup_epochs must be in [0, epochs)")
        if self.beta_rule == "fixed" and self.fixed_betas is None:
            raise ValueError("beta_rule 'fixed' needs fixed_betas")
        if self.beta_rule != "fixed" and self.fixed_betas is not None:
            raise ValueError(f"fixed_betas are used only by beta_rule 'fixed', "
                             f"not {self.beta_rule!r}")
        if self.fixed_betas is not None:
            BetaWeights(self.fixed_betas)  # validate early
            if len(self.fixed_betas) != len(self.terms):
                raise ValueError(f"{len(self.fixed_betas)} fixed_betas for "
                                 f"{len(self.terms)} terms")
        if self.beta_rule == "paper-max" and len(self.terms) != 2:
            raise ValueError("paper-max rule needs exactly two terms")
        if self.scheme.kind == "single" and self.scheme.index >= len(self.terms):
            raise ValueError(f"single-scheme index {self.scheme.index} out of range")
        if self.warmup_epochs > 0 and LossKind.CE not in self.terms:
            raise ValueError("warm-start needs a cross-entropy term")


@dataclass(frozen=True)
class TrajectoryRow:
    epoch: int
    train_acc: float
    val_acc: float
    losses: tuple[float, ...]
    composite: float
    betas: tuple[float, ...]
    grad_norms: tuple[float, ...]
    constraint9: int


@dataclass
class TrajectoryRecord:
    """Per-epoch telemetry for one training run.

    A run trained with rows=False has no rows; predictions then holds its
    training-set predictions at each epoch's final parameters, one
    data-order (n, outputs) block per epoch. epoch_seconds holds the
    wall-clock time of each epoch's minibatch loop; it is the stack's, one
    list shared by every record trained in it.
    """

    config: TrainConfig
    stack_size: int  # runs trained together
    rows: list[TrajectoryRow] = field(default_factory=list)
    final_params: np.ndarray | None = None
    predictions: list[np.ndarray] = field(default_factory=list, init=False)
    epoch_seconds: list[float] = field(default_factory=list)

    def header(self) -> list[str]:
        terms = self.config.terms
        n = len(terms)
        return (["epoch", "train_acc", "val_acc"]
                + [f"loss_{t.value}" for t in terms]
                + ["composite"]
                + [f"beta_{i + 1}" for i in range(n)]
                + [f"gnorm_{i + 1}" for i in range(n)]
                + ["constraint9", "seconds"])

    def to_csv_text(self) -> str:
        """Canonical CSV; timing is zeroed, so the text is reproducible bit
        for bit across reruns of the same config."""
        lines = [",".join(self.header())]
        for r in self.rows:
            cells = ([str(r.epoch), f"{r.train_acc:.17g}", f"{r.val_acc:.17g}"]
                     + [f"{v:.17g}" for v in r.losses]
                     + [f"{r.composite:.17g}"]
                     + [f"{b:.17g}" for b in r.betas]
                     + [f"{g:.17g}" for g in r.grad_norms]
                     + [str(r.constraint9), "0"])
            lines.append(",".join(cells))
        return "\n".join(lines) + "\n"


def sample_gradient_noise(rng: np.random.Generator, eps: float,
                          size: int | tuple[int, ...]) -> np.ndarray:
    """Per-coordinate N(0, eps^2) draws added to the composed gradient."""
    return rng.normal(0.0, eps, size)


def _epoch_noise(rngs, eps: float, steps: int, size: int):
    """Yield each of an epoch's steps' (R, size) gradient noise, one row per run.

    Each run's draws come in blocks of whole steps, one call per block, of
    at most STACK_ELEMENTS draws unless one step needs more. A Generator
    fills a block with the values of successive draws, in order, and leaves
    the state they leave, so each step gets the bits of a call of its own.
    """
    rows = max(1, STACK_ELEMENTS // size)
    for first in range(0, steps, rows):
        count = min(rows, steps - first)
        yield from np.stack([sample_gradient_noise(rng, eps, (count, size))
                             for rng in rngs], axis=1)


def optimizer_step(state: dict | None, params: np.ndarray, grad: np.ndarray,
                   hyper: TrainConfig):
    """One update of hyper.optimizer (sgd, momentum or adam); returns
    (params', state')."""
    grad = np.asarray(grad, dtype=np.float64)
    params = np.asarray(params, dtype=np.float64)
    if grad.shape != params.shape:
        raise ValueError("gradient and parameter shapes differ")
    if not np.all(np.isfinite(grad)):
        raise ValueError("non-finite gradient")
    lr = hyper.learning_rate
    if hyper.optimizer == "sgd":
        return params - lr * grad, {"t": (state or {"t": 0})["t"] + 1}
    if hyper.optimizer == "momentum":
        state = state or {"t": 0, "v": np.zeros_like(params)}
        v = hyper.momentum * state["v"] + grad
        return params - lr * v, {"t": state["t"] + 1, "v": v}
    # adam, the one optimizer left that TrainConfig admits
    state = state or {"t": 0, "m": np.zeros_like(params), "v": np.zeros_like(params)}
    t = state["t"] + 1
    m = ADAM_BETA1 * state["m"] + (1 - ADAM_BETA1) * grad
    v = ADAM_BETA2 * state["v"] + (1 - ADAM_BETA2) * grad * grad
    m_hat = m / (1 - ADAM_BETA1 ** t)
    v_hat = v / (1 - ADAM_BETA2 ** t)
    return params - lr * m_hat / (np.sqrt(v_hat) + ADAM_EPS), {"t": t, "m": m, "v": v}


def stack_size(spec: MLPSpec, data: Dataset, val: Dataset) -> int:
    """How many runs train as one stack on these datasets.

    Runs go together while runs x (largest row count a forward sees) x
    (widest layer) stays within STACK_ELEMENTS float64 elements: small
    nets share their numpy calls, while wide ones, whose matmuls already
    fill the cache, train one at a time.
    """
    work = max(data.n, val.n) * max(spec.layer_widths)
    return max(1, STACK_ELEMENTS // work)


def _accuracy(spec: MLPSpec, params: np.ndarray, data: Dataset,
              preds: np.ndarray | None = None):
    """Accuracy of each run (0 for regression targets)."""
    if not data.is_classification:
        return np.zeros(np.shape(params)[:-1])
    if preds is None:
        preds = netcore.forward(spec, params, data)
    return 1.0 - loss_means(LossKind.ZERO_ONE, preds, data.targets)


def _followed(config: TrainConfig, epoch: int) -> int | None:
    """Index of the one term a run follows at this epoch, or None.

    Warm-up epochs follow cross-entropy and a single scheme follows its own
    term: the step is that term's gradient, and the row records its value
    as the composite with a one-hot weight on it. Every other run follows
    the composite of all terms.
    """
    if epoch < config.warmup_epochs:
        return config.terms.index(LossKind.CE)
    if config.scheme.kind == "single":
        return config.scheme.index
    return None


def _descent(configs, followed, vals, grads, kinds, betas):
    """What each run steps along before L2 and noise, one (P,) row per run.

    followed holds each run's _followed term index, grads the (len(kinds),
    R, P) stack of the gradients of kinds, vals the (R, K) term values and
    betas one weight row per run. A run that follows one term steps along
    that term's gradient; the runs that follow the composite are composed
    in one composite_grad call.
    """
    descent = np.empty_like(grads[0])
    composed = [r for r, i in enumerate(followed) if i is None]
    for r, i in enumerate(followed):
        if i is not None:
            descent[r] = grads[kinds.index(configs[r].terms[i]), r]
    if composed:
        descent[composed] = composite_grad(
            vals[composed], grads[:, composed], betas[composed],
            [configs[r].scheme.p for r in composed], configs[0].mode)
    return descent


def _epoch_row(spec, params, data, val, configs, followed, betas, epoch, check):
    """Full-dataset telemetry at the epoch's final parameters, one row per run.

    followed holds each run's _followed term index at this epoch, and betas
    one weight row per run, read for the runs that follow the composite;
    their values are composed in one stacked call. Constraint 9 is checked
    for every term from one shared pair of forward passes at params +/- h
    along each run's descent direction: the negative normalized _descent,
    the direction the epoch's steps took.
    check(stack, what, runs) raises TrainingDiverged for the first run
    whose entries are not all finite.
    """
    terms = configs[0].terms
    acts, vals, grads = netcore.term_values_and_grads(
        spec, params, data.inputs, data.targets, terms)
    preds = acts[-1]
    check(preds, "predictions")
    check(vals, "loss")
    for g in grads:
        check(g, "gradient")
    composite, row_betas = np.empty(len(configs)), betas.copy()
    composed = [r for r, i in enumerate(followed) if i is None]
    for r, i in enumerate(followed):
        if i is not None:
            composite[r] = vals[r, i]
            row_betas[r] = BetaWeights.one_hot(len(terms), i).betas
    if composed:
        composite[composed] = composite_value(
            vals[composed], betas[composed], [configs[r].scheme.p for r in composed],
            configs[0].mode)
    descent = _descent(configs, followed, vals, grads, terms, betas)
    norms = np.sqrt(np.vecdot(descent, descent))
    check(norms, "gradient norm")
    live = [r for r in range(len(configs)) if norms[r] > 0]
    satisfied = np.zeros(len(configs), dtype=bool)
    if live:
        def along(w):
            out = netcore.term_values_and_grads(
                spec, w, data.inputs, data.targets, terms, ())[1]
            check(out, "loss along the descent direction", live)
            return out

        g_dir, h_dir = directional_curvature(along, params[live],
                                             -descent[live] / norms[live, None],
                                             CURVATURE_H, f0=vals[live])
        p = np.array([[configs[r].scheme.p] for r in live])
        satisfied[live] = constraint9_check(np.maximum(vals[live], VALUE_FLOOR),
                                            g_dir, h_dir, p).all(axis=1)
    train_acc = _accuracy(spec, params, data, preds)
    val_acc = _accuracy(spec, params, val)
    grad_norms = np.sqrt(np.vecdot(grads, grads)).T
    return [TrajectoryRow(
        epoch=epoch,
        train_acc=float(train_acc[r]),
        val_acc=float(val_acc[r]),
        losses=tuple(vals[r].tolist()),
        composite=float(composite[r]),
        betas=tuple(row_betas[r].tolist()),
        grad_norms=tuple(grad_norms[r].tolist()),
        constraint9=int(satisfied[r]),
    ) for r in range(len(configs))]


def train(spec: MLPSpec, data: Dataset, val: Dataset, configs, rows: bool = True):
    """Train every config and return one trajectory record per config.

    The configs may differ only in scheme and seed. They train in stacks of
    stack_size(spec, data, val) runs: one (R, P) parameter array through
    every forward, backward, loss mean and optimizer step, while each run
    keeps its own RNG stream and weight row. The runs that follow the
    composite are composed together: one adaptive_betas and one
    composite_grad call per minibatch, one composite_value and one
    composite_grad call per epoch row, each on (R, K) values and one p per
    run. Every run's record is the bits it gets when trained alone. A lone
    TrainConfig trains as a one-run sequence and returns its record.

    Each epoch: seeded shuffle, minibatch loop computing every term's value
    and gradient, weight update per beta_rule, composition, optional
    Gaussian noise, optimizer step with L2 regularization. Epochs below
    warmup_epochs train on CE alone and record a one-hot CE weight vector.

    With rows=False no telemetry row is computed: each epoch's training-set
    predictions are checked for finiteness and appended to the run's
    record.predictions, the same bits as netcore.forward at the epoch's
    final parameters. Records then carry predictions, final_params and an
    empty rows list. A full-batch epoch's predictions come from the next
    epoch's step forward, at the same parameters, through
    netcore.predictions_in_data_order. They are checked, named at their
    own epoch and kept before that step's own checks; the last epoch runs
    a forward of its own.

    Raises TrainingDiverged for the first run whose predictions, losses or
    gradients stop being finite, carrying its record (which keeps the
    predictions of its complete epochs) and the earlier stacks' records.
    """
    if isinstance(configs, TrainConfig):
        return train(spec, data, val, [configs], rows)[0]
    configs = list(configs)
    if not configs:
        raise ValueError("no configs to train")
    base = configs[0]
    for cfg in configs[1:]:
        if replace(cfg, scheme=base.scheme, seed=base.seed) != base:
            raise ValueError("configs trained together may differ only in "
                             "scheme and seed")
    size = stack_size(spec, data, val)
    records = []
    for first in range(0, len(configs), size):
        try:
            records += _train_stack(spec, data, val, configs[first:first + size], rows)
        except TrainingDiverged as exc:
            exc.finished = records
            raise
    return records


# a value that stops being finite is a divergence, which check names and
# reports, so numpy's overflow and invalid-value warnings would only print
# ahead of that report, naming a line of this module
@np.errstate(over="ignore", invalid="ignore")
def _train_stack(spec, data, val, configs, rows):
    config = configs[0]  # the hyperparameters every run shares
    terms = config.terms
    params = np.stack([netcore.init_params(spec, c.seed, c.init_scale) for c in configs])
    rngs = [np.random.default_rng([c.seed, 1]) for c in configs]
    epoch_seconds = []
    records = [TrajectoryRecord(config=c, stack_size=len(configs),
                                epoch_seconds=epoch_seconds) for c in configs]
    # one weight row per run, read while it follows the composite; adaptive
    # rules update the rows of the runs that step on it
    initial = (BetaWeights(config.fixed_betas) if config.fixed_betas is not None
               else BetaWeights.uniform(len(terms)))
    betas = np.tile(initial.as_array(), (len(configs), 1))
    adaptive = config.beta_rule in ("softmax", "paper-max")
    opt_state = None

    # without rows, a full-batch step's forward also gives the previous
    # epoch's predictions (see train)
    reuse = not rows and config.batch_size >= data.n
    steps = -(-data.n // config.batch_size)  # minibatches per epoch

    def check(stack, what, runs=range(len(configs)), at=None):
        if np.isfinite(stack).all():
            return
        finite = np.isfinite(stack).reshape(len(stack), -1).all(axis=1)
        r, at = runs[int(np.argmin(finite))], epoch if at is None else at
        raise TrainingDiverged(
            f"non-finite {what} at epoch {at} in run {configs[r].scheme.label()} "
            f"seed {configs[r].seed}", records[r], at)

    for epoch in range(config.epochs):
        t0 = time.perf_counter()
        followed = [_followed(c, epoch) for c in configs]
        grad_kinds = terms if None in followed else tuple(
            t for i, t in enumerate(terms) if i in followed)
        composed = [r for r, i in enumerate(followed) if i is None]
        orders = np.stack([rng.permutation(data.n) for rng in rngs])
        if config.noise_eps > 0:
            noise = _epoch_noise(rngs, config.noise_eps, steps, spec.n_params)
        for start in range(0, data.n, config.batch_size):
            idx = orders[:, start:start + config.batch_size]
            acts, vals, grads = netcore.term_values_and_grads(
                spec, params, data.inputs[idx], data.targets[idx], terms, grad_kinds)
            if reuse and epoch > 0:
                capture = netcore.predictions_in_data_order(spec, params, acts, idx)
                check(capture, "predictions", at=epoch - 1)
                for record, block in zip(records, capture):
                    record.predictions.append(block)
            preds = acts[-1]
            # no wide (n, h) array of this step is held through the next one
            del acts
            # a non-finite term gradient shows up in the norms or in the step
            check(preds, "predictions")
            check(vals, "loss")
            if composed and adaptive:
                # the norms are checked before any run is composed; each is a
                # dot of its own row, so the stack's other runs move no bit
                norms = np.sqrt(np.vecdot(grads, grads)).T[composed]
                check(norms, "gradient norm", composed)
                betas[composed] = adaptive_betas(norms, rule=config.beta_rule)
            step = _descent(configs, followed, vals, grads, grad_kinds, betas)
            if config.l2_reg > 0:
                step = step + config.l2_reg * params
            if config.noise_eps > 0:
                step = step + next(noise)
            check(step, "gradient")
            params, opt_state = optimizer_step(opt_state, params, step, config)
            if "v" in opt_state:
                # momentum's v and adam's sum of squares can overflow from
                # finite steps; adam's m, an average of them, cannot
                check(opt_state["v"], "optimizer state")

        seconds = time.perf_counter() - t0
        if rows:
            epoch_rows = _epoch_row(spec, params, data, val, configs, followed,
                                    betas, epoch, check)
            for record, row in zip(records, epoch_rows):
                record.rows.append(row)
        elif not reuse or epoch == config.epochs - 1:
            preds = netcore.forward(spec, params, data)
            check(preds, "predictions")
            for record, block in zip(records, preds):
                record.predictions.append(block)
        epoch_seconds.append(seconds)

    for r, record in enumerate(records):
        record.final_params = params[r]
    return records


def save_run(out_dir, record: TrajectoryRecord, config_hash: str) -> Path:
    """Write trajectory.csv, a sidecar with the record's config, the config
    file's hash and timings, and the final params."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    (out / "trajectory.csv").write_text(record.to_csv_text())
    meta = {
        "config": asdict(record.config),
        "config_sha256": config_hash,
        "stack_size": record.stack_size,
        "wall_clock": {
            "epoch_seconds": record.epoch_seconds,
            "total_seconds": float(sum(record.epoch_seconds)),
        },
    }
    (out / "run.json").write_text(json.dumps(meta, indent=2, sort_keys=True))
    if record.final_params is not None:
        np.savez(out / "params.npz", params=record.final_params)
    return out
