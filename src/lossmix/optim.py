"""Training loop for the composed objective: optimizer steps, adaptive
weights, CE warm-start, Gaussian gradient noise, and full per-epoch
telemetry.

A run is deterministic given its config (seed included): the same config
produces bit-identical trajectories. Wall-clock timings are measured and
kept on the record, but the canonical trajectory CSV writes zeros in the
seconds column so reruns stay byte-identical; real timings go to the JSON
sidecar.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field, asdict
from pathlib import Path

import numpy as np

from . import netcore
from .composite import (BetaWeights, Scheme, adaptive_betas, composite_grad,
                        composite_value, constraint9_check, directional_curvature)
from .data import Dataset
from .losses import LossKind, loss_value
from .netcore import Batch, MLPSpec

OPTIMIZERS = ("sgd", "momentum", "adam")
BETA_RULES = ("softmax", "paper-max", "fixed")
CURVATURE_H = 1e-4


class TrainingDiverged(RuntimeError):
    """Non-finite loss mid-run; carries the trajectory built so far."""

    def __init__(self, message: str, record: "TrajectoryRecord"):
        super().__init__(message)
        self.record = record


@dataclass(frozen=True)
class TrainConfig:
    scheme: Scheme
    terms: tuple[LossKind, ...] = (LossKind.CE, LossKind.MSE)
    mode: str = "weighted"
    optimizer: str = "adam"
    learning_rate: float = 0.01
    momentum: float = 0.9
    adam_beta1: float = 0.9
    adam_beta2: float = 0.999
    adam_eps: float = 1e-8
    epochs: int = 50
    batch_size: int = 32
    noise_eps: float = 0.0
    warmup_epochs: int = 0
    l2_reg: float = 0.0
    seed: int = 0
    init_scale: float = 0.5
    beta_rule: str = "softmax"
    fixed_betas: tuple[float, ...] | None = None

    def __post_init__(self):
        object.__setattr__(self, "terms", tuple(LossKind(t) for t in self.terms))
        if self.learning_rate <= 0:
            raise ValueError("learning_rate must be positive")
        if self.epochs < 1 or self.batch_size < 1:
            raise ValueError("epochs and batch_size must be positive")
        if not 0 <= self.warmup_epochs < self.epochs:
            raise ValueError("warmup_epochs must be in [0, epochs)")
        if self.noise_eps < 0 or self.l2_reg < 0:
            raise ValueError("noise_eps and l2_reg must be nonnegative")
        if self.optimizer not in OPTIMIZERS:
            raise ValueError(f"unknown optimizer {self.optimizer!r}")
        if self.beta_rule not in BETA_RULES:
            raise ValueError(f"unknown beta rule {self.beta_rule!r}")
        if self.beta_rule == "fixed" and self.fixed_betas is not None:
            BetaWeights(self.fixed_betas)  # validate early
            if len(self.fixed_betas) != len(self.terms):
                raise ValueError(f"{len(self.fixed_betas)} fixed_betas for "
                                 f"{len(self.terms)} terms")
        if self.beta_rule == "paper-max" and len(self.terms) != 2:
            raise ValueError("paper-max rule needs exactly two terms")
        if self.scheme.kind == "single" and not 0 <= self.scheme.index < len(self.terms):
            raise ValueError(f"single-scheme index {self.scheme.index} out of range")
        if LossKind.ZERO_ONE in self.terms:
            raise ValueError("the zero_one loss has no gradient to train on")
        if self.warmup_epochs > 0 and LossKind.CE not in self.terms:
            raise ValueError("warm-start needs a cross-entropy term")

    @property
    def effective_p(self) -> float:
        return self.scheme.effective_p

    def to_dict(self) -> dict:
        d = asdict(self)
        d["scheme"] = {"kind": self.scheme.kind, "index": self.scheme.index,
                       "p": self.scheme.p}
        d["terms"] = [t.value for t in self.terms]
        return d


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
    seconds: float


@dataclass
class TrajectoryRecord:
    """Per-epoch telemetry for one training run."""

    terms: tuple[LossKind, ...]
    rows: list[TrajectoryRow] = field(default_factory=list)
    final_params: np.ndarray | None = None
    config: TrainConfig | None = None

    def header(self) -> list[str]:
        n = len(self.terms)
        return (["epoch", "train_acc", "val_acc"]
                + [f"loss_{t.value}" for t in self.terms]
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

    @property
    def epoch_seconds(self) -> list[float]:
        return [r.seconds for r in self.rows]


def sample_gradient_noise(rng: np.random.Generator, eps: float, size: int) -> np.ndarray:
    """Per-coordinate N(0, eps^2) draws added to the composed gradient."""
    return rng.normal(0.0, eps, size)


def optimizer_step(kind: str, state: dict | None, params: np.ndarray,
                   grad: np.ndarray, hyper: TrainConfig):
    """One update of sgd / momentum / adam; returns (params', state')."""
    grad = np.asarray(grad, dtype=np.float64)
    params = np.asarray(params, dtype=np.float64)
    if grad.shape != params.shape:
        raise ValueError("gradient and parameter shapes differ")
    if not np.all(np.isfinite(grad)):
        raise ValueError("non-finite gradient")
    lr = hyper.learning_rate
    if kind == "sgd":
        return params - lr * grad, {"t": (state or {"t": 0})["t"] + 1}
    if kind == "momentum":
        state = state or {"t": 0, "v": np.zeros_like(params)}
        v = hyper.momentum * state["v"] + grad
        return params - lr * v, {"t": state["t"] + 1, "v": v}
    if kind == "adam":
        state = state or {"t": 0, "m": np.zeros_like(params), "v": np.zeros_like(params)}
        t = state["t"] + 1
        m = hyper.adam_beta1 * state["m"] + (1 - hyper.adam_beta1) * grad
        v = hyper.adam_beta2 * state["v"] + (1 - hyper.adam_beta2) * grad * grad
        m_hat = m / (1 - hyper.adam_beta1 ** t)
        v_hat = v / (1 - hyper.adam_beta2 ** t)
        return params - lr * m_hat / (np.sqrt(v_hat) + hyper.adam_eps), \
            {"t": t, "m": m, "v": v}
    raise ValueError(f"unknown optimizer {kind!r}")


def _accuracy(spec: MLPSpec, params: np.ndarray, data: Dataset,
              preds: np.ndarray | None = None) -> float:
    # accuracy is reported as 0 for regression targets
    if not data.is_classification:
        return 0.0
    if preds is None:
        preds = netcore.forward(spec, params, data.as_batch())
    return 1.0 - loss_value(LossKind.ZERO_ONE, preds, data.targets).value


def _epoch_row(spec, params, data, val, config, betas, epoch, warmup, seconds):
    """Full-dataset telemetry at the epoch's final parameters."""
    batch = data.as_batch()
    preds, vals, grads = netcore.term_values_and_grads(spec, params, batch, config.terms)
    gnorms = [float(np.linalg.norm(g)) for g in grads]
    p_eff = config.effective_p
    if warmup:
        composite = vals[config.terms.index(LossKind.CE)]
    elif config.scheme.kind == "single":
        composite = vals[config.scheme.index]
    else:
        composite = composite_value(vals, betas, p_eff, config.mode)
    comp_grad = composite_grad(vals, grads, betas, p_eff, config.mode)
    norm = float(np.linalg.norm(comp_grad))
    satisfied = False
    if norm > 0:
        direction = -comp_grad / norm
        satisfied = True
        for kind, v in zip(config.terms, vals):
            g_dir, h_dir = directional_curvature(
                netcore.term_loss_fn(spec, batch, kind), params, direction, CURVATURE_H)
            if not constraint9_check(max(v, 1e-12), g_dir, h_dir, p_eff):
                satisfied = False
                break
    return TrajectoryRow(
        epoch=epoch,
        train_acc=_accuracy(spec, params, data, preds),
        val_acc=_accuracy(spec, params, val),
        losses=tuple(vals),
        composite=composite,
        betas=tuple(betas.betas),
        grad_norms=tuple(gnorms),
        constraint9=int(satisfied),
        seconds=seconds,
    )


def train(spec: MLPSpec, data: Dataset, val: Dataset, config: TrainConfig,
          epoch_callback=None) -> TrajectoryRecord:
    """Run the full loop and return the per-epoch trajectory.

    Each epoch: seeded shuffle, minibatch loop computing every term's value
    and gradient, weight update per beta_rule, composition, optional
    Gaussian noise, optimizer step with L2 regularization. Epochs below
    warmup_epochs train on CE alone and record a one-hot CE weight vector.
    """
    if data.n < 1 or val.n < 1:
        raise ValueError("datasets must be nonempty")
    n_terms = len(config.terms)
    params = netcore.init_params(spec, config.seed, config.init_scale)
    rng = np.random.default_rng([config.seed, 1])
    opt_state = None
    record = TrajectoryRecord(terms=config.terms, config=config)

    if config.scheme.kind == "single":
        betas = BetaWeights.one_hot(n_terms, config.scheme.index)
    elif config.beta_rule == "fixed":
        betas = (BetaWeights(config.fixed_betas) if config.fixed_betas
                 else BetaWeights.uniform(n_terms))
    else:
        betas = BetaWeights.uniform(n_terms)
    ce_index = config.terms.index(LossKind.CE) if LossKind.CE in config.terms else -1
    ce_betas = BetaWeights.one_hot(n_terms, ce_index) if ce_index >= 0 else betas
    p_eff = config.effective_p

    for epoch in range(config.epochs):
        t0 = time.perf_counter()
        warmup = epoch < config.warmup_epochs
        # warm-up and single schemes step along one term's gradient alone
        if warmup:
            direct = LossKind.CE
        elif config.scheme.kind == "single":
            direct = config.terms[config.scheme.index]
        else:
            direct = None
        order = rng.permutation(data.n)
        for start in range(0, data.n, config.batch_size):
            idx = order[start:start + config.batch_size]
            batch = Batch(inputs=data.inputs[idx], targets=data.targets[idx])
            try:
                _, vals, grads = netcore.term_values_and_grads(
                    spec, params, batch, config.terms,
                    config.terms if direct is None else (direct,))
            except netcore.ShapeError:
                raise
            except ValueError as exc:
                raise TrainingDiverged(
                    f"non-finite loss at epoch {epoch}: {exc}", record) from exc

            if direct is not None:
                grad = grads[0]
            else:
                if config.beta_rule in ("softmax", "paper-max"):
                    norms = [float(np.linalg.norm(g)) for g in grads]
                    betas = adaptive_betas(norms, rule=config.beta_rule)
                grad = composite_grad(vals, grads, betas, p_eff, config.mode)

            if config.l2_reg > 0:
                grad = grad + config.l2_reg * params
            if config.noise_eps > 0:
                grad = grad + sample_gradient_noise(rng, config.noise_eps, grad.size)
            try:
                params, opt_state = optimizer_step(
                    config.optimizer, opt_state, params, grad, config)
            except ValueError as exc:
                raise TrainingDiverged(f"{exc} at epoch {epoch}", record) from exc

        row_betas = ce_betas if warmup else betas
        seconds = time.perf_counter() - t0
        try:
            record.rows.append(_epoch_row(
                spec, params, data, val, config, row_betas, epoch, warmup,
                seconds))
        except netcore.ShapeError:
            raise
        except ValueError as exc:
            raise TrainingDiverged(
                f"non-finite loss at epoch {epoch}: {exc}", record) from exc
        if epoch_callback is not None:
            epoch_callback(epoch, params)

    record.final_params = params
    return record


def save_run(out_dir, record: TrajectoryRecord, config: TrainConfig,
             config_hash: str = "") -> Path:
    """Write trajectory.csv plus a config/timing sidecar and final params."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    (out / "trajectory.csv").write_text(record.to_csv_text())
    meta = {
        "config": config.to_dict(),
        "config_sha256": config_hash,
        "wall_clock": {
            "epoch_seconds": record.epoch_seconds,
            "total_seconds": float(sum(record.epoch_seconds)),
        },
    }
    (out / "run.json").write_text(json.dumps(meta, indent=2, sort_keys=True))
    if record.final_params is not None:
        np.savez(out / "params.npz", params=record.final_params)
    return out
