"""Power-mean composition of training losses with adaptive weights, plus
a desk-scale numerical lab that checks the scheme's optimization,
generalization-bound, and frequency-domain behavior."""

from .composite import (BetaWeights, Scheme, adaptive_betas,
                        composite_grad, composite_value, constraint9_check,
                        critical_p, directional_curvature, dvalue_dp)
from .losses import LossKind, LossValue, loss_output_grad, loss_value
from .netcore import Batch, MLPSpec, backward, finite_diff_grad, forward, init_params
from .optim import TrainConfig, TrajectoryRecord, optimizer_step, train

__version__ = "0.1.0"

__all__ = [
    "BetaWeights", "Scheme", "adaptive_betas",
    "composite_grad", "composite_value", "constraint9_check", "critical_p",
    "directional_curvature", "dvalue_dp", "LossKind", "LossValue",
    "loss_output_grad", "loss_value", "Batch", "MLPSpec", "backward",
    "finite_diff_grad", "forward", "init_params", "TrainConfig",
    "TrajectoryRecord", "optimizer_step", "train", "__version__",
]
