"""Grid-quadrature laboratory: Gibbs densities, KL distances between the
training schemes' objectives, the generalized log-partition entropy, and
box-constrained sharpness.

Two divergence flavours coexist on purpose. ``kl_divergence`` is a proper
KL between normalized densities (nonnegative, zero iff equal). The scheme
report additionally carries the relative divergence against the raw Gibbs
factor exp(-L) of each objective, integral of P (ln P + L); that is the
quantity whose p-direction is forced pointwise by lp-norm monotonicity,
so it is the one the monotonicity suite asserts on. Orderings of the
normalized KLs are measured and reported, never asserted. Every scheme
objective, on the grid or at Monte-Carlo draws, comes from ``_objective``.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from typing import Callable, Sequence

import numpy as np

from . import netcore
from .composite import BetaWeights, power_mean, weight_vector
from .losses import LossKind, loss_means
from .netcore import Batch, MLPSpec

MAX_GRID_POINTS = int(1e7)
DENSITY_TOL = 1e-9
P_STEP = 1e-4  # central-difference step in p for the report's dD_dp
ASCENT_STEPS = 20  # signed-gradient steps per sharpness restart
RESTARTS = 5  # sharpness starting points, nu = 0 included


@dataclass(frozen=True)
class Grid:
    """Uniform 1-d lattice of n_points from lo to hi, with its cell width."""

    lo: float
    hi: float
    n_points: int

    def __post_init__(self):
        object.__setattr__(self, "lo", float(self.lo))
        object.__setattr__(self, "hi", float(self.hi))
        object.__setattr__(self, "n_points", int(self.n_points))
        if self.lo >= self.hi:
            raise ValueError(f"bad bounds ({self.lo}, {self.hi})")
        if self.n_points < 3:
            raise ValueError("n_points must be at least 3")
        if self.n_points > MAX_GRID_POINTS:
            raise ValueError("grid exceeds the point budget")

    @property
    def cell_volume(self) -> float:
        return (self.hi - self.lo) / (self.n_points - 1)

    def axis(self) -> np.ndarray:
        return np.linspace(self.lo, self.hi, self.n_points)


@dataclass(frozen=True)
class GridField:
    """Scalar samples over a Grid, stored flat."""

    grid: Grid
    values: np.ndarray

    def __post_init__(self):
        values = np.asarray(self.values, dtype=np.float64).ravel()
        if values.size != self.grid.n_points:
            raise ValueError(
                f"{values.size} values for a {self.grid.n_points}-point grid")
        if not np.all(np.isfinite(values)):
            raise ValueError("non-finite field values")
        object.__setattr__(self, "values", values)

    def is_density(self) -> bool:
        """Nonnegative and integrating to 1 within DENSITY_TOL."""
        return (self.values.min() >= 0.0 and
                abs(self.values.sum() * self.grid.cell_volume - 1.0) <= DENSITY_TOL)


@dataclass(frozen=True)
class BoltzmannResult:
    density: GridField
    log_z: float


def boltzmann(field: GridField, beta: float) -> BoltzmannResult:
    """Normalized density exp(-beta f)/Z via log-sum-exp shifting."""
    if beta <= 0:
        raise ValueError("inverse temperature must be positive")
    a = -beta * field.values
    shift = a.max()
    weights = np.exp(a - shift)
    total = weights.sum() * field.grid.cell_volume
    log_z = float(shift + np.log(total))
    if not np.isfinite(log_z):
        raise FloatingPointError(
            "partition function under/overflow despite max-shift")
    density = weights / total
    return BoltzmannResult(density=GridField(field.grid, density), log_z=log_z)


def kl_divergence(P: GridField, Q: GridField) -> float:
    """Riemann-sum KL(P || Q) between two normalized grid densities."""
    if P.grid != Q.grid:
        raise ValueError("densities must share a grid")
    p, q = P.values, Q.values
    mask = p > 0
    if np.any(q[mask] <= 0):
        raise ValueError("Q has zero mass where P is positive")
    kl = float(np.sum(p[mask] * np.log(p[mask] / q[mask])) * P.grid.cell_volume)
    # KL is nonnegative; between near-equal densities the sum can round below 0
    return max(kl, 0.0)


def gibbs_divergence(P: GridField, objective: GridField) -> float:
    """integral P (ln P + L): divergence of P from the raw factor exp(-L).

    Equal to KL(P || boltzmann(L)) minus ln Z, so it may be negative; its
    value drops pointwise whenever the objective field does, which makes
    the p-monotonicity of the unweighted scheme an exact statement.
    """
    if P.grid != objective.grid:
        raise ValueError("fields must share a grid")
    p = P.values
    mask = p > 0
    inner = p[mask] * (np.log(p[mask]) + objective.values[mask])
    return float(inner.sum() * P.grid.cell_volume)


def _objective(values: Sequence[np.ndarray], betas: BetaWeights, p: float,
               mode: str) -> np.ndarray:
    """(sum_m b_m L_m^p)^(1/p) point by point, from one value array per term."""
    return power_mean(np.stack(values), weight_vector(betas, mode, len(values)), p)


@dataclass
class KLModeReport:
    mode: str
    p_list: list[float]
    d_single_1: float
    d_single_2: float
    d_multi: float
    d_non: dict
    dD_dp: dict
    kl_single_1: float
    kl_single_2: float
    kl_multi: float
    kl_non: dict
    orderings: dict
    practical_range_ok: bool

    def to_json_dict(self) -> dict:
        """The fields, with every p key as %g text."""
        doc = asdict(self)
        for key in ("d_non", "dD_dp", "kl_non"):
            doc[key] = {f"{p:g}": v for p, v in doc[key].items()}
        return doc


@dataclass
class KLReport:
    modes: dict

    def to_json_dict(self) -> dict:
        return {m: r.to_json_dict() for m, r in self.modes.items()}


def scheme_kl_report(L1: GridField, L2: GridField, P_opt: GridField,
                     betas: BetaWeights, p_list: Sequence[float]) -> KLReport:
    """Divergences of every scheme's objective from the reference density.

    For each mode, each scheme objective F gets both its relative
    divergence d = integral P_opt (ln P_opt + F) and the proper
    KL(P_opt || exp(-F)/Z). dD_dp holds central differences of d_non in p,
    with step P_STEP and the lower point clipped at p = 1.
    """
    if not p_list:
        raise ValueError("p_list must be nonempty")
    if not P_opt.is_density():
        raise ValueError("P_opt must be a normalized density")
    in_range = bool(np.all((L1.values > 0) & (L1.values < 1)
                           & (L2.values > 0) & (L2.values < 1)))

    def d_of(field: GridField) -> float:
        return gibbs_divergence(P_opt, field)

    def kl_of(field: GridField) -> float:
        return kl_divergence(P_opt, boltzmann(field, 1.0).density)

    p_list = [float(p) for p in p_list]
    singles = {"d_single_1": d_of(L1), "d_single_2": d_of(L2),
               "kl_single_1": kl_of(L1), "kl_single_2": kl_of(L2)}
    kl_best_single = min(singles["kl_single_1"], singles["kl_single_2"])
    modes = {}
    for mode in ("weighted", "unweighted"):
        def objective(p: float) -> GridField:
            return GridField(L1.grid, _objective([L1.values, L2.values], betas, p, mode))

        multi = objective(1.0)
        kl_multi = kl_of(multi)
        d_non, kl_non, dD_dp = {}, {}, {}
        for p in p_list:
            non = objective(p)
            d_non[p] = d_of(non)
            kl_non[p] = kl_of(non)
            lo_p = max(p - P_STEP, 1.0)
            dD_dp[p] = ((d_of(objective(p + P_STEP)) - d_of(objective(lo_p)))
                        / (p + P_STEP - lo_p))
        ps = sorted(d_non)
        orderings = {
            "kl_multi_below_both_singles": kl_multi < kl_best_single,
            "kl_non_below_both_singles_at_max_p": kl_non[ps[-1]] < kl_best_single,
            "d_non_non_increasing_in_p": all(
                d_non[b] <= d_non[a] + 1e-12 for a, b in zip(ps, ps[1:])),
            "kl_non_non_increasing_in_p": all(
                kl_non[b] <= kl_non[a] + 1e-12 for a, b in zip(ps, ps[1:])),
        }
        modes[mode] = KLModeReport(
            mode=mode, p_list=p_list, **singles, d_multi=d_of(multi), d_non=d_non,
            dD_dp=dD_dp, kl_multi=kl_multi, kl_non=kl_non, orderings=orderings,
            practical_range_ok=in_range)
    return KLReport(modes=modes)


def testbed_loss(x: np.ndarray, center: float) -> np.ndarray:
    """The KL testbed's loss at x: a quadratic about center, clipped to [0.01, 0.99].

    The offset is clipped to +-3 before it is squared, so a far x cannot
    overflow; past |2.51| the quadratic is above 0.99 either way.
    """
    return np.clip(0.05 + 0.15 * np.clip(x - center, -3.0, 3.0) ** 2, 0.01, 0.99)


def default_kl_testbed(lo: float = -3.0, hi: float = 3.0, points: int = 601):
    """Mirrored clipped quadratics in (0, 1) plus the reference density.

    The reference is the Boltzmann density (beta 10) of the pointwise
    minimum of the two loss fields, a concrete stand-in for a distribution
    concentrated on the optimal set.
    """
    grid = Grid(lo, hi, points)
    x = grid.axis()
    L1 = GridField(grid, testbed_loss(x, 1.0))
    L2 = GridField(grid, testbed_loss(x, -1.0))  # x - (-1) is x + 1 to the bit
    min_field = GridField(grid, np.minimum(L1.values, L2.values))
    p_opt = boltzmann(min_field, 10.0).density
    return L1, L2, p_opt


def generalized_entropy(fields: Sequence[GridField], betas: BetaWeights, p: float,
                        mode: str) -> float:
    """log integral exp(-(sum_m beta_m L_m^p)^(1/p)) by log-sum-exp quadrature."""
    if len(fields) < 1:
        raise ValueError("need at least one loss field")
    grid = fields[0].grid
    if any(f.grid != grid for f in fields):
        raise ValueError("fields must share a grid")
    objective = _objective([f.values for f in fields], betas, p, mode)
    return boltzmann(GridField(grid, objective), 1.0).log_z


@dataclass(frozen=True)
class MCEntropyEstimate:
    value: float
    std_error: float


def generalized_entropy_mc(loss_fns: Sequence[Callable], betas: BetaWeights, p: float,
                           bounds: Sequence[tuple[float, float]], n_draws: int,
                           seed: int, mode: str) -> MCEntropyEstimate:
    """Importance-sampling estimate of the generalized entropy under a
    uniform proposal over the box with per-axis (lo, hi) bounds.

    Each loss_fn maps (n, d) points to n values. Each draw is weighted
    exp(-F) / (1 / volume), and the standard error is propagated through
    the log.
    """
    if n_draws < 2:
        raise ValueError("need at least two draws")
    lows, highs = np.array(bounds, dtype=np.float64).T
    if np.any(lows >= highs):
        raise ValueError("bad box bounds")
    rng = np.random.default_rng(seed)
    pts = rng.uniform(lows, highs, size=(n_draws, lows.size))
    density = 1.0 / float(np.prod(highs - lows))
    objective = _objective([fn(pts) for fn in loss_fns], betas, p, mode)
    weights = np.exp(-objective) / density
    z_hat = float(weights.mean())
    z_se = float(weights.std(ddof=1) / np.sqrt(n_draws))
    se = z_se / z_hat  # delta method through the log
    return MCEntropyEstimate(value=float(np.log(z_hat)), std_error=se)


def _ascent(risks: Callable[[np.ndarray], np.ndarray],
            grads: Callable[[np.ndarray], np.ndarray], params: np.ndarray,
            alpha: float, seed: int,
            warm_start: np.ndarray | None = None) -> tuple[float, np.ndarray]:
    """max over |nu_i| <= alpha (|w_i| + 1) of risk(w + nu) - risk(w).

    Signed-gradient ascent with projection, ASCENT_STEPS steps from each of
    RESTARTS starts (plus warm_start when given); the first starts at
    nu = 0 so the result is never negative. The starts move together as
    one (S, P) stack: risks maps it to S risks and grads to S gradients.
    The best nu is the first largest risk in restart order, then step
    order, that beats risk(w) strictly: the one an ascent that ran the
    starts one after another would keep. Returns (sharpness, best nu).
    """
    if alpha < 0:
        raise ValueError("alpha must be nonnegative")
    params = np.asarray(params, dtype=np.float64)
    if alpha == 0.0:
        return 0.0, np.zeros_like(params)
    box = alpha * (np.abs(params) + 1.0)
    step = box / 10.0
    base = float(risks(params[None])[0])
    rng = np.random.default_rng(seed)
    starts = [np.zeros_like(params)]
    if warm_start is not None:
        starts.append(np.clip(warm_start, -box, box))
    nu = np.concatenate([starts, rng.uniform(-box, box, (RESTARTS - 1, params.size))])
    best, best_nu = np.full(len(nu), -np.inf), np.zeros_like(nu)
    for k in range(ASCENT_STEPS + 1):  # k = 0 scores the starts themselves
        if k:
            nu = np.clip(nu + step * np.sign(grads(params + nu)), -box, box)
        value = risks(params + nu)
        better = value > best
        best[better], best_nu[better] = value[better], nu[better]
    i = int(np.argmax(best))  # argmax keeps the first of equal maxima
    if best[i] > base:
        return float(best[i] - base), best_nu[i]
    return 0.0, np.zeros_like(params)


def box_sharpness(risk_fn: Callable[[np.ndarray], float],
                  grad_fn: Callable[[np.ndarray], np.ndarray],
                  params: np.ndarray, alpha: float,
                  seed: int) -> tuple[float, np.ndarray]:
    """``_ascent`` for a risk and a gradient of one parameter vector, each
    applied to the stack row by row. Returns (sharpness, best nu)."""
    return _ascent(lambda stack: np.array([risk_fn(w) for w in stack]),
                   lambda stack: np.array([grad_fn(w) for w in stack]),
                   params, alpha, seed)


def _ce_risks_and_grads(spec: MLPSpec, batch: Batch):
    """The cross-entropy risk and its gradient of each row of an (S, P) stack."""
    def risks(stack: np.ndarray) -> np.ndarray:
        return loss_means(LossKind.CE, netcore.forward(spec, stack, batch), batch.targets)

    def grads(stack: np.ndarray) -> np.ndarray:
        _, _, (g,) = netcore.term_values_and_grads(spec, stack, batch.inputs, batch.targets,
                                                     (), (LossKind.CE,))
        return g

    return risks, grads


def sharpness(spec: MLPSpec, params: np.ndarray, batch: Batch, alpha: float,
              seed: int = 0) -> float:
    """Box sharpness of an MLP's cross-entropy risk at the given params."""
    value, _ = _ascent(*_ce_risks_and_grads(spec, batch), params, alpha, seed)
    return value


def sharpness_sweep(spec: MLPSpec, params: np.ndarray, batch: Batch,
                    alphas: Sequence[float], seed: int) -> list[float]:
    """Cross-entropy sharpness over increasing alphas with nested-box evaluation.

    The maximizer found at each alpha seeds the next (the boxes nest), so
    the reported values are non-decreasing by construction.
    """
    if list(alphas) != sorted(alphas):
        raise ValueError("alphas must be increasing")
    risks, grads = _ce_risks_and_grads(spec, batch)
    out, warm = [], None
    for alpha in alphas:
        value, warm = _ascent(risks, grads, params, alpha, seed, warm_start=warm)
        out.append(value)
    return out
