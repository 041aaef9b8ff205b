"""Sharpness probes: three loss-increase measurements around a trained point.

All three share the scale rho and measure how much the loss rises within a
rho-ball around w, but they answer different questions:

* worst direction (estimated): max over the ball, via projected gradient
  ascent from several starts. A lower bound on the true maximum.
* ascent direction: loss one first-order step away, L(w + rho g/||g||).
* average direction: expected loss over uniform random unit directions.

Standardized sharpness (`build_report`'s `standardized_sharpness`) is the
ascent-direction rise L(w + e1) - L(w) with e1 always the FIRST-ORDER
perturbation, regardless of how the model was trained.
Comparing optimizers by their own training perturbation would conflate the
measurement instrument with the thing measured.

The probes evaluate the loss at many independent points (a slice's grid, the
average direction's samples, the worst-direction ascents), and they evaluate
them as stacked rows: up to K points per `network.forward` or
`network.loss_and_grad` call, each row byte for byte the call on its point
alone. K is `network.rows_per_call`, from the kernel's 1 MiB stacking
budget: 8 points for a 500-row batch through 32 units, 1 (one point a call)
for a 1000-row batch through 128. Callers stack at most K points, and
each call is one pass over its batch, so K moves no byte. The slice and the
average direction build each of the passes `network.passes` cuts in the
order the one-point loops drew its points, and the worst direction's
ascents advance in `lockstep`, which keeps at most K live, so the extra
memory is about K points and their activations.
"""

import math
from dataclasses import dataclass, asdict
from typing import Optional

import numpy as np

from . import network
from .optimizers import epsilon_first_order, lockstep, LossOnly, ZERO_GRAD_EPS
from .vecops import l2_norm, sample_unit_direction
from .errors import SamLabError

DEFAULT_RESTARTS = 8
DEFAULT_INNER_STEPS = 20
DEFAULT_SAMPLES = 64


@dataclass(frozen=True)
class ProbeConfig:
    rho: float = 0.05
    restarts: int = DEFAULT_RESTARTS
    inner_steps: int = DEFAULT_INNER_STEPS
    n_samples: int = DEFAULT_SAMPLES

    def __post_init__(self):
        if self.rho <= 0:
            raise ValueError(f"rho must be > 0, got {self.rho}")
        if self.restarts < 1:
            raise ValueError(f"restarts must be >= 1, got {self.restarts}")
        if self.inner_steps < 1:
            raise ValueError(f"inner_steps must be >= 1, got {self.inner_steps}")
        if self.n_samples < 2:
            raise ValueError(f"n_samples must be >= 2, got {self.n_samples}")


@dataclass(frozen=True)
class SharpnessReport:
    """Every sharpness quantity measured at one parameter point.

    `data_scope` names the split the probe batch came from (the train split).
    The x1e3 scaling used in result tables is applied at serialization time.
    """

    base_loss: float
    l_asc: float
    l_avg_mean: float
    l_avg_stderr: float
    l_avg_samples: int
    l_max_estimate: float
    l_max_restarts: int
    standardized_sharpness: float
    generalization_gap: Optional[float]
    rho: float
    data_scope: str = "train"

    def to_dict(self) -> dict:
        return asdict(self)


def loss_ascent_direction(model_spec, params: np.ndarray, batch, rho: float,
                          base: Optional[network.LossGradient] = None) -> float:
    """L(w + rho * g/||g||): loss after one normalized gradient step up.

    `base` is `network.loss_and_grad` at w, if the caller already has it.
    """
    if rho <= 0:
        raise ValueError(f"rho must be > 0, got {rho}")
    batch = network.check_batch(model_spec, batch)
    if base is None:
        base = network.loss_and_grad(model_spec, params, batch)
    perturbation = epsilon_first_order(base.gradient, rho)
    if perturbation.zero_gradient:
        return base.value
    return network.forward(model_spec, params + perturbation.epsilon, batch)


def loss_average_direction(model_spec, params: np.ndarray, batch, rho: float,
                           n_samples: int, seed: int):
    """Monte Carlo estimate of E[L(w + rho u)] over uniform unit directions u.

    Returns (mean, stderr, n_samples). stderr uses the sample standard
    deviation (ddof=1), so at least two samples are required.
    """
    if rho <= 0:
        raise ValueError(f"rho must be > 0, got {rho}")
    if n_samples < 2:
        raise ValueError(f"n_samples must be >= 2, got {n_samples}")
    rng = np.random.default_rng(seed & 0xFFFFFFFFFFFFFFFF)
    params = np.asarray(params, dtype=np.float64)
    batch = network.check_batch(model_spec, batch)
    losses = np.empty(n_samples, dtype=np.float64)
    for cut in network.passes(model_spec, batch, n_samples):
        rows = np.empty((cut.stop - cut.start, params.shape[0]))
        for row in rows:
            np.add(params, rho * sample_unit_direction(params.shape[0], rng), out=row)
        losses[cut] = network.forward(model_spec, rows, batch)
    mean = float(np.mean(losses))
    stderr = float(np.std(losses, ddof=1) / np.sqrt(n_samples))
    return mean, stderr, n_samples


def _ascent(params, rho, inner_steps, epsilon):
    """Projected gradient ascent inside the rho-ball from w + epsilon, as a
    point generator (see `optimizers.lockstep`).

    The start is evaluated as given, so the first-order start is exactly the
    point `loss_ascent_direction` measures. Normalized ascent steps of length
    2*rho/inner_steps follow, projecting back onto the ball whenever an
    iterate leaves it. Returns the best loss seen at any visited point,
    including the start. Each point is evaluated once: the loss of a point
    the ascent steps from comes with its gradient, and only the last point,
    which it does not step from, is a `LossOnly` point.

    Its reach is bounded: the steps add up to 2*rho of path whatever
    `inner_steps` is, and a projection only shortens a move, so a maximiser
    more than about 2*rho of arc from the start (of up to pi*rho across the
    sphere ||e|| = rho) is out of reach.
    """
    best = -math.inf
    step_len = 2.0 * rho / inner_steps
    for _ in range(inner_steps):
        value, gradient = yield params + epsilon
        best = max(best, value)
        norm = l2_norm(gradient)
        if norm < ZERO_GRAD_EPS:
            return best
        epsilon = epsilon + step_len * (gradient / norm)
        eps_norm = l2_norm(epsilon)
        if eps_norm > rho:
            epsilon *= rho / eps_norm
    return max(best, (yield LossOnly(params + epsilon)))


def loss_worst_direction_estimate(model_spec, params: np.ndarray, batch, rho: float,
                                  restarts: int, inner_steps: int, seed: int,
                                  base: Optional[network.LossGradient] = None) -> float:
    """Estimate max_{||e|| <= rho} L(w + e) by multi-restart ascent.

    One ascent starts from the first-order perturbation (usually already near
    the maximizer), the rest from independent uniform draws inside the ball.
    The estimate is monotone in `restarts` for a fixed seed because restart i
    always uses the stream seeded by (seed, i). It is at least
    max(L(w), `loss_ascent_direction`), to the bit: it starts from L(w),
    which is the ascent direction's loss where the gradient vanishes, and
    otherwise the first ascent's first point is the first-order point. The
    ascents run in `lockstep`, each starting point drawn only when its
    ascent starts. `base` is `network.loss_and_grad` at w, if the caller
    already has it.

    Each ascent walks at most 2*rho of path, whatever `inner_steps` is
    (`_ascent`), so a maximiser more than about 2*rho of arc from every
    start is out of reach, and more steps only refine the path's end.
    """
    if rho <= 0:
        raise ValueError(f"rho must be > 0, got {rho}")
    if restarts < 1:
        raise ValueError(f"restarts must be >= 1, got {restarts}")
    if inner_steps < 1:
        raise ValueError(f"inner_steps must be >= 1, got {inner_steps}")
    params = np.asarray(params, dtype=np.float64)
    batch = network.check_batch(model_spec, batch)
    if base is None:
        base = network.loss_and_grad(model_spec, params, batch)
    best = base.value

    first_order = epsilon_first_order(base.gradient, rho)
    dim = params.shape[0]

    def starts():
        if not first_order.zero_gradient:
            yield first_order.epsilon
        for restart in range(restarts):
            rng = np.random.default_rng([seed & 0xFFFFFFFFFFFFFFFF, restart])
            # Uniform in the ball: unit direction times rho * U^(1/d).
            radius = rho * float(rng.uniform()) ** (1.0 / dim)
            yield radius * sample_unit_direction(dim, rng)

    ascents = (_ascent(params, rho, inner_steps, start) for start in starts())
    for ascent_best in lockstep(model_spec, batch, ascents):
        best = max(best, ascent_best)
    return best


def generalization_gap(train_loss: float, test_loss: float) -> float:
    """test - train; positive when the model fits train better than test."""
    return test_loss - train_loss


def loss_plane_slice(model_spec, params: np.ndarray, batch,
                     direction_a: np.ndarray, direction_b: np.ndarray,
                     extent: float, n_points: int):
    """Loss surface on a 2-D plane through w.

    The two directions are orthonormalized (Gram-Schmidt, a first), then the
    loss is evaluated on a regular (n_points x n_points) grid of coefficients
    in [-extent, extent]^2. Returns (alphas, betas, losses) with
    losses[i, j] = L(w + alphas[i] * a + betas[j] * b). With odd n_points the
    center cell is the unperturbed loss exactly: `network.loss_and_grad`'s
    value at w, to the bit.
    """
    if extent < 0:
        raise ValueError(f"extent must be >= 0, got {extent}")
    if n_points < 2:
        raise ValueError(f"n_points must be >= 2, got {n_points}")
    params = np.asarray(params, dtype=np.float64)
    batch = network.check_batch(model_spec, batch)
    a = np.asarray(direction_a, dtype=np.float64).copy()
    norm_a = l2_norm(a)
    if norm_a < ZERO_GRAD_EPS:
        raise SamLabError("slice direction a has zero norm")
    a /= norm_a
    b = np.asarray(direction_b, dtype=np.float64).copy()
    b -= np.dot(b, a) * a
    norm_b = l2_norm(b)
    if norm_b < ZERO_GRAD_EPS:
        raise SamLabError("slice directions are parallel; the plane is degenerate")
    b /= norm_b

    alphas = np.linspace(-extent, extent, n_points)
    betas = np.linspace(-extent, extent, n_points)
    if n_points % 2 == 1:
        alphas[n_points // 2] = 0.0
        betas[n_points // 2] = 0.0
    # Grid point (i, j) is row i * n_points + j; each is built as
    # (w + alphas[i] * a) + betas[j] * b, the 2-D expression's order.
    grid_alphas = np.repeat(alphas, n_points)[:, None]
    grid_betas = np.tile(betas, n_points)[:, None]
    losses = np.empty(n_points * n_points, dtype=np.float64)
    for cells in network.passes(model_spec, batch, losses.size):
        rows = (params + grid_alphas[cells] * a) + grid_betas[cells] * b
        losses[cells] = network.forward(model_spec, rows, batch)
    return alphas, betas, losses.reshape(n_points, n_points)


def build_report(model_spec, params: np.ndarray, batch, config: ProbeConfig,
                 seed: int, test_loss: Optional[float] = None,
                 base: Optional[network.LossGradient] = None) -> SharpnessReport:
    """Run every probe at one parameter point on the train split `batch`.

    The batch is checked once, and w is evaluated once: its loss and
    gradient give the base loss (the gap's train loss; the gap is filled in
    only when `test_loss` is given), the ascent direction and the
    first-order ascent start. `base` is `network.loss_and_grad` at w on
    `batch`, if the caller already has it.
    """
    params = np.asarray(params, dtype=np.float64)
    batch = network.check_batch(model_spec, batch)
    if base is None:
        base = network.loss_and_grad(model_spec, params, batch)
    l_asc = loss_ascent_direction(model_spec, params, batch, config.rho, base=base)
    avg_mean, avg_stderr, n_used = loss_average_direction(
        model_spec, params, batch, config.rho, config.n_samples, seed)
    l_max = loss_worst_direction_estimate(
        model_spec, params, batch, config.rho,
        config.restarts, config.inner_steps, seed, base=base)
    gap = None if test_loss is None else generalization_gap(base.value, test_loss)
    return SharpnessReport(
        base_loss=base.value,
        l_asc=l_asc,
        l_avg_mean=avg_mean,
        l_avg_stderr=avg_stderr,
        l_avg_samples=n_used,
        l_max_estimate=l_max,
        l_max_restarts=config.restarts,
        standardized_sharpness=l_asc - base.value,
        generalization_gap=gap,
        rho=config.rho,
    )
