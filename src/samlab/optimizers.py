"""The SAM optimizer family and its SGD baseline.

Three perturbation strategies share one outer step:

* first-order: epsilon = rho * g / ||g||, the closed-form maximizer of the
  linearized inner problem;
* gradient ascent: N normalized ascent sub-steps of length rho/N each, with
  the gradient re-evaluated at every iterate;
* random: a uniform unit direction scaled by rho, resampled every step.

The outer step evaluates the gradient at the perturbed point w + epsilon and
applies a plain SGD-with-momentum update to the ORIGINAL w. The perturbation
and the perturbed gradient always use the same minibatch: mixing batches
would change the estimator being optimized.

Weight decay is decoupled from the perturbation: epsilon is computed from the
pure loss gradient, and decay enters only the outer update.

Every kind's step is one generator (`step_points`) that yields each point
whose loss and gradient it needs, so the evaluation is up to its caller,
and counts them in its `StepReport`. `step` answers each point with
`network.loss_and_grad`. `step_rows` steps K runs: one by `step`, several
in `lockstep`, which the probes' ascents share: it answers the pending
points with one `network.loss_and_grad` call on their stacked rows per
round, with at most `network.rows_per_call` runs live, so each stacked
call keeps to network's budget. A run leaves the rounds when its step
ends (sgd after one point, a flat batch's sam_ga ascent early), and each
run keeps its own state, momentum buffer and direction stream, so a
lockstep step is byte for byte the runs' single steps. Both check the
step's minibatch once (`network.check_batch`), not once per point.
"""

from dataclasses import dataclass
from typing import Callable, NamedTuple, Optional

import numpy as np

from . import network
from .errors import ConfigError
from .vecops import l2_norm, sample_unit_direction

SGD = "sgd"
SAM = "sam"
SAM_GA = "sam_ga"
RAND_SAM = "rand_sam"

OPTIMIZER_KINDS = (SGD, SAM, SAM_GA, RAND_SAM)

# Gradient norms below this are treated as exactly flat (zero-gradient fallback).
ZERO_GRAD_EPS = 1e-12


@dataclass
class Perturbation:
    """A parameter-space displacement epsilon.

    `zero_gradient` marks the fallback where a flat batch made the ascent
    direction undefined: epsilon is all zeros and the step degrades to SGD.
    For gradient ascent it also marks an early stop at a flat iterate.
    """

    epsilon: np.ndarray
    zero_gradient: bool = False

    @property
    def norm(self) -> float:
        return l2_norm(self.epsilon)


@dataclass(frozen=True)
class OptimizerConfig:
    kind: str
    learning_rate: float
    momentum: float = 0.0
    weight_decay: float = 0.0
    rho: float = 0.05
    ga_steps: int = 1

    def __post_init__(self):
        if self.kind not in OPTIMIZER_KINDS:
            raise ConfigError(f"unknown optimizer kind {self.kind!r}, expected one of {OPTIMIZER_KINDS}")
        if self.learning_rate <= 0:
            raise ConfigError(f"learning_rate must be > 0, got {self.learning_rate}")
        if not 0.0 <= self.momentum < 1.0:
            raise ConfigError(f"momentum must be in [0, 1), got {self.momentum}")
        if self.weight_decay < 0:
            raise ConfigError(f"weight_decay must be >= 0, got {self.weight_decay}")
        if self.kind != SGD and self.rho <= 0:
            raise ConfigError(f"rho must be > 0 for SAM variants, got {self.rho}")
        if self.ga_steps < 1:
            raise ConfigError(f"ga_steps must be >= 1, got {self.ga_steps}")
        # A value its kind never reads would change config_hash and nothing else.
        if self.kind == SGD and self.rho != OptimizerConfig.rho:
            raise ConfigError("optimizer key 'rho' is not read by kind 'sgd'")
        if self.kind != SAM_GA and self.ga_steps != OptimizerConfig.ga_steps:
            raise ConfigError(f"optimizer key 'ga_steps' is read only by kind 'sam_ga', "
                              f"not {self.kind!r}")

    @property
    def label(self) -> str:
        if self.kind == SAM_GA:
            return f"sam_ga{self.ga_steps}"
        return self.kind


@dataclass
class OptimizerState:
    """Per-run mutable state: momentum buffer and direction sampler."""

    momentum_buffer: np.ndarray
    rng: Optional[np.random.Generator] = None


def init_state(config: OptimizerConfig, param_len: int, direction_seed: Optional[int] = None) -> OptimizerState:
    rng = None
    if config.kind == RAND_SAM:
        if direction_seed is None:
            raise ConfigError("rand_sam requires a direction seed")
        rng = np.random.default_rng(direction_seed & 0xFFFFFFFFFFFFFFFF)
    return OptimizerState(momentum_buffer=np.zeros(param_len, dtype=np.float64), rng=rng)


@dataclass
class StepReport:
    """Observability record for one optimizer step, built by `step_points`."""

    loss: float
    perturbed_loss: Optional[float]
    epsilon_norm: float
    zero_gradient: bool = False
    grad_evals: int = 1


def epsilon_first_order(gradient: np.ndarray, rho: float) -> Perturbation:
    """epsilon = rho * gradient / ||gradient||.

    Falls back to epsilon = 0 (flagged) when the gradient norm vanishes;
    flat-region batches occur legitimately late in training and should not
    abort a run.
    """
    if rho <= 0:
        raise ValueError(f"rho must be > 0, got {rho}")
    gradient = np.asarray(gradient, dtype=np.float64)
    norm = l2_norm(gradient)
    if norm < ZERO_GRAD_EPS:
        return Perturbation(np.zeros_like(gradient), zero_gradient=True)
    return Perturbation(rho * gradient / norm)


def epsilon_gradient_ascent(loss_and_grad_fn: Callable, w: np.ndarray,
                            rho: float, n_steps: int) -> Perturbation:
    """N normalized ascent sub-steps of length rho/N from w; returns w^N - w.

    `loss_and_grad_fn(p) -> (loss, grad)` is re-evaluated at every iterate.
    The accumulated displacement is NOT projected back to norm rho: the
    sub-steps need not be collinear, so ||epsilon|| can end up below rho.
    Stops early (flagged) if a flat iterate is hit.
    """
    return _run_points(_ascent_points(w, rho, n_steps), loss_and_grad_fn)[0]


def _ascent_points(w: np.ndarray, rho: float, n_steps: int):
    """`epsilon_gradient_ascent` as a point generator (see `step_points`);
    returns (perturbation, loss at w, points evaluated)."""
    if rho <= 0:
        raise ValueError(f"rho must be > 0, got {rho}")
    if n_steps < 1:
        raise ValueError(f"n_steps must be >= 1, got {n_steps}")
    current = w = np.asarray(w, dtype=np.float64)
    step_len = rho / n_steps
    for step in range(n_steps):
        value, grad = yield current
        if step == 0:
            base_value = value
        norm = l2_norm(grad)
        if norm < ZERO_GRAD_EPS:
            return Perturbation(current - w, zero_gradient=True), base_value, step + 1
        current = current + step_len * (grad / norm)
    return Perturbation(current - w), base_value, n_steps


def epsilon_random(param_len: int, rho: float, rng: np.random.Generator) -> Perturbation:
    """A fresh uniform unit direction scaled by rho; independent per call."""
    if rho <= 0:
        raise ValueError(f"rho must be > 0, got {rho}")
    direction = sample_unit_direction(param_len, rng)
    return Perturbation(rho * direction)


def _apply_update(params: np.ndarray, grad: np.ndarray, config: OptimizerConfig,
                  state: OptimizerState) -> np.ndarray:
    # Update order is fixed: buffer <- mu * buffer + g; w <- w - lr * (buffer + wd * w)
    state.momentum_buffer = config.momentum * state.momentum_buffer + grad
    return params - config.learning_rate * (state.momentum_buffer + config.weight_decay * params)


def step_points(params: np.ndarray, config: OptimizerConfig, state: OptimizerState):
    """One optimizer step as a generator that leaves the evaluation to its
    caller: it yields each point whose loss and gradient the step needs, on
    the step's one minibatch, receives them as (value, gradient), and returns
    (new params, StepReport). The report's `grad_evals` counts the points.

    sgd descends from w with the gradient at w. A SAM variant (1) computes
    epsilon on this batch, (2) evaluates the gradient at w + epsilon on the
    same batch, (3) descends from the original w using that gradient. It uses
    exactly 2 gradient evaluations for the first-order and random strategies
    and N+1 for N-step gradient ascent (fewer if the ascent stops early).
    """
    params = np.asarray(params, dtype=np.float64)

    if config.kind == SAM_GA:
        perturbation, base_value, ascent_evals = yield from _ascent_points(
            params, config.rho, config.ga_steps)
    else:
        base_value, base_grad = yield params
        if config.kind == SGD:
            new_params = _apply_update(params, base_grad, config, state)
            return new_params, StepReport(loss=base_value, perturbed_loss=None, epsilon_norm=0.0,
                                          grad_evals=1)
        ascent_evals = 1
        if config.kind == SAM:
            perturbation = epsilon_first_order(base_grad, config.rho)
        else:
            # rand_sam ignores the base gradient (the direction is random), but
            # the loss at w is still wanted for reporting and the evaluation
            # keeps the 2x-per-batch gradient budget uniform across variants.
            perturbation = epsilon_random(params.shape[0], config.rho, state.rng)

    perturbed_value, perturbed_grad = yield params + perturbation.epsilon
    new_params = _apply_update(params, perturbed_grad, config, state)
    report = StepReport(loss=base_value, perturbed_loss=perturbed_value,
                        epsilon_norm=perturbation.norm,
                        zero_gradient=perturbation.zero_gradient,
                        grad_evals=ascent_evals + 1)
    return new_params, report


def _run_points(points, evaluate):
    """Run a point generator to its end, answering each point with
    `evaluate(point)`; returns what the generator returns."""
    try:
        point = next(points)
        while True:
            point = points.send(evaluate(point))
    except StopIteration as done:
        return done.value


def step(model_spec, params: np.ndarray, batch, config: OptimizerConfig,
         state: OptimizerState):
    """One step of the configured kind, evaluated by `network.loss_and_grad`."""
    batch = network.check_batch(model_spec, batch)  # once per step, not per point
    return _run_points(step_points(params, config, state),
                       lambda point: network.loss_and_grad(model_spec, point, batch))


class LossOnly(NamedTuple):
    """A point a generator yields when it wants only the loss there; it
    receives the value alone."""

    point: np.ndarray


def lockstep(model_spec, batch, generators) -> list:
    """Run point generators together on one batch; returns what each returns,
    in the order given.

    A generator yields a point whose loss and gradient it wants and receives
    (value, gradient), or a `LossOnly` point and receives the value. Each
    round answers every live generator's pending point with one call per
    kind, `network.loss_and_grad` and `network.forward`, on the stacked
    points (on a lone point, the vector call). A generator leaves the rounds
    when it returns; at most `network.rows_per_call(model_spec, batch)` are
    live at once, and the next one is started, and so builds its points,
    only when a place is free. Rows are evaluated independently, so every
    answer is byte for byte the call on its point alone.
    """
    batch = network.check_batch(model_spec, batch)  # once, not per round
    width = network.rows_per_call(model_spec, batch)
    queue = enumerate(generators)
    results = {}
    live = []  # [index, generator, pending point]
    while True:
        while len(live) < width:
            entry = next(queue, None)
            if entry is None:
                break
            k, gen = entry
            try:
                live.append([k, gen, next(gen)])
            except StopIteration as done:
                results[k] = done.value
        if not live:
            return [results[k] for k in range(len(results))]
        grad_entries, loss_entries = [], []
        for entry in live:
            (loss_entries if type(entry[2]) is LossOnly else grad_entries).append(entry)
        answered = []
        if len(grad_entries) == 1:
            answered.append((grad_entries[0],
                             network.loss_and_grad(model_spec, grad_entries[0][2], batch)))
        elif grad_entries:
            values, grads = network.loss_and_grad(
                model_spec, np.array([entry[2] for entry in grad_entries]), batch)
            answered += zip(grad_entries, zip(values.tolist(), grads))
        if len(loss_entries) == 1:
            answered.append((loss_entries[0],
                             network.forward(model_spec, loss_entries[0][2].point, batch)))
        elif loss_entries:
            values = network.forward(
                model_spec, np.array([entry[2].point for entry in loss_entries]), batch)
            answered += zip(loss_entries, values.tolist())
        live = []
        for entry, answer in answered:
            try:
                entry[2] = entry[1].send(answer)
                live.append(entry)
            except StopIteration as done:
                results[entry[0]] = done.value


def step_rows(model_spec, rows: np.ndarray, batch, configs, states):
    """One step of K runs on one minibatch.

    Row k of `rows` (K, P) is run k's params, stepped by `configs[k]` with
    `states[k]`. Returns (new rows (K, P), one StepReport per run), each row
    byte for byte what `step` gives that run alone.

    One run is stepped by `step`, called as a global so that a rebound
    `optimizers.step` (the bench's tracer) sees each one-run step. Several
    advance in one `lockstep`, so a flat-batch fallback or an early-stopped
    ascent changes only its own row.
    """
    if len(rows) == 1:
        new, report = step(model_spec, rows[0], batch, configs[0], states[0])
        return new[None, :], [report]
    results = lockstep(model_spec, batch,
                       [step_points(row, config, state)
                        for row, config, state in zip(rows, configs, states)])
    return np.array([new for new, _ in results]), [report for _, report in results]
