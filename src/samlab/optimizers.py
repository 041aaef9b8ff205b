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

Each kind's step is one generator (`step_points`): it yields every point whose
loss and gradient the step needs and receives them, so the evaluation is up
to its caller. `step` answers each point with `network.loss_and_grad`;
`step_rows` advances K runs' generators together and answers all their
pending points with one stacked `network.loss_and_grad_rows` call per round.
A run leaves the rounds when its step ends (sgd after one point, a flat
batch's sam_ga ascent early), and each run keeps its own state, momentum
buffer and direction stream, so a lockstep step is byte for byte the runs'
single steps.
"""

from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from . import network
from .errors import ConfigError
from .vecops import sample_unit_direction

FIRST_ORDER = "first_order"
GRADIENT_ASCENT = "gradient_ascent"
RANDOM = "random"

SGD = "sgd"
SAM = "sam"
SAM_GA = "sam_ga"
RAND_SAM = "rand_sam"

OPTIMIZER_KINDS = (SGD, SAM, SAM_GA, RAND_SAM)

# Gradient norms below this are treated as exactly flat (zero-gradient fallback).
ZERO_GRAD_EPS = 1e-12


@dataclass
class Perturbation:
    """A parameter-space displacement epsilon with its provenance.

    `zero_gradient` marks the fallback where a flat batch made the ascent
    direction undefined: epsilon is all zeros and the step degrades to SGD.
    For gradient ascent it also marks an early stop at a flat iterate.
    """

    epsilon: np.ndarray
    rho: float
    strategy: str
    steps_used: int = 0
    zero_gradient: bool = False

    @property
    def norm(self) -> float:
        return float(np.linalg.norm(self.epsilon))


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

    @property
    def label(self) -> str:
        if self.kind == SAM_GA:
            return f"sam_ga{self.ga_steps}"
        return self.kind


@dataclass
class OptimizerState:
    """Per-run mutable state: momentum buffer, counters, direction sampler."""

    momentum_buffer: np.ndarray
    step_count: int = 0
    grad_evals: int = 0
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
    """Observability record for one optimizer step."""

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
    norm = float(np.linalg.norm(gradient))
    if norm < ZERO_GRAD_EPS:
        return Perturbation(np.zeros_like(gradient), rho, FIRST_ORDER,
                            steps_used=0, zero_gradient=True)
    return Perturbation(rho * gradient / norm, rho, FIRST_ORDER, steps_used=1)


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
    returns (perturbation, loss at w)."""
    if rho <= 0:
        raise ValueError(f"rho must be > 0, got {rho}")
    if n_steps < 1:
        raise ValueError(f"n_steps must be >= 1, got {n_steps}")
    w = np.asarray(w, dtype=np.float64)
    current = w.copy()
    step_len = rho / n_steps
    for step in range(n_steps):
        value, grad = yield current
        if step == 0:
            base_value = value
        norm = float(np.linalg.norm(grad))
        if norm < ZERO_GRAD_EPS:
            return Perturbation(current - w, rho, GRADIENT_ASCENT,
                                steps_used=step, zero_gradient=True), base_value
        current = current + step_len * (grad / norm)
    return Perturbation(current - w, rho, GRADIENT_ASCENT, steps_used=n_steps), base_value


def epsilon_random(param_len: int, rho: float, rng: np.random.Generator) -> Perturbation:
    """A fresh uniform unit direction scaled by rho; independent per call."""
    if rho <= 0:
        raise ValueError(f"rho must be > 0, got {rho}")
    direction = sample_unit_direction(param_len, rng)
    return Perturbation(rho * direction, rho, RANDOM, steps_used=1)


def _apply_update(params: np.ndarray, grad: np.ndarray, config: OptimizerConfig,
                  state: OptimizerState) -> np.ndarray:
    # Update order is fixed: buffer <- mu * buffer + g; w <- w - lr * (buffer + wd * w)
    state.momentum_buffer = config.momentum * state.momentum_buffer + grad
    new_params = params - config.learning_rate * (state.momentum_buffer + config.weight_decay * params)
    state.step_count += 1
    return new_params


def _sgd_points(params: np.ndarray, config: OptimizerConfig, state: OptimizerState):
    """One SGD-with-momentum step as a point generator (see `step_points`);
    the baseline every SAM variant reduces to."""
    params = np.asarray(params, dtype=np.float64)
    evals_before = state.grad_evals
    value, grad = yield params
    new_params = _apply_update(params, grad, config, state)
    return new_params, StepReport(loss=value, perturbed_loss=None, epsilon_norm=0.0,
                                  grad_evals=state.grad_evals - evals_before)


def _sam_points(params: np.ndarray, config: OptimizerConfig, state: OptimizerState):
    """One sharpness-aware step as a point generator (see `step_points`).

    (1) compute epsilon on this batch, (2) evaluate the gradient at
    w + epsilon on the same batch, (3) descend from the original w using that
    gradient. Uses exactly 2 gradient evaluations for the first-order and
    random strategies and N+1 for N-step gradient ascent.
    """
    if config.kind not in (SAM, SAM_GA, RAND_SAM):
        raise ConfigError(f"sam_step needs a SAM variant, got kind {config.kind!r}")
    params = np.asarray(params, dtype=np.float64)
    evals_before = state.grad_evals

    if config.kind == SAM:
        base_value, base_grad = yield params
        perturbation = epsilon_first_order(base_grad, config.rho)
    elif config.kind == RAND_SAM:
        # The base evaluation's gradient is unused (the direction is random),
        # but the loss at w is still wanted for reporting and the evaluation
        # keeps the 2x-per-batch gradient budget uniform across variants.
        base_value, _ = yield params
        perturbation = epsilon_random(params.shape[0], config.rho, state.rng)
    else:
        perturbation, base_value = yield from _ascent_points(params, config.rho, config.ga_steps)

    perturbed_value, perturbed_grad = yield params + perturbation.epsilon
    new_params = _apply_update(params, perturbed_grad, config, state)
    report = StepReport(loss=base_value, perturbed_loss=perturbed_value,
                        epsilon_norm=perturbation.norm,
                        zero_gradient=perturbation.zero_gradient,
                        grad_evals=state.grad_evals - evals_before)
    return new_params, report


def step_points(params: np.ndarray, config: OptimizerConfig, state: OptimizerState):
    """One optimizer step as a generator that leaves the evaluation to its
    caller: it yields each point whose loss and gradient the step needs, on
    the step's one minibatch, receives them as (value, gradient), and returns
    (new params, StepReport). The caller adds 1 to `state.grad_evals` per
    point before it answers."""
    if config.kind == SGD:
        return _sgd_points(params, config, state)
    return _sam_points(params, config, state)


def _run_points(points, evaluate):
    """Run a point generator to its end, answering each point with
    `evaluate(point)`; returns what the generator returns."""
    try:
        point = next(points)
        while True:
            point = points.send(evaluate(point))
    except StopIteration as done:
        return done.value


def _evaluator(model_spec, batch, state: OptimizerState):
    def evaluate(point):
        state.grad_evals += 1
        return network.loss_and_grad(model_spec, point, batch)
    return evaluate


def sgd_step(model_spec, params: np.ndarray, batch, config: OptimizerConfig,
             state: OptimizerState):
    """One SGD-with-momentum step, its point evaluated by `network.loss_and_grad`."""
    return _run_points(_sgd_points(params, config, state), _evaluator(model_spec, batch, state))


def sam_step(model_spec, params: np.ndarray, batch, config: OptimizerConfig,
             state: OptimizerState):
    """One sharpness-aware step, each point evaluated by `network.loss_and_grad`."""
    return _run_points(_sam_points(params, config, state), _evaluator(model_spec, batch, state))


def step(model_spec, params: np.ndarray, batch, config: OptimizerConfig,
         state: OptimizerState):
    """One step of the configured kind, evaluated by `network.loss_and_grad`."""
    return _run_points(step_points(params, config, state), _evaluator(model_spec, batch, state))


def step_rows(model_spec, rows: np.ndarray, batch, configs, states):
    """One step of K runs in lockstep on one minibatch.

    Row k of `rows` (K, P) is run k's params, stepped by `configs[k]` with
    `states[k]`. Every run's step generator advances together: each round
    evaluates all pending points with one `network.loss_and_grad_rows` call,
    and a run leaves the rounds when its step returns, so a flat-batch
    fallback or an early-stopped ascent changes only its own row. Returns
    (new rows (K, P), one StepReport per run), each row byte for byte what
    `step` gives that run alone.
    """
    gens = [step_points(row, config, state) for row, config, state in zip(rows, configs, states)]
    points = [next(gen) for gen in gens]
    new_rows = np.empty_like(rows)
    reports = [None] * len(gens)
    pending = list(range(len(gens)))
    while pending:
        stacked = (points[pending[0]][None, :] if len(pending) == 1
                   else np.stack([points[k] for k in pending]))
        values, grads = network.loss_and_grad_rows(model_spec, stacked, batch)
        still = []
        for i, k in enumerate(pending):
            states[k].grad_evals += 1
            try:
                points[k] = gens[k].send((float(values[i]), grads[i]))
                still.append(k)
            except StopIteration as done:
                new_rows[k], reports[k] = done.value
        pending = still
    return new_rows, reports
