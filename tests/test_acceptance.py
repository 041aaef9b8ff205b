"""End-to-end acceptance checks.

Each test prints one PASS/FAIL verdict line (replayed in the terminal
summary by conftest). The training workload shared by the trend,
ordering, accounting, and determinism checks runs five optimizer suites
on the same noisy two-moons task; it executes once per session and is
reused, except for the determinism check which repeats it verbatim. The
suites come from one `compare_optimizers` call, so each seed's five runs
train in lockstep.
"""

import math
import time

import numpy as np
import pytest

from samlab.data import Dataset
from samlab.harness import (
    DatasetConfig,
    ExperimentConfig,
    ModelConfig,
    compare_optimizers,
    prepare_task,
)
from samlab.network import (
    MlpSpec,
    QuadraticSpec,
    forward,
    loss_and_grad,
    param_count,
)
from samlab.optimizers import (
    OptimizerConfig,
    epsilon_first_order,
    epsilon_gradient_ascent,
)
from samlab.outputs import emit_outputs, run_row
from samlab.probes import (
    ProbeConfig,
    loss_ascent_direction,
    loss_average_direction,
    loss_worst_direction_estimate,
)

# Desk-scale protocol for the trained-model checks. The directional
# claims (sharpness trend across ascent steps, accuracy ordering across
# optimizers) are small effects at this scale, so the protocol and seeds
# are pinned; determinism of the whole stack keeps the result stable.
_COMMON = dict(learning_rate=0.1, momentum=0.9, weight_decay=0.001, rho=0.05)

_OPTIMIZERS = (
    OptimizerConfig(kind="sgd", **_COMMON),
    OptimizerConfig(kind="sam", **_COMMON),
    OptimizerConfig(kind="rand_sam", **_COMMON),
    OptimizerConfig(kind="sam_ga", ga_steps=1, **_COMMON),
    OptimizerConfig(kind="sam_ga", ga_steps=5, **_COMMON),
)

_DATASET = DatasetConfig(generator="two_moons", n=2000, noise_sd=0.25,
                         seed=0, train_fraction=0.25)


def _experiment(optimizer: OptimizerConfig) -> ExperimentConfig:
    return ExperimentConfig(
        dataset=_DATASET,
        model=ModelConfig(kind="mlp", hidden=(32,)),
        optimizer=optimizer,
        epochs=100,
        batch_size=32,
        seeds=(1, 2, 3, 4, 5),
        probe=ProbeConfig(),
        label_noise_fraction=0.1,
    )


def _run_workload(out_dir):
    suites = compare_optimizers(_experiment(_OPTIMIZERS[0]), _OPTIMIZERS)
    emit_outputs(out_dir, suites)
    return suites


@pytest.fixture(scope="session")
def workload(tmp_path_factory):
    out = tmp_path_factory.mktemp("acceptance") / "run1"
    start = time.perf_counter()
    suites = _run_workload(out)
    seconds = time.perf_counter() - start
    for suite in suites:
        assert not suite.failures, suite.failures
    rows = {s.config.optimizer.label: [run_row(s.config, r) for r in s.records] for s in suites}
    return {"suites": suites, "rows": rows, "out": out, "seconds": seconds}


def _mean(rows, key: str) -> float:
    return float(np.mean([row[key] for row in rows]))


def _verdict(record, ok: bool, index: int, name: str, detail: str) -> None:
    record(f"{'PASS' if ok else 'FAIL'} [{index}/9] {name}: {detail}")
    assert ok, f"{name}: {detail}"


def test_gradients_match_central_differences(acceptance_line):
    rng = np.random.default_rng(90217)
    start = time.perf_counter()
    worst = 0.0
    coords = 0
    for _ in range(100):
        depth = int(rng.integers(0, 3))
        spec = MlpSpec(
            in_width=int(rng.integers(2, 5)),
            hidden=tuple(int(rng.integers(2, 7)) for _ in range(depth)),
            out_width=int(rng.integers(2, 4)),
            activation=("relu", "tanh")[int(rng.integers(2))],
            head=("softmax_ce", "mse")[int(rng.integers(2))],
        )
        n = int(rng.integers(1, 6))
        batch = Dataset(rng.standard_normal((n, spec.in_width)),
                        rng.integers(0, spec.out_width, size=n), spec.out_width)
        flat = 0.7 * rng.standard_normal(param_count(spec))
        grad = loss_and_grad(spec, flat, batch).gradient
        h = 1e-6
        for i in range(flat.shape[0]):
            plus = flat.copy()
            plus[i] += h
            minus = flat.copy()
            minus[i] -= h
            fd = (forward(spec, plus, batch) - forward(spec, minus, batch)) / (2 * h)
            tol = max(1e-8, 1e-5 * abs(fd))
            worst = max(worst, abs(grad[i] - fd) / tol)
            coords += 1
    seconds = time.perf_counter() - start
    ok = worst <= 1.0 and seconds < 60.0
    _verdict(acceptance_line, ok, 1, "gradient check",
             f"100 random models, {coords} coordinates vs central differences, "
             f"worst error {worst:.3f}x tolerance, {seconds:.1f}s")


def test_perturbation_norm_and_scale_invariance(acceptance_line):
    rng = np.random.default_rng(41)
    worst_rel = 0.0
    worst_scale = 0.0
    for dim in (1, 2, 3, 17, 257, 1000, 10000):
        gradient = rng.standard_normal(dim)
        for rho in (1e-3, 0.05, 1.0):
            eps = epsilon_first_order(gradient, rho).epsilon
            worst_rel = max(worst_rel, abs(np.linalg.norm(eps) - rho) / rho)
            for scale in (2.0, 3.7, 1e6, 1e-6):
                scaled = epsilon_first_order(scale * gradient, rho).epsilon
                worst_scale = max(worst_scale, float(np.max(np.abs(eps - scaled))))
    ok = worst_rel <= 1e-9 and worst_scale <= 1e-12
    _verdict(acceptance_line, ok, 2, "perturbation norm",
             f"norm off by {worst_rel:.2e} relative (limit 1e-9), "
             f"direction shift under gradient scaling {worst_scale:.2e} (limit 1e-12)")


def test_multistep_reduction_and_recursion_oracle(acceptance_line):
    diag = np.array([1.0, 4.0])
    spec = QuadraticSpec(diag=tuple(diag))
    batch = Dataset(np.zeros((1, 1)), np.zeros(1, dtype=np.int64), 1)

    def fn(w):
        return loss_and_grad(spec, w, batch)

    w0 = np.array([1.0, 1.0])
    single = epsilon_first_order(fn(w0).gradient, 0.2).epsilon
    reduced = epsilon_gradient_ascent(fn, w0, 0.2, 1).epsilon
    worst_reduction = float(np.max(np.abs(single - reduced)))

    worst_oracle = 0.0
    for n in (1, 2, 3, 5):
        w = w0.copy()
        for _ in range(n):
            g = diag * w
            w = w + (0.2 / n) * g / np.linalg.norm(g)
        oracle = w - w0
        got = epsilon_gradient_ascent(fn, w0, 0.2, n).epsilon
        worst_oracle = max(worst_oracle, float(np.max(np.abs(got - oracle))))
    ok = worst_reduction <= 1e-12 and worst_oracle <= 1e-12
    _verdict(acceptance_line, ok, 3, "multi-step reduction",
             f"single-step gap {worst_reduction:.2e}, recursion oracle gap "
             f"{worst_oracle:.2e} over steps 1,2,3,5 (limit 1e-12)")


def test_probe_closed_form_battery(acceptance_line):
    start = time.perf_counter()
    batch = Dataset(np.zeros((1, 1)), np.zeros(1, dtype=np.int64), 1)
    rho = 0.05
    checks = []

    iso = QuadraticSpec(diag=(1.0, 1.0))
    w = np.array([1.0, 0.0])
    closed_max = 0.5 * (np.linalg.norm(w) + rho) ** 2
    checks.append(abs(loss_ascent_direction(iso, w, batch, rho) - closed_max) <= 1e-9)
    est = loss_worst_direction_estimate(iso, w, batch, rho,
                                        restarts=8, inner_steps=20, seed=7)
    checks.append(abs(est - closed_max) <= 1e-9)

    aniso = QuadraticSpec(diag=(1.0, 3.0))
    w2 = np.array([0.3, 0.4])
    g = np.array([1.0, 3.0]) * w2
    step = w2 + rho * g / np.linalg.norm(g)
    closed_asc = 0.5 * float(np.sum(np.array([1.0, 3.0]) * step ** 2))
    checks.append(abs(loss_ascent_direction(aniso, w2, batch, rho) - closed_asc) <= 1e-9)

    mc_ok = True
    for diag, wv, seed in (((1.0, 1.0), (1.0, 0.0), 3),
                           ((0.5, 1.0, 2.0, 3.0, 4.0), (0.2, -0.1, 0.4, 0.0, 0.3), 4)):
        d = np.asarray(diag)
        wa = np.asarray(wv)
        spec = QuadraticSpec(diag=diag)
        sphere = 0.5 * float(np.sum(d * wa ** 2)) + rho ** 2 * float(np.sum(d)) / (2 * len(d))
        for n_samples in (64, 256):
            mean, stderr, _ = loss_average_direction(spec, wa, batch, rho,
                                                     n_samples, seed)
            mc_ok = mc_ok and abs(mean - sphere) <= 4.0 * stderr
    checks.append(mc_ok)

    axis = np.linspace(-rho, rho, 400)
    e1, e2 = np.meshgrid(axis, axis, indexing="ij")
    inside = e1 ** 2 + e2 ** 2 <= rho ** 2
    grid = 0.5 * (1.0 * (w2[0] + e1) ** 2 + 3.0 * (w2[1] + e2) ** 2)
    brute = float(np.max(grid[inside]))
    est2 = loss_worst_direction_estimate(aniso, w2, batch, rho,
                                         restarts=8, inner_steps=20, seed=7)
    checks.append(abs(est2 - brute) <= 1e-3)

    seconds = time.perf_counter() - start
    ok = all(checks) and seconds < 60.0
    _verdict(acceptance_line, ok, 4, "probe oracles",
             f"closed-form ascent/max, sphere-average Monte Carlo, 400x400 "
             f"brute-force grid all within tolerance, {seconds:.1f}s")


def test_probe_ordering_invariant(workload, acceptance_line):
    checked = 0
    ok = True
    for suite in workload["suites"]:
        for record in suite.records:
            rep = record.report
            ok = ok and rep.l_max_estimate >= rep.l_asc - 1e-9
            ok = ok and rep.l_max_estimate >= rep.l_avg_mean - 3.0 * rep.l_avg_stderr
            checked += 1
    _verdict(acceptance_line, ok and checked == 25, 5, "probe ordering",
             f"worst-direction estimate dominates ascent and average probes "
             f"on all {checked} trained checkpoints")


def test_sharpness_trend_over_ascent_steps(workload, acceptance_line):
    s1 = _mean(workload["rows"]["sam_ga1"], "standardized_sharpness_x1e3")
    s5 = _mean(workload["rows"]["sam_ga5"], "standardized_sharpness_x1e3")
    a1 = _mean(workload["rows"]["sam_ga1"], "test_accuracy")
    a5 = _mean(workload["rows"]["sam_ga5"], "test_accuracy")
    ok = s1 <= s5 and abs(a1 - a5) < 0.02 and workload["seconds"] < 900.0
    _verdict(acceptance_line, ok, 6, "sharpness trend",
             f"mean standardized sharpness x1e3: 1-step {s1:.4f} <= 5-step "
             f"{s5:.4f}; accuracy gap {100 * abs(a1 - a5):.2f}pp (limit 2pp); "
             f"workload {workload['seconds']:.0f}s")


def test_optimizer_accuracy_ordering(workload, acceptance_line):
    sgd = _mean(workload["rows"]["sgd"], "test_accuracy")
    sam = _mean(workload["rows"]["sam"], "test_accuracy")
    rand = _mean(workload["rows"]["rand_sam"], "test_accuracy")
    ok = rand >= sgd and sam >= sgd and workload["seconds"] < 900.0
    _verdict(acceptance_line, ok, 7, "accuracy ordering",
             f"mean test accuracy: sgd {sgd:.4f} <= rand_sam {rand:.4f}, "
             f"sgd <= sam {sam:.4f}; workload {workload['seconds']:.0f}s")


def test_gradient_evaluation_accounting(workload, acceptance_line):
    config = _experiment(_OPTIMIZERS[0])
    n_train = prepare_task(config).train.features.shape[0]
    batches = math.ceil(n_train / config.batch_size) * config.epochs
    multiplier = {"sgd": 1, "sam": 2, "rand_sam": 2, "sam_ga1": 2, "sam_ga5": 6}
    ok = True
    for label, rows in workload["rows"].items():
        expected = batches * multiplier[label]
        ok = ok and all(row["grad_evals"] == expected for row in rows)
    _verdict(acceptance_line, ok, 8, "gradient-eval accounting",
             f"exact counts over {batches} batches per run: "
             + ", ".join(f"{k} {batches * v}" for k, v in multiplier.items()))


def test_repeat_run_byte_determinism(workload, tmp_path_factory, acceptance_line):
    out2 = tmp_path_factory.mktemp("acceptance") / "run2"
    _run_workload(out2)
    out1 = workload["out"]

    summary_same = (out1 / "summary.csv").read_bytes() == (out2 / "summary.csv").read_bytes()
    json_same = (out1 / "summary.json").read_bytes() == (out2 / "summary.json").read_bytes()

    # wall_seconds (the last column) is measured time; every other byte of
    # runs.csv must be identical between invocations.
    runs1 = (out1 / "runs.csv").read_text().splitlines()
    runs2 = (out2 / "runs.csv").read_text().splitlines()
    header_ok = runs1 and runs1[0].endswith(",wall_seconds")
    stripped1 = [line.rsplit(",", 1)[0] for line in runs1]
    stripped2 = [line.rsplit(",", 1)[0] for line in runs2]
    runs_same = len(runs1) == len(runs2) and stripped1 == stripped2

    ckpt1 = sorted((out1 / "checkpoints").glob("*.ckpt"))
    ckpt2 = sorted((out2 / "checkpoints").glob("*.ckpt"))
    ckpt_same = [p.name for p in ckpt1] == [p.name for p in ckpt2] and all(
        a.read_bytes() == b.read_bytes() for a, b in zip(ckpt1, ckpt2))

    ok = summary_same and json_same and bool(header_ok) and runs_same and ckpt_same
    _verdict(acceptance_line, ok, 9, "byte determinism",
             f"repeat run: summary.csv identical {summary_same}, summary.json "
             f"identical {json_same}, runs.csv identical outside wall_seconds "
             f"{runs_same}, {len(ckpt1)} checkpoints identical {ckpt_same}")
