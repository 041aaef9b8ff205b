import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from samlab import network, optimizers
from samlab.data import Dataset, gen_two_moons
from samlab.errors import ConfigError
from samlab.network import QuadraticSpec, MlpSpec
from samlab.optimizers import (
    OptimizerConfig, epsilon_first_order, epsilon_gradient_ascent, epsilon_random,
    init_state, step,
)


def quad_fn(diag):
    """loss_and_grad closure for L(w) = 0.5 * sum(diag * w^2)."""
    d = np.asarray(diag, dtype=np.float64)

    def fn(w):
        w = np.asarray(w, dtype=np.float64)
        return 0.5 * float(np.sum(d * w * w)), d * w

    return fn


# --- first-order perturbation --------------------------------------------

def test_first_order_known_values():
    p = epsilon_first_order(np.array([3.0, 4.0]), 0.05)
    np.testing.assert_allclose(p.epsilon, [0.03, 0.04], rtol=1e-12)
    assert not p.zero_gradient

    e1 = np.zeros(5); e1[0] = 1.0
    p = epsilon_first_order(e1, 0.1)
    np.testing.assert_allclose(p.epsilon, 0.1 * e1, rtol=1e-12)


def test_first_order_zero_gradient_fallback():
    p = epsilon_first_order(np.zeros(4), 0.05)
    assert p.zero_gradient
    np.testing.assert_array_equal(p.epsilon, np.zeros(4))
    assert p.norm == 0.0


def test_first_order_direction_invariant_to_positive_scaling():
    g = np.random.default_rng(0).standard_normal(20)
    base = epsilon_first_order(g, 0.05).epsilon
    for alpha in (1e-6, 0.5, 3.0, 1e6):
        scaled = epsilon_first_order(alpha * g, 0.05).epsilon
        np.testing.assert_allclose(scaled, base, rtol=1e-9)


@settings(max_examples=60, deadline=None)
@given(dim=st.integers(1, 10_000), rho=st.sampled_from([1e-3, 0.05, 1.0]),
       seed=st.integers(0, 2**32 - 1))
def test_first_order_norm_property(dim, rho, seed):
    g = np.random.default_rng(seed).standard_normal(dim)
    p = epsilon_first_order(g, rho)
    assert abs(p.norm - rho) <= 1e-9 * rho


# --- gradient-ascent perturbation -----------------------------------------

def test_ga_one_step_equals_first_order():
    fn = quad_fn([1.0, 4.0])
    w = np.array([1.0, 1.0])
    _, g = fn(w)
    direct = epsilon_first_order(g, 0.2)
    ga = epsilon_gradient_ascent(fn, w, 0.2, 1)
    np.testing.assert_allclose(ga.epsilon, direct.epsilon, atol=1e-12)
    assert not ga.zero_gradient


def test_ga_linear_loss_collinear_steps():
    c = np.array([2.0, -1.0, 0.5])

    def fn(w):
        return float(c @ w), c.copy()

    for n in (1, 2, 5):
        p = epsilon_gradient_ascent(fn, np.zeros(3), 0.3, n)
        np.testing.assert_allclose(p.epsilon, 0.3 * c / np.linalg.norm(c), atol=1e-12)


def test_ga_matches_direct_recursion_oracle():
    """Independent re-derivation of the N-step recursion on 0.5*(x^2 + 4 y^2)."""
    diag = np.array([1.0, 4.0])
    fn = quad_fn(diag)
    w0 = np.array([1.0, 1.0])
    rho = 0.2
    for n in (1, 2, 3, 5):
        w = w0.copy()
        for _ in range(n):
            g = diag * w
            w = w + (rho / n) * g / np.linalg.norm(g)
        expected = w - w0
        got = epsilon_gradient_ascent(fn, w0, rho, n)
        np.testing.assert_allclose(got.epsilon, expected, atol=1e-12)
        assert not got.zero_gradient
        assert got.norm <= rho + 1e-9


def test_ga_loss_nondecreasing_on_pd_quadratic():
    diag = np.array([0.5, 2.0, 7.0])
    seen = []

    def fn(w):
        value = 0.5 * float(np.sum(diag * np.asarray(w) ** 2))
        seen.append(value)
        return value, diag * np.asarray(w)

    w0 = np.array([1.0, -1.0, 0.5])
    p = epsilon_gradient_ascent(fn, w0, 0.3, 5)
    final = 0.5 * float(np.sum(diag * (w0 + p.epsilon) ** 2))
    trajectory = seen + [final]
    for a, b in zip(trajectory, trajectory[1:]):
        assert b >= a - 1e-12


def test_ga_zero_gradient_early_stop():
    calls = []

    def fn(w):
        calls.append(1)
        return 1.0, np.zeros(2)

    p = epsilon_gradient_ascent(fn, np.ones(2), 0.1, 3)
    assert p.zero_gradient
    np.testing.assert_array_equal(p.epsilon, np.zeros(2))
    assert len(calls) == 1


def test_ga_norm_never_exceeds_rho():
    rng = np.random.default_rng(12)
    for trial in range(10):
        diag = rng.uniform(0.1, 5.0, size=4)
        fn = quad_fn(diag)
        w = rng.standard_normal(4)
        p = epsilon_gradient_ascent(fn, w, 0.15, int(rng.integers(1, 8)))
        assert p.norm <= 0.15 + 1e-9


# --- random perturbation ---------------------------------------------------

def test_random_norm_equals_rho():
    rng = np.random.default_rng(3)
    for dim in (1, 2, 50):
        p = epsilon_random(dim, 0.05, rng)
        assert p.norm == pytest.approx(0.05, rel=1e-9)


def test_random_one_dim_is_plus_minus_rho():
    rng = np.random.default_rng(0)
    values = {round(float(epsilon_random(1, 0.05, rng).epsilon[0]), 6)
              for _ in range(20)}
    assert values <= {0.05, -0.05}
    assert len(values) == 2


def test_random_mean_concentrates():
    rng = np.random.default_rng(9)
    draws = np.stack([epsilon_random(16, 0.05, rng).epsilon for _ in range(10_000)])
    assert np.linalg.norm(draws.mean(axis=0)) < 0.0025
    # per-coordinate means of the unit directions stay near zero
    unit_means = np.abs(draws.mean(axis=0)) / 0.05
    assert np.all(unit_means < 4.0 / np.sqrt(10_000))


# --- sgd step ---------------------------------------------------------------

def test_sgd_plain_update():
    spec = QuadraticSpec(diag=(1.0, 0.0))
    # gradient at w=(1,1) is (1,0)
    cfg = OptimizerConfig(kind="sgd", learning_rate=0.1)
    state = init_state(cfg, 2)
    batch = gen_two_moons(4, 0.1, 0)
    new, report = step(spec, np.array([1.0, 1.0]), batch, cfg, state)
    np.testing.assert_allclose(new, [0.9, 1.0], rtol=1e-12)
    assert report.grad_evals == 1
    assert report.perturbed_loss is None


def test_sgd_momentum_doubles_second_step():
    # constant gradient via linear-ish quadratic far from optimum: use diag=0 trick
    # instead, drive a pure quadratic twice and check buffer algebra directly
    spec = QuadraticSpec(diag=(1.0,))
    cfg = OptimizerConfig(kind="sgd", learning_rate=0.01, momentum=0.9)
    state = init_state(cfg, 1)
    batch = gen_two_moons(4, 0.1, 0)
    w0 = np.array([1.0])
    w1, _ = step(spec, w0, batch, cfg, state)
    move1 = w1 - w0
    # second gradient at w1 is w1; buffer = 0.9*w0 + w1; step = -lr*buffer
    w2, _ = step(spec, w1, batch, cfg, state)
    expected = w1 - 0.01 * (0.9 * w0 + w1)
    np.testing.assert_allclose(w2, expected, rtol=1e-12)
    # with identical gradients the second move would be 1.9x the first
    assert move1[0] == pytest.approx(-0.01, rel=1e-12)


def test_sgd_weight_decay_decoupled():
    spec = QuadraticSpec(diag=(1.0, 1.0))
    cfg = OptimizerConfig(kind="sgd", learning_rate=0.1, weight_decay=0.01)
    state = init_state(cfg, 2)
    batch = gen_two_moons(4, 0.1, 0)
    w = np.array([1.0, -2.0])
    new, _ = step(spec, w, batch, cfg, state)
    expected = w - 0.1 * (w + 0.01 * w)
    np.testing.assert_allclose(new, expected, rtol=1e-12)


# --- sam step ----------------------------------------------------------------

def test_sam_step_hand_computed_quadratic():
    """L = 0.5||w||^2 at w=(1,0): eps=(0.05,0), g'=(1.05,0), w'=(0.895,0)."""
    spec = QuadraticSpec(diag=(1.0, 1.0))
    cfg = OptimizerConfig(kind="sam", learning_rate=0.1, rho=0.05)
    state = init_state(cfg, 2)
    batch = gen_two_moons(4, 0.1, 0)
    new, report = step(spec, np.array([1.0, 0.0]), batch, cfg, state)
    np.testing.assert_allclose(new, [0.895, 0.0], atol=1e-12)
    assert report.loss == pytest.approx(0.5, rel=1e-12)
    assert report.perturbed_loss == pytest.approx(0.5 * 1.05**2, rel=1e-12)
    assert report.epsilon_norm == pytest.approx(0.05, rel=1e-12)
    assert report.grad_evals == 2


def test_sam_updates_original_w_not_perturbed():
    spec = QuadraticSpec(diag=(1.0, 1.0))
    cfg = OptimizerConfig(kind="sam", learning_rate=0.1, rho=0.05)
    state = init_state(cfg, 2)
    batch = gen_two_moons(4, 0.1, 0)
    w = np.array([2.0, 0.0])
    new, _ = step(spec, w, batch, cfg, state)
    # descending from w+eps instead would give (2.05 - 0.205) = 1.845
    np.testing.assert_allclose(new, [2.0 - 0.1 * 2.05, 0.0], atol=1e-12)


def test_rand_sam_tiny_rho_equals_sgd():
    spec = MlpSpec(in_width=2, hidden=(6,), out_width=2)
    params = network.init_params(spec, np.random.default_rng(2)).data
    batch = gen_two_moons(16, 0.15, 5)

    sgd_cfg = OptimizerConfig(kind="sgd", learning_rate=0.1, momentum=0.9)
    sam_cfg = OptimizerConfig(kind="rand_sam", learning_rate=0.1, momentum=0.9, rho=1e-12)
    sgd_state = init_state(sgd_cfg, len(params))
    sam_state = init_state(sam_cfg, len(params), direction_seed=77)
    a, _ = step(spec, params.copy(), batch, sgd_cfg, sgd_state)
    b, _ = step(spec, params.copy(), batch, sam_cfg, sam_state)
    np.testing.assert_allclose(a, b, atol=1e-9)


def test_ga_sam_step_matches_straight_line_trace():
    """Independent trace of ascend-then-descend for GA(3) on 0.5*(x^2+4y^2)."""
    diag = np.array([1.0, 4.0])
    spec = QuadraticSpec(diag=tuple(diag))
    cfg = OptimizerConfig(kind="sam_ga", learning_rate=0.05, rho=0.2, ga_steps=3)
    state = init_state(cfg, 2)
    batch = gen_two_moons(4, 0.1, 0)
    w0 = np.array([1.0, 1.0])

    w = w0.copy()
    for _ in range(3):
        g = diag * w
        w = w + (0.2 / 3) * g / np.linalg.norm(g)
    g_prime = diag * w
    expected = w0 - 0.05 * g_prime

    new, report = step(spec, w0, batch, cfg, state)
    np.testing.assert_allclose(new, expected, atol=1e-12)
    assert report.grad_evals == 4  # 3 ascent evals + 1 at the perturbed point


def test_sam_zero_gradient_degrades_to_sgd():
    spec = QuadraticSpec(diag=(0.0, 0.0), offset=2.0)
    cfg = OptimizerConfig(kind="sam", learning_rate=0.1, rho=0.05)
    state = init_state(cfg, 2)
    batch = gen_two_moons(4, 0.1, 0)
    w = np.array([1.0, 1.0])
    new, report = step(spec, w, batch, cfg, state)
    assert report.zero_gradient
    np.testing.assert_array_equal(new, w)  # zero gradient, zero movement


def test_rand_sam_deterministic_given_seed():
    spec = MlpSpec(in_width=2, hidden=(4,), out_width=2)
    params = network.init_params(spec, np.random.default_rng(1)).data
    batch = gen_two_moons(8, 0.15, 5)
    cfg = OptimizerConfig(kind="rand_sam", learning_rate=0.1, rho=0.05)

    def run():
        state = init_state(cfg, len(params), direction_seed=123)
        w = params.copy()
        for _ in range(3):
            w, _ = step(spec, w, batch, cfg, state)
        return w

    np.testing.assert_array_equal(run(), run())


def test_rand_sam_fresh_direction_each_step():
    spec = QuadraticSpec(diag=(1.0, 1.0))
    cfg = OptimizerConfig(kind="rand_sam", learning_rate=0.0001, rho=0.05)
    state = init_state(cfg, 2, direction_seed=3)
    batch = gen_two_moons(4, 0.1, 0)
    w = np.array([1.0, 1.0])
    reports = []
    for _ in range(2):
        w, rep = step(spec, w, batch, cfg, state)
        reports.append(rep)
    # same w (lr tiny) but different random eps -> different perturbed losses
    assert reports[0].perturbed_loss != reports[1].perturbed_loss


# --- lockstep steps ----------------------------------------------------------

def _lockstep_case():
    """Six runs on one balanced batch; rows 1 and 3 are all-zero params, whose
    gradient there is (numerically) zero: every hidden unit outputs 0 and the
    two classes' bias gradients cancel."""
    spec = MlpSpec(in_width=2, hidden=(6,), out_width=2)
    rng = np.random.default_rng(4)
    features = rng.standard_normal((8, 2))
    batch = Dataset(features, np.array([0, 1] * 4), 2)
    common = dict(learning_rate=0.1, momentum=0.9, rho=0.05)
    configs = [OptimizerConfig(kind="sam", **common), OptimizerConfig(kind="sam", **common),
               OptimizerConfig(kind="sam_ga", ga_steps=3, **common),
               OptimizerConfig(kind="sam_ga", ga_steps=3, **common),
               OptimizerConfig(kind="sgd", **common), OptimizerConfig(kind="rand_sam", **common)]
    rows = np.stack([network.init_params(spec, rng).data for _ in configs])
    rows[[1, 3]] = 0.0
    return spec, batch, configs, rows


def _states(configs, size):
    return [init_state(cfg, size, direction_seed=11 + k) for k, cfg in enumerate(configs)]


def test_step_rows_flat_row_masks_only_that_row():
    spec, batch, configs, rows = _lockstep_case()
    alone_states = _states(configs, rows.shape[1])
    lock_states = _states(configs, rows.shape[1])
    alone, lock = rows.copy(), rows.copy()
    for _ in range(3):
        results = [optimizers.step(spec, row, batch, cfg, state)
                   for row, cfg, state in zip(alone, configs, alone_states)]
        alone = np.stack([new for new, _ in results])
        lock, reports = optimizers.step_rows(spec, lock, batch, configs, lock_states)
        assert lock.tobytes() == alone.tobytes()
        assert reports == [report for _, report in results]
        assert [r.zero_gradient for r in reports] == [False, True, False, True, False, False]
        # The flat sam_ga row stops its ascent at its first iterate.
        assert [r.grad_evals for r in reports] == [2, 2, 4, 2, 1, 2]
    assert [s.momentum_buffer.tobytes() for s in lock_states] == \
        [s.momentum_buffer.tobytes() for s in alone_states]


def test_step_rows_keeps_each_direction_stream():
    spec, batch, _, rows = _lockstep_case()
    configs = [OptimizerConfig(kind="rand_sam", learning_rate=0.1, rho=0.05)] * 2
    states = _states(configs, rows.shape[1])
    stepped, reports = optimizers.step_rows(spec, rows[[0, 0]], batch, configs, states)
    alone = optimizers.step(spec, rows[0], batch, configs[1], _states(configs, rows.shape[1])[1])
    # Same params, own seeds: the second row is the second stream's step.
    assert stepped[1].tobytes() == alone[0].tobytes()
    assert stepped[0].tobytes() != stepped[1].tobytes()


def test_lockstep_answers_a_lone_point_as_a_stack_of_one(monkeypatch):
    spec, batch, configs, rows = _lockstep_case()
    shapes = []
    loss_and_grad = network.loss_and_grad

    def shaped(spec, params, batch):
        shapes.append(params.shape)
        return loss_and_grad(spec, params, batch)
    monkeypatch.setattr(network, "loss_and_grad", shaped)
    optimizers.step_rows(spec, rows[[2, 4]], batch, [configs[2], configs[4]],
                         _states([configs[2], configs[4]], rows.shape[1]))
    # sgd leaves after the first round; sam_ga3's last two ascent points and
    # its perturbed point are answered alone.
    assert shapes == [(2, rows.shape[1])] + [(1, rows.shape[1])] * 3


@pytest.mark.parametrize("k", [1, 2, 3])
def test_lockstep_keeps_at_most_rows_per_call_generators_live(k, force_rows_per_call):
    spec, batch, _, rows = _lockstep_case()
    force_rows_per_call(spec, batch, k)
    live, seen = set(), []

    def points(i):
        live.add(i)
        seen.append(len(live))
        for _ in range(1 + i % 3):
            yield rows[i % len(rows)]
        live.discard(i)
        return i

    assert optimizers.lockstep(spec, batch, [points(i) for i in range(7)]) == list(range(7))
    assert max(seen) == k


# None: the budget as it is, which stacks every point of this batch.
@pytest.mark.parametrize("width", [None, 1, 2])
def test_lockstep_generator_that_returns_before_yielding_keeps_its_slot(width,
                                                                        force_rows_per_call):
    spec, batch, _, rows = _lockstep_case()
    if width is not None:
        force_rows_per_call(spec, batch, width)

    def no_point(value):
        return value
        yield  # unreachable: makes this a generator function

    def one_point(k):
        value, _ = yield rows[k]
        return value

    results = optimizers.lockstep(
        spec, batch, [no_point("a"), one_point(0), no_point("b"), one_point(2)])
    assert results == ["a", network.loss_and_grad(spec, rows[0], batch).value,
                       "b", network.loss_and_grad(spec, rows[2], batch).value]


def test_step_rows_of_one_row_is_step():
    spec, batch, configs, rows = _lockstep_case()
    for k, cfg in enumerate(configs):
        alone_state = _states(configs, rows.shape[1])[k]
        row_state = _states(configs, rows.shape[1])[k]
        alone, row = rows[k], rows[[k]]
        for _ in range(2):
            alone, report = optimizers.step(spec, alone, batch, cfg, alone_state)
            row, reports = optimizers.step_rows(spec, row, batch, [cfg], [row_state])
            assert row.shape == (1, rows.shape[1])
            assert row[0].tobytes() == alone.tobytes()
            assert reports == [report]
        assert row_state.momentum_buffer.tobytes() == alone_state.momentum_buffer.tobytes()


@pytest.mark.parametrize("k, n_points", [(4, 1), (0, 2), (5, 2), (2, 4)],
                         ids=["sgd", "sam", "rand_sam", "sam_ga3"])
def test_step_points_yields_each_evaluated_point(k, n_points):
    spec, batch, configs, rows = _lockstep_case()
    state = _states(configs, rows.shape[1])[k]
    points = optimizers.step_points(rows[k], configs[k], state)
    seen = []
    point = next(points)
    try:
        while True:
            seen.append(point.copy())
            point = points.send(network.loss_and_grad(spec, point, batch))
    except StopIteration as done:
        new, report = done.value
    assert len(seen) == report.grad_evals == n_points
    assert seen[0].tobytes() == rows[k].tobytes()
    alone_state = _states(configs, rows.shape[1])[k]
    alone = optimizers.step(spec, rows[k], batch, configs[k], alone_state)
    assert new.tobytes() == alone[0].tobytes()
    assert report == alone[1]
    assert state.momentum_buffer.tobytes() == alone_state.momentum_buffer.tobytes()


# --- config validation -------------------------------------------------------

def test_config_validation():
    with pytest.raises(ConfigError):
        OptimizerConfig(kind="adam", learning_rate=0.1)
    with pytest.raises(ConfigError):
        OptimizerConfig(kind="sgd", learning_rate=-1.0)
    with pytest.raises(ConfigError):
        OptimizerConfig(kind="sgd", learning_rate=0.1, momentum=1.0)
    with pytest.raises(ConfigError):
        OptimizerConfig(kind="sam", learning_rate=0.1, rho=0.0)
    with pytest.raises(ConfigError):
        OptimizerConfig(kind="sam_ga", learning_rate=0.1, ga_steps=0)
    with pytest.raises(ConfigError):
        init_state(OptimizerConfig(kind="rand_sam", learning_rate=0.1), 4)


def test_epsilon_argument_validation():
    with pytest.raises(ValueError):
        epsilon_first_order(np.ones(2), 0.0)
    with pytest.raises(ValueError):
        epsilon_gradient_ascent(quad_fn([1.0]), np.ones(1), 0.1, 0)
    with pytest.raises(ValueError):
        epsilon_random(3, -0.1, np.random.default_rng(0))
