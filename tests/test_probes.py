import math

import numpy as np
import pytest

from samlab import network, optimizers, probes
from samlab.data import Dataset, gen_two_moons
from samlab.network import MlpSpec, QuadraticSpec
from samlab.optimizers import epsilon_first_order, epsilon_gradient_ascent, ZERO_GRAD_EPS
from samlab.vecops import sample_unit_direction
from samlab.probes import (
    ProbeConfig, build_report, generalization_gap, loss_ascent_direction,
    loss_average_direction, loss_plane_slice, loss_worst_direction_estimate,
)

BATCH = gen_two_moons(8, 0.1, 0)  # quadratics ignore it


def sphere_average(diag, w, rho, offset=0.0):
    """Closed form E[L(w + rho*u)] for L = offset + 0.5 sum(diag w^2).

    Cross term vanishes (E[u]=0); E[u_i^2] = 1/d on the unit sphere.
    """
    diag = np.asarray(diag, float)
    w = np.asarray(w, float)
    base = offset + 0.5 * float(np.sum(diag * w * w))
    return base + rho**2 * float(np.sum(diag)) / (2 * len(w))


def test_ascent_direction_isotropic_closed_form():
    spec = QuadraticSpec(diag=(1.0, 1.0))
    value = loss_ascent_direction(spec, np.array([1.0, 0.0]), BATCH, 0.05)
    assert value == pytest.approx(0.5 * 1.05**2, rel=1e-12)  # 0.55125


def test_ascent_direction_constant_loss_returns_base():
    spec = QuadraticSpec(diag=(0.0, 0.0), offset=1.25)
    value = loss_ascent_direction(spec, np.array([3.0, -1.0]), BATCH, 0.05)
    assert value == 1.25


def test_ascent_direction_rho_continuity():
    spec = QuadraticSpec(diag=(2.0, 3.0))
    w = np.array([0.4, -0.7])
    base = network.forward(spec, w, BATCH)
    assert abs(loss_ascent_direction(spec, w, BATCH, 1e-12) - base) < 1e-9


def test_ascent_direction_general_quadratic():
    # eps = rho * Aw/|Aw|; direct evaluation cross-check
    diag = np.array([1.0, 3.0])
    spec = QuadraticSpec(diag=tuple(diag))
    w = np.array([0.3, 0.4])
    g = diag * w
    eps = 0.05 * g / np.linalg.norm(g)
    expected = 0.5 * float(np.sum(diag * (w + eps) ** 2))
    assert loss_ascent_direction(spec, w, BATCH, 0.05) == pytest.approx(expected, rel=1e-12)


def test_average_direction_matches_sphere_closed_form():
    diag = (1.0, 1.0)
    spec = QuadraticSpec(diag=diag)
    w = np.array([0.6, -0.2])
    mean, stderr, n = loss_average_direction(spec, w, BATCH, 0.3, 256, seed=5)
    assert n == 256
    truth = sphere_average(diag, w, 0.3)
    assert abs(mean - truth) <= 4 * stderr


def test_average_direction_anisotropic_sphere_oracle():
    diag = (0.5, 2.0, 4.5)
    spec = QuadraticSpec(diag=diag)
    w = np.array([0.1, 0.2, -0.3])
    mean, stderr, _ = loss_average_direction(spec, w, BATCH, 0.2, 512, seed=8)
    truth = sphere_average(diag, w, 0.2)
    assert abs(mean - truth) <= 4 * stderr


def test_average_direction_constant_loss():
    spec = QuadraticSpec(diag=(0.0, 0.0), offset=2.0)
    mean, stderr, _ = loss_average_direction(spec, np.ones(2), BATCH, 0.1, 16, seed=1)
    assert mean == 2.0
    assert stderr == 0.0


def test_average_direction_deterministic_per_seed():
    spec = QuadraticSpec(diag=(1.0, 2.0))
    a = loss_average_direction(spec, np.ones(2), BATCH, 0.1, 2, seed=42)
    b = loss_average_direction(spec, np.ones(2), BATCH, 0.1, 2, seed=42)
    assert a == b


def test_worst_direction_isotropic_closed_form():
    # max over ||e|| <= rho of 0.5||w+e||^2 = 0.5(||w||+rho)^2
    spec = QuadraticSpec(diag=(1.0, 1.0))
    est = loss_worst_direction_estimate(spec, np.array([1.0, 0.0]), BATCH, 0.05,
                                        restarts=4, inner_steps=20, seed=0)
    assert est == pytest.approx(0.55125, abs=1e-9)


def test_worst_direction_constant_loss():
    spec = QuadraticSpec(diag=(0.0, 0.0), offset=0.75)
    est = loss_worst_direction_estimate(spec, np.ones(2), BATCH, 0.1,
                                        restarts=2, inner_steps=5, seed=0)
    assert est == 0.75


def bound_cases(family, n):
    """n seeded (spec, params, batch, rho) cases of one family: quadratic
    bowls, isotropic or not, at short-decimal points, or small MLPs."""
    rng = np.random.default_rng(len(family))
    for i in range(n):
        if family == "mlp":
            spec = MlpSpec(2, (int(rng.integers(2, 6)),), 2, network.ACTIVATIONS[i % 2],
                           network.HEADS[i // 2 % 2])
            yield (spec, network.init_params(spec, rng).data, gen_two_moons(16, 0.2, i),
                   float(rng.choice([0.05, 0.1, 0.5, 1.0])))
            continue
        dim = int(rng.integers(1, 6))
        diag = ((float(rng.choice([0.5, 1.0, 2.0, 3.0])),) * dim if family == "isotropic"
                else tuple(rng.uniform(-2.0, 4.0, dim).tolist()))
        yield (QuadraticSpec(diag), rng.uniform(-1.0, 1.0, dim).round(int(rng.integers(1, 4))),
               BATCH, float(rng.choice([0.05, 0.1, 0.3, 0.5, 0.9, 1.0, 2.0])))


@pytest.mark.parametrize("family, n", [("isotropic", 400), ("anisotropic", 400), ("mlp", 100)])
def test_worst_direction_estimate_is_at_least_base_and_ascent_losses(family, n):
    """The estimate holds the base loss and the first-order point's loss
    exactly, not up to a rounding step."""
    below = []
    for seed, (spec, params, batch, rho) in enumerate(bound_cases(family, n)):
        cfg = ProbeConfig(rho=rho, restarts=2, inner_steps=3, n_samples=2)
        report = build_report(spec, params, batch, cfg, seed=seed)
        if report.l_max_estimate < max(report.base_loss, report.l_asc):
            below.append((seed, report.l_max_estimate, report.base_loss, report.l_asc))
    assert below == []


def exact_worst_loss(spec: QuadraticSpec, w, rho: float) -> float:
    """max over ||e|| <= rho of `spec`'s loss at w + e, for a bowl whose every
    diag entry d_i is >= 0: a trust-region problem solved up to one scalar.

    The loss is convex, so the maximum lies on the sphere ||e|| = rho, at e_i
    = d_i w_i / (lam - d_i) for the lam > max(d) where ||e(lam)|| = rho.
    There ||e(lam)|| falls monotonically, so bisection finds lam to the last
    bit; the loss is taken at its last lam with ||e|| >= rho, an upper bound
    to rounding. In the hard case w has no part along the top d_i, and the
    other coordinates at lam = max(d) fall short of rho: the rest of the
    radius then goes along a top axis, where every direction gives the same
    loss (More & Sorensen 1983, "Computing a trust region step").
    """
    d, w = np.asarray(spec.diag), np.asarray(w, dtype=np.float64)

    def loss(e):
        return spec.offset + 0.5 * float(np.sum(d * (w + e) ** 2))

    top = d.max()
    if top == 0.0:
        return spec.offset
    axis = d == top
    if not w[axis].any():
        e = np.zeros_like(w)
        e[~axis] = d[~axis] * w[~axis] / (top - d[~axis])
        short = rho * rho - float(e @ e)
        if short >= 0.0:
            e[np.flatnonzero(axis)[0]] = math.sqrt(short)
            return loss(e)
    # ||e(lam)|| <= top ||w|| / (lam - top), so ||e(hi)|| <= rho.
    lo, hi = top, top + top * float(np.linalg.norm(w)) / rho
    while lo < (mid := 0.5 * (lo + hi)) < hi:
        e = d * w / (mid - d)
        if float(e @ e) >= rho * rho:
            lo = mid
        else:
            hi = mid
    return loss(d * w / (lo - d)) if lo > top else loss(d * w / (hi - d))


def trust_region_cases(n: int, isotropic: bool):
    """n seeded (spec, w, rho) bowls with every diag entry >= 0: dimension
    2-39, condition numbers up to 1,000 (some flat axes among them), rho
    0.01-1, and w with no part along the top curvature in every fourth."""
    rng = np.random.default_rng(31 if isotropic else 32)
    for i in range(n):
        dim = int(rng.integers(2, 40))
        if isotropic:
            diag = np.full(dim, float(rng.choice([0.5, 1.0, 3.0])))
        else:
            diag = 10.0 ** rng.uniform(-3.0, 0.0, dim) * float(rng.choice([1.0, 4.0]))
            if i % 4 == 1:
                diag[rng.random(dim) < 0.3] = 0.0
        w = rng.standard_normal(dim) * float(rng.choice([0.05, 0.3, 1.0]))
        if i % 4 == 3 and not isotropic:
            w[diag == diag.max()] = 0.0
        yield (QuadraticSpec(tuple(diag.tolist()), float(rng.choice([0.0, 0.25]))), w,
               float(10.0 ** rng.uniform(-2.0, 0.0)))


def test_exact_worst_loss_is_the_maximum_over_a_fine_circle():
    """On 2-D bowls, the hard case among them, the trust-region oracle is
    the largest loss on a 200,000-point grid of the circle ||e|| = rho, up
    to the grid's spacing, and never below it."""
    rng = np.random.default_rng(5)
    theta = np.linspace(0.0, 2.0 * np.pi, 200_000, endpoint=False)
    circle = np.stack([np.cos(theta), np.sin(theta)], axis=1)
    cases = [(QuadraticSpec((1.0, 2.0)), np.array([0.3, 0.0]), 1.0),  # hard: 1.09
             (QuadraticSpec((0.0, 0.0), 0.5), np.array([0.3, -0.2]), 0.4)]
    for _ in range(60):
        diag = rng.uniform(0.0, 3.0, 2)
        w = rng.standard_normal(2) * rng.choice([0.1, 1.0])
        if rng.random() < 0.3:
            w[np.argmax(diag)] = 0.0
        cases.append((QuadraticSpec(tuple(diag.tolist())), w, float(rng.uniform(0.05, 1.5))))
    for spec, w, rho in cases:
        exact = exact_worst_loss(spec, w, rho)
        grid = spec.offset + 0.5 * np.max(np.sum(np.asarray(spec.diag) * (w + rho * circle) ** 2,
                                                 axis=1))
        assert grid - 1e-12 <= exact <= grid + 1e-8, (spec, w, rho)
    assert exact_worst_loss(*cases[0]) == pytest.approx(1.09, rel=1e-15)


@pytest.mark.parametrize("isotropic", [False, True], ids=["anisotropic", "isotropic"])
def test_worst_direction_estimate_is_at_most_the_exact_maximum(isotropic):
    """The estimate at the probe defaults never exceeds the exact maximum
    over the ball (a relative 1e-12 covers the rounding of a sum of at most
    39 terms and of a point put back on the sphere, both near 1e-15). On an
    isotropic bowl the first-order start is the maximiser, so the two agree
    to that rounding; on an anisotropic one the estimate may fall short."""
    cfg = ProbeConfig()
    short = []
    for seed, (spec, w, rho) in enumerate(trust_region_cases(120, isotropic)):
        exact = exact_worst_loss(spec, w, rho)
        estimate = loss_worst_direction_estimate(spec, w, BATCH, rho, cfg.restarts,
                                                 cfg.inner_steps, seed)
        assert estimate <= exact + 1e-12 * abs(exact), (seed, estimate, exact)
        if isotropic:
            assert estimate >= exact - 1e-12 * abs(exact), (seed, estimate, exact)
        short.append((estimate - spec.offset) / (exact - spec.offset))
    assert min(short) > (0.999 if isotropic else 0.5)


@pytest.mark.parametrize("isotropic", [False, True], ids=["anisotropic", "isotropic"])
def test_sam_ga_perturbation_is_at_most_the_exact_maximum(isotropic):
    """sam_ga's N-step ascent, N in 1, 2, 5 and 10, never lifts the loss
    above the exact maximum over the ball (to the relative 1e-12 above), and
    on an isotropic bowl, whose gradient always points along w, every N
    walks straight to the maximiser. One step is sam's first-order
    perturbation: the same loss rise to that rounding."""
    for spec, w, rho in trust_region_cases(120, isotropic):
        def loss_and_grad(p):
            return network.loss_and_grad(spec, p, BATCH)

        exact = exact_worst_loss(spec, w, rho)
        base = loss_and_grad(w)
        for n in (1, 2, 5, 10):
            got = network.forward(spec, w + epsilon_gradient_ascent(loss_and_grad, w, rho,
                                                                    n).epsilon, BATCH)
            assert got <= exact + 1e-12 * abs(exact), (spec, rho, n, got, exact)
            if isotropic:
                assert got >= exact - 1e-12 * abs(exact), (spec, rho, n, got, exact)
            if n == 1:
                sam = network.forward(spec, w + epsilon_first_order(base.gradient, rho).epsilon,
                                      BATCH)
                assert got - base.value == pytest.approx(sam - base.value, rel=1e-12)


def test_worst_direction_estimate_keeps_an_exact_first_order_maximum():
    """On an isotropic bowl the first-order point is the maximiser over the
    ball; the estimate starts there, as given, not one rescale away."""
    report = build_report(QuadraticSpec(diag=(3.0, 3.0)), np.array([0.25, 0.25]), BATCH,
                          ProbeConfig(rho=0.9), seed=0)
    assert report.l_asc == pytest.approx(1.5 * (math.sqrt(0.125) + 0.9) ** 2, rel=1e-15)
    assert report.l_max_estimate >= report.l_asc


@pytest.mark.parametrize("probe, kwargs, message", [
    (loss_ascent_direction, {"rho": 0.0}, "rho must be > 0"),
    (loss_average_direction, {"rho": 0.0, "n_samples": 4, "seed": 0}, "rho must be > 0"),
    (loss_average_direction, {"rho": -0.05, "n_samples": 4, "seed": 0}, "rho must be > 0"),
    (loss_worst_direction_estimate, {"rho": -0.05, "restarts": 2, "inner_steps": 5, "seed": 0},
     "rho must be > 0"),
    (loss_worst_direction_estimate, {"rho": 0.05, "restarts": 2, "inner_steps": 0, "seed": 0},
     "inner_steps must be >= 1"),
    (loss_worst_direction_estimate, {"rho": 0.05, "restarts": 2, "inner_steps": -2, "seed": 0},
     "inner_steps must be >= 1"),
], ids=["ascent-rho0", "average-rho0", "average-rho-neg", "worst-rho-neg", "worst-steps0",
        "worst-steps-neg"])
def test_probes_reject_what_probe_config_rejects_before_any_compute(probe, kwargs, message,
                                                                    monkeypatch):
    """Each probe raises ProbeConfig's ValueError for a rho <= 0 or an
    inner_steps < 1 before the kernel evaluates any point."""
    def no_compute(*args):
        raise AssertionError("the kernel ran")
    for name in ("forward", "loss_and_grad"):
        monkeypatch.setattr(network, name, no_compute)
    spec = MlpSpec(2, (6,), 2)
    params = network.init_params(spec, np.random.default_rng(4)).data
    with pytest.raises(ValueError, match=message):
        probe(spec, params, gen_two_moons(32, 0.2, 2), **kwargs)


def count_rows(monkeypatch):
    """Count the points evaluated for their loss alone ("forward") and with
    their gradient ("loss_and_grad"): one for a vector, K for a stack of K."""
    counts = {"forward": 0, "loss_and_grad": 0}
    for name in counts:
        def counted(spec, params, batch, _name=name, _f=getattr(network, name)):
            counts[_name] += points_in(params)
            return _f(spec, params, batch)
        monkeypatch.setattr(network, name, counted)
    return counts


def points_in(params) -> int:
    params = np.asarray(params)
    return 1 if params.ndim == 1 else len(params)


def test_worst_direction_evaluates_each_point_once(monkeypatch):
    counts = count_rows(monkeypatch)
    spec = MlpSpec(in_width=2, hidden=(6,), out_width=2)
    params = network.init_params(spec, np.random.default_rng(4)).data
    restarts, steps = 3, 5
    loss_worst_direction_estimate(spec, params, gen_two_moons(32, 0.2, 2),
                                  0.05, restarts=restarts, inner_steps=steps, seed=11)
    # the base point, then every step of the first-order ascent and of each restart
    assert counts["loss_and_grad"] == 1 + (restarts + 1) * steps
    # only the last point of each ascent is not stepped from
    assert counts["forward"] == restarts + 1


def test_worst_direction_flat_ascent_stops_at_its_start(monkeypatch):
    counts = count_rows(monkeypatch)
    spec = QuadraticSpec(diag=(0.0, 0.0), offset=0.75)
    loss_worst_direction_estimate(spec, np.ones(2), BATCH, 0.1,
                                  restarts=2, inner_steps=5, seed=0)
    # zero gradient: no first-order ascent, and each restart stops at its start
    assert counts == {"forward": 0, "loss_and_grad": 1 + 2}


@pytest.mark.parametrize("spec", [MlpSpec(2, (6,), 2), QuadraticSpec((1.0, 3.0))],
                         ids=["mlp", "quadratic"])
def test_report_evaluates_the_unperturbed_point_once(spec, monkeypatch):
    """One evaluation at w gives the base loss, the ascent direction and the
    first-order ascent start; every other point is off w."""
    params = (network.init_params(spec, np.random.default_rng(4)).data
              if isinstance(spec, MlpSpec) else np.array([0.3, 0.4]))
    batch = gen_two_moons(32, 0.2, 2)
    cfg = ProbeConfig(rho=0.05, restarts=2, inner_steps=3, n_samples=4)
    want = build_report(spec, params, batch, cfg, seed=5)
    at_w = []
    for name in ("forward", "loss_and_grad"):
        def spied(spec, points, batch, _f=getattr(network, name)):
            points = np.asarray(points)
            at_w.extend(np.array_equal(p, params) for p in points.reshape(-1, params.size))
            return _f(spec, points, batch)
        monkeypatch.setattr(network, name, spied)
    got = build_report(spec, params, batch, cfg, seed=5)
    assert at_w.count(True) == 1
    assert len(at_w) > 1 + cfg.n_samples
    assert hexes(got.to_dict().values()) == hexes(want.to_dict().values())
    monkeypatch.undo()
    assert got.base_loss.hex() == network.forward(spec, params, batch).hex()


def test_worst_direction_matches_brute_force_grid():
    diag = np.array([1.0, 3.0])
    spec = QuadraticSpec(diag=tuple(diag))
    w = np.array([0.3, 0.4])
    rho = 0.05
    est = loss_worst_direction_estimate(spec, w, BATCH, rho,
                                        restarts=8, inner_steps=20, seed=3)
    # exhaustive search over the rho-disk at 400x400 resolution
    grid = np.linspace(-rho, rho, 400)
    ex, ey = np.meshgrid(grid, grid, indexing="ij")
    mask = ex**2 + ey**2 <= rho**2
    losses = 0.5 * (diag[0] * (w[0] + ex) ** 2 + diag[1] * (w[1] + ey) ** 2)
    brute = losses[mask].max()
    assert abs(est - brute) < 1e-3


def test_worst_direction_monotone_in_restarts():
    spec = MlpSpec(in_width=2, hidden=(6,), out_width=2)
    params = network.init_params(spec, np.random.default_rng(4)).data
    batch = gen_two_moons(32, 0.2, 2)
    estimates = [
        loss_worst_direction_estimate(spec, params, batch, 0.05,
                                      restarts=r, inner_steps=10, seed=11)
        for r in (1, 2, 4, 8)
    ]
    for a, b in zip(estimates, estimates[1:]):
        assert b >= a - 1e-15


def test_worst_dominates_other_probes():
    spec = MlpSpec(in_width=2, hidden=(8,), out_width=2)
    params = network.init_params(spec, np.random.default_rng(6)).data
    batch = gen_two_moons(24, 0.2, 3)
    cfg = ProbeConfig(rho=0.05, restarts=4, inner_steps=10, n_samples=32)
    report = build_report(spec, params, batch, cfg, seed=7)
    assert report.l_max_estimate >= report.l_asc - 1e-9
    assert report.l_max_estimate >= report.l_avg_mean - 3 * report.l_avg_stderr
    assert report.l_max_estimate >= report.base_loss - 1e-15


def test_standardized_sharpness_quadratic():
    spec = QuadraticSpec(diag=(1.0, 1.0))
    cfg = ProbeConfig(rho=0.05, restarts=2, inner_steps=5, n_samples=8)
    report = build_report(spec, np.array([1.0, 0.0]), BATCH, cfg, seed=0)
    assert report.standardized_sharpness == pytest.approx(0.05125, rel=1e-12)


def test_standardized_sharpness_constant_loss_zero():
    spec = QuadraticSpec(diag=(0.0, 0.0), offset=9.0)
    cfg = ProbeConfig(rho=0.05, restarts=2, inner_steps=5, n_samples=8)
    assert build_report(spec, np.ones(2), BATCH, cfg, seed=0).standardized_sharpness == 0.0


def test_standardized_sharpness_pure_function_of_checkpoint():
    """Identical (model, w, data, rho) -> bit-identical result, no matter
    what optimizer metadata the caller is carrying around."""
    spec = MlpSpec(in_width=2, hidden=(4,), out_width=2)
    params = network.init_params(spec, np.random.default_rng(10)).data
    batch = gen_two_moons(16, 0.2, 4)
    values = {loss_ascent_direction(spec, params.copy(), batch, 0.05)
              - network.forward(spec, params, batch) for _ in range(3)}
    assert len(values) == 1


def test_probe_continuity_as_rho_vanishes():
    spec = QuadraticSpec(diag=(1.5, 2.5))
    w = np.array([0.3, 0.9])
    base = network.forward(spec, w, BATCH)
    cfg = ProbeConfig(rho=1e-12, restarts=2, inner_steps=5, n_samples=8)
    report = build_report(spec, w, BATCH, cfg, seed=2)
    assert abs(report.l_asc - base) < 1e-9
    assert abs(report.l_avg_mean - base) < 1e-9
    assert abs(report.l_max_estimate - base) < 1e-9
    assert abs(report.standardized_sharpness) < 1e-9


def test_generalization_gap_sign_convention():
    assert generalization_gap(0.2, 0.5) == pytest.approx(0.3)
    assert generalization_gap(0.5, 0.5) == 0.0
    assert generalization_gap(0.5, 0.2) == pytest.approx(-0.3)


def test_plane_slice_center_and_closed_form():
    diag = np.array([1.0, 2.0])
    spec = QuadraticSpec(diag=tuple(diag))
    w = np.array([0.5, -0.5])
    dir_a = np.array([1.0, 0.0])
    dir_b = np.array([1.0, 1.0])  # gets orthonormalized against dir_a -> (0,1)
    alphas, betas, losses = loss_plane_slice(spec, w, BATCH, dir_a, dir_b,
                                             extent=0.3, n_points=5)
    base = network.forward(spec, w, BATCH)
    assert losses[2, 2] == base  # center cell exact
    for i, a in enumerate(alphas):
        for j, b in enumerate(betas):
            point = w + a * np.array([1.0, 0.0]) + b * np.array([0.0, 1.0])
            expected = 0.5 * float(np.sum(diag * point**2))
            assert losses[i, j] == pytest.approx(expected, abs=1e-12)


def test_plane_slice_zero_extent_all_base():
    spec = QuadraticSpec(diag=(1.0, 2.0))
    w = np.array([0.5, -0.5])
    base = network.forward(spec, w, BATCH)
    _, _, losses = loss_plane_slice(spec, w, BATCH, np.array([1.0, 0.0]),
                                    np.array([0.0, 1.0]), extent=0.0, n_points=3)
    np.testing.assert_array_equal(losses, np.full((3, 3), base))


def test_plane_slice_parallel_directions_rejected():
    spec = QuadraticSpec(diag=(1.0, 1.0))
    with pytest.raises(Exception):
        loss_plane_slice(spec, np.ones(2), BATCH, np.array([1.0, 0.0]),
                         np.array([2.0, 0.0]), extent=0.1, n_points=3)


def test_report_serializes_with_exact_field_names():
    spec = QuadraticSpec(diag=(1.0, 1.0))
    cfg = ProbeConfig(rho=0.05, restarts=2, inner_steps=5, n_samples=8)
    report = build_report(spec, np.array([1.0, 0.0]), BATCH, cfg, seed=0, test_loss=0.7)
    d = report.to_dict()
    assert set(d) == {
        "base_loss", "l_asc", "l_avg_mean", "l_avg_stderr", "l_avg_samples",
        "l_max_estimate", "l_max_restarts", "standardized_sharpness",
        "generalization_gap", "rho", "data_scope",
    }
    assert d["generalization_gap"] == pytest.approx(0.2)
    assert d["standardized_sharpness"] == pytest.approx(d["l_asc"] - d["base_loss"], abs=1e-12)


# --- stacked evaluation ------------------------------------------------------
# The one-point loops the probes ran before they stacked their points, kept as
# the oracle: every stacked probe must return their bytes.

def oracle_average_direction(spec, params, batch, rho, n_samples, seed):
    rng = np.random.default_rng(seed & 0xFFFFFFFFFFFFFFFF)
    losses = np.empty(n_samples, dtype=np.float64)
    for i in range(n_samples):
        direction = sample_unit_direction(params.shape[0], rng)
        losses[i] = network.forward(spec, params + rho * direction, batch)
    return (float(np.mean(losses)), float(np.std(losses, ddof=1) / np.sqrt(n_samples)),
            n_samples)


def oracle_ascend(spec, params, batch, rho, inner_steps, epsilon):
    best = -math.inf
    step_len = 2.0 * rho / inner_steps
    for _ in range(inner_steps):
        result = network.loss_and_grad(spec, params + epsilon, batch)
        best = max(best, result.value)
        norm = float(np.linalg.norm(result.gradient))
        if norm < ZERO_GRAD_EPS:
            return best
        epsilon = epsilon + step_len * (result.gradient / norm)
        eps_norm = float(np.linalg.norm(epsilon))
        if eps_norm > rho:
            epsilon *= rho / eps_norm
    return max(best, network.forward(spec, params + epsilon, batch))


def oracle_worst_direction(spec, params, batch, rho, restarts, inner_steps, seed, base=None):
    # `base` is what build_report passes; the oracle evaluates w itself.
    base_result = network.loss_and_grad(spec, params, batch)
    best = base_result.value
    first_order = epsilon_first_order(base_result.gradient, rho)
    if not first_order.zero_gradient:
        best = max(best, oracle_ascend(spec, params, batch, rho, inner_steps,
                                       first_order.epsilon))
    dim = params.shape[0]
    for restart in range(restarts):
        rng = np.random.default_rng([seed & 0xFFFFFFFFFFFFFFFF, restart])
        radius = rho * float(rng.uniform()) ** (1.0 / dim)
        best = max(best, oracle_ascend(spec, params, batch, rho, inner_steps,
                                       radius * sample_unit_direction(dim, rng)))
    return best


def oracle_plane_slice(spec, params, batch, direction_a, direction_b, extent, n_points):
    a = direction_a / float(np.linalg.norm(direction_a))
    b = direction_b - np.dot(direction_b, a) * a
    b = b / float(np.linalg.norm(b))
    alphas = np.linspace(-extent, extent, n_points)
    betas = np.linspace(-extent, extent, n_points)
    if n_points % 2 == 1:
        alphas[n_points // 2] = 0.0
        betas[n_points // 2] = 0.0
    losses = np.empty((n_points, n_points), dtype=np.float64)
    for i, alpha in enumerate(alphas):
        for j, beta in enumerate(betas):
            losses[i, j] = network.forward(spec, params + alpha * a + beta * b, batch)
    return alphas, betas, losses


def stacked_case(activation, head, depth, rows=24):
    """An MLP with odd-sized parameter rows, its params and a batch."""
    hidden = (7, 5)[:depth]
    spec = MlpSpec(2, hidden, 2, activation, head)
    params = network.init_params(spec, np.random.default_rng([depth, len(head)])).data
    return spec, params, gen_two_moons(rows, 0.2, depth)


def hexes(values):
    return [v.hex() if isinstance(v, float) else v for v in values]


K = 4
STACKED_SHAPES = [("relu", "softmax_ce", 0), ("tanh", "mse", 0), ("relu", "mse", 1),
                  ("tanh", "softmax_ce", 1), ("relu", "softmax_ce", 2), ("tanh", "mse", 2)]


@pytest.mark.parametrize("shape", STACKED_SHAPES, ids=lambda s: "-".join(map(str, s)))
def test_stacked_probes_match_the_one_point_loops(shape, force_rows_per_call):
    spec, params, batch = stacked_case(*shape)
    force_rows_per_call(spec, batch, K)
    for n_samples in (2, K - 1, K, K + 1, 2 * K + 3):
        got = loss_average_direction(spec, params, batch, 0.1, n_samples, seed=n_samples)
        want = oracle_average_direction(spec, params, batch, 0.1, n_samples, seed=n_samples)
        assert hexes(got) == hexes(want)
    for ascents in (2, K, K + 1):
        args = (spec, params, batch, 0.05, ascents - 1, 3, 9)
        assert loss_worst_direction_estimate(*args).hex() == oracle_worst_direction(*args).hex()
    rng = np.random.default_rng(5)
    directions = rng.standard_normal((2, params.size))
    for n_points in (2, 3, 41):
        got = loss_plane_slice(spec, params, batch, *directions, extent=0.5, n_points=n_points)
        want = oracle_plane_slice(spec, params, batch, *directions, 0.5, n_points)
        assert [x.tobytes() for x in got] == [x.tobytes() for x in want]


@pytest.mark.parametrize("shape", STACKED_SHAPES[:2] + STACKED_SHAPES[-1:],
                         ids=lambda s: "-".join(map(str, s)))
def test_stacked_report_matches_the_one_point_loops(shape, monkeypatch, force_rows_per_call):
    spec, params, batch = stacked_case(*shape)
    force_rows_per_call(spec, batch, K)
    cfg = ProbeConfig(rho=0.05, restarts=K, inner_steps=4, n_samples=2 * K + 3)
    got = build_report(spec, params, batch, cfg, seed=3, test_loss=0.5)
    with monkeypatch.context() as patched:
        patched.setattr(probes, "loss_average_direction", oracle_average_direction)
        patched.setattr(probes, "loss_worst_direction_estimate", oracle_worst_direction)
        want = build_report(spec, params, batch, cfg, seed=3, test_loss=0.5)
    assert hexes(got.to_dict().values()) == hexes(want.to_dict().values())
    assert got.generalization_gap == 0.5 - got.base_loss


def test_wide_probes_evaluate_one_point_per_call(monkeypatch):
    spec = MlpSpec(2, (128,), 2, "tanh", "mse")
    params = network.init_params(spec, np.random.default_rng(1)).data
    # One point's activations, n x 128, pass the budget, whatever it is.
    batch = gen_two_moons(network.STACK_ELEMENTS // 128 + 8, 0.2, 1)
    assert network.rows_per_call(spec, batch) == 1
    counts = count_rows(monkeypatch)
    sizes = []
    for name in ("forward", "loss_and_grad"):
        def sized(spec, rows, batch, _f=getattr(network, name)):
            sizes.append(points_in(rows))
            return _f(spec, rows, batch)
        monkeypatch.setattr(network, name, sized)
    stacked = {"average": hexes(loss_average_direction(spec, params, batch, 0.1, 3, seed=2)),
               "worst": loss_worst_direction_estimate(spec, params, batch, 0.05, 2, 3, 4).hex()}
    assert counts == {"forward": 3 + 3, "loss_and_grad": 1 + 3 * 3}
    assert set(sizes) == {1}
    monkeypatch.undo()
    assert stacked == {
        "average": hexes(oracle_average_direction(spec, params, batch, 0.1, 3, seed=2)),
        "worst": oracle_worst_direction(spec, params, batch, 0.05, 2, 3, 4).hex()}
    directions = np.random.default_rng(6).standard_normal((2, params.size))
    got = loss_plane_slice(spec, params, batch, *directions, extent=0.5, n_points=3)
    want = oracle_plane_slice(spec, params, batch, *directions, 0.5, 3)
    assert [x.tobytes() for x in got] == [x.tobytes() for x in want]


def test_rows_per_call_of_the_bench_shapes():
    small = MlpSpec(2, (32,), 2)
    assert network.rows_per_call(small, gen_two_moons(500, 0.2, 0)) == 8  # probe batch
    assert network.rows_per_call(small, gen_two_moons(1500, 0.2, 0)) == 2  # test split
    assert network.rows_per_call(small, gen_two_moons(32, 0.2, 0)) == 128  # minibatch
    wide = Dataset(np.zeros((1000, 16)), np.zeros(1000, dtype=int), 8)
    assert network.rows_per_call(MlpSpec(16, (128, 128), 8, "tanh", "mse"), wide) == 1


def test_stack_height_moves_no_byte_at_the_bench_shape(force_rows_per_call):
    """probe_small's work on its own shapes: a 2-32-2 relu model on 500
    two-moons rows, a report of 256 samples and a 41 x 41 slice, give the
    same bytes one point a call and 4, 8 or 16 points a call."""
    spec = MlpSpec(2, (32,), 2)
    params = network.init_params(spec, np.random.default_rng(4)).data
    batch = network.check_batch(spec, gen_two_moons(500, 0.25, 4))
    directions = np.random.default_rng(9).standard_normal((2, params.size))
    cfg = ProbeConfig(n_samples=256)

    def outputs(k):
        force_rows_per_call(spec, batch, k)
        report = build_report(spec, params, batch, cfg, seed=7)
        grid = loss_plane_slice(spec, params, batch, *directions, extent=1.0, n_points=41)
        return hexes(report.to_dict().values()), [x.tobytes() for x in grid]

    want = outputs(1)
    for k in (4, 8, 16):
        assert outputs(k) == want, k


def test_flat_ascent_leaves_its_lockstep_alone(monkeypatch, force_rows_per_call):
    """Dead relu units and a balanced batch make w flat, and a start that
    moves no output bias stays flat: that ascent stops at its start while
    the others, stacked beside it, run every step."""
    spec = MlpSpec(2, (4,), 2)
    params = np.zeros(network.param_count(spec))
    params[8:12] = -10.0  # hidden biases: every unit dead for these inputs
    batch = Dataset(np.random.default_rng(3).uniform(-1, 1, (8, 2)), np.array([0, 1] * 4), 2)
    rng = np.random.default_rng(8)
    starts = [0.05 * sample_unit_direction(params.size, rng) for _ in range(3)]
    flat_start = starts[1].copy()
    flat_start[-2:] = 0.0
    starts.insert(1, flat_start)
    want = hexes([oracle_ascend(spec, params, batch, 0.05, 5, s) for s in starts])
    counts = count_rows(monkeypatch)
    force_rows_per_call(spec, batch, 3)
    got = optimizers.lockstep(spec, batch, (probes._ascent(params, 0.05, 5, s) for s in starts))
    assert hexes(got) == want
    assert counts["forward"] + counts["loss_and_grad"] == 1 + 3 * (5 + 1)
