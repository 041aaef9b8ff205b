import numpy as np
import pytest

from samlab import network, probes
from samlab.data import gen_two_moons
from samlab.network import MlpSpec, QuadraticSpec
from samlab.probes import (
    ProbeConfig, build_report, generalization_gap, loss_ascent_direction,
    loss_average_direction, loss_plane_slice, loss_worst_direction_estimate,
    standardized_sharpness,
)

BATCH = gen_two_moons(8, 0.1, 0).as_batch()  # quadratics ignore it


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


def count_calls(monkeypatch, *names):
    counts = dict.fromkeys(names, 0)
    for name in names:
        def counted(*args, _name=name, _f=getattr(network, name)):
            counts[_name] += 1
            return _f(*args)
        monkeypatch.setattr(network, name, counted)
    return counts


def test_worst_direction_evaluates_each_point_once(monkeypatch):
    counts = count_calls(monkeypatch, "forward", "loss_and_grad")
    spec = MlpSpec(in_width=2, hidden=(6,), out_width=2)
    params = network.init_params(spec, np.random.default_rng(4)).data
    restarts, steps = 3, 5
    loss_worst_direction_estimate(spec, params, gen_two_moons(32, 0.2, 2).as_batch(),
                                  0.05, restarts=restarts, inner_steps=steps, seed=11)
    # the base point, then every step of the first-order ascent and of each restart
    assert counts["loss_and_grad"] == 1 + (restarts + 1) * steps
    # only the last point of each ascent is not stepped from
    assert counts["forward"] == restarts + 1


def test_worst_direction_flat_ascent_stops_at_its_start(monkeypatch):
    counts = count_calls(monkeypatch, "forward", "loss_and_grad")
    spec = QuadraticSpec(diag=(0.0, 0.0), offset=0.75)
    loss_worst_direction_estimate(spec, np.ones(2), BATCH, 0.1,
                                  restarts=2, inner_steps=5, seed=0)
    # zero gradient: no first-order ascent, and each restart stops at its start
    assert counts == {"forward": 0, "loss_and_grad": 1 + 2}


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
    batch = gen_two_moons(32, 0.2, 2).as_batch()
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
    batch = gen_two_moons(24, 0.2, 3).as_batch()
    cfg = ProbeConfig(rho=0.05, restarts=4, inner_steps=10, n_samples=32)
    report = build_report(spec, params, batch, cfg, seed=7, data_scope="train")
    assert report.l_max_estimate >= report.l_asc - 1e-9
    assert report.l_max_estimate >= report.l_avg_mean - 3 * report.l_avg_stderr
    assert report.l_max_estimate >= report.base_loss - 1e-15


def test_standardized_sharpness_quadratic():
    spec = QuadraticSpec(diag=(1.0, 1.0))
    s = standardized_sharpness(spec, np.array([1.0, 0.0]), BATCH, 0.05)
    assert s == pytest.approx(0.05125, rel=1e-12)


def test_standardized_sharpness_constant_loss_zero():
    spec = QuadraticSpec(diag=(0.0, 0.0), offset=9.0)
    assert standardized_sharpness(spec, np.ones(2), BATCH, 0.05) == 0.0


def test_standardized_sharpness_pure_function_of_checkpoint():
    """Identical (model, w, data, rho) -> bit-identical result, no matter
    what optimizer metadata the caller is carrying around."""
    spec = MlpSpec(in_width=2, hidden=(4,), out_width=2)
    params = network.init_params(spec, np.random.default_rng(10)).data
    batch = gen_two_moons(16, 0.2, 4).as_batch()
    values = {standardized_sharpness(spec, params.copy(), batch, 0.05)
              for _ in range(3)}
    assert len(values) == 1


def test_probe_continuity_as_rho_vanishes():
    spec = QuadraticSpec(diag=(1.5, 2.5))
    w = np.array([0.3, 0.9])
    base = network.forward(spec, w, BATCH)
    cfg = ProbeConfig(rho=1e-12, restarts=2, inner_steps=5, n_samples=8)
    report = build_report(spec, w, BATCH, cfg, seed=2, data_scope="train")
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
    report = build_report(spec, np.array([1.0, 0.0]), BATCH, cfg, seed=0,
                          data_scope="train", train_loss=0.5, test_loss=0.7)
    d = report.to_dict()
    assert set(d) == {
        "base_loss", "l_asc", "l_avg_mean", "l_avg_stderr", "l_avg_samples",
        "l_max_estimate", "l_max_restarts", "standardized_sharpness",
        "generalization_gap", "rho", "data_scope",
    }
    assert d["generalization_gap"] == pytest.approx(0.2)
    assert d["standardized_sharpness"] == pytest.approx(d["l_asc"] - d["base_loss"], abs=1e-12)
