"""The bench's tracer (perfbench/tracing.py) wraps samlab's public functions
by name, so a renamed or deleted name breaks every traced bench run. This
installs it against the library as it is and takes it out again."""

from pathlib import Path

import numpy as np

from samlab import harness, network, optimizers
from samlab.data import gen_two_moons

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def test_bench_tracer_installs_records_and_uninstalls(tmp_path, monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import tracing

    modules = (network, optimizers, harness)
    before = [dict(vars(module)) for module in modules]
    tracer = tracing.Tracer(tmp_path)
    try:
        tracer.install()
        spec = network.MlpSpec(2, (3,), 2)
        params = network.init_params(spec, np.random.default_rng(0)).data
        batch = gen_two_moons(8, 0.1, 0).as_batch()
        config = optimizers.OptimizerConfig(kind="sam", learning_rate=0.1)
        optimizers.step(spec, params, batch, config, optimizers.init_state(config, params.size))
    finally:
        tracer.uninstall()
    assert [dict(vars(module)) for module in modules] == before
    names = [span[0] for span in tracer.spans]
    assert names.count("optimizers.step.sam") == 1
    assert names.count("network.loss_and_grad") == 2


def test_traced_pool_workers_spill_a_lane_per_run(tmp_path, monkeypatch):
    """A pool worker spills its spans when `harness.run_training` returns, so
    every run a `run_suite` worker trains must end in a module-level call of
    that name; otherwise the traced bench loses the workers' lanes. Each
    minibatch of a run trained alone must be one `optimizers.step` call
    through the module attribute, or the traced `optimizers.step.*` metrics
    read 0."""
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import tracing

    config = harness.ExperimentConfig(
        dataset=harness.DatasetConfig(generator="two_moons", n=40, seed=5),
        model=harness.ModelConfig(hidden=(4,)),
        optimizer=optimizers.OptimizerConfig(kind="sam", learning_rate=0.1),
        epochs=1, batch_size=10, seeds=(1, 2))
    tracer = tracing.Tracer(tmp_path / "spill")
    try:
        tracer.install()
        suite = harness.run_suite(config, jobs=2)
    finally:
        tracer.uninstall()
    tracer.collect()
    assert [r.seed for r in suite.records] == [1, 2]
    assert len(tracer.worker_lanes) == 2
    for lane in tracer.worker_lanes:
        names = [span[0] for span in lane]
        assert names.count("harness.run_training") == 1
        # 20 train rows in batches of 10, 1 epoch: 2 steps.
        assert names.count("optimizers.step.sam") == 2


def test_traced_emit_outputs_times_each_checkpoint_save(tmp_path, monkeypatch):
    """The tracer rebinds `harness.emit_outputs` and `checkpoint.save`, so the
    writers must stay reachable as `harness.emit_outputs` and call `save`
    through the checkpoint module, or the traced `checkpoint.save.*` metrics
    read 0."""
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import tracing

    config = harness.ExperimentConfig(
        dataset=harness.DatasetConfig(generator="two_moons", n=40, seed=5),
        model=harness.ModelConfig(hidden=(4,)),
        optimizer=optimizers.OptimizerConfig(kind="sgd", learning_rate=0.1),
        epochs=1, batch_size=10, seeds=(1,))
    suite = harness.run_suite(config)
    tracer = tracing.Tracer(tmp_path / "spill")
    try:
        tracer.install()
        harness.emit_outputs(tmp_path / "out", [suite])
    finally:
        tracer.uninstall()
    names = [span[0] for span in tracer.spans]
    assert names.count("harness.emit_outputs") == 1
    assert names.count("checkpoint.save") == len(suite.records) == 1
