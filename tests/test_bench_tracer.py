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
