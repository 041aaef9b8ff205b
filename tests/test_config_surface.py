"""The config surface, checked key by key: every key that `config_hash`
hashes is either rejected or read by training or the probes, and no key it
leaves out moves a run's values.

Each base config is a compare of every optimizer kind on a tiny dataset, one
seed and 2 epochs. Each key in turn gets one value other than its current
one (or its default, where the base leaves it out). A hashed key must then
make the config a `ConfigError`, or move some measured runs.csv value (the
final losses and accuracy, the probe values or grad_evals) of some run. A
rule such as `harness._READ_ONLY_BY` exists to turn a key that would move
only the hash into a `ConfigError`, so deleting one fails this test.
"""

import copy
import dataclasses
import functools
import typing
from typing import NamedTuple

import pytest

from samlab import network, optimizers
from samlab.errors import ConfigError
from samlab.harness import ExperimentConfig, FailedRun, compare_optimizers, parse_config
from samlab.outputs import RUNS_CSV_COLUMNS, config_hash, run_row

SWEEP = [
    {"kind": "sgd", "learning_rate": 0.1, "momentum": 0.9},
    {"kind": "sam", "learning_rate": 0.1, "rho": 0.05},
    {"kind": "rand_sam", "learning_rate": 0.1, "rho": 0.05},
    {"kind": "sam_ga", "learning_rate": 0.1, "rho": 0.05, "ga_steps": 2},
]
PROBE = {"rho": 0.05, "restarts": 2, "inner_steps": 2, "n_samples": 2}
BASES = {
    "two_moons": {
        "dataset": {"generator": "two_moons", "n": 40, "noise_sd": 0.2, "seed": 3},
        "model": {"kind": "mlp", "hidden": [4], "activation": "relu", "head": "softmax_ce"},
        "optimizers": SWEEP, "epochs": 2, "batch_size": 8, "seeds": [1], "probe": PROBE,
    },
    "gaussian_blobs": {
        "dataset": {"generator": "gaussian_blobs", "n": 40, "seed": 3,
                    "centers": [[0.0, 0.0], [2.0, 1.0], [1.0, 3.0]]},
        "model": {"kind": "mlp", "hidden": [4], "activation": "tanh", "head": "mse"},
        "optimizers": SWEEP, "epochs": 2, "batch_size": 8, "seeds": [1], "probe": PROBE,
    },
}

# Hashed keys that are read but moved no value on the bases, with the reason.
EXEMPT = {
    "probe.restarts": "read by the worst-direction estimate, but on these tiny configs "
                      "its first-order ascent beats every random restart, so no value moves",
    "optimizers[1].kind": "sam becomes sam_ga with one ascent step, which is sam byte for "
                          "byte under the label sam_ga1",
}

# The keys config_hash leaves out, each with a value other than the base's.
UNHASHED = {
    "seeds": lambda raw: [2] + raw["seeds"],
    "out_dir": lambda raw: "elsewhere",
    "optimizers": lambda raw: raw["optimizers"][::-1],
    "slice": lambda raw: {"name": "other", "extent": 0.5, "n_points": 3},
}

# The runs.csv values a run measures; the rest are its config's and its time.
MEASURED = tuple(name for name in RUNS_CSV_COLUMNS if name not in (
    "config_hash", "seed", "optimizer", "rho", "ga_steps", "epochs", "wall_seconds"))

_CHOICES = {("dataset", "generator"): ("two_moons", "gaussian_blobs", "idx"),
            ("model", "kind"): ("mlp", "quadratic"),
            ("model", "activation"): network.ACTIVATIONS,
            ("model", "head"): network.HEADS,
            ("optimizer", "kind"): optimizers.OPTIMIZER_KINDS}


def _other(section, key, value):
    """A value of `section.key` other than `value`."""
    if (section, key) in _CHOICES:
        choices = _CHOICES[section, key]
        return choices[(choices.index(value) + 1) % len(choices)]
    if value is None:  # an optional key: the blobs' centers or an idx path
        return [[0.0, 0.0], [3.0, 0.0]] if key == "centers" else "unread.idx"
    if isinstance(value, (list, tuple)):
        return [_other(section, key, item) for item in value]
    if isinstance(value, int):
        return value + 1
    if isinstance(value, float):
        return value / 2 if value else 0.1
    raise AssertionError(f"no other value known for {section}.{key}={value!r}")


def _keys(cls, obj):
    """(field name, JSON key, value) of every field of the config dataclass
    `cls`: its value in the JSON object `obj`, else its default."""
    for f in dataclasses.fields(cls):
        key = f.metadata.get("key", f.name)
        yield f.name, key, obj.get(key, f.default)


def _mutations(raw):
    """(dotted key, a copy of `raw` with that one key changed) for every
    hashed key. A suite's config holds its sweep entry as its `optimizer`,
    so the optimizer keys are changed in each sweep entry."""
    def changed(path, value):
        out = copy.deepcopy(raw)
        target = out
        for step in path[:-1]:
            target = target[step] if isinstance(target, list) else target.setdefault(step, {})
        target[path[-1]] = value
        return out

    hints = typing.get_type_hints(ExperimentConfig)
    for name, key, value in _keys(ExperimentConfig, raw):
        if key in UNHASHED:
            continue
        if name == "optimizer":
            for i, entry in enumerate(raw["optimizers"]):
                for _, sub, value in _keys(optimizers.OptimizerConfig, entry):
                    yield (f"optimizers[{i}].{sub}",
                           changed(["optimizers", i, sub], _other("optimizer", sub, value)))
        elif dataclasses.is_dataclass(hints[name]):
            for _, sub, value in _keys(hints[name], raw.get(key, {})):
                yield f"{key}.{sub}", changed([key, sub], _other(key, sub, value))
        else:
            yield key, changed([key], _other(key, key, value))


class Run(NamedTuple):
    label: str
    seed: int
    config_hash: str
    values: object  # the MEASURED values, or a failed run's error


def _outcome(raw):
    """A compare of `raw` as its Runs, in suite order, or the ConfigError
    that rejects it."""
    try:
        config = parse_config(copy.deepcopy(raw))
        suites = compare_optimizers(config, config.optimizer_sweep)
    except ConfigError as exc:
        return exc
    return [Run(suite.config.optimizer.label, run.seed, config_hash(suite.config),
                run.error if isinstance(run, FailedRun)
                else tuple(run_row(suite.config, run)[name] for name in MEASURED))
            for suite in suites for run in suite.records + suite.failures]


@functools.cache
def _base(name):
    outcome = _outcome(BASES[name])
    assert not isinstance(outcome, ConfigError) and len(outcome) == len(SWEEP)
    return outcome


@pytest.mark.parametrize("name", BASES)
def test_every_hashed_key_is_rejected_or_moves_a_run_value(name):
    base = _base(name)
    mutations = dict(_mutations(BASES[name]))
    assert set(EXEMPT) <= set(mutations)
    slipped = []
    for key, raw in mutations.items():
        if key in EXEMPT:
            continue
        got = _outcome(raw)
        if isinstance(got, ConfigError):
            continue
        assert [run.config_hash for run in got] != [run.config_hash for run in base], \
            f"{key} is not hashed"
        if [run.values for run in got] == [run.values for run in base]:
            slipped.append(key)
    assert slipped == []


@pytest.mark.parametrize("key", UNHASHED)
@pytest.mark.parametrize("name", BASES)
def test_no_unhashed_key_moves_a_run_value(name, key):
    """Each run, named by its label and seed, keeps its config_hash and its
    values, whatever the seeds, out_dir, sweep order or slice."""
    raw = dict(BASES[name], **{key: UNHASHED[key](BASES[name])})
    base = {(run.label, run.seed): run for run in _base(name)}
    got = {(run.label, run.seed): run for run in _outcome(raw)}
    assert base.keys() <= got.keys()
    assert {run: got[run] for run in base} == base

