import csv
import json
import multiprocessing
import os
import platform
import signal
import subprocess
import sys
from concurrent.futures import Future
from pathlib import Path

import numpy as np
import pytest

from samlab import checkpoint, cli, fileio, harness, network, optimizers, outputs, probes
from samlab.errors import ConfigError, LayoutError, SamLabError
from samlab.harness import (
    DatasetConfig, ExperimentConfig, ModelConfig, RunRecord, build_dataset,
    compare_optimizers, parse_config, prepare_task, probe_checkpoint,
    run_suite, run_training,
)
from samlab.optimizers import OptimizerConfig
from samlab.outputs import (
    config_hash, emit_outputs, emit_slice, run_row, summary, RUNS_CSV_COLUMNS,
)
from samlab.probes import ProbeConfig, SharpnessReport


def small_config(**overrides):
    defaults = dict(
        dataset=DatasetConfig(generator="two_moons", n=120, noise_sd=0.2,
                              seed=5, train_fraction=0.5),
        model=ModelConfig(kind="mlp", hidden=(6,)),
        optimizer=OptimizerConfig(kind="sgd", learning_rate=0.1, momentum=0.9),
        epochs=2,
        batch_size=20,
        seeds=(1, 2),
        probe=ProbeConfig(rho=0.05, restarts=2, inner_steps=4, n_samples=8),
        label_noise_fraction=0.1,
    )
    defaults.update(overrides)
    return ExperimentConfig(**defaults)


RAW = {
    "dataset": {"generator": "two_moons", "n": 120, "noise_sd": 0.2,
                "seed": 5, "train_fraction": 0.5},
    "label_noise_fraction": 0.1,
    "model": {"kind": "mlp", "hidden": [6]},
    "optimizer": {"kind": "sgd", "learning_rate": 0.1, "momentum": 0.9},
    "epochs": 2,
    "batch_size": 20,
    "seeds": [1, 2],
    "probe": {"rho": 0.05, "restarts": 2, "inner_steps": 4, "n_samples": 8},
}


# --- config parsing ---------------------------------------------------------

def test_parse_roundtrip():
    cfg = parse_config(RAW)
    assert cfg == small_config()


def test_unknown_top_level_key_rejected():
    bad = dict(RAW, learning_rate=0.1)
    with pytest.raises(ConfigError, match="learning_rate"):
        parse_config(bad)


def test_unknown_nested_key_rejected():
    bad = dict(RAW, optimizer={"kind": "sgd", "learning_rate": 0.1, "momentun": 0.9})
    with pytest.raises(ConfigError, match="momentun"):
        parse_config(bad)


def test_missing_required_key_rejected():
    bad = {k: v for k, v in RAW.items() if k != "model"}
    with pytest.raises(ConfigError, match="model"):
        parse_config(bad)


@pytest.mark.parametrize("generator, key", [
    ("two_moons", "images"), ("two_moons", "test_labels"), ("two_moons", "centers"),
    ("gaussian_blobs", "test_images"), ("idx", "centers"),
    ("gaussian_blobs", "noise_sd"), ("idx", "noise_sd"), ("two_moons", "center_sd"),
    ("idx", "center_sd"), ("idx", "n"),
])
def test_dataset_key_another_generator_reads_is_rejected(generator, key):
    value = {"centers": [[0.0], [1.0]], "noise_sd": 5.0, "center_sd": 2.0, "n": 100}
    dataset = {"generator": generator, key: value.get(key, "x.idx")}
    with pytest.raises(ConfigError, match=f"'{key}' is read only by .*, not '{generator}'"):
        parse_config(dict(RAW, dataset=dataset))


def test_default_values_of_keys_another_generator_reads_are_accepted():
    """Spelling out a default changes no config_hash, so it is allowed."""
    blobs = {"generator": "gaussian_blobs", "centers": [[0.0], [1.0]]}
    assert parse_config(dict(RAW, dataset=dict(blobs, noise_sd=0.2))) == \
        parse_config(dict(RAW, dataset=blobs))
    moons = dict(RAW["dataset"], center_sd=1.0)
    assert parse_config(dict(RAW, dataset=moons)) == parse_config(RAW)


@pytest.mark.parametrize("kind, key, value", [
    ("mlp", "diag", [2.0]), ("mlp", "offset", 0.5), ("quadratic", "hidden", [7]),
    ("quadratic", "activation", "tanh"), ("quadratic", "head", "mse"),
])
def test_model_key_another_kind_reads_is_rejected(kind, key, value):
    model = {"kind": kind, key: value}
    with pytest.raises(ConfigError,
                       match=f"config.model: model key '{key}' is read only by kind .*, not '{kind}'"):
        parse_config(dict(RAW, model=model))


def test_default_values_of_model_keys_another_kind_reads_are_accepted():
    """Spelling out a default changes no config_hash, so it is allowed."""
    mlp = dict(RAW["model"], diag=[1.0, 1.0], offset=0.0)
    assert parse_config(dict(RAW, model=mlp)) == parse_config(RAW)
    quadratic = {"kind": "quadratic", "diag": [2.0]}
    spelled = dict(quadratic, hidden=[32], activation="relu", head="softmax_ce")
    assert parse_config(dict(RAW, model=spelled)) == parse_config(dict(RAW, model=quadratic))


def test_idx_train_fraction_is_rejected_only_beside_a_test_set(tmp_path):
    """`build_dataset` splits an idx set only when it has no test files."""
    paths = {}
    for key in ("images", "labels", "test_images", "test_labels"):
        (tmp_path / key).touch()  # the config checks only that each is a file
        paths[key] = str(tmp_path / key)
    with_test = dict(paths, generator="idx")
    with pytest.raises(ConfigError, match="config.dataset: dataset key 'train_fraction' "
                                          "is not read by an idx dataset with 'test_images'"):
        parse_config(dict(RAW, dataset=dict(with_test, train_fraction=0.8)))
    assert parse_config(dict(RAW, dataset=dict(with_test, train_fraction=0.5))).dataset == \
        DatasetConfig(**with_test)
    alone = {"generator": "idx", "images": paths["images"], "labels": paths["labels"]}
    assert parse_config(dict(RAW, dataset=dict(alone, train_fraction=0.8))).dataset == \
        DatasetConfig(**alone, train_fraction=0.8)


def test_idx_seed_is_rejected_only_beside_a_test_set_and_no_label_noise(tmp_path):
    """With its own test files and no label noise, `build_dataset` never
    reads an idx set's seed."""
    paths = {}
    for key in ("images", "labels", "test_images", "test_labels"):
        (tmp_path / key).touch()  # the config checks only that each is a file
        paths[key] = str(tmp_path / key)
    with_test = dict(paths, generator="idx")
    with pytest.raises(ConfigError, match="dataset key 'seed' is not read by an idx dataset "
                                          "with 'test_images' and 'test_labels' and no label"):
        parse_config(dict(RAW, dataset=dict(with_test, seed=3), label_noise_fraction=0.0))
    assert parse_config(dict(RAW, dataset=dict(with_test, seed=3))).dataset == \
        DatasetConfig(**with_test, seed=3)  # RAW's label noise reads it
    assert parse_config(dict(RAW, dataset=dict(with_test, seed=0),
                             label_noise_fraction=0.0)).dataset == DatasetConfig(**with_test)
    alone = {"generator": "idx", "images": paths["images"], "labels": paths["labels"]}
    assert parse_config(dict(RAW, dataset=dict(alone, seed=3),
                             label_noise_fraction=0.0)).dataset == DatasetConfig(**alone, seed=3)


@pytest.mark.parametrize("kind, key", [
    ("sgd", "rho"), ("sam", "ga_steps"), ("rand_sam", "ga_steps"), ("sgd", "ga_steps"),
])
def test_optimizer_key_its_kind_never_reads_is_rejected(kind, key):
    def parsed(value):
        optimizer = {"kind": kind, "learning_rate": 0.1, key: value}
        return parse_config(dict(RAW, optimizer=optimizer)).optimizer

    with pytest.raises(ConfigError, match=f"config.optimizer: optimizer key '{key}' .*'{kind}'"):
        parsed({"rho": 0.3, "ga_steps": 5}[key])
    default = {"rho": 0.05, "ga_steps": 1}[key]  # changes no config_hash, so it is allowed
    assert parsed(default) == OptimizerConfig(kind=kind, learning_rate=0.1)


def test_null_keys_of_another_generator_are_accepted():
    dataset = dict(RAW["dataset"], centers=None, images=None, labels=None,
                   test_images=None, test_labels=None)
    assert parse_config(dict(RAW, dataset=dataset)) == parse_config(RAW)


def test_file_name_escapes_of_argv_bytes_count_one_byte_each(tmp_path):
    """--out holds each undecodable argv byte as a \\udc80-\\udcff escape,
    which the file system writes back as one byte."""
    name = "\udcff" * 245
    assert harness.SliceConfig(name=name).name == name
    with pytest.raises(ConfigError, match="got 246$"):
        harness.SliceConfig(name=name + "\udc80")
    out = tmp_path / "o\udc80"
    assert parse_config(RAW, out_override=out).out_dir == str(out)
    path = emit_slice(out, name, [0.0], [0.0, 1.0], np.zeros((1, 2)))
    assert os.listdir(os.fsencode(out)) == [b"slice_" + b"\xff" * 245 + b".csv"]
    assert path.read_text().splitlines()[0] == "alpha,beta,loss"


def test_seeds_and_out_overrides():
    cfg = parse_config(RAW, seeds_override=(7, 8, 9), out_override="/tmp/x")
    assert cfg.seeds == (7, 8, 9)
    assert cfg.out_dir == "/tmp/x"


def test_no_seeds_rejected():
    bad = {k: v for k, v in RAW.items() if k != "seeds"}
    with pytest.raises(ConfigError, match="seed"):
        parse_config(bad)


def test_duplicate_seeds_rejected():
    with pytest.raises(ConfigError, match="duplicate"):
        parse_config(dict(RAW, seeds=[1, 1]))


def test_slice_name_limit_counts_utf8_bytes():
    assert harness.SliceConfig(name="é" * 122 + "n").name  # 245 bytes
    with pytest.raises(ConfigError, match="^slice name must be at most 245 UTF-8 bytes, so "
                                          "that slice_<name>.csv fits in 255, got 246$"):
        harness.SliceConfig(name="é" * 123)


@pytest.mark.parametrize("raw, path", [
    (dict(RAW, optimizer=dict(RAW["optimizer"], kind="sam_ga", ga_steps=2.5)),
     r"config\.optimizer\.ga_steps must be an integer"),
    (dict(RAW, optimizers=[RAW["optimizer"], dict(RAW["optimizer"], rho=float("inf"))]),
     r"config\.optimizers\[1\]\.rho must be a finite number"),
    (dict(RAW, label_noise_fraction=10 ** 400), "config.label_noise_fraction must be"),
    (dict(RAW, dataset=dict(RAW["dataset"], centers=[[0, 0], "ab"])),
     r"config\.dataset\.centers\[1\] must be a list"),
    (dict(RAW, probe=dict(RAW["probe"], rho=0.0)), "config.probe: rho must be > 0"),
    (dict(RAW, model=[6]), "config.model must be an object"),
    # Runs derive their streams from a seed's low 64 bits, so 1 + 2**64 would train run 1.
    (dict(RAW, seeds=[1, 1 + 2 ** 64]), r"config: run seed must be in \[0, 2\*\*64\)"),
    (dict(RAW, seeds=[-1]), r"config: run seed must be in \[0, 2\*\*64\), got -1"),
    (dict(RAW, dataset=dict(RAW["dataset"], seed=2 ** 64)),
     r"config\.dataset: dataset seed must be in \[0, 2\*\*64\)"),
], ids=["int_field", "sweep_entry", "huge_int", "tuple_item", "post_init", "object",
        "run_seed_2_64_alias", "negative_run_seed", "dataset_seed_2_64"])
def test_bad_value_error_names_its_path(raw, path):
    with pytest.raises(ConfigError, match=path):
        parse_config(raw)


def test_sweep_alone_sets_the_optimizer():
    sweep = [dict(RAW["optimizer"], momentum=0.5), dict(RAW["optimizer"], kind="sam")]
    raw = {k: v for k, v in RAW.items() if k != "optimizer"}
    cfg = parse_config(dict(raw, optimizers=sweep))
    assert cfg.optimizer.momentum == 0.5
    assert [o.momentum for o in cfg.optimizer_sweep] == [0.5, 0.9]
    with pytest.raises(ConfigError, match="optimizers must be a list"):
        parse_config(dict(raw, optimizers=RAW["optimizer"]))


# --- hashing ----------------------------------------------------------------

def test_load_config_rejects_a_repeated_key_naming_it(tmp_path):
    path = tmp_path / "config.json"
    path.write_text('{"seeds": [1], "probe": {"rho": 0.05, "rho": 0.1}}')
    with pytest.raises(ConfigError, match="key 'rho' is given more than once"):
        harness.load_config(path)


def test_too_deeply_nested_config_exits_2_with_one_error_line(tmp_path, capsys):
    """json.load raises RecursionError past its nesting limit; the CLI
    reports it as a bad config, not with a traceback."""
    path = tmp_path / "config.json"
    path.write_text("[" * 200_000)
    assert cli.main(["train", "--config", str(path), "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: config file ") and err.count("\n") == 1
    assert "Traceback" not in err


def test_config_hash_stable_and_ignores_out_dir_and_seeds():
    a = small_config()
    b = small_config(seeds=(9,), out_dir="/somewhere/else")
    assert config_hash(a) == config_hash(b)
    assert config_hash(a) == config_hash(a)


def test_config_hash_pinned():
    # Changing this value re-keys every runs.csv row written so far.
    assert config_hash(parse_config(RAW)) == "5c78d379fa44c711"


def test_integer_literal_in_float_field_hashes_like_the_float():
    as_int = parse_config(dict(RAW, optimizer=dict(RAW["optimizer"], momentum=0)))
    as_float = parse_config(dict(RAW, optimizer=dict(RAW["optimizer"], momentum=0.0)))
    assert as_int == as_float
    assert type(as_int.optimizer.momentum) is float
    assert config_hash(as_int) == config_hash(as_float)


def test_config_hash_sensitive_to_optimizer():
    a = small_config()
    b = small_config(optimizer=OptimizerConfig(kind="sam", learning_rate=0.1,
                                               momentum=0.9, rho=0.05))
    assert config_hash(a) != config_hash(b)


# --- datasets ----------------------------------------------------------------

def test_build_dataset_split_and_noise_scope():
    cfg = DatasetConfig(generator="two_moons", n=100, noise_sd=0.2,
                        seed=3, train_fraction=0.6)
    train, test = build_dataset(cfg, 0.0)
    assert len(train) == 60 and len(test) == 40
    train_noisy, test_clean = build_dataset(cfg, 0.2)
    # noise only touches train labels; test split identical
    np.testing.assert_array_equal(test_clean.features, test.features)
    np.testing.assert_array_equal(test_clean.labels, test.labels)
    assert np.sum(train_noisy.labels != train.labels) == 12
    np.testing.assert_array_equal(train_noisy.features, train.features)


def test_build_dataset_deterministic():
    cfg = DatasetConfig(generator="two_moons", n=80, noise_sd=0.2, seed=3)
    a_train, a_test = build_dataset(cfg, 0.1)
    b_train, b_test = build_dataset(cfg, 0.1)
    np.testing.assert_array_equal(a_train.labels, b_train.labels)
    np.testing.assert_array_equal(a_test.features, b_test.features)


# --- training ----------------------------------------------------------------

def test_run_training_deterministic():
    cfg = small_config()
    a = run_training(prepare_task(cfg), cfg, 1)
    b = run_training(prepare_task(cfg), cfg, 1)
    ra, rb = run_row(cfg, a), run_row(cfg, b)
    ra.pop("wall_seconds"), rb.pop("wall_seconds")
    assert ra == rb
    np.testing.assert_array_equal(a.final_params.data, b.final_params.data)


def test_run_training_zero_epochs_probes_init():
    cfg = small_config(epochs=0)
    record = run_training(prepare_task(cfg), cfg, 1)
    assert record.grad_evals == 0
    assert np.isfinite(record.report.base_loss)
    assert np.isfinite(record.final_test_accuracy)


def test_final_values_match_forward_and_accuracy():
    """runs.csv's final_train_loss is the gradient kernel's loss at the
    final weights, the probes' base loss; the test values are one-point
    loss-only calls."""
    cfg = small_config(epochs=2)
    record = run_training(prepare_task(cfg), cfg, 1)
    task = prepare_task(cfg)
    flat = record.final_params.data
    assert run_row(cfg, record)["final_train_loss"].hex() == \
        network.loss_and_grad(task.spec, flat, task.train).value.hex()
    assert record.final_test_loss.hex() == network.forward(task.spec, flat, task.test).hex()
    assert record.final_test_accuracy.hex() == \
        network.loss_and_accuracy(task.spec, flat, task.test)[1].hex()


@pytest.mark.parametrize("epochs", [0, 3])
def test_run_is_evaluated_once_after_its_last_epoch(monkeypatch, epochs):
    """After the last epoch the test split is scored in `network.passes`'
    passes; outside `probes.build_report` no kernel call takes the whole
    train split."""
    cfg = small_config(epochs=epochs)
    task = prepare_task(cfg)
    calls = []  # (kernel, split, whether inside build_report) of each call
    in_report = []

    def split(batch):
        for name, whole in (("train", task.train), ("test", task.test)):
            if np.array_equal(batch.features, whole.features):
                return name
        return "minibatch"

    def counted(name, kernel):
        def entry(spec, params, batch, *args, **kwargs):
            calls.append((name, split(batch), bool(in_report)))
            return kernel(spec, params, batch, *args, **kwargs)
        return entry

    def reporting(*args, _f=probes.build_report, **kwargs):
        in_report.append(None)
        try:
            return _f(*args, **kwargs)
        finally:
            in_report.pop()

    for name in ("forward", "loss_and_grad", "loss_and_accuracy", "accuracy"):
        monkeypatch.setattr(network, name, counted(name, getattr(network, name)))
    monkeypatch.setattr(probes, "build_report", reporting)
    run_training(task, cfg, 1)
    assert [(name, where) for name, where, inside in calls if not inside and where != "minibatch"] \
        == [("loss_and_accuracy", "test")] * len(network.passes(task.spec, task.test, 1))
    assert ("loss_and_grad", "train", True) in calls


def test_grad_eval_accounting_all_optimizers():
    # 60 train examples, batch 20 -> 3 batches/epoch, 2 epochs -> 6 batches
    expectations = {
        ("sgd", 1): 6,
        ("sam", 1): 12,
        ("rand_sam", 1): 12,
        ("sam_ga", 3): 24,  # (3+1) per batch
    }
    for (kind, n), expected in expectations.items():
        opt = OptimizerConfig(kind=kind, learning_rate=0.1, momentum=0.9,
                              rho=0.05, ga_steps=n)
        cfg = small_config(optimizer=opt)
        record = run_training(prepare_task(cfg), cfg, 1)
        assert record.grad_evals == expected, kind


def test_record_grad_evals_sum_their_step_reports(monkeypatch):
    groups = []  # per training group, in call order: [its states list, each run's sum]
    step_rows = optimizers.step_rows

    def summed(spec, rows, batch, configs, states):
        new, reports = step_rows(spec, rows, batch, configs, states)
        if not groups or groups[-1][0] is not states:
            groups.append([states, [0] * len(reports)])
        groups[-1][1] = [n + report.grad_evals for n, report in zip(groups[-1][1], reports)]
        return new, reports
    monkeypatch.setattr(optimizers, "step_rows", summed)

    common = dict(learning_rate=0.1, momentum=0.9, rho=0.05)
    sweep = [OptimizerConfig(kind="sgd", **common), OptimizerConfig(kind="sam", **common),
             OptimizerConfig(kind="sam_ga", ga_steps=3, **common)]
    suites = compare_optimizers(small_config(), sweep)  # one lockstep group per seed
    assert [[suite.records[g].grad_evals for suite in suites] for g in range(2)] == \
        [sums for _, sums in groups] == [[6, 12, 24]] * 2

    groups.clear()
    suite = run_suite(small_config(optimizer=sweep[1]))  # one row a group: `step`
    assert [r.grad_evals for r in suite.records] == [sums[0] for _, sums in groups] == [12, 12]


def test_reference_accuracy_floor_two_moons_sgd():
    """Width-16 net on clean two-moons must clear 85% test accuracy."""
    cfg = small_config(
        dataset=DatasetConfig(generator="two_moons", n=2000, noise_sd=0.2,
                              seed=0, train_fraction=0.5),
        model=ModelConfig(kind="mlp", hidden=(16,)),
        optimizer=OptimizerConfig(kind="sgd", learning_rate=0.1, momentum=0.9),
        epochs=50,
        batch_size=32,
        seeds=(1,),
        label_noise_fraction=0.0,
    )
    record = run_training(prepare_task(cfg), cfg, 1)
    assert record.final_test_accuracy > 0.85


def test_run_suite_collects_failures(monkeypatch):
    cfg = small_config(seeds=(1, 2, 3, 4))
    real = harness.run_training

    def flaky(task, config, seed):
        if seed == 2:
            raise SamLabError("synthetic blowup")
        if seed == 3:
            raise RuntimeError("synthetic bug")
        return real(task, config, seed)

    monkeypatch.setattr(harness, "run_training", flaky)
    for jobs in (1, 2):  # pool workers are forked, so they see the patch too
        suite = run_suite(cfg, jobs=jobs)
        assert [r.seed for r in suite.records] == [1, 4]
        assert [(f.seed, f.error) for f in suite.failures] == [
            (2, "SamLabError: synthetic blowup"), (3, "RuntimeError: synthetic bug")]
        assert summary(suite)["seed_count"] == 2
        assert summary(suite)["failed_count"] == 2


def test_compare_single_optimizer_equals_run_suite():
    cfg = small_config()
    direct = run_suite(cfg)
    compared, = compare_optimizers(cfg, [cfg.optimizer])
    da = [run_row(direct.config, r) for r in direct.records]
    ca = [run_row(compared.config, r) for r in compared.records]
    for x, y in zip(da, ca):
        x.pop("wall_seconds"), y.pop("wall_seconds")
    assert da == ca


def test_compare_rejects_empty_list():
    with pytest.raises(ConfigError):
        compare_optimizers(small_config(), [])


def test_compare_rejects_repeated_labels():
    sam = OptimizerConfig(kind="sam", learning_rate=0.1, rho=0.05)
    with pytest.raises(ConfigError, match="'sam' appears more than once"):
        compare_optimizers(small_config(), [sam, OptimizerConfig(kind="sam", learning_rate=0.1, rho=0.5)])
    with pytest.raises(ConfigError, match="'sam' appears more than once"):
        parse_config(dict(RAW, optimizers=[dict(RAW["optimizer"], kind="sam")] * 2))


def test_training_a_quadratic_model_raises_before_any_run(monkeypatch):
    def no_run(task, config, *seed):  # run_training, and _train with its sweep
        raise AssertionError("a run started")

    monkeypatch.setattr(harness, "run_training", no_run)
    monkeypatch.setattr(harness, "_train", no_run)
    cfg = small_config(model=ModelConfig(kind="quadratic", diag=(1.0, 1.0)))
    with pytest.raises(ConfigError, match="training needs model kind 'mlp'"):
        run_suite(cfg)
    with pytest.raises(ConfigError, match="training needs model kind 'mlp'"):
        compare_optimizers(cfg, [cfg.optimizer, OptimizerConfig(kind="sam", learning_rate=0.1)])


# --- lockstep groups ------------------------------------------------------------

def _sweep(**overrides):
    common = dict(learning_rate=0.1, momentum=0.9, weight_decay=0.001, rho=0.05)
    common.update(overrides)
    return [OptimizerConfig(kind="sgd", **common), OptimizerConfig(kind="sam", **common),
            OptimizerConfig(kind="rand_sam", **common),
            OptimizerConfig(kind="sam_ga", ga_steps=1, **common),
            OptimizerConfig(kind="sam_ga", ga_steps=3, **common)]


def _output_bytes(out_dir):
    """Every output file's bytes, runs.csv without its wall_seconds column."""
    files = {p.relative_to(out_dir).as_posix(): p.read_bytes()
             for p in sorted(out_dir.rglob("*")) if p.is_file()}
    lines = files.pop("runs.csv").decode().splitlines()
    assert lines[0].endswith(",wall_seconds")
    files["runs.csv"] = [line.rsplit(",", 1)[0] for line in lines]
    return files


@pytest.mark.parametrize("jobs", [1, 2])
@pytest.mark.parametrize("activation, head", [("relu", "softmax_ce"), ("tanh", "mse")])
def test_lockstep_compare_equals_one_suite_per_optimizer(tmp_path, monkeypatch,
                                                        activation, head, jobs):
    cfg = small_config(model=ModelConfig(kind="mlp", hidden=(6, 5), activation=activation,
                                         head=head), epochs=3)
    sweep = _sweep()
    alone = [run_suite(harness._single(cfg, opt)) for opt in sweep]
    emit_outputs(tmp_path / "alone", alone)

    def no_single_run(task, config, seed):
        raise AssertionError("a lockstep group fell back to single runs")

    monkeypatch.setattr(harness, "run_training", no_single_run)  # forked workers too
    lockstep = compare_optimizers(cfg, sweep, jobs=jobs)
    emit_outputs(tmp_path / "lockstep", lockstep)
    assert [s.config.optimizer.label for s in lockstep] == [opt.label for opt in sweep]
    assert [s.config for s in lockstep] == [s.config for s in alone]
    assert _output_bytes(tmp_path / "lockstep") == _output_bytes(tmp_path / "alone")
    for a, b in zip(alone, lockstep):
        for x, y in zip(a.records, b.records):
            assert (x.final_test_loss, x.final_test_accuracy) == \
                (y.final_test_loss, y.final_test_accuracy)
            assert x.report == y.report


def test_lockstep_group_shares_its_wall_time():
    cfg = small_config(optimizer_sweep=tuple(_sweep()[:3]))
    records = harness.train_group(prepare_task(cfg), cfg, 1)
    assert len({r.wall_seconds for r in records}) == 1
    assert records[0].wall_seconds > 0.0


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
def test_lockstep_failing_run_fails_alone(tmp_path):
    sweep = _sweep()
    sweep[2] = OptimizerConfig(kind="rand_sam", learning_rate=1e300, rho=0.05)
    cfg = small_config()
    alone = [run_suite(harness._single(cfg, opt)) for opt in sweep]
    assert [len(s.failures) for s in alone] == [0, 0, 2, 0, 0]
    lockstep = compare_optimizers(cfg, sweep)
    assert [(f.seed, f.optimizer_label, f.error) for f in lockstep[2].failures] == \
        [(f.seed, f.optimizer_label, f.error) for f in alone[2].failures]
    assert lockstep[2].failures[0].error.startswith("NumericError")
    emit_outputs(tmp_path / "alone", alone)
    emit_outputs(tmp_path / "lockstep", lockstep)
    assert _output_bytes(tmp_path / "lockstep") == _output_bytes(tmp_path / "alone")


def test_lockstep_group_programming_error_propagates(monkeypatch):
    """Only a SamLabError sends a group's runs to train alone: any other
    error is a fault of the group path and raises, rather than hide behind
    runs retrained alone with the same bytes."""
    def broken(model_spec, batch, generators):
        raise TypeError("lockstep() got an unexpected keyword argument")

    monkeypatch.setattr(optimizers, "lockstep", broken)
    cfg = small_config(optimizer_sweep=tuple(_sweep()[:3]))
    with pytest.raises(TypeError, match="unexpected keyword"):
        harness.train_group(prepare_task(cfg), cfg, 1)


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
def test_data_is_prepared_once_per_call_in_the_calling_process(tmp_path, monkeypatch):
    """Each entry point builds the dataset once, in its own process, for any
    seed count and pool size; pool workers inherit it. The pids go to a file
    because forked workers' writes to a list would be lost."""
    log = tmp_path / "build_dataset.pids"
    real = harness.build_dataset

    def counted(cfg, label_noise_fraction):
        with open(log, "a", encoding="utf-8") as fh:
            fh.write(f"{os.getpid()}\n")
        return real(cfg, label_noise_fraction)

    def builders(call):
        log.write_text("")
        result = call()
        return log.read_text().split(), result

    monkeypatch.setattr(harness, "build_dataset", counted)
    me = [str(os.getpid())]
    cfg = small_config(seeds=(1, 2, 3))
    for jobs in (1, 2):
        pids, suites = builders(lambda: compare_optimizers(cfg, _sweep()[:3], jobs=jobs))
        assert pids == me
        assert [len(s.records) for s in suites] == [3, 3, 3]
    pids, suite = builders(lambda: run_suite(cfg, jobs=2))
    assert pids == me and len(suite.records) == 3
    sweep = _sweep()
    sweep[2] = OptimizerConfig(kind="rand_sam", learning_rate=1e300, rho=0.05)
    pids, suites = builders(lambda: compare_optimizers(small_config(), sweep))
    assert pids == me and [len(s.failures) for s in suites] == [0, 0, 2, 0, 0]
    path = tmp_path / "w.ckpt"
    checkpoint.save(path, suite.records[0].final_params)
    assert builders(lambda: probe_checkpoint(path, cfg))[0] == me
    assert builders(lambda: harness.slice_checkpoint(path, cfg))[0] == me


# --- stacking budget ------------------------------------------------------------

def _record_stack_sizes(monkeypatch):
    """Wrap the kernel's evaluation entry points and its forward pass to
    record, per pass, (entry point, rows, rows x pass batch rows x widest
    layer); a vector is one row."""
    sizes, calls = [], []

    def recorded(spec, flat, features, w_bound, x_bound, _f=network._mlp_pass):
        rows = len(flat) if flat.ndim == 2 else 1
        sizes.append((calls[-1], rows, rows * features.shape[0] * max(spec.widths)))
        return _f(spec, flat, features, w_bound, x_bound)
    monkeypatch.setattr(network, "_mlp_pass", recorded)
    for name in ("forward", "loss_and_grad", "loss_and_accuracy"):
        def entry(spec, params, batch, _f=getattr(network, name), _name=name):
            calls.append(_name)
            try:
                return _f(spec, params, batch)
            finally:
                calls.pop()
        monkeypatch.setattr(network, name, entry)
    return sizes


def _over_budget(sizes, budget):
    """The recorded passes above `budget` that the budget allows none of:
    only a one-row pass may pass it, since every call is one pass over its
    whole batch."""
    return [(name, rows, n) for name, rows, n in sizes if n > budget and rows > 1]


def test_every_stacked_kernel_call_keeps_to_the_budget(tmp_path, monkeypatch):
    """A compare of 5 runs on 500 train and 1,500 test rows, then a probe and
    a slice of one of its checkpoints: every kernel pass holds at most
    network.STACK_ELEMENTS activation elements, or is one row."""
    cfg = small_config(dataset=DatasetConfig(generator="two_moons", n=2000, noise_sd=0.2,
                                             seed=5, train_fraction=0.25),
                       model=ModelConfig(kind="mlp", hidden=(32,)), epochs=1, batch_size=32,
                       seeds=(1,))
    sizes = _record_stack_sizes(monkeypatch)
    emit_outputs(tmp_path, compare_optimizers(cfg, _sweep()))
    probe_checkpoint(tmp_path / "checkpoints" / "sam_seed1.ckpt", cfg)
    harness.slice_checkpoint(tmp_path / "checkpoints" / "sam_seed1.ckpt", cfg)
    assert _over_budget(sizes, network.STACK_ELEMENTS) == []
    assert {1, 4, 5} <= {rows for _, rows, _ in sizes}  # 5 runs a step, 4 probe points a call


def test_loss_only_calls_keep_to_the_budget_on_a_wide_split(tmp_path, monkeypatch):
    """A [128, 128] model on 1,000 train and 3,000 test rows: one row of the
    test split is 5.9 times network.STACK_ELEMENTS, so the final evaluation
    takes it one row a pass, and only one-row passes (that evaluation's, the
    probes' and the slice's) pass the budget."""
    cfg = small_config(dataset=DatasetConfig(generator="two_moons", n=4000, noise_sd=0.2,
                                             seed=5, train_fraction=0.25),
                       model=ModelConfig(kind="mlp", hidden=(128, 128)), epochs=1,
                       batch_size=100, seeds=(1,),
                       probe=ProbeConfig(rho=0.05, restarts=1, inner_steps=2, n_samples=2),
                       slice_plane=harness.SliceConfig(n_points=2))
    sizes = _record_stack_sizes(monkeypatch)
    emit_outputs(tmp_path, compare_optimizers(cfg, _sweep()[:2]))
    harness.slice_checkpoint(tmp_path / "checkpoints" / "sam_seed1.ckpt", cfg)
    assert _over_budget(sizes, network.STACK_ELEMENTS) == []
    assert ("loss_and_accuracy", 1, 3000 * 128) in sizes
    assert ("loss_and_grad", 1, 1000 * 128) in sizes


@pytest.mark.parametrize("budget, k", [(2 * 20 * 6, 2), (3 * 60 * 6, 3)],
                         ids=["steps_of_2", "passes_of_3"])
def test_compare_under_a_tight_budget_equals_one_suite_per_optimizer(tmp_path, monkeypatch,
                                                                     budget, k):
    """The budget caps a lockstep step at 2 of the 5 runs (20-row minibatches
    through 6 units), or the final evaluation at 3 rows a pass (a 60-row
    test split); the runs keep the bytes they get alone, and runs.csv's
    final_train_loss is each report's base loss, byte for byte."""
    cfg = small_config(model=ModelConfig(kind="mlp", hidden=(6, 5)), epochs=3)
    sweep = _sweep()
    emit_outputs(tmp_path / "alone", [run_suite(harness._single(cfg, opt)) for opt in sweep])
    monkeypatch.setattr(network, "STACK_ELEMENTS", budget)
    sizes = _record_stack_sizes(monkeypatch)
    tight = compare_optimizers(cfg, sweep)
    emit_outputs(tmp_path / "tight", tight)
    assert _output_bytes(tmp_path / "tight") == _output_bytes(tmp_path / "alone")
    assert _over_budget(sizes, budget) == []
    assert k in {rows for _, rows, _ in sizes}
    with open(tmp_path / "tight" / "runs.csv", newline="") as fh:
        column = [row["final_train_loss"] for row in csv.DictReader(fh)]
    assert column == [repr(run.report.base_loss) for suite in tight for run in suite.records]


# --- aggregation --------------------------------------------------------------

def fabricate_record(seed, value):
    report = SharpnessReport(
        base_loss=value, l_asc=value, l_avg_mean=value, l_avg_stderr=0.0,
        l_avg_samples=8, l_max_estimate=value, l_max_restarts=2,
        standardized_sharpness=0.0, generalization_gap=0.0, rho=0.05,
        data_scope="train")
    from samlab.params import LayoutEntry, ParameterVector
    vec = ParameterVector(np.zeros(1), (LayoutEntry("coords", (1,), 0),))
    return RunRecord(
        seed=seed, optimizer_label="sgd", final_test_loss=value,
        final_test_accuracy=value, report=report, grad_evals=1,
        wall_seconds=0.0, final_params=vec)


def fabricate_summary(records):
    return summary(harness.SuiteResult(small_config(), records, []))


def test_aggregate_known_mean_std():
    records = [fabricate_record(1, 96.4), fabricate_record(2, 96.6)]
    m = fabricate_summary(records)["metrics"]["test_accuracy"]
    assert m["mean"] == pytest.approx(96.5)
    assert m["std"] == pytest.approx(0.1414, abs=1e-3)


def test_aggregate_single_seed_std_not_applicable():
    metrics = fabricate_summary([fabricate_record(1, 5.0)])["metrics"]
    assert metrics["test_accuracy"]["mean"] == 5.0
    assert metrics["test_accuracy"]["std"] is None


def test_aggregate_constant_metrics_zero_std():
    records = [fabricate_record(s, 7.25) for s in (1, 2, 3)]
    assert fabricate_summary(records)["metrics"]["final_train_loss"]["std"] == 0.0


# --- emission -------------------------------------------------------------------

def test_emit_outputs_files_and_schema(tmp_path):
    cfg = small_config(out_dir=str(tmp_path))
    suite = run_suite(cfg)
    written = emit_outputs(tmp_path, [suite])
    with open(written["runs.csv"]) as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 2
    header = open(written["runs.csv"]).readline().rstrip("\n")
    assert header == ",".join(RUNS_CSV_COLUMNS)
    # aggregates recompute from runs.csv by an independent reader
    accs = np.array([float(r["test_accuracy"]) for r in rows])
    with open(written["summary.csv"]) as fh:
        srow, = list(csv.DictReader(fh))
    assert float(srow["test_accuracy_mean"]) == np.mean(accs)
    assert float(srow["test_accuracy_std"]) == np.std(accs, ddof=1)
    payload = json.loads((tmp_path / "summary.json").read_text())
    assert payload["aggregates"][0]["seed_count"] == 2


def test_every_output_file_is_written_by_replacing(tmp_path, monkeypatch):
    real = fileio.replacing
    targets = []

    def spy(path):
        targets.append(Path(path).relative_to(tmp_path).as_posix())
        return real(path)

    monkeypatch.setattr(fileio, "replacing", spy)
    written = emit_outputs(tmp_path, [run_suite(small_config())])
    slice_path = emit_slice(tmp_path, "plane", [0.0], [0.0, 1.0], np.zeros((1, 2)))
    assert sorted(targets) == sorted(list(written) + [slice_path.name])
    assert not list(tmp_path.rglob("*.tmp"))


def test_emit_outputs_empty_records_headers_only(tmp_path):
    cfg = small_config()
    suite = harness.SuiteResult(config=cfg, records=[], failures=[])
    written = emit_outputs(tmp_path, [suite])
    lines = open(written["runs.csv"]).read().splitlines()
    assert lines == [",".join(RUNS_CSV_COLUMNS)]


def test_emit_single_seed_summary_uses_marker(tmp_path):
    cfg = small_config(seeds=(1,))
    suite = run_suite(cfg)
    written = emit_outputs(tmp_path, [suite])
    with open(written["summary.csv"]) as fh:
        row, = list(csv.DictReader(fh))
    assert row["test_accuracy_std"] == "n/a"


def test_emit_slice_grid_rows(tmp_path):
    alphas = np.array([-1.0, 0.0, 1.0])
    betas = np.array([-1.0, 0.0, 1.0])
    losses = np.arange(9.0).reshape(3, 3)
    path = emit_slice(tmp_path, "demo", alphas, betas, losses)
    lines = open(path).read().splitlines()
    assert lines[0] == "alpha,beta,loss"
    assert len(lines) == 10


def test_emit_slice_to_a_name_no_file_name_can_hold_raises_samlab_error(tmp_path):
    with pytest.raises(SamLabError, match="^cannot write .*surrogates not allowed$"):
        emit_slice(tmp_path, "\ud800", [0.0], [0.0, 1.0], np.zeros((1, 2)))
    assert list(tmp_path.iterdir()) == []


def test_unwritable_out_dir_fails_before_training(tmp_path):
    blocker = tmp_path / "a_file"
    blocker.write_text("x")
    with pytest.raises(SamLabError):
        outputs.prepare_out_dir(blocker / "sub")


# --- checkpoint probing -----------------------------------------------------------

def test_probe_checkpoint_matches_training_report(tmp_path):
    cfg = small_config(out_dir=str(tmp_path))
    suite = run_suite(cfg)
    emit_outputs(tmp_path, [suite])
    record = suite.records[0]
    path = tmp_path / "checkpoints" / f"sgd_seed{record.seed}.ckpt"
    report = probe_checkpoint(path, small_config(seeds=(record.seed,)))
    assert report.l_asc == record.report.l_asc
    assert report.standardized_sharpness == record.report.standardized_sharpness


def test_probe_checkpoint_twice_identical(tmp_path):
    cfg = small_config()
    record = run_training(prepare_task(cfg), cfg, 1)
    path = tmp_path / "w.ckpt"
    checkpoint.save(path, record.final_params)
    a = probe_checkpoint(path, cfg)
    b = probe_checkpoint(path, cfg)
    assert a == b


def test_probe_checkpoint_evaluates_w_on_the_train_batch_once(tmp_path, monkeypatch):
    """One evaluation at w on the train batch gives the train loss and the
    report's base; the test split is evaluated apart."""
    cfg = small_config()
    record = run_training(prepare_task(cfg), cfg, 1)
    path = tmp_path / "w.ckpt"
    checkpoint.save(path, record.final_params)
    want = probe_checkpoint(path, cfg)
    w = record.final_params.data
    train_features = prepare_task(cfg).train.features
    at_w = []
    for name in ("forward", "loss_and_grad"):
        def spied(spec, points, batch, _f=getattr(network, name)):
            on_train = np.array_equal(batch.features, train_features)
            at_w.extend(on_train and np.array_equal(row, w)
                        for row in np.asarray(points).reshape(-1, w.size))
            return _f(spec, points, batch)
        monkeypatch.setattr(network, name, spied)
    got = probe_checkpoint(path, cfg)
    assert at_w.count(True) == 1
    assert got == want


def test_probe_checkpoint_layout_mismatch_lists_counts(tmp_path):
    cfg = small_config()
    record = run_training(prepare_task(cfg), cfg, 1)
    path = tmp_path / "w.ckpt"
    checkpoint.save(path, record.final_params)
    bigger = small_config(model=ModelConfig(kind="mlp", hidden=(32,)))
    with pytest.raises(LayoutError) as err:
        probe_checkpoint(path, bigger)
    assert err.value.expected_count == network.param_count(prepare_task(bigger).spec)
    assert err.value.found_count == len(record.final_params)


def test_slice_at_a_zero_gradient_point_takes_e0_as_direction_a(tmp_path):
    from samlab.params import LayoutEntry, ParameterVector
    path = tmp_path / "origin.ckpt"
    checkpoint.save(path, ParameterVector(np.zeros(2), (LayoutEntry("coords", (2,), 0),)))
    cfg = small_config(model=ModelConfig(kind="quadratic", diag=(2.0, 3.0), offset=0.75),
                       slice_plane=harness.SliceConfig(extent=1.0, n_points=5))
    _, alphas, betas, losses = harness.slice_checkpoint(path, cfg)
    centre = list(betas).index(0.0)
    # Along e0 alone the loss is offset + 0.5 * diag[0] * alpha^2.
    np.testing.assert_allclose(losses[:, centre], 0.75 + 0.5 * 2.0 * np.asarray(alphas) ** 2,
                               rtol=1e-15)
    assert losses[list(alphas).index(0.0), centre] == 0.75


def test_probe_handwritten_quadratic_checkpoint(tmp_path):
    from samlab.params import LayoutEntry, ParameterVector
    vec = ParameterVector(np.array([1.0, 0.0]), (LayoutEntry("coords", (2,), 0),))
    path = tmp_path / "quad.ckpt"
    checkpoint.save(path, vec)
    cfg = small_config(model=ModelConfig(kind="quadratic", diag=(1.0, 1.0)),
                       probe=ProbeConfig(rho=0.05, restarts=4, inner_steps=20,
                                         n_samples=64))
    report = probe_checkpoint(path, cfg)
    assert report.base_loss == pytest.approx(0.5, rel=1e-12)
    assert report.l_asc == pytest.approx(0.55125, rel=1e-12)
    assert report.l_max_estimate == pytest.approx(0.55125, abs=1e-9)
    assert report.standardized_sharpness == pytest.approx(0.05125, rel=1e-9)


# --- parallel execution -----------------------------------------------------------

def test_parallel_jobs_bitwise_match_sequential():
    cfg = small_config(seeds=(1, 2, 3))
    seq = run_suite(cfg, jobs=1)
    par = run_suite(cfg, jobs=3)
    for a, b in zip(seq.records, par.records):
        ra, rb = run_row(cfg, a), run_row(cfg, b)
        ra.pop("wall_seconds"), rb.pop("wall_seconds")
        assert ra == rb
        np.testing.assert_array_equal(a.final_params.data, b.final_params.data)


def test_jobs_start_at_most_one_worker_per_seed(tmp_path, monkeypatch):
    """A forked pool starts all its workers at once, so a --jobs far above the
    seed count must not become that many processes. An in-process stand-in
    for the pool records its size and starts none."""
    workers = []

    class InProcessPool:
        def __init__(self, max_workers, initializer, initargs):
            workers.append(max_workers)
            initializer(*initargs)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def submit(self, fn, *args):
            future = Future()
            future.set_result(fn(*args))
            return future

    monkeypatch.setattr("concurrent.futures.process.ProcessPoolExecutor", InProcessPool)
    monkeypatch.setattr(harness, "_worker_task", None)
    cfg = small_config()
    emit_outputs(tmp_path / "many", compare_optimizers(cfg, _sweep()[:2], jobs=10 ** 6))
    assert workers == [2]
    emit_outputs(tmp_path / "one", compare_optimizers(cfg, _sweep()[:2], jobs=1))
    assert workers == [2]
    assert _output_bytes(tmp_path / "many") == _output_bytes(tmp_path / "one")


_TRAIN_SEED = harness._train_seed


def _train_seed_killed_on_seed_3(work):
    if work[1] == 3:
        os.kill(os.getpid(), signal.SIGKILL)
    return _TRAIN_SEED(work)


@pytest.mark.skipif(multiprocessing.get_start_method() != "fork",
                    reason="only a forked worker sees the patched _train_seed")
def test_killed_pool_worker_fails_its_seeds_and_keeps_the_finished_ones(monkeypatch):
    """A worker killed by a signal breaks the pool. Each seed without a
    result is trained once more in a fresh pool of its own, so only the
    killed seed, which breaks that pool too, becomes a FailedRun; every
    other seed keeps the row it gets at jobs=1."""
    cfg = small_config(seeds=(1, 2, 3, 4))
    expected = {r.seed: run_row(cfg, r) for r in run_suite(cfg, jobs=1).records}
    monkeypatch.setattr(harness, "_train_seed", _train_seed_killed_on_seed_3)
    suite = run_suite(cfg, jobs=2)
    assert [r.seed for r in suite.records] == [1, 2, 4]
    assert [f.seed for f in suite.failures] == [3]
    assert all(f.optimizer_label == "sgd" and f.error.startswith("BrokenProcessPool: ")
               for f in suite.failures)
    assert summary(suite)["failed_count"] == len(suite.failures)
    for record in suite.records:
        row = run_row(cfg, record)
        row.pop("wall_seconds"), expected[record.seed].pop("wall_seconds")
        assert row == expected[record.seed]


def test_importing_samlab_loads_no_pool_machinery():
    """`concurrent.futures` loads `logging` too, a few ms at every start;
    only a pool needs them, so they are imported where the pool starts."""
    src = Path(__file__).resolve().parent.parent / "src"
    probe = "import sys, samlab; print(sorted({'concurrent.futures', 'logging'} & set(sys.modules)))"
    done = subprocess.run([sys.executable, "-c", probe], env={**os.environ, "PYTHONPATH": str(src)},
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout == "[]\n"


FAULTS_PER_CALL = """
import resource
import numpy as np
from samlab import harness, network
from samlab.data import Dataset
harness.setup_process()
spec = network.MlpSpec(16, (128, 128), 8, "tanh", "mse")
rng = np.random.default_rng(0)
params = network.init_params(spec, rng).data
batch = network.check_batch(spec, Dataset(rng.standard_normal((1000, 16)),
                                          rng.integers(0, 8, 1000), 8))
for _ in range(2):
    network.loss_and_grad(spec, params, batch)
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
for _ in range(20):
    network.loss_and_grad(spec, params, batch)
print((resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before) / 20)
"""


def test_setup_process_lets_the_kernel_reuse_freed_memory_without_faults():
    """After `setup_process`, a warm `loss_and_grad` at batch 1,000 takes its
    fresh arrays from freed heap memory: no page faults. With glibc's default
    thresholds each call faults about 1,000 pages in, which no byte test can
    see. Runs in a fresh interpreter, whose heap no other test has grown."""
    if platform.libc_ver()[0] != "glibc":
        pytest.skip("not glibc: its mallopt is missing or ignores these thresholds, "
                    "so setup_process leaves malloc as it is")
    src = Path(__file__).resolve().parent.parent / "src"
    env = {**os.environ, "PYTHONPATH": str(src)}
    done = subprocess.run([sys.executable, "-c", FAULTS_PER_CALL], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert float(done.stdout.split()[-1]) <= 1.0
