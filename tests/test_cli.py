import csv
import json
import os
import struct
import subprocess
import sys
from pathlib import Path

import pytest

import samlab
from samlab import cli, data, fileio, harness


def write_config(tmp_path, **overrides):
    cfg = {
        "dataset": {"generator": "two_moons", "n": 120, "noise_sd": 0.2,
                    "seed": 5, "train_fraction": 0.5},
        "label_noise_fraction": 0.1,
        "model": {"kind": "mlp", "hidden": [6]},
        "optimizer": {"kind": "sgd", "learning_rate": 0.1, "momentum": 0.9},
        "optimizers": [
            {"kind": "sgd", "learning_rate": 0.1, "momentum": 0.9},
            {"kind": "sam", "learning_rate": 0.1, "momentum": 0.9, "rho": 0.05},
        ],
        "epochs": 2,
        "batch_size": 20,
        "seeds": [1, 2],
        "probe": {"rho": 0.05, "restarts": 2, "inner_steps": 4, "n_samples": 8},
    }
    cfg.update(overrides)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg))
    return path


def test_train_writes_outputs(tmp_path, capsys):
    config = write_config(tmp_path)
    out = tmp_path / "out"
    code = cli.main(["train", "--config", str(config), "--out", str(out)])
    assert code == 0
    assert (out / "runs.csv").exists()
    assert (out / "summary.csv").exists()
    assert (out / "summary.json").exists()
    with open(out / "runs.csv") as fh:
        rows = list(csv.DictReader(fh))
    assert [r["seed"] for r in rows] == ["1", "2"]
    assert all(r["optimizer"] == "sgd" for r in rows)


def test_seeds_flag_overrides_config(tmp_path):
    config = write_config(tmp_path)
    out = tmp_path / "out"
    code = cli.main(["train", "--config", str(config), "--out", str(out),
                     "--seeds", "11,12,13"])
    assert code == 0
    with open(out / "runs.csv") as fh:
        rows = list(csv.DictReader(fh))
    assert [r["seed"] for r in rows] == ["11", "12", "13"]


@pytest.mark.parametrize("seeds", ["-1", "1,18446744073709551617"])
def test_seeds_flag_outside_64_bits_exits_2_before_out_dir(tmp_path, capsys, seeds):
    config = write_config(tmp_path)
    out = tmp_path / "out"
    code = cli.main(["train", "--config", str(config), "--out", str(out), f"--seeds={seeds}"])
    assert code == 2
    assert capsys.readouterr().err.startswith("error: config: run seed must be in [0, 2**64)")
    assert not out.exists()


def test_compare_emits_one_summary_row_per_optimizer(tmp_path):
    config = write_config(tmp_path)
    out = tmp_path / "out"
    code = cli.main(["compare", "--config", str(config), "--out", str(out)])
    assert code == 0
    with open(out / "summary.csv") as fh:
        rows = list(csv.DictReader(fh))
    assert [r["optimizer"] for r in rows] == ["sgd", "sam"]
    with open(out / "runs.csv") as fh:
        runs = list(csv.DictReader(fh))
    assert len(runs) == 4


def test_unknown_config_key_exits_2(tmp_path, capsys):
    config = write_config(tmp_path, typo_key=1)
    code = cli.main(["train", "--config", str(config), "--out", str(tmp_path / "o")])
    assert code == 2
    assert "typo_key" in capsys.readouterr().err


@pytest.mark.parametrize("overrides", [
    {"model": {"kind": "mlp", "hidden": [6], "activation": "sigmoid"}},
    {"model": {"kind": "mlp", "hidden": [6], "head": "hinge"}},
    {"epochs": "ten"},
    {"model": {"kind": "mlp", "hidden": "ab"}},
    {"model": {"kind": "mlp", "hidden": [0]}},
    {"model": {"kind": "mlp", "hidden": "32"}},
    {"seeds": "12"},
    {"epochs": 2.7},
    {"optimizer": {"kind": "sgd", "learning_rate": True}},
    {"optimizer": {"kind": "sam", "learning_rate": 0.1, "rho": float("nan")}},
    {"optimizer": {"kind": "sam_ga", "learning_rate": 0.1, "ga_steps": 2.5}},
    {"optimizers": {"kind": "sgd", "learning_rate": 0.1}},
    {"dataset": {"generator": "two_moons", "n": "60"}},
    {"dataset": {"generator": "two_moons", "n": 1}},
    {"dataset": {"generator": "two_moons", "seed": -1}},
    {"dataset": {"generator": "two_moons", "train_fraction": 1.5}},
    {"dataset": {"generator": "two_moons", "noise_sd": -1}},
    {"dataset": {"generator": "gaussian_blobs", "centers": [[0.0, 1.0]]}},
    {"dataset": {"generator": "gaussian_blobs", "centers": [[0.0, 1.0], [1.0]]}},
    {"dataset": {"generator": "gaussian_blobs", "centers": [[], []]}},
    {"dataset": {"generator": "gaussian_blobs", "centers": [[0.0], [1.0]],
                 "center_sd": -1}},
    {"dataset": {"generator": "two_moons", "test_images": "missing.idx",
                 "test_labels": "missing.idx"}},
    {"dataset": {"generator": "two_moons", "images": "missing.idx"}},
    {"dataset": {"generator": "two_moons", "centers": [[0.0], [1.0]]}},
    {"dataset": {"generator": "gaussian_blobs", "centers": [[0.0], [1.0]],
                 "labels": "missing.idx"}},
    {"model": {"kind": "quadratic", "diag": []}},
    {"optimizers": [{"kind": "sam", "learning_rate": 0.1, "rho": 0.05},
                    {"kind": "sam", "learning_rate": 0.1, "rho": 0.5}]},
    {"dataset": {"generator": "gaussian_blobs", "centers": [[0.0], [1.0]], "noise_sd": 5.0}},
    {"optimizer": {"kind": "sgd", "learning_rate": 0.1, "rho": 0.3}},
    # A str is JSON text put first in the config object, ahead of the valid
    # value of the key it repeats (a dict cannot hold a key twice).
    pytest.param('"epochs": 7', id="repeated_key"),
    pytest.param('"probe": {"rho": 0.05, "rho": 0.05}', id="repeated_nested_key"),
])
def test_bad_config_value_exits_2_before_out_dir(tmp_path, capsys, overrides):
    if isinstance(overrides, str):
        config = write_config(tmp_path)
        config.write_text(config.read_text().replace("{", "{" + overrides + ", ", 1))
    else:
        config = write_config(tmp_path, **overrides)
    out = tmp_path / "o"
    code = cli.main(["train", "--config", str(config), "--out", str(out)])
    assert code == 2
    assert capsys.readouterr().err.startswith("error: ")
    assert not out.exists()


@pytest.mark.parametrize("command", ["train", "compare"])
def test_repeated_sweep_label_exits_2_naming_it(tmp_path, capsys, command):
    # Two runs labelled "sam" would write one checkpoint and two
    # indistinguishable summary rows.
    config = write_config(tmp_path, optimizers=[
        {"kind": "sgd", "learning_rate": 0.1},
        {"kind": "sam_ga", "learning_rate": 0.1, "ga_steps": 2, "rho": 0.05},
        {"kind": "sam_ga", "learning_rate": 0.1, "ga_steps": 2, "rho": 0.5}])
    out = tmp_path / "o"
    assert cli.main([command, "--config", str(config), "--out", str(out)]) == 2
    assert "'sam_ga2' appears more than once" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command", ["train", "compare"])
def test_training_a_quadratic_model_exits_2_before_out_dir(tmp_path, capsys, command):
    config = write_config(tmp_path, model={"kind": "quadratic", "diag": [1.0, 2.0]})
    out = tmp_path / "o"
    assert cli.main([command, "--config", str(config), "--out", str(out)]) == 2
    assert "training needs model kind 'mlp'" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("key", ["images", "labels", "test_images", "test_labels", "dir"])
def test_missing_idx_file_exits_2_before_out_dir(tmp_path, capsys, key):
    files = {"images": struct.pack(">IIII", data.IDX_IMAGE_MAGIC, 2, 1, 2) + bytes(4),
             "labels": struct.pack(">II", data.IDX_LABEL_MAGIC, 2) + bytes(2)}
    paths = {}
    for prefix in ("", "test_"):
        for name, content in files.items():
            path = tmp_path / f"{prefix}{name}.idx"
            path.write_bytes(content)
            paths[prefix + name] = str(path)
    if key == "dir":
        key = "images"
        paths[key] = str(tmp_path)
    else:
        paths[key] = str(tmp_path / "absent.idx")
    config = write_config(tmp_path, dataset={"generator": "idx", **paths})
    out = tmp_path / "o"
    code = cli.main(["train", "--config", str(config), "--out", str(out)])
    assert code == 2
    assert f"{key!r} is not a file" in capsys.readouterr().err
    assert not out.exists()


def _idx_images(n, magic=data.IDX_IMAGE_MAGIC, extra=b""):
    """n images of 1x2 pixels, then `extra`."""
    return struct.pack(">IIII", magic, n, 1, 2) + bytes(range(2 * n)) + extra


def _idx_labels(labels):
    return struct.pack(">II", data.IDX_LABEL_MAGIC, len(labels)) + bytes(labels)


BAD_IDX_DATA = {
    "bad magic": {"images": _idx_images(4, magic=0x999)},
    "truncated": {"images": _idx_images(4)[:-1]},
    "trailing bytes": {"images": _idx_images(4, extra=b"\0")},
    "test label outside the train classes": {"test_labels": _idx_labels([0, 5])},
}


@pytest.mark.parametrize("bad", sorted(BAD_IDX_DATA))
@pytest.mark.parametrize("command", ["train", "compare"])
def test_bad_data_exits_2_before_any_run(tmp_path, capsys, command, bad):
    files = {"images": _idx_images(4), "labels": _idx_labels([0, 1, 0, 1]),
             "test_images": _idx_images(2), "test_labels": _idx_labels([1, 0])}
    files.update(BAD_IDX_DATA[bad])
    paths = {}
    for key, content in files.items():
        path = tmp_path / f"{key}.idx"
        path.write_bytes(content)
        paths[key] = str(path)
    config = write_config(tmp_path, dataset={"generator": "idx", **paths},
                          batch_size=2, seeds=[1, 2])
    out = tmp_path / "o"
    assert cli.main([command, "--config", str(config), "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    assert not [p.name for p in out.rglob("*") if p.is_file()]


@pytest.mark.parametrize("command", ["probe", "slice"])
def test_unwritable_out_exits_2_before_any_compute(tmp_path, capsys, monkeypatch, command):
    calls = []
    for name in ("probe_checkpoint", "slice_checkpoint"):
        monkeypatch.setattr(harness, name, lambda *args, _name=name: calls.append(_name))
    config = write_config(tmp_path)
    blocker = tmp_path / "file"
    blocker.write_text("")
    code = cli.main([command, "--config", str(config), "--checkpoint", str(tmp_path / "x.ckpt"),
                     "--out", str(blocker / "out")])
    assert code == 2
    assert calls == []
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "not writable" in captured.err


@pytest.mark.parametrize("jobs", ["0", "-1"])
@pytest.mark.parametrize("command", ["train", "compare"])
def test_jobs_below_one_exits_2_before_out_dir(tmp_path, capsys, command, jobs):
    config = write_config(tmp_path)
    out = tmp_path / "o"
    argv = [command, "--config", str(config), "--out", str(out), "--jobs", jobs]
    assert cli.main(argv) == 2
    assert capsys.readouterr().err == f"error: --jobs must be >= 1, got {jobs}\n"
    assert not out.exists()


@pytest.mark.parametrize("jobs", ["0", "-1", "2"])
@pytest.mark.parametrize("command", ["probe", "slice"])
def test_probe_and_slice_have_no_jobs_option(tmp_path, capsys, command, jobs):
    """They run no pool, so argparse rejects --jobs at any value."""
    config = write_config(tmp_path)
    out = tmp_path / "o"
    with pytest.raises(SystemExit) as exited:
        cli.main([command, "--config", str(config), "--out", str(out), "--jobs", jobs,
                  "--checkpoint", str(tmp_path / "x.ckpt")])
    assert exited.value.code == 2
    assert f"unrecognized arguments: --jobs {jobs}" in capsys.readouterr().err
    assert not out.exists()


def test_missing_config_file_exits_2(tmp_path, capsys):
    code = cli.main(["train", "--config", str(tmp_path / "nope.json"),
                     "--out", str(tmp_path / "o")])
    assert code == 2


@pytest.mark.parametrize("make", [
    lambda path: path.mkdir(),
    lambda path: path.write_bytes(b"\xff{}"),  # not UTF-8
])
def test_unreadable_config_file_exits_2(tmp_path, capsys, make):
    path = tmp_path / "config.json"
    make(path)
    code = cli.main(["train", "--config", str(path), "--out", str(tmp_path / "o")])
    assert code == 2
    assert capsys.readouterr().err.startswith("error: ")


def test_train_without_out_dir_exits_2(tmp_path, capsys):
    config = write_config(tmp_path)
    code = cli.main(["train", "--config", str(config)])
    assert code == 2
    assert "output directory" in capsys.readouterr().err


def test_compare_requires_optimizers_list(tmp_path, capsys):
    cfg_path = tmp_path / "config.json"
    raw = json.loads(write_config(tmp_path).read_text())
    del raw["optimizers"]
    cfg_path.write_text(json.dumps(raw))
    code = cli.main(["compare", "--config", str(cfg_path),
                     "--out", str(tmp_path / "o")])
    assert code == 2


def test_probe_prints_report_json(tmp_path, capsys):
    config = write_config(tmp_path)
    out = tmp_path / "out"
    cli.main(["train", "--config", str(config), "--out", str(out), "--seeds", "1"])
    capsys.readouterr()
    ckpt = out / "checkpoints" / "sgd_seed1.ckpt"
    code = cli.main(["probe", "--config", str(config), "--checkpoint", str(ckpt)])
    assert code == 0
    report = json.loads(capsys.readouterr().out)
    assert "l_max_estimate" in report
    assert report["data_scope"] == "train"


def test_probe_report_is_written_by_replacing(tmp_path, capsys, monkeypatch):
    config = write_config(tmp_path)
    out = tmp_path / "out"
    cli.main(["train", "--config", str(config), "--out", str(out), "--seeds", "1"])
    capsys.readouterr()
    real, targets = fileio.replacing, []

    def spy(path):
        targets.append(path)
        return real(path)

    monkeypatch.setattr(fileio, "replacing", spy)
    code = cli.main(["probe", "--config", str(config), "--out", str(out),
                     "--checkpoint", str(out / "checkpoints" / "sgd_seed1.ckpt")])
    assert code == 0
    assert targets == [out / "probe_report.json"]
    assert json.loads(targets[0].read_text()) == json.loads(capsys.readouterr().out)


def test_slice_writes_grid(tmp_path):
    config = write_config(tmp_path, slice={"name": "around", "extent": 0.5,
                                           "n_points": 5})
    out = tmp_path / "out"
    cli.main(["train", "--config", str(config), "--out", str(out), "--seeds", "1"])
    ckpt = out / "checkpoints" / "sgd_seed1.ckpt"
    code = cli.main(["slice", "--config", str(config), "--checkpoint", str(ckpt),
                     "--out", str(out)])
    assert code == 0
    lines = (out / "slice_around.csv").read_text().splitlines()
    assert lines[0] == "alpha,beta,loss"
    assert len(lines) == 26


def test_slice_name_at_the_file_name_limit_is_written(tmp_path, capsys):
    # slice_<245 bytes>.csv is 255 bytes, the longest name the file system takes.
    name = "n" * 245
    config = write_config(tmp_path, slice={"name": name, "n_points": 2})
    out = tmp_path / "out"
    cli.main(["train", "--config", str(config), "--out", str(out), "--seeds", "1"])
    code = cli.main(["slice", "--config", str(config), "--out", str(out),
                     "--checkpoint", str(out / "checkpoints" / "sgd_seed1.ckpt")])
    assert code == 0, capsys.readouterr().err
    path = out / f"slice_{name}.csv"
    assert len(path.name.encode("utf-8")) == 255
    assert len(path.read_text().splitlines()) == 5
    assert not list(out.glob(".*.tmp"))


@pytest.mark.parametrize("name", ["", ".", "..", "x/y", "/abs", "a\0b", "n" * 246],
                         ids=["empty", "dot", "dotdot", "slash", "absolute", "nul", "too_long"])
def test_slice_name_that_is_no_file_name_exits_2_before_any_compute(
        tmp_path, capsys, monkeypatch, name):
    calls = []
    monkeypatch.setattr(harness, "slice_checkpoint", lambda *args: calls.append(args))
    config = write_config(tmp_path, slice={"name": name})
    out = tmp_path / "o"
    code = cli.main(["slice", "--config", str(config), "--checkpoint", str(tmp_path / "x.ckpt"),
                     "--out", str(out)])
    assert code == 2
    assert calls == []
    assert capsys.readouterr().err.startswith("error: config.slice: slice name must be")
    assert not out.exists()


@pytest.mark.parametrize("command, target", [("probe", "probe_report.json"),
                                             ("slice", "slice_plane.csv")])
def test_output_file_taken_by_a_directory_exits_2_without_traceback(
        tmp_path, capsys, command, target):
    config = write_config(tmp_path)
    out = tmp_path / "out"
    assert cli.main(["train", "--config", str(config), "--out", str(out), "--seeds", "1"]) == 0
    (out / target).mkdir()
    capsys.readouterr()
    code = cli.main([command, "--config", str(config), "--out", str(out),
                     "--checkpoint", str(out / "checkpoints" / "sgd_seed1.ckpt")])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: cannot write {out / target}: ")
    assert len(err.splitlines()) == 1 and "Traceback" not in err
    assert (out / target).is_dir() and not list(out.glob(".*.tmp"))


def test_cli_invocations_are_deterministic(tmp_path):
    config = write_config(tmp_path)
    out1, out2 = tmp_path / "o1", tmp_path / "o2"
    assert cli.main(["train", "--config", str(config), "--out", str(out1)]) == 0
    assert cli.main(["train", "--config", str(config), "--out", str(out2)]) == 0
    assert (out1 / "summary.csv").read_bytes() == (out2 / "summary.csv").read_bytes()

    def rows_sans_timing(path):
        with open(path) as fh:
            rows = list(csv.DictReader(fh))
        for row in rows:
            row.pop("wall_seconds")
        return rows

    assert rows_sans_timing(out1 / "runs.csv") == rows_sans_timing(out2 / "runs.csv")


@pytest.mark.parametrize("command", ["probe", "slice"])
def test_checkpoint_of_another_model_with_the_same_count_exits_2(tmp_path, capsys, command):
    # On 2 features and 2 classes, hidden [32] and [10, 10] both have 162
    # parameters: only the layout tells them apart.
    trained = write_config(tmp_path, model={"kind": "mlp", "hidden": [32]})
    out = tmp_path / "out"
    assert cli.main(["train", "--config", str(trained), "--out", str(out), "--seeds", "1"]) == 0
    other = tmp_path / "other"
    other.mkdir()
    config = write_config(other, model={"kind": "mlp", "hidden": [10, 10]})
    capsys.readouterr()
    code = cli.main([command, "--config", str(config), "--out", str(tmp_path / "o"),
                     "--checkpoint", str(out / "checkpoints" / "sgd_seed1.ckpt")])
    assert code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: checkpoint layout dense0.weight[2, 32]")
    assert "Traceback" not in captured.err


@pytest.mark.parametrize("command", ["train", "compare"])
def test_checkpoints_path_taken_by_a_file_exits_2_before_any_compute(
        tmp_path, capsys, monkeypatch, command):
    calls = []
    for name in ("run_suite", "compare_optimizers"):
        monkeypatch.setattr(harness, name, lambda *args, _name=name, **kwargs: calls.append(_name))
    config = write_config(tmp_path)
    out = tmp_path / "out"
    out.mkdir()
    (out / "checkpoints").write_text("")
    code = cli.main([command, "--config", str(config), "--out", str(out)])
    assert code == 2
    assert calls == []
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: output directory {out} is not writable")
    assert sorted(p.name for p in out.iterdir()) == ["checkpoints"]


@pytest.mark.parametrize("command", ["train", "compare"])
def test_output_write_failure_exits_2_without_traceback(tmp_path, capsys, monkeypatch, command):
    def fail(path, text):
        raise OSError(28, "No space left on device")

    monkeypatch.setattr(fileio, "write_text", fail)
    config = write_config(tmp_path, seeds=[1])
    code = cli.main([command, "--config", str(config), "--out", str(tmp_path / "out")])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error: cannot write outputs to ")
    assert "No space left on device" in err and "Traceback" not in err


IDX_DATASET = {"generator": "idx", "images": "train.idx", "labels": "train-labels.idx"}


@pytest.mark.parametrize("overrides, argv, message", [
    ({}, ["--seeds", "1,x"], "--seeds expects comma-separated integers, got '1,x'"),
    ({"epochs": -1}, [], "config: epochs must be >= 0, got -1"),
    ({"batch_size": 0}, [], "config: batch_size must be >= 1, got 0"),
    ({"label_noise_fraction": -0.1}, [], "config: label_noise_fraction must be in [0, 1), got -0.1"),
    ({"label_noise_fraction": 1}, [], "config: label_noise_fraction must be in [0, 1), got 1.0"),
    ("[1]", [], "config must be an object, got list"),
    ({"optimizer": None, "optimizers": None}, [],
     "config needs 'optimizer' or an 'optimizers' sweep"),
    ({"dataset": {"generator": "spiral"}}, [],
     "config.dataset: unknown dataset generator 'spiral'"),
    ({"dataset": {"generator": "idx", "images": "train.idx"}}, [],
     "config.dataset: idx dataset needs both 'images' and 'labels' paths"),
    ({"dataset": dict(IDX_DATASET, test_labels="test-labels.idx")}, [],
     "config.dataset: idx test set needs both 'test_images' and 'test_labels'"),
    ({"dataset": dict(IDX_DATASET, test_images="t.idx", test_labels="tl.idx",
                      train_fraction=0.25)}, [],
     "config.dataset: dataset key 'train_fraction' is not read by an idx dataset with "
     "'test_images' and 'test_labels'"),
    ({"model": {"kind": "cnn"}}, [], "config.model: unknown model kind 'cnn'"),
    ({"slice": {"extent": -1}}, [], "config.slice: slice extent must be >= 0, got -1.0"),
    ({"slice": {"n_points": 1}}, [], "config.slice: slice n_points must be >= 2, got 1"),
    ({"probe": {"restarts": 0}}, [], "config.probe: restarts must be >= 1, got 0"),
    ({"probe": {"inner_steps": 0}}, [], "config.probe: inner_steps must be >= 1, got 0"),
    ({"probe": {"n_samples": 1}}, [], "config.probe: n_samples must be >= 2, got 1"),
    ({"optimizer": {"kind": "sgd", "learning_rate": 0.1, "weight_decay": -1}}, [],
     "config.optimizer: weight_decay must be >= 0, got -1.0"),
], ids=["seeds_flag", "epochs", "batch_size", "label_noise_below", "label_noise_at_1",
        "not_an_object", "no_optimizer", "generator", "idx_labels", "idx_test_pair",
        "idx_train_fraction", "model_kind", "slice_extent", "slice_n_points", "restarts",
        "inner_steps", "n_samples", "weight_decay"])
def test_each_config_rejection_exits_2_with_one_error_line(tmp_path, capsys, overrides, argv,
                                                           message):
    """One case per config rejection that no other test reaches: exit 2 with
    the whole message as one `error: ` line, no traceback and no `--out`
    directory. A str case is the whole config file; a None value drops its
    key."""
    config = write_config(tmp_path)
    if isinstance(overrides, str):
        config.write_text(overrides)
    else:
        raw = dict(json.loads(config.read_text()), **overrides)
        config.write_text(json.dumps({k: v for k, v in raw.items() if v is not None}))
    out = tmp_path / "o"
    assert cli.main(["train", "--config", str(config), "--out", str(out)] + argv) == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not out.exists()


@pytest.mark.parametrize("command", ["train", "compare", "probe", "slice"])
def test_out_dir_no_file_name_can_hold_exits_2_before_any_compute(
        tmp_path, capsys, monkeypatch, command):
    calls = []
    for name in ("compare_optimizers", "probe_checkpoint", "slice_checkpoint"):
        monkeypatch.setattr(harness, name, lambda *args, _name=name, **kw: calls.append(_name))
    config = write_config(tmp_path, out_dir="\ud800")
    monkeypatch.chdir(tmp_path)
    argv = [command, "--config", str(config)]
    if command in ("probe", "slice"):
        argv += ["--checkpoint", str(tmp_path / "x.ckpt")]
    assert cli.main(argv) == 2
    assert calls == []
    assert capsys.readouterr().err == \
        "error: config: out_dir cannot be encoded as a file name, got '\\ud800'\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["config.json"]


def test_slice_name_no_file_name_can_hold_exits_2_before_any_compute(
        tmp_path, capsys, monkeypatch):
    calls = []
    monkeypatch.setattr(harness, "slice_checkpoint", lambda *args: calls.append(args))
    config = write_config(tmp_path, slice={"name": "\ud800"})
    out = tmp_path / "o"
    code = cli.main(["slice", "--config", str(config), "--checkpoint", str(tmp_path / "x.ckpt"),
                     "--out", str(out)])
    assert code == 2
    assert calls == []
    assert capsys.readouterr().err == \
        "error: config.slice: slice name cannot be encoded as a file name, got '\\ud800'\n"
    assert not out.exists()


@pytest.mark.filterwarnings("ignore:overflow encountered")
def test_compare_whose_sam_runs_all_fail_exits_1_with_each_failure(tmp_path, capsys):
    config = write_config(tmp_path, optimizers=[
        {"kind": "sgd", "learning_rate": 0.1, "momentum": 0.9},
        {"kind": "sam", "learning_rate": 1e300, "momentum": 0.9, "rho": 0.05}])
    assert cli.main(["compare", "--config", str(config), "--out", str(tmp_path / "o")]) == 1
    captured = capsys.readouterr()
    assert captured.out.splitlines()[1] == \
        "sam: seeds=0 failed=2 test_acc=n/a sharpness_x1e3=n/a"
    assert captured.err.splitlines() == [f"  seed {seed} failed: NumericError: dense1: "
                                         "non-finite value" for seed in (1, 2)]


def _cli_on_strict_utf8_stdout(cwd, *argv: bytes) -> subprocess.CompletedProcess:
    """`python -m samlab.cli argv` in a fresh interpreter whose stdout and
    stderr encode strict UTF-8, as under a UTF-8 locale."""
    src = str(Path(samlab.__file__).parents[1])
    env = dict(os.environ, PYTHONIOENCODING="utf-8",
               PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    return subprocess.run([sys.executable, "-m", "samlab.cli", *argv], cwd=cwd, env=env,
                          capture_output=True, timeout=300)


@pytest.mark.skipif(os.name != "posix", reason="argv bytes that no UTF-8 decoding keeps")
def test_output_lines_print_an_undecodable_out_as_its_bytes(tmp_path):
    """An --out holding a byte that UTF-8 cannot decode (argv keeps it as a
    surrogate escape) is printed as that byte on a strict UTF-8 stdout: exit
    0, not a UnicodeEncodeError traceback once every file is written."""
    config = os.fsencode(write_config(tmp_path, seeds=[1],
                                      slice={"name": "around", "extent": 0.5, "n_points": 3}))
    train = _cli_on_strict_utf8_stdout(tmp_path, b"train", b"--config", config, b"--out", b"o\xff")
    assert (train.returncode, train.stderr) == (0, b"")
    assert train.stdout.endswith(b"\nwrote o\xff/runs.csv\n")
    checkpoint = os.path.join(os.fsencode(tmp_path), b"o\xff", b"checkpoints", b"sgd_seed1.ckpt")
    assert os.path.isfile(checkpoint)
    cut = _cli_on_strict_utf8_stdout(tmp_path, b"slice", b"--config", config,
                                     b"--checkpoint", checkpoint, b"--out", b"o\xff")
    assert (cut.returncode, cut.stderr, cut.stdout) == (0, b"", b"wrote o\xff/slice_around.csv\n")
