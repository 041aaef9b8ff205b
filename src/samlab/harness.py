"""Reproducible multi-seed experiment harness.

A run is a pure function of (config, seed). Every random consumer derives its
own stream from the run seed XORed with a fixed role constant, so changing,
say, the probe sample count never perturbs training. Dataset construction
derives from the dataset seed instead: the data is shared across run seeds.

`prepare_task` is the one place where a config turns into data (a `Task`).
Each entry point prepares it once, in the calling process, before any run,
so bad data fails the call before any run; pool workers inherit it.

`compare_optimizers` trains a sweep's runs of each seed, which share their
init and minibatch order, as one group (`train_group`): one
`optimizers.step_rows` call steps all its runs (several in lockstep), and
after the last epoch the stacked passes `network.passes` cuts score them on
the test split. The train split is evaluated once per run, by its probes:
the report's base loss is the run's final train loss. `run_training` is the
group of one and `run_suite` a compare of one. A group's runs get the bytes
they get alone; each run's wall_seconds is the group's elapsed time divided
by its run count.

Config types and parsing live here too. The output files and every value
they derive from a config are `samlab.outputs`' (`emit_outputs` and
`emit_slice` are also `harness.<name>`).
"""

import ctypes
import dataclasses
import functools
import json
import os
import sys
import time
import typing
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional, Union

import numpy as np

from . import checkpoint as checkpoint_io
from . import data as datamod
from . import network, optimizers, probes
from .errors import ConfigError, LayoutError, SamLabError
from .outputs import emit_outputs, emit_slice  # noqa: F401  (also harness.<name>)
from .params import ParameterVector
from .vecops import l2_norm

# Role constants for sub-seed derivation (ASCII mnemonics). Run-seed side:
ROLE_INIT = 0x494E4954      # "INIT": weight initialization
ROLE_SHUFFLE = 0x53485546   # "SHUF": minibatch order
ROLE_EPSILON = 0x4550534E   # "EPSN": random perturbation directions
ROLE_PROBE = 0x50524F42     # "PROB": probe sampling (Monte Carlo, restarts)
# Dataset-seed side:
ROLE_SPLIT = 0x53504C54     # "SPLT": train/test split permutation
ROLE_NOISE = 0x4E4F4953     # "NOIS": label corruption

_U64 = 0xFFFFFFFFFFFFFFFF

def _subseed(seed: int, role: int) -> int:
    return (seed ^ role) & _U64


# Dataset keys that only some generators read, and those generators; and
# model keys that only one kind reads. On any other a value but the default
# would change config_hash and nothing else.
_READ_ONLY_BY = {"n": ("two_moons", "gaussian_blobs"), "noise_sd": ("two_moons",),
                 "centers": ("gaussian_blobs",), "center_sd": ("gaussian_blobs",),
                 **dict.fromkeys(("images", "labels", "test_images", "test_labels"), ("idx",))}
_MODEL_READ_ONLY_BY = {**dict.fromkeys(("hidden", "activation", "head"), ("mlp",)),
                       **dict.fromkeys(("diag", "offset"), ("quadratic",))}


def _reject_unread(config, section: str, selector: str, read_only_by: dict) -> None:
    """Raise ConfigError for a key of `config` that holds a value but its
    default while its `selector` field (the generator or the kind) is not
    among the key's readers in `read_only_by`."""
    chosen = getattr(config, selector)
    for key, readers in read_only_by.items():
        if chosen not in readers and getattr(config, key) != getattr(type(config), key):
            raise ConfigError(f"{section} key {key!r} is read only by {selector} "
                              f"{' or '.join(map(repr, readers))}, not {chosen!r}")


@dataclass(frozen=True)
class DatasetConfig:
    generator: str
    n: int = 2000
    noise_sd: float = 0.2
    seed: int = 0
    train_fraction: float = 0.5
    centers: Optional[tuple[tuple[float, ...], ...]] = None
    center_sd: float = 1.0
    images: Optional[str] = None
    labels: Optional[str] = None
    test_images: Optional[str] = None
    test_labels: Optional[str] = None

    def __post_init__(self):
        if self.generator not in ("two_moons", "gaussian_blobs", "idx"):
            raise ConfigError(f"unknown dataset generator {self.generator!r}")
        _reject_unread(self, "dataset", "generator", _READ_ONLY_BY)
        if self.generator == "idx":
            if self.images is None or self.labels is None:
                raise ConfigError("idx dataset needs both 'images' and 'labels' paths")
            if (self.test_images is None) != (self.test_labels is None):
                raise ConfigError("idx test set needs both 'test_images' and 'test_labels'")
            # `build_dataset` splits only an idx set that has no test files.
            if self.test_images is not None and self.train_fraction != DatasetConfig.train_fraction:
                raise ConfigError("dataset key 'train_fraction' is not read by an idx dataset "
                                  "with 'test_images' and 'test_labels'")
            for key in ("images", "labels", "test_images", "test_labels"):
                path = getattr(self, key)
                if path is not None and not Path(path).is_file():
                    raise ConfigError(f"idx dataset {key!r} is not a file: {path!r}")
        if self.generator == "gaussian_blobs":
            dims = {len(c) for c in self.centers or ()}
            if len(self.centers or ()) < 2 or len(dims) != 1 or 0 in dims:
                raise ConfigError("gaussian_blobs needs >= 2 'centers' of one dimension >= 1")
        if self.n < 2:
            raise ConfigError(f"n must be >= 2, got {self.n}")
        if not 0 <= self.seed <= _U64:
            raise ConfigError(f"dataset seed must be in [0, 2**64), got {self.seed}")
        if not 0.0 < self.train_fraction < 1.0:
            raise ConfigError(f"train_fraction must be in (0, 1), got {self.train_fraction}")
        if self.noise_sd < 0 or self.center_sd < 0:
            raise ConfigError(f"noise_sd and center_sd must be >= 0, "
                              f"got {self.noise_sd} and {self.center_sd}")


@dataclass(frozen=True)
class ModelConfig:
    kind: str = "mlp"
    hidden: tuple[int, ...] = (32,)
    activation: str = "relu"
    head: str = "softmax_ce"
    diag: tuple[float, ...] = (1.0, 1.0)
    offset: float = 0.0

    def __post_init__(self):
        if self.kind not in ("mlp", "quadratic"):
            raise ConfigError(f"unknown model kind {self.kind!r}")
        _reject_unread(self, "model", "kind", _MODEL_READ_ONLY_BY)
        if self.activation not in network.ACTIVATIONS:
            raise ConfigError(f"unknown activation {self.activation!r}, "
                              f"expected one of {network.ACTIVATIONS}")
        if self.head not in network.HEADS:
            raise ConfigError(f"unknown head {self.head!r}, expected one of {network.HEADS}")
        if any(h < 1 for h in self.hidden):
            raise ConfigError(f"hidden widths must be >= 1, got {list(self.hidden)}")
        if self.kind == "quadratic" and not self.diag:
            raise ConfigError("quadratic model needs at least one 'diag' coefficient")

    def resolve(self, train: datamod.Dataset) -> network.ModelSpec:
        if self.kind == "quadratic":
            return network.QuadraticSpec(diag=self.diag, offset=self.offset)
        return network.MlpSpec(in_width=train.features.shape[1], hidden=self.hidden,
                               out_width=train.n_classes, activation=self.activation,
                               head=self.head)


def _file_name_bytes(text: str, what: str) -> bytes:
    """`text` as the file system's bytes; a ConfigError if no name holds it."""
    try:
        return os.fsencode(text)
    except UnicodeEncodeError:
        raise ConfigError(f"{what} cannot be encoded as a file name, got {text!r}") from None


@dataclass(frozen=True)
class SliceConfig:
    name: str = "plane"
    extent: float = 1.0
    n_points: int = 21

    def __post_init__(self):
        # The name goes into the output file name slice_<name>.csv.
        if self.name in ("", ".", "..") or "/" in self.name or "\0" in self.name:
            raise ConfigError("slice name must be a non-empty file name part, not '.' or "
                              f"'..' and without '/' or NUL, got {self.name!r}")
        # 255 bytes is the longest file name most file systems take; a longer
        # one would fail only at the write, after the whole grid.
        size = len(_file_name_bytes(self.name, "slice name"))
        if size > 245:
            raise ConfigError("slice name must be at most 245 UTF-8 bytes, so that "
                              f"slice_<name>.csv fits in 255, got {size}")
        if self.extent < 0:
            raise ConfigError(f"slice extent must be >= 0, got {self.extent}")
        if self.n_points < 2:
            raise ConfigError(f"slice n_points must be >= 2, got {self.n_points}")


@dataclass(frozen=True)
class ExperimentConfig:
    dataset: DatasetConfig
    model: ModelConfig
    optimizer: optimizers.OptimizerConfig
    epochs: int
    batch_size: int
    seeds: tuple[int, ...]
    probe: probes.ProbeConfig = probes.ProbeConfig()
    label_noise_fraction: float = 0.0
    optimizer_sweep: tuple[optimizers.OptimizerConfig, ...] = field(
        default=(), metadata={"key": "optimizers"})
    slice_plane: Optional[SliceConfig] = field(default=None, metadata={"key": "slice"})
    out_dir: Optional[str] = None

    def __post_init__(self):
        if self.epochs < 0:
            raise ConfigError(f"epochs must be >= 0, got {self.epochs}")
        if self.batch_size < 1:
            raise ConfigError(f"batch_size must be >= 1, got {self.batch_size}")
        if self.out_dir is not None:
            _file_name_bytes(self.out_dir, "out_dir")
        if len(self.seeds) < 1:
            raise ConfigError("at least one seed is required")
        if len(set(self.seeds)) != len(self.seeds):
            raise ConfigError("duplicate seeds")
        # `_subseed` keeps a seed's low 64 bits, so any other seed would alias one.
        for seed in self.seeds:
            if not 0 <= seed <= _U64:
                raise ConfigError(f"run seed must be in [0, 2**64), got {seed}")
        labels = [opt.label for opt in self.optimizer_sweep]
        for label in labels:
            if labels.count(label) > 1:
                raise ConfigError(
                    f"optimizer label {label!r} appears more than once in the sweep; runs "
                    "and checkpoints are named by label (sweep rho with one compare per value)")
        if not 0.0 <= self.label_noise_fraction < 1.0:
            raise ConfigError(
                f"label_noise_fraction must be in [0, 1), got {self.label_noise_fraction}")
        # `build_dataset` reads an idx set's seed to split it or to corrupt labels.
        data = self.dataset
        if (data.generator == "idx" and data.test_images is not None
                and self.label_noise_fraction == 0 and data.seed != DatasetConfig.seed):
            raise ConfigError("dataset key 'seed' is not read by an idx dataset with "
                              "'test_images' and 'test_labels' and no label noise")


# ---------------------------------------------------------------------------
# Config parsing. Unknown keys are a hard error at every nesting level:
# a silently ignored typo ("momentun") costs hours.

_SCALAR_KINDS = {int: "an integer", float: "a finite number", str: "a string"}


def _convert(tp, value, where: str):
    """Check one JSON value against a field type and convert it."""
    if dataclasses.is_dataclass(tp):
        return from_dict(tp, value, where)
    origin, args = typing.get_origin(tp), typing.get_args(tp)
    if origin is Union:
        return None if value is None else _convert(args[0], value, where)
    if origin is tuple:
        if not isinstance(value, list):
            raise ConfigError(f"{where} must be a list, got {value!r}")
        return tuple(_convert(args[0], item, f"{where}[{i}]") for i, item in enumerate(value))
    # abs() <= max compares exactly: it rejects NaN, infinities and integers
    # too large for a float without converting them.
    if (isinstance(value, bool) or not isinstance(value, (int, float) if tp is float else tp)
            or tp is float and not abs(value) <= sys.float_info.max):
        raise ConfigError(f"{where} must be {_SCALAR_KINDS[tp]}, got {value!r}")
    return float(value) if tp is float else value


def from_dict(cls, obj, where: str):
    """Build the config dataclass `cls` from a parsed JSON object.

    Each field reads the key named by its metadata "key", else its own name.
    Values convert by the field's annotation: int takes an integer (not a
    bool); float an integer or a finite float, stored as a float; str a
    string; tuple[X, ...] a list; Optional[X] null or an X; a dataclass an
    object, built recursively. Errors name the dotted path (`where`).
    """
    if not isinstance(obj, dict):
        raise ConfigError(f"{where} must be an object, got {type(obj).__name__}")
    by_key = {f.metadata.get("key", f.name): f for f in dataclasses.fields(cls)}
    unknown = sorted(set(obj) - set(by_key))
    if unknown:
        raise ConfigError(f"unknown keys in {where}: {', '.join(unknown)}")
    hints = typing.get_type_hints(cls)
    kwargs = {by_key[key].name: _convert(hints[by_key[key].name], value, f"{where}.{key}")
              for key, value in obj.items()}
    try:
        return cls(**kwargs)
    except (ConfigError, TypeError, ValueError, OverflowError) as exc:
        raise ConfigError(f"{where}: {exc}") from exc


def parse_config(obj: dict, seeds_override=None, out_override=None) -> ExperimentConfig:
    """Build an ExperimentConfig from a parsed JSON object.

    `seeds_override` / `out_override` implement the --seeds / --out CLI flags.
    Without an `optimizer`, the first entry of the `optimizers` sweep is used.
    """
    if not isinstance(obj, dict):
        raise ConfigError(f"config must be an object, got {type(obj).__name__}")
    obj = dict(obj)
    if seeds_override is not None:
        obj["seeds"] = list(seeds_override)
    if out_override is not None:
        obj["out_dir"] = str(out_override)
    if not obj.get("seeds"):
        raise ConfigError("no seeds given (config 'seeds' or --seeds)")
    if "optimizer" not in obj:
        sweep = obj.get("optimizers")
        if not sweep:
            raise ConfigError("config needs 'optimizer' or an 'optimizers' sweep")
        # from_dict reports a sweep that is not a list under its own key.
        obj["optimizer"] = sweep[0] if isinstance(sweep, list) else sweep
    return from_dict(ExperimentConfig, obj, "config")


def _json_object(pairs) -> dict:
    obj = {}
    for key, value in pairs:  # json.load alone keeps a repeated key's last value
        if key in obj:
            raise ConfigError(f"key {key!r} is given more than once in one object")
        obj[key] = value
    return obj


def load_config(path: Union[str, Path]) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh, object_pairs_hook=_json_object)
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    except (ValueError, RecursionError) as exc:  # undecodable bytes, invalid or too deep JSON
        raise ConfigError(f"config file {path} is not valid JSON: {exc}") from exc


# ---------------------------------------------------------------------------
# Dataset construction (shared across run seeds).

def build_dataset(cfg: DatasetConfig, label_noise_fraction: float):
    """Returns (train, test). Label noise corrupts the train split only;
    the test set stays clean so accuracy measures generalization, not noise.
    """
    if cfg.generator == "two_moons":
        data = datamod.gen_two_moons(cfg.n, cfg.noise_sd, cfg.seed)
    elif cfg.generator == "gaussian_blobs":
        data = datamod.gen_gaussian_blobs(cfg.n, cfg.centers, cfg.center_sd, cfg.seed)
    else:
        data = datamod.load_idx(cfg.images, cfg.labels)
    if cfg.generator == "idx" and cfg.test_images is not None:
        train, test = data, datamod.load_idx(cfg.test_images, cfg.test_labels)
    else:
        train, test = datamod.split(data, cfg.train_fraction, _subseed(cfg.seed, ROLE_SPLIT))
    if label_noise_fraction > 0:
        train = datamod.inject_label_noise(
            train, label_noise_fraction, _subseed(cfg.seed, ROLE_NOISE))
    return train, test


@dataclass(frozen=True)
class Task:
    """What every run and probe of one config shares: the model spec and the
    train and test splits, the `data.Dataset`s of `build_dataset` as
    `network.check_batch` returns them for the spec (a quadratic, which
    ignores its batches, keeps the unchecked `Dataset`s)."""

    spec: network.ModelSpec
    train: network.CheckedBatch
    test: network.CheckedBatch


def prepare_task(config: ExperimentConfig) -> Task:
    """The config's data as a Task. A malformed idx file, or a test split
    whose labels lie outside the train split's classes, raises here as a
    SamLabError."""
    train, test = build_dataset(config.dataset, config.label_noise_fraction)
    spec = config.model.resolve(train)
    return Task(spec, network.check_batch(spec, train), network.check_batch(spec, test))


# ---------------------------------------------------------------------------
# Running.

@dataclass
class RunRecord:
    """What one run measured. The runs.csv columns its config states
    (`outputs.run_row`) are read from its suite's config, not kept here,
    and its final train loss is `report.base_loss`."""

    seed: int
    optimizer_label: str  # names the checkpoint file
    final_test_loss: float
    final_test_accuracy: float
    report: probes.SharpnessReport
    grad_evals: int
    wall_seconds: float
    final_params: ParameterVector


@dataclass
class FailedRun:
    seed: int
    optimizer_label: str
    error: str


@dataclass
class SuiteResult:
    """One optimizer's runs, in seed order: `config` is that optimizer's
    config alone (no sweep); `outputs.summary` gives its summary entry."""

    config: ExperimentConfig
    records: list
    failures: list


def require_trainable(config: ExperimentConfig) -> None:
    """Training needs an MLP: a run reports its final test accuracy, which a
    quadratic model has not. A quadratic checkpoint can still be probed and
    sliced."""
    if config.model.kind != "mlp":
        raise ConfigError(f"training needs model kind 'mlp', got {config.model.kind!r} "
                          "(a quadratic model can be probed and sliced, not trained)")


def _train(task: Task, config: ExperimentConfig, sweep, seed: int) -> list:
    """Train one run per optimizer of `sweep` on `seed` and probe each final
    point; raises if anything fails.

    The runs share the task, the init and the minibatch order (all derive
    from the config and the seed), so they step together on K parameter
    rows, one `optimizers.step_rows` call a minibatch. After the last epoch
    (at init when `epochs` is 0), stacked passes over the test split give
    the final test losses and accuracies (2 runs a pass on a 1,500-row split
    through 32 units). The train split is evaluated only
    by `probes.build_report`, whose base loss is the final train loss. A
    run's grad_evals is the sum of its StepReports' counts.
    Each run keeps its own optimizer state and direction stream, and its
    bytes are those of the same run trained alone. Each run's wall_seconds
    is the group's elapsed time divided by K.
    """
    started = time.perf_counter()
    spec = task.spec
    init_rng = np.random.default_rng(_subseed(seed, ROLE_INIT))
    params = network.init_params(spec, init_rng)
    states = [optimizers.init_state(opt, len(params), direction_seed=_subseed(seed, ROLE_EPSILON))
              for opt in sweep]
    shuffle_seed = _subseed(seed, ROLE_SHUFFLE)

    rows = np.tile(params.data, (len(sweep), 1))
    grad_evals = [0] * len(sweep)
    for epoch in range(config.epochs):
        for batch in datamod.minibatches(task.train, config.batch_size, shuffle_seed, epoch):
            rows, reports = optimizers.step_rows(spec, rows, batch, sweep, states)
            grad_evals = [n + report.grad_evals for n, report in zip(grad_evals, reports)]
    test = [network.loss_and_accuracy(spec, rows[cut], task.test)
            for cut in network.passes(spec, task.test, len(rows))]
    final_test, final_accuracy = (np.concatenate(values).tolist() for values in zip(*test))

    reports = [probes.build_report(spec, rows[k], task.train, config.probe,
                                   seed=_subseed(seed, ROLE_PROBE), test_loss=final_test[k])
               for k in range(len(sweep))]
    wall_seconds = (time.perf_counter() - started) / len(sweep)
    return [RunRecord(
        seed=seed,
        optimizer_label=opt.label,
        final_test_loss=final_test[k],
        final_test_accuracy=final_accuracy[k],
        report=reports[k],
        grad_evals=grad_evals[k],
        wall_seconds=wall_seconds,
        final_params=params.replace(rows[k]),
    ) for k, opt in enumerate(sweep)]


def run_training(task: Task, config: ExperimentConfig, seed: int) -> RunRecord:
    """Train `config.optimizer` on `seed` and probe the final point: a group
    of one, on `task` = `prepare_task(config)`."""
    return _train(task, config, (config.optimizer,), seed)[0]


def _single(config: ExperimentConfig, opt) -> ExperimentConfig:
    return dataclasses.replace(config, optimizer=opt, optimizer_sweep=())


def train_group(task: Task, config: ExperimentConfig, seed: int) -> list:
    """One RunRecord or FailedRun per optimizer of `config.optimizer_sweep`
    on `seed`, in sweep order, trained in lockstep. A sweep of one, or a
    group that raises a SamLabError, runs each optimizer alone by
    `run_training`: a failing run becomes its own FailedRun, with the error
    it gives alone, and every other run keeps its bytes. Any other error is
    a fault of the group path, so it propagates."""
    sweep = config.optimizer_sweep
    if len(sweep) > 1:
        try:
            return _train(task, config, sweep, seed)
        except SamLabError:  # run alone, each run tells its own error
            pass
    outcomes = []
    for opt in sweep:
        try:
            outcomes.append(run_training(task, _single(config, opt), seed))
        except Exception as exc:  # one run's failure must not lose the others' results
            outcomes.append(_failed(seed, opt, exc))
    return outcomes


def _failed(seed: int, opt: optimizers.OptimizerConfig, exc: BaseException) -> FailedRun:
    return FailedRun(seed=seed, optimizer_label=opt.label, error=f"{type(exc).__name__}: {exc}")


# glibc's mallopt parameters and the values setup_process gives them. By
# default an array of 128 KiB or more gets its own `mmap` and gives its pages
# back when freed, and free memory at the top of the heap goes back too, so
# the kernel's fresh arrays would fault their pages in again on every call:
# one stacked activation alone is up to 1 MiB (`network.STACK_ELEMENTS`).
# 32 MiB is the largest mmap threshold glibc accepts.
_MALLOPT_SETTINGS = ((-3, 32 * 2 ** 20),   # M_MMAP_THRESHOLD
                     (-1, 2 ** 30))        # M_TRIM_THRESHOLD

# The ufunc buffer, in elements, that setup_process gives numpy in place of
# its default 8,192. Sizes from 512 to 4,096 timed alike at the probes'
# shapes, all faster than 8,192 (the `network` docstring gives the timings).
_UFUNC_BUFFER_ELEMENTS = 2048

# OpenBLAS's thread setter, by build: scipy-openblas (numpy's wheels) with
# 64-bit or 32-bit integers, then a plain OpenBLAS of either kind.
_BLAS_THREAD_SETTERS = ("scipy_openblas_set_num_threads64_", "scipy_openblas_set_num_threads",
                        "openblas_set_num_threads64_", "openblas_set_num_threads")


def setup_process() -> None:
    """Set the three settings samlab's bytes and speed rest on. The first two
    are process-wide, set once per process and skipped quietly where their
    function is missing; the third is numpy's per-thread setting, set on
    every call in the calling thread.

    * BLAS on one thread. A multi-threaded OpenBLAS splits a product that
      reduces over the batch rows (the weight gradient) another way and
      rounds it differently, so outputs are byte-stable for one BLAS thread
      only. The setter is looked up through numpy's own extension, so it is
      the BLAS numpy loaded.
    * glibc malloc's mmap and trim thresholds (`_MALLOPT_SETTINGS`), so the
      kernel's fresh arrays reuse freed heap memory with no page faults.
    * numpy's ufunc buffer of `_UFUNC_BUFFER_ELEMENTS`, so the kernel's
      broadcast and cast operands are copied in cache-sized chunks. An
      elementwise result does not depend on how the loop is chunked, and
      samlab's float64 reductions are not buffered, so no byte moves. numpy
      keeps the size per thread, in the `np.errstate` context: another
      thread, or the code after a `with np.errstate()` block around the
      call, runs at numpy's default, with the same bytes but slower, until
      it calls this again.

    `run_suite`, `compare_optimizers`, `probe_checkpoint`, `slice_checkpoint`
    and every pool worker call it first. Library code that calls the kernel
    directly should call it too, in each thread that does.
    """
    np.setbufsize(_UFUNC_BUFFER_ELEMENTS)
    _setup_libraries()


@functools.cache
def _setup_libraries() -> None:
    """`setup_process`'s malloc and BLAS settings, once per process."""
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (AttributeError, OSError, TypeError):  # TypeError: no C library handle (Windows)
        pass
    else:
        mallopt.argtypes, mallopt.restype = (ctypes.c_int, ctypes.c_int), ctypes.c_int
        for param, value in _MALLOPT_SETTINGS:
            mallopt(param, value)
    try:
        numpy_blas = ctypes.CDLL(np.linalg._umath_linalg.__file__)
    except (OSError, AttributeError):
        return
    for name in _BLAS_THREAD_SETTERS:
        setter = getattr(numpy_blas, name, None)
        if setter is not None:
            setter.argtypes, setter.restype = (ctypes.c_int,), None
            setter(1)
            return


# The Task a pool worker trains on. The pool's initializer sets it once per
# worker; the calling process never does.
_worker_task = None


def _start_worker(task: Task) -> None:
    global _worker_task
    setup_process()
    _worker_task = task


def _train_seed(work) -> list:
    config, seed = work
    return train_group(_worker_task, config, seed)


def _suite(config: ExperimentConfig, outcomes) -> SuiteResult:
    records = sorted((o for o in outcomes if isinstance(o, RunRecord)), key=lambda r: r.seed)
    failures = sorted((o for o in outcomes if isinstance(o, FailedRun)), key=lambda f: f.seed)
    return SuiteResult(config=config, records=records, failures=failures)


def _compare(config: ExperimentConfig, optimizer_list, jobs: int) -> list:
    if not optimizer_list:
        raise ConfigError("optimizer list is empty")
    require_trainable(config)
    setup_process()
    # Re-validating with the list as the sweep rejects repeated labels.
    config = dataclasses.replace(config, optimizer_sweep=tuple(optimizer_list))
    task = prepare_task(config)
    if jobs > 1 and len(config.seeds) > 1:
        # Imported here: only a pool needs it, and it loads `logging`.
        from concurrent.futures.process import BrokenProcessPool, ProcessPoolExecutor

        def pooled(seeds):
            # A forked worker inherits the task: it is never pickled per seed.
            # Forking starts every worker at once, so a pool gets at most one per seed.
            with ProcessPoolExecutor(max_workers=min(jobs, len(seeds)), initializer=_start_worker,
                                     initargs=(task,)) as pool:
                return [pool.submit(_train_seed, (config, seed)) for seed in seeds]

        groups = []
        for seed, future in zip(config.seeds, pooled(config.seeds)):
            if isinstance(future.exception(), BrokenProcessPool):  # a worker died: once more, alone
                future = pooled([seed])[0]
            try:
                groups.append(future.result())
            except BrokenProcessPool as exc:  # it broke a pool of its own too
                groups.append([_failed(seed, opt, exc) for opt in config.optimizer_sweep])
    else:
        groups = [train_group(task, config, seed) for seed in config.seeds]
    return [_suite(_single(config, opt), [group[j] for group in groups])
            for j, opt in enumerate(config.optimizer_sweep)]


def compare_optimizers(config: ExperimentConfig, optimizer_list, jobs: int = 1) -> list:
    """One SuiteResult per optimizer of `optimizer_list`, in list order;
    failures are collected, not fatal. With jobs > 1 the seeds' lockstep
    groups spread over a process pool. A worker that dies (a signal, the OOM
    killer) breaks the pool, and each seed left without a result is trained
    once more, alone, in a fresh one-worker pool; only a seed that breaks
    that pool too becomes a FailedRun. Rows are in seed order either way, so
    each suite is byte for byte a `run_suite` of its optimizer (but for
    wall_seconds)."""
    return _compare(config, optimizer_list, jobs)


def run_suite(config: ExperimentConfig, jobs: int = 1) -> SuiteResult:
    """A compare of `config.optimizer` alone. It calls `_compare`, so a
    wrapper of either public name (a perfbench span) never nests the other."""
    return _compare(config, (config.optimizer,), jobs)[0]


# ---------------------------------------------------------------------------
# Checkpoint-centric entry points.

def _at_checkpoint(checkpoint_path: Union[str, Path], config: ExperimentConfig) -> tuple:
    """(task, the checkpoint's flat params checked to fit its model, their
    `network.loss_and_grad` on the train split): a probe's and a slice's start."""
    setup_process()
    task = prepare_task(config)
    vector = checkpoint_io.load(checkpoint_path)
    layout = network.param_layout(task.spec)
    if vector.layout != layout:
        raise LayoutError(
            f"checkpoint layout {_layout_text(vector.layout)} does not match the "
            f"configured model's {_layout_text(layout)}",
            expected_count=network.param_count(task.spec), found_count=len(vector))
    return task, vector.data, network.loss_and_grad(task.spec, vector.data, task.train)


def _layout_text(layout) -> str:
    return ", ".join(f"{entry.name}{list(entry.shape)}" for entry in layout)


def probe_checkpoint(checkpoint_path: Union[str, Path],
                     config: ExperimentConfig) -> probes.SharpnessReport:
    """Re-evaluate a saved parameter vector; no training state involved.

    The probe seed derives from the first config seed, so probing the same
    file under the same config always reproduces the same report and carries
    no trace of which optimizer produced the checkpoint.
    """
    task, flat, base = _at_checkpoint(checkpoint_path, config)
    return probes.build_report(
        task.spec, flat, task.train, config.probe, seed=_subseed(config.seeds[0], ROLE_PROBE),
        test_loss=network.forward(task.spec, flat, task.test), base=base)


def slice_checkpoint(checkpoint_path: Union[str, Path], config: ExperimentConfig):
    """Loss-plane slice around a checkpoint.

    Direction a is the training-loss gradient at the checkpoint (steepest
    direction); direction b is a random direction from the probe stream.
    Returns (slice_config, alphas, betas, losses).
    """
    task, flat, result = _at_checkpoint(checkpoint_path, config)
    slice_cfg = config.slice_plane if config.slice_plane is not None else SliceConfig()
    rng = np.random.default_rng(_subseed(config.seeds[0], ROLE_PROBE))
    grad_norm = l2_norm(result.gradient)
    if grad_norm < optimizers.ZERO_GRAD_EPS:
        dir_a = np.zeros(len(flat))
        dir_a[0] = 1.0
    else:
        dir_a = result.gradient / grad_norm
    dir_b = rng.standard_normal(len(flat))
    alphas, betas, losses = probes.loss_plane_slice(
        task.spec, flat, task.train, dir_a, dir_b, slice_cfg.extent, slice_cfg.n_points)
    return slice_cfg, alphas, betas, losses
