"""Reproducible multi-seed experiment harness.

A run is a pure function of (config, seed). Every random consumer derives its
own stream from the run seed XORed with a fixed role constant, so changing,
say, the probe sample count never perturbs training. Dataset construction
derives from the dataset seed instead: the data is shared across run seeds.

Outputs are byte-stable: rows are ordered by seed (never completion time),
floats are written with repr (shortest round-trip), and no timestamps enter
the CSV/JSON files except the wall_seconds measurement column.
"""

import concurrent.futures
import hashlib
import json
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional, Union

import numpy as np

from . import checkpoint as checkpoint_io
from . import data as datamod
from . import network, optimizers, probes
from .errors import ConfigError, LayoutError, SamLabError
from .params import ParameterVector

# Role constants for sub-seed derivation (ASCII mnemonics). Run-seed side:
ROLE_INIT = 0x494E4954      # "INIT": weight initialization
ROLE_SHUFFLE = 0x53485546   # "SHUF": minibatch order
ROLE_EPSILON = 0x4550534E   # "EPSN": random perturbation directions
ROLE_PROBE = 0x50524F42     # "PROB": probe sampling (Monte Carlo, restarts)
# Dataset-seed side:
ROLE_SPLIT = 0x53504C54     # "SPLT": train/test split permutation
ROLE_NOISE = 0x4E4F4953     # "NOIS": label corruption

_U64 = 0xFFFFFFFFFFFFFFFF

RUNS_CSV_COLUMNS = (
    "config_hash", "seed", "optimizer", "rho", "ga_steps", "epochs",
    "final_train_loss", "final_test_loss", "test_accuracy",
    "l_asc", "l_avg_mean", "l_avg_stderr", "l_max_estimate",
    "standardized_sharpness_x1e3", "generalization_gap_x1e3",
    "grad_evals", "wall_seconds",
)

AGGREGATE_METRICS = (
    "final_train_loss", "final_test_loss", "test_accuracy",
    "l_asc", "l_avg_mean", "l_max_estimate",
    "standardized_sharpness_x1e3", "generalization_gap_x1e3",
)

STD_NOT_APPLICABLE = "n/a"


def _subseed(seed: int, role: int) -> int:
    return (seed ^ role) & _U64


@dataclass(frozen=True)
class DatasetConfig:
    generator: str
    n: int = 2000
    noise_sd: float = 0.2
    seed: int = 0
    train_fraction: float = 0.5
    centers: Optional[tuple] = None
    center_sd: float = 1.0
    images: Optional[str] = None
    labels: Optional[str] = None
    test_images: Optional[str] = None
    test_labels: Optional[str] = None

    def __post_init__(self):
        if self.generator not in ("two_moons", "gaussian_blobs", "idx"):
            raise ConfigError(f"unknown dataset generator {self.generator!r}")
        if self.generator == "idx":
            if self.images is None or self.labels is None:
                raise ConfigError("idx dataset needs both 'images' and 'labels' paths")
            if (self.test_images is None) != (self.test_labels is None):
                raise ConfigError("idx test set needs both 'test_images' and 'test_labels'")
        if self.generator == "gaussian_blobs" and not self.centers:
            raise ConfigError("gaussian_blobs dataset needs 'centers'")


@dataclass(frozen=True)
class ModelConfig:
    kind: str = "mlp"
    hidden: tuple = (32,)
    activation: str = "relu"
    head: str = "softmax_ce"
    diag: tuple = (1.0, 1.0)
    offset: float = 0.0

    def __post_init__(self):
        if self.kind not in ("mlp", "quadratic"):
            raise ConfigError(f"unknown model kind {self.kind!r}")
        if self.activation not in network.ACTIVATIONS:
            raise ConfigError(f"unknown activation {self.activation!r}, "
                              f"expected one of {network.ACTIVATIONS}")
        if self.head not in network.HEADS:
            raise ConfigError(f"unknown head {self.head!r}, expected one of {network.HEADS}")
        if any(h < 1 for h in self.hidden):
            raise ConfigError(f"hidden widths must be >= 1, got {list(self.hidden)}")

    def resolve(self, train: datamod.Dataset) -> network.ModelSpec:
        if self.kind == "quadratic":
            return network.QuadraticSpec(diag=self.diag, offset=self.offset)
        return network.MlpSpec(in_width=train.n_features, hidden=self.hidden,
                               out_width=train.n_classes, activation=self.activation,
                               head=self.head)


@dataclass(frozen=True)
class SliceConfig:
    name: str = "plane"
    extent: float = 1.0
    n_points: int = 21

    def __post_init__(self):
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
    seeds: tuple
    probe: probes.ProbeConfig = probes.ProbeConfig()
    label_noise_fraction: float = 0.0
    optimizer_sweep: tuple = ()
    slice_plane: Optional[SliceConfig] = None
    out_dir: Optional[str] = None

    def __post_init__(self):
        if self.epochs < 0:
            raise ConfigError(f"epochs must be >= 0, got {self.epochs}")
        if self.batch_size < 1:
            raise ConfigError(f"batch_size must be >= 1, got {self.batch_size}")
        if len(self.seeds) < 1:
            raise ConfigError("at least one seed is required")
        if len(set(self.seeds)) != len(self.seeds):
            raise ConfigError("duplicate seeds")
        if not 0.0 <= self.label_noise_fraction < 1.0:
            raise ConfigError(
                f"label_noise_fraction must be in [0, 1), got {self.label_noise_fraction}")

    def with_optimizer(self, optimizer: optimizers.OptimizerConfig) -> "ExperimentConfig":
        return ExperimentConfig(
            dataset=self.dataset, model=self.model, optimizer=optimizer,
            epochs=self.epochs, batch_size=self.batch_size, seeds=self.seeds,
            probe=self.probe, label_noise_fraction=self.label_noise_fraction,
            optimizer_sweep=(), slice_plane=self.slice_plane, out_dir=self.out_dir)


# ---------------------------------------------------------------------------
# Config parsing. Unknown keys are a hard error at every nesting level:
# a silently ignored typo ("momentun") costs hours.

def _check_keys(obj: dict, allowed, where: str):
    if not isinstance(obj, dict):
        raise ConfigError(f"{where} must be an object, got {type(obj).__name__}")
    unknown = sorted(set(obj) - set(allowed))
    if unknown:
        raise ConfigError(f"unknown keys in {where}: {', '.join(unknown)}")


def _parse_dataset(obj: dict) -> DatasetConfig:
    _check_keys(obj, ("generator", "n", "noise_sd", "seed", "train_fraction",
                      "centers", "center_sd", "images", "labels",
                      "test_images", "test_labels"), "dataset")
    kwargs = dict(obj)
    if "centers" in kwargs and kwargs["centers"] is not None:
        kwargs["centers"] = tuple(tuple(float(x) for x in c) for c in kwargs["centers"])
    try:
        return DatasetConfig(**kwargs)
    except TypeError as exc:
        raise ConfigError(f"dataset: {exc}") from exc


def _parse_model(obj: dict) -> ModelConfig:
    _check_keys(obj, ("kind", "hidden", "activation", "head", "diag", "offset"), "model")
    kwargs = dict(obj)
    if "hidden" in kwargs:
        kwargs["hidden"] = tuple(int(h) for h in kwargs["hidden"])
    if "diag" in kwargs:
        kwargs["diag"] = tuple(float(d) for d in kwargs["diag"])
    return ModelConfig(**kwargs)


def _parse_optimizer(obj: dict) -> optimizers.OptimizerConfig:
    _check_keys(obj, ("kind", "learning_rate", "momentum", "weight_decay",
                      "rho", "ga_steps"), "optimizer")
    try:
        return optimizers.OptimizerConfig(**obj)
    except TypeError as exc:
        raise ConfigError(f"optimizer: {exc}") from exc


def _parse_probe(obj: dict) -> probes.ProbeConfig:
    _check_keys(obj, ("rho", "restarts", "inner_steps", "n_samples"), "probe")
    try:
        return probes.ProbeConfig(**obj)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"probe: {exc}") from exc


def _parse_slice(obj: dict) -> SliceConfig:
    _check_keys(obj, ("name", "extent", "n_points"), "slice")
    return SliceConfig(**obj)


def parse_config(obj: dict, seeds_override=None, out_override=None) -> ExperimentConfig:
    """Build an ExperimentConfig from a parsed JSON object.

    `seeds_override` / `out_override` implement the --seeds / --out CLI flags;
    they replace the corresponding config values when given.
    """
    _check_keys(obj, ("dataset", "model", "optimizer", "optimizers", "epochs",
                      "batch_size", "seeds", "probe", "label_noise_fraction",
                      "slice", "out_dir"), "config")
    for key in ("dataset", "model", "epochs", "batch_size"):
        if key not in obj:
            raise ConfigError(f"config is missing required key {key!r}")
    if "optimizer" not in obj and not obj.get("optimizers"):
        raise ConfigError("config needs 'optimizer' or an 'optimizers' sweep")

    seeds = seeds_override if seeds_override is not None else obj.get("seeds")
    if not seeds:
        raise ConfigError("no seeds given (config 'seeds' or --seeds)")

    out_dir = out_override if out_override is not None else obj.get("out_dir")

    # A value of the wrong type or form ("epochs": "ten") fails in a
    # conversion or a comparison below; report it as a config error.
    try:
        sweep = tuple(_parse_optimizer(o) for o in obj.get("optimizers", ()))
        return ExperimentConfig(
            dataset=_parse_dataset(obj["dataset"]),
            model=_parse_model(obj["model"]),
            optimizer=_parse_optimizer(obj["optimizer"]) if "optimizer" in obj else sweep[0],
            epochs=int(obj["epochs"]),
            batch_size=int(obj["batch_size"]),
            seeds=tuple(int(s) for s in seeds),
            probe=_parse_probe(obj.get("probe", {})),
            label_noise_fraction=float(obj.get("label_noise_fraction", 0.0)),
            optimizer_sweep=sweep,
            slice_plane=_parse_slice(obj["slice"]) if "slice" in obj else None,
            out_dir=str(out_dir) if out_dir is not None else None,
        )
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"config: {exc}") from exc


def load_config(path: Union[str, Path]) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except FileNotFoundError:
        raise ConfigError(f"config file not found: {path}")
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config file {path} is not valid JSON: {exc}")


def _config_fingerprint(config: ExperimentConfig, optimizer=None) -> dict:
    """Everything that determines a run trajectory given a seed.

    out_dir and the seed list are excluded: neither changes any trajectory,
    and the hash should survive re-running a subset of seeds elsewhere.
    """
    opt = optimizer if optimizer is not None else config.optimizer
    ds = config.dataset
    return {
        "dataset": {
            "generator": ds.generator, "n": ds.n, "noise_sd": ds.noise_sd,
            "seed": ds.seed, "train_fraction": ds.train_fraction,
            "centers": ds.centers, "center_sd": ds.center_sd,
            "images": ds.images, "labels": ds.labels,
            "test_images": ds.test_images, "test_labels": ds.test_labels,
        },
        "label_noise_fraction": config.label_noise_fraction,
        "model": {
            "kind": config.model.kind, "hidden": list(config.model.hidden),
            "activation": config.model.activation, "head": config.model.head,
            "diag": list(config.model.diag), "offset": config.model.offset,
        },
        "optimizer": {
            "kind": opt.kind, "learning_rate": opt.learning_rate,
            "momentum": opt.momentum, "weight_decay": opt.weight_decay,
            "rho": opt.rho, "ga_steps": opt.ga_steps,
        },
        "epochs": config.epochs,
        "batch_size": config.batch_size,
        "probe": {
            "rho": config.probe.rho, "restarts": config.probe.restarts,
            "inner_steps": config.probe.inner_steps,
            "n_samples": config.probe.n_samples,
        },
    }


def config_hash(config: ExperimentConfig, optimizer=None) -> str:
    canonical = json.dumps(_config_fingerprint(config, optimizer),
                           sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()[:16]


# ---------------------------------------------------------------------------
# Dataset construction (shared across run seeds).

def build_dataset(cfg: DatasetConfig, label_noise_fraction: float):
    """Returns (train, test). Label noise corrupts the train split only;
    the test set stays clean so accuracy measures generalization, not noise.
    """
    if cfg.generator == "two_moons":
        full = datamod.gen_two_moons(cfg.n, cfg.noise_sd, cfg.seed)
        train, test = datamod.split(full, datamod.SplitSpec(
            cfg.train_fraction, _subseed(cfg.seed, ROLE_SPLIT)))
    elif cfg.generator == "gaussian_blobs":
        full = datamod.gen_gaussian_blobs(cfg.n, cfg.centers, cfg.center_sd, cfg.seed)
        train, test = datamod.split(full, datamod.SplitSpec(
            cfg.train_fraction, _subseed(cfg.seed, ROLE_SPLIT)))
    else:
        train = datamod.load_idx(cfg.images, cfg.labels)
        if cfg.test_images is not None:
            test = datamod.load_idx(cfg.test_images, cfg.test_labels)
        else:
            train, test = datamod.split(train, datamod.SplitSpec(
                cfg.train_fraction, _subseed(cfg.seed, ROLE_SPLIT)))
    if label_noise_fraction > 0:
        train = datamod.inject_label_noise(
            train, label_noise_fraction, _subseed(cfg.seed, ROLE_NOISE))
    return train, test


# ---------------------------------------------------------------------------
# Running.

@dataclass
class RunRecord:
    config_hash: str
    seed: int
    optimizer_label: str
    rho: float
    ga_steps: int
    epochs: int
    train_losses: list
    test_losses: list
    test_accuracies: list
    final_train_loss: float
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
class AggregateResult:
    config_hash: str
    optimizer_label: str
    seed_count: int
    failed_count: int
    metrics: dict  # name -> {"mean": float, "std": float | None}


@dataclass
class SuiteResult:
    config: ExperimentConfig
    optimizer_label: str
    records: list
    failures: list
    aggregate: AggregateResult


def _ga_steps_used(opt: optimizers.OptimizerConfig) -> int:
    if opt.kind == optimizers.SAM_GA:
        return opt.ga_steps
    if opt.kind == optimizers.SAM:
        return 1
    return 0


def run_training(config: ExperimentConfig, seed: int) -> RunRecord:
    """Train one model end to end and probe the final point.

    Deterministic given (config, seed): the four random consumers draw from
    streams derived by XORing the seed with fixed role constants, so they
    cannot interfere with one another.
    """
    started = time.perf_counter()
    train, test = build_dataset(config.dataset, config.label_noise_fraction)
    spec = config.model.resolve(train)

    init_rng = np.random.default_rng(_subseed(seed, ROLE_INIT))
    params = network.init_params(spec, init_rng)

    opt = config.optimizer
    state = optimizers.init_state(opt, len(params),
                                  direction_seed=_subseed(seed, ROLE_EPSILON))

    train_batch = train.as_batch()
    test_batch = test.as_batch()
    shuffle_seed = _subseed(seed, ROLE_SHUFFLE)

    flat = params.data
    train_losses, test_losses, test_accuracies = [], [], []
    for epoch in range(config.epochs):
        for batch in datamod.minibatches(train, config.batch_size, shuffle_seed, epoch):
            flat, _ = optimizers.step(spec, flat, batch, opt, state)
        train_losses.append(network.forward(spec, flat, train_batch))
        test_losses.append(network.forward(spec, flat, test_batch))
        test_accuracies.append(network.accuracy(spec, flat, test_batch))

    if config.epochs > 0:
        final_train, final_test = train_losses[-1], test_losses[-1]
        final_accuracy = test_accuracies[-1]
    else:
        final_train = network.forward(spec, flat, train_batch)
        final_test = network.forward(spec, flat, test_batch)
        final_accuracy = network.accuracy(spec, flat, test_batch)

    report = probes.build_report(
        spec, flat, train_batch, config.probe,
        seed=_subseed(seed, ROLE_PROBE), data_scope="train",
        train_loss=final_train, test_loss=final_test)

    final_params = params.replace(flat)
    return RunRecord(
        config_hash=config_hash(config),
        seed=seed,
        optimizer_label=opt.label,
        rho=opt.rho if opt.kind != optimizers.SGD else 0.0,
        ga_steps=_ga_steps_used(opt),
        epochs=config.epochs,
        train_losses=train_losses,
        test_losses=test_losses,
        test_accuracies=test_accuracies,
        final_train_loss=final_train,
        final_test_loss=final_test,
        final_test_accuracy=final_accuracy,
        report=report,
        grad_evals=state.grad_evals,
        wall_seconds=time.perf_counter() - started,
        final_params=final_params,
    )


def _run_one(args):
    config, seed = args
    try:
        return run_training(config, seed)
    except (SamLabError, FloatingPointError, OverflowError) as exc:
        return FailedRun(seed=seed, optimizer_label=config.optimizer.label,
                         error=f"{type(exc).__name__}: {exc}")


def run_suite(config: ExperimentConfig, jobs: int = 1) -> SuiteResult:
    """One RunRecord per seed; failures are collected, not fatal.

    With jobs > 1 seeds run in separate processes; results are reassembled in
    seed order either way, so parallelism cannot change any output byte.
    """
    work = [(config, seed) for seed in config.seeds]
    if jobs > 1 and len(work) > 1:
        with concurrent.futures.ProcessPoolExecutor(max_workers=jobs) as pool:
            outcomes = list(pool.map(_run_one, work))
    else:
        outcomes = [_run_one(item) for item in work]

    records = [o for o in outcomes if isinstance(o, RunRecord)]
    failures = [o for o in outcomes if isinstance(o, FailedRun)]
    records.sort(key=lambda r: r.seed)
    failures.sort(key=lambda f: f.seed)
    aggregate = aggregate_records(config_hash(config), config.optimizer.label,
                                  records, len(failures))
    return SuiteResult(config=config, optimizer_label=config.optimizer.label,
                       records=records, failures=failures, aggregate=aggregate)


def compare_optimizers(config: ExperimentConfig, optimizer_list, jobs: int = 1):
    """Run the same data/model/seeds under each optimizer in turn."""
    if not optimizer_list:
        raise ConfigError("optimizer list is empty")
    return [run_suite(config.with_optimizer(opt), jobs=jobs)
            for opt in optimizer_list]


# ---------------------------------------------------------------------------
# Rows and aggregates. Aggregates are computed from exactly the values that
# land in runs.csv (scaling included), so an independent reader recomputing
# mean/std from the CSV reproduces summary.csv bit-for-bit.

def run_row(record: RunRecord) -> dict:
    report = record.report
    return {
        "config_hash": record.config_hash,
        "seed": int(record.seed),
        "optimizer": record.optimizer_label,
        "rho": float(record.rho),
        "ga_steps": int(record.ga_steps),
        "epochs": int(record.epochs),
        "final_train_loss": float(record.final_train_loss),
        "final_test_loss": float(record.final_test_loss),
        "test_accuracy": float(record.final_test_accuracy),
        "l_asc": float(report.l_asc),
        "l_avg_mean": float(report.l_avg_mean),
        "l_avg_stderr": float(report.l_avg_stderr),
        "l_max_estimate": float(report.l_max_estimate),
        "standardized_sharpness_x1e3": float(report.standardized_sharpness * 1000.0),
        "generalization_gap_x1e3": float(report.generalization_gap * 1000.0),
        "grad_evals": int(record.grad_evals),
        "wall_seconds": float(record.wall_seconds),
    }


def aggregate_records(hash_: str, label: str, records, failed_count: int) -> AggregateResult:
    rows = [run_row(r) for r in records]
    metrics = {}
    for name in AGGREGATE_METRICS:
        values = np.asarray([row[name] for row in rows], dtype=np.float64)
        if len(values) == 0:
            metrics[name] = {"mean": None, "std": None}
        elif len(values) == 1:
            metrics[name] = {"mean": float(values[0]), "std": None}
        else:
            metrics[name] = {"mean": float(np.mean(values)),
                             "std": float(np.std(values, ddof=1))}
    return AggregateResult(config_hash=hash_, optimizer_label=label,
                           seed_count=len(records), failed_count=failed_count,
                           metrics=metrics)


# ---------------------------------------------------------------------------
# Persistence.

def _fmt(value) -> str:
    if value is None:
        return STD_NOT_APPLICABLE
    if isinstance(value, bool):
        raise TypeError("bool has no place in a results row")
    if isinstance(value, int):
        return str(value)
    if isinstance(value, float):
        return repr(value)
    return str(value)


def prepare_out_dir(out_dir: Union[str, Path]) -> Path:
    """Create the output directory and fail fast if it is not writable.

    Called before any training starts; discovering an unwritable target
    after minutes of compute is the failure mode this prevents.
    """
    path = Path(out_dir)
    try:
        path.mkdir(parents=True, exist_ok=True)
        probe_file = path / ".write_probe"
        probe_file.write_bytes(b"")
        probe_file.unlink()
    except OSError as exc:
        raise SamLabError(f"output directory {path} is not writable: {exc}") from exc
    return path


def _write_csv(path: Path, columns, rows) -> None:
    lines = [",".join(columns)]
    for row in rows:
        lines.append(",".join(_fmt(row[c]) for c in columns))
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def summary_columns():
    cols = ["config_hash", "optimizer", "seed_count", "failed_count"]
    for name in AGGREGATE_METRICS:
        cols.append(f"{name}_mean")
        cols.append(f"{name}_std")
    return cols


def _summary_row(agg: AggregateResult) -> dict:
    row = {"config_hash": agg.config_hash, "optimizer": agg.optimizer_label,
           "seed_count": agg.seed_count, "failed_count": agg.failed_count}
    for name in AGGREGATE_METRICS:
        row[f"{name}_mean"] = agg.metrics[name]["mean"]
        row[f"{name}_std"] = agg.metrics[name]["std"]
    return row


def emit_outputs(out_dir: Union[str, Path], suites, save_checkpoints: bool = True) -> dict:
    """Write runs.csv, summary.csv, summary.json, and final checkpoints.

    Returns {name: path} for everything written. Row order is suite order
    then seed order; repeated invocations with the same inputs produce
    byte-identical files apart from the wall_seconds measurement column.
    """
    out = prepare_out_dir(out_dir)
    written = {}

    rows = [run_row(record) for suite in suites for record in suite.records]
    runs_path = out / "runs.csv"
    _write_csv(runs_path, RUNS_CSV_COLUMNS, rows)
    written["runs.csv"] = runs_path

    summary_path = out / "summary.csv"
    _write_csv(summary_path, summary_columns(),
               [_summary_row(s.aggregate) for s in suites])
    written["summary.csv"] = summary_path

    payload = {
        "aggregates": [
            {"config_hash": s.aggregate.config_hash,
             "optimizer": s.aggregate.optimizer_label,
             "seed_count": s.aggregate.seed_count,
             "failed_count": s.aggregate.failed_count,
             "metrics": s.aggregate.metrics}
            for s in suites
        ],
        "failures": [
            {"seed": f.seed, "optimizer": f.optimizer_label, "error": f.error}
            for s in suites for f in s.failures
        ],
    }
    json_path = out / "summary.json"
    json_path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n",
                         encoding="utf-8")
    written["summary.json"] = json_path

    if save_checkpoints:
        ckpt_dir = out / "checkpoints"
        ckpt_dir.mkdir(exist_ok=True)
        for suite in suites:
            for record in suite.records:
                name = f"{record.optimizer_label}_seed{record.seed}.ckpt"
                checkpoint_io.save(ckpt_dir / name, record.final_params)
                written[f"checkpoints/{name}"] = ckpt_dir / name
    return written


def emit_slice(out_dir: Union[str, Path], name: str, alphas, betas, losses) -> Path:
    """Write one slice_<name>.csv with alpha,beta,loss rows in grid order."""
    out = prepare_out_dir(out_dir)
    path = out / f"slice_{name}.csv"
    rows = []
    for i, alpha in enumerate(alphas):
        for j, beta in enumerate(betas):
            rows.append({"alpha": float(alpha), "beta": float(beta),
                         "loss": float(losses[i, j])})
    _write_csv(path, ("alpha", "beta", "loss"), rows)
    return path


# ---------------------------------------------------------------------------
# Checkpoint-centric entry points.

def _load_checkpoint(checkpoint_path: Union[str, Path], config: ExperimentConfig):
    """Load a checkpoint and check it fits the configured model.

    Returns (flat params, spec, train, test); the dataset is rebuilt from the
    config because the spec's widths derive from it.
    """
    vector = checkpoint_io.load(checkpoint_path)
    train, test = build_dataset(config.dataset, config.label_noise_fraction)
    spec = config.model.resolve(train)
    expected = network.param_count(spec)
    if expected != len(vector):
        raise LayoutError(
            f"checkpoint holds {len(vector)} parameters but the configured "
            f"model needs {expected}",
            expected_count=expected, found_count=len(vector))
    return vector.data, spec, train, test


def probe_checkpoint(checkpoint_path: Union[str, Path],
                     config: ExperimentConfig) -> probes.SharpnessReport:
    """Re-evaluate a saved parameter vector; no training state involved.

    The probe seed derives from the first config seed, so probing the same
    file under the same config always reproduces the same report and carries
    no trace of which optimizer produced the checkpoint.
    """
    flat, spec, train, test = _load_checkpoint(checkpoint_path, config)
    train_batch = train.as_batch()
    train_loss = network.forward(spec, flat, train_batch)
    test_loss = network.forward(spec, flat, test.as_batch())
    return probes.build_report(
        spec, flat, train_batch, config.probe,
        seed=_subseed(config.seeds[0], ROLE_PROBE), data_scope="train",
        train_loss=train_loss, test_loss=test_loss)


def slice_checkpoint(checkpoint_path: Union[str, Path], config: ExperimentConfig):
    """Loss-plane slice around a checkpoint.

    Direction a is the training-loss gradient at the checkpoint (steepest
    direction); direction b is a random direction from the probe stream.
    Returns (slice_config, alphas, betas, losses).
    """
    slice_cfg = config.slice_plane if config.slice_plane is not None else SliceConfig()
    flat, spec, train, _ = _load_checkpoint(checkpoint_path, config)
    batch = train.as_batch()
    result = network.loss_and_grad(spec, flat, batch)
    rng = np.random.default_rng(_subseed(config.seeds[0], ROLE_PROBE))
    grad_norm = float(np.linalg.norm(result.gradient))
    if grad_norm > 1e-12:
        dir_a = result.gradient / grad_norm
    else:
        dir_a = np.zeros(len(flat))
        dir_a[0] = 1.0
    dir_b = rng.standard_normal(len(flat))
    alphas, betas, losses = probes.loss_plane_slice(
        spec, flat, batch, dir_a, dir_b,
        slice_cfg.extent, slice_cfg.n_points)
    return slice_cfg, alphas, betas, losses
