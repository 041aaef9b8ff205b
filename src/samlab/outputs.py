"""Every output file and its bytes: `emit_outputs` writes runs.csv,
summary.csv, summary.json and checkpoints/<label>_seed<seed>.ckpt,
`emit_slice` slice_<name>.csv, `emit_probe_report` probe_report.json. A file
that cannot be written raises a SamLabError (`_failing_as`).

Outputs are byte-stable: rows are ordered by seed (never completion time),
floats are written with repr (shortest round-trip), and no timestamps enter
the CSV/JSON files except the wall_seconds measurement column. Files are
written through the `fileio` and `checkpoint_io` modules, never names
imported from them, so a rebinding of `fileio.write_text` or
`checkpoint.save` (a test's, a tracer's) is seen here.
"""

import contextlib
import dataclasses
import hashlib
import json
from pathlib import Path
from typing import Union

import numpy as np

from . import checkpoint as checkpoint_io
from . import fileio, optimizers
from .errors import SamLabError

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

SUMMARY_CSV_COLUMNS = ("config_hash", "optimizer", "seed_count", "failed_count") + tuple(
    f"{name}_{stat}" for name in AGGREGATE_METRICS for stat in ("mean", "std"))

STD_NOT_APPLICABLE = "n/a"


def config_hash(config) -> str:
    """Hash of everything in a `harness.ExperimentConfig` that determines a
    run trajectory given a seed. The seeds, out_dir, sweep and slice change
    no trajectory and are left out, so the hash survives re-running a subset
    of seeds elsewhere."""
    fingerprint = dataclasses.asdict(config)
    for name in ("seeds", "out_dir", "optimizer_sweep", "slice_plane"):
        del fingerprint[name]
    canonical = json.dumps(fingerprint, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()[:16]


# ---------------------------------------------------------------------------
# Rows and summaries. A row's config columns come from its run's config, the
# rest from its record. A summary's metrics are computed from exactly the
# values that land in runs.csv (scaling included), so an independent reader
# recomputing mean/std from the CSV reproduces summary.csv bit-for-bit.

def run_row(config, record) -> dict:
    """The runs.csv row of a `harness.RunRecord` trained by `config.optimizer`
    (a suite's single-optimizer config, `SuiteResult.config`): config_hash,
    optimizer, rho (0.0 for sgd), ga_steps (ascent steps a step: 0, 1 for
    sam, N for sam_gaN) and epochs from the config, the rest from the
    record."""
    opt = config.optimizer
    report = record.report
    return {
        "config_hash": config_hash(config),
        "seed": int(record.seed),
        "optimizer": opt.label,
        "rho": 0.0 if opt.kind == optimizers.SGD else float(opt.rho),
        "ga_steps": {optimizers.SAM: 1, optimizers.SAM_GA: opt.ga_steps}.get(opt.kind, 0),
        "epochs": int(config.epochs),
        "final_train_loss": float(report.base_loss),
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


def summary(suite) -> dict:
    """A `harness.SuiteResult`'s summary.json entry: config_hash, optimizer,
    seed_count (finished runs), failed_count and `metrics`, each of
    `AGGREGATE_METRICS` as {"mean", "std"} over the suite's runs.csv values.
    std is the sample std, None for one run; both are None for none."""
    rows = [run_row(suite.config, record) for record in suite.records]
    metrics = {}
    for name in AGGREGATE_METRICS:
        values = np.asarray([row[name] for row in rows], dtype=np.float64)
        metrics[name] = {"mean": float(np.mean(values)) if len(values) else None,
                         "std": float(np.std(values, ddof=1)) if len(values) > 1 else None}
    return {"config_hash": config_hash(suite.config), "optimizer": suite.config.optimizer.label,
            "seed_count": len(suite.records), "failed_count": len(suite.failures),
            "metrics": metrics}


@contextlib.contextmanager
def _failing_as(message: str):
    """Raise an OSError or a path's UnicodeEncodeError as a SamLabError."""
    try:
        yield
    except (OSError, UnicodeEncodeError) as exc:
        raise SamLabError(f"{message}: {exc}") from exc


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


def prepare_out_dir(out_dir: Union[str, Path], checkpoints: bool = False) -> Path:
    """Create the output directory, and its `checkpoints/` directory if
    asked, and fail fast if either cannot be made or written.

    Called before any training starts; discovering an unwritable target
    after minutes of compute is the failure mode this prevents.
    """
    path = Path(out_dir)
    with _failing_as(f"output directory {path} is not writable"):
        path.mkdir(parents=True, exist_ok=True)
        probe_file = path / ".write_probe"
        probe_file.write_bytes(b"")
        probe_file.unlink()
        if checkpoints:
            (path / "checkpoints").mkdir(exist_ok=True)
    return path


def _write_csv(path: Path, columns, rows) -> None:
    lines = [",".join(columns)]
    for row in rows:
        lines.append(",".join(_fmt(row[c]) for c in columns))
    fileio.write_text(path, "\n".join(lines) + "\n")


def emit_outputs(out_dir: Union[str, Path], suites) -> dict:
    """Write runs.csv, summary.csv, summary.json, and final checkpoints.

    Returns {name: path} for everything written. Row order is suite order
    then seed order; repeated invocations with the same inputs produce
    byte-identical files apart from the wall_seconds measurement column.
    A file that cannot be written raises a SamLabError.
    """
    out = prepare_out_dir(out_dir, checkpoints=True)
    written = {name: out / name for name in ("runs.csv", "summary.csv", "summary.json")}
    with _failing_as(f"cannot write outputs to {out}"):
        _write_csv(written["runs.csv"], RUNS_CSV_COLUMNS,
                   [run_row(suite.config, record) for suite in suites for record in suite.records])
        entries = [summary(suite) for suite in suites]
        # summary.csv flattens each entry's metrics into <metric>_<stat> columns.
        _write_csv(written["summary.csv"], SUMMARY_CSV_COLUMNS,
                   [{**entry, **{f"{name}_{stat}": value
                                 for name, stats in entry["metrics"].items()
                                 for stat, value in stats.items()}}
                    for entry in entries])
        payload = {
            "aggregates": entries,
            "failures": [
                {"seed": f.seed, "optimizer": f.optimizer_label, "error": f.error}
                for s in suites for f in s.failures
            ],
        }
        fileio.write_text(written["summary.json"],
                          json.dumps(payload, indent=2, sort_keys=True) + "\n")
        ckpt_dir = out / "checkpoints"
        for suite in suites:
            for record in suite.records:
                name = f"{record.optimizer_label}_seed{record.seed}.ckpt"
                checkpoint_io.save(ckpt_dir / name, record.final_params)
                written[f"checkpoints/{name}"] = ckpt_dir / name
    return written


def emit_slice(out_dir: Union[str, Path], name: str, alphas, betas, losses) -> Path:
    """Write one slice_<name>.csv with alpha,beta,loss rows in grid order; a
    file that cannot be written raises a SamLabError."""
    path = prepare_out_dir(out_dir) / f"slice_{name}.csv"
    # repr of each Python float, as `_write_csv` writes a float; each alpha
    # and beta is formatted once, not once per cell.
    betas = [repr(beta) for beta in np.asarray(betas, dtype=np.float64).tolist()]
    lines = ["alpha,beta,loss"]
    for alpha, row in zip(np.asarray(alphas, dtype=np.float64).tolist(),
                          np.asarray(losses, dtype=np.float64).tolist()):
        alpha = repr(alpha)
        lines.extend(f"{alpha},{beta},{loss!r}" for beta, loss in zip(betas, row))
    with _failing_as(f"cannot write {path}"):
        fileio.write_text(path, "\n".join(lines) + "\n")
    return path


def probe_report_json(report) -> str:
    """A SharpnessReport as the sorted, indented JSON `probe` prints and writes."""
    return json.dumps(report.to_dict(), indent=2, sort_keys=True) + "\n"


def emit_probe_report(out_dir: Union[str, Path], report) -> Path:
    """Write probe_report.json (`probe_report_json`)."""
    path = prepare_out_dir(out_dir) / "probe_report.json"
    with _failing_as(f"cannot write {path}"):
        fileio.write_text(path, probe_report_json(report))
    return path
