"""Workloads of the samlab benchmark: configs, measured rounds, correctness gate.

Each workload is a JSON file in `configs/` with three parts: `config`, the
samlab experiment config given to `harness.parse_config`; `bench`, the
benchmark's own settings (run seed count, pool size, accuracy floor); and
`toy`, overrides that shrink the workload for the smoke test. Everything
random (dataset seed, run seeds, blob centers) derives from the workload seed.

A round is one unit of the workload's work, always the same for a given seed,
so every round of a run must write byte-identical outputs (runs.csv apart
from its wall_seconds column).
"""

import copy
import hashlib
import json
import math
import random
import shutil
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
if not (SRC / "samlab" / "__init__.py").is_file():
    raise ImportError(f"samlab sources not found under {SRC}")
sys.path.insert(0, str(SRC))

from samlab import checkpoint, harness, optimizers  # noqa: E402

CONFIG_DIR = HERE / "configs"
SEED_LIMIT = 2 ** 31


@dataclass
class Workload:
    name: str
    kind: str                   # "train" or "probe"
    raw: dict                   # the samlab config object, seeds filled in
    jobs: int
    accuracy_floor: Optional[float]


@dataclass
class Ready:
    """What set-up produces: the parsed config, its data, loaded checkpoints."""

    workload: Workload
    config: harness.ExperimentConfig
    n_train: int
    checkpoints: list


@dataclass
class Round:
    wall: float                 # whole round, outputs written
    eval_seconds: float         # training calls (train) or slice calls (probe)
    evals: int                  # RunRecord.grad_evals (train) or slice grid points (probe)
    task_seconds: list          # per-run wall_seconds (train) or per-checkpoint probe time
    attempted: int
    failed: int
    errors: list = field(default_factory=list)
    digests: dict = field(default_factory=dict)
    reference: float = 0.0      # mean reference-kernel time just before and after


def _merge(base: dict, override: dict) -> dict:
    out = copy.deepcopy(base)
    for key, value in override.items():
        if isinstance(value, dict) and isinstance(out.get(key), dict):
            out[key] = _merge(out[key], value)
        else:
            out[key] = copy.deepcopy(value)
    return out


def load(name: str, seed: int, toy: bool = False) -> Workload:
    """Read a workload's JSON and fill in everything derived from the seed."""
    spec = json.loads((CONFIG_DIR / f"{name}.json").read_text(encoding="utf-8"))
    if toy:
        spec = _merge(spec, spec.get("toy", {}))
    bench, raw = spec["bench"], spec["config"]
    rng = random.Random(seed)
    raw["dataset"]["seed"] = rng.randrange(1, SEED_LIMIT)
    raw["seeds"] = sorted(rng.sample(range(1, SEED_LIMIT), bench["run_seeds"]))
    if raw["dataset"]["generator"] == "gaussian_blobs":
        raw["dataset"]["centers"] = [
            [round(rng.uniform(-2.0, 2.0), 6) for _ in range(bench["blob_dim"])]
            for _ in range(bench["blob_classes"])]
    return Workload(name=name, kind=bench["kind"], raw=raw, jobs=bench["jobs"],
                    accuracy_floor=bench.get("accuracy_floor"))


def checkpoint_paths(work_dir: Path) -> list:
    return sorted((work_dir / "prepared" / "checkpoints").glob("*.ckpt"))


def prepare(workload: Workload, work_dir: Path) -> None:
    """Untimed preparation: train the checkpoints that probe_small reads."""
    config = harness.parse_config(workload.raw)
    suites = harness.compare_optimizers(config, config.optimizer_sweep, jobs=1)
    for suite in suites:
        if suite.failures:
            raise RuntimeError(f"preparation run failed: {suite.failures[0].error}")
    harness.emit_outputs(work_dir / "prepared", suites)


def setup(workload: Workload, work_dir: Path) -> Ready:
    """Everything before the first measured call; timed as setup_s."""
    config = harness.parse_config(workload.raw)
    train, _ = harness.build_dataset(config.dataset, config.label_noise_fraction)
    paths = []
    if workload.kind == "probe":
        paths = checkpoint_paths(work_dir)
        if not paths:
            raise RuntimeError(f"no prepared checkpoints under {work_dir}")
        for path in paths:
            checkpoint.load(path)
    return Ready(workload=workload, config=config, n_train=len(train), checkpoints=paths)


def evals_per_step(opt: optimizers.OptimizerConfig) -> int:
    if opt.kind == optimizers.SGD:
        return 1
    if opt.kind == optimizers.SAM_GA:
        return opt.ga_steps + 1
    return 2


def check_report(report, where: str) -> list:
    """Probe values must be finite, and the worst-direction estimate is a max."""
    errors = [f"{where}: non-finite {key} = {value!r}"
              for key, value in report.to_dict().items()
              if isinstance(value, float) and not math.isfinite(value)]
    floor = max(report.l_asc, report.base_loss)
    if report.l_max_estimate < floor:
        errors.append(f"{where}: l_max_estimate {report.l_max_estimate!r} < "
                      f"max(l_asc, base_loss) {floor!r}")
    return errors


def check_suites(ready: Ready, suites) -> list:
    config = ready.config
    steps = config.epochs * math.ceil(ready.n_train / config.batch_size)
    floor = ready.workload.accuracy_floor
    errors = []
    for suite in suites:
        expected = steps * evals_per_step(suite.config.optimizer)
        for failure in suite.failures:
            errors.append(f"run {failure.optimizer_label} seed {failure.seed} failed: "
                          f"{failure.error}")
        for record in suite.records:
            where = f"run {record.optimizer_label} seed {record.seed}"
            if record.grad_evals != expected:
                errors.append(f"{where}: grad_evals {record.grad_evals} != "
                              f"{steps} steps x {evals_per_step(suite.config.optimizer)}")
            errors.extend(check_report(record.report, where))
            if floor is not None and record.final_test_accuracy < floor:
                errors.append(f"{where}: test accuracy {record.final_test_accuracy:.4f} "
                              f"below the floor {floor}")
    return errors


def train_round(ready: Ready, out_dir: Path) -> Round:
    config, jobs = ready.config, ready.workload.jobs
    start = time.perf_counter()
    if config.optimizer_sweep:
        suites = harness.compare_optimizers(config, config.optimizer_sweep, jobs=jobs)
    else:
        suites = [harness.run_suite(config, jobs=jobs)]
    trained = time.perf_counter()
    harness.emit_outputs(out_dir, suites)
    wall = time.perf_counter() - start
    records = [r for s in suites for r in s.records]
    failures = sum(len(s.failures) for s in suites)
    return Round(wall=wall, eval_seconds=trained - start,
                 evals=sum(r.grad_evals for r in records),
                 task_seconds=[r.wall_seconds for r in records],
                 attempted=len(records) + failures, failed=failures,
                 errors=check_suites(ready, suites))


def probe_round(ready: Ready, out_dir: Path) -> Round:
    config = ready.config
    out_dir.mkdir(parents=True, exist_ok=True)
    probe_seconds, slice_seconds, points, failed, errors = [], 0.0, 0, 0, []
    reports = {}
    start = time.perf_counter()
    for path in ready.checkpoints:
        report = None
        began = time.perf_counter()
        try:
            report = harness.probe_checkpoint(path, config)
        except Exception:  # counted and reported; the gate fails the run
            failed += 1
            errors.append(f"probe {path.name} raised:\n{traceback.format_exc()}")
        else:
            probe_seconds.append(time.perf_counter() - began)
            reports[path.name] = report.to_dict()
            errors.extend(check_report(report, f"probe {path.name}"))
        began = time.perf_counter()
        try:
            slice_cfg, alphas, betas, losses = harness.slice_checkpoint(path, config)
        except Exception:  # counted and reported; the gate fails the run
            failed += 1
            errors.append(f"slice {path.name} raised:\n{traceback.format_exc()}")
            continue
        slice_seconds += time.perf_counter() - began
        points += losses.size
        harness.emit_slice(out_dir, f"{slice_cfg.name}_{path.stem}", alphas, betas, losses)
        center = slice_cfg.n_points // 2
        if report is not None and slice_cfg.n_points % 2 == 1 \
                and losses[center, center] != report.base_loss:
            errors.append(f"slice {path.name}: center {losses[center, center]!r} != "
                          f"probe base_loss {report.base_loss!r}")
    (out_dir / "probes.json").write_text(
        json.dumps(reports, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    wall = time.perf_counter() - start
    return Round(wall=wall, eval_seconds=slice_seconds, evals=points,
                 task_seconds=probe_seconds, attempted=2 * len(ready.checkpoints),
                 failed=failed, errors=errors)


def run_round(ready: Ready, out_dir: Path) -> Round:
    """One round into a fresh `out_dir`, with the digests of what it wrote."""
    shutil.rmtree(out_dir, ignore_errors=True)
    result = (probe_round if ready.workload.kind == "probe" else train_round)(ready, out_dir)
    result.digests = digest_outputs(out_dir)
    return result


def _without_column(text: str, column: str) -> str:
    rows = [line.split(",") for line in text.splitlines()]
    drop = rows[0].index(column)
    return "\n".join(",".join(r[:drop] + r[drop + 1:]) for r in rows) + "\n"


def digest_outputs(out_dir: Path) -> dict:
    """sha256 of every output file; runs.csv without its wall_seconds column."""
    digests = {}
    for path in sorted(p for p in out_dir.rglob("*") if p.is_file()):
        name = path.relative_to(out_dir).as_posix()
        data = path.read_bytes()
        if name == "runs.csv":
            name = "runs.csv (without wall_seconds)"
            data = _without_column(data.decode("utf-8"), "wall_seconds").encode("utf-8")
        digests[name] = hashlib.sha256(data).hexdigest()
    return digests
