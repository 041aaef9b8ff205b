"""Span tracing for the benchmark's traced run.

Spans are recorded by rebinding attributes of samlab's modules to timing
wrappers from this file; nothing under src/ changes. The library calls across
modules through those attributes (`network.forward`, `ad.backward`,
`probes.build_report`, `datamod.minibatches`, `checkpoint_io.save`), and a
module resolves its own globals at call time, so one rebinding also catches
calls made inside the module (`build_report` -> `loss_ascent_direction`).

A span is `[name, start, end, parent index, extra]`, kept in memory. Pool
workers forked by `run_suite` inherit the rebound attributes; each writes its
spans to the spill directory when its `run_training` call ends, and the
parent reads them back as one lane per task. All spans are written to one
file when the traced run ends.
"""

import functools
import json
import os
import statistics
from pathlib import Path
from time import perf_counter

import workloads  # noqa: F401  (puts samlab's sources on sys.path)
from samlab import autodiff, checkpoint, harness, network, optimizers, probes
from samlab import data as datamod

STEP_LABELS = ("sgd", "sam", "rand_sam", "sam_ga5")
PROBE_FUNCTIONS = ("build_report", "loss_ascent_direction", "loss_average_direction",
                   "loss_worst_direction_estimate", "loss_plane_slice")


def _step_name(args, kwargs):
    config = args[3] if len(args) > 3 else kwargs["config"]
    return f"optimizers.step.{config.label}"


def _step_extra(args, kwargs, result):
    report = result[1]
    return {"grad_evals": report.grad_evals, "zero_gradient": bool(report.zero_gradient)}


def _file_bytes(args, kwargs, result):
    return {"bytes": os.path.getsize(args[0])}


def _suite_extra(args, kwargs, result):
    jobs = kwargs.get("jobs", args[1] if len(args) > 1 else 1)
    return {"jobs": jobs, "run_seconds": sum(r.wall_seconds for r in result.records)}


class Tracer:
    def __init__(self, spill_dir: Path):
        self.spill_dir = Path(spill_dir)
        self.spill_dir.mkdir(parents=True, exist_ok=True)
        self.spans = []
        self.stack = []
        self.worker_lanes = []
        self.in_worker = False
        self._saved = []
        self._spilled = 0
        os.register_at_fork(after_in_child=self._after_fork)

    def _after_fork(self):
        self.spans, self.stack, self.worker_lanes = [], [], []
        self.in_worker = True

    # -- recording ---------------------------------------------------------

    def _open(self, name):
        span = [name, 0.0, 0.0, self.stack[-1] if self.stack else -1, None]
        self.stack.append(len(self.spans))
        self.spans.append(span)
        span[1] = perf_counter()
        return span

    def _close(self, span):
        span[2] = perf_counter()
        self.stack.pop()

    def _wrap(self, name, fn, name_fn=None, extra_fn=None, spill=False):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = self._open(name if name_fn is None else name_fn(args, kwargs))
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(span)
                if spill and self.in_worker:
                    self._spill()
            if extra_fn is not None:
                span[4] = extra_fn(args, kwargs, result)
            return result
        return traced

    def _wrap_generator(self, name, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            batches = fn(*args, **kwargs)
            while True:
                span = self._open(name)
                try:
                    batch = next(batches)
                except StopIteration:
                    return
                finally:
                    self._close(span)
                span[4] = {"batches": 1}
                yield batch
        return traced

    def _spill(self):
        self._spilled += 1
        path = self.spill_dir / f"worker-{os.getpid()}-{self._spilled}.json"
        path.write_text(json.dumps(self.spans), encoding="utf-8")
        self.spans, self.stack = [], []

    def collect(self):
        """Read back the spans pool workers spilled since the last call."""
        for path in sorted(self.spill_dir.glob("worker-*.json")):
            self.worker_lanes.append(json.loads(path.read_text(encoding="utf-8")))
            path.unlink()

    # -- installing --------------------------------------------------------

    def _rebind(self, module, attr, wrapper):
        self._saved.append((module, attr, getattr(module, attr)))
        setattr(module, attr, wrapper)

    def install(self):
        plain = [
            (network, "loss_and_grad"), (network, "forward"), (network, "accuracy"),
            (network, "param_layout"), (autodiff, "backward"),
            (harness, "build_dataset"), (harness, "emit_outputs"),
            (harness, "compare_optimizers"), (harness, "probe_checkpoint"),
            (harness, "slice_checkpoint"),
        ] + [(probes, name) for name in PROBE_FUNCTIONS]
        for module, attr in plain:
            layer = module.__name__.rsplit(".", 1)[-1]
            self._rebind(module, attr, self._wrap(f"{layer}.{attr}", getattr(module, attr)))
        self._rebind(optimizers, "step", self._wrap(
            "optimizers.step", optimizers.step, name_fn=_step_name, extra_fn=_step_extra))
        self._rebind(datamod, "minibatches",
                     self._wrap_generator("data.minibatches", datamod.minibatches))
        for attr in ("save", "load"):
            self._rebind(checkpoint, attr, self._wrap(
                f"checkpoint.{attr}", getattr(checkpoint, attr), extra_fn=_file_bytes))
        self._rebind(harness, "run_suite", self._wrap(
            "harness.run_suite", harness.run_suite, extra_fn=_suite_extra))
        self._rebind(harness, "run_training", self._wrap(
            "harness.run_training", harness.run_training, spill=True))

    def uninstall(self):
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)

    def write(self, path: Path):
        """All spans, one JSON line each; lane 0 is this process."""
        lanes = [self.spans] + self.worker_lanes
        with open(path, "w", encoding="utf-8") as fh:
            for lane, spans in enumerate(lanes):
                for index, (name, start, end, parent, extra) in enumerate(spans):
                    fh.write(json.dumps({"lane": lane, "id": index, "parent": parent,
                                         "name": name, "start": start, "end": end,
                                         "extra": extra}) + "\n")


class _Table:
    """Per-name durations, self times and extras over every lane."""

    def __init__(self, lanes):
        self.durations, self.self_time, self.extras = {}, {}, {}
        self.eval_under_report = 0
        self.eval_under_training = 0.0
        self.pooled_wait = 0.0
        self.worker_busy = 0.0
        self.suite_lanes = 0.0
        self.suite_run_seconds = 0.0
        for lane_index, spans in enumerate(lanes):
            child_time = [0.0] * len(spans)
            under_report = [False] * len(spans)
            for i, (name, start, end, parent, extra) in enumerate(spans):
                if parent >= 0:
                    child_time[parent] += end - start
                    under_report[i] = under_report[parent]
                    if name in ("network.forward", "network.accuracy") \
                            and spans[parent][0] == "harness.run_training":
                        self.eval_under_training += end - start
                elif lane_index > 0:
                    self.worker_busy += end - start
                if name == "probes.build_report":
                    under_report[i] = True
                elif under_report[i] and name in ("network.forward", "network.loss_and_grad"):
                    self.eval_under_report += 1
            for i, (name, start, end, parent, extra) in enumerate(spans):
                self.durations.setdefault(name, []).append(end - start)
                self.self_time[name] = self.self_time.get(name, 0.0) + (end - start) - child_time[i]
                if extra is not None:
                    self.extras.setdefault(name, []).append(extra)
                if name == "harness.run_suite" and extra is not None:
                    self.suite_lanes += extra["jobs"] * (end - start)
                    self.suite_run_seconds += extra["run_seconds"]
                    if extra["jobs"] > 1:
                        self.pooled_wait += (end - start) - child_time[i]

    def calls(self, *names):
        return sum(len(self.durations.get(n, ())) for n in names)

    def total(self, *names):
        return sum(sum(self.durations.get(n, ())) for n in names)

    def us_p50(self, name):
        values = self.durations.get(name)
        return statistics.median(values) * 1e6 if values else 0.0

    def extra_sum(self, names, key):
        return sum(e[key] for n in names for e in self.extras.get(n, ()))


def per_layer_metrics(tracer: Tracer, traced_rounds, untraced_rounds) -> dict:
    """Per-layer metrics, as {name: (value, unit)}; sums are per traced round."""
    table = _Table([tracer.spans] + tracer.worker_lanes)
    rounds = len(traced_rounds)
    # Lane time: the traced rounds in this process, less the time it only
    # waited on a pool, plus the tasks pool workers ran.
    busy = sum(r.wall for r in traced_rounds) - table.pooled_wait + table.worker_busy
    steps = [f"optimizers.step.{label}" for label in STEP_LABELS]
    step_calls = table.calls(*steps)
    evals = table.calls("network.loss_and_grad", "network.forward", "network.accuracy")
    reports = table.calls("probes.build_report")

    m = {}
    for name in ("network.loss_and_grad", "network.forward"):
        m[f"{name}.calls"] = (table.calls(name) / rounds, "count")
        m[f"{name}.us_p50"] = (table.us_p50(name), "us")
        m[f"{name}.share"] = (table.total(name) / busy, "share")
    m["network.param_layout.calls_per_eval"] = (
        table.calls("network.param_layout") / evals if evals else 0.0, "count")
    m["network.accuracy.us_p50"] = (table.us_p50("network.accuracy"), "us")
    m["autodiff.backward.us_p50"] = (table.us_p50("autodiff.backward"), "us")
    m["autodiff.backward.share"] = (table.total("autodiff.backward") / busy, "share")
    for label, name in zip(STEP_LABELS, steps):
        m[f"optimizers.step.{label}.us_p50"] = (table.us_p50(name), "us")
    m["optimizers.step.self_s"] = (
        sum(table.self_time.get(n, 0.0) for n in steps) / rounds, "s")
    m["optimizers.grad_evals_per_step"] = (
        table.extra_sum(steps, "grad_evals") / step_calls if step_calls else 0.0, "count")
    m["optimizers.zero_gradient_steps"] = (
        table.extra_sum(steps, "zero_gradient") / rounds, "count")
    for name in PROBE_FUNCTIONS:
        m[f"probes.{name}.s"] = (table.total(f"probes.{name}") / rounds, "s")
    m["probes.evals_per_report"] = (
        table.eval_under_report / reports if reports else 0.0, "count")
    m["data.minibatches.batches"] = (
        table.extra_sum(["data.minibatches"], "batches") / rounds, "count")
    m["data.minibatches.s"] = (table.total("data.minibatches") / rounds, "s")
    m["harness.build_dataset.s"] = (table.total("harness.build_dataset") / rounds, "s")
    for attr in ("save", "load"):
        name = f"checkpoint.{attr}"
        m[f"{name}.calls"] = (table.calls(name) / rounds, "count")
        m[f"{name}.s"] = (table.total(name) / rounds, "s")
        m[f"{name}.bytes"] = (table.extra_sum([name], "bytes") / rounds, "bytes")
    m["harness.run_training.self_s"] = (
        table.self_time.get("harness.run_training", 0.0) / rounds, "s")
    m["harness.eval.s"] = (table.eval_under_training / rounds, "s")
    m["harness.emit_outputs.s"] = (table.total("harness.emit_outputs") / rounds, "s")
    m["harness.pool_idle_share"] = (
        1.0 - table.suite_run_seconds / table.suite_lanes if table.suite_lanes else 0.0,
        "share")
    # Rounds against the reference kernel, so host drift between the
    # alternating traced and untraced rounds cancels.
    traced = statistics.median(r.wall / r.reference for r in traced_rounds)
    untraced = statistics.median(r.wall / r.reference for r in untraced_rounds)
    m["trace_overhead_share"] = (traced / untraced - 1.0, "share")
    return m
