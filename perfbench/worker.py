"""Child-process phases of the samlab benchmark.

`run.py` starts each phase in a fresh interpreter:

    prepare  train the checkpoints probe_small reads (untimed)
    setup    import, parse the workload config, build the dataset, load
             checkpoints, then print "ready" (timed from outside as setup_s)
    measure  one warm-up round, then rounds for --seconds, with the reference
             kernel (reference.py) run before the first round and after each;
             prints one JSON line

The measure phase is its own process so that its peak RSS covers only the
measured work and the pool workers it starts.
"""

import argparse
import json
import os
import platform
import resource
import statistics
import sys
import time
from pathlib import Path

import numpy as np

import reference
import workloads

PIN_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
            "VECLIB_MAXIMUM_THREADS")


def git_commit(root: Path) -> str:
    """HEAD of the checkout, read from .git without running git."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text(encoding="utf-8").strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).is_file():
            return (git / ref).read_text(encoding="utf-8").strip()
        for line in (git / "packed-refs").read_text(encoding="utf-8").splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def environment() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "host": platform.node(),
        "machine": platform.machine(),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": {"name": blas.get("name"), "version": blas.get("version")},
        "thread_pins": {var: os.environ.get(var) for var in PIN_VARS},
        "commit": git_commit(workloads.HERE.parent),
    }


def peak_rss_mb() -> float:
    """Largest RSS of this process or any child it waited for (pool workers)."""
    kib = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
              resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return kib / 1024.0


def measure(ready, work: Path, seconds: float, trace: bool) -> dict:
    out_dir = work / "out"
    tracer = None
    if trace:
        import tracing
        tracer = tracing.Tracer(work / "spill")

    processes = ready.workload.jobs
    before = reference.seconds(processes)

    def one(traced):
        nonlocal before
        if traced:
            tracer.install()
        try:
            result = workloads.run_round(ready, out_dir)
        finally:
            if traced:
                tracer.uninstall()
                tracer.collect()
        after = reference.seconds(processes)
        result.reference = (before + after) / 2
        before = after
        return result

    warm = one(False)
    rounds = {False: [], True: []}
    start = time.perf_counter()
    while True:
        traced = trace and len(rounds[False]) > len(rounds[True])
        latest = one(traced)
        rounds[traced].append(latest)
        # Start no round that would end past --seconds, once every kind ran.
        if time.perf_counter() - start + latest.wall + latest.reference > seconds \
                and (not trace or rounds[True]):
            break

    errors = list(warm.errors)
    for traced in (False, True):
        for index, r in enumerate(rounds[traced], start=1):
            errors.extend(r.errors)
            changed = sorted(k for k in set(r.digests) | set(warm.digests)
                             if r.digests.get(k) != warm.digests.get(k))
            if changed:
                errors.append(f"{'traced' if traced else 'untraced'} round {index} wrote "
                              f"other bytes than the warm-up round: {', '.join(changed)}")
    every = [warm] + rounds[False] + rounds[True]

    plain = rounds[False]
    median = statistics.median
    # Task times by round first: a round's runs differ by optimizer, and the
    # median of all runs together would fall between two optimizers' runs.
    metrics = {
        "wall_ref": (median(r.wall / r.reference for r in plain), "ref"),
        "evals_per_ref": (median(r.evals * r.reference / r.eval_seconds for r in plain),
                          "1/ref"),
        "task_ref_p50": (median(median(r.task_seconds) / r.reference for r in plain), "ref"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
    }
    # The same timings in seconds, printed for reading but not part of the
    # result: they follow the host's speed as much as the program's.
    in_seconds = {
        "wall_s": (median(r.wall for r in plain), "s"),
        "evals_per_s": (median(r.evals / r.eval_seconds for r in plain), "1/s"),
        "task_s_p50": (median(median(r.task_seconds) for r in plain), "s"),
        "reference_s": (median(r.reference for r in plain), "s"),
    }
    if trace:
        metrics.update(tracing.per_layer_metrics(tracer, rounds[True], plain))
        tracer.write(work.parent / f"trace-{ready.workload.name}.jsonl")
    return {
        "correct": not errors,
        "attempted": sum(r.attempted for r in every),
        "failed": sum(r.failed for r in every),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "seconds": {k: {"value": v, "unit": u} for k, (v, u) in in_seconds.items()},
        "errors": errors,
        "samples": {"rounds": len(plain), "traced_rounds": len(rounds[True]),
                    "tasks": sum(len(r.task_seconds) for r in plain)},
        "digests": warm.digests,
        "env": environment(),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("phase", choices=("prepare", "setup", "measure"))
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--work", type=Path, required=True)
    parser.add_argument("--seconds", type=float, default=1.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--toy", action="store_true")
    args = parser.parse_args(argv)

    workload = workloads.load(args.workload, args.seed, toy=args.toy)
    if args.phase == "prepare":
        workloads.prepare(workload, args.work)
        return 0
    ready = workloads.setup(workload, args.work)
    if args.phase == "setup":
        print("ready", flush=True)
        return 0
    result = measure(ready, args.work, args.seconds, bool(args.trace))
    print(json.dumps(result, sort_keys=True), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
