"""samlab benchmark: run one workload, check its outputs, print its metrics.

    python3 perfbench/run.py --workload train_small --seed 1 --seconds 30 --trace 0

Prints a table of every metric by name and unit, the environment, the sha256
of each output file, and as its last line one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`. With `--trace 0` the metrics
are the end-to-end ones of BENCHMARK.json, with `--trace 1` the per-layer ones
from the traced run. Exit code 0 when the correctness gate passes, 1 when it
fails (the result is still printed), 2 or 3 when nothing could be measured.

Each phase runs in a fresh interpreter started from here (see worker.py),
with BLAS pinned to one thread per process. Scratch files go to
`.perfbench_work/` at the root of the checkout.
"""

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"
BLAS_PINS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
             "MKL_NUM_THREADS": "1", "VECLIB_MAXIMUM_THREADS": "1"}
SETUP_SAMPLES = 11
BUDGET_S = 170.0

# The JSON result carries workload-neutral names, so every workload reports
# every end-to-end metric; the table also prints the per-workload name.
ALIASES = {
    "train": {"evals_per_ref": "grad_evals_per_ref", "task_ref_p50": "run_ref_p50",
              "evals_per_s": "grad_evals_per_s", "task_s_p50": "run_s_p50"},
    "probe": {"evals_per_ref": "slice_points_per_ref", "task_ref_p50": "probe_ref_p50",
              "evals_per_s": "slice_points_per_s", "task_s_p50": "probe_s_p50"},
}


class BenchError(Exception):
    pass


def run_phase(phase, args, env, deadline, until_ready=False):
    """Run one worker phase in its own process group, killed at the deadline.

    Returns (seconds from start to its "ready" line, or to its exit; stdout).
    """
    started = time.perf_counter()
    proc = subprocess.Popen([sys.executable, str(WORKER), phase, *args], cwd=ROOT,
                            env=env, stdout=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        if until_ready:
            ready = proc.stdout.readline().strip() == "ready"
            elapsed = time.perf_counter() - started
        out, _ = proc.communicate(timeout=max(deadline - time.monotonic(), 0.1))
        if not until_ready:
            ready, elapsed = True, time.perf_counter() - started
    except subprocess.TimeoutExpired:
        raise BenchError(f"{phase} phase ran past the time budget")
    finally:
        # The phase leads its own process group: this also stops pool workers
        # it may have left behind.
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        proc.communicate()
    if proc.returncode != 0 or not ready:
        raise BenchError(f"{phase} phase exited with code {proc.returncode}")
    return elapsed, out


def main(argv=None) -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=[w["name"] for w in bench["workloads"]])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--toy", action="store_true",
                        help="shrink the workload (smoke test)")
    args = parser.parse_args(argv)
    # Run the `finally` clauses, which stop the phase processes, on SIGTERM too.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    if not (ROOT / "src" / "samlab" / "__init__.py").is_file():
        print(f"samlab sources not found under {ROOT / 'src'}", file=sys.stderr)
        return 2
    deadline = time.monotonic() + BUDGET_S
    spec = json.loads((HERE / "configs" / f"{args.workload}.json").read_text(encoding="utf-8"))
    kind = spec["bench"]["kind"]
    work = ROOT / ".perfbench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    env = dict(os.environ, **BLAS_PINS, TMPDIR=str(work))
    common = ["--workload", args.workload, "--seed", str(args.seed), "--work", str(work)]
    if args.toy:
        common.append("--toy")
    try:
        if kind == "probe":
            run_phase("prepare", common, env, deadline)
        samples = 2 if args.toy else SETUP_SAMPLES
        run_phase("setup", common, env, deadline, until_ready=True)  # fills __pycache__
        setup = [run_phase("setup", common, env, deadline, until_ready=True)[0]
                 for _ in range(samples)]
        _, out = run_phase("measure", common + [
            "--seconds", str(args.seconds), "--trace", str(args.trace)], env, deadline)
        result = json.loads(out.strip().splitlines()[-1])
    except (BenchError, ValueError, IndexError) as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 3
    finally:
        shutil.rmtree(work, ignore_errors=True)

    metrics = result["metrics"]
    metrics["setup_s"] = {"value": statistics.median(setup), "unit": "s"}
    report(args, kind, result, len(setup))
    names = [m["name"] for m in bench["per_layer" if args.trace else "end_to_end"]]
    print(json.dumps({
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: metrics[name] for name in names},
    }))
    return 0 if result["correct"] else 1


def report(args, kind, result, setup_samples):
    metrics, samples = result["metrics"], result["samples"]
    aliases = ALIASES[kind]
    per_round = f"median round, {samples['rounds']} rounds"
    notes = {
        "setup_s": f"median of {setup_samples} fresh interpreters",
        "wall_ref": per_round, "wall_s": per_round,
        "evals_per_ref": per_round, "evals_per_s": per_round,
        "task_ref_p50": f"median round's median, {samples['tasks']} samples",
        "task_s_p50": f"median round's median, {samples['tasks']} samples",
        "reference_s": "reference kernel, median round",
        "peak_rss_mb": "this process and its pool workers",
    }
    print(f"# samlab benchmark: workload {args.workload}, seed {args.seed}, "
          f"trace {args.trace}, {samples['rounds']} rounds"
          f" + {samples['traced_rounds']} traced + 1 warm-up")

    def line(name, m):
        shown = f"{aliases[name]} (as {name})" if name in aliases else name
        print(f"  {shown:<44} {m['value']:>16.6f} {m['unit']:<6} {notes.get(name, '')}")

    for name in sorted(metrics):
        line(name, metrics[name])
    print("# the same timings in seconds, which follow the host's speed (not in the result):")
    for name, m in result["seconds"].items():
        line(name, m)
    share = result["failed"] / result["attempted"]
    print(f"  {'failed_share':<44} {share:>16.6f} {'share':<6} "
          f"{result['failed']} of {result['attempted']} runs or probe/slice calls")
    print("# env " + json.dumps(result["env"], sort_keys=True))
    for name, digest in sorted(result["digests"].items()):
        print(f"# sha256 {digest}  {name}")
    for error in result["errors"]:
        print(f"correctness gate: {error}", file=sys.stderr)
    print(f"# correctness gate: {'pass' if result['correct'] else 'FAIL'}")


if __name__ == "__main__":
    sys.exit(main())
