"""The bench's output bytes, pinned: one full-size round of each perfbench
workload at seed 1 must write exactly the files it wrote when these digests
were taken, so a speed-up that moves an output byte fails here and not only
in a bench run.

Each round runs in a fresh interpreter with BLAS pinned to one thread, as
`perfbench/run.py` runs it: a multi-threaded OpenBLAS splits train_wide's
matmuls differently and writes other bytes. samlab's entry points set one
BLAS thread themselves (`harness.setup_process`), so train_wide also runs
once with the environment asking for two. Like the kernel pins in
`test_network.py`, the digests hold for numpy 2.4 and its bundled OpenBLAS on
x86-64.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
BLAS_PINS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
             "MKL_NUM_THREADS": "1", "VECLIB_MAXIMUM_THREADS": "1"}

ROUND = """
import json, sys
from pathlib import Path
import workloads
workload = workloads.load(sys.argv[1], 1)
work = Path(sys.argv[2])
if workload.kind == "probe":
    workloads.prepare(workload, work)
result = workloads.run_round(workloads.setup(workload, work), work / "out")
print(json.dumps({"errors": result.errors, "failed": result.failed,
                  "digests": result.digests}))
"""

PINNED_DIGESTS = {
    "probe_small": {
        "probes.json": "2a84475f613d7331b6fbe8bdcdf2d688d88f83985c7fb91e9117ea0dc3e842cc",
        "slice_plane_sam_seed1222356006.csv": "06afc09633d95e48839207faa5aceac2fa12f69fa355f44ba23f234c56bfba46",
        "slice_plane_sgd_seed1222356006.csv": "0c6814f072cec14838abf79d17ae06145a8af3421017e0a4dcf61daea67612c1",
    },
    "train_small": {
        "checkpoints/rand_sam_seed1222356006.ckpt": "8432ff5bf7cee1103113f8e9b60694eb615b154ce820dc46f24898de7e1cc58c",
        "checkpoints/sam_ga5_seed1222356006.ckpt": "3533b124cf265989a5185037f1f9931464efb897847b809a9e3a150244a09403",
        "checkpoints/sam_seed1222356006.ckpt": "fcda63a6c29fc57d7c25ba7cb1f1feef0ea1ecfe47f8bf245df3040792b750e3",
        "checkpoints/sgd_seed1222356006.ckpt": "79255b55ecce38763232bdbd5feee205fa7022bd6cc4fb9399b81f3fcaec27ab",
        "runs.csv (without wall_seconds)": "6e36b6c22bcd35e611ffd8462126ddefdc60cef2bfb37ccc35939b714bc726ba",
        "summary.csv": "5ec9f446ee345cb17a8ad20293f8dbbaa0193671a42ed1afee6973afae1ca66c",
        "summary.json": "213daca090c0e2daaaac4f3cc4482466a98e4e83b739685f58c2b09cf1eeed18",
    },
    "train_wide": {
        "checkpoints/sam_seed1222356006.ckpt": "6049c51b7fedb7aa0ac27b480bdd79a9a6cdd192eb1b9e8c903fe20a28b5a0ee",
        "checkpoints/sam_seed1640193507.ckpt": "0a28aaa0a6fddcc5cd1df9b2d9a6ee5e3bb0fd8b459511ab00081da66d1897d2",
        "checkpoints/sam_seed1722851097.ckpt": "b91137c527ca7047ae2d7382baf702b956f6a1d96702b7fe88f7de6e0944321d",
        "checkpoints/sam_seed1819850096.ckpt": "68f0351ccaaae0ba3956acc79783b5be684bd092278ce509825d50aaddd1cce8",
        "runs.csv (without wall_seconds)": "05efad117a05ad6ceff74d0a4a3a0232b6e98e4ffb5b5c164678f683125ac813",
        "summary.csv": "5d79655fec1aa926922d3a3ff21405cb76ff62d6c203d3e73433a0be17249990",
        "summary.json": "d481c6e92c7590ead7f50d63e884d42a013b79269ea9a84123f9e24833acd463",
    },
}


def _round(name: str, work: Path, threads: dict) -> dict:
    """The digests of one round at seed 1, in a fresh interpreter whose BLAS
    thread variables are `threads` alone."""
    env = {var: value for var, value in os.environ.items() if var not in BLAS_PINS}
    env.update(threads, PYTHONPATH=str(PERFBENCH))
    done = subprocess.run([sys.executable, "-c", ROUND, name, str(work)],
                          env=env, capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.splitlines()[-1])
    assert result["errors"] == [] and result["failed"] == 0
    return result["digests"]


@pytest.mark.parametrize("name", sorted(PINNED_DIGESTS))
def test_bench_round_writes_its_pinned_bytes(name, tmp_path):
    assert _round(name, tmp_path, BLAS_PINS) == PINNED_DIGESTS[name]


def test_two_blas_threads_asked_for_still_give_the_pinned_bytes(tmp_path):
    """The environment asks OpenBLAS for two threads; `setup_process` sets one
    before any kernel call, so train_wide writes its pinned bytes."""
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    if (cpus or 1) < 2:
        pytest.skip("one CPU: OpenBLAS runs one thread whatever it is asked, "
                    "so two threads asked for cannot be told from one")
    assert _round("train_wide", tmp_path, {"OPENBLAS_NUM_THREADS": "2"}) == \
        PINNED_DIGESTS["train_wide"]
