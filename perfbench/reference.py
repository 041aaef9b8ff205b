"""The reference kernel: a fixed piece of numpy work that measures host speed.

The benchmark's hosts are shared, and their speed drifts by tens of percent
over minutes while the program does not change. The measured phase runs this
kernel before the first round and after every round, and the end-to-end
timings are given in units of the kernel's time around the same round
(`*_ref` metrics), so that a slower host slows both and the ratio stays put.

The kernel uses no samlab code, so a change to samlab moves only the
numerator. Its work resembles the workloads': small dense layers at
batch 256, where numpy's per-call overhead and the arithmetic both count.
A workload whose rounds keep a pool of N processes busy is timed against N
copies of the kernel run at once, so that the reference sees every CPU the
round used and the same contention between them.

Changing anything here changes the unit of every `*_ref` metric: the
kernel is part of the benchmark's definition, like a workload.
"""

import multiprocessing
import statistics
import time

import numpy as np

BATCH = 256
CHUNKS = 10
REPEATS = 100   # per chunk


def _inputs():
    rng = np.random.default_rng(20241101)
    features = rng.normal(size=(BATCH, 2))
    w1 = rng.normal(size=(2, 32))
    w2 = rng.normal(size=(32, 2))
    one_hot = np.eye(2)[rng.integers(0, 2, BATCH)]
    return features, w1, w2, one_hot


_INPUTS = _inputs()


def seconds(processes: int = 1) -> float:
    """Wall time of CHUNKS x REPEATS forward and backward passes of a 2-32-2 MLP.

    Given as CHUNKS times the median chunk, so that a brief stall, such as
    the kernel reaping a pool's workers just before, does not count. With
    `processes` > 1, that many forked copies start together and the mean of
    their times is returned. They are not pinned to CPUs, as the pool
    workers a round starts are not.
    """
    if processes == 1:
        return _kernel()
    # Fork, as samlab's run_suite pool does on Linux: between rounds this
    # process runs no other thread (BLAS is pinned to one), and the copies
    # must not spend the round's gap importing numpy afresh.
    ctx = multiprocessing.get_context("fork")
    barrier = ctx.Barrier(processes)
    children, pipes = [], []
    try:
        for _ in range(processes):
            receive, send = ctx.Pipe(duplex=False)
            child = ctx.Process(target=_child, args=(barrier, send))
            child.start()
            send.close()  # a child that dies then shows as EOFError, not a hang
            children.append(child)
            pipes.append(receive)
        return statistics.mean(pipe.recv() for pipe in pipes)
    finally:
        for child in children:
            child.join()


def _child(barrier, send):
    barrier.wait(timeout=60)  # raises in the others if one copy never starts
    send.send(_kernel())


def _kernel() -> float:
    return CHUNKS * statistics.median(_chunk() for _ in range(CHUNKS))


def _chunk() -> float:
    features, w1, w2, one_hot = _INPUTS
    start = time.perf_counter()
    for _ in range(REPEATS):
        pre = features @ w1
        hidden = np.maximum(pre, 0.0)
        logits = hidden @ w2
        exp = np.exp(logits - logits.max(axis=1, keepdims=True))
        probs = exp / exp.sum(axis=1, keepdims=True)
        float(-np.sum(one_hot * np.log(probs)) / BATCH)
        grad_logits = (probs - one_hot) / BATCH
        grad_w2 = hidden.T @ grad_logits
        grad_w1 = features.T @ ((grad_logits @ w2.T) * (pre > 0.0))
        float(np.linalg.norm(grad_w1) + np.linalg.norm(grad_w2))
    return time.perf_counter() - start
