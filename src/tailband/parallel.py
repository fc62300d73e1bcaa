"""Deterministic work partitioning.

Parallel Monte Carlo here is always arranged as: fix a partition of the work
into batches, give each batch its own child random stream, compute batches
in any order, and reduce results in batch order.  The outcome is then
bit-identical for any worker count.
"""
from __future__ import annotations

import os
from typing import Callable, Sequence, TypeVar

T = TypeVar("T")
R = TypeVar("R")


def batch_sizes(total: int, batch: int) -> list[int]:
    """Split `total` items into fixed-size batches (last one may be short)."""
    if total <= 0 or batch <= 0:
        raise ValueError("total and batch must be positive")
    full, rem = divmod(total, batch)
    return [batch] * full + ([rem] if rem else [])


def run_batches(fn: Callable[[T], R], args: Sequence[T], threads: int = 1) -> list[R]:
    """Map fn over args, preserving order, on min(threads, len(args), usable
    CPUs) worker threads; with one worker it runs in the calling thread.

    The batch workers spend their time in numpy calls that release the
    interpreter lock (generator fills, cumulative sums, ufuncs and
    reductions), so the threads run in parallel.  The worker count changes
    no result, only the order in which batches are computed."""
    # the CPUs this process may run on: a cpuset or taskset can allow fewer
    # than os.cpu_count(), which counts the machine's
    if hasattr(os, "sched_getaffinity"):
        cpus = len(os.sched_getaffinity(0))
    else:
        cpus = os.cpu_count() or 1
    workers = min(threads, len(args), cpus)
    if workers <= 1:
        return [fn(a) for a in args]
    from concurrent.futures import ThreadPoolExecutor  # its threading, queue and logging only for a pool

    with ThreadPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(fn, args))
