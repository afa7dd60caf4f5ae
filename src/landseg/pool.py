"""The map stages' thread pool: how many threads a map uses, and an ordered
map over them.

numpy releases the GIL in GEMM, copies, ufuncs and searchsorted, so tile
batches and pixel chunks computed on threads run side by side. Each call
computes the same arrays on any thread, so a map's bytes do not depend on
the thread count.
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor
from itertools import islice

MAP_WORKERS = 4  # cap on the threads of one map
# the settings OpenBLAS reads its thread count from, in its order
_BLAS_SETTINGS = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS",
                  "OMP_NUM_THREADS")
_AFFINITY = hasattr(os, "sched_setaffinity")


def _cpus() -> list:
    """The CPUs this thread may run on (taskset limits them)."""
    if _AFFINITY:
        return sorted(os.sched_getaffinity(0))
    return list(range(os.cpu_count() or 1))


def _start_on(share, cpus) -> None:
    """Move the calling thread onto the CPUs of share, then let it run on
    all of cpus again, where the platform can."""
    if _AFFINITY:
        os.sched_setaffinity(0, share)
        os.sched_setaffinity(0, cpus)


def _workers() -> int:
    """Threads for a map: the CPUs this process may run on, over the
    threads each BLAS call may take, within 1..MAP_WORKERS. BLAS takes
    every CPU unless the first positive of _BLAS_SETTINGS says
    otherwise, so an unpinned BLAS gets one worker."""
    cores = len(_cpus())
    blas = cores
    for name in _BLAS_SETTINGS:
        try:
            value = int(os.environ.get(name, ""))
        except ValueError:
            continue
        if value > 0:
            blas = value
            break
    return min(MAP_WORKERS, max(1, cores // blas))


def ordered_map(fn, items):
    """fn(item) for each item, yielded in order.

    With w > 1 workers, the items go in groups of w: this thread calls
    fn on the last of each group while a pool of w - 1 threads calls it
    on the others, so at most w calls are in flight. An error raised by
    a call, or closing the iterator early, ends the pool's threads first.

    Each call starts on its worker's own share of the CPUs. Threads that
    hand the GIL to each other at every numpy call are otherwise often
    scheduled on one CPU, where they take turns; after the start, the
    scheduler may still move them when other work needs a CPU.
    """
    workers = _workers()
    if workers == 1:
        yield from map(fn, items)
        return
    cpus = _cpus()
    # every share holds a CPU, even with more workers than CPUs
    mine, *shares = [cpus[i % len(cpus)::workers] for i in range(workers)]

    def on_share(share, item):
        _start_on(share, cpus)
        return fn(item)

    items = iter(items)
    with ThreadPoolExecutor(workers - 1) as pool:
        while group := list(islice(items, workers)):
            *others, last = group
            futures = [pool.submit(on_share, share, item)
                       for share, item in zip(shares, others)]
            result = on_share(mine, last)
            for future in futures:
                yield future.result()
            yield result
