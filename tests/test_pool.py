import sys
import threading

import numpy as np
import pytest

from landseg import pool

BLAS = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")


@pytest.mark.parametrize("cpus, settings, workers", [
    ({0, 1}, {}, 1),                                  # BLAS unpinned
    (set(range(16)), {}, 1),
    ({0, 1}, {"OPENBLAS_NUM_THREADS": "1"}, 2),       # the benchmark's
    ({0, 1}, {"OPENBLAS_NUM_THREADS": "2"}, 1),
    (set(range(4)), {"OPENBLAS_NUM_THREADS": "2"}, 2),
    (set(range(16)), {"OMP_NUM_THREADS": "1"}, pool.MAP_WORKERS),
    ({0}, {"OPENBLAS_NUM_THREADS": "1"}, 1),          # taskset -c 0
    ({1, 3, 6}, {"OPENBLAS_NUM_THREADS": "1"}, 3),    # taskset -c 1,3,6
    ({0, 1}, {"OPENBLAS_NUM_THREADS": "0", "GOTO_NUM_THREADS": "x",
              "OMP_NUM_THREADS": "1"}, 2),            # first positive wins
    ({0, 1}, {"GOTO_NUM_THREADS": "2", "OMP_NUM_THREADS": "1"}, 1),
    ({0, 1}, {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "2"}, 2),
])
@pytest.mark.skipif(not pool._AFFINITY, reason="no CPU affinity here")
def test_workers_rule(monkeypatch, cpus, settings, workers):
    monkeypatch.setattr(pool.os, "sched_getaffinity", lambda pid: cpus)
    for name in BLAS:
        monkeypatch.delenv(name, raising=False)
    for name, value in settings.items():
        monkeypatch.setenv(name, value)
    before = threading.active_count()
    assert pool._workers() == workers
    assert threading.active_count() == before


@pytest.mark.parametrize("workers", [1, 2, 3])
@pytest.mark.parametrize("n", [0, 1, 5, 6, 7])
def test_ordered_map_keeps_order(monkeypatch, workers, n):
    monkeypatch.setattr(pool, "_workers", lambda: workers)
    assert list(pool.ordered_map(lambda i: i * i, range(n))) == [
        i * i for i in range(n)]


@pytest.mark.parametrize("workers", [2, 3])
def test_ordered_map_runs_few_calls_ahead(monkeypatch, workers):
    # a call starts only when the results before it are at most a group,
    # workers calls, away from being consumed
    monkeypatch.setattr(pool, "_workers", lambda: workers)
    started = []
    lock = threading.Lock()

    def fn(i):
        with lock:
            started.append(i)
        return i

    for i in pool.ordered_map(fn, range(20)):
        with lock:
            assert max(started) < i + workers


@pytest.mark.parametrize("workers", [2, 3])
@pytest.mark.parametrize("bad", [0, 2, 4])
def test_ordered_map_error_ends_the_threads(monkeypatch, workers, bad):
    monkeypatch.setattr(pool, "_workers", lambda: workers)
    before = threading.active_count()

    def fn(i):
        if i == bad:
            raise ValueError(f"item {i}")
        return i

    with pytest.raises(ValueError, match=f"item {bad}"):
        for i in pool.ordered_map(fn, range(9)):
            assert i < bad
    assert threading.active_count() == before


def test_ordered_map_closed_early_ends_the_threads(monkeypatch):
    monkeypatch.setattr(pool, "_workers", lambda: 3)
    before = threading.active_count()
    results = pool.ordered_map(lambda i: i, range(30))
    assert next(results) == 0
    assert threading.active_count() > before
    results.close()
    assert threading.active_count() == before


@pytest.mark.skipif(not pool._AFFINITY, reason="no CPU affinity here")
@pytest.mark.parametrize("workers", [2, 3])
def test_ordered_map_starts_each_call_on_its_share(monkeypatch, workers):
    # each call moves its thread onto its worker's share of the CPUs and
    # then lets it run on all of them again
    monkeypatch.setattr(pool, "_workers", lambda: workers)
    cpus = pool._cpus()
    shares = [set(cpus[i % len(cpus)::workers]) for i in range(workers)]
    moves = {}
    setaffinity = pool.os.sched_setaffinity

    def recording(pid, mask):
        moves.setdefault(threading.get_ident(), []).append(set(mask))
        setaffinity(pid, mask)

    def fn(i):
        moves.setdefault(threading.get_ident(), []).append(i)
        return i

    monkeypatch.setattr(pool.os, "sched_setaffinity", recording)
    assert list(pool.ordered_map(fn, range(10))) == list(range(10))
    main = moves.pop(threading.get_ident())
    lasts = [min(at + workers, 10) - 1 for at in range(0, 10, workers)]
    assert main == [m for i in lasts for m in (shares[0], set(cpus), i)]
    for log in moves.values():
        assert len(log) % 3 == 0
        assert all(m in shares[1:] for m in log[0::3])
        assert all(m == set(cpus) for m in log[1::3])
    assert pool._cpus() == cpus


def test_ordered_map_placement_error_ends_the_threads(monkeypatch):
    monkeypatch.setattr(pool, "_workers", lambda: 3)

    def failing(share, cpus):
        if threading.current_thread() is not threading.main_thread():
            raise OSError("cannot move")

    monkeypatch.setattr(pool, "_start_on", failing)
    before = threading.active_count()
    with pytest.raises(OSError, match="cannot move"):
        list(pool.ordered_map(lambda i: i, range(9)))
    assert threading.active_count() == before


def test_ordered_map_stress_with_more_workers_than_cores(monkeypatch):
    # each call fills its own rows of one shared array, as predict_pixels
    # fills its columns, with the threads switched every microsecond
    monkeypatch.setattr(pool, "_workers", lambda: pool.MAP_WORKERS)
    out = np.zeros((301, 64))

    def fill(i):
        out[i] = np.arange(64) + i
        return i

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        assert list(pool.ordered_map(fill, range(301))) == list(range(301))
    finally:
        sys.setswitchinterval(interval)
    assert np.array_equal(out, np.arange(301)[:, None] + np.arange(64))
