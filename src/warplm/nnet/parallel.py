"""One pool of threads for the vocabulary-sized work of a training step.

`split(n, work)` cuts the index range [0, n) of an op of `work` elements
into at most one range per usable CPU, so that each range holds about
MIN_WORK elements or more; below 2 * MIN_WORK (every op at desk vocabulary
sizes) it returns one range. `run(fn, ranges)` calls fn(lo, hi) for every
range, the first in the calling thread and the rest on a ThreadPoolExecutor
built on first use, and returns the results in order. The ops split are a
few large numpy or BLAS calls each, which release the GIL.

Callers split only along an axis that no reduction runs over, so each
output element is computed by the same ops in the same order whatever the
number of ranges, and the bytes do not depend on the number of workers.

A pool thread runs its range in a copy of the caller's context, so under
the caller's numpy errstate (a context variable, which a thread would
otherwise read at its default). A forked child drops the pool, whose
threads it does not have, and builds its own on first use. `serial()` pins
the pool to one worker and OpenBLAS to one thread, for callers that already
use every CPU with processes.
"""

from __future__ import annotations

import contextlib
import contextvars
import ctypes
import os

import numpy as np

MIN_WORK = 1 << 18  # elements per range, enough to outweigh a hand-off to a thread

_pool = None  # (ThreadPoolExecutor, thread count), built by the first split run
_serial = 0  # depth of open serial() blocks


def _usable_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no sched_getaffinity on this OS
        return os.cpu_count() or 1


def workers() -> int:
    """The most ranges `split` returns: one per usable CPU, 1 under serial()."""
    return 1 if _serial else _usable_cpus()


def cut(n: int, k: int, unit: int = 1) -> list[tuple[int, int]]:
    """[(lo, hi)] covering range(n) in order: k ranges of near-equal whole
    numbers of `unit` elements, the last also taking the n % unit left."""
    units = n // unit
    return list(zip([units * i // k * unit for i in range(k)],
                    [units * i // k * unit for i in range(1, k)] + [n]))


def split(n: int, work: int, unit: int = 1) -> list[tuple[int, int]]:
    """cut(n, k, unit) with k = min(workers(), n // unit, work // MIN_WORK),
    at least 1."""
    k = min(n // unit, work // MIN_WORK)
    if k > 1:
        k = min(k, workers())
    return cut(n, max(k, 1), unit)


def _drop_pool() -> None:
    global _pool
    _pool = None


def _executor(threads: int):
    global _pool
    if _pool is None or _pool[1] < threads:
        # Imported here, not at the top: desk-size runs never split.
        from concurrent.futures import ThreadPoolExecutor

        if _pool is None and hasattr(os, "register_at_fork"):  # not on Windows
            os.register_at_fork(after_in_child=_drop_pool)
        else:
            _pool[0].shutdown(wait=False)
        _pool = (ThreadPoolExecutor(threads, thread_name_prefix="warplm-split"), threads)
    return _pool[0]


def run(fn, ranges: list[tuple[int, int]]) -> list:
    """[fn(lo, hi) for (lo, hi) in ranges], the first in this thread and the
    rest on the pool. Returns once every range has finished; the first
    exception in range order is re-raised."""
    if len(ranges) == 1:
        return [fn(*ranges[0])]
    pool = _executor(len(ranges) - 1)
    futures = [pool.submit(contextvars.copy_context().run, fn, *r) for r in ranges[1:]]
    try:
        first = fn(*ranges[0])
    finally:
        for f in futures:
            f.exception()  # waits: no range may still write once this returns
    return [first] + [f.result() for f in futures]


def _openblas_thread_controls() -> list:
    """[(get, set)] thread-count functions of numpy's OpenBLAS, looked up
    through numpy's extension module (dlsym also searches the libraries it
    links) under the names of numpy's wheel (scipy_openblas_*64_) or of a
    distribution build (openblas_*, openblas_*64_). Empty where none is
    found."""
    lib = ctypes.CDLL(np._core._multiarray_umath.__file__)
    for prefix, suffix in (("scipy_openblas", "64_"), ("openblas", ""), ("openblas", "64_")):
        get = getattr(lib, f"{prefix}_get_num_threads{suffix}", None)
        set_ = getattr(lib, f"{prefix}_set_num_threads{suffix}", None)
        if get is not None and set_ is not None:
            get.argtypes, get.restype = [], ctypes.c_int
            set_.argtypes, set_.restype = [ctypes.c_int], None
            return [(get, set_)]
    return []


@contextlib.contextmanager
def one_blas_thread():
    """Run the block with numpy's OpenBLAS at one thread; restore its count
    after. Pool threads then each run a one-thread BLAS call on their own
    CPU, and a BLAS call's bits do not depend on a thread count."""
    controls = _openblas_thread_controls()
    old = [get() for get, _ in controls]
    try:
        for _, set_ in controls:
            set_(1)
        yield
    finally:
        for (_, set_), count in zip(controls, old):
            set_(count)


@contextlib.contextmanager
def serial():
    """Run the block with one worker (nothing splits) and one BLAS thread."""
    global _serial
    _serial += 1
    try:
        with one_blas_thread():
            yield
    finally:
        _serial -= 1
