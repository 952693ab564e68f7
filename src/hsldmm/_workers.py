"""Worker threads for the data-parallel loops of a reconstruction round: the
kNN row blocks and the band solves.

A loop runs with numpy's OpenBLAS on one thread, so that its workers do not
contend with BLAS's own thread pool and a task's BLAS results do not depend
on how many workers run. The call that sets this,
``openblas_set_num_threads_local``, is looked up once with ``ctypes``.
Despite its name, the OpenBLAS bundled with numpy (0.3.31) applies it to the
whole process: set on one thread, it made the next GEMM on another thread
run on one core. So a loop sets it from the calling thread, again in each
worker in case a build keeps it per thread, and gives the caller its count
back when the loop ends. Without the symbol a loop runs on the calling
thread alone.

Threads overlap only inside numpy calls that drop the interpreter lock:
``np.dot`` does through its BLAS call, while ``@`` on the same arrays keeps
it (a 16 x 6400 gemv on two threads ran 1.4-1.6x and 0.9-1.0x as fast as
on one, 2 vCPU).
"""

from __future__ import annotations

import contextvars
import ctypes
import os
from concurrent.futures import ThreadPoolExecutor

import numpy as np


def _find_pin():
    try:
        fn = ctypes.CDLL(np._core._multiarray_umath.__file__).openblas_set_num_threads_local
    except (AttributeError, OSError):  # numpy without its own OpenBLAS, or an older one
        return None
    fn.argtypes = [ctypes.c_int]
    fn.restype = ctypes.c_int  # the previous thread count
    return fn


_pin = _find_pin()


def _usable_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def _pool_size() -> int:
    """Workers a loop may use: one per usable CPU, or one without the pin."""
    return 1 if _pin is None else _usable_cpus()


def _pin_one():
    if _pin is not None:
        _pin(1)


def _in_order(fn, count: int, workers: int):
    """Yield fn(0), ..., fn(count - 1) in that order, computed on
    ``workers`` threads when there are more than one, with BLAS on one
    thread while the loop runs.

    Each call runs in its own copy of the caller's context, because
    ``np.errstate`` is a context variable and new threads start without it.
    An exception is raised when its call's turn comes; closing the generator
    cancels the calls not yet started and waits for the running ones.
    """
    previous = None if _pin is None else _pin(1)
    try:
        if workers == 1:
            yield from map(fn, range(count))
            return
        contexts = [contextvars.copy_context() for _ in range(count)]
        with ThreadPoolExecutor(workers, initializer=_pin_one) as pool:
            yield from pool.map(lambda ctx, i: ctx.run(fn, i), contexts, range(count))
    finally:
        if previous is not None:
            _pin(previous)
