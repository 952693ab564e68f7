"""Worker processes for the data-parallel loops of a reconstruction round:
the kNN row blocks and the band solves.

``_in_order`` deals a loop's calls by interleave to P processes: call i runs
in process i mod P. Process 0 is the caller; the others are children forked
for the loop, which send each result, or the exception that ends their
share, back through a pipe; with P = 1 the same loop forks no child. A
child shares the loop's inputs copy-on-write and keeps the caller's
``np.errstate``. Threads overlapped poorly, because the Python-level steps
of GMRES and of the kNN settle hold the interpreter lock; a spawned worker
would pay about 0.8 s of start-up per loop.

OpenBLAS runs on one thread inside the loops, so that the processes do not
contend with BLAS's own pool and results do not depend on P.
``_one_blas_thread`` sets that through ``openblas_set_num_threads_local``,
found once with ``ctypes``, at its outermost level only, and
``ldmm_reconstruct`` holds it for the whole call: OpenBLAS shuts its pool
down at each fork, and the next call of the setter, even with 1, starts a
pool thread that spun for 60-150 ms of CPU (2 vCPU). Without the symbol, or
without ``os.fork``, a loop runs on the caller alone.
"""

from __future__ import annotations

import ctypes
import os
import signal
import traceback
from contextlib import contextmanager
from multiprocessing import Pipe

import numpy as np


class NumericalError(RuntimeError):
    """Solver breakdown: singular assembly, a non-finite iterate, or a
    worker process that died before its result came back."""


def _find_pin():
    try:
        fn = ctypes.CDLL(np._core._multiarray_umath.__file__).openblas_set_num_threads_local
    except (AttributeError, OSError):  # numpy without its own OpenBLAS, or an older one
        return None
    fn.argtypes = [ctypes.c_int]
    fn.restype = ctypes.c_int  # the previous thread count
    return fn


_pin = _find_pin()
_pinned = False  # whether this process is inside a _one_blas_thread


@contextmanager
def _one_blas_thread():
    """Hold OpenBLAS at one thread. Only the outermost use calls the pin,
    and gives the caller's count back at its end; a forked child inherits
    the held state and so never calls it."""
    global _pinned
    if _pin is None or _pinned:
        yield
        return
    previous = _pin(1)
    _pinned = True
    try:
        yield
    finally:
        _pinned = False
        _pin(previous)


def _usable_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def _forks() -> bool:
    """Whether a loop may fork: without the pin, each process would run
    BLAS on a pool of its own."""
    return _pin is not None and hasattr(os, "fork")


def _pool_size() -> int:
    """Processes a loop may use: one per usable CPU, or the caller alone."""
    return _usable_cpus() if _forks() else 1


def _serve(fn, calls, writer):
    """A child's share of a loop: send (True, result) per call, or
    (False, exception) and stop. Ends the process; never returns."""
    code = 1
    try:
        for i in calls:
            try:
                message = (True, fn(i))
            except Exception as exc:
                message = (False, exc)
            writer.send(message)
            if not message[0]:
                break
        code = 0
    except BaseException:  # an unpicklable result, say; the caller sees only the exit status
        traceback.print_exc()
    finally:
        os._exit(code)


def _in_order(fn, count: int, workers: int, what: str):
    """Yield fn(0), ..., fn(count - 1) in that order, with BLAS on one
    thread, dealt to ``workers`` processes as the module docstring says.

    An exception is raised when its call's turn comes. A child that ends
    before sending the result of call i raises ``NumericalError`` naming
    ``what``, i and the signal or exit status. Any end of the generator,
    an error or a close included, kills the children still running and
    reaps every child.
    """
    workers = min(workers, count) if _forks() else 1
    with _one_blas_thread():
        children = []  # (pid, reader) of the processes for residues 1, 2, ...
        try:
            for j in range(1, workers):
                reader, writer = Pipe(duplex=False)
                pid = os.fork()
                if pid == 0:
                    _serve(fn, range(j, count, workers), writer)
                children.append((pid, reader))
                writer.close()  # before the next fork: each write end has one owner
            for i in range(count):
                if i % workers == 0:
                    yield fn(i)
                    continue
                pid, reader = children[i % workers - 1]
                try:
                    ok, value = reader.recv()
                except EOFError:
                    code = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
                    children[i % workers - 1] = (None, reader)  # reaped
                    how = (f"was killed by {signal.Signals(-code).name}" if code < 0
                           else f"exited with status {code}")
                    raise NumericalError(f"{what} {i}: its worker process {how}") from None
                if not ok:
                    raise value
                yield value
        finally:
            for pid, reader in children:
                reader.close()
                if pid is not None:
                    os.kill(pid, signal.SIGKILL)  # on a normal end it has sent all it had
                    os.waitpid(pid, 0)
