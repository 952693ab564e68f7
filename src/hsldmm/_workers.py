"""Worker processes for the data-parallel loops of a reconstruction round:
the kNN row blocks and the band solves.

``_in_order`` runs a loop's calls on P processes that take them on demand:
each process, the caller included, takes the next untaken call whenever it
is free. The calls are 4-byte tickets in one pipe, taken in index order,
which the caller fills. The other P - 1 processes are children forked for
the loop; each sends back through a pipe of its own the index of each call
it takes, then the result, or the exception that ends its share. The caller
yields the results in call order, so nothing downstream depends on P or on
which process ran a call; with P = 1 it runs the calls in turn and forks
nothing. A child shares the loop's inputs copy-on-write and keeps the
caller's ``np.errstate``. Threads overlapped poorly, because the
Python-level steps of GMRES and of the kNN settle hold the interpreter lock;
a spawned worker would pay about 0.8 s of start-up per loop. A fixed deal,
call i in process i mod P, kept the processes in near lockstep: a result of
about 51 KB nearly fills a 64 KiB pipe, so a child could run at most one
call ahead of the caller's turn.

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
import select
import signal
import traceback
from contextlib import contextmanager, suppress

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


def _outcome(fn, i):
    """(True, fn(i)), or (False, the exception it raised)."""
    try:
        return True, fn(i)
    except Exception as exc:
        return False, exc


def _take(tickets: int, block: bool):
    """The next untaken call index from the ticket pipe, which is
    non-blocking in every process; None once the pipe is closed and empty,
    and, unless ``block``, while it is empty. A read gets a whole ticket or
    none, as every write is of whole tickets and atomic."""
    while True:
        try:
            ticket = os.read(tickets, 4)
        except BlockingIOError:
            if not block:
                return None
            from multiprocessing.connection import wait  # loaded before the fork

            wait([tickets])
            continue
        return int.from_bytes(ticket, "little") if ticket else None


def _serve(fn, tickets, writer):
    """A child's share of a loop: per ticket, send its index, then
    (True, result), or (False, exception) and stop. Ends the process; never
    returns."""
    code = 1
    try:
        while (i := _take(tickets, block=True)) is not None:
            writer.send(i)
            message = _outcome(fn, i)
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
    thread, on ``workers`` processes that take the calls on demand, as the
    module docstring says.

    An exception is raised when its call's turn comes. A child that ends
    while it holds call i raises ``NumericalError`` at i's turn, naming
    ``what``, i and the signal or exit status. Any end of the generator,
    an error or a close included, kills the children still running and
    reaps every child.
    """
    workers = min(workers, count) if _forks() else 1
    with _one_blas_thread():
        if workers == 1:
            for i in range(count):
                yield fn(i)
            return
        import fcntl  # POSIX only, as is os.fork
        from multiprocessing.connection import Pipe, wait  # only a loop that forks loads it

        tickets, dealer = os.pipe()
        os.set_blocking(tickets, False)  # for the caller; a child waits for a ticket
        os.set_blocking(dealer, False)
        dealt = 0  # tickets written
        children = {}  # reader -> pid, for each child not yet reaped
        held = {}  # reader -> the call its child took and has not answered
        done = {}  # call -> (ok, result or exception), until its turn
        dropped = None  # how a child ended that held no call, as it may have read a ticket

        def deal():
            nonlocal dealt, dealer
            while dealt < count:
                stop = min(count, dealt + select.PIPE_BUF // 4)
                try:  # all or nothing: at most PIPE_BUF bytes
                    os.write(dealer, np.arange(dealt, stop, dtype="<u4").tobytes())
                except BlockingIOError:  # full; the processes hold tickets to take
                    return
                dealt = stop
            if dealer is not None:
                os.close(dealer)  # a process that finds the pipe empty then reads EOF
                dealer = None

        def receive(timeout) -> bool:
            """Take in what the children sent, waiting up to ``timeout``
            for the first; whether anything came."""
            nonlocal dropped
            ready = wait(list(children), timeout)
            for reader in ready:
                try:
                    message = reader.recv()
                except (EOFError, OSError):  # OSError: it ended inside a message
                    pid = children.pop(reader)
                    reader.close()
                    code = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
                    how = (f"was killed by {signal.Signals(-code).name}" if code < 0
                           else f"exited with status {code}")
                    if reader in held:
                        i = held.pop(reader)
                        done[i] = (False, NumericalError(f"{what} {i}: its worker process {how}"))
                    elif code:
                        dropped = how
                    continue
                if isinstance(message, int):
                    held[reader] = message
                else:
                    done[held.pop(reader)] = message
            return bool(ready)

        try:
            deal()
            for _ in range(1, workers):
                reader, writer = Pipe(duplex=False)
                # Where Linux allows, room for a whole result, so that a child
                # need not wait for the caller to end its own call and read
                # it: a band at 128x128 is 128 KiB, the default pipe 64 KiB.
                # The band stages of three rounds at 128x128x32 fell from a
                # median 2.49 to 2.08 s (six runs each, 2 vCPU).
                with suppress(AttributeError, OSError):  # not Linux, or past its pipe-max-size
                    fcntl.fcntl(writer.fileno(), fcntl.F_SETPIPE_SZ, 1 << 20)
                pid = os.fork()
                if pid == 0:
                    if dealer is not None:
                        os.close(dealer)
                    _serve(fn, tickets, writer)
                children[reader] = pid
                writer.close()  # before the next fork: each write end has one owner
            for turn in range(count):
                while turn not in done:
                    if children and receive(0):
                        continue
                    deal()
                    i = _take(tickets, block=False)
                    if i is not None:
                        done[i] = _outcome(fn, i)
                    elif children:  # the turn's call is in a child
                        receive(None)
                    else:  # a child died between reading its ticket and sending it
                        raise NumericalError(f"{what} {turn}: its worker process {dropped}")
                ok, value = done.pop(turn)
                if not ok:
                    raise value
                yield value
        finally:
            for reader, pid in children.items():
                reader.close()
                os.kill(pid, signal.SIGKILL)  # on a normal end it has sent all it had
                os.waitpid(pid, 0)
            os.close(tickets)
            if dealer is not None:
                os.close(dealer)
