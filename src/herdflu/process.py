"""Forked child processes: one policy for whether to fork, how a child
shares memory with this process, how it is fed and how it ends.

The trajectory CSV and SVG writers fork row formatters
(`output._write_rows`), and the PRCC peak sweep runs in a child
(`sensitivity._peaks_beside_import`). The ensemble engine's noise
helper (`integrate.iter_path_blocks`) and the ensemble CSV's streaming
formatter (`output.write_ensemble_csv`) are each a `Ring`: a child that
does a job on each slot of a ring in a `shared_array` as this process
hands the slots over. Every child is a `Child`: it is started through
`fork_child`, the one call of `os.fork` in the package, which declines
below two `usable_cpus`, and reaped, killed and reported only here.
The sweep writes into a `shared_array` made before the fork; the
formatters write to an unnamed temporary file.
"""

from __future__ import annotations

import math
import mmap
import os
import sys
import threading
import warnings
from typing import Callable

import numpy as np


def usable_cpus() -> int:
    """The CPUs this process may run on: its affinity set where the
    platform has one, else `os.cpu_count()` (1 if unknown)."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def shared_array(shape: tuple[int, ...]) -> np.ndarray:
    """A zeroed float array of `shape`, at least one element, in an
    anonymous shared mapping: what a child forked after this call
    writes into it, this process reads."""
    n = math.prod(shape)
    return np.frombuffer(mmap.mmap(-1, 8 * n), count=n).reshape(shape)


def fork_child(body: Callable[[], None]) -> int | None:
    """Fork a child that runs `body` and exits 0; return the child's
    pid, or None if this process does not fork.

    There is no fork without `os.fork`, below two `usable_cpus` (the
    child would only take turns with this process), while another
    Python thread runs (it could hold a lock that the child then never
    sees released), or when fork raises OSError. Every caller has a
    no-fork path that gives the same values.

    The child leaves through os._exit whatever happens: an exception
    prints its traceback and exits 1, and so does SIGINT, without the
    traceback. It never runs a caller's `finally`, an atexit handler or
    a flush of a buffer it inherited.
    """
    if (not hasattr(os, "fork") or usable_cpus() < 2
            or threading.active_count() > 1):
        return None
    try:
        with warnings.catch_warnings():
            # Python >= 3.12 warns on fork() in a process with more than
            # one OS thread, and numpy's OpenBLAS pool is such threads.
            # No child makes a BLAS call, so none waits on them.
            warnings.filterwarnings(
                "ignore", category=DeprecationWarning,
                message=r"This process \(pid=\d+\) is multi-threaded, "
                        r"use of fork\(\) may lead to deadlocks in the child\.")
            pid = os.fork()
    except OSError:
        return None
    if pid:
        return pid
    code = 1
    try:
        body()
        code = 0
    except Exception:
        # The parent sees only the exit status.
        import traceback

        traceback.print_exc()
        sys.stderr.flush()
    finally:
        os._exit(code)


class Child:
    """`body` run in a forked child (see `fork_child`), named `name` in
    the error that reports its failure.

    `pid` is the child's pid until it is reaped, and None if this
    process did not fork; `body` then runs here, at `join`. A caller
    that cannot run `body` here checks `pid` right after the start.
    """

    def __init__(self, body: Callable[[], None], name: str):
        self.body, self.name = body, name
        self.pid = fork_child(body)

    def join(self) -> None:
        """Reap the child; ChildProcessError ("the <name> ended by exit
        status N" or "... by signal N") unless it exited 0. Without a
        fork, run `body` in this process. Call it once."""
        if self.pid is None:
            self.body()
            return
        status = os.waitpid(self.pid, 0)[1]
        self.pid = None
        code = os.waitstatus_to_exitcode(status)
        if code:
            how = f"signal {-code}" if code < 0 else f"exit status {code}"
            raise ChildProcessError(f"the {self.name} ended by {how}")

    def kill(self) -> None:
        """SIGKILL and reap a child not yet joined; nothing otherwise.
        Until it is reaped, its pid cannot name another process."""
        if self.pid is not None:
            import signal

            os.kill(self.pid, signal.SIGKILL)
            os.waitpid(self.pid, 0)
            self.pid = None


class Ring:
    """`job(j, n)` run on each slot that this process hands over, in a
    `Child` named `name` where `fork` is true and `fork_child` forks,
    else here.

    The slots are `depth` entries of memory that both processes share
    (a `shared_array` made before the ring); j counts the `put` calls
    from 0, so the job's slot is j % depth. This process fills slot
    `slot()` and hands it over with `put(n)`, n in [1, 255]; the child
    does `job(j, n)` and hands the slot back, one byte each way on two
    pipes. `take()` waits until the job is done with the oldest slot
    handed out, and `slot()` waits only while all `depth` slots are out.
    Without a child, `put` runs the job here at once, so the job sees
    the same calls in the same order.

    `finish()` ends the stream with a zero byte and reaps the child: the
    end cannot be EOF, because a process forked from this one later
    holds copies of the pipe ends. `close()`, and leaving a `with`
    block, closes them and kills and reaps a child not yet reaped. A
    child that dies raises ChildProcessError, as `Child.join` reports
    it, at the next `slot`, `put`, `take` or `finish` that finds its
    pipe closed. The child exits on EOF on its pipe or EPIPE on the
    other, so it outlives a main process that dies by at most one job.
    """

    def __init__(self, job: Callable[[int, int], None], depth: int, name: str,
                 fork: bool = True):
        self.job, self.depth = job, depth
        self.sent = self.taken = 0
        self.child, self.fds = None, ()
        if not fork:
            return
        put_r, put_w = os.pipe()
        done_r, done_w = os.pipe()

        def serve() -> None:
            os.close(put_w)
            os.close(done_r)
            j = 0
            try:
                # On a failure the parent sees only the closed pipes.
                while (n := os.read(put_r, 1)) and n[0]:
                    job(j, n[0])
                    os.write(done_w, b"\1")
                    j += 1
            except BrokenPipeError:
                pass

        child = Child(serve, name)
        if child.pid is None:
            for fd in (put_r, put_w, done_r, done_w):
                os.close(fd)
            return
        os.close(put_r)
        os.close(done_w)
        self.child, self.fds = child, (put_w, done_r)

    def __enter__(self) -> Ring:
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def slot(self) -> int:
        """The slot to fill next; waits while all of them are out."""
        if self.sent - self.taken == self.depth:
            self.take()
        return self.sent % self.depth

    def put(self, n: int) -> None:
        """Hand slot `slot()` to the job with n, in [1, 255]."""
        if not 0 < n < 256:
            raise ValueError(f"a slot is handed over with 1 to 255, got {n!r}")
        if self.child is None:
            self.job(self.sent, n)
        else:
            self._send(bytes((n,)))
        self.sent += 1

    def take(self) -> int:
        """Wait until the job is done with the oldest slot handed out,
        and return that slot."""
        if self.child is not None and not os.read(self.fds[1], 1):
            self._lost()
        self.taken += 1
        return (self.taken - 1) % self.depth

    def finish(self) -> None:
        """Wait until the job is done with every slot handed out, and
        reap the child."""
        if self.child is not None:
            self._send(b"\0")
            self.child.join()

    def close(self) -> None:
        """Close the pipes, and kill and reap a child not yet reaped."""
        for fd in self.fds:
            os.close(fd)
        self.fds = ()
        if self.child is not None:
            self.child.kill()

    def _send(self, msg: bytes) -> None:
        try:
            os.write(self.fds[0], msg)
        except BrokenPipeError:
            self._lost()

    def _lost(self) -> None:
        # The child closed its pipe ends by exiting: report how.
        self.child.join()
        raise ChildProcessError(f"the {self.child.name} ended by exit status 0")
