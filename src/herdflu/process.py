"""Forked child processes: one policy for whether to fork, how a child
shares memory with this process and how it ends.

The ensemble engine forks a noise helper (`integrate._NoiseHelper`),
the ensemble CSV one streaming formatter per run
(`output._EnsembleFormatter`), the trajectory CSV and SVG writers row
formatters (`output._write_rows`), and the PRCC peak sweep runs in a
child (`sensitivity._peaks_beside_import`). Each is a `Child`: it is
started through `fork_child`, the one call of `os.fork` in the package,
which declines below two `usable_cpus`, and reaped, killed and reported
only here. The noise helper and the sweep write into a `shared_array`
made before the fork, and the streaming formatter reads one; the
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
