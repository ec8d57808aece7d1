"""Forked child processes: one policy for whether to fork and how a child ends.

The ensemble engine forks a noise helper (`integrate._NoiseHelper`),
the CSV and trajectory SVG writers fork row formatters
(`output._write_rows`) and the PRCC peak sweep runs in a child
(`sensitivity._peaks_beside_import`). All start their children through
`fork_child`, the one call of `os.fork` in the package.
"""

from __future__ import annotations

import os
import sys
import threading
import warnings
from typing import Callable


def fork_child(body: Callable[[], int]) -> int | None:
    """Fork a child that runs `body` and exits with its return value;
    return the child's pid, or None if this process does not fork.

    There is no fork without `os.fork`, while another Python thread runs
    (it could hold a lock that the child then never sees released), or
    when fork raises OSError. The caller then does the child's work
    itself and releases what it made for the child.

    The child leaves through os._exit whatever happens: an exception
    prints its traceback and exits 1, and so does SIGINT, without the
    traceback. It never runs a caller's `finally`, an atexit handler or
    a flush of a buffer it inherited.
    """
    if not hasattr(os, "fork") or threading.active_count() > 1:
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
        code = body()
    except Exception:
        # The parent sees only the exit status.
        import traceback

        traceback.print_exc()
        sys.stderr.flush()
    finally:
        os._exit(code)
