import os

import pytest


def _child_left() -> str | None:
    # A child still running, or ended and not yet reaped, shows up in
    # waitpid(-1, WNOHANG); with no child at all it raises.
    try:
        pid, status = os.waitpid(-1, os.WNOHANG)
    except ChildProcessError:
        return None
    if pid == 0:
        return "a child process is still running"
    return f"child process {pid} ended unreaped (status {status})"


@pytest.fixture(autouse=True)
def no_child_processes_left():
    """Fail a test that leaves a child process behind: every forked
    child, the ensemble engine's noise helper, the CSV and SVG writers'
    row formatters and the PRCC peak sweep alike, must be reaped on
    every way out of a run."""
    yield
    left = _child_left()
    if left is not None:
        pytest.fail(left, pytrace=False)
