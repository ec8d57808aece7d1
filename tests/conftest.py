"""Fixtures shared by every test module.

Every test fails if it leaves a child process behind. A test that
asserts a fork asks for `forks` (or `two_cpus`), which lets this
process use two CPUs whatever the runner gives it, since
`process.fork_child` declines on one. `forks` counts every `os.fork`
in this process, whatever child it starts, so a test that counts the
forks of one kind of child clears the list before the run it counts.
"""

import os

import pytest

from herdflu import process


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
    child, the ensemble engine's noise helper and the ensemble CSV's
    formatter (each a `process.Ring`), the CSV and SVG writers' row
    formatters and the PRCC peak sweep alike, must be reaped on every
    way out of a run."""
    yield
    left = _child_left()
    if left is not None:
        pytest.fail(left, pytrace=False)


@pytest.fixture
def two_cpus(monkeypatch):
    """`process.usable_cpus()` is 2 for the test."""
    monkeypatch.setattr(process, "usable_cpus", lambda: 2)


@pytest.fixture
def forks(two_cpus, monkeypatch):
    """The pids of every fork the test makes, in this process, with two
    usable CPUs."""
    pids = []
    fork = os.fork

    def counting_fork():
        pid = fork()
        if pid:
            pids.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", counting_fork)
    return pids
