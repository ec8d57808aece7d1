"""process.Child: one way for every forked child to end and be reported."""

import os
import signal
import time

import pytest

from herdflu.process import Child


def test_body_that_returns_exits_0(tmp_path):
    mark = tmp_path / "ran"
    child = Child(lambda: mark.write_text(str(os.getpid())), "test child")
    pid = child.pid
    assert pid is not None
    child.join()
    assert child.pid is None
    assert mark.read_text() == str(pid)


def test_body_that_raises_gives_exit_status_1(capfd):
    def body():
        raise KeyError("no result")

    child = Child(body, "test child")
    with pytest.raises(ChildProcessError,
                       match="^the test child ended by exit status 1$"):
        child.join()
    assert child.pid is None
    assert "KeyError: 'no result'" in capfd.readouterr().err


def test_body_killed_by_sigkill_gives_signal_9():
    child = Child(lambda: os.kill(os.getpid(), signal.SIGKILL), "test child")
    with pytest.raises(ChildProcessError,
                       match=f"^the test child ended by signal {int(signal.SIGKILL)}$"):
        child.join()
    assert child.pid is None


def test_without_fork_the_body_runs_at_join_in_this_process(monkeypatch):
    monkeypatch.delattr(os, "fork")
    ran = []
    child = Child(lambda: ran.append(os.getpid()), "test child")
    assert child.pid is None
    assert ran == []
    child.join()
    assert ran == [os.getpid()]
    child.kill()
    assert ran == [os.getpid()]


def test_kill_ends_and_reaps_a_blocked_child():
    hold_r, hold_w = os.pipe()
    try:
        child = Child(lambda: os.read(hold_r, 1), "test child")
        pid = child.pid
        t0 = time.monotonic()
        child.kill()
        assert time.monotonic() - t0 < 5.0
        assert child.pid is None
        # Reaped: the pid no longer names a child of this process.
        with pytest.raises(ChildProcessError):
            os.waitpid(pid, os.WNOHANG)
    finally:
        os.close(hold_r)
        os.close(hold_w)


def test_kill_after_join_does_nothing(monkeypatch):
    child = Child(lambda: None, "test child")
    child.join()

    def no_kill(pid, sig):
        raise AssertionError(f"os.kill({pid}, {sig}) after join")

    monkeypatch.setattr(os, "kill", no_kill)
    child.kill()
    assert child.pid is None
