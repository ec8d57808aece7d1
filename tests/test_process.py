"""process: one fork policy, one shared memory and one way for every
forked child to end and be reported."""

import os
import signal
import time
from dataclasses import replace

import numpy as np
import pytest

from herdflu import (
    BASELINE_PARAMS,
    DEFAULT_NOISE,
    SimConfig,
    default_init,
    run_ensemble,
    sensitivity_of_peak_symptomatic,
)
from herdflu import output, process
from herdflu.output import write_ensemble_csv
from herdflu.process import Child, shared_array, usable_cpus

# Most tests here fork, so they run on two usable CPUs whatever the
# runner gives; `usable_cpus` below is the unpatched function.
pytestmark = pytest.mark.usefixtures("two_cpus")


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


def test_usable_cpus_without_affinity_is_the_cpu_count(monkeypatch):
    assert usable_cpus() == len(os.sched_getaffinity(0))
    monkeypatch.delattr(os, "sched_getaffinity")
    monkeypatch.setattr(os, "cpu_count", lambda: 4)
    assert usable_cpus() == 4
    monkeypatch.setattr(os, "cpu_count", lambda: None)
    assert usable_cpus() == 1


def test_shared_array_carries_a_child_s_writes():
    a = shared_array((2, 3, 4))
    assert a.shape == (2, 3, 4) and a.dtype == np.float64
    assert not a.any()

    def body():
        a[1] = np.arange(12.0).reshape(3, 4)

    child = Child(body, "test child")
    assert child.pid is not None
    child.join()
    assert a[0].tolist() == np.zeros((3, 4)).tolist()
    assert a[1].ravel().tolist() == list(np.arange(12.0))


def test_one_usable_cpu_forks_nothing_and_gives_the_same_values(
    tmp_path, monkeypatch, forks
):
    # One site of each kind: the noise helper of a multi-block run, the
    # ensemble CSV's streaming formatter, and the PRCC sweep.
    cfg = SimConfig(t_end=10.0, dt=0.01)
    outbreak = replace(BASELINE_PARAMS, beta_a=0.46665)

    def outputs(tag: str):
        summ = run_ensemble(BASELINE_PARAMS, DEFAULT_NOISE,
                            default_init(BASELINE_PARAMS), cfg, 4, 3)
        assert len(summ.times) > output._SLOT_ROWS * output._RING_SLOTS
        csv = tmp_path / f"{tag}.csv"
        write_ensemble_csv(summ, str(csv))
        report = sensitivity_of_peak_symptomatic(
            n=20, seed=5, base=outbreak, cfg=SimConfig(t_end=20.0, dt=0.1))
        return csv.read_bytes(), report

    ref = outputs("two")
    assert len(forks) == 3
    del forks[:]
    monkeypatch.setattr(process, "usable_cpus", lambda: 1)
    assert outputs("one") == ref
    assert forks == []
