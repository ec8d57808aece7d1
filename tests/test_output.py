import io
import os
import re
import signal
import threading
import tracemalloc
from contextlib import closing

import numpy as np
import pytest

from herdflu import (
    BASELINE_PARAMS,
    DEFAULT_NOISE,
    EnsembleSummary,
    SimConfig,
    default_init,
    run_ensemble,
)
from herdflu import integrate, output, process
from herdflu.ensemble import iter_summary_blocks
from herdflu.cli import run_cli
from herdflu.output import (
    read_ensemble_csv,
    read_sensitivity_csv,
    read_trajectory_csv,
    write_csv_rows,
    write_ensemble_csv,
)


def test_csv_bytes_do_not_depend_on_chunk_size(tmp_path, monkeypatch):
    # 23 recorded times: the default chunk holds them all, chunks of 7
    # leave a partial last one.
    cfg = SimConfig(t_end=0.22, dt=0.01)
    summ = run_ensemble(
        BASELINE_PARAMS, DEFAULT_NOISE, default_init(BASELINE_PARAMS), cfg, 5, 2
    )
    data = np.column_stack([summ.times, summ.mean])
    assert len(data) == 23
    seen = []
    for chunk in (output._CHUNK_ROWS, 7, 1):
        monkeypatch.setattr(output, "_CHUNK_ROWS", chunk)
        fh = io.StringIO()
        write_csv_rows(fh, data)
        write_ensemble_csv(summ, str(tmp_path / "ens.csv"))
        seen.append((fh.getvalue(), (tmp_path / "ens.csv").read_bytes()))
    assert seen[0][0].count("\n") == 23
    assert seen[1] == seen[0]
    assert seen[2] == seen[0]


# The rows E to B of one recorded time, which follow the S row under test.
ROWS_E_TO_B = "".join(
    f"0.0,{c},1.0,0.0,1.0,1.0,1.0\n" for c in ("E", "I_s", "I_a", "R", "B")
)


@pytest.mark.parametrize("row, message", [
    ("0.0,S,1.0\n", "line 3: expected 7 fields, got 3"),
    ("0.0,S,1.0,0.0,1.0,1.0,1.0,9.0\n", "line 3: expected 7 fields, got 8"),
    ("0.0,S,1.0,x,1.0,1.0,1.0\n", "line 3: could not convert string to float: 'x'"),
    ("0.0,E,1.0,0.0,1.0,1.0,1.0\n", "line 3: expected compartment S, got 'E'"),
])
def test_ensemble_reader_names_the_malformed_line(tmp_path, row, message):
    # Line 2 is blank and still counts.
    path = tmp_path / "ens.csv"
    path.write_text(output.ENSEMBLE_HEADER + "\n\n" + row + ROWS_E_TO_B)
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        read_ensemble_csv(str(path))


@pytest.mark.parametrize("body, message", [
    ("", "trajectory must contain at least one point"),
    ("0.0,1,2,3,4,5\n", "line 2: expected 7 fields, got 6"),
    ("0.0,1,2,3,4,5,6\n0.1,1,2,3,4,5,y\n", "line 3: could not convert string to float: 'y'"),
])
def test_trajectory_reader_rejects_malformed_files(tmp_path, body, message):
    path = tmp_path / "traj.csv"
    path.write_text(output.TRAJECTORY_HEADER + "\n" + body)
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        read_trajectory_csv(str(path))


@pytest.mark.parametrize("body, message", [
    ("beta_s,0.5,0.01\n", "line 2: expected 4 fields, got 3"),
    ("beta_s,0.5,0.01,2\n", "line 2: significant must be 0 or 1, got '2'"),
])
def test_sensitivity_reader_rejects_malformed_rows(tmp_path, body, message):
    path = tmp_path / "prcc.csv"
    path.write_text(output.SENSITIVITY_HEADER + "\n" + body)
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        read_sensitivity_csv(str(path))


def test_readers_reject_another_header(tmp_path):
    path = tmp_path / "traj.csv"
    path.write_text(output.ENSEMBLE_HEADER + "\n")
    with pytest.raises(ValueError, match="^unexpected header 't,compartment,"):
        read_trajectory_csv(str(path))


# ---------------------------------------------------------------------------
# The row splitter and the ensemble CSV's stream: forked formatters give
# the bytes of one process.

SMALL_CHUNK = 4
# Rows from which every row splitter splits in these tests; ranges then
# hold at least SMALL_SPLIT / 2 rows, one whole chunk.
SMALL_SPLIT = 2 * SMALL_CHUNK


def _split_small(monkeypatch) -> None:
    monkeypatch.setattr(output, "_CHUNK_ROWS", SMALL_CHUNK)
    for name in ("_SPLIT_TRAJECTORY_ROWS", "_SPLIT_SVG_ROWS"):
        monkeypatch.setattr(output, name, SMALL_SPLIT)
    # The ensemble CSV's ring of two slots of one chunk: from 9 rows the
    # writer waits for a free slot.
    monkeypatch.setattr(output, "_SLOT_ROWS", SMALL_CHUNK)
    monkeypatch.setattr(output, "_RING_SLOTS", 2)


def _summary(n: int) -> EnsembleSummary:
    # Values spread over many decades, so that reprs differ in length.
    rng = np.random.default_rng(n)
    stats = [rng.random((n, 6)) * 10.0 ** rng.integers(-8, 8, (n, 6))
             for _ in range(5)]
    return EnsembleSummary(np.arange(n) * 0.01, *stats, n_paths=3,
                           master_seed=0, extinct_fraction=0.0)


def _written(tmp_path, n: int, tag: str) -> tuple[bytes, bytes]:
    """The bytes of write_csv_rows and write_ensemble_csv over n rows."""
    summ = _summary(n)
    rows, ens = tmp_path / f"rows_{tag}.csv", tmp_path / f"ens_{tag}.csv"
    with open(rows, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("head\n")
        write_csv_rows(fh, np.column_stack([summ.times, summ.mean]))
    write_ensemble_csv(summ, str(ens))
    return rows.read_bytes(), ens.read_bytes()


@pytest.mark.parametrize("n", [0, 1, SMALL_SPLIT - 1, SMALL_SPLIT, SMALL_SPLIT + 1, 29])
def test_split_gives_the_bytes_of_one_process(n, tmp_path, monkeypatch, forks):
    _split_small(monkeypatch)
    monkeypatch.setattr(process, "usable_cpus", lambda: 1)
    ref = _written(tmp_path, n, "serial")
    assert forks == []
    data = np.column_stack([_summary(n).times, _summary(n).mean])
    assert ref[0] == b"head\n" + "".join(
        output.fmt_row(row) + "\n" for row in data.tolist()).encode()
    assert ref[1].count(b"\n") == 1 + 6 * n
    # 64 workers are more than the chunks of any n here.
    for cpus in (2, 3, 64):
        monkeypatch.setattr(process, "usable_cpus", lambda cpus=cpus: cpus)
        del forks[:]
        assert _written(tmp_path, n, f"cpus{cpus}") == ref, cpus
        k = min(cpus, 2 * n // SMALL_SPLIT) if n >= SMALL_SPLIT else 1
        # k - 1 children of the row splitter, one of the stream.
        assert len(forks) == k, cpus


def test_paths_out_blocks_never_fork(tmp_path, monkeypatch, forks):
    # An engine block is below the threshold whatever the CPU count.
    monkeypatch.setattr(process, "usable_cpus", lambda: 64)
    assert integrate._BLOCK_STEPS < output._SPLIT_TRAJECTORY_ROWS
    write_csv_rows(io.StringIO(), np.zeros((integrate._BLOCK_STEPS, 7)))
    with open(tmp_path / "block.csv", "w") as fh:
        write_csv_rows(fh, np.zeros((integrate._BLOCK_STEPS, 7)))
    assert forks == []
    # 201 recorded times: the summary's formatter and the noise helper
    # are the run's two forks.
    config = tmp_path / "run.cfg"
    config.write_text("t_end = 2\nn_paths = 4\nseed = 3\n")
    assert run_cli(["ensemble", "--config", str(config), "--out",
                    str(tmp_path / "summary.csv"), "--paths-out",
                    str(tmp_path / "paths")]) == 0
    assert len(forks) == 2
    assert len(os.listdir(tmp_path / "paths")) == 4


def test_fallbacks_give_the_same_bytes(tmp_path, monkeypatch, forks):
    _split_small(monkeypatch)
    monkeypatch.setattr(process, "usable_cpus", lambda: 3)
    ref = _written(tmp_path, 29, "split")
    assert len(forks) == 3
    del forks[:]

    # Another Python thread is running: no fork.
    stop = threading.Event()
    other = threading.Thread(target=stop.wait)
    other.start()
    try:
        assert _written(tmp_path, 29, "thread") == ref
    finally:
        stop.set()
        other.join(timeout=10)
    assert not other.is_alive()
    assert forks == []

    # fork fails: no descriptor is left open.
    def failing_fork():
        raise OSError("fork refused")

    monkeypatch.setattr(os, "fork", failing_fork)
    fds = len(os.listdir("/proc/self/fd")) if os.path.isdir("/proc/self/fd") else None
    assert _written(tmp_path, 29, "refused") == ref
    if fds is not None:
        assert len(os.listdir("/proc/self/fd")) == fds

    # No os.fork at all.
    monkeypatch.delattr(os, "fork")
    assert _written(tmp_path, 29, "nofork") == ref


def _break_children(monkeypatch, failure: str) -> None:
    # fmt_row fails in every process but this one.
    parent, fmt_row = os.getpid(), output.fmt_row

    def broken(row):
        if os.getpid() != parent:
            if failure == "sigkill":
                os.kill(os.getpid(), signal.SIGKILL)
            raise KeyError("no text")
        return fmt_row(row)

    _split_small(monkeypatch)
    monkeypatch.setattr(process, "usable_cpus", lambda: 3)
    monkeypatch.setattr(output, "fmt_row", broken)


@pytest.mark.parametrize("failure, how", [
    ("exception", "exit status 1"), ("sigkill", f"signal {int(signal.SIGKILL)}"),
])
def test_failing_formatter_raises_child_process_error(
    failure, how, tmp_path, monkeypatch, forks
):
    # Children leave through os._exit: unwinding would run this test's
    # `finally` in them as well.
    _break_children(monkeypatch, failure)
    mark = tmp_path / "unwound"
    with pytest.raises(ChildProcessError,
                       match=f"^the CSV formatter process of rows 9 to 18 ended by {how}$"):
        try:
            with open(tmp_path / "rows.csv", "w") as fh:
                write_csv_rows(fh, np.zeros((29, 7)))
        finally:
            with open(mark, "a") as fh:
                fh.write(f"{os.getpid()}\n")
    assert mark.read_text() == f"{os.getpid()}\n"
    assert len(forks) == 2


def test_failing_formatter_makes_the_cli_exit_2(tmp_path, monkeypatch, capsys, forks):
    _break_children(monkeypatch, "exception")
    config = tmp_path / "run.cfg"
    config.write_text("t_end = 0.28\n")
    code = run_cli(["simulate", "--mode", "ode", "--config", str(config),
                    "--out", str(tmp_path / "traj.csv")])
    assert code == 2
    assert capsys.readouterr().err == (
        "error: the CSV formatter process of rows 9 to 18 ended by exit status 1\n")
    assert len(forks) == 2


def test_interrupt_in_the_main_process_ends_every_formatter(
    tmp_path, monkeypatch, forks
):
    # The children block on a pipe that nobody writes; the main process
    # is interrupted while it formats range 0. The autouse fixture
    # checks that both children were killed and reaped.
    _split_small(monkeypatch)
    monkeypatch.setattr(process, "usable_cpus", lambda: 3)
    hold_r, hold_w = os.pipe()
    parent, fmt_row = os.getpid(), output.fmt_row

    def stalled(row):
        if os.getpid() != parent:
            os.read(hold_r, 1)
            return fmt_row(row)
        raise KeyboardInterrupt

    monkeypatch.setattr(output, "fmt_row", stalled)
    try:
        with pytest.raises(KeyboardInterrupt):
            with open(tmp_path / "rows.csv", "w") as fh:
                write_csv_rows(fh, np.zeros((29, 7)))
    finally:
        os.close(hold_r)
        os.close(hold_w)
    assert len(forks) == 2


# ---------------------------------------------------------------------------
# The ensemble CSV's stream: one formatter child while the engine runs.


def _assert_no_child():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def _streamed(path, cfg, n_paths: int) -> bytes:
    """The bytes of the ensemble CSV of a run streamed from its engine."""
    init = default_init(BASELINE_PARAMS)
    with closing(iter_summary_blocks(BASELINE_PARAMS, DEFAULT_NOISE, init, cfg,
                                     n_paths, 9)) as blocks:
        write_ensemble_csv(blocks, str(path))
    return path.read_bytes()


@pytest.mark.parametrize("n_paths", [1, 8])
@pytest.mark.parametrize("stride", [1, 7])
def test_one_cpu_streams_here_with_the_same_bytes(
    n_paths, stride, tmp_path, monkeypatch, forks
):
    # 205 steps: three whole engine blocks and a short one of 13 steps.
    cfg = SimConfig(t_end=2.05, dt=0.01, record_stride=stride)
    assert cfg.n_steps() % integrate._BLOCK_STEPS == 13
    ref = _streamed(tmp_path / "two.csv", cfg, n_paths)
    # The formatter, then the noise helper.
    assert len(forks) == 2
    assert ref.count(b"\n") == 1 + 6 * len(cfg.recorded_steps())
    del forks[:]
    monkeypatch.setattr(process, "usable_cpus", lambda: 1)
    assert _streamed(tmp_path / "one.csv", cfg, n_paths) == ref
    summ = run_ensemble(BASELINE_PARAMS, DEFAULT_NOISE,
                        default_init(BASELINE_PARAMS), cfg, n_paths, 9)
    write_ensemble_csv(summ, str(tmp_path / "summary.csv"))
    assert forks == []
    assert (tmp_path / "summary.csv").read_bytes() == ref


def test_overflow_mid_run_leaves_no_file_and_no_child(
    tmp_path, monkeypatch, capsys, forks
):
    # Recruitment beyond double range overflows at t = 2, step 4, in the
    # second 3-step block: the formatter has had two blocks by then.
    monkeypatch.setattr(integrate, "_BLOCK_STEPS", 3)
    config = tmp_path / "run.cfg"
    # The baseline's initial state: the default one scales with lambda.
    init = zip(("s0", "e0", "is0", "ia0", "r0", "b0"),
               default_init(BASELINE_PARAMS).as_array().tolist())
    config.write_text("lambda = 1e308\nt_end = 10\ndt = 0.5\nn_paths = 4\nseed = 0\n"
                      + "".join(f"{k} = {v!r}\n" for k, v in init))
    out = tmp_path / "summary.csv"
    rows = []

    class Counting(process.Ring):
        # The rows of each slot handed to the formatter. The engine's
        # noise ring is `integrate.Ring`, which this leaves alone.
        def put(self, n):
            rows.append(n)
            super().put(n)

    monkeypatch.setattr(process, "Ring", Counting)
    with np.errstate(over="ignore", invalid="ignore"):
        code = run_cli(["ensemble", "--config", str(config), "--out", str(out)])
    assert code == 2
    assert capsys.readouterr().err == "error: non-finite state at t=2\n"
    assert rows == [1, 3]
    assert not out.exists()
    assert len(forks) == 2
    _assert_no_child()


def test_killed_formatter_makes_the_cli_exit_2(tmp_path, monkeypatch, capsys, forks):
    parent, lines = os.getpid(), output._ensemble_lines

    def killed(rows):
        if os.getpid() != parent:
            os.kill(os.getpid(), signal.SIGKILL)
        return lines(rows)

    monkeypatch.setattr(output, "_ensemble_lines", killed)
    config = tmp_path / "run.cfg"
    # 201 recorded times: five engine blocks.
    config.write_text("t_end = 2\nn_paths = 4\nseed = 3\n")
    out = tmp_path / "summary.csv"
    code = run_cli(["ensemble", "--config", str(config), "--out", str(out)])
    assert code == 2
    assert capsys.readouterr().err == (
        "error: the CSV formatter process of the ensemble summary ended by "
        f"signal {int(signal.SIGKILL)}\n")
    assert not out.exists()
    assert len(forks) == 2
    _assert_no_child()


def test_ensemble_command_holds_no_summary_grid(tmp_path, forks):
    # 20 paths, 20,001 recorded times: the summary grid, 30 floats per
    # time, would be 4.8 MB. The main process holds an engine block
    # (61 KB), its reduction and a ring of summary rows.
    config = tmp_path / "run.cfg"
    config.write_text("t_end = 200\nn_paths = 20\nseed = 3\n")
    grid = 20_001 * 30 * 8
    # Load scipy.special outside the traced run.
    import scipy.special  # noqa: F401
    tracemalloc.start()
    try:
        assert run_cli(["ensemble", "--config", str(config), "--out",
                        str(tmp_path / "summary.csv")]) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(forks) == 2
    # 0.53 MB on numpy 2.4; the grid alone is four times this bound.
    assert peak < grid / 4, peak


# ---------------------------------------------------------------------------
# The trajectory SVG: six polylines of n points are 6 * n rows of the
# same splitter.


def _reference_svg_polylines(traj) -> str:
    """The polylines and labels of write_trajectory_svg, one point at a
    time on Python floats."""
    ml, mt, pw, ph = 55, 15, 645, 370
    t = traj.times.tolist()
    t0, t1 = t[0], t[-1] or 1.0
    span = (t1 - t0) or 1.0
    ymax = max(float(traj.states.max()), 1e-12)
    out = []
    for j, c in enumerate(output.COMPARTMENTS):
        color = output._PALETTE[j]
        points = " ".join(
            f"{ml + pw * (ti - t0) / span:.2f},{mt + ph * (1.0 - yi / ymax):.2f}"
            for ti, yi in zip(t, traj.states[:, j].tolist())
        )
        out.append(
            f'<polyline fill="none" stroke="{color}" stroke-width="1.5" '
            f'points="{points}"/>\n<text x="{ml + pw + 8}" y="{mt + 14 + 16 * j}" '
            f'fill="{color}">{c}</text>\n'
        )
    return "".join(out)


def _trajectory(n: int) -> integrate.Trajectory:
    # Values spread over decades and a negative zero, so that the
    # coordinates differ in length and round both ways.
    rng = np.random.default_rng(n)
    states = rng.random((n, 6)) * 10.0 ** rng.integers(-6, 4, (n, 6))
    states[0, 2] = -0.0
    return integrate.Trajectory(times=np.arange(n) * 0.37 + 2.0, states=states)


def _svg(tmp_path, traj, tag: str) -> bytes:
    path = tmp_path / f"traj_{tag}.svg"
    output.write_trajectory_svg(traj, str(path))
    return path.read_bytes()


def test_svg_split_gives_the_bytes_of_one_process(tmp_path, monkeypatch, forks):
    _split_small(monkeypatch)
    starts = set()
    for n in (1, 7, 11):
        traj = _trajectory(n)
        monkeypatch.setattr(process, "usable_cpus", lambda: 1)
        ref = _svg(tmp_path, traj, f"{n}_serial")
        text = ref.decode()
        assert text.startswith("<svg ") and text.endswith("</svg>\n")
        assert _reference_svg_polylines(traj) in text
        # 64 workers are more than the chunks of any n here.
        for cpus in (1, 2, 3, 64):
            monkeypatch.setattr(process, "usable_cpus", lambda cpus=cpus: cpus)
            del forks[:]
            assert _svg(tmp_path, traj, f"{n}_{cpus}") == ref, (n, cpus)
            with open(tmp_path / "probe", "w") as fh:
                k = output._split_count(fh, 6 * n, SMALL_SPLIT)
            assert len(forks) == k - 1, (n, cpus)
            starts |= {(6 * n * i // k) % n == 0 for i in range(1, k)}
    # Some ranges start on the first point of a polyline, some inside one.
    assert starts == {True, False}


def test_svg_fallbacks_give_the_same_bytes(tmp_path, monkeypatch, forks):
    _split_small(monkeypatch)
    monkeypatch.setattr(process, "usable_cpus", lambda: 3)
    traj = _trajectory(7)
    ref = _svg(tmp_path, traj, "split")
    assert len(forks) == 2
    del forks[:]

    stop = threading.Event()
    other = threading.Thread(target=stop.wait)
    other.start()
    try:
        assert _svg(tmp_path, traj, "thread") == ref
    finally:
        stop.set()
        other.join(timeout=10)
    assert not other.is_alive()
    assert forks == []

    def failing_fork():
        raise OSError("fork refused")

    monkeypatch.setattr(os, "fork", failing_fork)
    assert _svg(tmp_path, traj, "refused") == ref

    monkeypatch.delattr(os, "fork")
    assert _svg(tmp_path, traj, "nofork") == ref


def test_failing_svg_formatter_names_the_svg(tmp_path, monkeypatch, forks):
    _split_small(monkeypatch)
    monkeypatch.setattr(process, "usable_cpus", lambda: 3)
    parent = os.getpid()

    def fmt(a: int, b: int) -> str:
        if os.getpid() != parent:
            raise KeyError("no text")
        return ""

    with pytest.raises(ChildProcessError,
                       match="^the SVG formatter process of rows 9 to 18 "
                             "ended by exit status 1$"):
        with open(tmp_path / "plot.svg", "w") as fh:
            output._write_rows(fh, 29, fmt, "SVG", SMALL_SPLIT)
    assert len(forks) == 2


def test_each_writer_splits_from_its_own_break_even(tmp_path, monkeypatch, forks):
    # On 2 CPUs a 5,001-point trajectory (the ENDEMIC grid) is written
    # by one process, CSV and SVG, and the default-grid files (50,001
    # recorded times) split in two. An ensemble summary of any length
    # has its one streaming formatter.
    monkeypatch.setattr(process, "usable_cpus", lambda: 2)
    traj = _trajectory(5001)
    output.write_trajectory_csv(traj, str(tmp_path / "traj.csv"))
    output.write_trajectory_svg(traj, str(tmp_path / "traj.svg"))
    assert forks == []
    write_ensemble_csv(_summary(5001), str(tmp_path / "summary.csv"))
    assert len(forks) == 1
    with open(tmp_path / "probe", "w") as fh:
        assert output._split_count(fh, 50_001, output._SPLIT_TRAJECTORY_ROWS) == 2
        assert output._split_count(fh, 6 * 50_001, output._SPLIT_SVG_ROWS) == 2
