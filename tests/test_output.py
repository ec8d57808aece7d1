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
from herdflu import cli, integrate, output, process
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
    assert len(summ.times) == 23
    seen = []
    for chunk in (output._CHUNK_ROWS, 7, 1):
        monkeypatch.setattr(output, "_CHUNK_ROWS", chunk)
        fh = io.StringIO()
        write_csv_rows(fh, summ.times, summ.mean)
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
# The CSV rows, written here, and the ensemble CSV's stream, formatted in
# a forked child: the bytes are those of one process on any CPU count.

SMALL_CHUNK = 4
# The ensemble CSV's ring in these tests: two slots of one chunk, so
# from RING_ROWS + 1 rows the writer waits for a free slot.
RING_ROWS = 2 * SMALL_CHUNK


def _small_chunks(monkeypatch) -> None:
    monkeypatch.setattr(output, "_CHUNK_ROWS", SMALL_CHUNK)
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
        write_csv_rows(fh, summ.times, summ.mean)
    write_ensemble_csv(summ, str(ens))
    return rows.read_bytes(), ens.read_bytes()


@pytest.mark.parametrize("n", [0, 1, RING_ROWS - 1, RING_ROWS, RING_ROWS + 1, 29])
def test_split_gives_the_bytes_of_one_process(n, tmp_path, monkeypatch, forks):
    _small_chunks(monkeypatch)
    monkeypatch.setattr(process, "usable_cpus", lambda: 1)
    ref = _written(tmp_path, n, "serial")
    assert forks == []
    data = np.column_stack([_summary(n).times, _summary(n).mean])
    assert ref[0] == b"head\n" + "".join(
        output.fmt_row(row) + "\n" for row in data.tolist()).encode()
    assert ref[1].count(b"\n") == 1 + 6 * n
    for cpus in (2, 3, 64):
        monkeypatch.setattr(process, "usable_cpus", lambda cpus=cpus: cpus)
        del forks[:]
        assert _written(tmp_path, n, f"cpus{cpus}") == ref, cpus
        # The stream's formatter, whatever the CPU count.
        assert len(forks) == 1, cpus


def test_paths_out_blocks_never_fork(tmp_path, monkeypatch, forks):
    # CSV rows are written in this process whatever the CPU count.
    monkeypatch.setattr(process, "usable_cpus", lambda: 64)
    m = integrate._BLOCK_STEPS
    write_csv_rows(io.StringIO(), np.zeros(m), np.zeros((m, 6)))
    with open(tmp_path / "block.csv", "w") as fh:
        write_csv_rows(fh, np.zeros(m), np.zeros((m, 6)))
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
    _small_chunks(monkeypatch)
    monkeypatch.setattr(process, "usable_cpus", lambda: 3)
    ref = _written(tmp_path, 29, "split")
    assert len(forks) == 1
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


@pytest.mark.parametrize("svg", [False, True])
@pytest.mark.parametrize("mode", ["ode", "sde"])
def test_simulate_command_holds_the_trajectory_and_one_chunk(
    mode, svg, tmp_path, monkeypatch, forks
):
    # The default grid, 50,001 recorded times: the trajectory is 2.8 MB
    # (56 B per row). On one usable CPU the SVG is written here too, so
    # both writers run under the trace. A whole-grid table or copy,
    # such as a step-to-row dict or the 7 CSV columns stacked at once,
    # adds megabytes more.
    monkeypatch.setattr(process, "usable_cpus", lambda: 1)
    argv = ["simulate", "--mode", mode, "--out", str(tmp_path / "t.csv")]
    if svg:
        argv += ["--svg", str(tmp_path / "t.svg")]
    trajectory = 50_001 * 7 * 8
    # Load the noise path's modules outside the traced run.
    import numpy.random  # noqa: F401
    from herdflu import _special  # noqa: F401
    tracemalloc.start()
    try:
        assert run_cli(argv) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert forks == []
    assert (tmp_path / "t.csv").read_bytes().count(b"\n") == 50_002
    assert (tmp_path / "t.svg").exists() == svg
    # 3.5 MB on numpy 2.4, the peak of one CSV chunk's text.
    assert peak < trajectory + 1_000_000, peak


# ---------------------------------------------------------------------------
# The trajectory SVG, and the child that writes it beside the CSV in the
# `simulate` command.


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


def test_svg_split_gives_the_bytes_of_one_process(tmp_path, monkeypatch):
    # Each polyline written in chunks of all its points, of one point or
    # of SMALL_CHUNK (7 and 11 points end in a part chunk) gives the
    # bytes of the reference, one point at a time.
    refs = {n: _svg(tmp_path, _trajectory(n), f"{n}_whole") for n in (1, 7, 11)}
    for n, ref in refs.items():
        text = ref.decode()
        assert text.startswith("<svg ") and text.endswith("</svg>\n")
        assert _reference_svg_polylines(_trajectory(n)) in text
    for chunk in (1, SMALL_CHUNK):
        monkeypatch.setattr(output, "_CHUNK_ROWS", chunk)
        for n, ref in refs.items():
            assert _svg(tmp_path, _trajectory(n), f"{n}_{chunk}") == ref, (n, chunk)


def _simulate_config(tmp_path) -> str:
    # 201 recorded times.
    config = tmp_path / "run.cfg"
    config.write_text("t_end = 2\n")
    return str(config)


def _simulated(tmp_path, tag: str, svg: bool = True) -> tuple[bytes, ...]:
    """The files of `simulate --mode ode`, with `--svg` if `svg`."""
    out, plot = tmp_path / f"traj_{tag}.csv", tmp_path / f"traj_{tag}.svg"
    argv = ["simulate", "--mode", "ode", "--config", _simulate_config(tmp_path),
            "--out", str(out)]
    assert run_cli(argv + (["--svg", str(plot)] if svg else [])) == 0
    return (out.read_bytes(), plot.read_bytes()) if svg else (out.read_bytes(),)


def test_svg_fallbacks_give_the_same_bytes(tmp_path, monkeypatch, forks):
    ref = _simulated(tmp_path, "forked")
    assert len(forks) == 1
    del forks[:]

    stop = threading.Event()
    other = threading.Thread(target=stop.wait)
    other.start()
    try:
        assert _simulated(tmp_path, "thread") == ref
    finally:
        stop.set()
        other.join(timeout=10)
    assert not other.is_alive()
    assert forks == []

    def failing_fork():
        raise OSError("fork refused")

    monkeypatch.setattr(os, "fork", failing_fork)
    assert _simulated(tmp_path, "refused") == ref

    monkeypatch.delattr(os, "fork")
    assert _simulated(tmp_path, "nofork") == ref


@pytest.mark.parametrize("failure, how", [
    ("exception", "exit status 1"), ("sigkill", f"signal {int(signal.SIGKILL)}"),
])
def test_failing_formatter_raises_child_process_error(
    failure, how, tmp_path, monkeypatch, capsys, forks
):
    # The SVG writer fails in its child: the ChildProcessError makes the
    # command exit 2 after the whole CSV is written. Children leave
    # through os._exit: unwinding would run this test's `finally` in
    # them as well.
    ref = _simulated(tmp_path, "ref", svg=False)
    del forks[:]
    parent, write_svg = os.getpid(), cli.write_trajectory_svg

    def broken(traj, path):
        if os.getpid() != parent:
            if failure == "sigkill":
                os.kill(os.getpid(), signal.SIGKILL)
            raise KeyError("no plot")
        write_svg(traj, path)

    monkeypatch.setattr(cli, "write_trajectory_svg", broken)
    out, mark = tmp_path / "traj.csv", tmp_path / "unwound"
    try:
        code = run_cli(["simulate", "--mode", "ode", "--config",
                        _simulate_config(tmp_path), "--out", str(out),
                        "--svg", str(tmp_path / "traj.svg")])
    finally:
        with open(mark, "a") as fh:
            fh.write(f"{os.getpid()}\n")
    assert code == 2
    assert capsys.readouterr().err == f"error: the SVG writer process ended by {how}\n"
    assert (out.read_bytes(),) == ref
    assert mark.read_text() == f"{os.getpid()}\n"
    assert len(forks) == 1


def test_interrupt_in_the_main_process_ends_every_formatter(
    tmp_path, monkeypatch, forks
):
    # The SVG writer's child blocks on a pipe that nobody writes; the
    # main process is interrupted while it writes the CSV. The autouse
    # fixture checks that the child was killed and reaped.
    hold_r, hold_w = os.pipe()
    write_svg = cli.write_trajectory_svg

    def stalled(traj, path):
        os.read(hold_r, 1)
        write_svg(traj, path)

    def interrupted(traj, path):
        raise KeyboardInterrupt

    monkeypatch.setattr(cli, "write_trajectory_svg", stalled)
    monkeypatch.setattr(cli, "write_trajectory_csv", interrupted)
    try:
        with pytest.raises(KeyboardInterrupt):
            run_cli(["simulate", "--mode", "ode", "--config",
                     _simulate_config(tmp_path), "--out", str(tmp_path / "traj.csv"),
                     "--svg", str(tmp_path / "traj.svg")])
    finally:
        os.close(hold_r)
        os.close(hold_w)
    assert len(forks) == 1
