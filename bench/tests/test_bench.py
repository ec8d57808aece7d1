"""Tests of the benchmark itself.

    python3 -m pytest bench/tests

The smoke tests run every workload, untraced and traced, at tiny sizes.
The corruption tests show that each output check rejects a damaged
output, and that a rejected iteration is counted as failed and gives no
timing.
"""

from __future__ import annotations

import json
import math
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import checks  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from tracer import self_times  # noqa: E402

SEED = 7


def _bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(cwd / "bench" / "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


@pytest.mark.parametrize("trace", ["0", "1"])
@pytest.mark.parametrize("name", workloads.NAMES)
def test_smoke_runs_every_workload_and_check(name, trace):
    res = _bench("--workload", name, "--seed", str(SEED), "--seconds", "1",
                 "--trace", trace, "--scale", "smoke")
    assert res.returncode == 0, res.stdout[-2000:] + res.stderr[-2000:]
    out = json.loads(res.stdout.strip().splitlines()[-1])
    assert set(out) == {"correct", "attempted", "failed", "metrics"}
    assert out["correct"] and out["failed"] == 0 and out["attempted"] >= 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = spec["per_layer" if trace == "1" else "end_to_end"]
    assert {m["name"]: m["unit"] for m in declared} == {
        k: v["unit"] for k, v in out["metrics"].items()}
    assert all(math.isfinite(v["value"]) for v in out["metrics"].values())
    for line in ("machine:", "failed_frac"):
        assert line in res.stdout


def test_without_sources_exits_nonzero_and_prints_no_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    res = _bench("--workload", "herd-study", "--seed", "1", "--seconds", "1",
                 "--trace", "0", cwd=tmp_path)
    assert res.returncode != 0
    assert res.stdout == ""


# --------------------------------------------------------------------------
# Corrupted outputs


@pytest.fixture(scope="module")
def outputs(tmp_path_factory):
    """Smoke outputs of every step: {workload: (ctx, dir, {step: stdout})}."""
    made = {}
    for name in workloads.NAMES:
        base = tmp_path_factory.mktemp(name)
        wl = workloads.build(name, "smoke", SEED)
        r = run.Run(wl, SEED, base, time.monotonic() + 120)
        out = base / "out"
        out.mkdir()
        stdouts = {}
        for step in wl.steps:
            rec = run.launch(run.step_argv("run", step, r.config, out, None), out,
                             step.name, r.deadline)
            assert rec["code"] == 0, rec["stderr"].read_text()
            stdouts[step.name] = rec["stdout"].read_text()
        made[name] = (r.ctx, out, stdouts)
    return made


def _copy(outputs, name, tmp_path):
    ctx, out, stdouts = outputs[name]
    dst = tmp_path / "copy"
    shutil.copytree(out, dst)
    return ctx, dst, dict(stdouts)


def _rewrite_csv_row(path: Path, row: int, edit) -> None:
    lines = path.read_text().splitlines()
    fields = lines[row].split(",")
    edit(fields)
    lines[row] = ",".join(fields)
    path.write_text("\n".join(lines) + "\n")


def _swap(i, j):
    def edit(f):
        f[i], f[j] = f[j], f[i]
    return edit


def _set(i, value):
    def edit(f):
        f[i] = value
    return edit


def _truncate(path: Path) -> None:
    data = path.read_bytes()
    path.write_bytes(data[: len(data) // 2])


def test_clean_outputs_pass(outputs):
    for name, (ctx, out, stdouts) in outputs.items():
        for step in ctx.wl.steps:
            assert checks.check_step(step.name, str(out), stdouts[step.name], ctx) == []


# Ensemble summary rows: 0 is the header, then six per recorded time.
# Row 6 * 50 + 2 is E at step 50, where the quantiles differ.
_E50 = 6 * 50 + 2
ENSEMBLE_CORRUPTIONS = {
    "truncated": lambda p: _truncate(p),
    "flipped quantile": lambda p: _rewrite_csv_row(p, _E50, _swap(4, 6)),
    "negative value": lambda p: _rewrite_csv_row(p, _E50, _set(2, "-1.0")),
    "non-finite value": lambda p: _rewrite_csv_row(p, _E50, _set(3, "nan")),
    "negative std": lambda p: _rewrite_csv_row(p, _E50, _set(3, "-0.5")),
    "row dropped": lambda p: p.write_text(
        "\n".join(p.read_text().splitlines()[:-6]) + "\n"),
    "mean off the regenerated paths": lambda p: _rewrite_csv_row(
        p, _E50, lambda f: f.__setitem__(2, repr(float(f[2]) * (1 + 1e-6)))),
}


@pytest.mark.parametrize("kind", sorted(ENSEMBLE_CORRUPTIONS))
def test_ensemble_csv_corruption_fails(outputs, tmp_path, kind):
    ctx, out, stdouts = _copy(outputs, "ensemble-summary", tmp_path)
    ENSEMBLE_CORRUPTIONS[kind](out / "summary.csv")
    assert checks.check_step("ensemble", str(out), "", ctx)


WIDE_CORRUPTIONS = {
    "truncated": lambda a: None,
    "flipped quantile": lambda a: a.__setitem__((5, slice(19, 25)), a[5, 31 - 6:31] + 1.0),
    "extinct paths": lambda a: a.__setitem__((-1, 0), 0.05),
    "row dropped": lambda a: None,
}


@pytest.mark.parametrize("kind", sorted(WIDE_CORRUPTIONS))
def test_wide_summary_corruption_fails(outputs, tmp_path, kind):
    ctx, out, _ = _copy(outputs, "ensemble-wide", tmp_path)
    path = out / "summary.npy"
    if kind == "truncated":
        _truncate(path)
    else:
        arr = np.load(path)
        if kind == "row dropped":
            arr = np.delete(arr, 3, axis=0)
        WIDE_CORRUPTIONS[kind](arr)
        np.save(path, arr)
    assert checks.check_step("ensemble_wide", str(out), "", ctx)


HERD_CORRUPTIONS = {
    "r0 value": ("r0", lambda d, s: s["r0"].replace("closed_form=3.194519", "closed_form=3.194619")),
    "r0 key missing": ("r0", lambda d, s: s["r0"].replace("spectral", "spectrum")),
    "equilibrium residual": ("equilibrium", lambda d, s: s["equilibrium"].replace(
        "residual=", "residual=1e-3 #")),
    "equilibrium state": ("equilibrium", lambda d, s: s["equilibrium"].replace(
        "S=821.812", "S=821.9")),
    "ode truncated": ("simulate_ode", lambda d, s: _truncate(d / "ode.csv")),
    "ode reference row": ("simulate_ode", lambda d, s: _rewrite_csv_row(
        d / "ode.csv", 1 + 1000, _set(1, "2997.7"))),
    "ode svg not xml": ("simulate_ode", lambda d, s: _truncate(d / "ode.svg")),
    "sde regenerated row": ("simulate_sde", lambda d, s: _rewrite_csv_row(
        d / "sde.csv", 1 + 5, lambda f: f.__setitem__(2, repr(float(f[2]) + 1e-3)))),
    "sde negative": ("simulate_sde", lambda d, s: _rewrite_csv_row(
        d / "sde.csv", 1 + 1500, _set(3, "-2.0"))),
    "prcc row missing": ("sensitivity_peak", lambda d, s: (d / "prcc.csv").write_text(
        "\n".join((d / "prcc.csv").read_text().splitlines()[:-1]) + "\n")),
    "prcc flag flipped": ("sensitivity_peak", lambda d, s: _rewrite_csv_row(
        d / "prcc.csv", 1, lambda f: f.__setitem__(3, "0" if f[3] == "1" else "1"))),
    "prcc svg bars": ("sensitivity_peak", lambda d, s: (d / "prcc.svg").write_text(
        (d / "prcc.svg").read_text().replace("<rect", "<circle", 1))),
}


@pytest.mark.parametrize("kind", sorted(HERD_CORRUPTIONS))
def test_herd_study_corruption_fails(outputs, tmp_path, kind):
    ctx, out, stdouts = _copy(outputs, "herd-study", tmp_path)
    step, corrupt = HERD_CORRUPTIONS[kind]
    new = corrupt(out, stdouts)
    if isinstance(new, str):
        assert new != stdouts[step], "corruption did not apply"
        stdouts[step] = new
    assert checks.check_step(step, str(out), stdouts[step], ctx)


def _corrupting_launch(monkeypatch, corrupt):
    """Make every child's summary.csv damaged once the child has exited."""
    real = run.launch

    def launch(argv, cwd, tag, deadline):
        rec = real(argv, cwd, tag, deadline)
        corrupt(Path(cwd) / "summary.csv")
        return rec

    monkeypatch.setattr(run, "launch", launch)


def test_failed_iteration_is_counted_and_gives_no_timing(tmp_path, monkeypatch):
    monkeypatch.setattr(run, "STATE", tmp_path / "state")
    wl = workloads.build("ensemble-summary", "smoke", SEED)
    (tmp_path / "a").mkdir()
    (tmp_path / "b").mkdir()
    clean_run = run.Run(wl, SEED, tmp_path / "a", time.monotonic() + 120)
    clean = clean_run.iteration(0)
    assert clean["ok"]

    with monkeypatch.context() as m:
        _corrupting_launch(m, ENSEMBLE_CORRUPTIONS["flipped quantile"])
        r = run.Run(wl, SEED, tmp_path / "b", time.monotonic() + 120)
        bad = r.iteration(0)
    assert not bad["ok"]
    assert "quantiles out of order" in " ".join(bad["procs"][0]["problems"])
    assert sum(1 for op in r.ops if op["problems"]) == 1
    metrics = run.end_to_end(r, [bad], [])
    assert all(v["n"] == 0 and v["median"] is None for v in metrics.values())
    assert run.end_to_end(clean_run, [clean, bad], [])["wall_s"]["n"] == 1

    # Bytes that pass every check but differ from an earlier run with
    # the same seed fail too, in the same run and in a later one.
    def append_blank_line(path):
        with open(path, "a") as fh:
            fh.write("\n")

    with monkeypatch.context() as m:
        _corrupting_launch(m, append_blank_line)
        later = clean_run.iteration(1)
        (tmp_path / "c").mkdir()
        other = run.Run(wl, SEED, tmp_path / "c", time.monotonic() + 120).iteration(0)
    for it in (later, other):
        assert not it["ok"]
        assert "differ" in it["procs"][0]["problems"][0]


# --------------------------------------------------------------------------
# Parsing and span arithmetic


def test_parse_importtime_counts_outermost_entries_once():
    # importtime lists children before their parent, two spaces deeper.
    text = "\n".join([
        "import time: self [us] | cumulative | imported package",
        "import time:       100 |        100 |         scipy.special._ufuncs",
        "import time:       200 |        300 |       scipy.special",
        "import time:        50 |         50 |         scipy.stats._a",
        "import time:        70 |        120 |       scipy.stats._b",
        "import time:        10 |        440 |     herdflu.sensitivity",
        "import time:         5 |        445 |   herdflu",
        "import time:         5 |        450 | herdflu.cli",
    ])
    got = run.parse_importtime(text)
    assert got["cli.import_scipy_s"] == pytest.approx((300 + 120) / 1e6)
    assert got["cli.import_s"] == pytest.approx(450 / 1e6)


def test_self_time_subtracts_covered_child_intervals():
    spans = [
        {"id": 0, "parent": None, "start": 0.0, "end": 10.0},
        {"id": 1, "parent": 0, "start": 1.0, "end": 4.0},
        {"id": 2, "parent": 0, "start": 3.0, "end": 6.0},  # overlaps span 1
        {"id": 3, "parent": 2, "start": 3.5, "end": 4.5},
    ]
    st = self_times(spans)
    assert st[0] == pytest.approx(10.0 - 5.0)
    assert st[2] == pytest.approx(3.0 - 1.0)
    assert st[1] == pytest.approx(3.0)


def test_summary_quartiles_and_counts():
    s = run.summary([3.0, 1.0, 2.0, 4.0])
    assert (s["median"], s["n"]) == (2.5, 4)
    assert s["q1"] <= s["median"] <= s["q3"]
    assert run.summary([]) == {"median": None, "q1": None, "q3": None, "n": 0}
    assert os.path.basename(run.CHILD) == "child.py"
