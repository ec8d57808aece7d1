"""The benchmark's tracing (bench/child.py) wraps names of the package
from outside. Those names must keep resolving, and the `ensemble`
command must still call what it times; bench/tests, which runs the
workloads themselves, is not part of this suite."""

import importlib.util
import os
import pathlib

from herdflu import cli
from herdflu.output import read_ensemble_csv

BENCH = pathlib.Path(__file__).resolve().parents[1] / "bench"


def _load(name: str):
    """bench/<name>.py as a module, without putting bench/ on sys.path."""
    spec = importlib.util.spec_from_file_location(f"_bench_{name}", BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


class _Recorder:
    """A tracer that records what it is asked to wrap and wraps nothing."""

    def __init__(self):
        self.wrapped = []

    def wrap(self, module, attr, name, after=None):
        self.wrapped.append((module, attr))


def _traced_names():
    recorder = _Recorder()
    _load("child").install_cli_tracing(recorder)
    return recorder.wrapped


def test_every_traced_name_resolves():
    wrapped = _traced_names()
    assert (cli, "write_ensemble_csv") in wrapped
    missing = [f"{m.__name__}.{a}" for m, a in wrapped if not callable(getattr(m, a, None))]
    assert missing == []


def test_ensemble_calls_the_csv_writer_once_with_the_finished_file(
    tmp_path, monkeypatch
):
    # The bench tracer undone at teardown: every name it replaces is
    # first set to itself.
    for module, attr in _traced_names():
        monkeypatch.setattr(module, attr, getattr(module, attr))
    tracer = _load("tracer").Tracer("run")
    _load("child").install_cli_tracing(tracer)
    calls = []
    traced = cli.write_ensemble_csv

    def spy(*args, **kwargs):
        traced(*args, **kwargs)
        path = args[1]
        calls.append((path, kwargs, os.path.getsize(path), len(read_ensemble_csv(path)["times"])))

    monkeypatch.setattr(cli, "write_ensemble_csv", spy)
    config = tmp_path / "run.cfg"
    config.write_text("t_end = 2\nn_paths = 4\nseed = 3\n")
    out = tmp_path / "summary.csv"
    assert cli.run_cli(["ensemble", "--config", str(config), "--out", str(out)]) == 0
    size = out.stat().st_size
    # Once, the path second and positional, the file whole on return.
    assert calls == [(str(out), {}, size, 201)]
    assert tracer.counts["run"]["output.ensemble_csv_bytes"] == size
    assert [s["name"] for s in tracer.spans] == ["config.load_config", "output.ensemble_csv"]

