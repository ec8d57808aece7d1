import ast
import errno
import os
import pathlib
import subprocess
import sys

import numpy as np
import pytest

from herdflu import (
    BASELINE_PARAMS,
    DEFAULT_NOISE,
    NoiseStream,
    SimConfig,
    default_init,
    integrate_ode,
    integrate_sde,
    read_ensemble_csv,
    read_sensitivity_csv,
    read_trajectory_csv,
    run_ensemble,
    sensitivity_of_r0,
    write_trajectory_csv,
)
from herdflu import cli
from herdflu.cli import _build_parser, run_cli
from herdflu.sensitivity import R0_PARAM_KEYS

FAST = "t_end = 2\ndt = 0.01\nn_paths = 4\nseed = 3\n"


@pytest.fixture
def fast_config(tmp_path):
    p = tmp_path / "fast.cfg"
    p.write_text(FAST)
    return str(p)


class TestReportingCommands:
    def test_r0_prints_both_routes(self, capsys):
        assert run_cli(["r0"]) == 0
        out = capsys.readouterr().out
        assert "closed_form=0.047240" in out
        assert "spectral=0.047240" in out
        diff = float(out.split("difference=")[1].split()[0])
        assert diff < 1e-9
        assert out.endswith("herd_threshold=0.611678\n")

    def test_equilibrium_baseline_is_disease_free_only(self, capsys):
        assert run_cli(["equilibrium"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("dfe: S=3000 E=0 I_s=0 I_a=0 R=0 B=0")
        assert "no admissible endemic root" in out

    def test_equilibrium_supercritical_config(self, tmp_path, capsys):
        cfg = tmp_path / "hot.cfg"
        cfg.write_text("beta_a = 0.46665\n")
        assert run_cli(["equilibrium", "--config", str(cfg)]) == 0
        out = capsys.readouterr().out
        assert "endemic: S=821.812" in out
        assert "lambda_star=" in out and "n_star=" in out
        residual = float(out.split("residual=")[1].split()[0])
        assert residual < 1e-8


class TestSimulate:
    def test_ode_csv_contents(self, fast_config, tmp_path, capsys):
        out = tmp_path / "traj.csv"
        rc = run_cli(
            ["simulate", "--mode", "ode", "--config", fast_config, "--out", str(out)]
        )
        assert rc == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "t,S,E,I_s,I_a,R,B"
        assert lines[1] == "0.0,2999.0,1.0,0.0,0.0,0.0,0.0"
        traj = read_trajectory_csv(str(out))
        assert np.all(np.diff(traj.times) > 0)
        ref = integrate_ode(
            BASELINE_PARAMS, default_init(BASELINE_PARAMS), SimConfig(2.0, 0.01)
        )
        assert np.array_equal(traj.times, ref.times)
        assert np.array_equal(traj.states, ref.states)

    def test_trajectory_round_trip_is_byte_exact(self, fast_config, tmp_path):
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        run_cli(["simulate", "--mode", "sde", "--config", fast_config, "--out", str(a)])
        write_trajectory_csv(read_trajectory_csv(str(a)), str(b))
        assert a.read_bytes() == b.read_bytes()

    def test_sde_reruns_are_identical_and_seeded(self, fast_config, tmp_path):
        paths = [tmp_path / n for n in ("r1.csv", "r2.csv", "r3.csv")]
        base = ["simulate", "--mode", "sde", "--config", fast_config]
        run_cli(base + ["--out", str(paths[0])])
        run_cli(base + ["--out", str(paths[1])])
        run_cli(base + ["--out", str(paths[2]), "--seed", "9"])
        assert paths[0].read_bytes() == paths[1].read_bytes()
        assert paths[0].read_bytes() != paths[2].read_bytes()

    def test_seed_flag_equals_config_seed(self, tmp_path):
        flagged = tmp_path / "flag.cfg"
        flagged.write_text("t_end = 2\ndt = 0.01\n")  # seed defaults to 0
        pinned = tmp_path / "pin.cfg"
        pinned.write_text("t_end = 2\ndt = 0.01\nseed = 11\n")
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        run_cli(["simulate", "--mode", "sde", "--config", str(flagged),
                 "--out", str(a), "--seed", "11"])
        run_cli(["simulate", "--mode", "sde", "--config", str(pinned), "--out", str(b)])
        assert a.read_bytes() == b.read_bytes()

    def test_svg_output(self, fast_config, tmp_path):
        out = tmp_path / "traj.csv"
        svg = tmp_path / "traj.svg"
        run_cli(["simulate", "--mode", "ode", "--config", fast_config,
                 "--out", str(out), "--svg", str(svg)])
        text = svg.read_text()
        assert text.startswith("<svg ")
        assert text.rstrip().endswith("</svg>")


class TestEnsemble:
    def test_summary_csv_round_trips_exactly(self, fast_config, tmp_path):
        out = tmp_path / "ens.csv"
        assert run_cli(["ensemble", "--config", fast_config, "--out", str(out)]) == 0
        got = read_ensemble_csv(str(out))
        summ = run_ensemble(
            BASELINE_PARAMS, DEFAULT_NOISE, default_init(BASELINE_PARAMS),
            SimConfig(2.0, 0.01), n_paths=4, master_seed=3,
        )
        assert np.array_equal(got["times"], summ.times)
        for name in ("mean", "std", "q025", "q50", "q975"):
            assert np.array_equal(got[name], getattr(summ, name)), name

    def test_paths_out_member_zero_matches_simulate(self, fast_config, tmp_path):
        ens = tmp_path / "ens.csv"
        members = tmp_path / "members"
        run_cli(["ensemble", "--config", fast_config, "--out", str(ens),
                 "--paths-out", str(members)])
        files = sorted(p.name for p in members.iterdir())
        assert files == [f"path_{i:04d}.csv" for i in range(4)]
        sim = tmp_path / "sim.csv"
        run_cli(["simulate", "--mode", "sde", "--config", fast_config,
                 "--out", str(sim)])
        assert (members / "path_0000.csv").read_bytes() == sim.read_bytes()

    def test_paths_out_files_equal_integrate_sde(self, fast_config, tmp_path):
        # One engine pass feeds every path file.
        members = tmp_path / "members"
        assert run_cli(["ensemble", "--config", fast_config, "--out",
                        str(tmp_path / "ens.csv"), "--paths", "5",
                        "--paths-out", str(members)]) == 0
        init = default_init(BASELINE_PARAMS)
        for i in range(5):
            tr = integrate_sde(BASELINE_PARAMS, DEFAULT_NOISE, init,
                               SimConfig(2.0, 0.01), NoiseStream(3, i))
            write_trajectory_csv(tr, str(tmp_path / "ref.csv"))
            assert (members / f"path_{i:04d}.csv").read_bytes() == (
                tmp_path / "ref.csv"
            ).read_bytes()

    def test_thread_count_does_not_change_bytes(self, fast_config, tmp_path):
        a, b = tmp_path / "t1.csv", tmp_path / "t4.csv"
        run_cli(["ensemble", "--config", fast_config, "--out", str(a),
                 "--threads", "1"])
        run_cli(["ensemble", "--config", fast_config, "--out", str(b),
                 "--threads", "4"])
        assert a.read_bytes() == b.read_bytes()

    def test_paths_flag_overrides_config(self, fast_config, tmp_path):
        out = tmp_path / "ens.csv"
        members = tmp_path / "m"
        run_cli(["ensemble", "--config", fast_config, "--out", str(out),
                 "--paths", "2", "--paths-out", str(members)])
        assert len(list(members.iterdir())) == 2


class TestSensitivity:
    def test_report_csv_matches_library(self, tmp_path):
        out = tmp_path / "prcc.csv"
        svg = tmp_path / "prcc.svg"
        rc = run_cli(["sensitivity", "--out", str(out), "--samples", "100",
                      "--svg", str(svg)])
        assert rc == 0
        rows = read_sensitivity_csv(str(out))
        assert tuple(r[0] for r in rows) == R0_PARAM_KEYS
        ref = sensitivity_of_r0(n=100, seed=0)
        for row, ps in zip(rows, ref.params):
            assert row[1] == ps.prcc
            assert row[2] == ps.p_value
            assert row[3] == ps.significant
        assert svg.read_text().startswith("<svg ")

    def test_significant_column_is_zero_or_one(self, tmp_path):
        out = tmp_path / "prcc.csv"
        run_cli(["sensitivity", "--out", str(out), "--samples", "50"])
        for line in out.read_text().splitlines()[1:]:
            assert line.rsplit(",", 1)[1] in ("0", "1")

    def test_ranges_file_restricts_parameters(self, tmp_path):
        rng = tmp_path / "ranges.txt"
        rng.write_text("beta_a = 0.001 0.01\ngamma = 0.05 0.2\n")
        out = tmp_path / "prcc.csv"
        rc = run_cli(["sensitivity", "--out", str(out), "--samples", "60",
                      "--ranges", str(rng)])
        assert rc == 0
        rows = read_sensitivity_csv(str(out))
        assert [r[0] for r in rows] == ["beta_a", "gamma"]
        assert rows[0][1] > 0 > rows[1][1]

    def test_peak_metric(self, fast_config, tmp_path):
        rng = tmp_path / "ranges.txt"
        rng.write_text("beta_a = 0.3 0.9\ngamma = 0.05 0.2\n")
        out = tmp_path / "prcc.csv"
        rc = run_cli(["sensitivity", "--config", fast_config, "--out", str(out),
                      "--samples", "8", "--metric", "peak", "--ranges", str(rng)])
        assert rc == 0
        assert len(read_sensitivity_csv(str(out))) == 2


class TestExitCodes:
    @pytest.mark.parametrize(
        "argv",
        [
            [],
            ["bogus"],
            ["simulate", "--mode", "ode"],          # --out missing
            ["simulate", "--out", "x.csv"],         # --mode missing
            ["simulate", "--mode", "rk4", "--out", "x.csv"],
            ["sensitivity", "--out", "x.csv", "--metric", "speed"],
        ],
    )
    def test_usage_errors_exit_1(self, argv, capsys):
        assert run_cli(argv) == 1
        capsys.readouterr()

    @pytest.mark.parametrize("threads", ["0", "-3", "two"])
    def test_bad_threads_value_exits_1(self, threads, fast_config, tmp_path, capsys):
        out = tmp_path / "ens.csv"
        rc = run_cli(["ensemble", "--config", fast_config, "--out", str(out),
                      "--threads", threads])
        assert rc == 1
        assert "--threads" in capsys.readouterr().err
        assert not out.exists()

    def test_threads_default_is_one(self):
        args = _build_parser().parse_args(["ensemble", "--out", "x.csv"])
        assert args.threads == 1

    def test_grid_dt_not_dividing_t_end_exits_2(self, tmp_path, capsys):
        cfg = tmp_path / "grid.cfg"
        cfg.write_text("t_end = 1\ndt = 0.4\n")
        out = tmp_path / "traj.csv"
        rc = run_cli(["simulate", "--mode", "ode", "--config", str(cfg),
                      "--out", str(out)])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "does not divide" in err
        assert not out.exists()

    def test_help_exits_0(self, capsys):
        assert run_cli(["--help"]) == 0
        out = capsys.readouterr().out
        for name in ("r0", "equilibrium", "simulate", "ensemble", "sensitivity"):
            assert name in out

    def test_bad_config_exits_2(self, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("nu = 1.5\n")
        assert run_cli(["r0", "--config", str(cfg)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert "nu" in err

    def test_missing_config_exits_2(self, tmp_path, capsys):
        missing = str(tmp_path / "nope.cfg")
        assert run_cli(["r0", "--config", missing]) == 2
        assert "error:" in capsys.readouterr().err

    def test_missing_ranges_file_exits_2(self, tmp_path, capsys):
        out = tmp_path / "prcc.csv"
        rc = run_cli(["sensitivity", "--out", str(out), "--ranges",
                      str(tmp_path / "nope.txt")])
        assert rc == 2
        capsys.readouterr()

    def test_bad_paths_value_exits_1(self, fast_config, tmp_path, capsys):
        # A bad flag value is a usage error, as for --threads.
        out = tmp_path / "ens.csv"
        for paths in ("0", "-3"):
            rc = run_cli(["ensemble", "--config", fast_config, "--out", str(out),
                          "--paths", paths])
            assert rc == 1
            assert "--paths" in capsys.readouterr().err
            assert not out.exists()

    @pytest.mark.parametrize("samples", ["0", "-5"])
    def test_bad_samples_value_exits_1(self, samples, tmp_path, capsys):
        out = tmp_path / "prcc.csv"
        rc = run_cli(["sensitivity", "--out", str(out), "--samples", samples])
        assert rc == 1
        assert "--samples" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("seed", ["-1", "18446744073709551616"])
    def test_bad_seed_value_exits_1(self, seed, tmp_path, capsys):
        out = tmp_path / "out.csv"
        for argv in (
            ["ensemble"],
            ["simulate", "--mode", "sde"],
            ["simulate", "--mode", "ode"],
            ["sensitivity"],
        ):
            assert run_cli(argv + ["--out", str(out), "--seed", seed]) == 1
            assert "--seed" in capsys.readouterr().err
            assert not out.exists()

    def test_config_zero_paths_exits_2(self, tmp_path, capsys):
        # The same value from a config file is a validation failure.
        cfg = tmp_path / "zero.cfg"
        cfg.write_text("t_end = 2\nn_paths = 0\n")
        out = tmp_path / "ens.csv"
        assert run_cli(["ensemble", "--config", str(cfg), "--out", str(out)]) == 2
        assert "n_paths" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("argv", [
        ["simulate", "--mode", "ode", "--out", "{tmp}/traj.csv", "--svg", "{missing}"],
        ["simulate", "--mode", "sde", "--out", "{missing}", "--svg", "{tmp}/traj.svg"],
        ["ensemble", "--out", "{missing}"],
    ], ids=["simulate-svg", "simulate-out", "ensemble"])
    def test_missing_output_directory_exits_2_before_any_fork(
        self, argv, fast_config, tmp_path, capsys, forks
    ):
        # open's own error, with no traceback. `ensemble` opens its file
        # after the engine, yet fails before the engine and its noise
        # helper start.
        missing = str(tmp_path / "missing_dir" / "out")
        argv = [a.format(tmp=tmp_path, missing=missing) for a in argv]
        assert run_cli(argv + ["--config", fast_config]) == 2
        assert capsys.readouterr().err == (
            f"error: [Errno 2] No such file or directory: {missing!r}\n")
        assert forks == []

    @pytest.mark.parametrize("target", ["missing_dir/out", "a_dir"])
    @pytest.mark.parametrize("argv, computes", [
        (["simulate", "--mode", "ode", "--out", "{bad}"], ["integrate_ode"]),
        (["simulate", "--mode", "sde", "--out", "{ok}", "--svg", "{bad}"],
         ["integrate_sde"]),
        (["ensemble", "--out", "{bad}", "--paths-out", "{tmp}/paths"],
         ["iter_summary_blocks"]),
        (["sensitivity", "--out", "{bad}"], ["sensitivity_of_r0"]),
        (["sensitivity", "--metric", "peak", "--out", "{ok}", "--svg", "{bad}"],
         ["sensitivity_of_peak_symptomatic"]),
    ], ids=["simulate-out", "simulate-svg", "ensemble", "sensitivity-out",
            "sensitivity-svg"])
    def test_unwritable_output_exits_2_before_the_compute(
        self, argv, computes, target, fast_config, tmp_path, capsys, monkeypatch
    ):
        # A missing directory or a directory target: open's own error,
        # before the command computes or creates anything.
        (tmp_path / "a_dir").mkdir()
        bad, ok = str(tmp_path / target), str(tmp_path / "ok")
        with pytest.raises(OSError) as exc:
            open(bad, "w")

        def compute(*args, **kwargs):
            raise AssertionError("the compute ran")

        for name in computes:
            monkeypatch.setattr(cli, name, compute)
        argv = [a.format(bad=bad, ok=ok, tmp=tmp_path) for a in argv]
        assert run_cli(argv + ["--config", fast_config]) == 2
        assert capsys.readouterr().err == f"error: {exc.value}\n"
        assert exc.value.errno in (errno.ENOENT, errno.EISDIR)
        assert not (tmp_path / "ok").exists()
        assert not (tmp_path / "paths").exists()

    def test_same_out_and_svg_exits_2(
        self, fast_config, tmp_path, capsys, monkeypatch, forks
    ):
        # One file would get both outputs (simulate writes them at once):
        # refused before the compute, the file's bytes untouched, and a
        # path that does not exist yet is not created.
        def compute(*args, **kwargs):
            raise AssertionError("the compute ran")

        for name in ("integrate_ode", "integrate_sde", "sensitivity_of_r0",
                     "sensitivity_of_peak_symptomatic"):
            monkeypatch.setattr(cli, name, compute)
        commands = {"simulate-ode": ["simulate", "--mode", "ode"],
                    "simulate-sde": ["simulate", "--mode", "sde"],
                    "sensitivity-r0": ["sensitivity"],
                    "sensitivity-peak": ["sensitivity", "--metric", "peak"]}
        for command, argv in commands.items():
            for form in ("path", "symlink", "hard-link", "new-path"):
                case = tmp_path / f"{command}-{form}"
                case.mkdir()
                out, svg = case / "out", case / "svg"
                if form != "new-path":
                    out.write_bytes(b"kept\n")
                if form == "symlink":
                    svg.symlink_to(out)
                elif form == "hard-link":
                    os.link(out, svg)
                else:
                    svg = out
                assert run_cli(argv + ["--config", fast_config, "--out", str(out),
                                       "--svg", str(svg)]) == 2, (command, form)
                assert capsys.readouterr().err == (
                    "error: --out and --svg name the same file\n"), (command, form)
                if form == "new-path":
                    assert not out.exists(), command
                else:
                    assert out.read_bytes() == b"kept\n", (command, form)
        assert forks == []

    def test_out_naming_a_paths_out_file_exits_2(
        self, fast_config, tmp_path, capsys, monkeypatch, forks
    ):
        # The summary would replace a path's trajectory: refused before
        # the compute and before any path file is made, the named file's
        # bytes untouched, and a path that does not exist yet is not
        # created.
        def compute(*args, **kwargs):
            raise AssertionError("the compute ran")

        monkeypatch.setattr(cli, "iter_summary_blocks", compute)
        for form in ("path", "symlink", "hard-link", "new-path"):
            members = tmp_path / form / "members"
            members.mkdir(parents=True)
            target = members / "path_0001.csv"
            out = target
            if form != "new-path":
                target.write_bytes(b"kept\n")
            if form == "symlink":
                out = tmp_path / form / "link.csv"
                out.symlink_to(target)
            elif form == "hard-link":
                out = tmp_path / form / "link.csv"
                os.link(target, out)
            assert run_cli(["ensemble", "--config", fast_config, "--paths", "2",
                            "--out", str(out), "--paths-out", str(members)]) == 2, form
            assert capsys.readouterr().err == (
                "error: --out names a --paths-out file\n"), form
            assert sorted(p.name for p in members.iterdir()) == (
                [] if form == "new-path" else ["path_0001.csv"]), form
            if form != "new-path":
                assert target.read_bytes() == b"kept\n", form
        assert forks == []

    def test_out_beside_the_paths_out_files_runs(self, fast_config, tmp_path):
        # path_0002.csv is not one of two paths' files.
        members = tmp_path / "members"
        members.mkdir()
        out = members / "path_0002.csv"
        assert run_cli(["ensemble", "--config", fast_config, "--paths", "2",
                        "--out", str(out), "--paths-out", str(members)]) == 0
        assert sorted(p.name for p in members.iterdir()) == [
            "path_0000.csv", "path_0001.csv", "path_0002.csv"]
        assert out.read_text().startswith("t,compartment,mean,")
        assert (members / "path_0000.csv").read_text().startswith("t,S,E,")

    def test_diagnostics_go_to_stderr_not_stdout(self, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("mu = -1\n")
        run_cli(["equilibrium", "--config", str(cfg)])
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "error:" in captured.err


def test_module_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "herdflu", "r0"], capture_output=True, text=True
    )
    assert proc.returncode == 0
    assert "closed_form=" in proc.stdout


def test_cli_import_leaves_out_scipy_stats():
    # scipy.stats costs most of a second at import; the CLI needs only
    # two scipy.special kernels.
    proc = subprocess.run(
        [sys.executable, "-c",
         "import sys, herdflu.cli; "
         "print(sorted(m for m in sys.modules if m.startswith('scipy.stats')))"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


@pytest.mark.parametrize("command", ["r0", "equilibrium"])
def test_commands_without_noise_or_prcc_leave_out_scipy_special(command, tmp_path):
    # Only the stochastic integrators and prcc load scipy (its kernels,
    # see `herdflu._special`); no other command imports any of it. The
    # endemic config makes `equilibrium` solve for a root.
    cfg = tmp_path / "hot.cfg"
    cfg.write_text("beta_a = 0.46665\n")
    argv = [command, "--config", str(cfg)]
    proc = subprocess.run(
        [sys.executable, "-c",
         "import sys, herdflu.cli; "
         f"assert herdflu.cli.run_cli({argv!r}) == 0; "
         "print(sorted(m for m in sys.modules if m.startswith('scipy')))"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip().splitlines()[-1] == "[]"


@pytest.mark.parametrize("argv", [
    None,
    ["r0"],
    ["equilibrium"],
    ["simulate", "--mode", "ode", "--out", "{tmp}/traj.csv"],
])
def test_commands_without_noise_leave_out_numpy_random_and_thread_pool(argv, tmp_path):
    # numpy.random is imported only where a noise stream or an LHS sample
    # is built, and concurrent.futures never (see the ensemble case
    # below); `import herdflu.cli` and the commands without noise need
    # neither.
    cfg = tmp_path / "fast.cfg"
    cfg.write_text(FAST)
    run = ""
    if argv is not None:
        argv = [a.format(tmp=tmp_path) for a in argv] + ["--config", str(cfg)]
        run = f"assert herdflu.cli.run_cli({argv!r}) == 0; "
    proc = subprocess.run(
        [sys.executable, "-c",
         "import sys, herdflu.cli; " + run +
         "print(sorted(m for m in sys.modules "
         "if m.startswith(('numpy.random', 'concurrent.futures'))))"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip().splitlines()[-1] == "[]"


def test_ensemble_leaves_out_thread_pool(tmp_path):
    # One process steps every path: `--threads` and the `threads`
    # parameter are accepted and ignored, and no thread pool is loaded.
    # The full scipy.special package loads concurrent.futures, but the
    # noise path loads only its kernels (`herdflu._special`), so this
    # holds whichever process makes the increments.
    cfg = tmp_path / "fast.cfg"
    cfg.write_text(FAST)
    argv = ["ensemble", "--config", str(cfg), "--out", str(tmp_path / "s.csv"),
            "--threads", "4"]
    proc = subprocess.run(
        [sys.executable, "-c",
         "import sys, herdflu, herdflu.cli; "
         f"assert herdflu.cli.run_cli({argv!r}) == 0; "
         "herdflu.run_ensemble(herdflu.BASELINE_PARAMS, herdflu.DEFAULT_NOISE, "
         "herdflu.default_init(herdflu.BASELINE_PARAMS), "
         "herdflu.SimConfig(2.0, 0.01), 8, 5, threads=4); "
         "print(sorted(m for m in sys.modules if m.startswith('concurrent')))"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip().splitlines()[-1] == "[]"


def test_every_fork_goes_through_fork_child():
    # process.fork_child holds the fork policy: no fork beside another
    # thread or below two usable CPUs, os._exit from the child.
    # process.Child alone reaps, kills and reports a child. A call of
    # os.fork, os.wait*, os.kill or os.killpg elsewhere in the package
    # would bypass them. So would a CPU count of its own
    # (os.sched_getaffinity, process.usable_cpus holds it), shared
    # memory of its own (mmap.mmap, process.shared_array holds it) or a
    # pipe to a child of its own (os.pipe, os.read, os.write;
    # process.Ring holds the slot handshake).
    import herdflu

    def policy(module: str, name: str) -> bool:
        if module == "mmap":
            return name == "mmap"
        return (name.startswith(("fork", "wait", "kill", "pipe"))
                or name in ("read", "write", "sched_getaffinity"))

    # Each fork site is a call of process.Child or process.Ring (or
    # fork_child) at its one listed place, so a new site cannot land
    # unlisted here and in ROADMAP item 12.
    builders = ("Child", "Ring", "fork_child")
    modules = ("os", "posix", "mmap")
    package = pathlib.Path(herdflu.__file__).parent
    sites, builds = [], set()
    for path in sorted(package.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                    and node.value.id in modules and policy(node.value.id, node.attr)):
                sites.append((path.name, node.attr))
            elif isinstance(node, ast.ImportFrom) and node.module in modules:
                sites += [(path.name, a.name) for a in node.names
                          if policy(node.module, a.name)]
            elif isinstance(node, ast.Call):
                func = node.func
                name = getattr(func, "id", None) or getattr(func, "attr", None)
                if name in builders:
                    builds.add((path.name, name))
    assert sorted(builds) == [
        ("cli.py", "Child"), ("integrate.py", "Ring"), ("output.py", "Ring"),
        ("process.py", "Child"), ("process.py", "fork_child"),
    ]
    assert sorted(set(sites)) == [
        ("process.py", "fork"), ("process.py", "kill"), ("process.py", "mmap"),
        ("process.py", "pipe"), ("process.py", "read"),
        ("process.py", "sched_getaffinity"), ("process.py", "waitpid"),
        ("process.py", "waitstatus_to_exitcode"), ("process.py", "write"),
    ]
    assert sites.count(("process.py", "fork")) == 1


def test_only_the_noise_transform_imports_scipy_special():
    # Commands without noise or PRCC load no scipy, and an ensemble whose
    # helper makes the increments leaves scipy's kernels out of the main
    # process. That holds only while `_special` alone imports scipy, and
    # integrate.py reaches it in `_to_increments` alone and
    # sensitivity.py in `prcc` alone.
    import herdflu

    package = pathlib.Path(herdflu.__file__).parent
    sites = []

    def imported(node) -> list[str]:
        if isinstance(node, ast.Import):
            return [a.name for a in node.names]
        if not isinstance(node, ast.ImportFrom):
            return []
        if not node.level:
            return [node.module]
        base = ".".join(["herdflu"] + ([node.module] if node.module else []))
        return [base] if node.module else [f"{base}.{a.name}" for a in node.names]

    def visit(path, node, where):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                visit(path, child, where + (child.name,))
                continue
            sites.extend((path.name, where, n) for n in imported(child)
                         if n.split(".")[0] == "scipy" or n == "herdflu._special")
            visit(path, child, where)

    for path in sorted(package.glob("*.py")):
        visit(path, ast.parse(path.read_text(), str(path)), ())
    assert sites == [
        ("_special.py", ("_kernels",), "scipy.special"),
        ("integrate.py", ("_to_increments",), "herdflu._special"),
        ("sensitivity.py", ("prcc",), "herdflu._special"),
    ]
