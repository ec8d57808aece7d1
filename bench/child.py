"""One child process of the benchmark.

    child.py run   MARK TRACE RUN_ID STEP KIND ARG...   one workload step
    child.py setup MARK TRACE RUN_ID STEP KIND ARG...   stop after set-up
    child.py probe SPEC.json OUT.json                   layer probes

MARK receives two lines: the monotonic time at which `import herdflu`
plus `load_config` has finished (the parent subtracts its launch time
to get the process's set-up time), and the process's peak resident set
in kB (VmHWM). The rusage of a child cannot give the latter: on Linux
its max-RSS starts from the parent's RSS at fork. TRACE is "-" for an
untraced run, otherwise the file the spans are written to when the
process ends.

KIND "cli" passes ARG... to herdflu.cli.run_cli, as the console script
does. KIND "wide" is the library ensemble: ARG... is
CONFIG PATHS T_END STRIDE SEED OUT, and OUT receives the summary as one
.npy array (see write_wide).

Only the standard library is imported before herdflu, so the set-up
time is the program's own.
"""

import os
import sys
import time


def _peak_rss_kb():
    with open("/proc/self/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return line.split()[1]
    return ""


def _config_arg(argv):
    return argv[argv.index("--config") + 1] if "--config" in argv else None


def write_wide(summary, path):
    """Rows: times | mean | std | q025 | q50 | q975 (31 columns), then
    one trailer row [extinct_fraction, n_paths, 0, ...]."""
    import numpy as np

    body = np.column_stack(
        [summary.times, summary.mean, summary.std, summary.q025, summary.q50, summary.q975]
    )
    trailer = np.zeros((1, body.shape[1]))
    trailer[0, :2] = (summary.extinct_fraction, summary.n_paths)
    np.save(path, np.vstack([body, trailer]), allow_pickle=False)


def run_wide(argv, on_setup, tracer=None):
    import herdflu
    from dataclasses import replace

    cfg_path, paths, t_end, stride, seed, out = argv
    rc = herdflu.load_config(cfg_path)
    on_setup()
    sim = replace(rc.sim, t_end=float(t_end), record_stride=int(stride))
    if tracer is None:
        summary = herdflu.run_ensemble(rc.params, rc.noise, rc.init, sim, int(paths), int(seed))
    else:
        with tracer.span("ensemble.run_ensemble"):
            summary = herdflu.run_ensemble(
                rc.params, rc.noise, rc.init, sim, int(paths), int(seed)
            )
        tracer.count("ensemble.rows", len(summary.times))
    write_wide(summary, out)
    return 0


def _size(path):
    return os.path.getsize(path) if path and os.path.exists(path) else 0


def install_cli_tracing(tracer):
    """Span every call the CLI commands make into the layers."""
    import herdflu.cli as cli
    import herdflu.sensitivity as sens

    def ens_counts(t, args, kw, out):
        t.count("ensemble.rows", len(out.times))

    def steps_of(cfg_pos, name):
        def after(t, args, kw, out):
            t.count(name, args[cfg_pos].n_steps())
        return after

    def model_eval(t, args, kw, out):
        t.count("sensitivity.model_evals")
        t.count("integrate.rk4_steps", args[2].n_steps())

    def bytes_of(name):
        def after(t, args, kw, out):
            t.count(name, _size(args[1] if len(args) > 1 else kw.get("path")))
        return after

    def samples(t, args, kw, out):
        t.count("sensitivity.samples", out.n_samples)

    hooks = [
        (cli, "load_config", "config.load_config", None),
        (cli, "run_ensemble", "ensemble.run_ensemble", ens_counts),
        (cli, "write_ensemble_csv", "output.ensemble_csv", bytes_of("output.ensemble_csv_bytes")),
        (cli, "integrate_ode", "integrate.integrate_ode", steps_of(2, "integrate.rk4_steps")),
        (cli, "integrate_sde", "integrate.integrate_sde", steps_of(3, "integrate.sde_steps")),
        (cli, "write_trajectory_csv", "output.trajectory_csv", bytes_of("output.trajectory_bytes")),
        (cli, "write_trajectory_svg", "output.trajectory_svg", bytes_of("output.trajectory_bytes")),
        (cli, "sensitivity_of_peak_symptomatic", "sensitivity.peak_sweep", samples),
        (cli, "write_sensitivity_csv", "output.sensitivity_csv", None),
        (cli, "write_prcc_svg", "output.prcc_svg", None),
        (cli, "r0_closed_form", "model.r0_closed_form", None),
        (cli, "r0_spectral", "model.r0_spectral", None),
        (cli, "solve_endemic", "equilibrium.solve_endemic", None),
        (sens, "lhs_sample", "sensitivity.lhs_sample", None),
        (sens, "integrate_ode", "integrate.integrate_ode", model_eval),
        (sens, "prcc", "sensitivity.prcc", None),
    ]
    for module, attr, name, after in hooks:
        tracer.wrap(module, attr, name, after)


def run_step(step, kind, argv, on_setup, tracer=None):
    """Run one step in this process; returns its exit code."""
    if kind == "wide":
        if tracer is None:
            return run_wide(argv, on_setup)
        with tracer.span("lib." + step):
            return run_wide(argv, on_setup, tracer)
    import herdflu.cli as cli

    loader = cli.load_config

    def load_config(path):
        rc = loader(path)
        on_setup()
        return rc

    cli.load_config = load_config
    try:
        if tracer is None:
            return cli.run_cli(list(argv))
        with tracer.span("cli." + step):
            return cli.run_cli(list(argv))
    finally:
        cli.load_config = loader


def _step_main(mode, mark, trace, run_id, step, kind, argv):
    marks = []

    def on_setup():
        marks.append(time.monotonic())

    tracer = None
    if trace != "-":
        from tracer import Tracer

        tracer = Tracer(run_id)
        if kind == "cli":
            install_cli_tracing(tracer)
    try:
        if mode == "setup":
            if kind == "wide":
                import herdflu

                herdflu.load_config(argv[0])
            else:
                import herdflu.cli

                herdflu.cli.load_config(_config_arg(argv))
            on_setup()
            code = 0
        else:
            code = run_step(step, kind, argv, on_setup, tracer)
    finally:
        with open(mark, "w", encoding="utf-8") as fh:
            fh.write(f"{marks[0]!r}\n" if marks else "\n")
            fh.write(_peak_rss_kb())
        if tracer is not None:
            tracer.dump(trace)
    return code


if __name__ == "__main__":
    mode = sys.argv[1]
    if mode == "probe":
        import probe

        sys.exit(probe.main(sys.argv[2], sys.argv[3]))
    sys.exit(_step_main(mode, *sys.argv[2:7], sys.argv[7:]))
