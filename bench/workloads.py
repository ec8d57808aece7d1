"""The benchmark's workloads: which processes one iteration runs.

Every workload is closed loop: an iteration is a fixed list of steps,
each step is one fresh child process, and a step starts only after the
previous one has exited. The benchmark seed reaches the program only
as `--seed` (CLI) or `master_seed` (library), never as a config edit.

Two scales exist. "full" is what the benchmark measures; "smoke" runs
the same steps and checks at tiny sizes, for the benchmark's own tests
and for filling in layer metrics a workload does not reach.
"""

from __future__ import annotations

from dataclasses import dataclass

# The acceptance-test endemic case, R0 = 3.19: paths do not die out.
OUTBREAK_CONFIG = "beta_a = 0.46665\n"

SCALES = ("full", "smoke")


@dataclass(frozen=True)
class Step:
    """One child process of an iteration.

    `kind` is "cli" (argv goes to herdflu.cli.run_cli) or "wide" (a
    library call to run_ensemble, see child.py). `outputs` are file
    names in the iteration directory that the checker reads; "stdout"
    stands for the process's standard output.
    """

    name: str
    kind: str
    argv: tuple[str, ...]
    outputs: tuple[str, ...]


@dataclass(frozen=True)
class Workload:
    name: str
    scale: str
    config: str | None  # config text, or None for the built-in defaults
    steps: tuple[Step, ...]
    # Integrator path-steps of one iteration, for path_steps_per_s.
    path_steps: int
    # Sizes the checker and the probes need.
    paths: int = 1
    t_end: float = 500.0
    stride: int = 1


def _cli(name: str, argv: list[str], outputs: tuple[str, ...]) -> Step:
    return Step(name, "cli", tuple(argv), outputs)


def build(name: str, scale: str, seed: int) -> Workload:
    """The workload `name` at `scale`, with its inputs made from `seed`.

    "{config}" in an argv is replaced by the path of the workload's
    config file when the step runs.
    """
    if scale not in SCALES:
        raise ValueError(f"unknown scale {scale!r}")
    smoke = scale == "smoke"
    s = str(seed)
    if name == "ensemble-summary":
        # The CLI default run: no config file, default --threads. The
        # smoke scale needs a config only to shorten the horizon.
        t_end = 5.0 if smoke else 500.0
        argv = ["ensemble", "--out", "summary.csv", "--seed", s]
        if smoke:
            argv += ["--config", "{config}"]
        return Workload(
            name=name,
            scale=scale,
            config="t_end = 5\n" if smoke else None,
            steps=(_cli("ensemble", argv, ("summary.csv",)),),
            path_steps=100 * int(round(t_end / 0.01)),
            paths=100,
            t_end=t_end,
        )
    if name == "ensemble-wide":
        paths, t_end, stride = (20, 10.0, 100) if smoke else (500, 200.0, 500)
        argv = ["{config}", str(paths), repr(t_end), str(stride), s, "summary.npy"]
        return Workload(
            name=name,
            scale=scale,
            config=OUTBREAK_CONFIG,
            steps=(Step("ensemble_wide", "wide", tuple(argv), ("summary.npy",)),),
            path_steps=paths * int(round(t_end / 0.01)),
            paths=paths,
            t_end=t_end,
            stride=stride,
        )
    if name == "herd-study":
        # Sensitivity integrates each LHS row over its own fixed grid
        # (t_end 500, dt 0.1), whatever the config's horizon.
        samples = 16 if smoke else 100
        t_end = 20.0 if smoke else 500.0
        cfg = ["--config", "{config}"]
        steps = (
            _cli("r0", ["r0"] + cfg, ("stdout",)),
            _cli("equilibrium", ["equilibrium"] + cfg, ("stdout",)),
            _cli(
                "simulate_ode",
                ["simulate", "--mode", "ode", "--out", "ode.csv", "--svg", "ode.svg"]
                + cfg,
                ("ode.csv", "ode.svg"),
            ),
            _cli(
                "simulate_sde",
                ["simulate", "--mode", "sde", "--out", "sde.csv", "--svg", "sde.svg",
                 "--seed", s] + cfg,
                ("sde.csv", "sde.svg"),
            ),
            _cli(
                "sensitivity_peak",
                ["sensitivity", "--metric", "peak", "--samples", str(samples),
                 "--seed", s, "--out", "prcc.csv", "--svg", "prcc.svg"] + cfg,
                ("prcc.csv", "prcc.svg"),
            ),
        )
        n_steps = int(round(t_end / 0.01))
        return Workload(
            name=name,
            scale=scale,
            config=OUTBREAK_CONFIG + f"t_end = {t_end!r}\n" if smoke else OUTBREAK_CONFIG,
            steps=steps,
            path_steps=2 * n_steps + samples * 5000,
            t_end=t_end,
        )
    raise ValueError(f"unknown workload {name!r}")


NAMES = ("ensemble-summary", "ensemble-wide", "herd-study")
