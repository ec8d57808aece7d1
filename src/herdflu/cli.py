"""Command-line front end.

Five subcommands tie the library into reproducible experiments:

    herdflu r0          [--config F]
    herdflu equilibrium [--config F]
    herdflu simulate    --mode ode|sde --out P [--config F] [--seed N] [--svg P]
    herdflu ensemble    --out P [--config F] [--paths N] [--seed N]
                        [--threads N] [--paths-out DIR]
    herdflu sensitivity --out P [--config F] [--ranges G] [--samples N]
                        [--seed N] [--metric r0|peak] [--svg P]

`--threads N` is validated (N >= 1) and has no effect: one process
steps every path.

Exit status is 0 on success, 1 on a usage error, 2 on a numeric or
validation failure; diagnostics go to stderr. All file outputs are
deterministic functions of the config and seed, so identical
invocations produce identical bytes.
"""

from __future__ import annotations

import argparse
import os
import sys
from contextlib import closing

from .config import RunConfig, load_config, parse_ranges
from .ensemble import iter_summary_blocks
# No command calls run_ensemble: `ensemble` streams its summary. The
# benchmark's tracing (bench/child.py) wraps this name.
from .ensemble import run_ensemble  # noqa: F401
from .equilibrium import solve_endemic
from .integrate import IntegrationError, NoiseStream, integrate_ode, integrate_sde
from .model import (
    COMPARTMENTS,
    disease_free_equilibrium,
    r0_closed_form,
    r0_herd,
    r0_spectral,
)
from .output import (
    TRAJECTORY_HEADER,
    write_csv_rows,
    write_ensemble_csv,
    write_prcc_svg,
    write_sensitivity_csv,
    write_trajectory_csv,
    write_trajectory_svg,
)
from .process import Child
from .sensitivity import sensitivity_of_peak_symptomatic, sensitivity_of_r0

# Per-path CSV emission opens at most this many files at once, well
# under common ulimits.
_PATH_GROUP = 128


class _Parser(argparse.ArgumentParser):
    """argparse exits 2 on usage errors; the contract here says 1."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _int(text: str) -> int:
    # argparse reports ArgumentTypeError through _Parser.error (exit 1).
    try:
        return int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None


def _positive_int(text: str) -> int:
    value = _int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def _seed(text: str) -> int:
    # The range of NoiseStream.master_seed and of the config key `seed`.
    value = _int(text)
    if not 0 <= value < 2 ** 64:
        raise argparse.ArgumentTypeError(f"must lie in [0, 2**64), got {value}")
    return value


def _state_line(label: str, values) -> str:
    parts = " ".join(f"{c}={v:.6g}" for c, v in zip(COMPARTMENTS, values))
    return f"{label}: {parts}"


def _cmd_r0(args, rc: RunConfig) -> int:
    closed = r0_closed_form(rc.params)
    spectral = r0_spectral(rc.params)
    print(f"closed_form={closed:.6f}")
    print(f"spectral={spectral:.6f}")
    print(f"difference={abs(closed - spectral):.3e}")
    print(f"herd_threshold={r0_herd(rc.params):.6f}")
    return 0


def _cmd_equilibrium(args, rc: RunConfig) -> int:
    dfe = disease_free_equilibrium(rc.params)
    print(_state_line("dfe", dfe.as_array()))
    eq = solve_endemic(rc.params)
    if eq is None:
        print("no admissible endemic root")
        return 0
    print(_state_line("endemic", eq.state.as_array()))
    print(f"lambda_star={eq.lambda_star:.6g}")
    print(f"n_star={eq.n_star:.6g}")
    print(f"residual={eq.residual_norm:.3e}")
    return 0


def _cmd_simulate(args, rc: RunConfig) -> int:
    seed = rc.seed if args.seed is None else args.seed
    if args.mode == "ode":
        traj = integrate_ode(rc.params, rc.init, rc.sim)
    else:
        stream = NoiseStream(seed, 0)
        traj = integrate_sde(rc.params, rc.noise, rc.init, rc.sim, stream)
    if not args.svg:
        write_trajectory_csv(traj, args.out)
        return 0
    # Both files are opened here first, so that a path that cannot be
    # written fails with open's own error before the fork, and the two
    # writers never share a file.
    for path in (args.out, args.svg):
        open(path, "w").close()
    if os.path.samefile(args.out, args.svg):
        raise ValueError("--out and --svg name the same file")
    # The SVG is written in a child while this process writes the CSV.
    child = Child(lambda: write_trajectory_svg(traj, args.svg), "SVG writer process")
    try:
        write_trajectory_csv(traj, args.out)
        child.join()
    finally:
        child.kill()
    return 0


def _path_csv_writer(out_dir: str, n_paths: int):
    """Create one CSV per path and return an `on_block` consumer that
    appends each engine block to them, `_PATH_GROUP` files at a time."""
    os.makedirs(out_dir, exist_ok=True)
    names = [os.path.join(out_dir, f"path_{i:04d}.csv") for i in range(n_paths)]
    for name in names:
        with open(name, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(TRAJECTORY_HEADER + "\n")

    def on_block(times, blk) -> None:
        for lo in range(0, n_paths, _PATH_GROUP):
            hi = min(lo + _PATH_GROUP, n_paths)
            handles = [
                open(name, "a", encoding="utf-8", newline="\n")
                for name in names[lo:hi]
            ]
            try:
                for j, fh in enumerate(handles, lo):
                    write_csv_rows(fh, times, blk[:, j])
            finally:
                for fh in handles:
                    fh.close()

    return on_block


def _cmd_ensemble(args, rc: RunConfig) -> int:
    n_paths = rc.n_paths if args.paths is None else args.paths
    seed = rc.seed if args.seed is None else args.seed
    on_block = None
    if args.paths_out:
        on_block = _path_csv_writer(args.paths_out, n_paths)
    # The engine runs while the writer formats the blocks it has reduced.
    blocks = iter_summary_blocks(
        rc.params, rc.noise, rc.init, rc.sim, n_paths, seed, on_block=on_block,
    )
    with closing(blocks):
        write_ensemble_csv(blocks, args.out)
    return 0


def _cmd_sensitivity(args, rc: RunConfig) -> int:
    seed = rc.seed if args.seed is None else args.seed
    ranges = None
    if args.ranges:
        with open(args.ranges, "r", encoding="utf-8") as fh:
            ranges = parse_ranges(fh.read())
    if args.metric == "r0":
        report = sensitivity_of_r0(ranges, n=args.samples, seed=seed, base=rc.params)
    else:
        report = sensitivity_of_peak_symptomatic(
            ranges, n=args.samples, seed=seed, base=rc.params
        )
    write_sensitivity_csv(report, args.out)
    if args.svg:
        write_prcc_svg(report, args.svg)
    return 0


def _build_parser() -> _Parser:
    parser = _Parser(prog="herdflu", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    def common(ps):
        ps.add_argument("--config", help="key = value config file (default: built-in)")

    ps = sub.add_parser(
        "r0", help="closed-form and spectral reproduction numbers, herd threshold"
    )
    common(ps)
    ps.set_defaults(func=_cmd_r0)

    ps = sub.add_parser("equilibrium", help="disease-free and endemic rest points")
    common(ps)
    ps.set_defaults(func=_cmd_equilibrium)

    ps = sub.add_parser("simulate", help="one deterministic or stochastic trajectory")
    common(ps)
    ps.add_argument("--mode", choices=("ode", "sde"), required=True)
    ps.add_argument("--out", required=True, help="trajectory CSV path")
    ps.add_argument("--seed", type=_seed, help="override config seed (sde only)")
    ps.add_argument("--svg", help="also write a time-series plot")
    ps.set_defaults(func=_cmd_simulate)

    ps = sub.add_parser("ensemble", help="seeded ensemble with per-time summaries")
    common(ps)
    ps.add_argument("--out", required=True, help="summary CSV path")
    ps.add_argument(
        "--paths", type=_positive_int, help="number of paths (default: config)"
    )
    ps.add_argument("--seed", type=_seed, help="override config master seed")
    ps.add_argument(
        "--threads", type=_positive_int, default=1,
        help="accepted and ignored (default 1): one process steps every "
        "path",
    )
    ps.add_argument("--paths-out", help="directory for individual path CSVs")
    ps.set_defaults(func=_cmd_ensemble)

    ps = sub.add_parser("sensitivity", help="LHS/PRCC global sensitivity report")
    common(ps)
    ps.add_argument("--out", required=True, help="PRCC report CSV path")
    ps.add_argument("--ranges", help="`key = low high` ranges file (default: ±50%%)")
    ps.add_argument("--samples", type=_positive_int, default=1000)
    ps.add_argument("--seed", type=_seed, help="override config seed")
    ps.add_argument(
        "--metric", choices=("r0", "peak"), default="r0",
        help="r0: reproduction number; peak: max symptomatic head count",
    )
    ps.add_argument("--svg", help="also write a PRCC bar chart")
    ps.set_defaults(func=_cmd_sensitivity)
    return parser


def run_cli(argv: list[str] | None = None) -> int:
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        rc = load_config(args.config)
        return args.func(args, rc)
    except (ValueError, IntegrationError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(run_cli())
