"""Layer probes, run in their own child process during a traced run.

The probes time public herdflu functions on a workload's inputs, outside
the workload's span tree (run id "probe.<workload>"):

- the engine drain: every recorded slab of `iter_path_states`, with the
  thread count the workload's own call uses;
- for ensembles, `run_ensemble` on the same inputs right after the
  drain, so that the reduction estimate (run_ensemble minus drain)
  compares two timings taken back to back in one process;
- the noise: `wiener_increments` for every path over the full grid;
- micro timings of the R0 routes, `solve_endemic` and `load_config`.

"fills" are other workloads at smoke scale, traced in this process, so
a traced run can report the metrics of layers its workload never
reaches (see run.layer_metrics).
"""

from __future__ import annotations

import json
import os
import statistics
import timeit
from dataclasses import replace

import herdflu
import herdflu.cli

import workloads
from child import install_cli_tracing, run_step
from tracer import Tracer


def cli_default_threads() -> int:
    """The --threads value `herdflu ensemble` resolves to when not given."""
    return herdflu.cli._build_parser().parse_args(["ensemble", "--out", "-"]).threads


def _engine_inputs(wl, seed: int, config: str | None):
    rc = herdflu.load_config(config)
    sim = replace(rc.sim, t_end=wl.t_end, record_stride=wl.stride)
    streams = [herdflu.NoiseStream(seed, i) for i in range(wl.paths)]
    # Only the CLI ensemble passes a thread count; the library and the
    # single-path integrator run on one thread.
    threads = cli_default_threads() if wl.name == "ensemble-summary" else 1
    return rc, sim, streams, threads


def engine_probes(tracer: Tracer, wl, seed: int, config: str | None) -> None:
    rc, sim, streams, threads = _engine_inputs(wl, seed, config)
    path_steps = len(streams) * sim.n_steps()
    with tracer.span("probe.engine_drain"):
        for _ in herdflu.iter_path_states(
            rc.params, rc.init, sim, noise=rc.noise, streams=streams, threads=threads
        ):
            pass
    tracer.count("probe.engine_path_steps", path_steps)
    tracer.count("probe.engine_threads", threads)
    if len(streams) > 1:
        with tracer.span("probe.run_ensemble"):
            summary = herdflu.run_ensemble(
                rc.params, rc.noise, rc.init, sim, len(streams), seed, threads=threads
            )
        tracer.count("probe.rows", len(summary.times))
        tracer.count("probe.paths", len(streams))
    with tracer.span("probe.noise"):
        for st in streams:
            herdflu.wiener_increments(st, sim.n_steps(), sim.dt)
    tracer.count("probe.noise_path_steps", path_steps)


def _per_call(fn, number: int) -> float:
    """Median seconds per call over five batches of `number` calls."""
    return statistics.median(t / number for t in timeit.repeat(fn, number=number, repeat=5))


def micro_probes(config: str | None) -> dict[str, float]:
    rc = herdflu.load_config(config)
    p = rc.params
    return {
        "model.r0_closed_form_us": 1e6 * _per_call(lambda: herdflu.r0_closed_form(p), 2000),
        "model.r0_spectral_us": 1e6 * _per_call(lambda: herdflu.r0_spectral(p), 200),
        "equilibrium.solve_endemic_ms": 1e3 * _per_call(lambda: herdflu.solve_endemic(p), 10),
        "config.load_config_ms": 1e3 * _per_call(lambda: herdflu.load_config(config), 50),
    }


def main(spec_path: str, out_path: str) -> int:
    with open(spec_path, encoding="utf-8") as fh:
        spec = json.load(fh)
    tracer = Tracer("probe")
    install_cli_tracing(tracer)
    main_wl = workloads.build(spec["workload"], spec["scale"], spec["seed"])
    tracer.run_id = "probe." + main_wl.name
    engine_probes(tracer, main_wl, spec["seed"], spec["config"])
    micro = micro_probes(spec["config"])
    for fill in spec["fills"]:
        wl = workloads.build(fill["workload"], "smoke", spec["seed"])
        os.chdir(fill["dir"])
        tracer.run_id = wl.name
        for name, kind, argv in fill["steps"]:
            code = run_step(name, kind, argv, lambda: None, tracer)
            if code != 0:
                raise RuntimeError(f"fill step {name} exited {code}")
        tracer.run_id = "probe." + wl.name
        engine_probes(tracer, wl, spec["seed"], fill["config"])
    with open(out_path, "w", encoding="utf-8") as fh:
        json.dump({"micro": micro, "spans": tracer.spans, "counts": tracer.counts}, fh)
    return 0
