"""herdflu benchmark.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
                         [--scale full|smoke]

Runs one workload of BENCHMARK.json closed loop, in fresh child
processes, one at a time, and checks every output. The last line of
standard output is one JSON object: {"correct", "attempted", "failed",
"metrics"}. With --trace 0 the metrics are the end-to-end ones, with
--trace 1 the per-layer ones; the lines before it print every metric
with its unit, median, quartiles and sample count, and the machine.
A full record of the run, spans included, goes to
.bench_run/results/ under the checkout.

End-to-end metrics, per iteration (one pass over the workload's steps),
reported as the median over a run's iterations:

    wall_s            launch to exit, summed over the iteration's processes
    setup_s           median per-process set-up (interpreter start to the
                      end of `import herdflu` + `load_config`) times the
                      processes per iteration; samples come from every
                      process, plus set-up-only probes
    path_steps_per_s  integrator path-steps / (wall_s - set-up); on
                      herd-study the ODE, SDE and sensitivity RK4 steps
    peak_rss_mb       largest peak RSS among the iteration's processes
    failed_frac       printed; in the JSON line it is failed / attempted

A traced run (--trace 1) follows a fixed plan, whatever --seconds
says: import probes, one untraced and one traced iteration, then the
layer probes (probe.py).

The program is run from the checkout's own src/ directory. Without it
the benchmark prints no result and exits 2.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path

import workloads
from tracer import self_times

# checks and probe import herdflu, so they are imported only after
# main() has put the checkout's src/ first on sys.path.

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
STATE = ROOT / ".bench_run"
CHILD = str(BENCH / "child.py")

# A benchmark run must end within 180 s; a child still running this
# long after the start is killed and counted as failed.
HARD_LIMIT_S = 165.0
# Extra processes per run that stop after set-up, so setup_s is a
# median over several set-ups even when one iteration fills the run.
SETUP_PROBES = {"full": 2, "smoke": 1}
IMPORT_PROBES = {"full": 3, "smoke": 1}


def fail(msg: str) -> None:
    print(f"bench: {msg}", file=sys.stderr)
    sys.exit(2)


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(SRC), str(BENCH)])
    return env


# --------------------------------------------------------------------------
# Processes


def launch(argv: list[str], cwd: Path, tag: str, deadline: float) -> dict:
    """Run one child to completion; wall and CPU time and exit status."""
    out_path, err_path = cwd / f"{tag}.out", cwd / f"{tag}.err"
    timeout = max(1.0, deadline - time.monotonic())
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        t0 = time.monotonic()
        proc = subprocess.Popen(argv, cwd=cwd, stdout=out, stderr=err, env=child_env())
    timer = threading.Timer(timeout, proc.kill)
    timer.start()
    try:
        _, status, usage = os.wait4(proc.pid, 0)
    except BaseException:
        proc.kill()
        proc.wait()
        raise
    finally:
        timer.cancel()
    t1 = time.monotonic()
    proc.returncode = code = os.waitstatus_to_exitcode(status)
    return {
        "tag": tag,
        "launch": t0,
        "wall": t1 - t0,
        "cpu": usage.ru_utime + usage.ru_stime,
        "code": code,
        "timed_out": code < 0 and t1 - t0 >= timeout,
        "stdout": out_path,
        "stderr": err_path,
    }


def write_config(wl, directory: Path) -> str | None:
    """The workload's config file in `directory`, or None for defaults."""
    if wl.config is None:
        return None
    path = directory / "workload.cfg"
    path.write_text(wl.config, encoding="utf-8")
    return str(path)


def step_args(step, config: str | None) -> list[str]:
    return [a.replace("{config}", config or "") for a in step.argv]


def step_argv(mode: str, step, config: str | None, outdir: Path, run_id: str | None) -> list[str]:
    trace = str(outdir / f"{step.name}.spans.json") if run_id else "-"
    return [sys.executable, CHILD, mode, str(outdir / f"{step.name}.mark"), trace,
            run_id or "-", step.name, step.kind, *step_args(step, config)]


def read_setup(rec: dict, mark: Path) -> None:
    """Set-up seconds and peak RSS as the child recorded them (child.py)."""
    try:
        setup, hwm = mark.read_text().split("\n")[:2]
        rec["setup"] = float(setup) - rec["launch"]
        rec["rss_mb"] = int(hwm) / 1024.0
    except (OSError, ValueError):
        rec["setup"] = rec["rss_mb"] = None


# --------------------------------------------------------------------------
# Iterations and checks


class Run:
    """One benchmark invocation: its workload, directories and records."""

    def __init__(self, wl, seed: int, rundir: Path, deadline: float):
        import checks

        self.wl, self.seed, self.rundir, self.deadline = wl, seed, rundir, deadline
        self.config = write_config(wl, rundir)
        self.ctx = checks.Context(wl, seed, self.config)
        self.ops: list[dict] = []  # every process, with its failures
        self.verified: dict[str, str] = {}  # output key -> digest that passed
        self.source = source_digest()[:16]

    def setup_probe(self, idx: int) -> dict:
        d = self.rundir / f"setup{idx}"
        d.mkdir()
        step = self.wl.steps[0]
        rec = launch(step_argv("setup", step, self.config, d, None), d, step.name, self.deadline)
        read_setup(rec, d / f"{step.name}.mark")
        rec["problems"] = [] if rec["code"] == 0 and rec["setup"] is not None else [
            f"set-up probe exited {rec['code']}"]
        self.ops.append(rec)
        shutil.rmtree(d)
        return rec

    def iteration(self, idx: int, run_id: str | None = None) -> dict:
        """All steps of the workload, each in a fresh process, then checks."""
        outdir = self.rundir / f"it{idx}"
        outdir.mkdir()
        procs = []
        for step in self.wl.steps:
            argv = step_argv("run", step, self.config, outdir, run_id)
            rec = launch(argv, outdir, step.name, self.deadline)
            read_setup(rec, outdir / f"{step.name}.mark")
            rec["step"] = step.name
            if rec["timed_out"]:
                rec["problems"] = ["timed out"]
            elif rec["code"] != 0:
                err = rec["stderr"].read_text(errors="replace").strip().splitlines()
                rec["problems"] = [f"exit {rec['code']}: {err[-1] if err else ''}"]
            elif rec["setup"] is None:
                rec["problems"] = ["no set-up mark"]
            else:
                rec["problems"] = self.verify(
                    step, outdir, rec["stdout"].read_text(errors="replace"))
            if run_id:
                rec["spans_file"] = outdir / f"{step.name}.spans.json"
            procs.append(rec)
            self.ops.append(rec)
        ok = all(not p["problems"] for p in procs)
        it = {
            "ok": ok,
            "wall": sum(p["wall"] for p in procs),
            "setup": sum(p["setup"] or 0.0 for p in procs),
            "rss_mb": max(p["rss_mb"] or 0.0 for p in procs),
            "procs": procs,
        }
        if run_id:
            it["traces"] = [
                json.loads(p["spans_file"].read_text()) for p in procs if p["spans_file"].exists()
            ]
        shutil.rmtree(outdir)
        return it

    def verify(self, step, outdir: Path, stdout: str) -> list[str]:
        """Check one step's outputs; they must also be byte-identical
        across every run of this seed. Bytes equal to an output that
        already passed the checks in this run pass without a re-check."""
        import checks

        h = hashlib.sha256()
        for name in step.outputs:
            h.update((outdir / (f"{step.name}.out" if name == "stdout" else name)).read_bytes())
        digest = h.hexdigest()
        key = f"{self.wl.name}-{self.wl.scale}-{self.seed}-{step.name}-{self.source}"
        differ = [f"{step.name}: output bytes differ from an earlier run with this seed"]
        if key in self.verified:
            return [] if digest == self.verified[key] else differ
        problems = checks.check_step(step.name, str(outdir), stdout, self.ctx)
        if problems:
            return problems
        store = STATE / "digests" / f"{key}.txt"
        if store.exists():
            if store.read_text().strip() != digest:
                return differ
        else:
            store.parent.mkdir(parents=True, exist_ok=True)
            tmp = store.with_suffix(f".{os.getpid()}")
            tmp.write_text(digest)
            os.replace(tmp, store)
        self.verified[key] = digest
        return []


# --------------------------------------------------------------------------
# Statistics


def summary(values: list[float]) -> dict:
    vals = sorted(values)
    if not vals:
        return {"median": None, "q1": None, "q3": None, "n": 0}
    if len(vals) == 1:
        q1 = q3 = vals[0]
    else:
        q1, _, q3 = statistics.quantiles(vals, n=4, method="inclusive")
    return {"median": statistics.median(vals), "q1": q1, "q3": q3, "n": len(vals)}


def end_to_end(run: Run, iterations: list[dict], setups: list[float]) -> dict:
    good = [it for it in iterations if it["ok"]]
    n_proc = len(run.wl.steps)
    per_proc = setups + [p["setup"] for it in good for p in it["procs"]]
    setup = summary(per_proc)
    for k in ("median", "q1", "q3"):
        setup[k] = None if setup[k] is None else setup[k] * n_proc
    return {
        "wall_s": summary([it["wall"] for it in good]),
        "setup_s": setup,
        "path_steps_per_s": summary(
            [run.wl.path_steps / (it["wall"] - it["setup"]) for it in good]
        ),
        "peak_rss_mb": summary([it["rss_mb"] for it in good]),
    }


# --------------------------------------------------------------------------
# Per-layer metrics


def parse_importtime(text: str) -> dict[str, float]:
    """cli.import_s and cli.import_scipy_s from `-X importtime` output.

    Each is the summed cumulative time of the outermost entries that
    match (herdflu.*; scipy.stats.* and scipy.special.*), so nested
    imports are not counted twice.
    """
    rows = []
    for line in text.splitlines():
        if not line.startswith("import time:") or "|" not in line:
            continue
        parts = line[len("import time:"):].split("|")
        try:
            cum = int(parts[1])
        except ValueError:
            continue  # the header line
        raw = parts[2].rstrip()
        name = raw.strip()
        rows.append((len(raw) - len(name) - 1, cum, name))

    def total(match) -> float:
        # importtime lists children before their parent, deeper by one.
        s = 0
        for i, (depth, cum, name) in enumerate(rows):
            if not match(name):
                continue
            d, covered = depth, False
            for depth2, _, name2 in rows[i + 1:]:
                if depth2 < d:
                    d = depth2
                    if match(name2):
                        covered = True
                        break
                if d == 0:
                    break
            if not covered:
                s += cum
        return s / 1e6

    herd = lambda n: n == "herdflu" or n.startswith("herdflu.")  # noqa: E731
    sci = lambda n: n.split(".")[:2] in (["scipy", "stats"], ["scipy", "special"])  # noqa: E731
    return {"cli.import_s": total(herd), "cli.import_scipy_s": total(sci)}


def import_probe(rundir: Path) -> dict[str, float]:
    res = subprocess.run(
        [sys.executable, "-X", "importtime", "-c", "import herdflu.cli"],
        cwd=rundir, env=child_env(), capture_output=True, text=True, timeout=60,
    )
    if res.returncode != 0:
        raise RuntimeError(f"import probe failed: {res.stderr.strip()[-300:]}")
    return parse_importtime(res.stderr)


def _span_total(spans: list[dict], name: str) -> float:
    return sum(s["end"] - s["start"] for s in spans if s["name"] == name)


CLI_STEPS = ("ensemble", "r0", "equilibrium", "simulate_ode", "simulate_sde", "sensitivity_peak")


def layer_metrics(spans: list[dict], counts: dict, probe_spans: list[dict], probe_counts: dict) -> dict:
    """Every per-layer metric the spans of one workload support.

    Values derived by subtracting two spans are estimates; their
    names are listed in ESTIMATES.
    """
    tot = lambda name: _span_total(spans, name)  # noqa: E731
    m = {}
    for cmd in CLI_STEPS:
        if any(s["name"] == f"cli.{cmd}" for s in spans):
            m[f"cli.{cmd}_s"] = tot(f"cli.{cmd}")
    c, pc = counts, probe_counts
    ptot = lambda name: _span_total(probe_spans, name)  # noqa: E731
    if c.get("ensemble.rows"):
        m["ensemble.run_ensemble_s"] = tot("ensemble.run_ensemble")
        m["ensemble.rows_recorded"] = c["ensemble.rows"]
    if pc.get("probe.rows"):
        m["ensemble.reduce_ns_per_row_path"] = 1e9 * (
            ptot("probe.run_ensemble") - ptot("probe.engine_drain")) / (pc["probe.rows"] * pc["probe.paths"])
    if c.get("output.ensemble_csv_bytes"):
        m["output.ensemble_csv_s"] = tot("output.ensemble_csv")
        m["output.ensemble_csv_bytes"] = c["output.ensemble_csv_bytes"]
        m["output.ensemble_csv_ns_per_byte"] = 1e9 * m["output.ensemble_csv_s"] / c["output.ensemble_csv_bytes"]
    if c.get("output.trajectory_bytes"):
        m["output.trajectory_csv_s"] = tot("output.trajectory_csv")
        m["output.trajectory_svg_s"] = tot("output.trajectory_svg")
        m["output.trajectory_bytes"] = c["output.trajectory_bytes"]
    if c.get("integrate.sde_steps"):
        m["integrate.sde_1path_us_per_step"] = 1e6 * tot("integrate.integrate_sde") / c["integrate.sde_steps"]
    if c.get("integrate.rk4_steps"):
        m["integrate.rk4_us_per_step"] = 1e6 * tot("integrate.integrate_ode") / c["integrate.rk4_steps"]
    if c.get("sensitivity.samples"):
        sweep, lhs, prc = tot("sensitivity.peak_sweep"), tot("sensitivity.lhs_sample"), tot("sensitivity.prcc")
        m["sensitivity.peak_sweep_s"] = sweep
        m["sensitivity.model_evals"] = c.get("sensitivity.model_evals", 0)
        m["sensitivity.eval_ms_per_sample"] = 1e3 * (sweep - lhs - prc) / c["sensitivity.samples"]
        m["sensitivity.lhs_sample_ms"] = 1e3 * lhs
        m["sensitivity.prcc_ms"] = 1e3 * prc
    if pc.get("probe.engine_path_steps"):
        m["integrate.engine_ns_per_path_step"] = (
            1e9 * ptot("probe.engine_drain") / pc["probe.engine_path_steps"])
        m["integrate.noise_ns_per_path_step"] = 1e9 * ptot("probe.noise") / pc["probe.noise_path_steps"]
        m["integrate.path_steps"] = pc["probe.engine_path_steps"]
    return m


ESTIMATES = ("ensemble.reduce_ns_per_row_path", "sensitivity.eval_ms_per_sample")


def self_time_table(traces: list[dict]) -> dict[str, dict]:
    """Per span name: calls, total and self seconds, over all processes."""
    out: dict[str, dict] = {}
    for tr in traces:
        st = self_times(tr["spans"])
        for s in tr["spans"]:
            row = out.setdefault(s["name"], {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            row["calls"] += 1
            row["total_s"] += s["end"] - s["start"]
            row["self_s"] += st[s["id"]]
    return out


# --------------------------------------------------------------------------
# Machine record


def source_digest() -> str:
    h = hashlib.sha256()
    for f in sorted((SRC / "herdflu").glob("*.py")):
        h.update(f.name.encode() + b"\0" + f.read_bytes())
    return h.hexdigest()


def _cache_sizes() -> dict[str, str]:
    out = {}
    base = Path("/sys/devices/system/cpu/cpu0/cache")
    for idx in sorted(base.glob("index*")):
        try:
            level = (idx / "level").read_text().strip()
            kind = (idx / "type").read_text().strip()
            size = (idx / "size").read_text().strip()
        except OSError:
            continue
        if kind in ("Unified", "Data"):
            out[f"L{level}"] = size
    return out


def machine() -> dict:
    import numpy
    import scipy

    import probe

    try:
        nproc = int(subprocess.run(["nproc"], capture_output=True, text=True).stdout)
    except (OSError, ValueError):
        nproc = None
    model = None
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                model = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    commit = None
    if (ROOT / ".git").exists():
        try:
            res = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                                 capture_output=True, text=True)
            commit = res.stdout.strip() or None
        except OSError:
            pass
    caches = _cache_sizes()
    return {
        "nproc": nproc,
        "os_cpu_count": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "cli_default_threads": probe.cli_default_threads(),
        "cpu_model": model,
        "l2": caches.get("L2"),
        "l3": caches.get("L3"),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "git_commit": commit,
        "src_sha256": source_digest(),
    }


# --------------------------------------------------------------------------
# Entry point


def declared_metrics() -> tuple[dict, dict]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return ({m["name"]: m["unit"] for m in spec["end_to_end"]},
            {m["name"]: m["unit"] for m in spec["per_layer"]})


def measure(run: Run, seconds: float) -> dict:
    """Set-up probes, then iterations for `seconds`: one at least, and
    no further one once its processes would end past the deadline."""
    setups = [r["setup"] for r in (run.setup_probe(i) for i in range(SETUP_PROBES[run.wl.scale]))
              if not r["problems"]]
    deadline = time.monotonic() + seconds
    iterations = [run.iteration(0)]
    while time.monotonic() + iterations[-1]["wall"] <= deadline:
        iterations.append(run.iteration(len(iterations)))
    return {"metrics": end_to_end(run, iterations, setups), "iterations": iterations}


def measure_traced(run: Run) -> dict:
    """Import probes, one plain and one traced iteration, then the layer
    probes; runs a fixed plan, whatever --seconds says."""
    scale = run.wl.scale
    imports = [import_probe(run.rundir) for _ in range(IMPORT_PROBES[scale])]
    plain = run.iteration(0)
    traced = run.iteration(1, run_id=run.wl.name)

    fills = []
    for name in workloads.NAMES:
        if name == run.wl.name:
            continue
        fwl = workloads.build(name, "smoke", run.seed)
        d = run.rundir / f"fill-{name}"
        d.mkdir()
        cfg = write_config(fwl, d)
        fills.append({
            "workload": name, "dir": str(d), "config": cfg,
            "steps": [[s.name, s.kind, step_args(s, cfg)] for s in fwl.steps],
            "wl": fwl,
        })
    spec = {"workload": run.wl.name, "scale": scale, "seed": run.seed, "config": run.config,
            "fills": [{k: v for k, v in f.items() if k != "wl"} for f in fills]}
    spec_path, out_path = run.rundir / "probe.json", run.rundir / "probe.out.json"
    spec_path.write_text(json.dumps(spec))
    rec = launch([sys.executable, CHILD, "probe", str(spec_path), str(out_path)],
                 run.rundir, "probe", run.deadline)
    rec["problems"] = [] if rec["code"] == 0 else [
        f"probe exited {rec['code']}: {rec['stderr'].read_text(errors='replace')[-400:]}"]
    run.ops.append(rec)
    if rec["problems"]:
        return {"metrics": {}, "source": {}, "self_times": {}, "spans": [],
                "iterations": [plain, traced]}
    probe = json.loads(out_path.read_text())

    import checks

    for f in fills:  # the fill runs' output files are checked like any other
        ctx = checks.Context(f["wl"], run.seed, f["config"])
        for step in f["wl"].steps:
            if "stdout" in step.outputs:
                continue  # printed into the probe's own stdout
            run.ops.append({"tag": f"fill:{f['workload']}:{step.name}",
                            "problems": checks.check_step(step.name, f["dir"], "", ctx)})

    spans_of = lambda rid: [s for s in probe["spans"] if s["run"] == rid]  # noqa: E731
    counts_of = lambda rid: probe["counts"].get(rid, {})  # noqa: E731
    main_spans = [s for tr in traced.get("traces", []) for s in tr["spans"]]
    main_counts: dict = {}
    for tr in traced.get("traces", []):
        for k, v in tr["counts"].get(run.wl.name, {}).items():
            main_counts[k] = main_counts.get(k, 0) + v
    pname = "probe." + run.wl.name
    metrics = layer_metrics(main_spans, main_counts, spans_of(pname), counts_of(pname))
    source = {k: "full" for k in metrics}
    for f in fills:
        n = f["workload"]
        extra = layer_metrics(spans_of(n), counts_of(n), spans_of("probe." + n), counts_of("probe." + n))
        for k, v in extra.items():
            if k not in metrics:
                metrics[k], source[k] = v, f"smoke:{n}"
    metrics.update(probe["micro"])
    for k in imports[0]:
        metrics[k] = statistics.median(d[k] for d in imports)
    metrics["trace.overhead_s"] = traced["wall"] - plain["wall"]
    for k in probe["micro"].keys() | imports[0].keys() | {"trace.overhead_s"}:
        source[k] = "full"
    return {
        "metrics": {k: summary([v]) for k, v in metrics.items()},
        "source": source,
        "iterations": [plain, traced],
        "self_times": self_time_table(traced.get("traces", [])),
        "spans": [traced.get("traces", []), probe["spans"]],
    }


def _fmt(v) -> str:
    return "-" if v is None else f"{v:.6g}"


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--scale", choices=("full", "smoke"), default="full")
    args = ap.parse_args(argv)
    start = time.monotonic()

    if not (SRC / "herdflu" / "__init__.py").is_file():
        fail(f"no herdflu sources under {SRC}; run from a full checkout")
    if not 0 <= args.seed < 2 ** 64:
        fail("--seed must lie in [0, 2**64)")
    sys.path.insert(0, str(SRC))
    import herdflu

    if Path(herdflu.__file__).resolve().parent != (SRC / "herdflu").resolve():
        fail(f"imported herdflu from {herdflu.__file__}, not from {SRC}")
    if args.workload not in workloads.NAMES:
        fail(f"unknown workload {args.workload!r}; choose from {', '.join(workloads.NAMES)}")
    e2e_units, layer_units = declared_metrics()

    wl = workloads.build(args.workload, args.scale, args.seed)
    STATE.mkdir(exist_ok=True)
    rundir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=STATE))
    try:
        run = Run(wl, args.seed, rundir, start + HARD_LIMIT_S)
        if args.trace:
            res = measure_traced(run)
            units = layer_units
        else:
            res = measure(run, args.seconds)
            units = e2e_units
    finally:
        shutil.rmtree(rundir, ignore_errors=True)

    attempted = len(run.ops)
    failures = [(op["tag"], p) for op in run.ops for p in op["problems"]]
    failed = sum(1 for op in run.ops if op["problems"])
    metrics = res["metrics"]
    missing = [k for k in units if metrics.get(k, {}).get("median") is None]
    for k in missing:
        failures.append(("metrics", f"{k} was not measured"))
    correct = failed == 0 and not missing
    mach = machine()

    print(f"herdflu benchmark: workload={wl.name} scale={wl.scale} seed={args.seed} "
          f"trace={args.trace}")
    print("machine: " + json.dumps(mach))
    print(f"{'metric':40s} {'unit':10s} {'median':>12s} {'q1':>12s} {'q3':>12s} {'n':>3s}")
    for k, unit in units.items():
        s = metrics.get(k, summary([]))
        note = ""
        if args.trace:
            note = f"  [{res['source'].get(k, '-')}" + (", estimate]" if k in ESTIMATES else "]")
        print(f"{k:40s} {unit:10s} {_fmt(s['median']):>12s} {_fmt(s['q1']):>12s} "
              f"{_fmt(s['q3']):>12s} {s['n']:3d}{note}")
    print(f"{'failed_frac':40s} {'1':10s} {failed / max(attempted, 1):12.6g}   "
          f"({failed} of {attempted} operations)")
    if args.trace:
        print("self time by span (traced iteration):")
        for name, row in sorted(res["self_times"].items(), key=lambda kv: -kv[1]["self_s"]):
            print(f"  {name:36s} calls={row['calls']:<6d} total={row['total_s']:.6g}s "
                  f"self={row['self_s']:.6g}s")
    for tag, problem in failures:
        print(f"FAILED {tag}: {problem}")

    record = {
        "workload": wl.name, "scale": wl.scale, "seed": args.seed, "trace": args.trace,
        "seconds": args.seconds, "machine": mach, "metrics": metrics,
        "attempted": attempted, "failed": failed, "failures": failures,
        "iterations": [
            {**{k: it[k] for k in ("ok", "wall", "setup", "rss_mb")},
             "procs": [{k: p[k] for k in ("tag", "wall", "cpu", "setup", "rss_mb", "problems")}
                       for p in it["procs"]]}
            for it in res["iterations"]
        ],
    }
    if args.trace:
        record.update(source=res.get("source"), self_times=res.get("self_times"),
                      spans=res.get("spans"))
    results = STATE / "results"
    results.mkdir(exist_ok=True)
    stamp = time.strftime("%Y%m%dT%H%M%S")
    (results / f"{wl.name}-{wl.scale}-seed{args.seed}-trace{args.trace}-{stamp}-{os.getpid()}.json"
     ).write_text(json.dumps(record, default=str))

    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": metrics[k]["median"], "unit": u}
                    for k, u in units.items() if k not in missing},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
