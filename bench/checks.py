"""Output checks, one per workload step.

Each check returns a list of problems; an empty list means the output
is correct. Files are parsed with herdflu's own readers. Seed-free
values are compared with references stored here, taken at the commit
that added the benchmark. Seed-dependent summaries are compared, on a
few early rows, with statistics the checker computes itself from the
paths `iter_path_states` regenerates.
"""

from __future__ import annotations

import math
import os
import xml.etree.ElementTree as ET

import numpy as np

import herdflu

REF_R0 = 3.1945192743764  # outbreak config, both routes
REF_DFE = {"S": 3000.0, "E": 0.0, "I_s": 0.0, "I_a": 0.0, "R": 0.0, "B": 0.0}
REF_ENDEMIC = {
    "S": 821.812, "E": 103.723, "I_s": 86.436, "I_a": 148.176, "R": 1605.24,
    "B": 1024.88, "lambda_star": 0.0265047, "n_star": 2765.39,
}
# `simulate --mode ode` under the outbreak config, rows at these times.
REF_ODE = {
    0.0: (2999.0, 1.0, 0.0, 0.0, 0.0, 0.0),
    10.0: (2997.6628826618216, 0.9148008964091859, 0.43858301268555683,
           0.5390983260566024, 0.3911788895063315, 1.7660569960571575),
    20.0: (2993.3706749071252, 2.400312847133378, 1.110176962856185,
           1.4322880205444468, 1.4815415943754073, 5.592155275762049),
    100.0: (717.499367199848, 291.0026588061851, 268.08434216133367,
            426.34196024525113, 1136.0191691134094, 2679.5124928717346),
    250.0: (868.6368224062088, 106.89325132432953, 87.0355027869112,
            146.14138599916373, 1562.8350661109955, 984.179561210377),
    500.0: (821.2863760429698, 103.82477375998083, 86.55075354753201,
            148.39064494128436, 1605.3269424501193, 1026.5436919425242),
}
PRCC_PARAMS = ("mu", "beta_s", "beta_a", "beta_b", "sigma", "nu", "gamma",
               "delta", "d", "omega_s", "omega_a", "epsilon")
# Early steps whose summary rows are recomputed from regenerated paths.
_EARLY_STEPS = 1000
STATS = ("mean", "std", "q025", "q50", "q975")


def grid(t_end: float, dt: float, stride: int) -> np.ndarray:
    """Recorded step indices: every stride-th and the last."""
    n = int(round(t_end / dt))
    ks = np.arange(0, n + 1, stride)
    return ks if ks[-1] == n else np.append(ks, n)


class Context:
    """Per-run inputs of the checks: the config and cached references."""

    def __init__(self, wl, seed: int, config: str | None):
        self.wl = wl
        self.seed = seed
        self.rc = herdflu.load_config(config)
        self.ks = grid(wl.t_end, self.rc.sim.dt, wl.stride)
        self._early = None

    def early_paths(self) -> dict[int, np.ndarray]:
        """{step: (paths, 6) states} at recorded steps <= _EARLY_STEPS."""
        if self._early is None:
            ks = [int(k) for k in self.ks[1:] if k <= _EARLY_STEPS]
            cfg = herdflu.SimConfig(t_end=ks[-1] * self.rc.sim.dt, dt=self.rc.sim.dt)
            streams = [herdflu.NoiseStream(self.seed, i) for i in range(self.wl.paths)]
            want, out = set(ks), {}
            it = herdflu.iter_path_states(
                self.rc.params, self.rc.init, cfg, noise=self.rc.noise, streams=streams
            )
            for k, (_, slab) in enumerate(it):
                if k in want:
                    out[k] = slab.copy()
            self._early = out
        return self._early


def _close(a, b, rtol=1e-9, atol=1e-9) -> bool:
    return bool(np.allclose(a, b, rtol=rtol, atol=atol))


def check_summary(s: dict[str, np.ndarray], ctx: Context) -> list[str]:
    """Invariants and early-row references of an ensemble summary."""
    bad = []
    dt = ctx.rc.sim.dt
    if len(s["times"]) != len(ctx.ks):
        return [f"{len(s['times'])} recorded times, grid has {len(ctx.ks)}"]
    if not _close(s["times"], ctx.ks * dt, rtol=1e-12, atol=0.0):
        bad.append("times differ from the grid")
    for name in STATS:
        a = s[name]
        if not np.all(np.isfinite(a)):
            bad.append(f"{name} has non-finite values")
        elif np.any(a < 0):
            bad.append(f"{name} has negative values")
    if not (np.all(s["q025"] <= s["q50"]) and np.all(s["q50"] <= s["q975"])):
        bad.append("quantiles out of order (q025 <= q50 <= q975)")
    init = ctx.rc.init.as_array()
    if not all(np.array_equal(s[n][0], init) for n in ("mean", "q025", "q50", "q975")):
        bad.append("row t=0 differs from the initial state")
    if np.any(s["std"][0] != 0):
        bad.append("row t=0 has nonzero std")
    if bad:
        return bad
    for k, slab in ctx.early_paths().items():
        row = int(np.searchsorted(ctx.ks, k))
        ref = {
            "mean": slab.mean(axis=0),
            "std": slab.std(axis=0),
            **dict(zip(("q025", "q50", "q975"), np.quantile(slab, (0.025, 0.5, 0.975), axis=0))),
        }
        for name in STATS:
            if not _close(s[name][row], ref[name], rtol=1e-6 if name == "std" else 1e-9):
                bad.append(f"{name} at step {k} differs from regenerated paths")
    return bad


def check_ensemble_csv(outdir: str, ctx: Context) -> list[str]:
    s = herdflu.read_ensemble_csv(os.path.join(outdir, "summary.csv"))
    bad = check_summary(s, ctx)
    if not bad and ctx.wl.scale == "full":
        # Baseline R0 = 0.047: every infected class dies out by t = 500.
        if np.any(s["q975"][-1, 1:4] >= 1.0):
            bad.append("infected classes did not die out by the horizon")
    return bad


def check_wide(outdir: str, ctx: Context) -> list[str]:
    arr = np.load(os.path.join(outdir, "summary.npy"), allow_pickle=False)
    if arr.ndim != 2 or arr.shape[1] != 31:
        return [f"summary array has shape {arr.shape}"]
    body, trailer = arr[:-1], arr[-1]
    s = {"times": body[:, 0]}
    for i, name in enumerate(STATS):
        s[name] = body[:, 1 + 6 * i: 7 + 6 * i]
    bad = check_summary(s, ctx)
    if trailer[1] != ctx.wl.paths:
        bad.append(f"n_paths {trailer[1]} != {ctx.wl.paths}")
    if trailer[0] != 0.0:
        bad.append(f"extinct_fraction {trailer[0]} != 0 under the outbreak config")
    return bad


def _keyed(text: str) -> dict[str, str]:
    out = {}
    for line in text.splitlines():
        for tok in line.replace(":", " ").split():
            if "=" in tok:
                k, _, v = tok.partition("=")
                out[k] = v
    return out


def check_r0(stdout: str) -> list[str]:
    kv = _keyed(stdout)
    try:
        closed, spectral = float(kv["closed_form"]), float(kv["spectral"])
        diff = float(kv["difference"])
    except (KeyError, ValueError) as exc:
        return [f"r0 output unparsable: {exc!r}"]
    bad = []
    for name, v in (("closed_form", closed), ("spectral", spectral)):
        if abs(v - REF_R0) > 1e-6:
            bad.append(f"{name}={v} != reference {REF_R0:.6f}")
    if not diff <= 1e-9:
        bad.append(f"closed form and spectral differ by {diff}")
    return bad


def check_equilibrium(stdout: str) -> list[str]:
    lines = {ln.split(":", 1)[0]: ln for ln in stdout.splitlines() if ":" in ln}
    try:
        dfe = _keyed(lines["dfe"])
        end = _keyed(lines["endemic"])
        kv = _keyed(stdout)
        got = {k: float(end[k]) for k in ("S", "E", "I_s", "I_a", "R", "B")}
        got.update(lambda_star=float(kv["lambda_star"]), n_star=float(kv["n_star"]))
        residual = float(kv["residual"])
        got_dfe = {k: float(dfe[k]) for k in REF_DFE}
    except (KeyError, ValueError) as exc:
        return [f"equilibrium output unparsable: {exc!r}"]
    bad = [f"dfe {k}={got_dfe[k]}" for k in REF_DFE if got_dfe[k] != REF_DFE[k]]
    bad += [
        f"endemic {k}={got[k]} != reference {REF_ENDEMIC[k]}"
        for k in REF_ENDEMIC if not math.isclose(got[k], REF_ENDEMIC[k], rel_tol=1e-5)
    ]
    if not residual < 1e-8:
        bad.append(f"endemic residual {residual} is not small")
    return bad


def _svg(path: str, tag: str, count: int, points: int | None = None) -> list[str]:
    try:
        root = ET.parse(path).getroot()
    except ET.ParseError as exc:
        return [f"{os.path.basename(path)} is not XML: {exc}"]
    if not root.tag.endswith("svg"):
        return [f"{os.path.basename(path)} root is {root.tag}"]
    found = [el for el in root.iter() if el.tag.endswith(tag)]
    if len(found) != count:
        return [f"{os.path.basename(path)} has {len(found)} <{tag}>, want {count}"]
    if points is not None and any(len(el.get("points", "").split()) != points for el in found):
        return [f"{os.path.basename(path)} polyline point count != {points}"]
    return []


def check_trajectory(outdir: str, stem: str, ctx: Context, stochastic: bool) -> list[str]:
    try:
        traj = herdflu.read_trajectory_csv(os.path.join(outdir, stem + ".csv"))
    except (ValueError, IndexError) as exc:  # Trajectory rejects non-finite/negative
        return [f"{stem}.csv: {exc}"]
    n_rows = len(ctx.ks)
    if len(traj) != n_rows:
        return [f"{stem}.csv has {len(traj)} rows, grid has {n_rows}"]
    bad = []
    dt = ctx.rc.sim.dt
    if not _close(traj.times, ctx.ks * dt, rtol=1e-12, atol=0.0):
        bad.append(f"{stem}.csv times differ from the grid")
    if stochastic:
        for k, slab in ctx.early_paths().items():
            if not _close(traj.states[k], slab[0], rtol=1e-12, atol=0.0):
                bad.append(f"{stem}.csv row {k} differs from the regenerated path")
                break
    else:
        for t, ref in REF_ODE.items():
            k = int(round(t / dt))
            if k < n_rows and not _close(traj.states[k], ref):
                bad.append(f"{stem}.csv at t={t} differs from the reference")
    return bad + _svg(os.path.join(outdir, stem + ".svg"), "polyline", 6, n_rows)


def check_sensitivity(outdir: str, ctx: Context) -> list[str]:
    rows = herdflu.read_sensitivity_csv(os.path.join(outdir, "prcc.csv"))
    names = tuple(r[0] for r in rows)
    if names != PRCC_PARAMS:
        return [f"prcc.csv parameters {names}"]
    bad = []
    for name, r, p, sig in rows:
        if not (math.isfinite(r) and -1.0 <= r <= 1.0 and 0.0 <= p <= 1.0):
            bad.append(f"{name}: prcc={r} p={p} out of range")
        elif sig != (p < 0.05):
            bad.append(f"{name}: significant={sig} but p={p}")
    by = {r[0]: r for r in rows}
    if not bad and ctx.wl.scale == "full" and not (by["beta_a"][1] > 0 and by["beta_a"][3]):
        bad.append("beta_a does not raise the peak significantly")
    return bad + _svg(os.path.join(outdir, "prcc.svg"), "rect", len(PRCC_PARAMS))


def check_step(step: str, outdir: str, stdout: str, ctx: Context) -> list[str]:
    """Problems with the outputs of one step; any exception is one."""
    try:
        if step == "ensemble":
            return check_ensemble_csv(outdir, ctx)
        if step == "ensemble_wide":
            return check_wide(outdir, ctx)
        if step == "r0":
            return check_r0(stdout)
        if step == "equilibrium":
            return check_equilibrium(stdout)
        if step == "simulate_ode":
            return check_trajectory(outdir, "ode", ctx, stochastic=False)
        if step == "simulate_sde":
            return check_trajectory(outdir, "sde", ctx, stochastic=True)
        if step == "sensitivity_peak":
            return check_sensitivity(outdir, ctx)
    except Exception as exc:  # a malformed output must count, not crash the run
        return [f"{step}: {type(exc).__name__}: {exc}"]
    return [f"no check for step {step!r}"]
