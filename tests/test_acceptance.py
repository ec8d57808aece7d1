"""End-to-end acceptance checks.

One test per headline guarantee, in a fixed order, each with its
tolerance and runtime budget stated in the assertions. Run with
`pytest -v tests/test_acceptance.py` to get one pass/fail line per
guarantee; each test also prints the measured numbers.
"""

import math
import time
from dataclasses import replace

import numpy as np
import pytest

from herdflu import (
    BASELINE_PARAMS,
    DEFAULT_NOISE,
    HerdState,
    NoiseIntensities,
    NoiseStream,
    SimConfig,
    default_init,
    integrate_ode,
    iter_path_blocks,
    iter_path_states,
    r0_closed_form,
    r0_spectral,
    run_ensemble,
    sensitivity_of_r0,
    solve_endemic,
    wiener_increments,
)
from herdflu import integrate
from herdflu.cli import run_cli
from test_model import random_params

ENDEMIC_PARAMS = replace(BASELINE_PARAMS, beta_a=0.46665)

# COMPARTMENTS order is (S, E, I_s, I_a, R, B).
I_S = 2


def test_c01_r0_routes_agree_on_random_parameters():
    """Closed form and next-generation spectral radius agree to 1e-10
    relative over 1000 random valid parameter sets, in under 1 s."""
    t0 = time.perf_counter()
    rng = np.random.default_rng(2026)
    worst = 0.0
    for _ in range(1000):
        p = random_params(rng)
        closed = r0_closed_form(p)
        spectral = r0_spectral(p)
        worst = max(worst, abs(closed - spectral) / abs(closed))
    elapsed = time.perf_counter() - t0
    print(f"c01: max relative gap {worst:.3e} over 1000 draws in {elapsed:.2f}s")
    assert worst < 1e-10
    assert elapsed < 1.0


def test_c02_reproduction_number_reference_values():
    """Baseline parameters give R0 = 0.047240 +/- 1e-6 and the
    beta_a = 0.46665 configuration gives R0 = 3.1945 +/- 1e-3, from
    both independent evaluators."""
    for evaluate in (r0_closed_form, r0_spectral):
        base = evaluate(BASELINE_PARAMS)
        hot = evaluate(ENDEMIC_PARAMS)
        print(f"c02: {evaluate.__name__} baseline {base:.9f} endemic {hot:.6f}")
        assert abs(base - 0.047240) < 1e-6
        assert abs(hot - 3.1945) < 1e-3


def test_c03_endemic_equilibrium_certificate():
    """For beta_a = 0.46665 the endemic solver returns a state whose
    drift max-norm is below 1e-8 with 0 < E** < Lambda/(sigma + mu);
    for baseline parameters it returns absent. Under 1 s."""
    t0 = time.perf_counter()
    eq = solve_endemic(ENDEMIC_PARAMS)
    assert eq is not None
    e_cap = ENDEMIC_PARAMS.lambda_recruit / (
        ENDEMIC_PARAMS.sigma_prog + ENDEMIC_PARAMS.mu
    )
    assert solve_endemic(BASELINE_PARAMS) is None
    elapsed = time.perf_counter() - t0
    print(
        f"c03: residual {eq.residual_norm:.3e}, E**={eq.state.e:.4f} "
        f"in (0, {e_cap:.4f}), baseline absent, in {elapsed:.2f}s"
    )
    assert eq.residual_norm < 1e-8
    assert 0.0 < eq.state.e < e_cap
    assert elapsed < 1.0


def test_c04_subcritical_run_settles_at_disease_free_state():
    """Baseline deterministic run from (2999,1,0,0,0,0) reaches
    E + I_s + I_a + B < 1e-3 with S within 1% of 3000 by t = 500,
    in under 1 s."""
    t0 = time.perf_counter()
    init = HerdState(2999.0, 1.0, 0.0, 0.0, 0.0, 0.0)
    traj = integrate_ode(BASELINE_PARAMS, init, SimConfig(t_end=500.0, dt=0.05))
    s, e, i_s, i_a, _, b = traj.states[-1]
    infected_load = e + i_s + i_a + b
    elapsed = time.perf_counter() - t0
    print(f"c04: E+I_s+I_a+B = {infected_load:.3e}, S = {s:.4f} in {elapsed:.2f}s")
    assert infected_load < 1e-3
    assert abs(s - 3000.0) < 30.0
    assert elapsed < 1.0


def test_c05_euler_maruyama_strong_order_half():
    """Strong error against the exact geometric-Brownian reduction of
    the reservoir equation decays with fitted slope 0.5 +/- 0.15 over
    dt in {2^-4 .. 2^-10}, 200 paths, in under 30 s."""
    t0 = time.perf_counter()
    p = replace(BASELINE_PARAMS, lambda_recruit=0.0, eps_decay=1.0)
    noise = NoiseIntensities(0.0, 0.0, 0.0, 0.0, 0.5)
    init = HerdState(0.0, 0.0, 0.0, 0.0, 0.0, 1.0)
    n_paths = 200
    dts = [2.0**-k for k in range(4, 11)]
    errs = []
    for dt in dts:
        cfg = SimConfig(t_end=1.0, dt=dt)
        streams = [NoiseStream(2024, i) for i in range(n_paths)]
        final = None
        for _, slab in iter_path_states(p, init, cfg, noise=noise, streams=streams):
            final = slab
        w_t = np.array(
            [wiener_increments(s, cfg.n_steps(), dt)[:, 4].sum() for s in streams]
        )
        exact = np.exp((-1.0 - 0.5**2 / 2.0) * 1.0 + 0.5 * w_t)
        errs.append(float(np.mean(np.abs(final[:, 5] - exact))))
    slope = float(np.polyfit(np.log2(dts), np.log2(errs), 1)[0])
    elapsed = time.perf_counter() - t0
    print(f"c05: strong-error slope {slope:.3f} in {elapsed:.2f}s")
    assert abs(slope - 0.5) < 0.15
    assert elapsed < 30.0


def test_c06_positivity_and_bounded_mean_population():
    """Every recorded state of a 500-path baseline ensemble is >= 0 and
    the ensemble mean of N = S+E+I_s+I_a+R never exceeds
    max(N(0), Lambda/mu) + 3 SE at any time. Under 60 s."""
    t0 = time.perf_counter()
    p = BASELINE_PARAMS
    init = default_init(p)
    cfg = SimConfig(t_end=500.0, dt=0.01)
    streams = [NoiseStream(0, i) for i in range(500)]
    n0 = init.s + init.e + init.i_s + init.i_a + init.r
    cap = max(n0, p.lambda_recruit / p.mu)
    min_state = math.inf
    worst_excess = -math.inf
    it = iter_path_blocks(p, init, cfg, noise=DEFAULT_NOISE, streams=streams)
    for _, blk in it:
        for slab in blk:
            min_state = min(min_state, float(slab.min()))
            n = slab[:, :5].sum(axis=1)
            se = float(n.std()) / math.sqrt(len(streams))
            worst_excess = max(worst_excess, float(n.mean()) - (cap + 3.0 * se))
    elapsed = time.perf_counter() - t0
    print(
        f"c06: min state {min_state:.3g}, worst mean-N excess "
        f"{worst_excess:.3g} in {elapsed:.1f}s"
    )
    assert min_state >= 0.0
    assert worst_excess <= 0.0
    assert elapsed < 60.0


def test_c07_prcc_signs_significance_and_ranking():
    """Default LHS/PRCC of R0 (n = 1000, +/-50% ranges): positive for
    beta_a, beta_s, sigma; negative for gamma, delta, nu; all six
    significant at p < 0.05; |PRCC(beta_a)| > |PRCC(beta_s)|. Under
    10 s."""
    t0 = time.perf_counter()
    rep = sensitivity_of_r0(n=1000, seed=0)
    elapsed = time.perf_counter() - t0
    values = {name: rep.by_name(name) for name in
              ("beta_a", "beta_s", "sigma", "gamma", "delta", "nu")}
    summary = " ".join(f"{k}={v.prcc:+.3f}" for k, v in values.items())
    print(f"c07: {summary} in {elapsed:.2f}s")
    for name in ("beta_a", "beta_s", "sigma"):
        assert values[name].prcc > 0.0, name
    for name in ("gamma", "delta", "nu"):
        assert values[name].prcc < 0.0, name
    for name, ps in values.items():
        assert ps.significant, name
    assert abs(values["beta_a"].prcc) > abs(values["beta_s"].prcc)
    assert elapsed < 10.0


def test_c08_deterministic_peak_orderings():
    """From one fixed initial condition: the I_s peak at beta_a = 0.7
    exceeds and precedes the peak at beta_a = 0.09, and the peak at
    gamma = 0.05 exceeds the peak at gamma = 0.4. Under 5 s."""
    t0 = time.perf_counter()
    init = default_init(BASELINE_PARAMS)
    cfg = SimConfig(t_end=500.0, dt=0.05)

    def peak(p):
        traj = integrate_ode(p, init, cfg)
        j = int(np.argmax(traj.states[:, I_S]))
        return float(traj.states[j, I_S]), float(traj.times[j])

    hi_beta, t_hi_beta = peak(replace(BASELINE_PARAMS, beta_a=0.7))
    lo_beta, t_lo_beta = peak(replace(BASELINE_PARAMS, beta_a=0.09))
    lo_gamma, _ = peak(replace(BASELINE_PARAMS, gamma_rem=0.05))
    hi_gamma, _ = peak(replace(BASELINE_PARAMS, gamma_rem=0.4))
    elapsed = time.perf_counter() - t0
    print(
        f"c08: beta_a pair peaks {hi_beta:.2f}@{t_hi_beta:.1f} vs "
        f"{lo_beta:.2f}@{t_lo_beta:.1f}; gamma pair {lo_gamma:.3f} vs "
        f"{hi_gamma:.3f} in {elapsed:.2f}s"
    )
    assert hi_beta > lo_beta
    assert t_hi_beta < t_lo_beta
    assert lo_gamma > hi_gamma
    assert elapsed < 5.0


def test_c09_noise_intensity_widens_the_ensemble():
    """With the beta_a = 0.46665 configuration started at its endemic
    state, the time-averaged cross-path std of I_s strictly increases
    across sigma in {0.01, 0.05, 0.10}, 500 paths each. Under 2 min."""
    t0 = time.perf_counter()
    eq = solve_endemic(ENDEMIC_PARAMS)
    cfg = SimConfig(t_end=100.0, dt=0.01)
    spread = []
    for s in (0.01, 0.05, 0.10):
        noise = NoiseIntensities(s, s, s, s, s)
        summ = run_ensemble(
            ENDEMIC_PARAMS, noise, eq.state, cfg,
            n_paths=500, master_seed=0,
        )
        spread.append(float(summ.std[:, I_S].mean()))
    elapsed = time.perf_counter() - t0
    print(
        "c09: avg std(I_s) " + " < ".join(f"{v:.3f}" for v in spread)
        + f" in {elapsed:.1f}s"
    )
    assert spread[0] < spread[1] < spread[2]
    assert elapsed < 120.0


def test_c10_reproducibility_bytes_and_parallel_agreement(tmp_path, monkeypatch, two_cpus):
    """Identical config + seed produce byte-identical CSVs through the
    CLI, whatever the inert `--threads` value, and an ensemble whose
    noise the forked helper process draws agrees with one drawn in this
    process alone to 1e-12 relative (they are in fact bit-identical)."""
    cfg = tmp_path / "run.cfg"
    cfg.write_text("t_end = 2\ndt = 0.01\nn_paths = 8\nseed = 5\n")
    outs = [tmp_path / name for name in
            ("sim_a.csv", "sim_b.csv", "ens_a.csv", "ens_b.csv")]
    for out in outs[:2]:
        rc = run_cli(["simulate", "--mode", "sde", "--config", str(cfg),
                      "--out", str(out)])
        assert rc == 0
    for out, threads in zip(outs[2:], ("1", "4")):
        rc = run_cli(["ensemble", "--config", str(cfg), "--out", str(out),
                      "--threads", threads])
        assert rc == 0
    assert outs[0].read_bytes() == outs[1].read_bytes()
    assert outs[2].read_bytes() == outs[3].read_bytes()

    def ensemble():
        return run_ensemble(
            BASELINE_PARAMS, DEFAULT_NOISE, default_init(BASELINE_PARAMS),
            SimConfig(2.0, 0.01), n_paths=8, master_seed=5,
        )

    helpers = []
    fork = integrate._NoiseHelper.fork.__func__

    def counting_fork(cls, *args):
        helpers.append(fork(cls, *args))
        return helpers[-1]

    monkeypatch.setattr(integrate._NoiseHelper, "fork", classmethod(counting_fork))
    helper_on = ensemble()
    assert len(helpers) == 1 and helpers[0] is not None
    monkeypatch.setattr(integrate, "_helper_share", lambda n: 0)
    helper_off = ensemble()
    assert len(helpers) == 1
    fields = ("mean", "std", "q025", "q50", "q975")
    worst = 0.0
    for name in fields:
        a = getattr(helper_off, name)
        b = getattr(helper_on, name)
        assert np.array_equal(a, b), name
        scale = np.maximum(np.abs(a), 1.0)
        worst = max(worst, float(np.max(np.abs(a - b) / scale)))
    print(f"c10: identical CLI bytes; helper on vs off relative gap {worst:.1e}")
    assert worst < 1e-12
