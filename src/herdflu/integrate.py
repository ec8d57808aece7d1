"""Fixed-step integrators for the herd model.

Deterministic runs use the classical fourth-order Runge-Kutta scheme; a
separate forward Euler mode exists so that the stochastic integrator can
be checked against it bit for bit at zero noise. Stochastic runs use
Euler-Maruyama,

    X[k+1] = X[k] + f(X[k])*dt + sig_X*X[k]*dW_X[k],

with five independent Wiener increments per step (S, E, I_s, I_a, B; R
is drift only) and dW = sqrt(dt)*Z, Z standard normal.

Noise is drawn from counter-based Philox streams keyed by
(master_seed, path_index), so any path, and any step within a path, can
be regenerated independently of execution order. Each step owns a fixed
window of the stream (two Philox blocks), which is what makes
`wiener_increment(stream, k, dt)` agree exactly with the increments an
integrator consumes sequentially.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Iterator, Literal, Sequence

import numpy as np
from numpy.random import Generator, Philox
from scipy.special import ndtri

from .model import (
    COMPARTMENTS,
    HerdState,
    ModelParams,
    NoiseIntensities,
)

# Post-step values in (-NEG_TOL, 0) are floating-point dust and are
# clamped to 0 under either negativity policy.
NEG_TOL = 1e-12

# Each step consumes two Philox counter blocks (8 doubles) and uses the
# first five, so step k starts exactly at counter offset 2*k.
_BLOCKS_PER_STEP = 2
_DOUBLES_PER_STEP = 8
_N_NOISE = 5

# Smallest uniform passed to the normal quantile; Generator.random can
# return exactly 0.0, which ndtri would map to -inf.
_MIN_U = 2.0 ** -53

# Steps advanced between buffer flushes in the batch engine.
_BLOCK_STEPS = 1024

_U64 = 2 ** 64

# Relative slack allowed between n_steps * dt and t_end.
_GRID_RTOL = 1e-9


class IntegrationError(RuntimeError):
    """A step produced a state the active policy cannot accept."""


@dataclass(frozen=True)
class SimConfig:
    """Time grid and negativity handling for a single integration."""

    t_end: float = 500.0
    dt: float = 0.01
    record_stride: int = 1
    negativity_policy: Literal["truncate", "reject"] = "truncate"

    def __post_init__(self) -> None:
        if not (isinstance(self.t_end, (int, float)) and math.isfinite(self.t_end)):
            raise ValueError(f"t_end must be finite, got {self.t_end!r}")
        if self.t_end <= 0:
            raise ValueError(f"t_end must be > 0, got {self.t_end!r}")
        if not (isinstance(self.dt, (int, float)) and math.isfinite(self.dt)):
            raise ValueError(f"dt must be finite, got {self.dt!r}")
        if not 0 < self.dt <= self.t_end:
            raise ValueError(f"dt must lie in (0, t_end], got {self.dt!r}")
        # n_steps() rounds, so a dt that does not divide t_end would
        # silently move the horizon.
        n = self.n_steps()
        if abs(n * self.dt - self.t_end) > _GRID_RTOL * self.t_end:
            raise ValueError(
                f"dt={self.dt!r} does not divide t_end={self.t_end!r}: "
                f"{n} steps end at t={n * self.dt!r}"
            )
        if not (isinstance(self.record_stride, int) and self.record_stride >= 1):
            raise ValueError(
                f"record_stride must be an integer >= 1, got {self.record_stride!r}"
            )
        if self.negativity_policy not in ("truncate", "reject"):
            raise ValueError(
                f"negativity_policy must be 'truncate' or 'reject', "
                f"got {self.negativity_policy!r}"
            )

    def n_steps(self) -> int:
        return int(round(self.t_end / self.dt))

    def recorded_steps(self) -> np.ndarray:
        """Step indices that are recorded: every stride-th, plus the last."""
        n = self.n_steps()
        ks = np.arange(0, n + 1, self.record_stride)
        if ks[-1] != n:
            ks = np.append(ks, n)
        return ks


@dataclass(frozen=True)
class NoiseStream:
    """Identity of one path's noise: (master_seed, path_index)."""

    master_seed: int
    path_index: int = 0

    def __post_init__(self) -> None:
        for name in ("master_seed", "path_index"):
            v = getattr(self, name)
            if not isinstance(v, int) or not 0 <= v < _U64:
                raise ValueError(f"{name} must be an integer in [0, 2**64), got {v!r}")

    def _bit_generator(self, start_step: int = 0) -> Philox:
        bg = Philox(key=[self.master_seed, self.path_index])
        if start_step:
            bg.advance(_BLOCKS_PER_STEP * start_step)
        return bg


@dataclass(frozen=True)
class Trajectory:
    """One recorded solution path.

    `states` has one row per recorded time, columns in COMPARTMENTS
    order. `stream` identifies the noise path for stochastic runs and is
    None for deterministic ones.
    """

    times: np.ndarray
    states: np.ndarray
    stream: NoiseStream | None = None

    def __post_init__(self) -> None:
        if self.times.ndim != 1 or self.states.shape != (len(self.times), 6):
            raise ValueError("states must be (len(times), 6)")
        if len(self.times) == 0:
            raise ValueError("trajectory must contain at least one point")
        if not np.all(np.diff(self.times) > 0):
            raise ValueError("times must be strictly increasing")
        if not np.all(np.isfinite(self.states)) or np.any(self.states < 0):
            raise ValueError("states must be finite and >= 0")

    def __len__(self) -> int:
        return len(self.times)

    def state_at(self, i: int) -> HerdState:
        return HerdState.from_array(self.states[i])

    def final_state(self) -> HerdState:
        return self.state_at(len(self) - 1)

    def column(self, name: str) -> np.ndarray:
        return self.states[:, COMPARTMENTS.index(name)]


def wiener_increments(
    stream: NoiseStream, n_steps: int, dt: float, start_step: int = 0
) -> np.ndarray:
    """Wiener increments for steps [start_step, start_step + n_steps).

    Returns an (n_steps, 5) array of N(0, dt) draws in the order
    (S, E, I_s, I_a, B). Identical arguments always reproduce identical
    bits, and the rows agree with what `integrate_sde` consumes.
    """
    if n_steps < 1:
        raise ValueError(f"n_steps must be >= 1, got {n_steps!r}")
    if start_step < 0:
        raise ValueError(f"start_step must be >= 0, got {start_step!r}")
    if not (math.isfinite(dt) and dt > 0):
        raise ValueError(f"dt must be finite and > 0, got {dt!r}")
    gen = Generator(stream._bit_generator(start_step))
    u = gen.random(_DOUBLES_PER_STEP * n_steps)
    u = u.reshape(n_steps, _DOUBLES_PER_STEP)[:, :_N_NOISE]
    return ndtri(np.maximum(u, _MIN_U)) * math.sqrt(dt)


def wiener_increment(stream: NoiseStream, step: int, dt: float) -> np.ndarray:
    """The five N(0, dt) increments consumed at one step of one path."""
    return wiener_increments(stream, 1, dt, start_step=step)[0]


def _drift_batch(x: np.ndarray, p: ModelParams, out: np.ndarray) -> np.ndarray:
    # Vectorised twin of model.drift: same expressions, path axis first.
    # x is (n, 6); out is written in place and returned.
    s, e, i_s, i_a, r, b = (x[:, j] for j in range(6))
    n = s + e + i_s + i_a + r
    den = np.where(n > 0.0, n, 1.0)
    lam = p.beta_s * i_s / den + p.beta_a * i_a / den + p.beta_b * b / (p.k_half + b)
    inc = lam * s
    out_s = p.mu + p.d_dis + p.gamma_rem
    out_a = p.mu + p.d_dis + p.delta_rem
    out[:, 0] = p.lambda_recruit - inc - p.mu * s
    out[:, 1] = inc - (p.sigma_prog + p.mu) * e
    out[:, 2] = (p.nu * p.sigma_prog) * e - out_s * i_s
    out[:, 3] = ((1.0 - p.nu) * p.sigma_prog) * e - out_a * i_a
    out[:, 4] = p.gamma_rem * i_s + p.delta_rem * i_a - p.mu * r
    out[:, 5] = p.omega_s * i_s + p.omega_a * i_a - p.eps_decay * b
    return out


def _apply_policy(y: np.ndarray, policy: str, t: float, path_offset: int) -> np.ndarray:
    # Truncation clamps every negative; reject only tolerates dust.
    if policy == "reject":
        mn = y.min()
        if mn < -NEG_TOL:
            i, j = np.unravel_index(int(np.argmin(y)), y.shape)
            raise IntegrationError(
                f"{COMPARTMENTS[j]} of path {path_offset + i} reached {mn:.3e} "
                f"at t={t:.6g} (negativity_policy='reject')"
            )
    return np.maximum(y, 0.0)


def _advance_chunk(
    state: np.ndarray,
    gens: list[Generator] | None,
    sig6: np.ndarray | None,
    p: ModelParams,
    dt: float,
    sqrt_dt: float,
    k0: int,
    m: int,
    policy: str,
    rec_rows: list[tuple[int, int]],
    buf: np.ndarray | None,
    lo: int,
    hi: int,
) -> np.ndarray:
    """Advance paths [lo, hi) through steps [k0, k0 + m). Returns new state."""
    if gens is not None:
        u = np.stack(
            [g.random(_DOUBLES_PER_STEP * m).reshape(m, _DOUBLES_PER_STEP)[:, :_N_NOISE]
             for g in gens],
            axis=1,
        )
        z = ndtri(np.maximum(u, _MIN_U)) * sqrt_dt
    rec = dict(rec_rows)
    f = np.empty_like(state)
    for s_off in range(m):
        _drift_batch(state, p, f)
        y = state + f * dt
        if gens is not None:
            amp = state * sig6
            dw = z[s_off]
            y[:, 0] += amp[:, 0] * dw[:, 0]
            y[:, 1] += amp[:, 1] * dw[:, 1]
            y[:, 2] += amp[:, 2] * dw[:, 2]
            y[:, 3] += amp[:, 3] * dw[:, 3]
            y[:, 5] += amp[:, 5] * dw[:, 4]
        state = _apply_policy(y, policy, (k0 + s_off + 1) * dt, lo)
        row = rec.get(s_off + 1)
        if row is not None:
            buf[row, lo:hi, :] = state
    return state


def iter_path_blocks(
    p: ModelParams,
    init: HerdState,
    cfg: SimConfig,
    noise: NoiseIntensities | None = None,
    streams: Sequence[NoiseStream] | None = None,
    threads: int = 1,
) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """Step-synchronous engine behind the Euler and Euler-Maruyama runs.

    Yields (times, states) once per engine block that records anything:
    `times` holds the block's recorded times and `states` has shape
    (len(times), n_paths, 6). The first yield is the initial state at
    t = 0 alone. Recorded rows come in grid order, so concatenating the
    blocks gives the full recorded trajectory of every path. With
    `noise` None the step is deterministic forward Euler on a single
    path; otherwise each path consumes its own stream. Yielded arrays
    belong to the engine; copy them to retain.

    If a recorded state is non-finite, the rows before it are yielded
    as a shorter block and IntegrationError is raised.

    Thread count only partitions the path axis, never the arithmetic,
    so results are identical for every `threads` value.
    """
    if noise is None:
        if streams is not None:
            raise ValueError("streams are only meaningful for stochastic runs")
        n_paths = 1
        sig6 = None
        all_gens = None
    else:
        if not streams:
            raise ValueError("stochastic runs need at least one NoiseStream")
        n_paths = len(streams)
        sig6 = np.array(
            [noise.sig_S, noise.sig_E, noise.sig_Is, noise.sig_Ia, 0.0, noise.sig_B]
        )
        all_gens = [Generator(st._bit_generator()) for st in streams]

    dt = cfg.dt
    sqrt_dt = math.sqrt(dt)
    n_steps = cfg.n_steps()
    recorded = cfg.recorded_steps()
    policy = cfg.negativity_policy

    state = np.tile(init.as_array(), (n_paths, 1))
    yield np.zeros(1), state[None]

    threads = max(1, min(int(threads), n_paths))
    bounds = np.linspace(0, n_paths, threads + 1).astype(int)
    chunk_states = [state[a:b].copy() for a, b in zip(bounds[:-1], bounds[1:])]
    chunk_gens = (
        [all_gens[a:b] for a, b in zip(bounds[:-1], bounds[1:])]
        if all_gens is not None
        else [None] * threads
    )

    pool = ThreadPoolExecutor(max_workers=threads) if threads > 1 else None
    try:
        k0 = 0
        while k0 < n_steps:
            m = min(_BLOCK_STEPS, n_steps - k0)
            ks = recorded[
                np.searchsorted(recorded, k0, side="right"):
                np.searchsorted(recorded, k0 + m, side="right")
            ]
            rec_rows = [(int(k) - k0, row) for row, k in enumerate(ks)]
            buf = np.empty((len(ks), n_paths, 6)) if rec_rows else None

            def job(ci: int) -> np.ndarray:
                return _advance_chunk(
                    chunk_states[ci], chunk_gens[ci], sig6, p, dt, sqrt_dt,
                    k0, m, policy, rec_rows, buf,
                    int(bounds[ci]), int(bounds[ci + 1]),
                )

            if pool is None:
                chunk_states = [job(0)]
            else:
                chunk_states = list(pool.map(job, range(threads)))

            if rec_rows:
                times = ks * dt
                if not np.isfinite(buf).all():
                    bad = int(np.argmin(np.isfinite(buf).all(axis=(1, 2))))
                    if bad:
                        yield times[:bad], buf[:bad]
                    raise IntegrationError(f"non-finite state at t={times[bad]:.6g}")
                yield times, buf
            k0 += m
    finally:
        if pool is not None:
            pool.shutdown(wait=False)


def iter_path_states(
    p: ModelParams,
    init: HerdState,
    cfg: SimConfig,
    noise: NoiseIntensities | None = None,
    streams: Sequence[NoiseStream] | None = None,
    threads: int = 1,
) -> Iterator[tuple[float, np.ndarray]]:
    """Per-row view of `iter_path_blocks`.

    Yields (t, states) at every recorded time, `states` of shape
    (n_paths, 6). Yielded arrays are views into the engine's block
    buffers; copy them to retain.
    """
    for times, blk in iter_path_blocks(p, init, cfg, noise, streams, threads):
        yield from zip(times.tolist(), blk)


def _path0_states(
    blocks: Iterator[tuple[np.ndarray, np.ndarray]], n_rec: int
) -> np.ndarray:
    # Stack path 0 of every engine block into one (n_rec, 6) array.
    states = np.empty((n_rec, 6))
    i = 0
    for _, blk in blocks:
        states[i:i + len(blk)] = blk[:, 0]
        i += len(blk)
    return states


def _integrate_rk4(p: ModelParams, init: HerdState, cfg: SimConfig) -> Trajectory:
    # Scalar inner loop: at the default grid (50k steps for 500 days)
    # array arithmetic on 6-vectors costs more than plain floats.
    lam_r, mu = p.lambda_recruit, p.mu
    bs, ba, bb, kh = p.beta_s, p.beta_a, p.beta_b, p.k_half
    prog_s = p.nu * p.sigma_prog
    prog_a = (1.0 - p.nu) * p.sigma_prog
    out_e = p.sigma_prog + p.mu
    out_s = p.mu + p.d_dis + p.gamma_rem
    out_a = p.mu + p.d_dis + p.delta_rem
    gam, dlt, ws, wa, eps = p.gamma_rem, p.delta_rem, p.omega_s, p.omega_a, p.eps_decay

    def f6(s, e, i_s, i_a, r, b):
        n = s + e + i_s + i_a + r
        den = n if n > 0.0 else 1.0
        lam = bs * i_s / den + ba * i_a / den + bb * b / (kh + b)
        inc = lam * s
        return (
            lam_r - inc - mu * s,
            inc - out_e * e,
            prog_s * e - out_s * i_s,
            prog_a * e - out_a * i_a,
            gam * i_s + dlt * i_a - mu * r,
            ws * i_s + wa * i_a - eps * b,
        )

    dt = cfg.dt
    half = 0.5 * dt
    sixth = dt / 6.0
    n_steps = cfg.n_steps()
    recorded = cfg.recorded_steps()
    rec_at = {int(k): i for i, k in enumerate(recorded)}
    times = recorded * dt
    states = np.empty((len(recorded), 6))
    reject = cfg.negativity_policy == "reject"

    s, e, i_s, i_a, r, b = init.as_array()
    states[0] = (s, e, i_s, i_a, r, b)
    for k in range(1, n_steps + 1):
        k1 = f6(s, e, i_s, i_a, r, b)
        k2 = f6(s + half * k1[0], e + half * k1[1], i_s + half * k1[2],
                i_a + half * k1[3], r + half * k1[4], b + half * k1[5])
        k3 = f6(s + half * k2[0], e + half * k2[1], i_s + half * k2[2],
                i_a + half * k2[3], r + half * k2[4], b + half * k2[5])
        k4 = f6(s + dt * k3[0], e + dt * k3[1], i_s + dt * k3[2],
                i_a + dt * k3[3], r + dt * k3[4], b + dt * k3[5])
        s += sixth * (k1[0] + 2.0 * k2[0] + 2.0 * k3[0] + k4[0])
        e += sixth * (k1[1] + 2.0 * k2[1] + 2.0 * k3[1] + k4[1])
        i_s += sixth * (k1[2] + 2.0 * k2[2] + 2.0 * k3[2] + k4[2])
        i_a += sixth * (k1[3] + 2.0 * k2[3] + 2.0 * k3[3] + k4[3])
        r += sixth * (k1[4] + 2.0 * k2[4] + 2.0 * k3[4] + k4[4])
        b += sixth * (k1[5] + 2.0 * k2[5] + 2.0 * k3[5] + k4[5])
        if min(s, e, i_s, i_a, r, b) < 0.0:
            vals = [s, e, i_s, i_a, r, b]
            for j, v in enumerate(vals):
                if v < 0.0:
                    if reject and v < -NEG_TOL:
                        raise IntegrationError(
                            f"{COMPARTMENTS[j]} reached {v:.3e} at t={k * dt:.6g} "
                            f"(negativity_policy='reject')"
                        )
                    vals[j] = 0.0
            s, e, i_s, i_a, r, b = vals
        i = rec_at.get(k)
        if i is not None:
            tot = s + e + i_s + i_a + r + b
            if not math.isfinite(tot):
                raise IntegrationError(f"non-finite state at t={k * dt:.6g}")
            states[i] = (s, e, i_s, i_a, r, b)
    return Trajectory(times=times, states=states, stream=None)


def integrate_ode(
    p: ModelParams,
    init: HerdState,
    cfg: SimConfig,
    method: Literal["rk4", "euler"] = "rk4",
) -> Trajectory:
    """Deterministic trajectory of the herd model.

    The default method is classical RK4. `method="euler"` runs the same
    update the stochastic integrator uses, minus the noise term; it
    exists so zero-noise stochastic runs can be verified bit for bit
    and is first order only.
    """
    if method == "rk4":
        return _integrate_rk4(p, init, cfg)
    if method != "euler":
        raise ValueError(f"method must be 'rk4' or 'euler', got {method!r}")
    recorded = cfg.recorded_steps()
    states = _path0_states(iter_path_blocks(p, init, cfg), len(recorded))
    return Trajectory(times=recorded * cfg.dt, states=states, stream=None)


def integrate_sde(
    p: ModelParams,
    n: NoiseIntensities,
    init: HerdState,
    cfg: SimConfig,
    stream: NoiseStream,
) -> Trajectory:
    """One Euler-Maruyama path driven by `stream`.

    Reruns with identical arguments reproduce identical bits, and the
    path equals the corresponding member of any ensemble built from the
    same master seed.
    """
    recorded = cfg.recorded_steps()
    blocks = iter_path_blocks(p, init, cfg, noise=n, streams=[stream])
    states = _path0_states(blocks, len(recorded))
    return Trajectory(times=recorded * cfg.dt, states=states, stream=stream)
