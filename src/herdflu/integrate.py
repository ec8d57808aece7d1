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
    RateCoefficients,
    rate_coefficients,
    rates,
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
    z = np.empty((n_steps, 1, _N_NOISE))
    return _fill_normals(z, [gen], math.sqrt(dt))[:, 0]


def wiener_increment(stream: NoiseStream, step: int, dt: float) -> np.ndarray:
    """The five N(0, dt) increments consumed at one step of one path."""
    return wiener_increments(stream, 1, dt, start_step=step)[0]


def _fill_normals(
    z: np.ndarray, gens: Sequence[Generator], sqrt_dt: float
) -> np.ndarray:
    """Fill z, shaped (m, len(gens), 5), with the next m steps of every
    stream's N(0, dt) increments, in place, and return it."""
    m = len(z)
    for i, g in enumerate(gens):
        u = g.random(_DOUBLES_PER_STEP * m).reshape(m, _DOUBLES_PER_STEP)
        z[:, i] = u[:, :_N_NOISE]
    np.maximum(z, _MIN_U, out=z)
    ndtri(z, out=z)
    z *= sqrt_dt
    return z


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


def _block_steps(recorded: np.ndarray, k0: int, m: int) -> np.ndarray:
    # Recorded step indices in (k0, k0 + m].
    return recorded[
        np.searchsorted(recorded, k0, side="right"):
        np.searchsorted(recorded, k0 + m, side="right")
    ]


def _finite_rows(
    times: np.ndarray, buf: np.ndarray
) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    # Yield one recorded block; if a state in it is non-finite, yield
    # only the rows before that one and raise.
    if not np.isfinite(buf).all():
        bad = int(np.argmin(np.isfinite(buf).all(axis=(1, 2))))
        if bad:
            yield times[:bad], buf[:bad]
        raise IntegrationError(f"non-finite state at t={times[bad]:.6g}")
    yield times, buf


def _advance_chunk(
    state: np.ndarray,
    gens: list[Generator],
    sig6: np.ndarray,
    c: RateCoefficients,
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
    z = _fill_normals(np.empty((m, hi - lo, _N_NOISE)), gens, sqrt_dt)
    rec = dict(rec_rows)
    f = np.empty_like(state)
    for s_off in range(m):
        f[:, 0], f[:, 1], f[:, 2], f[:, 3], f[:, 4], f[:, 5] = rates(*state.T, c)
        y = state + f * dt
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


def _single_path_blocks(
    p: ModelParams,
    init: HerdState,
    cfg: SimConfig,
    noise: NoiseIntensities | None = None,
    stream: NoiseStream | None = None,
) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """`iter_path_blocks` for one path, on plain floats.

    Forward Euler with `noise` None, otherwise Euler-Maruyama driven by
    `stream`. Noise comes in `_BLOCK_STEPS` blocks from the same Philox
    window, and the update, the clamp (np.maximum(y, 0.0): NaN stays,
    -0.0 becomes 0.0), the reject check and the non-finite check per
    block are the batch engine's, so the path equals the matching
    ensemble member bit for bit. On one 6-vector, numpy call overhead
    costs more than the float arithmetic.
    """
    c = rate_coefficients(p)
    dt = cfg.dt
    n_steps = cfg.n_steps()
    recorded = cfg.recorded_steps()
    reject = cfg.negativity_policy == "reject"
    noisy = noise is not None
    if noisy:
        sg_s, sg_e, sg_is, sg_ia, sg_b = noise.as_tuple()
        gens = [Generator(stream._bit_generator())]
        sqrt_dt = math.sqrt(dt)

    x = init.as_array()
    yield np.zeros(1), x[None, None]
    s, e, i_s, i_a, r, b = x.tolist()
    k0 = 0
    while k0 < n_steps:
        m = min(_BLOCK_STEPS, n_steps - k0)
        ks = _block_steps(recorded, k0, m)
        rec = set(ks.tolist())
        rows = []
        if noisy:
            z = _fill_normals(np.empty((m, 1, _N_NOISE)), gens, sqrt_dt)
            zs = iter(z[:, 0].tolist())
        for k in range(k0 + 1, k0 + m + 1):
            ds, de, dis, dia, dr, db = rates(s, e, i_s, i_a, r, b, c)
            s1 = s + ds * dt
            e1 = e + de * dt
            is1 = i_s + dis * dt
            ia1 = i_a + dia * dt
            r1 = r + dr * dt
            b1 = b + db * dt
            if noisy:
                w_s, w_e, w_is, w_ia, w_b = next(zs)
                s1 += s * sg_s * w_s
                e1 += e * sg_e * w_e
                is1 += i_s * sg_is * w_is
                ia1 += i_a * sg_ia * w_ia
                b1 += b * sg_b * w_b
            if reject and (
                s1 < -NEG_TOL or e1 < -NEG_TOL or is1 < -NEG_TOL
                or ia1 < -NEG_TOL or r1 < -NEG_TOL or b1 < -NEG_TOL
            ):
                # Raises with the engine's message unless a NaN masks it.
                y = np.array([[s1, e1, is1, ia1, r1, b1]])
                _apply_policy(y, "reject", k * dt, 0)
            s = s1 if s1 > 0.0 or s1 != s1 else 0.0
            e = e1 if e1 > 0.0 or e1 != e1 else 0.0
            i_s = is1 if is1 > 0.0 or is1 != is1 else 0.0
            i_a = ia1 if ia1 > 0.0 or ia1 != ia1 else 0.0
            r = r1 if r1 > 0.0 or r1 != r1 else 0.0
            b = b1 if b1 > 0.0 or b1 != b1 else 0.0
            if k in rec:
                rows.append((s, e, i_s, i_a, r, b))
        if rows:
            yield from _finite_rows(ks * dt, np.array(rows)[:, None])
        k0 += m


def iter_path_blocks(
    p: ModelParams,
    init: HerdState,
    cfg: SimConfig,
    noise: NoiseIntensities | None = None,
    streams: Sequence[NoiseStream] | None = None,
    threads: int = 1,
) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """Step-synchronous Euler-Maruyama engine behind the ensembles.

    Yields (times, states) once per engine block that records anything:
    `times` holds the block's recorded times and `states` has shape
    (len(times), n_paths, 6). The first yield is the initial state at
    t = 0 alone. Recorded rows come in grid order, so concatenating the
    blocks gives the full recorded trajectory of every path. With
    `noise` None the run is deterministic forward Euler on a single
    path, stepped on plain floats; otherwise each path consumes its own
    stream and all paths advance together on arrays. Yielded arrays
    belong to the engine; copy them to retain.

    If a recorded state is non-finite, the rows before it are yielded
    as a shorter block and IntegrationError is raised.

    Thread count only partitions the path axis, never the arithmetic,
    so results are identical for every `threads` value.
    """
    if noise is None:
        if streams is not None:
            raise ValueError("streams are only meaningful for stochastic runs")
        yield from _single_path_blocks(p, init, cfg)
        return
    if not streams:
        raise ValueError("stochastic runs need at least one NoiseStream")
    n_paths = len(streams)
    sig6 = np.array(
        [noise.sig_S, noise.sig_E, noise.sig_Is, noise.sig_Ia, 0.0, noise.sig_B]
    )
    all_gens = [Generator(st._bit_generator()) for st in streams]
    c = rate_coefficients(p)

    dt = cfg.dt
    sqrt_dt = math.sqrt(dt)
    n_steps = cfg.n_steps()
    recorded = cfg.recorded_steps()
    policy = cfg.negativity_policy

    state = np.tile(init.as_array(), (n_paths, 1))
    yield np.zeros(1), state[None]

    threads = max(1, min(int(threads), n_paths))
    bounds = np.linspace(0, n_paths, threads + 1).astype(int)
    chunks = list(zip(bounds[:-1].tolist(), bounds[1:].tolist()))
    chunk_states = [state[a:b].copy() for a, b in chunks]
    chunk_gens = [all_gens[a:b] for a, b in chunks]

    pool = ThreadPoolExecutor(max_workers=threads) if threads > 1 else None
    try:
        k0 = 0
        while k0 < n_steps:
            m = min(_BLOCK_STEPS, n_steps - k0)
            ks = _block_steps(recorded, k0, m)
            rec_rows = [(int(k) - k0, row) for row, k in enumerate(ks)]
            buf = np.empty((len(ks), n_paths, 6)) if rec_rows else None

            def job(ci: int) -> np.ndarray:
                return _advance_chunk(
                    chunk_states[ci], chunk_gens[ci], sig6, c, dt, sqrt_dt,
                    k0, m, policy, rec_rows, buf, *chunks[ci],
                )

            if pool is None:
                chunk_states = [job(0)]
            else:
                chunk_states = list(pool.map(job, range(threads)))

            if rec_rows:
                yield from _finite_rows(ks * dt, buf)
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


def _rk4_step(s, e, i_s, i_a, r, b, c: RateCoefficients, dt, half, sixth) -> tuple:
    # One classical RK4 step of `rates`, on floats or on (n,) arrays.
    k1 = rates(s, e, i_s, i_a, r, b, c)
    k2 = rates(s + half * k1[0], e + half * k1[1], i_s + half * k1[2],
               i_a + half * k1[3], r + half * k1[4], b + half * k1[5], c)
    k3 = rates(s + half * k2[0], e + half * k2[1], i_s + half * k2[2],
               i_a + half * k2[3], r + half * k2[4], b + half * k2[5], c)
    k4 = rates(s + dt * k3[0], e + dt * k3[1], i_s + dt * k3[2],
               i_a + dt * k3[3], r + dt * k3[4], b + dt * k3[5], c)
    return (
        s + sixth * (k1[0] + 2.0 * k2[0] + 2.0 * k3[0] + k4[0]),
        e + sixth * (k1[1] + 2.0 * k2[1] + 2.0 * k3[1] + k4[1]),
        i_s + sixth * (k1[2] + 2.0 * k2[2] + 2.0 * k3[2] + k4[2]),
        i_a + sixth * (k1[3] + 2.0 * k2[3] + 2.0 * k3[3] + k4[3]),
        r + sixth * (k1[4] + 2.0 * k2[4] + 2.0 * k3[4] + k4[4]),
        b + sixth * (k1[5] + 2.0 * k2[5] + 2.0 * k3[5] + k4[5]),
    )


def _rk4_reject_text(j: int, v: float, t: float) -> str:
    return f"{COMPARTMENTS[j]} reached {v:.3e} at t={t:.6g} (negativity_policy='reject')"


def _integrate_rk4(p: ModelParams, init: HerdState, cfg: SimConfig) -> Trajectory:
    # Plain floats: on one 6-vector, numpy call overhead costs more than
    # the arithmetic. A negative component is clamped to 0 (-0.0 stays),
    # except that under "reject" one below -NEG_TOL raises.
    c = rate_coefficients(p)
    dt = cfg.dt
    half = 0.5 * dt
    sixth = dt / 6.0
    n_steps = cfg.n_steps()
    recorded = cfg.recorded_steps()
    rec_at = {int(k): i for i, k in enumerate(recorded)}
    times = recorded * dt
    states = np.empty((len(recorded), 6))
    reject = cfg.negativity_policy == "reject"

    x = init.as_array().tolist()
    states[0] = x
    for k in range(1, n_steps + 1):
        x = _rk4_step(*x, c, dt, half, sixth)
        if min(x) < 0.0:
            x = list(x)
            for j, v in enumerate(x):
                if v < 0.0:
                    if reject and v < -NEG_TOL:
                        raise IntegrationError(_rk4_reject_text(j, v, k * dt))
                    x[j] = 0.0
        i = rec_at.get(k)
        if i is not None:
            if not math.isfinite(x[0] + x[1] + x[2] + x[3] + x[4] + x[5]):
                raise IntegrationError(f"non-finite state at t={k * dt:.6g}")
            states[i] = x
    return Trajectory(times=times, states=states, stream=None)


def rk4_peaks(
    c: RateCoefficients, init: HerdState, cfg: SimConfig, column: int
) -> np.ndarray:
    """Peaks of one compartment over n RK4 runs integrated together.

    Every field of `c` is an (n,) array, one parameter set per entry
    (see `model.rate_coefficients`). Entry i of the result is the
    maximum of compartment `column` over the recorded times of the run
    from `init` under parameter set i: bit for bit
    `integrate_ode(params_i, init, cfg).states[:, column].max()`. The
    clamp, the reject check and the non-finite check act per entry
    exactly as in that run; if any run would raise, IntegrationError is
    raised for the first such entry with that run's message, prefixed by
    "sample i: ".
    """
    (n,) = np.broadcast(*c).shape
    dt = cfg.dt
    half = 0.5 * dt
    sixth = dt / 6.0
    rec = set(cfg.recorded_steps().tolist())
    reject = cfg.negativity_policy == "reject"
    errors: dict[int, str] = {}

    x = tuple(np.full(n, v) for v in init.as_array().tolist())
    peak = x[column].copy()
    # Runs that already failed keep stepping; their values are unused.
    with np.errstate(all="ignore"):
        for k in range(1, cfg.n_steps() + 1):
            xs = np.array(_rk4_step(*x, c, dt, half, sixth))
            neg = xs < 0.0
            if neg.any():
                # As in the scalar run: min() of a row whose S is NaN is
                # NaN, so that row is left alone.
                neg &= ~np.isnan(xs[0])
                if reject:
                    deep = neg & (xs < -NEG_TOL)
                    for i in np.flatnonzero(deep.any(axis=0)).tolist():
                        j = int(np.argmax(deep[:, i]))
                        errors.setdefault(i, _rk4_reject_text(j, float(xs[j, i]), k * dt))
                xs[neg] = 0.0
            x = tuple(xs)
            if k in rec:
                tot = xs[0] + xs[1] + xs[2] + xs[3] + xs[4] + xs[5]
                for i in np.flatnonzero(~np.isfinite(tot)).tolist():
                    errors.setdefault(i, f"non-finite state at t={k * dt:.6g}")
                np.maximum(peak, xs[column], out=peak)
    if errors:
        i = min(errors)
        raise IntegrationError(f"sample {i}: {errors[i]}")
    return peak


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
    states = _path0_states(_single_path_blocks(p, init, cfg), len(recorded))
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
    blocks = _single_path_blocks(p, init, cfg, n, stream)
    states = _path0_states(blocks, len(recorded))
    return Trajectory(times=recorded * cfg.dt, states=states, stream=stream)
