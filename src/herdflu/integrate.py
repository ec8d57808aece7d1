"""Fixed-step integrators for the herd model.

Deterministic runs (`integrate_ode`) use the classical fourth-order
Runge-Kutta scheme. Stochastic runs (`integrate_sde` and the ensemble
engine) use Euler-Maruyama,

    X[k+1] = X[k] + f(X[k])*dt + sig_X*X[k]*dW_X[k],

with five independent Wiener increments per step (S, E, I_s, I_a, B; R
is drift only) and dW = sqrt(dt)*Z, Z standard normal. With every
sig_X = 0 this is forward Euler.

Noise is drawn from counter-based Philox streams keyed by
(master_seed, path_index), so any path, and any step within a path, can
be regenerated independently of execution order. Each step owns a fixed
window of the stream (two Philox blocks), which is what makes
`wiener_increments(stream, 1, dt, start_step=k)` agree exactly with the
increments an integrator consumes sequentially.

A draw is split in two stages: `_fill_uniforms` takes the Philox
uniforms, and `_to_increments` maps them through the normal quantile
(`ndtri`) and scales them by sqrt(dt). The ensemble engine
(`iter_path_blocks`) runs the second stage, and part of the first, in a
forked helper process (a `process.Ring`) while the main process steps
the paths.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterator, Sequence

import numpy as np

from .model import (
    COMPARTMENTS,
    HerdState,
    ModelParams,
    NoiseIntensities,
    RateCoefficients,
    rate_coefficients,
    rates,
    rates_rows,
)
from .process import Ring, shared_array

if TYPE_CHECKING:
    from numpy.random import Generator

# Each step consumes two Philox counter blocks (8 doubles) and uses the
# first five, so step k starts exactly at counter offset 2*k.
_BLOCKS_PER_STEP = 2
_DOUBLES_PER_STEP = 8
_N_NOISE = 5

# Smallest uniform passed to the normal quantile; Generator.random can
# return exactly 0.0, which ndtri would map to -inf.
_MIN_U = 2.0 ** -53

# Steps advanced per engine block, the unit of stepping, recording and
# the noise ring. The ring holds two blocks of noise, 40 B per
# path-step, so its size grows with the path count: 2.6 MB at 500 paths.
_BLOCK_STEPS = 64

_U64 = 2 ** 64

# Relative slack allowed between n_steps * dt and t_end.
_GRID_RTOL = 1e-9


class IntegrationError(RuntimeError):
    """A step produced a non-finite state."""


@dataclass(frozen=True)
class SimConfig:
    """Time grid of a single integration.

    Positivity has one policy: every integrator clamps a component that
    a step leaves below zero to 0.
    """

    t_end: float = 500.0
    dt: float = 0.01
    record_stride: int = 1

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

    def n_steps(self) -> int:
        return int(round(self.t_end / self.dt))

    def recorded_steps(self) -> np.ndarray:
        """Step indices that are recorded: every stride-th, plus the last.
        Every stepping loop tests this rule at each step instead."""
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

    def _generator(self, start_step: int = 0) -> Generator:
        # numpy.random is imported here, so that commands without noise
        # never load it.
        from numpy.random import Generator, Philox

        bg = Philox(key=[self.master_seed, self.path_index])
        if start_step:
            bg.advance(_BLOCKS_PER_STEP * start_step)
        return Generator(bg)


@dataclass(frozen=True)
class Trajectory:
    """One recorded solution path.

    `states` has one row per recorded time, columns in COMPARTMENTS
    order.
    """

    times: np.ndarray
    states: np.ndarray

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
    gen = stream._generator(start_step)
    z = _fill_uniforms(np.empty((n_steps, _N_NOISE, 1)), [gen])
    return _to_increments(z, math.sqrt(dt))[:, :, 0]


def _fill_uniforms(z: np.ndarray, gens: Sequence[Generator]) -> np.ndarray:
    """Fill z, shaped (m, 5, len(gens)), with the uniforms of the next m
    steps of every stream, in place, and return it."""
    m = len(z)
    for i, g in enumerate(gens):
        u = g.random(_DOUBLES_PER_STEP * m).reshape(m, _DOUBLES_PER_STEP)
        z[:, :, i] = u[:, :_N_NOISE]
    return z


def _to_increments(z: np.ndarray, sqrt_dt: float) -> np.ndarray:
    """Turn the uniforms in z into N(0, dt) increments, in place, and
    return it."""
    # Imported here, and only here, so that commands without noise and
    # an ensemble whose helper makes the increments never load scipy's
    # kernels, about 0.02 s and 4.5 MB (see `_special`).
    from ._special import ndtri

    np.maximum(z, _MIN_U, out=z)
    ndtri(z, out=z)
    z *= sqrt_dt
    return z


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


class _PathChunk:
    """All paths of the engine with their state and buffers.

    The state is stacked compartment-major, (6, paths), and updated in
    place. Coefficients, temporaries, the bound drift and the row views
    are built once, and every operand is an array, so a step costs a
    fixed set of whole-array ufunc calls.
    """

    def __init__(self, x0: np.ndarray, sig: tuple, c: RateCoefficients,
                 n: int, dt: float):
        self.x = np.repeat(x0[:, None], n, axis=1)
        self.f = np.empty((6, n))
        self.drift = rates_rows(c, n)(self.x, self.f)
        self.sig4 = np.repeat(np.array(sig[:4])[:, None], n, axis=1)
        self.sig_b = np.full(n, sig[4])
        self.dt = np.full((6, n), dt)
        self.zero = np.zeros((6, n))
        self.t4 = np.empty((4, n))
        self.tb = np.empty(n)

    def advance(self, z: np.ndarray, k0: int, stride: int, n_steps: int,
                buf: np.ndarray) -> None:
        """Steps k0 + 1, ... driven by z, the (steps, 5, n_paths) noise of
        every path; after each step that `SimConfig.recorded_steps`'s
        rule records, writes the next row of buf."""
        add, multiply = np.add, np.multiply
        x, f, drift, dt, zero = self.x, self.f, self.drift, self.dt, self.zero
        x4, xb, t4, tb = x[:4], x[5], self.t4, self.tb
        sig4, sig_b = self.sig4, self.sig_b
        row = 0
        for k, (dw4, dwb) in enumerate(zip(z[:, :4], z[:, 4]), k0 + 1):
            # x <- x + f(x)*dt + (sig*x)*dW, the float path's operations
            # in its order, element by element; the noise terms are
            # taken from x before it is overwritten.
            drift()
            multiply(x4, sig4, t4)
            multiply(t4, dw4, t4)
            multiply(xb, sig_b, tb)
            multiply(tb, dwb, tb)
            multiply(f, dt, f)
            add(f, x, x)
            add(x4, t4, x4)
            add(xb, tb, xb)
            np.maximum(x, zero, out=x)
            if k % stride == 0 or k == n_steps:
                buf[row] = x.T
                row += 1


def _helper_share(n_paths: int) -> int:
    """Paths [0, w) whose uniforms the helper process draws.

    Per step, the helper draws the uniforms of w paths and turns those
    of all P paths into increments, while the main process draws the
    other P - w paths and runs the step loop. Both take the same time
    when w*u + P*t = (P - w)*u + s, so w = (P*(u - t) + s)/(2u). On a
    2-vCPU Xeon VM (Python 3.11, numpy 2.4, scipy 1.17, 64-step blocks
    of 100 to 1000 paths, medians of 15) a path-step took u ~0.12 us of
    Philox draws and t ~0.10 us of clamp, `ndtri` and scaling, and the
    step loop s ~20 + 0.04*P us: w = P/4 + ~83. So at 100 paths the
    helper draws every path, and at 500 paths 208 of them.
    """
    return min(n_paths, n_paths // 4 + 83)


def integrate_sde(
    p: ModelParams,
    n: NoiseIntensities,
    init: HerdState,
    cfg: SimConfig,
    stream: NoiseStream,
) -> Trajectory:
    """One Euler-Maruyama path driven by `stream`, stepped on plain floats.

    Noise comes in `_BLOCK_STEPS` blocks from the same Philox window,
    and the update, the clamp (np.maximum(y, 0.0): NaN stays, -0.0
    becomes 0.0) and the non-finite check per block are the batch
    engine's, so the path equals the matching member of any ensemble
    built from the same master seed bit for bit, and a failing run
    raises the engine's message. Reruns with identical arguments
    reproduce identical bits. On one 6-vector, numpy call overhead costs
    more than the float arithmetic.
    """
    c = rate_coefficients(p)
    dt = cfg.dt
    n_steps, stride = cfg.n_steps(), cfg.record_stride
    times = cfg.recorded_steps() * dt
    states = np.empty((len(times), 6))
    sg_s, sg_e, sg_is, sg_ia, sg_b = n.as_tuple()
    gens = [stream._generator()]
    sqrt_dt = math.sqrt(dt)

    states[0] = init.as_array()
    s, e, i_s, i_a, r, b = states[0].tolist()
    row = 0  # the last row written
    for k0 in range(0, n_steps, _BLOCK_STEPS):
        lo = row + 1
        m = min(_BLOCK_STEPS, n_steps - k0)
        z = _to_increments(_fill_uniforms(np.empty((m, _N_NOISE, 1)), gens), sqrt_dt)
        zs = iter(z[:, :, 0].tolist())
        for k in range(k0 + 1, k0 + m + 1):
            ds, de, dis, dia, dr, db = rates(s, e, i_s, i_a, r, b, c)
            w_s, w_e, w_is, w_ia, w_b = next(zs)
            s1 = s + ds * dt + s * sg_s * w_s
            e1 = e + de * dt + e * sg_e * w_e
            is1 = i_s + dis * dt + i_s * sg_is * w_is
            ia1 = i_a + dia * dt + i_a * sg_ia * w_ia
            r1 = r + dr * dt
            b1 = b + db * dt + b * sg_b * w_b
            s = s1 if s1 > 0.0 or s1 != s1 else 0.0
            e = e1 if e1 > 0.0 or e1 != e1 else 0.0
            i_s = is1 if is1 > 0.0 or is1 != is1 else 0.0
            i_a = ia1 if ia1 > 0.0 or ia1 != ia1 else 0.0
            r = r1 if r1 > 0.0 or r1 != r1 else 0.0
            b = b1 if b1 > 0.0 or b1 != b1 else 0.0
            if k % stride == 0 or k == n_steps:
                row += 1
                states[row] = s, e, i_s, i_a, r, b
        ok = np.isfinite(states[lo:row + 1]).all(axis=1)
        if not ok.all():
            t = times[lo + ok.argmin()]
            raise IntegrationError(f"non-finite state at t={t:.6g}")
    return Trajectory(times=times, states=states)


def iter_path_blocks(
    p: ModelParams,
    init: HerdState,
    cfg: SimConfig,
    noise: NoiseIntensities,
    streams: Sequence[NoiseStream],
) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """Step-synchronous Euler-Maruyama engine behind the ensembles.

    Yields (times, states) once per engine block that records anything:
    `times` holds the block's recorded times and `states` has shape
    (len(times), n_paths, 6). The first yield is the initial state at
    t = 0 alone. Recorded rows come in grid order, so concatenating the
    blocks gives the full recorded trajectory of every path. Each path
    consumes its own stream and all paths advance together on arrays;
    for a deterministic run, use `integrate_ode`. Each yielded block
    is a fresh array that the engine never reads again, so a consumer
    may keep it or reorder it in place (`run_ensemble` sorts it).

    A block spans _BLOCK_STEPS steps, so memory is two blocks of noise
    (the ring) and one block of recorded rows over all paths: the step
    loop tests the rule of `SimConfig.recorded_steps` at each step, as
    the single-path loops do. Block length never changes a value,
    because each path's stream is consumed in order.

    A run of more than one block forks one noise helper process, a
    `process.Ring` of two slots, one engine block of noise each. Right
    after it steps block j, this process draws the uniforms of the last
    P - w paths of block j + 2 into the slot it has just used and hands
    it over; the helper draws those of paths [0, w), w =
    `_helper_share(n_paths)`, and turns the whole slot into increments
    (`_to_increments`, the noise path's one import of scipy's `ndtri`,
    see `_special`), so this process never loads it. The helper is reaped
    when the generator finishes, fails or is closed. For a one-block
    run, and when `process.fork_child` declines (no `os.fork`, one
    usable CPU, other Python threads, a failed fork), the helper's part
    runs here as each slot is handed over. Each path's stream is
    consumed in order by one process alone, and every element gets the
    same clamp, `ndtri` and scaling, so neither changes a value.

    If a recorded state is non-finite, the rows before it are yielded
    as a shorter block and IntegrationError is raised.
    """
    if not streams:
        raise ValueError("stochastic runs need at least one NoiseStream")
    n_paths = len(streams)
    gens = [st._generator() for st in streams]
    c = rate_coefficients(p)

    dt = cfg.dt
    sqrt_dt = math.sqrt(dt)
    n_steps, stride = cfg.n_steps(), cfg.record_stride
    x0 = init.as_array()

    chunk = _PathChunk(x0, noise.as_tuple(), c, n_paths, dt)

    # The ring: two blocks of noise that a forked helper writes too.
    slots = shared_array((2, _BLOCK_STEPS, _N_NOISE, n_paths))
    starts = range(0, n_steps, _BLOCK_STEPS)
    lengths = [min(_BLOCK_STEPS, n_steps - k0) for k0 in starts]
    w = _helper_share(n_paths) if len(lengths) > 1 else 0

    def make_increments(j: int, _: int) -> None:
        z = slots[j % 2][:lengths[j]]
        _fill_uniforms(z[:, :, :w], gens[:w])
        _to_increments(z, sqrt_dt)

    def hand_over(j: int) -> None:
        # Draw paths [w, P) of block j into its slot and hand it over;
        # nothing past the last block.
        if j < len(lengths):
            z = slots[ring.slot()][:lengths[j]]
            _fill_uniforms(z[:, :, w:], gens[w:])
            ring.put(1)

    with Ring(make_increments, 2, "noise helper process", fork=w > 0) as ring:
        hand_over(0)
        hand_over(1)
        yield np.zeros(1), np.tile(x0, (1, n_paths, 1))
        for j, (k0, m) in enumerate(zip(starts, lengths)):
            z = slots[ring.take()][:m]
            # The steps in (k0, k0 + m] that the rule records.
            ks = list(range(k0 + stride - k0 % stride, k0 + m + 1, stride))
            if k0 + m == n_steps and n_steps % stride:
                ks.append(n_steps)
            buf = np.empty((len(ks), n_paths, 6))
            chunk.advance(z, k0, stride, n_steps, buf)
            hand_over(j + 2)
            if ks:
                yield from _finite_rows(np.array(ks) * dt, buf)
        ring.finish()


def iter_path_states(
    p: ModelParams,
    init: HerdState,
    cfg: SimConfig,
    noise: NoiseIntensities,
    streams: Sequence[NoiseStream],
    threads: int = 1,
) -> Iterator[tuple[float, np.ndarray]]:
    """Per-row view of `iter_path_blocks`.

    Yields (t, states) at every recorded time, `states` of shape
    (n_paths, 6). Each is a view into a block that the engine never
    reads again (see `iter_path_blocks`), so it may be kept as it is.
    `threads` is accepted and ignored: one process steps every path
    (see README, `--threads`).
    """
    for times, blk in iter_path_blocks(p, init, cfg, noise, streams):
        yield from zip(times.tolist(), blk)


def _rk4_step(s, e, i_s, i_a, r, b, c: RateCoefficients, dt, half, sixth) -> tuple:
    # One classical RK4 step of `rates` on floats.
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


def integrate_ode(p: ModelParams, init: HerdState, cfg: SimConfig) -> Trajectory:
    """Deterministic trajectory of the herd model by classical RK4.

    Stepped on plain floats: on one 6-vector, numpy call overhead costs
    more than the arithmetic. A negative component is clamped to 0
    (-0.0 stays).
    """
    c = rate_coefficients(p)
    dt = cfg.dt
    half = 0.5 * dt
    sixth = dt / 6.0
    n_steps, stride = cfg.n_steps(), cfg.record_stride
    times = cfg.recorded_steps() * dt
    states = np.empty((len(times), 6))

    x = init.as_array().tolist()
    states[0] = x
    row = 0  # the last row written
    for k in range(1, n_steps + 1):
        x = _rk4_step(*x, c, dt, half, sixth)
        if min(x) < 0.0:
            x = [0.0 if v < 0.0 else v for v in x]
        if k % stride == 0 or k == n_steps:
            if not math.isfinite(x[0] + x[1] + x[2] + x[3] + x[4] + x[5]):
                raise IntegrationError(f"non-finite state at t={k * dt:.6g}")
            row += 1
            states[row] = x
    return Trajectory(times=times, states=states)


def rk4_peaks(
    c: RateCoefficients, init: HerdState, cfg: SimConfig, column: int
) -> np.ndarray:
    """Peaks of one compartment over n RK4 runs integrated together.

    Every field of `c` is an (n,) array, one parameter set per entry
    (see `model.rate_coefficients`). Entry i of the result is the
    maximum of compartment `column` over the recorded times of the run
    from `init` under parameter set i: bit for bit
    `integrate_ode(params_i, init, cfg).states[:, column].max()`. The
    clamp and the non-finite check act per entry as in that run. The
    one difference, after S turns NaN, never shows: the scalar run then
    leaves the other components unclamped, but S feeds every compartment
    within the next step, so the first non-finite recorded row is the
    same. An entry whose run would raise IntegrationError is NaN
    instead; that run's `integrate_ode` gives the message.
    """
    (n,) = np.broadcast(*c).shape
    dt = cfg.dt
    half = 0.5 * dt
    sixth = dt / 6.0
    n_steps, stride = cfg.n_steps(), cfg.record_stride

    x = np.repeat(init.as_array()[:, None], n, axis=1)
    peak = x[column].copy()
    k1, k2, k3, k4, xi = (np.empty((6, n)) for _ in range(5))
    bind = rates_rows(c, n)
    f1, f2, f3, f4 = bind(x, k1), bind(xi, k2), bind(xi, k3), bind(xi, k4)
    # Every operand is an array: a Python float costs each call more.
    half_a, dt_a, two, sixth_a = (np.full((6, n), v) for v in (half, dt, 2.0, sixth))
    add, multiply = np.add, np.multiply
    # Runs that already failed keep stepping; their values are unused.
    with np.errstate(all="ignore"):
        for k in range(1, n_steps + 1):
            # `_rk4_step` on the stacked state: each element sees the
            # same operations in the same order.
            f1()
            multiply(k1, half_a, xi)
            add(xi, x, xi)
            f2()
            multiply(k2, half_a, xi)
            add(xi, x, xi)
            f3()
            multiply(k3, dt_a, xi)
            add(xi, x, xi)
            f4()
            multiply(k2, two, k2)
            add(k1, k2, k1)
            multiply(k3, two, k3)
            add(k1, k3, k1)
            add(k1, k4, k1)
            multiply(k1, sixth_a, k1)
            add(k1, x, x)
            neg = x < 0.0
            if neg.any():
                x[neg] = 0.0
            if k % stride == 0 or k == n_steps:
                # A failed run's NaN peak stays NaN under np.maximum.
                tot = x[0] + x[1] + x[2] + x[3] + x[4] + x[5]
                peak[~np.isfinite(tot)] = np.nan
                np.maximum(peak, x[column], out=peak)
    return peak
