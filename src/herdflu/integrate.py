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

The ensemble engine (`iter_path_blocks`) draws part of its noise in a
forked helper process while the main process steps the paths; see
`_NoiseHelper`.
"""

from __future__ import annotations

import math
import os
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
    row_coefficients,
)

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
    z = np.empty((n_steps, _N_NOISE, 1))
    return _fill_normals(z, [gen], math.sqrt(dt))[:, :, 0]


def _fill_normals(
    z: np.ndarray, gens: Sequence[Generator], sqrt_dt: float
) -> np.ndarray:
    """Fill z, shaped (m, 5, len(gens)), with the next m steps of every
    stream's N(0, dt) increments, in place, and return it."""
    # Imported here so that commands without noise never load
    # scipy.special, a third of a second of start-up.
    from scipy.special import ndtri

    m = len(z)
    for i, g in enumerate(gens):
        u = g.random(_DOUBLES_PER_STEP * m).reshape(m, _DOUBLES_PER_STEP)
        z[:, :, i] = u[:, :_N_NOISE]
    np.maximum(z, _MIN_U, out=z)
    ndtri(z, out=z)
    z *= sqrt_dt
    return z


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


class _PathChunk:
    """Paths [lo, hi) of the engine with their state and buffers.

    The state is stacked compartment-major, (6, paths), and updated in
    place. Coefficients, temporaries, the bound drift and the row views
    are built once, and every operand is an array, so a step costs a
    fixed set of whole-array ufunc calls.
    """

    def __init__(self, x0: np.ndarray, sig: tuple, c: RateCoefficients,
                 lo: int, hi: int, dt: float):
        n = hi - lo
        self.lo, self.hi = lo, hi
        self.x = np.repeat(x0[:, None], n, axis=1)
        self.f = np.empty((6, n))
        self.drift = rates_rows(row_coefficients(c, n), n)(self.x, self.f)
        self.sig4 = np.repeat(np.array(sig[:4])[:, None], n, axis=1)
        self.sig_b = np.full(n, sig[4])
        self.dt = np.full((6, n), dt)
        self.zero = np.zeros((6, n))
        self.t4 = np.empty((4, n))
        self.tb = np.empty(n)

    def advance(self, z: np.ndarray, rec: dict[int, int],
                buf: np.ndarray | None) -> None:
        """Steps driven by z, the (steps, 5, n_paths) noise of every path;
        after step s (from 1), writes row rec[s] into buf[:, lo:hi]."""
        add, multiply = np.add, np.multiply
        x, f, drift, dt, zero = self.x, self.f, self.drift, self.dt, self.zero
        x4, xb, t4, tb = x[:4], x[5], self.t4, self.tb
        sig4, sig_b, lo, hi = self.sig4, self.sig_b, self.lo, self.hi
        z = z[:, :, lo:hi]
        for s_off, (dw4, dwb) in enumerate(zip(z[:, :4], z[:, 4]), 1):
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
            row = rec.get(s_off)
            if row is not None:
                buf[row, lo:hi] = x.T


def _helper_share(n_paths: int) -> int:
    """Paths [0, w) whose noise the helper process draws.

    Per step, the helper draws w paths of noise while the main process
    draws the other P - w and runs the step loop. Both take the same
    time when w*n = (P - w)*n + s, with n ~0.23 us of noise per
    path-step and s ~30 us for the step loop (2-vCPU Xeon, numpy 2.4,
    100 to 500 paths): w = P/2 + s/(2n) = P/2 + ~64. So at 100 paths
    the helper draws all the noise, and at 500 paths 314 of them.
    """
    return min(n_paths, n_paths // 2 + 64)


def _noise_ring(slot_steps: int, n_paths: int) -> list[np.ndarray]:
    """The engine's two noise slots, (slot_steps, 5, n_paths) each, in an
    anonymous shared mapping, so that a forked helper's writes reach
    this process."""
    import mmap

    shape = (slot_steps, _N_NOISE, n_paths)
    n = slot_steps * _N_NOISE * n_paths
    ring = mmap.mmap(-1, 2 * 8 * n)
    return [np.frombuffer(ring, count=n, offset=8 * n * s).reshape(shape)
            for s in (0, 1)]


class _NoiseHelper:
    """A forked process that draws the noise of paths [0, w).

    Engine block j of the run goes to slot j % 2 of the ring. The
    helper fills columns [0, w) of each block and sends one byte on
    `ready`; the main process fills columns [w, P) of the same slot,
    waits for that byte, steps the slot and sends one byte on `free`
    when the helper may fill it again with block j + 2. So the helper
    draws one block while the main process steps the other.
    Each path's stream is consumed in order by one process alone, so no
    value depends on w.

    The helper leaves through os._exit whatever happens, also on an
    exception or SIGINT: it never runs a caller's `finally` or atexit
    handler. It exits on EOF on `free` or EPIPE on `ready`, so it
    outlives a main process that dies by at most one block; `close`
    kills and reaps it.
    """

    def __init__(self, pid: int, ready: int, free: int, n_blocks: int):
        self.pid, self.ready, self.free = pid, ready, free
        self.n_blocks = n_blocks

    @classmethod
    def fork(cls, slots: list[np.ndarray], gens: Sequence[Generator],
             lengths: list[int], sqrt_dt: float) -> _NoiseHelper | None:
        """Start the helper on `gens`, paths [0, len(gens)); None if this
        process cannot fork."""
        import threading
        import warnings

        # A thread of this process could hold a lock that the child then
        # never sees released.
        if not hasattr(os, "fork") or threading.active_count() > 1:
            return None
        ready_r, ready_w = os.pipe()
        free_r, free_w = os.pipe()
        try:
            with warnings.catch_warnings():
                # Python >= 3.12 warns on fork() in a process with more
                # than one OS thread, and numpy's OpenBLAS pool is such
                # threads. The helper makes no BLAS call, so it never
                # waits on them.
                warnings.filterwarnings(
                    "ignore", category=DeprecationWarning,
                    message=r"This process \(pid=\d+\) is multi-threaded, "
                            r"use of fork\(\) may lead to deadlocks in the child\.")
                pid = os.fork()
        except OSError:
            for fd in (ready_r, ready_w, free_r, free_w):
                os.close(fd)
            return None
        if pid == 0:
            code = 1
            try:
                os.close(ready_r)
                os.close(free_w)
                w = len(gens)
                for j, h in enumerate(lengths):
                    if j >= 2 and not os.read(free_r, 1):
                        break
                    _fill_normals(slots[j % 2][:h, :, :w], gens, sqrt_dt)
                    os.write(ready_w, b"\1")
                code = 0
            except BrokenPipeError:
                code = 0
            except Exception:
                # The main process sees only the closed pipe.
                import traceback

                traceback.print_exc()
            finally:
                os._exit(code)
        os.close(ready_w)
        os.close(free_r)
        return cls(pid, ready_r, free_w, len(lengths))

    def wait(self) -> None:
        """Block until the helper has filled its part of the next block."""
        if not os.read(self.ready, 1):
            raise ChildProcessError("the noise helper process ended before the run")

    def release(self, j: int) -> None:
        """Hand the slot of block j, just stepped, back to the helper if
        it still needs it for block j + 2."""
        if j + 2 < self.n_blocks:
            try:
                os.write(self.free, b"\1")
            except BrokenPipeError:
                raise ChildProcessError(
                    "the noise helper process ended before the run") from None

    def close(self) -> None:
        """Close both pipes, end the helper and reap it."""
        import signal

        os.close(self.ready)
        os.close(self.free)
        # A process forked from this one during the run holds copies of
        # the pipe ends, so the helper may never see EOF. Until it is
        # reaped, its pid cannot name another process.
        os.kill(self.pid, signal.SIGKILL)
        os.waitpid(self.pid, 0)


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
    n_steps = cfg.n_steps()
    recorded = cfg.recorded_steps()
    rec_at = {int(k): i for i, k in enumerate(recorded)}
    times = recorded * dt
    states = np.empty((len(recorded), 6))
    sg_s, sg_e, sg_is, sg_ia, sg_b = n.as_tuple()
    gens = [stream._generator()]
    sqrt_dt = math.sqrt(dt)

    states[0] = init.as_array()
    s, e, i_s, i_a, r, b = states[0].tolist()
    for k0 in range(0, n_steps, _BLOCK_STEPS):
        m = min(_BLOCK_STEPS, n_steps - k0)
        z = _fill_normals(np.empty((m, _N_NOISE, 1)), gens, sqrt_dt)
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
            i = rec_at.get(k)
            if i is not None:
                states[i] = s, e, i_s, i_a, r, b
        lo, hi = np.searchsorted(recorded, (k0, k0 + m), side="right")
        ok = np.isfinite(states[lo:hi]).all(axis=1)
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
    threads: int = 1,
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
    (the ring, see `_NoiseHelper`) and one block of recorded rows over
    all paths. Block length never changes a value, because each path's
    stream is consumed in order.

    A run of more than one block forks one helper process that draws
    the noise of the first `_helper_share(n_paths)` paths while this
    process draws the rest and steps the paths (see `_NoiseHelper`);
    the helper is reaped when the generator finishes, fails or is
    closed. Without `os.fork`, when fork fails, or when this process
    runs other Python threads, all the noise is drawn here. Neither
    changes a value.

    If a recorded state is non-finite, the rows before it are yielded
    as a shorter block and IntegrationError is raised.

    Thread count only partitions the path axis, never the arithmetic,
    so results are identical for every `threads` value.
    """
    if not streams:
        raise ValueError("stochastic runs need at least one NoiseStream")
    n_paths = len(streams)
    gens = [st._generator() for st in streams]
    c = rate_coefficients(p)

    dt = cfg.dt
    sqrt_dt = math.sqrt(dt)
    n_steps = cfg.n_steps()
    recorded = cfg.recorded_steps()
    x0 = init.as_array()

    threads = max(1, min(int(threads), n_paths))
    bounds = np.linspace(0, n_paths, threads + 1).astype(int).tolist()
    chunks = [
        _PathChunk(x0, noise.as_tuple(), c, a, b, dt)
        for a, b in zip(bounds[:-1], bounds[1:])
    ]

    w = _helper_share(n_paths) if n_steps > _BLOCK_STEPS else 0
    slots = _noise_ring(_BLOCK_STEPS, n_paths)
    starts = range(0, n_steps, _BLOCK_STEPS)
    helper = None
    if w:
        lengths = [min(_BLOCK_STEPS, n_steps - k0) for k0 in starts]
        helper = _NoiseHelper.fork(slots, gens[:w], lengths, sqrt_dt)
        if helper is None:
            w = 0
    pool = None
    try:
        yield np.zeros(1), np.tile(x0, (1, n_paths, 1))
        if threads > 1:
            from concurrent.futures import ThreadPoolExecutor

            pool = ThreadPoolExecutor(max_workers=threads)
        for j, k0 in enumerate(starts):
            m = min(_BLOCK_STEPS, n_steps - k0)
            z = slots[j % 2][:m]
            if w < n_paths:
                _fill_normals(z[:, :, w:], gens[w:], sqrt_dt)
            if helper is not None:
                helper.wait()
            ks = _block_steps(recorded, k0, m)
            rec = {o: row for row, o in enumerate((ks - k0).tolist())}
            buf = np.empty((len(ks), n_paths, 6)) if rec else None

            def job(chunk: _PathChunk) -> None:
                chunk.advance(z, rec, buf)

            if pool is None:
                job(chunks[0])
            else:
                list(pool.map(job, chunks))
            if helper is not None:
                helper.release(j)
            if rec:
                yield from _finite_rows(ks * dt, buf)
    finally:
        if pool is not None:
            pool.shutdown()
        if helper is not None:
            helper.close()


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
    (n_paths, 6). Yielded arrays are views into the engine's block
    buffers; copy them to retain.
    """
    for times, blk in iter_path_blocks(p, init, cfg, noise, streams, threads):
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
    n_steps = cfg.n_steps()
    recorded = cfg.recorded_steps()
    rec_at = {int(k): i for i, k in enumerate(recorded)}
    times = recorded * dt
    states = np.empty((len(recorded), 6))

    x = init.as_array().tolist()
    states[0] = x
    for k in range(1, n_steps + 1):
        x = _rk4_step(*x, c, dt, half, sixth)
        if min(x) < 0.0:
            x = [0.0 if v < 0.0 else v for v in x]
        i = rec_at.get(k)
        if i is not None:
            if not math.isfinite(x[0] + x[1] + x[2] + x[3] + x[4] + x[5]):
                raise IntegrationError(f"non-finite state at t={k * dt:.6g}")
            states[i] = x
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
    same. If any run would raise, IntegrationError is raised for the
    first such entry with that run's message, prefixed by "sample i: ".
    """
    (n,) = np.broadcast(*c).shape
    rc = row_coefficients(c, n)
    dt = cfg.dt
    half = 0.5 * dt
    sixth = dt / 6.0
    rec = set(cfg.recorded_steps().tolist())
    errors: dict[int, str] = {}

    x = np.repeat(init.as_array()[:, None], n, axis=1)
    peak = x[column].copy()
    k1, k2, k3, k4, xi = (np.empty((6, n)) for _ in range(5))
    bind = rates_rows(rc, n)
    f1, f2, f3, f4 = bind(x, k1), bind(xi, k2), bind(xi, k3), bind(xi, k4)
    # Every operand is an array: a Python float costs each call more.
    half_a, dt_a, two, sixth_a = (np.full((6, n), v) for v in (half, dt, 2.0, sixth))
    add, multiply = np.add, np.multiply
    # Runs that already failed keep stepping; their values are unused.
    with np.errstate(all="ignore"):
        for k in range(1, cfg.n_steps() + 1):
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
            if k in rec:
                tot = x[0] + x[1] + x[2] + x[3] + x[4] + x[5]
                for i in np.flatnonzero(~np.isfinite(tot)).tolist():
                    errors.setdefault(i, f"non-finite state at t={k * dt:.6g}")
                np.maximum(peak, x[column], out=peak)
    if errors:
        i = min(errors)
        raise IntegrationError(f"sample {i}: {errors[i]}")
    return peak
