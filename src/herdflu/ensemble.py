"""Monte Carlo ensembles over independent noise paths.

Path i of an ensemble is driven by NoiseStream(master_seed, i), so the
set of trajectories is fixed by the master seed alone. All paths are
advanced step-synchronously, and each engine block of recorded rows,
shaped (rows, paths, 6), is reduced to per-time mean, standard deviation
and quantile bands at once, along the path axis. `iter_summary_blocks`
yields the statistics of each block before the engine fills the next,
so a consumer that writes them out (the `ensemble` command's CSV) holds
one block of paths and no summary grid; `run_ensemble` gathers them
into an `EnsembleSummary`, O(grid). Because the reductions always see
the same assembled block, every block length produces identical bytes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Iterator

import numpy as np

from .integrate import _BLOCK_STEPS, NoiseStream, SimConfig, iter_path_blocks
from .model import HerdState, ModelParams, NoiseIntensities

# Ensemble quantile levels: central 95% band plus the median.
QUANTILES = (0.025, 0.5, 0.975)

# A path with fewer than one infected head (E + I_s + I_a) counts as
# extinct for reporting purposes.
EXTINCTION_THRESHOLD = 1.0

# The statistics of each (time, compartment), in the ensemble CSV's
# order. A summary row is the time, then these five of each compartment
# in model order: SUMMARY_COLUMNS floats.
SUMMARY_STATS = ("mean", "std", "q025", "q50", "q975")
SUMMARY_COLUMNS = 1 + 6 * len(SUMMARY_STATS)


@dataclass(frozen=True)
class SummaryBlock:
    """The statistics of consecutive recorded times of an ensemble.

    `rows` has one summary row per time (see SUMMARY_COLUMNS), the
    fields of the ensemble CSV's six lines for that time.
    `extinct_fraction` is the share of paths extinct at the block's last
    time (see `EnsembleSummary`).
    """

    rows: np.ndarray
    extinct_fraction: float


@dataclass(frozen=True)
class EnsembleSummary:
    """Per-time cross-path statistics of an ensemble.

    All arrays have one row per recorded time and one column per
    compartment. `std` is the population standard deviation (ddof 0);
    quantiles interpolate linearly between order statistics.
    `extinct_fraction` is the share of paths whose infected load
    E + I_s + I_a is below EXTINCTION_THRESHOLD at the final recorded
    time.
    """

    times: np.ndarray
    mean: np.ndarray
    std: np.ndarray
    q025: np.ndarray
    q50: np.ndarray
    q975: np.ndarray
    n_paths: int
    master_seed: int
    extinct_fraction: float

    def __post_init__(self) -> None:
        shape = (len(self.times), 6)
        for name in SUMMARY_STATS:
            if getattr(self, name).shape != shape:
                raise ValueError(f"{name} must have shape {shape}")
        if self.n_paths < 1:
            raise ValueError("n_paths must be >= 1")
        if not 0.0 <= self.extinct_fraction <= 1.0:
            raise ValueError("extinct_fraction must lie in [0, 1]")

    def blocks(self) -> Iterator[SummaryBlock]:
        """The summary as `SummaryBlock`s of an engine block's length,
        _BLOCK_STEPS rows, the last one shorter."""
        stats = [getattr(self, name) for name in SUMMARY_STATS]
        for a in range(0, len(self.times), _BLOCK_STEPS):
            b = min(a + _BLOCK_STEPS, len(self.times))
            rows = np.empty((b - a, SUMMARY_COLUMNS))
            rows[:, 0] = self.times[a:b]
            rows[:, 1:] = np.stack([x[a:b] for x in stats], axis=-1).reshape(b - a, -1)
            yield SummaryBlock(rows, self.extinct_fraction)


def _infected_load(states: np.ndarray) -> np.ndarray:
    # E + I_s + I_a over the last (compartment) axis; the reservoir is
    # not a host class.
    return states[..., 1] + states[..., 2] + states[..., 3]


def _sorted_quantiles(srt: np.ndarray, outs: tuple[np.ndarray, ...]) -> None:
    """Write the QUANTILES of `srt`, sorted along axis 1, into `outs`,
    one array per level.

    Linear interpolation between order statistics (Hyndman & Fan 1996,
    definition 7) with numpy's positions and weights, so on finite data
    the values are those of `np.quantile(method="linear")` bit for bit:
    at h = (n - 1)*p the quantile is a + (b - a)*g, or b - (b - a)*(1 - g)
    when g >= 0.5 (numpy's `_lerp`), with a and b the order statistics
    around h and g its fractional part.
    """
    n = srt.shape[1]
    for q, p in zip(outs, QUANTILES):
        h = (n - 1) * p
        if h < n - 1:
            lo = math.floor(h)
            hi, g = lo + 1, h - lo
        else:
            # Only at n = 1: numpy takes the one value as the upper
            # neighbour with weight 1, which keeps a -0.0.
            lo = hi = n - 1
            g = 1.0
        a = srt[:, lo]
        b = srt[:, hi]
        d = b - a
        if g >= 0.5:
            d *= 1.0 - g
            np.subtract(b, d, q)
        else:
            d *= g
            np.add(a, d, q)


def iter_summary_blocks(
    p: ModelParams,
    n: NoiseIntensities,
    init: HerdState,
    cfg: SimConfig,
    n_paths: int,
    master_seed: int,
    *,
    on_block: Callable[[np.ndarray, np.ndarray], None] | None = None,
) -> Iterator[SummaryBlock]:
    """Integrate n_paths stochastic paths and yield their per-time
    statistics, one `SummaryBlock` per engine block (see
    `iter_path_blocks`), in grid order.

    The engine computes the next block only when the caller asks for
    it, so a caller that writes each block out holds no summary grid.
    `on_block`, if given, is called with every engine block
    `(times, states)` before the reduction reorders it, so a caller can
    consume the paths of the same run. Closing the generator ends the
    engine and its noise helper.
    """
    if not isinstance(n_paths, int) or n_paths < 1:
        raise ValueError(f"n_paths must be an integer >= 1, got {n_paths!r}")
    streams = [NoiseStream(master_seed, i) for i in range(n_paths)]
    it = iter_path_blocks(p, init, cfg, noise=n, streams=streams)
    for t_blk, blk in it:
        rows = np.empty((len(blk), SUMMARY_COLUMNS))
        rows[:, 0] = t_blk
        # Each statistic as a (rows, 6) view into the summary rows.
        mean, std, q025, q50, q975 = np.moveaxis(
            rows[:, 1:].reshape(len(blk), 6, len(SUMMARY_STATS)), -1, 0)
        # Moments of the deviations from path 0, not of the raw values:
        # numpy's sequential sum over the path axis rounds even when
        # every path is identical, and bit-identical paths must report
        # exactly zero spread (and a one-path mean must equal that path
        # bitwise). The deviations are one C-contiguous (paths, rows, 6)
        # copy, so each sum adds whole (rows, 6) planes in path order.
        base = blk[:, 0]
        dev = np.empty((blk.shape[1], len(blk), 6))
        np.subtract(blk.transpose(1, 0, 2), base, out=dev)
        dm = np.add.reduce(dev, axis=0) / len(dev)
        np.add(base, dm, out=mean)
        np.multiply(dev, dev, out=dev)
        var = np.add.reduce(dev, axis=0) / len(dev) - dm * dm
        np.sqrt(np.maximum(var, 0.0), out=std)
        # Per path, so before the sort.
        extinct = float(np.mean(_infected_load(blk[-1]) < EXTINCTION_THRESHOLD))
        if on_block is not None:
            on_block(t_blk, blk)
        # The reducer sorts the engine's block in place along the path
        # axis and reads the quantiles off as order statistics: the
        # engine's blocks are finite, so these are np.quantile's values
        # bit for bit (see `_sorted_quantiles`).
        blk.sort(axis=1)
        _sorted_quantiles(blk, (q025, q50, q975))
        # Drop the block, its path-0 view and the deviations before the
        # engine fills the next block.
        del blk, base, dev
        yield SummaryBlock(rows, extinct)


def run_ensemble(
    p: ModelParams,
    n: NoiseIntensities,
    init: HerdState,
    cfg: SimConfig,
    n_paths: int,
    master_seed: int,
    threads: int = 1,
    *,
    on_block: Callable[[np.ndarray, np.ndarray], None] | None = None,
) -> EnsembleSummary:
    """Integrate n_paths stochastic paths and reduce them per time: the
    blocks of `iter_summary_blocks`, gathered into one summary.

    A one-path ensemble reproduces the corresponding `integrate_sde`
    trajectory exactly; with all intensities zero every path coincides
    and the standard deviation is identically 0.

    `on_block` is passed on to `iter_summary_blocks`. `threads` is
    accepted and ignored: one process steps every path (see README,
    `--threads`).
    """
    n_rec = -(-cfg.n_steps() // cfg.record_stride) + 1  # len(cfg.recorded_steps())
    times = np.empty(n_rec)
    stats = [np.empty((n_rec, 6)) for _ in SUMMARY_STATS]
    i = 0
    for block in iter_summary_blocks(p, n, init, cfg, n_paths, master_seed,
                                     on_block=on_block):
        j = i + len(block.rows)
        times[i:j] = block.rows[:, 0]
        cols = block.rows[:, 1:].reshape(j - i, 6, len(SUMMARY_STATS))
        for k, x in enumerate(stats):
            x[i:j] = cols[:, :, k]
        i = j
    return EnsembleSummary(
        times, *stats, n_paths=n_paths, master_seed=master_seed,
        # The last block's value stands.
        extinct_fraction=block.extinct_fraction,
    )


def extinction_fraction(
    p: ModelParams,
    n: NoiseIntensities,
    init: HerdState,
    cfg: SimConfig,
    n_paths: int,
    master_seed: int,
    threshold: float = EXTINCTION_THRESHOLD,
    by_time: float | None = None,
) -> float:
    """Fraction of paths extinct from `by_time` onwards.

    A path counts as extinct when its infected load E + I_s + I_a stays
    below `threshold` at every recorded time >= by_time (default: the
    final recorded time only). Nondecreasing in `threshold` on a fixed
    ensemble.
    """
    if not isinstance(n_paths, int) or n_paths < 1:
        raise ValueError(f"n_paths must be an integer >= 1, got {n_paths!r}")
    if not (math.isfinite(threshold) and threshold >= 0.0):
        raise ValueError(f"threshold must be finite and >= 0, got {threshold!r}")
    t_last = cfg.n_steps() * cfg.dt
    if by_time is None:
        by_time = t_last
    if not math.isfinite(by_time):
        raise ValueError(f"by_time must be finite, got {by_time!r}")
    # Small slack so by_time = t_end matches the last grid point even
    # when t_end is not an exact float multiple of dt.
    cut = by_time - 1e-9 * max(1.0, abs(by_time))
    if cut > t_last:
        raise ValueError(
            f"by_time {by_time!r} lies beyond the last recorded time {t_last!r}"
        )
    streams = [NoiseStream(master_seed, i) for i in range(n_paths)]
    extinct = np.ones(n_paths, dtype=bool)
    it = iter_path_blocks(p, init, cfg, noise=n, streams=streams)
    for times, blk in it:
        # A block before the cut selects no rows, and all() of none is True.
        extinct &= (_infected_load(blk[times >= cut]) < threshold).all(axis=0)
        del blk
    return float(extinct.mean())
