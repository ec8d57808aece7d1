"""Global sensitivity analysis: Latin hypercube sampling and PRCC.

`lhs_sample` stratifies each parameter's range into n equal-probability
bins and places exactly one draw in every bin, with an independent
random bin permutation per parameter. `prcc` computes partial rank
correlation coefficients: both the parameter column and the model
output are rank transformed, the ranks of all other parameters are
regressed out of each, and the residuals are correlated. Rank
transformation makes the result invariant under strictly monotone
rescaling of inputs or output.

Significance uses the t statistic

    t = prcc * sqrt((n - 2 - (k - 1)) / (1 - prcc**2))

on n - 2 - (k - 1) degrees of freedom, k - 1 being the number of
controlled parameters.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields, replace
from types import SimpleNamespace

import numpy as np

from .integrate import IntegrationError, SimConfig, integrate_ode, rk4_peaks
from .model import (
    BASELINE_PARAMS,
    COMPARTMENTS,
    PARAM_KEYS,
    HerdState,
    ModelParams,
    default_init,
    r0_closed_form,
    rate_coefficients,
)

ALPHA = 0.05  # two-sided significance level

# Parameters the reproduction number actually depends on; recruitment
# and the half-saturation constant can be added explicitly if wanted.
R0_PARAM_KEYS = (
    "mu", "beta_s", "beta_a", "beta_b", "sigma", "nu",
    "gamma", "delta", "d", "omega_s", "omega_a", "epsilon",
)

# Residual spread below this is treated as a degenerate regression
# (constant or duplicated column) rather than signal.
_DEGENERATE_TOL = 1e-9


class ParamRanges:
    """Ordered {parameter key: (low, high)} bounds for sampling.

    Keys use the config vocabulary (see model.PARAM_KEYS). A width-zero
    range freezes that parameter; PRCC then reports it as degenerate
    instead of failing.
    """

    def __init__(self, bounds: dict[str, tuple[float, float]]):
        if not bounds:
            raise ValueError("at least one parameter range is required")
        clean: dict[str, tuple[float, float]] = {}
        for key, (lo, hi) in bounds.items():
            if key not in PARAM_KEYS:
                raise ValueError(f"unknown parameter key {key!r}")
            lo, hi = float(lo), float(hi)
            if not (math.isfinite(lo) and math.isfinite(hi)):
                raise ValueError(f"{key}: bounds must be finite")
            if lo > hi:
                raise ValueError(f"{key}: low {lo!r} exceeds high {hi!r}")
            if lo < 0.0:
                raise ValueError(f"{key}: bounds must be >= 0")
            if key == "nu" and hi > 1.0:
                raise ValueError(f"nu bounds must stay within [0, 1], got {hi!r}")
            if key in ("mu", "k", "epsilon") and lo <= 0.0:
                raise ValueError(f"{key}: lower bound must be > 0")
            clean[key] = (lo, hi)
        self._bounds = clean

    @property
    def names(self) -> tuple[str, ...]:
        return tuple(self._bounds)

    def __len__(self) -> int:
        return len(self._bounds)

    def __getitem__(self, key: str) -> tuple[float, float]:
        return self._bounds[key]

    def items(self):
        return self._bounds.items()

    def as_array(self) -> np.ndarray:
        """(k, 2) array of (low, high) rows in key order."""
        return np.array([self._bounds[k] for k in self._bounds], dtype=float)


def default_ranges(
    base: ModelParams = BASELINE_PARAMS,
    rel: float = 0.5,
    keys: tuple[str, ...] = R0_PARAM_KEYS,
) -> ParamRanges:
    """Baseline +/- rel ranges for the given keys, nu clipped to [0, 1]."""
    if not 0.0 < rel < 1.0:
        raise ValueError(f"rel must lie in (0, 1), got {rel!r}")
    bounds = {}
    for key in keys:
        v = getattr(base, PARAM_KEYS[key])
        lo, hi = v * (1.0 - rel), v * (1.0 + rel)
        if key == "nu":
            hi = min(hi, 1.0)
        bounds[key] = (lo, hi)
    return ParamRanges(bounds)


def lhs_sample(ranges: ParamRanges, n: int, seed: int) -> np.ndarray:
    """Latin hypercube sample: (n, k) matrix, one draw per stratum.

    Column j partitions [low_j, high_j] into n equal strata and lands
    exactly once in each, at a uniform position within the stratum.
    Strata are permuted independently across columns; everything is a
    deterministic function of `seed`.
    """
    if not isinstance(n, int) or n < 1:
        raise ValueError(f"n must be an integer >= 1, got {n!r}")
    rng = np.random.default_rng(seed)
    k = len(ranges)
    out = np.empty((n, k))
    for j, (lo, hi) in enumerate(ranges.as_array()):
        bins = rng.permutation(n)
        u = rng.random(n)
        out[:, j] = lo + (hi - lo) * (bins + u) / n
    return out


@dataclass(frozen=True)
class ParamSensitivity:
    """PRCC result for one parameter. NaN marks a degenerate column."""

    name: str
    prcc: float
    p_value: float
    significant: bool


@dataclass(frozen=True)
class SensitivityReport:
    params: tuple[ParamSensitivity, ...]
    n_samples: int
    seed: int | None = None

    @property
    def names(self) -> tuple[str, ...]:
        return tuple(ps.name for ps in self.params)

    def by_name(self, name: str) -> ParamSensitivity:
        for ps in self.params:
            if ps.name == name:
                return ps
        raise KeyError(name)


def rank_average(a: np.ndarray) -> np.ndarray:
    """Ranks 1..n of a 1-d array, ties sharing their average rank.

    Matches scipy.stats.rankdata(a) (method "average"); any NaN makes
    every rank NaN.
    """
    a = np.asarray(a, dtype=float)
    if np.isnan(a).any():
        return np.full(a.shape, math.nan)
    order = np.argsort(a, kind="stable")
    ranked = a[order]
    # Each tie group spans sorted positions [start, end); its members
    # share the mean of ranks start + 1 .. end.
    starts = np.flatnonzero(np.r_[True, ranked[1:] != ranked[:-1]])
    ends = np.r_[starts[1:], len(a)]
    group = np.repeat(0.5 * (starts + ends + 1), ends - starts)
    out = np.empty(len(a))
    out[order] = group
    return out


def _residuals(v: np.ndarray, design: np.ndarray) -> np.ndarray:
    coef, *_ = np.linalg.lstsq(design, v, rcond=None)
    return v - design @ coef


def _check_sample_count(n: int, k: int) -> None:
    # The t test of k parameters has n - 2 - (k - 1) degrees of freedom.
    if n - 2 - (k - 1) < 1:
        raise ValueError(f"need n > k + 1 samples for PRCC, got n={n}, k={k}")


def prcc(
    samples: np.ndarray,
    outputs: np.ndarray,
    names: tuple[str, ...] | None = None,
    seed: int | None = None,
) -> SensitivityReport:
    """Partial rank correlation of each sample column with the output.

    A column whose rank residuals collapse (frozen parameter, exact
    duplicate of other columns) gets prcc = p_value = NaN and is never
    flagged significant.
    """
    samples = np.asarray(samples, dtype=float)
    outputs = np.asarray(outputs, dtype=float)
    if samples.ndim != 2:
        raise ValueError("samples must be an (n, k) matrix")
    n, k = samples.shape
    if outputs.shape != (n,):
        raise ValueError(f"outputs must have shape ({n},)")
    _check_sample_count(n, k)
    df = n - 2 - (k - 1)
    if names is None:
        names = tuple(f"x{j}" for j in range(k))
    if len(names) != k:
        raise ValueError("one name per sample column is required")

    # Imported here so that commands without a PRCC never load scipy's
    # kernels, about 0.02 s and 4.5 MB (see `_special`).
    from ._special import stdtr

    rank_x = np.column_stack([rank_average(samples[:, j]) for j in range(k)])
    rank_y = rank_average(outputs)

    rows = []
    for j in range(k):
        others = np.delete(rank_x, j, axis=1)
        design = np.column_stack([np.ones(n), others])
        rx = _residuals(rank_x[:, j], design)
        ry = _residuals(rank_y, design)
        sx = float(np.sqrt(np.dot(rx, rx)))
        sy = float(np.sqrt(np.dot(ry, ry)))
        if sx < _DEGENERATE_TOL * n or sy < _DEGENERATE_TOL * n:
            rows.append(ParamSensitivity(names[j], math.nan, math.nan, False))
            continue
        r = float(np.dot(rx, ry) / (sx * sy))
        r = max(-1.0, min(1.0, r))
        if abs(r) == 1.0:
            p = 0.0
        else:
            t = r * math.sqrt(df / (1.0 - r * r))
            # Upper t tail, as scipy.stats.t.sf(|t|, df) computes it.
            p = 2.0 * float(stdtr(df, -abs(t)))
        rows.append(ParamSensitivity(names[j], r, p, p < ALPHA))
    return SensitivityReport(params=tuple(rows), n_samples=n, seed=seed)


def _params_for_row(
    base: ModelParams, names: tuple[str, ...], row: np.ndarray
) -> ModelParams:
    fields = {PARAM_KEYS[name]: float(v) for name, v in zip(names, row)}
    return replace(base, **fields)


def sensitivity_of_r0(
    ranges: ParamRanges | None = None,
    n: int = 1000,
    seed: int = 0,
    base: ModelParams = BASELINE_PARAMS,
) -> SensitivityReport:
    """PRCC of the reproduction number over an LHS parameter sweep."""
    if ranges is None:
        ranges = default_ranges(base)
    _check_sample_count(n, len(ranges))
    samples = lhs_sample(ranges, n, seed)
    outputs = np.array(
        [r0_closed_form(_params_for_row(base, ranges.names, row)) for row in samples]
    )
    return prcc(samples, outputs, names=ranges.names, seed=seed)


def sensitivity_of_peak_symptomatic(
    ranges: ParamRanges | None = None,
    n: int = 100,
    seed: int = 0,
    base: ModelParams = BASELINE_PARAMS,
    cfg: SimConfig | None = None,
) -> SensitivityReport:
    """PRCC of the peak symptomatic count from deterministic runs.

    Every sample runs RK4 from a fixed near-DFE seed derived from
    `base`; all samples are integrated together on arrays, so the cost
    grows far slower than n. Each peak equals that of the sample's own
    `integrate_ode` run bit for bit; if any run would fail, the error
    names the first such sample in row order and carries its message.

    Too few samples for PRCC are refused before any run.
    """
    if ranges is None:
        ranges = default_ranges(base)
    _check_sample_count(n, len(ranges))
    if cfg is None:
        cfg = SimConfig(t_end=500.0, dt=0.1)
    init = default_init(base)
    samples = lhs_sample(ranges, n, seed)
    params = [_params_for_row(base, ranges.names, row) for row in samples]
    outputs = _checked_peaks(params, init, cfg)
    return prcc(samples, outputs, names=ranges.names, seed=seed)


def _checked_peaks(
    params: list[ModelParams], init: HerdState, cfg: SimConfig
) -> np.ndarray:
    """`_peak_symptomatic(params, init, cfg)`, unless a run fails.

    A failed run's peak is NaN (see `rk4_peaks`): the first such sample
    in row order is run again by `integrate_ode`, whose IntegrationError
    is raised with "sample i: " before its message.
    """
    peaks = _peak_symptomatic(params, init, cfg)
    failed = np.flatnonzero(np.isnan(peaks))
    if failed.size:
        i = int(failed[0])
        try:
            integrate_ode(params[i], init, cfg)
        except IntegrationError as exc:
            raise IntegrationError(f"sample {i}: {exc}") from None
    return peaks


def _peak_symptomatic(
    params: list[ModelParams], init: HerdState, cfg: SimConfig
) -> np.ndarray:
    columns = SimpleNamespace(**{
        f.name: np.array([getattr(q, f.name) for q in params], dtype=float)
        for f in fields(ModelParams)
    })
    return rk4_peaks(rate_coefficients(columns), init, cfg, COMPARTMENTS.index("I_s"))
