"""Compartmental herd model of avian influenza in dairy cattle.

Hosts move through susceptible (S), exposed (E), symptomatic infectious
(I_s), asymptomatic infectious (I_a) and removed (R) classes. Infectious
cattle shed virus into an environmental reservoir (B) which infects
susceptibles through a saturating dose-response term B/(K + B). Direct
transmission is frequency dependent in the live herd size
N = S + E + I_s + I_a + R (the reservoir is not a host class and is
excluded from N).

The deterministic skeleton is

    dS   = Lambda - lam*S - mu*S
    dE   = lam*S - (sigma + mu)*E
    dI_s = nu*sigma*E - (mu + d + gamma)*I_s
    dI_a = (1 - nu)*sigma*E - (mu + d + delta)*I_a
    dR   = gamma*I_s + delta*I_a - mu*R
    dB   = omega_s*I_s + omega_a*I_a - eps*B

with infection pressure

    lam = beta_s*I_s/N + beta_a*I_a/N + beta_b*B/(K + B).

The stochastic variant perturbs every compartment except R with
multiplicative noise sig_X * X * dW_X (see the integrators in
`herdflu.integrate`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from typing import Any, Callable, NamedTuple

import numpy as np

# Compartment order used for every array, CSV column and noise vector.
COMPARTMENTS = ("S", "E", "I_s", "I_a", "R", "B")

# Config/CSV key for each ModelParams field, in declaration order.
PARAM_KEYS = {
    "lambda": "lambda_recruit",
    "mu": "mu",
    "beta_s": "beta_s",
    "beta_a": "beta_a",
    "beta_b": "beta_b",
    "k": "k_half",
    "sigma": "sigma_prog",
    "nu": "nu",
    "gamma": "gamma_rem",
    "delta": "delta_rem",
    "d": "d_dis",
    "omega_s": "omega_s",
    "omega_a": "omega_a",
    "epsilon": "eps_decay",
}

NOISE_KEYS = {
    "sig_s": "sig_S",
    "sig_e": "sig_E",
    "sig_is": "sig_Is",
    "sig_ia": "sig_Ia",
    "sig_b": "sig_B",
}


@dataclass(frozen=True)
class ModelParams:
    """Rate constants of the herd model. Validated eagerly on construction."""

    lambda_recruit: float  # cattle/day recruited into S
    mu: float              # 1/day natural removal (cull/turnover)
    beta_s: float          # 1/day direct transmission from I_s
    beta_a: float          # 1/day direct transmission from I_a
    beta_b: float          # 1/day environmental transmission ceiling
    k_half: float          # virus units at half-saturation of dose response
    sigma_prog: float      # 1/day progression E -> infectious
    nu: float              # fraction of progressions that are symptomatic
    gamma_rem: float       # 1/day recovery/removal of I_s
    delta_rem: float       # 1/day recovery/removal of I_a
    d_dis: float           # 1/day disease mortality (both infectious classes)
    omega_s: float         # virus units/(head*day) shed by I_s
    omega_a: float         # virus units/(head*day) shed by I_a
    eps_decay: float       # 1/day environmental virus decay

    def __post_init__(self) -> None:
        for f in fields(self):
            v = getattr(self, f.name)
            if not (isinstance(v, (int, float)) and math.isfinite(v)):
                raise ValueError(f"{f.name} must be finite, got {v!r}")
            if v < 0:
                raise ValueError(f"{f.name} must be >= 0, got {v!r}")
        # Strictly positive rates keep N* = Lambda/mu, the dose response and
        # the reservoir decay well defined.
        if self.mu <= 0:
            raise ValueError("mu must be > 0")
        if self.k_half <= 0:
            raise ValueError("k_half must be > 0")
        if self.eps_decay <= 0:
            raise ValueError("eps_decay must be > 0")
        if not 0.0 <= self.nu <= 1.0:
            raise ValueError(f"nu must lie in [0, 1], got {self.nu!r}")


@dataclass(frozen=True)
class NoiseIntensities:
    """Multiplicative noise intensities, one Wiener process per compartment.

    R carries no noise of its own, so only five intensities exist. Units
    are 1/sqrt(day).
    """

    sig_S: float
    sig_E: float
    sig_Is: float
    sig_Ia: float
    sig_B: float

    def __post_init__(self) -> None:
        for f in fields(self):
            v = getattr(self, f.name)
            if not (isinstance(v, (int, float)) and math.isfinite(v)) or v < 0:
                raise ValueError(f"{f.name} must be finite and >= 0, got {v!r}")

    def as_tuple(self) -> tuple[float, float, float, float, float]:
        return (self.sig_S, self.sig_E, self.sig_Is, self.sig_Ia, self.sig_B)


@dataclass(frozen=True)
class HerdState:
    """Point state (S, E, I_s, I_a, R, B). Components finite and >= 0."""

    s: float
    e: float
    i_s: float
    i_a: float
    r: float
    b: float

    def __post_init__(self) -> None:
        for f in fields(self):
            v = getattr(self, f.name)
            if not (isinstance(v, (int, float)) and math.isfinite(v)) or v < 0:
                raise ValueError(f"{f.name} must be finite and >= 0, got {v!r}")

    def as_array(self) -> np.ndarray:
        return np.array(
            [self.s, self.e, self.i_s, self.i_a, self.r, self.b], dtype=float
        )

    @classmethod
    def from_array(cls, x: np.ndarray) -> "HerdState":
        s, e, i_s, i_a, r, b = (float(v) for v in x)
        return cls(s, e, i_s, i_a, r, b)


# Baseline scenario: a ~3000-head herd (Lambda/mu) with slow turnover.
BASELINE_PARAMS = ModelParams(
    lambda_recruit=30.0,
    mu=0.01,
    beta_s=0.005,
    beta_a=0.004,
    beta_b=0.002,
    k_half=500.0,
    sigma_prog=0.20,
    nu=0.50,
    gamma_rem=0.10,
    delta_rem=0.05,
    d_dis=0.01,
    omega_s=0.5,
    omega_a=0.4,
    eps_decay=0.10,
)

DEFAULT_NOISE = NoiseIntensities(0.05, 0.05, 0.05, 0.05, 0.05)


def default_init(p: ModelParams) -> HerdState:
    """Near-DFE seed: one exposed animal in an otherwise naive herd.

    (Lambda/mu - 1, 1, 0, 0, 0, 0); the herd must hold at least one
    animal for this to be a valid state.
    """
    return HerdState(p.lambda_recruit / p.mu - 1.0, 1.0, 0.0, 0.0, 0.0, 0.0)


def total_population(state: HerdState) -> float:
    """Live herd size N = S + E + I_s + I_a + R. Excludes the reservoir."""
    return state.s + state.e + state.i_s + state.i_a + state.r


class RateCoefficients(NamedTuple):
    """Rate constants of the vector field, in the form `rates` consumes.

    The composite rates are precomputed once per parameter set. Every
    field is a float for one parameter set, or an (n,) array holding n
    parameter sets side by side (`rates_rows` takes either).
    """

    lambda_recruit: Any
    mu: Any
    beta_s: Any
    beta_a: Any
    beta_b: Any
    k_half: Any
    out_e: Any   # sigma + mu
    prog_s: Any  # nu * sigma
    out_s: Any   # mu + d + gamma
    prog_a: Any  # (1 - nu) * sigma
    out_a: Any   # mu + d + delta
    gamma_rem: Any
    delta_rem: Any
    omega_s: Any
    omega_a: Any
    eps_decay: Any


def rate_coefficients(p: ModelParams) -> RateCoefficients:
    """Coefficients of `rates` for `p`.

    `p` may also be any object with the ModelParams field names whose
    values are (n,) arrays; the coefficients are then arrays too.
    """
    return RateCoefficients(
        lambda_recruit=p.lambda_recruit,
        mu=p.mu,
        beta_s=p.beta_s,
        beta_a=p.beta_a,
        beta_b=p.beta_b,
        k_half=p.k_half,
        out_e=p.sigma_prog + p.mu,
        prog_s=p.nu * p.sigma_prog,
        out_s=p.mu + p.d_dis + p.gamma_rem,
        prog_a=(1.0 - p.nu) * p.sigma_prog,
        out_a=p.mu + p.d_dis + p.delta_rem,
        gamma_rem=p.gamma_rem,
        delta_rem=p.delta_rem,
        omega_s=p.omega_s,
        omega_a=p.omega_a,
        eps_decay=p.eps_decay,
    )


def _pressure(n, i_s, i_a, b, c: RateCoefficients):
    # Per-susceptible infection pressure at live herd size n. With N = 0
    # every host class is 0, so the substituted denominator never
    # changes the value; it only avoids 0/0.
    den = n if n > 0.0 else 1.0
    return c.beta_s * i_s / den + c.beta_a * i_a / den + c.beta_b * b / (c.k_half + b)


def rates(s, e, i_s, i_a, r, b, c: RateCoefficients) -> tuple:
    """The deterministic vector field: (dS, dE, dI_s, dI_a, dR, dB).

    The float definition of the drift, over the float coefficients of
    one parameter set (see `rate_coefficients`). `rates_rows` evaluates
    the same expressions on stacked arrays, bit for bit.

    Summing the five host components gives
    Lambda - mu*N - d*(I_s + I_a): disease mortality acts on both
    infectious classes, all other flows are internal transfers.
    """
    (lam_r, mu, _, _, _, _, out_e, prog_s, out_s, prog_a, out_a,
     gam, dlt, ws, wa, eps) = c
    inc = _pressure(s + e + i_s + i_a + r, i_s, i_a, b, c) * s
    return (
        lam_r - inc - mu * s,
        inc - out_e * e,
        prog_s * e - out_s * i_s,
        prog_a * e - out_a * i_a,
        gam * i_s + dlt * i_a - mu * r,
        ws * i_s + wa * i_a - eps * b,
    )


def rates_rows(
    c: RateCoefficients, n: int
) -> Callable[[np.ndarray, np.ndarray], Callable[[], np.ndarray]]:
    """`rates` on stacked (6, n) states, rows in COMPARTMENTS order.

    The array definition of the drift. The fields of `c` are floats (one
    parameter set, shared by every column) or (n,) arrays (parameter set
    i drives column i). Returns `bind`, and `bind(x, out)` returns
    `drift()`, which writes the (6, n) drift at the current contents of
    the buffer x into the buffer out (the two must not overlap) and
    returns out. The temporaries are allocated here and the row views in
    `bind`, so a call of `drift` is a fixed sequence of whole-array
    ufunc calls. Every function bound by one `rates_rows` call shares
    its temporaries, so they must not run at the same time.

    Products of one shape are grouped into one call across compartments
    (the six loss terms, the two direct routes, the two progressions,
    the four shedding and removal inflows), and the inflows are built in
    out so that one subtraction of the losses finishes every row. Each
    element still sees the IEEE operations of `rates` in the same order,
    so each column equals `rates` of that column bit for bit.
    """
    add, subtract, multiply, divide = np.add, np.subtract, np.multiply, np.divide
    # Every coefficient is broadcast to an axis of length n, so each
    # product is of arrays of one shape (numpy charges more for
    # broadcasting a (rows, 1) operand than for the product).
    a = np.array(np.broadcast_arrays(*c, np.empty(n))[:-1], dtype=float)
    i = RateCoefficients._fields.index
    # (6, n): mu, sigma+mu, mu+d+gamma, mu+d+delta, mu, eps
    k_loss = a[[i("mu"), i("out_e"), i("out_s"), i("out_a"), i("mu"), i("eps_decay")]]
    k_direct = a[[i("beta_s"), i("beta_a")]]
    k_prog = a[[i("prog_s"), i("prog_a")]]
    k_gain = a[[[i("gamma_rem"), i("delta_rem")], [i("omega_s"), i("omega_a")]]]
    k_lam, k_bb, k_half = a[i("lambda_recruit")], a[i("beta_b")], a[i("k_half")]
    loss = np.empty((6, n))
    n_live = np.empty(n)
    zero = np.zeros(n)
    live = np.empty(n, dtype=bool)
    direct = np.empty((2, n))
    d_s_route, d_a_route = direct
    env = np.empty(n)
    den = np.empty(n)
    g = np.empty((2, 2, n))
    g_s, g_a = g[:, 0], g[:, 1]

    def bind(x: np.ndarray, out: np.ndarray) -> Callable[[], np.ndarray]:
        s, e, i_s, i_a, r, b = x
        i_sa = x[2:4]
        d_s, inc, prog, gain = out[0], out[1], out[2:4], out[4:]

        def drift() -> np.ndarray:
            multiply(k_loss, x, loss)
            add(s, e, n_live)
            add(n_live, i_s, n_live)
            add(n_live, i_a, n_live)
            add(n_live, r, n_live)
            multiply(k_direct, i_sa, direct)
            # Dividing by 1.0 is exact, so skipping it is `rates`'s
            # N <= 0 branch.
            np.greater(n_live, zero, live)
            divide(direct, n_live, direct, where=live)
            add(d_s_route, d_a_route, inc)
            multiply(k_bb, b, env)
            add(k_half, b, den)
            divide(env, den, env)
            add(inc, env, inc)
            multiply(inc, s, inc)
            subtract(k_lam, inc, d_s)
            multiply(k_prog, e, prog)
            multiply(k_gain, i_sa, g)
            add(g_s, g_a, gain)
            subtract(out, loss, out)
            return out

        return drift

    return bind


def force_of_infection(state: HerdState, p: ModelParams) -> float:
    """Per-susceptible infection pressure lam(state).

    The direct routes are frequency dependent; an empty herd (N = 0)
    exerts no direct pressure. The environmental route saturates at
    beta_b as B grows, so lam <= beta_s + beta_a + beta_b always.
    """
    return _pressure(
        total_population(state), state.i_s, state.i_a, state.b, rate_coefficients(p)
    )


def drift(
    state: HerdState, p: ModelParams
) -> tuple[float, float, float, float, float, float]:
    """Deterministic vector field of the herd model at `state` (see `rates`).

    (dS, dE, dI_s, dI_a, dR, dB), in COMPARTMENTS order.
    """
    return rates(state.s, state.e, state.i_s, state.i_a, state.r, state.b,
                 rate_coefficients(p))


def disease_free_equilibrium(p: ModelParams) -> HerdState:
    """Infection-free rest point (Lambda/mu, 0, 0, 0, 0, 0)."""
    return HerdState(p.lambda_recruit / p.mu, 0.0, 0.0, 0.0, 0.0, 0.0)


def r0_closed_form(p: ModelParams) -> float:
    """Basic reproduction number, closed form.

    R0 = sigma/(sigma + mu) * [ nu*beta_s/(mu + d + gamma)
         + (1 - nu)*beta_a/(mu + delta + d)
         + beta_b/(K*eps) * ( nu*omega_s/(mu + d + gamma)
                              + (1 - nu)*omega_a/(mu + delta + d) ) ]

    The prefactor is the probability an exposed animal survives to become
    infectious; the bracketed terms are new infections per infectious
    animal through the two direct routes and through virus shed into the
    reservoir. `r0_spectral` recomputes the same quantity from the
    next-generation matrix and is kept as an independent check, not a
    replacement.

    Args:
        p: validated parameter set (its invariants keep every denominator
           here strictly positive), or any object with the ModelParams
           field names whose values are (n,) arrays of valid sets, as
           for `rate_coefficients`.

    Returns:
        R0 >= 0, or an (n,) array that equals the R0 of each set bit for
        bit (only elementwise + - * / are used).
    """
    return _r0(p, p.beta_b)


def r0_herd(p: ModelParams) -> float:
    """Herd threshold: `r0_closed_form` with beta_b scaled by S0 = Lambda/mu.

    Linearising beta_b*S*B/(K + B) about the disease-free state, where
    S = S0, puts beta_b*S0/K on the reservoir entry of the next-generation
    matrix; the paper's R0 (and `r0_spectral`) use beta_b/K. One endemic
    equilibrium exists iff this threshold exceeds 1 (see
    `herdflu.equilibrium`). At the baseline it is 0.612 against the
    paper's 0.0472, at beta_a = 0.46665 it is 3.76 against 3.19.
    `p` may be parameter columns, as for `r0_closed_form`.
    """
    return _r0(p, p.beta_b * (p.lambda_recruit / p.mu))


def _r0(p: ModelParams, beta_b: float) -> float:
    # The closed form with `beta_b` on the reservoir route.
    out_s = p.mu + p.d_dis + p.gamma_rem
    out_a = p.mu + p.delta_rem + p.d_dis
    survive = p.sigma_prog / (p.sigma_prog + p.mu)
    direct = p.nu * p.beta_s / out_s + (1.0 - p.nu) * p.beta_a / out_a
    shed = p.nu * p.omega_s / out_s + (1.0 - p.nu) * p.omega_a / out_a
    env = beta_b / (p.k_half * p.eps_decay) * shed
    return survive * (direct + env)


def r0_spectral(p: ModelParams) -> float:
    """Basic reproduction number as the spectral radius of F V^-1.

    New infections (F) and transitions (V) are linearised about the
    disease-free state in the infected coordinates (E, I_s, I_a, B).
    Direct transmission enters per infectious head because S/N = 1 at the
    disease-free state; the reservoir entry uses the same per-susceptible
    normalisation, beta_b/K per virus unit, so that both R0 routes
    measure the identical quantity.

    Returns:
        max |eigenvalue| of F V^-1, computed numerically.
    """
    f_new = np.zeros((4, 4))
    f_new[0, :] = (0.0, p.beta_s, p.beta_a, p.beta_b / p.k_half)
    v_trans = np.array(
        [
            [p.sigma_prog + p.mu, 0.0, 0.0, 0.0],
            [-p.nu * p.sigma_prog, p.mu + p.d_dis + p.gamma_rem, 0.0, 0.0],
            [(p.nu - 1.0) * p.sigma_prog, 0.0, p.mu + p.delta_rem + p.d_dis, 0.0],
            [0.0, -p.omega_s, -p.omega_a, p.eps_decay],
        ]
    )
    ngm = f_new @ np.linalg.inv(v_trans)
    return float(np.max(np.abs(np.linalg.eigvals(ngm))))
