"""Rest points of the deterministic herd model.

Setting the drift to zero and eliminating compartments leaves one scalar
unknown, the exposed count E. Each infected compartment is proportional
to E at equilibrium,

    I_s = alpha_s*E,  I_a = alpha_a*E,  R = rho*E,  B = zeta*E,

and dS + dE = 0 gives S = (Lambda - (sigma + mu)*E)/mu. So S, the live
herd N = S + c*E and the dose denominator D = K + zeta*E are all linear
in E. With the infection pressure lam = a1*E/N + a2*E/D, the balance
lam*S = (sigma + mu)*E of the exposed class becomes, for E > 0,

    P(E) = S*(a1*D + a2*N) - (sigma + mu)*N*D = c2*E^2 + c1*E + c0 = 0.

Endemic equilibria are the roots of this quadratic on the admissible
interval 0 < E < Lambda/(sigma + mu), where S > 0; `solve_endemic`
takes them in closed form. `endemic_gap` equals -P/(S*N*D) there, so it
vanishes at the same points and serves as an independent check.

The root count follows by construction: c0 = P(0) =
S0*K*(sigma + mu)*(R_herd - 1), where S0 = Lambda/mu and R_herd is
`model.r0_herd` (`r0_closed_form` with beta_b scaled by S0), while P < 0 at
E = Lambda/(sigma + mu). Moreover P = N*D*(a1*S/N + a2*S/D - sigma - mu)
on the interval, and S/N and S/D fall as E grows, so P changes sign at
most once. R_herd > 1 thus gives exactly one root and R_herd < 1 none:
the model has no backward bifurcation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .model import HerdState, ModelParams, drift


@dataclass(frozen=True)
class EquilibriumIntermediates:
    """Per-exposed-head equilibrium ratios and pressure coefficients."""

    alpha_s: float  # I_s / E
    alpha_a: float  # I_a / E
    rho: float      # R / E
    zeta: float     # B / E, virus units per head
    c: float        # (N - S) / E = 1 + alpha_s + alpha_a + rho
    a1: float       # beta_s*alpha_s + beta_a*alpha_a, 1/day
    a2: float       # beta_b*zeta, 1/day


@dataclass(frozen=True)
class EndemicEquilibrium:
    """A positive rest point together with its certificate quantities."""

    state: HerdState
    lambda_star: float   # equilibrium infection pressure, 1/day
    n_star: float        # live herd size at equilibrium
    residual_norm: float  # max |drift| at state, should be ~0


def admissible_upper(p: ModelParams) -> float:
    """Upper end of the open interval that can hold an endemic E**."""
    return p.lambda_recruit / (p.sigma_prog + p.mu)


def intermediates(p: ModelParams) -> EquilibriumIntermediates:
    """Equilibrium ratios I_s/E, I_a/E, R/E, B/E and pressure coefficients.

    Baseline parameters give alpha_s = 1/1.2 ~ 0.8333 and
    alpha_a = 0.1/0.07 ~ 1.4286.
    """
    out_s = p.mu + p.d_dis + p.gamma_rem
    out_a = p.delta_rem + p.mu + p.d_dis
    alpha_s = p.nu * p.sigma_prog / out_s
    alpha_a = (1.0 - p.nu) * p.sigma_prog / out_a
    rho = (p.gamma_rem * alpha_s + p.delta_rem * alpha_a) / p.mu
    zeta = (p.omega_s * alpha_s + p.omega_a * alpha_a) / p.eps_decay
    c = 1.0 + alpha_s + alpha_a + rho
    a1 = p.beta_s * alpha_s + p.beta_a * alpha_a
    a2 = p.beta_b * zeta
    return EquilibriumIntermediates(alpha_s, alpha_a, rho, zeta, c, a1, a2)


def _pressure(e_star: float, p: ModelParams) -> float:
    # Host-balance pressure; no admissibility check.
    sm = p.sigma_prog + p.mu
    return sm * p.mu * e_star / (p.lambda_recruit - sm * e_star)


def pressure_from_e(e_star: float, p: ModelParams) -> float:
    """Equilibrium infection pressure implied by an exposed count E**.

    Strictly increasing on the admissible interval, with a pole at its
    right end. Baseline parameters at E** = 100 give 0.21/9 ~ 0.023333.

    Raises:
        ValueError: e_star outside the open admissible interval.
    """
    if not 0.0 < e_star < admissible_upper(p):
        raise ValueError(
            f"e_star must lie in (0, {admissible_upper(p)!r}), got {e_star!r}"
        )
    return _pressure(e_star, p)


def endemic_gap(e_star: float, p: ModelParams) -> float:
    """Signed defect of the equilibrium condition at exposed count E**.

    The host-balance pressure minus the transmission pressure, per
    exposed head. Zero exactly at endemic equilibria. Tends to +inf at
    the right end of the admissible interval, where recruitment can no
    longer sustain the exposed pool.

    Raises:
        ValueError: e_star outside the open admissible interval.
    """
    if not 0.0 < e_star < admissible_upper(p):
        raise ValueError(
            f"e_star must lie in (0, {admissible_upper(p)!r}), got {e_star!r}"
        )
    im = intermediates(p)
    sm = p.sigma_prog + p.mu
    s = p.lambda_recruit / (p.mu + _pressure(e_star, p))
    n = s + im.c * e_star
    return (
        sm * p.mu / (p.lambda_recruit - sm * e_star)
        - im.a1 / n
        - im.a2 / (p.k_half + im.zeta * e_star)
    )


def _recover(e_root: float, p: ModelParams, im: EquilibriumIntermediates) -> EndemicEquilibrium:
    lam = _pressure(e_root, p)
    s = p.lambda_recruit / (p.mu + lam)
    state = HerdState(
        s=s,
        e=e_root,
        i_s=im.alpha_s * e_root,
        i_a=im.alpha_a * e_root,
        r=im.rho * e_root,
        b=im.zeta * e_root,
    )
    return EndemicEquilibrium(
        state=state,
        lambda_star=lam,
        n_star=s + im.c * e_root,
        residual_norm=max(abs(v) for v in drift(state, p)),
    )


def solve_endemic(p: ModelParams) -> EndemicEquilibrium | None:
    """The endemic equilibrium, if any, as a root of the quadratic P.

    Writes S = s0 + s1*E, N = s0 + n1*E and D = K + zeta*E, multiplies
    out P(E) = c2*E^2 + c1*E + c0 and takes its roots without
    cancellation: q = -(c1 + sign(c1)*sqrt(c1^2 - 4*c2*c0))/2 gives the
    roots c0/q and q/c2. With no shedding (zeta = 0) c2 vanishes and
    c0/q alone is the root of the linear equation. Each root gets one
    Newton step on P; the one inside the admissible interval (P changes
    sign there at most once) is recovered into the full state from the
    per-head ratios. Baseline parameters admit no root; raising
    transmission far enough produces exactly one.

    Args:
        p: validated parameter set.

    Returns:
        The equilibrium, or None when P has no admissible root.
    """
    im = intermediates(p)
    sm = p.sigma_prog + p.mu
    s0 = p.lambda_recruit / p.mu
    s1 = -sm / p.mu
    n1 = s1 + im.c
    # a1*D + a2*N = t0 + t1*E
    t0 = im.a1 * p.k_half + im.a2 * s0
    t1 = im.a1 * im.zeta + im.a2 * n1
    c2 = s1 * t1 - sm * n1 * im.zeta
    c1 = s0 * t1 + s1 * t0 - sm * (s0 * im.zeta + n1 * p.k_half)
    c0 = s0 * (t0 - sm * p.k_half)

    disc = c1 * c1 - 4.0 * c2 * c0
    if disc < 0.0:
        return None
    q = -0.5 * (c1 + math.copysign(math.sqrt(disc), c1))
    if q == 0.0:
        # c1 = 0 and c2*c0 = 0: P is a negative constant or c2*E^2,
        # with no admissible root either way.
        return None
    e_max = admissible_upper(p)
    for e in [c0 / q] if c2 == 0.0 else [c0 / q, q / c2]:
        slope = 2.0 * c2 * e + c1
        if slope != 0.0:
            e -= ((c2 * e + c1) * e + c0) / slope
        if 0.0 < e < e_max:
            return _recover(e, p, im)
    return None
