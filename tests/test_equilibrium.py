from dataclasses import replace

import numpy as np
import pytest

from herdflu import (
    BASELINE_PARAMS,
    admissible_upper,
    drift,
    endemic_gap,
    intermediates,
    pressure_from_e,
    r0_herd,
    solve_endemic,
)

from test_model import random_params

ENDEMIC_PARAMS = replace(BASELINE_PARAMS, beta_a=0.46665)

# Root of the full 6-dim drift system at beta_a = 0.46665, computed with
# an independent Newton-type solve (scipy.optimize.fsolve, xtol 1e-13)
# started from a coarse scan bracket. Frozen.
ENDEMIC_STATE = (
    821.8116592454147,
    103.7232543216469,
    86.4360452680391,
    148.1760776023527,
    1605.2408406921543,
    1024.8845367496062,
)


class TestIntermediates:
    def test_baseline_ratios(self):
        im = intermediates(BASELINE_PARAMS)
        assert im.alpha_s == pytest.approx(0.8333333333333334, rel=1e-12)
        assert im.alpha_a == pytest.approx(1.4285714285714286, rel=1e-12)
        assert im.rho == pytest.approx(15.476190476190476, rel=1e-12)
        assert im.zeta == pytest.approx(9.880952380952381, rel=1e-12)
        assert im.c == pytest.approx(18.738095238095237, rel=1e-12)
        assert im.a1 == pytest.approx(0.009880952380952381, rel=1e-12)
        assert im.a2 == pytest.approx(0.019761904761904762, rel=1e-12)

    def test_c_combines_ratios(self):
        rng = np.random.default_rng(3)
        for _ in range(100):
            im = intermediates(random_params(rng))
            assert im.c == pytest.approx(
                1.0 + im.alpha_s + im.alpha_a + im.rho, rel=1e-12
            )


class TestPressure:
    def test_known_value(self):
        # (sigma+mu)*mu*E / (Lambda - (sigma+mu)*E) at E=100: 0.21/9
        assert pressure_from_e(100.0, BASELINE_PARAMS) == pytest.approx(
            0.023333333333333334, rel=1e-12
        )

    def test_strictly_increasing(self):
        hi = admissible_upper(BASELINE_PARAMS)
        es = np.linspace(hi * 1e-6, hi * (1 - 1e-6), 200)
        vals = [pressure_from_e(float(e), BASELINE_PARAMS) for e in es]
        assert all(a < b for a, b in zip(vals, vals[1:]))

    def test_diverges_at_upper_end(self):
        hi = admissible_upper(BASELINE_PARAMS)
        assert pressure_from_e(hi * (1 - 1e-12), BASELINE_PARAMS) > 1e6

    @pytest.mark.parametrize("e", [0.0, -1.0])
    def test_rejects_nonpositive(self, e):
        with pytest.raises(ValueError):
            pressure_from_e(e, BASELINE_PARAMS)

    def test_rejects_at_or_above_upper(self):
        hi = admissible_upper(BASELINE_PARAMS)
        for e in (hi, hi * 1.5):
            with pytest.raises(ValueError):
                pressure_from_e(e, BASELINE_PARAMS)


class TestGap:
    def test_baseline_positive_everywhere(self):
        # No endemic root below threshold: gap never crosses zero.
        hi = admissible_upper(BASELINE_PARAMS)
        es = np.linspace(hi * 1e-9, hi * (1 - 1e-9), 10_000)
        gaps = [endemic_gap(float(e), BASELINE_PARAMS) for e in es]
        assert min(gaps) > 0.0

    def test_endemic_config_changes_sign_once(self):
        hi = admissible_upper(ENDEMIC_PARAMS)
        es = np.linspace(hi * 1e-9, hi * (1 - 1e-9), 10_000)
        gaps = np.array([endemic_gap(float(e), ENDEMIC_PARAMS) for e in es])
        flips = np.sum(np.sign(gaps[:-1]) != np.sign(gaps[1:]))
        assert gaps[0] < 0.0 and flips == 1

    def test_vanishes_at_root(self):
        eq = solve_endemic(ENDEMIC_PARAMS)
        assert abs(endemic_gap(eq.state.e, ENDEMIC_PARAMS)) < 1e-12


class TestSolveEndemic:
    def test_absent_at_baseline(self):
        assert solve_endemic(BASELINE_PARAMS) is None

    def test_endemic_state_matches_independent_solve(self):
        eq = solve_endemic(ENDEMIC_PARAMS)
        assert eq is not None
        got = eq.state.as_array()
        assert np.allclose(got, ENDEMIC_STATE, rtol=1e-12, atol=0.0)

    def test_certificate(self):
        eq = solve_endemic(ENDEMIC_PARAMS)
        assert eq.residual_norm < 1e-12
        assert 0.0 < eq.state.e < admissible_upper(ENDEMIC_PARAMS)
        # residual_norm is the max-norm of the drift at the state
        f = drift(eq.state, ENDEMIC_PARAMS)
        assert eq.residual_norm == max(abs(v) for v in f)

    def test_consistency_of_certificate_fields(self):
        eq = solve_endemic(ENDEMIC_PARAMS)
        st = eq.state
        assert eq.n_star == pytest.approx(
            st.s + st.e + st.i_s + st.i_a + st.r, rel=1e-12
        )
        assert eq.lambda_star == pytest.approx(
            pressure_from_e(st.e, ENDEMIC_PARAMS), rel=1e-10
        )

    def test_random_draws_certified(self):
        # Wherever a root is claimed it must satisfy the certificate.
        rng = np.random.default_rng(17)
        found = 0
        for _ in range(200):
            p = random_params(rng)
            eq = solve_endemic(p)
            if eq is None:
                continue
            found += 1
            assert eq.residual_norm < 1e-6
            assert 0.0 < eq.state.e < admissible_upper(p)
        assert found > 20  # the draw box is wide enough to hit both regimes

    def test_threshold_tracking_logged(self, capsys):
        # The herd threshold scales the reservoir route by S0 = Lambda/mu.
        # c0 = P(0) has the sign of threshold - 1, P < 0 at the right end
        # and P changes sign at most once, so the threshold alone fixes
        # the root count: one above 1, none below (no two-root case).
        rng = np.random.default_rng(23)
        regimes = {True: 0, False: 0}
        for _ in range(2000):
            p = random_params(rng)
            herd = r0_herd(p)
            eq = solve_endemic(p)
            assert (eq is not None) == (herd > 1.0), (p, herd)
            regimes[herd > 1.0] += 1
        print(f"herd threshold above/below 1: {regimes[True]}/{regimes[False]}")
        assert min(regimes.values()) > 100

    def test_roots_are_the_sign_changes_of_the_gap(self):
        # endemic_gap is the pressure defect, computed without the
        # quadratic; it changes sign exactly where solve_endemic finds
        # a root, and vanishes there.
        rng = np.random.default_rng(29)
        found = 0
        for _ in range(40):
            p = random_params(rng)
            hi = admissible_upper(p)
            es = np.linspace(hi * 1e-9, hi * (1 - 1e-9), 4001)
            gaps = np.array([endemic_gap(float(e), p) for e in es])
            flips = int(np.sum(np.sign(gaps[:-1]) != np.sign(gaps[1:])))
            eq = solve_endemic(p)
            assert flips == (eq is not None)
            if eq is not None:
                found += 1
                assert abs(endemic_gap(eq.state.e, p)) < 1e-12
        assert found >= 4

    def test_no_shedding_is_the_linear_branch(self):
        # omega_s = omega_a = 0 gives zeta = 0, so c2 = 0 and the solve
        # takes the root of a linear equation.
        p = replace(ENDEMIC_PARAMS, omega_s=0.0, omega_a=0.0)
        assert intermediates(p).zeta == 0.0
        eq = solve_endemic(p)
        assert eq is not None and eq.state.b == 0.0
        assert abs(endemic_gap(eq.state.e, p)) < 1e-12
        assert eq.residual_norm < 1e-12
        below = replace(BASELINE_PARAMS, omega_s=0.0, omega_a=0.0)
        assert solve_endemic(below) is None

    @pytest.mark.parametrize(
        "extra",
        [{}, {"omega_s": 0.0, "omega_a": 0.0, "d_dis": 0.0}],
        ids=["shedding", "no-shedding-no-deaths"],
    )
    def test_zero_transmission_has_no_root(self, extra):
        # P = -(sigma + mu)*N*D < 0 on the interval. Without deaths or
        # shedding it is a negative constant (c2 = c1 = 0).
        p = replace(ENDEMIC_PARAMS, beta_s=0.0, beta_a=0.0, beta_b=0.0, **extra)
        assert solve_endemic(p) is None
