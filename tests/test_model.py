import math
from dataclasses import fields, replace
from types import SimpleNamespace

import numpy as np
import pytest

from herdflu import (
    BASELINE_PARAMS,
    COMPARTMENTS,
    DEFAULT_NOISE,
    HerdState,
    ModelParams,
    NoiseIntensities,
    default_init,
    disease_free_equilibrium,
    drift,
    force_of_infection,
    r0_closed_form,
    r0_spectral,
    total_population,
)
from herdflu.model import rate_coefficients, rates, rates_rows, row_coefficients

# Rational-arithmetic evaluations of the closed form, frozen.
R0_BASELINE = 0.047240362811791385
R0_ENDEMIC_BETA_A = 3.1945192743764173  # beta_a = 0.46665
DR0_DBETA_A = 6.802721088435374


def random_params(rng: np.random.Generator) -> ModelParams:
    return ModelParams(
        lambda_recruit=rng.uniform(1.0, 100.0),
        mu=rng.uniform(1e-4, 0.5),
        beta_s=rng.uniform(1e-4, 1.0),
        beta_a=rng.uniform(1e-4, 1.0),
        beta_b=rng.uniform(1e-4, 1.0),
        k_half=rng.uniform(10.0, 5000.0),
        sigma_prog=rng.uniform(1e-3, 2.0),
        nu=rng.uniform(0.0, 1.0),
        gamma_rem=rng.uniform(1e-3, 2.0),
        delta_rem=rng.uniform(1e-3, 2.0),
        d_dis=rng.uniform(0.0, 0.5),
        omega_s=rng.uniform(0.01, 2.0),
        omega_a=rng.uniform(0.01, 2.0),
        eps_decay=rng.uniform(1e-3, 2.0),
    )


def random_state(rng: np.random.Generator) -> HerdState:
    return HerdState(*rng.uniform(0.0, 5000.0, size=6))


class TestValidation:
    def test_baseline_is_valid(self):
        assert BASELINE_PARAMS.lambda_recruit == 30.0
        assert BASELINE_PARAMS.mu == 0.01

    @pytest.mark.parametrize(
        "field,value",
        [
            ("beta_s", -0.1),
            ("mu", 0.0),
            ("k_half", 0.0),
            ("eps_decay", 0.0),
            ("nu", 1.5),
            ("nu", -0.1),
            ("gamma_rem", float("nan")),
            ("lambda_recruit", float("inf")),
        ],
    )
    def test_bad_params_rejected(self, field, value):
        with pytest.raises(ValueError):
            replace(BASELINE_PARAMS, **{field: value})

    def test_negative_state_rejected(self):
        with pytest.raises(ValueError):
            HerdState(1.0, -1.0, 0.0, 0.0, 0.0, 0.0)
        with pytest.raises(ValueError):
            HerdState(float("nan"), 0.0, 0.0, 0.0, 0.0, 0.0)

    def test_negative_noise_rejected(self):
        with pytest.raises(ValueError):
            NoiseIntensities(0.05, 0.05, -0.05, 0.05, 0.05)

    def test_state_array_round_trip(self):
        st = HerdState(1.0, 2.0, 3.0, 4.0, 5.0, 6.0)
        assert HerdState.from_array(st.as_array()) == st
        assert COMPARTMENTS == ("S", "E", "I_s", "I_a", "R", "B")


class TestForceOfInfection:
    def test_direct_term_example(self):
        # 10 symptomatic in a herd of 110, no other sources:
        # beta_s * I_s / N = 0.005 * 10 / 110
        st = HerdState(100.0, 0.0, 10.0, 0.0, 0.0, 0.0)
        assert force_of_infection(st, BASELINE_PARAMS) == pytest.approx(
            0.005 * 10 / 110, rel=1e-14
        )

    def test_reservoir_term_saturates(self):
        p = BASELINE_PARAMS
        lo = force_of_infection(HerdState(0, 0, 0, 0, 0, p.k_half), p)
        assert lo == pytest.approx(p.beta_b / 2, rel=1e-12)
        hi = force_of_infection(HerdState(0, 0, 0, 0, 0, 1e12), p)
        assert hi < p.beta_b

    def test_bounded_above(self):
        rng = np.random.default_rng(11)
        p = BASELINE_PARAMS
        cap = p.beta_s + p.beta_a + p.beta_b
        for _ in range(200):
            assert 0.0 <= force_of_infection(random_state(rng), p) <= cap

    def test_empty_herd_no_direct_infection(self):
        lam = force_of_infection(HerdState(0, 0, 0, 0, 0, 0), BASELINE_PARAMS)
        assert lam == 0.0


class TestDrift:
    def test_zero_at_dfe(self):
        p = BASELINE_PARAMS
        assert drift(disease_free_equilibrium(p), p) == (0.0,) * 6

    def test_host_mass_balance(self):
        # Summing the five host equations must leave recruitment minus
        # natural turnover minus disease deaths; infection terms cancel.
        rng = np.random.default_rng(7)
        for _ in range(200):
            p = random_params(rng)
            st = random_state(rng)
            ds, de, di_s, di_a, dr, _ = drift(st, p)
            host = ds + de + di_s + di_a + dr
            expect = (
                p.lambda_recruit
                - p.mu * total_population(st)
                - p.d_dis * (st.i_s + st.i_a)
            )
            assert host == pytest.approx(expect, rel=1e-10, abs=1e-10)

    def test_reservoir_balance(self):
        rng = np.random.default_rng(8)
        for _ in range(50):
            p = random_params(rng)
            st = random_state(rng)
            db = drift(st, p)[5]
            assert db == pytest.approx(
                p.omega_s * st.i_s + p.omega_a * st.i_a - p.eps_decay * st.b,
                rel=1e-12,
            )

    def test_total_population_excludes_reservoir(self):
        st = HerdState(1.0, 2.0, 3.0, 4.0, 5.0, 1000.0)
        assert total_population(st) == 15.0


class TestReproductionNumber:
    def test_baseline_value(self):
        assert r0_closed_form(BASELINE_PARAMS) == pytest.approx(
            R0_BASELINE, rel=1e-12
        )
        assert r0_spectral(BASELINE_PARAMS) == pytest.approx(R0_BASELINE, rel=1e-9)

    def test_endemic_configuration_value(self):
        p = replace(BASELINE_PARAMS, beta_a=0.46665)
        assert r0_closed_form(p) == pytest.approx(R0_ENDEMIC_BETA_A, rel=1e-12)

    def test_affine_in_beta_a(self):
        # d r0 / d beta_a is constant: survive * (1-nu) / (mu+delta+d)
        p1 = replace(BASELINE_PARAMS, beta_a=0.1)
        p2 = replace(BASELINE_PARAMS, beta_a=0.3)
        slope = (r0_closed_form(p2) - r0_closed_form(p1)) / 0.2
        assert slope == pytest.approx(DR0_DBETA_A, rel=1e-10)

    def test_two_routes_agree(self):
        rng = np.random.default_rng(42)
        for _ in range(1000):
            p = random_params(rng)
            closed = r0_closed_form(p)
            spectral = r0_spectral(p)
            assert abs(closed - spectral) <= 1e-10 * max(1.0, abs(closed))

    def test_monotone_in_transmission(self):
        base = r0_closed_form(BASELINE_PARAMS)
        for field in ("beta_s", "beta_a", "beta_b", "omega_s", "omega_a"):
            bumped = replace(
                BASELINE_PARAMS, **{field: getattr(BASELINE_PARAMS, field) * 1.5}
            )
            assert r0_closed_form(bumped) > base

    def test_monotone_in_removal(self):
        base = r0_closed_form(BASELINE_PARAMS)
        for field in ("gamma_rem", "delta_rem", "eps_decay", "d_dis"):
            bumped = replace(
                BASELINE_PARAMS, **{field: getattr(BASELINE_PARAMS, field) * 2.0}
            )
            assert r0_closed_form(bumped) < base

    def test_no_transmission_no_reproduction(self):
        p = replace(BASELINE_PARAMS, beta_s=0.0, beta_a=0.0, beta_b=0.0)
        assert r0_closed_form(p) == 0.0
        assert r0_spectral(p) == pytest.approx(0.0, abs=1e-14)


class TestEquilibriumPoints:
    def test_dfe_is_recruitment_over_turnover(self):
        dfe = disease_free_equilibrium(BASELINE_PARAMS)
        assert dfe == HerdState(3000.0, 0.0, 0.0, 0.0, 0.0, 0.0)

    def test_default_init_seeds_one_exposed(self):
        init = default_init(BASELINE_PARAMS)
        assert init == HerdState(2999.0, 1.0, 0.0, 0.0, 0.0, 0.0)
        assert total_population(init) == 3000.0

    def test_default_init_needs_a_herd(self):
        tiny = replace(BASELINE_PARAMS, lambda_recruit=0.001, mu=0.01)
        with pytest.raises(ValueError):
            default_init(tiny)


class TestRatesRows:
    """The stacked array kernel against the float definition."""

    @staticmethod
    def states(rng, n):
        x = rng.uniform(0.0, 5000.0, size=(6, n))
        x[:5, :4] = 0.0                       # empty herds (N = 0)
        x[:, 4:6] = 0.0                       # all zero
        x[:, 6:9] *= 1e150                    # large values
        x[5, 9] = 1e300                       # saturated reservoir
        x[:, 10] = rng.uniform(-50.0, 50.0, size=6)  # RK4 stages go negative
        return x

    def check(self, x, k, coeffs):
        out = rates_rows(k, x.shape[1])(x, np.full_like(x, np.nan))()
        for i in range(x.shape[1]):
            ref = np.array(rates(*x[:, i].tolist(), coeffs(i)))
            assert out[:, i].tobytes() == ref.tobytes(), i

    def test_one_parameter_set(self):
        rng = np.random.default_rng(31)
        x = self.states(rng, 40)
        c = rate_coefficients(BASELINE_PARAMS)
        self.check(x, row_coefficients(c, 40), lambda i: c)

    def test_one_parameter_set_per_column(self):
        rng = np.random.default_rng(32)
        sets = [random_params(rng) for _ in range(40)]
        cs = [rate_coefficients(p) for p in sets]
        cols = rate_coefficients(SimpleNamespace(**{
            f.name: np.array([getattr(p, f.name) for p in sets])
            for f in fields(ModelParams)
        }))
        x = self.states(rng, 40)
        self.check(x, row_coefficients(cols, 40), lambda i: cs[i])

    def test_bound_calls_on_alternating_buffers(self):
        # Two state buffers bound to one set of temporaries, called in
        # turn as the engine's stages are. The columns are shuffled
        # between calls, so a column with N <= 0 (the skipped division)
        # had N > 0 in the call before: a temporary or an output row
        # that kept a value from an earlier call would show.
        rng = np.random.default_rng(33)
        n = 40
        c = rate_coefficients(BASELINE_PARAMS)
        bind = rates_rows(row_coefficients(c, n), n)
        bufs = [(np.empty((6, n)), np.full((6, n), np.nan)) for _ in range(2)]
        drifts = [bind(x, out) for x, out in bufs]
        for call in range(8):
            x, out = bufs[call % 2]
            x[...] = self.states(rng, n)[:, rng.permutation(n)]
            x[:5, rng.integers(n)] = -rng.uniform(1.0, 50.0, size=5)  # N < 0
            assert drifts[call % 2]() is out
            for i in range(n):
                ref = np.array(rates(*x[:, i].tolist(), c))
                assert out[:, i].tobytes() == ref.tobytes(), (call, i)
