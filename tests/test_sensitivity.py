import math
from dataclasses import fields, replace

import numpy as np
import pytest

from herdflu import (
    BASELINE_PARAMS,
    COMPARTMENTS,
    HerdState,
    IntegrationError,
    ModelParams,
    ParamRanges,
    SimConfig,
    default_init,
    integrate_ode,
    default_ranges,
    lhs_sample,
    prcc,
    r0_closed_form,
    sensitivity_of_peak_symptomatic,
    sensitivity_of_r0,
)
from herdflu import sensitivity
from herdflu.cli import run_cli
from herdflu.integrate import rk4_peaks
from herdflu.model import rate_coefficients
from herdflu.sensitivity import (
    R0_PARAM_KEYS,
    _columns,
    _params_for_row,
    rank_average,
)


class TestParamRanges:
    def test_keys_and_lookup(self):
        pr = ParamRanges({"beta_a": (0.1, 0.9), "gamma": (0.05, 0.2)})
        assert pr.names == ("beta_a", "gamma")
        assert pr["beta_a"] == (0.1, 0.9)
        assert len(pr) == 2

    @pytest.mark.parametrize(
        "bounds",
        [
            {},
            {"bogus": (0.0, 1.0)},
            {"beta_a": (0.9, 0.1)},
            {"beta_a": (-0.1, 0.5)},
            {"nu": (0.2, 1.2)},
            {"mu": (0.0, 0.1)},
            {"epsilon": (0.0, 0.1)},
            {"beta_a": (0.1, float("inf"))},
        ],
    )
    def test_bad_bounds_rejected(self, bounds):
        with pytest.raises(ValueError):
            ParamRanges(bounds)

    def test_width_zero_freeze_allowed(self):
        pr = ParamRanges({"beta_a": (0.3, 0.3)})
        assert pr["beta_a"] == (0.3, 0.3)

    def test_default_ranges_are_half_to_threehalves(self):
        pr = default_ranges(BASELINE_PARAMS, rel=0.5)
        assert pr.names == R0_PARAM_KEYS
        assert pr["beta_a"] == (0.002, 0.006)
        assert pr["gamma"] == pytest.approx((0.05, 0.15))

    def test_default_ranges_clip_nu(self):
        base = replace(BASELINE_PARAMS, nu=0.9)
        pr = default_ranges(base, rel=0.5)
        lo, hi = pr["nu"]
        assert hi == 1.0 and lo == pytest.approx(0.45)

    @pytest.mark.parametrize("rel", [0.0, 1.0, -0.5])
    def test_rel_bounds_enforced(self, rel):
        with pytest.raises(ValueError):
            default_ranges(BASELINE_PARAMS, rel=rel)


class TestLhs:
    def test_shape_and_determinism(self):
        pr = default_ranges()
        a = lhs_sample(pr, 100, seed=4)
        b = lhs_sample(pr, 100, seed=4)
        assert a.shape == (100, len(pr))
        assert np.array_equal(a, b)
        assert not np.array_equal(a, lhs_sample(pr, 100, seed=5))

    def test_marginal_stratification_exact(self):
        # Defining property: each of the n equal strata of every
        # parameter holds exactly one sample.
        pr = default_ranges()
        n = 64
        x = lhs_sample(pr, n, seed=0)
        arr = pr.as_array()
        for j in range(len(pr)):
            lo, hi = arr[j]
            strata = np.floor((x[:, j] - lo) / (hi - lo) * n).astype(int)
            assert sorted(strata) == list(range(n))

    def test_respects_bounds(self):
        pr = ParamRanges({"beta_a": (0.25, 0.5)})
        x = lhs_sample(pr, 1000, seed=1)
        assert x.min() >= 0.25 and x.max() <= 0.5

    def test_width_zero_column_constant(self):
        pr = ParamRanges({"beta_a": (0.3, 0.3), "gamma": (0.1, 0.2)})
        x = lhs_sample(pr, 50, seed=2)
        assert np.all(x[:, 0] == 0.3)

    def test_uniform_marginal_moments(self):
        pr = ParamRanges({"beta_a": (0.0, 1.0)})
        x = lhs_sample(pr, 4000, seed=3)[:, 0]
        assert x.mean() == pytest.approx(0.5, abs=0.01)
        assert x.var() == pytest.approx(1.0 / 12.0, rel=0.05)

    def test_bad_n_rejected(self):
        with pytest.raises(ValueError):
            lhs_sample(default_ranges(), 0, seed=0)

    def test_values_lie_in_random_ranges(self):
        # Seeded random ranges from 1e-300 to 1e2 wide, lows near 0 (the
        # smallest double above 0 for mu) and nu ranges ending at 1.0:
        # every value lies in its range, so every row is a valid set.
        rng = np.random.default_rng(30)
        for _ in range(200):
            lo = rng.uniform(0.0, 1.0, 2) * 10.0 ** rng.integers(-300, 3, 2)
            hi = lo + rng.uniform(0.0, 1.0, 2) * 10.0 ** rng.integers(-300, 3, 2)
            ranges = ParamRanges({
                "beta_a": (lo[0], hi[0]),
                "gamma": (0.0, hi[1]),
                "mu": (5e-324, 5e-324 + hi[1]),
                "nu": (rng.uniform(0.0, 1.0), 1.0),
            })
            x = lhs_sample(ranges, int(rng.integers(1, 300)), int(rng.integers(2**32)))
            bounds = ranges.as_array()
            assert (x >= bounds[:, 0]).all() and (x <= bounds[:, 1]).all()
            for row in x:
                _params_for_row(BASELINE_PARAMS, ranges.names, row)

    def test_range_too_wide_for_its_strata_is_refused(self):
        # (hi - lo) * (bins + u) overflows: no draw is inf or collapsed
        # onto the high end.
        ranges = ParamRanges({"lambda": (0.0, 1e308)})
        with np.errstate(over="ignore"):
            with pytest.raises(ValueError, match="^lambda: range too wide for 10 strata$"):
                lhs_sample(ranges, 10, seed=0)
        assert lhs_sample(ranges, 1, seed=0)[0, 0] <= 1e308

    def test_top_draw_is_clipped_to_high(self, monkeypatch):
        # Generator.random can return 1 - 2**-53. In the top stratum
        # bins + u then rounds to n, and for this range
        # lo + (hi - lo) * n / n rounds past hi; the value is hi. The
        # other strata keep their bits.
        u = 1.0 - 2.0 ** -53

        class TopDraws:
            def permutation(self, n):
                return np.arange(n)

            def random(self, n):
                return np.full(n, u)

        monkeypatch.setattr(np.random, "default_rng", lambda seed: TopDraws())
        lo, hi = 0.3, 0.9
        raw = lo + (hi - lo) * (np.arange(3) + u) / 3
        assert raw[2] > hi
        x = lhs_sample(ParamRanges({"beta_a": (lo, hi)}), 3, seed=0)[:, 0]
        assert x[2] == hi
        assert x[:2].tobytes() == raw[:2].tobytes()


def toy_samples(n=200, k=4, seed=0):
    rng = np.random.default_rng(seed)
    return rng.uniform(0.0, 1.0, size=(n, k))


class TestPrcc:
    def test_average_ranks_match_scipy_on_ties(self):
        stats = pytest.importorskip("scipy.stats")
        rng = np.random.default_rng(14)
        for a in (
            rng.integers(0, 6, size=200).astype(float),
            np.array([3.0, 1.0, 3.0, 3.0, -0.0, 0.0, 2.0, 1.0]),
            rng.uniform(size=50),
            np.array([7.0]),
        ):
            assert rank_average(a).tobytes() == stats.rankdata(a).tobytes()
        assert np.isnan(rank_average(np.array([1.0, np.nan, 2.0]))).all()

    def test_monotone_copy_scores_one(self):
        x = toy_samples()
        rep = prcc(x, x[:, 2] ** 3)
        assert rep.params[2].prcc > 0.999
        assert rep.params[2].p_value < 1e-10
        assert rep.params[2].significant

    def test_reversal_scores_minus_one(self):
        x = toy_samples()
        rep = prcc(x, -x[:, 1])
        assert rep.params[1].prcc < -0.999
        assert rep.params[1].significant

    def test_unrelated_inputs_insignificant(self):
        x = toy_samples(n=500, seed=8)
        y = np.random.default_rng(9).normal(size=500)
        rep = prcc(x, y)
        assert all(abs(ps.prcc) < 0.2 for ps in rep.params)

    def test_monotone_transforms_do_not_move_prcc(self):
        # Rank statistics only: transforming any column or the output
        # through a strictly increasing map leaves every PRCC in place.
        x = toy_samples(n=150, k=3, seed=5)
        y = 2.0 * x[:, 0] - x[:, 1] + 0.1 * np.random.default_rng(6).normal(size=150)
        base = prcc(x, y)
        xt = x.copy()
        xt[:, 0] = np.exp(xt[:, 0])
        xt[:, 1] = 5.0 * xt[:, 1] - 2.0
        xt[:, 2] = np.log(xt[:, 2] + 1.0)
        trans = prcc(xt, np.exp(y))
        for a, b in zip(base.params, trans.params):
            assert abs(a.prcc - b.prcc) < 1e-12
            assert abs(a.p_value - b.p_value) < 1e-12

    def test_row_permutation_invariance(self):
        x = toy_samples(n=120, k=3, seed=10)
        y = x[:, 0] - 0.5 * x[:, 2]
        perm = np.random.default_rng(11).permutation(120)
        a = prcc(x, y)
        b = prcc(x[perm], y[perm])
        for pa, pb in zip(a.params, b.params):
            assert pa.prcc == pytest.approx(pb.prcc, abs=1e-10)

    def test_frozen_column_degenerate(self):
        x = toy_samples(n=100, k=3, seed=12)
        x[:, 1] = 0.77
        rep = prcc(x, x[:, 0])
        assert math.isnan(rep.params[1].prcc)
        assert math.isnan(rep.params[1].p_value)
        assert not rep.params[1].significant

    def test_duplicate_column_degenerate(self):
        x = toy_samples(n=100, k=3, seed=13)
        x[:, 2] = x[:, 0]
        rep = prcc(x, x[:, 1])
        assert math.isnan(rep.params[0].prcc)
        assert math.isnan(rep.params[2].prcc)

    def test_needs_enough_samples(self):
        x = toy_samples(n=5, k=4)
        with pytest.raises(ValueError):
            prcc(x, x[:, 0])

    def test_names_attached(self):
        x = toy_samples(n=50, k=2)
        rep = prcc(x, x[:, 0], names=("a", "b"))
        assert rep.names == ("a", "b")
        assert rep.by_name("b").name == "b"
        with pytest.raises(KeyError):
            rep.by_name("c")
        with pytest.raises(ValueError):
            prcc(x, x[:, 0], names=("only_one",))


class TestModelSensitivity:
    def test_r0_report_covers_requested_params(self):
        rep = sensitivity_of_r0(n=200, seed=1)
        assert rep.names == R0_PARAM_KEYS
        assert rep.n_samples == 200

    def test_r0_transmission_vs_removal_signs(self):
        rep = sensitivity_of_r0(n=400, seed=2)
        assert rep.by_name("beta_a").prcc > 0.5
        assert rep.by_name("gamma").prcc < -0.3
        assert rep.by_name("beta_a").significant

    def test_peak_metric_runs_and_ranks_transmission(self):
        rep = sensitivity_of_peak_symptomatic(n=40, seed=3)
        assert rep.n_samples == 40
        assert rep.by_name("beta_a").prcc > 0.0

    def test_columns_equal_per_row_params_bitwise(self):
        ranges = default_ranges(BASELINE_PARAMS)
        samples = lhs_sample(ranges, 1000, 0)
        columns = _columns(BASELINE_PARAMS, ranges.names, samples)
        rows = [_params_for_row(BASELINE_PARAMS, ranges.names, row) for row in samples]
        for f in fields(ModelParams):
            want = np.array([getattr(q, f.name) for q in rows])
            assert getattr(columns, f.name).tobytes() == want.tobytes(), f.name

    def test_r0_sweep_equals_per_row_r0_bitwise(self, monkeypatch):
        outputs = []
        real = sensitivity.prcc

        def spy(samples, y, **kwargs):
            outputs.append(y)
            return real(samples, y, **kwargs)

        monkeypatch.setattr(sensitivity, "prcc", spy)
        rep = sensitivity_of_r0(n=1000, seed=0)
        ranges = default_ranges(BASELINE_PARAMS)
        samples = lhs_sample(ranges, 1000, 0)
        ref = np.array([
            r0_closed_form(_params_for_row(BASELINE_PARAMS, ranges.names, row))
            for row in samples
        ])
        assert outputs[0].tobytes() == ref.tobytes()
        assert rep == real(samples, ref, names=ranges.names, seed=0)


OUTBREAK = replace(BASELINE_PARAMS, beta_a=0.46665)
# dt = 10 overshoots: most rows clamp at 0.
COARSE = dict(t_end=100.0, dt=10.0)


def per_row_peaks(ranges, n, seed, cfg):
    init = default_init(OUTBREAK)
    return np.array([
        integrate_ode(_params_for_row(OUTBREAK, ranges.names, row), init, cfg)
        .column("I_s").max()
        for row in lhs_sample(ranges, n, seed)
    ])


def column_peaks(names, samples, init, cfg):
    # The sweep's batched run: rk4_peaks on the parameter columns.
    c = rate_coefficients(_columns(OUTBREAK, names, samples))
    return rk4_peaks(c, init, cfg, COMPARTMENTS.index("I_s"))


class TestBatchedPeakSweep:
    @pytest.mark.parametrize(
        "cfg",
        [
            SimConfig(t_end=60.0, dt=0.1, record_stride=1),
            SimConfig(t_end=60.0, dt=0.1, record_stride=7),
            SimConfig(**COARSE, record_stride=1),
            SimConfig(**COARSE, record_stride=7),
        ],
    )
    def test_equals_per_row_integrate_ode_bitwise(self, cfg):
        ranges = default_ranges(OUTBREAK, rel=0.9)
        n, seed = 20, 4
        ref = per_row_peaks(ranges, n, seed, cfg)
        init = default_init(OUTBREAK)
        samples = lhs_sample(ranges, n, seed)
        assert column_peaks(ranges.names, samples, init, cfg).tobytes() == ref.tobytes()
        rep = sensitivity_of_peak_symptomatic(ranges, n, seed, OUTBREAK, cfg)
        assert rep == prcc(samples, ref, names=ranges.names, seed=seed)

    def test_failed_runs_give_nan_peaks(self):
        # Samples 1 and 3 overflow, at different times; 0 and 2 do not.
        cfg = SimConfig(t_end=50.0, dt=0.5)
        init = default_init(OUTBREAK)
        samples = np.array([[1.0], [3e307], [2.0], [1e307]])
        params = [_params_for_row(OUTBREAK, ("lambda",), row) for row in samples]
        peaks = column_peaks(("lambda",), samples, init, cfg)
        assert np.isnan(peaks).tolist() == [False, True, False, True]
        with np.errstate(over="ignore", invalid="ignore"):
            for i in (1, 3):
                with pytest.raises(IntegrationError):
                    integrate_ode(params[i], init, cfg)
        ref = [integrate_ode(params[i], init, cfg).column("I_s").max() for i in (0, 2)]
        assert peaks[[0, 2]].tobytes() == np.array(ref).tobytes()

    def test_nonfinite_names_first_failing_sample_in_row_order(self, monkeypatch):
        # Sample 1 overflows later than sample 2: row order, not time,
        # picks the sample the error names. The sweep is given these
        # rows in place of its LHS draw.
        cfg = SimConfig(t_end=50.0, dt=0.5)
        init = default_init(OUTBREAK)
        samples = np.array([[OUTBREAK.lambda_recruit], [1e307], [3e307]])
        monkeypatch.setattr(sensitivity, "lhs_sample", lambda ranges, n, seed: samples)
        params = [_params_for_row(OUTBREAK, ("lambda",), row) for row in samples]
        assert params[0] == OUTBREAK
        messages = []
        with np.errstate(over="ignore", invalid="ignore"):
            for p in params[1:]:
                with pytest.raises(IntegrationError) as exc:
                    integrate_ode(p, init, cfg)
                messages.append(str(exc.value))
            with pytest.raises(IntegrationError) as exc:
                sensitivity_of_peak_symptomatic(
                    ParamRanges({"lambda": (0.0, 3e307)}), 3, 0, OUTBREAK, cfg)
        late, early = (float(m.rsplit("=", 1)[1]) for m in messages)
        assert early < late
        assert str(exc.value) == f"sample 1: {messages[0]}"

    @pytest.mark.parametrize("stride", [1, 7])
    def test_nan_peaks_are_the_runs_that_raise(self, stride):
        # Failure is read once, off the final state. The overflowing rows
        # go non-finite at steps 13, 27 and 42 of 100; at stride 7 the
        # first two lie between recorded steps.
        init = default_init(OUTBREAK)
        values = [OUTBREAK.lambda_recruit, 3e307, 5e306, 1e307, 2.0, 1.5e307]
        samples = np.array(values)[:, None]
        cfg = SimConfig(t_end=50.0, dt=0.5, record_stride=stride)
        first_bad, raised, ref = {}, set(), {}
        with np.errstate(over="ignore", invalid="ignore"):
            for i, row in enumerate(samples):
                p = _params_for_row(OUTBREAK, ("lambda",), row)
                try:
                    integrate_ode(p, init, replace(cfg, record_stride=1))
                except IntegrationError as exc:
                    first_bad[i] = round(float(str(exc).rsplit("=", 1)[1]) / cfg.dt)
                try:
                    ref[i] = integrate_ode(p, init, cfg).column("I_s").max()
                except IntegrationError:
                    raised.add(i)
        assert first_bad == {1: 13, 3: 42, 5: 27}
        assert raised == set(first_bad)
        peaks = column_peaks(("lambda",), samples, init, cfg)
        assert set(np.flatnonzero(np.isnan(peaks)).tolist()) == raised
        ok = sorted(ref)
        assert peaks[ok].tobytes() == np.array([ref[i] for i in ok]).tobytes()

    def test_a_finite_state_whose_sum_overflows_has_not_failed(self):
        # S + B overflows while both stay finite: not a failure, neither
        # for integrate_ode nor for rk4_peaks' check of the final state.
        p = replace(OUTBREAK, lambda_recruit=1e306, beta_s=0.0, beta_a=0.0,
                    beta_b=0.0, eps_decay=0.01)
        init = HerdState(1e308, 0.0, 0.0, 0.0, 0.0, 1e308)
        cfg = SimConfig(t_end=1.0, dt=0.5)
        traj = integrate_ode(p, init, cfg)
        assert math.isinf(sum(traj.states[-1].tolist()))
        b = COMPARTMENTS.index("B")
        c = rate_coefficients(_columns(p, (), np.empty((1, 0))))
        peak = rk4_peaks(c, init, cfg, b)
        assert peak.tobytes() == np.array([traj.column("B").max()]).tobytes()


# ---------------------------------------------------------------------------
# The sweep's failure through the public function. The sweep no longer
# forks; the class keeps its name so that the test keeps its id.


class TestForkedPeakSweep:
    def test_integration_error_crosses_with_its_message(self):
        # The overflow case of
        # test_nonfinite_names_first_failing_sample_in_row_order through
        # the public function: with seed 1, sample 0 stays finite and
        # sample 2 overflows before sample 1.
        ranges = ParamRanges({"lambda": (0.0, 3e307)})
        cfg = SimConfig(t_end=50.0, dt=0.5)
        init = default_init(OUTBREAK)
        samples = lhs_sample(ranges, 3, 1)
        outcomes = []
        with np.errstate(over="ignore", invalid="ignore"):
            for row in samples:
                try:
                    integrate_ode(_params_for_row(OUTBREAK, ranges.names, row), init, cfg)
                    outcomes.append(None)
                except IntegrationError as exc:
                    outcomes.append(str(exc))
        assert outcomes[0] is None
        late, early = (float(m.rsplit("=", 1)[1]) for m in outcomes[1:])
        assert early < late
        with pytest.raises(IntegrationError) as exc:
            sensitivity_of_peak_symptomatic(ranges, 3, 1, OUTBREAK, cfg)
        assert str(exc.value) == f"sample 1: {outcomes[1]}"


def test_sweeps_that_succeed_build_no_model_params(monkeypatch):
    # Rows that run need no validated ModelParams: both sweeps take
    # parameter columns, and only a failed peak run's first sample is
    # built, for its message.
    calls = []
    real = sensitivity._params_for_row

    def counting(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(sensitivity, "_params_for_row", counting)
    sensitivity_of_r0(n=50, seed=1)
    sensitivity_of_peak_symptomatic(n=20, seed=1, cfg=SimConfig(t_end=20.0, dt=0.5))
    assert calls == []
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(IntegrationError, match="^sample 1: "):
            sensitivity_of_peak_symptomatic(
                ParamRanges({"lambda": (0.0, 3e307)}), 3, 1, OUTBREAK,
                SimConfig(t_end=50.0, dt=0.5))
    assert len(calls) == 1


@pytest.mark.parametrize("metric, model", [
    ("peak", "rk4_peaks"), ("r0", "r0_closed_form"),
])
def test_too_few_samples_are_refused_before_any_run(
    metric, model, tmp_path, monkeypatch, capsys, forks
):
    def never(*args):
        raise AssertionError(f"{model} was called")

    monkeypatch.setattr(sensitivity, model, never)
    monkeypatch.setattr(sensitivity, "lhs_sample", never)
    code = run_cli(["sensitivity", "--metric", metric, "--samples", "5",
                    "--out", str(tmp_path / "prcc.csv")])
    assert code == 2
    assert capsys.readouterr().err == (
        "error: need n > k + 1 samples for PRCC, got n=5, k=12\n")
    assert forks == []
