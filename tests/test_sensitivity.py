import math
from dataclasses import replace

import numpy as np
import pytest

from herdflu import (
    BASELINE_PARAMS,
    IntegrationError,
    ParamRanges,
    SimConfig,
    default_init,
    integrate_ode,
    default_ranges,
    lhs_sample,
    prcc,
    sensitivity_of_peak_symptomatic,
    sensitivity_of_r0,
)
from herdflu import sensitivity
from herdflu.cli import run_cli
from herdflu.sensitivity import (
    R0_PARAM_KEYS,
    _checked_peaks,
    _params_for_row,
    _peak_symptomatic,
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
        params = [_params_for_row(OUTBREAK, ranges.names, row) for row in samples]
        assert _peak_symptomatic(params, init, cfg).tobytes() == ref.tobytes()
        rep = sensitivity_of_peak_symptomatic(ranges, n, seed, OUTBREAK, cfg)
        assert rep == prcc(samples, ref, names=ranges.names, seed=seed)

    def test_failed_runs_give_nan_peaks(self):
        # Samples 1 and 3 overflow, at different times; 0 and 2 do not.
        cfg = SimConfig(t_end=50.0, dt=0.5)
        init = default_init(OUTBREAK)
        params = [replace(OUTBREAK, lambda_recruit=v) for v in (1.0, 3e307, 2.0, 1e307)]
        peaks = _peak_symptomatic(params, init, cfg)
        assert np.isnan(peaks).tolist() == [False, True, False, True]
        with np.errstate(over="ignore", invalid="ignore"):
            for i in (1, 3):
                with pytest.raises(IntegrationError):
                    integrate_ode(params[i], init, cfg)
        ref = [integrate_ode(params[i], init, cfg).column("I_s").max() for i in (0, 2)]
        assert peaks[[0, 2]].tobytes() == np.array(ref).tobytes()

    def test_nonfinite_names_first_failing_sample_in_row_order(self):
        # Sample 1 overflows later than sample 2: row order, not time,
        # picks the sample the error names.
        cfg = SimConfig(t_end=50.0, dt=0.5)
        init = default_init(OUTBREAK)
        params = [OUTBREAK] + [
            replace(OUTBREAK, lambda_recruit=v) for v in (1e307, 3e307)
        ]
        messages = []
        with np.errstate(over="ignore", invalid="ignore"):
            for p in params[1:]:
                with pytest.raises(IntegrationError) as exc:
                    integrate_ode(p, init, cfg)
                messages.append(str(exc.value))
            with pytest.raises(IntegrationError) as exc:
                _checked_peaks(params, init, cfg)
        late, early = (float(m.rsplit("=", 1)[1]) for m in messages)
        assert early < late
        assert str(exc.value) == f"sample 1: {messages[0]}"


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
