import math
from dataclasses import fields, replace
from types import SimpleNamespace

import numpy as np
import pytest

from herdflu import (
    BASELINE_PARAMS,
    DEFAULT_NOISE,
    HerdState,
    IntegrationError,
    ModelParams,
    NoiseIntensities,
    NoiseStream,
    SimConfig,
    Trajectory,
    default_init,
    disease_free_equilibrium,
    drift,
    integrate_ode,
    integrate_sde,
    iter_path_blocks,
    iter_path_states,
    wiener_increments,
)
from herdflu import integrate
from herdflu.model import rate_coefficients, rates_rows
from herdflu.output import write_trajectory_csv

ZERO_NOISE = NoiseIntensities(0.0, 0.0, 0.0, 0.0, 0.0)


class TestSimConfig:
    def test_defaults(self):
        cfg = SimConfig()
        assert cfg.t_end == 500.0 and cfg.dt == 0.01
        assert cfg.n_steps() == 50_000

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"t_end": 0.0},
            {"t_end": -5.0},
            {"t_end": float("inf")},
            {"dt": 0.0},
            {"dt": -0.1},
            {"t_end": 1.0, "dt": 2.0},
            {"record_stride": 0},
            {"record_stride": 1.5},
            {"dt": float("nan")},
        ],
    )
    def test_rejects_bad_grid(self, kwargs):
        with pytest.raises(ValueError):
            SimConfig(**kwargs)

    def test_rejects_grid_dt_does_not_divide(self):
        # 1.0 / 0.4 rounds to 2 steps, which would stop at t = 0.8.
        with pytest.raises(ValueError, match="does not divide"):
            SimConfig(t_end=1.0, dt=0.4)
        assert SimConfig(t_end=10.0, dt=0.4).n_steps() == 25

    def test_recorded_steps_include_endpoints(self):
        cfg = SimConfig(t_end=1.0, dt=0.1, record_stride=3)
        assert list(cfg.recorded_steps()) == [0, 3, 6, 9, 10]

    def test_stride_one_records_everything(self):
        cfg = SimConfig(t_end=1.0, dt=0.25)
        assert list(cfg.recorded_steps()) == [0, 1, 2, 3, 4]


class TestWiener:
    def test_reproducible(self):
        st = NoiseStream(123, 4)
        a = wiener_increments(st, 50, 0.01)
        b = wiener_increments(st, 50, 0.01)
        assert a.shape == (50, 5)
        assert np.array_equal(a, b)

    def test_paths_independent(self):
        a = wiener_increments(NoiseStream(123, 0), 50, 0.01)
        b = wiener_increments(NoiseStream(123, 1), 50, 0.01)
        assert not np.array_equal(a, b)

    def test_random_access_matches_stream(self):
        st = NoiseStream(99, 7)
        full = wiener_increments(st, 64, 0.5)
        for k in (0, 1, 13, 63):
            assert np.array_equal(
                wiener_increments(st, 1, 0.5, start_step=k)[0], full[k]
            )

    def test_chunked_generation_matches(self):
        st = NoiseStream(5, 0)
        full = wiener_increments(st, 40, 0.2)
        head = wiener_increments(st, 15, 0.2)
        tail = wiener_increments(st, 25, 0.2, start_step=15)
        assert np.array_equal(np.vstack([head, tail]), full)

    def test_moments(self):
        dw = wiener_increments(NoiseStream(2024, 0), 40_000, 0.25)
        flat = dw.ravel()
        n = flat.size
        assert abs(flat.mean()) < 4.0 * math.sqrt(0.25 / n)
        assert flat.var() == pytest.approx(0.25, rel=0.02)

    def test_scales_with_sqrt_dt(self):
        st = NoiseStream(31, 2)
        a = wiener_increments(st, 10, 0.01)
        b = wiener_increments(st, 10, 0.04)
        assert np.allclose(b, 2.0 * a, rtol=1e-12)

    @pytest.mark.parametrize("seed", [-1, 2**64, 1.5])
    def test_stream_identity_validated(self, seed):
        with pytest.raises(ValueError):
            NoiseStream(seed, 0)

    def test_bad_args_rejected(self):
        st = NoiseStream(0, 0)
        with pytest.raises(ValueError):
            wiener_increments(st, 0, 0.1)
        with pytest.raises(ValueError):
            wiener_increments(st, 10, 0.0)
        with pytest.raises(ValueError):
            wiener_increments(st, 10, 0.1, start_step=-1)


class TestTrajectory:
    def test_validation(self):
        t = np.array([0.0, 1.0])
        ok = np.ones((2, 6))
        with pytest.raises(ValueError):
            Trajectory(times=np.array([0.0, 0.0]), states=ok)
        with pytest.raises(ValueError):
            Trajectory(times=t, states=np.ones((3, 6)))
        bad = ok.copy()
        bad[1, 2] = -1.0
        with pytest.raises(ValueError):
            Trajectory(times=t, states=bad)

    def test_accessors(self):
        cfg = SimConfig(t_end=1.0, dt=0.5)
        tr = integrate_ode(BASELINE_PARAMS, default_init(BASELINE_PARAMS), cfg)
        assert len(tr) == 3
        assert tr.state_at(0) == default_init(BASELINE_PARAMS)
        assert tr.final_state() == tr.state_at(2)
        assert np.array_equal(tr.column("S"), tr.states[:, 0])
        with pytest.raises(ValueError):
            tr.column("X")


class TestOde:
    def test_dfe_is_a_fixed_point(self):
        dfe = disease_free_equilibrium(BASELINE_PARAMS)
        cfg = SimConfig(t_end=10.0, dt=0.1)
        tr = integrate_ode(BASELINE_PARAMS, dfe, cfg)
        assert np.all(tr.states == dfe.as_array())

    def test_rk4_fourth_order(self):
        # Richardson: halving dt should shrink the error ~16x on a
        # smooth stretch of the endemic flow.
        p = replace(BASELINE_PARAMS, beta_a=0.46665)
        init = default_init(p)
        ref = integrate_ode(p, init, SimConfig(t_end=10.0, dt=0.0025))
        errs = []
        for dt in (0.4, 0.2):
            tr = integrate_ode(p, init, SimConfig(t_end=10.0, dt=dt))
            errs.append(np.max(np.abs(tr.states[-1] - ref.states[-1])))
        ratio = errs[0] / errs[1]
        assert 12.0 < ratio < 20.0

    def test_euler_first_order(self):
        p = replace(BASELINE_PARAMS, beta_a=0.46665)
        init = default_init(p)
        ref = integrate_ode(p, init, SimConfig(t_end=10.0, dt=0.001))
        errs = []
        for dt in (0.2, 0.1):
            # Euler-Maruyama with every sigma = 0 is forward Euler.
            tr = integrate_sde(
                p, ZERO_NOISE, init, SimConfig(t_end=10.0, dt=dt), NoiseStream(0)
            )
            errs.append(np.max(np.abs(tr.states[-1] - ref.states[-1])))
        ratio = errs[0] / errs[1]
        assert 1.6 < ratio < 2.4

    def test_rk4_mass_conservation_without_sinks(self):
        # With no disease deaths and recruitment balancing turnover at
        # N(0), the live herd size is conserved by the flow.
        p = replace(BASELINE_PARAMS, d_dis=0.0)
        init = default_init(p)  # N(0) = Lambda/mu
        tr = integrate_ode(p, init, SimConfig(t_end=50.0, dt=0.05))
        n = tr.states[:, :5].sum(axis=1)
        assert np.allclose(n, 3000.0, rtol=1e-10)


class TestSde:
    def test_reproducible(self):
        cfg = SimConfig(t_end=2.0, dt=0.01)
        init = default_init(BASELINE_PARAMS)
        a = integrate_sde(BASELINE_PARAMS, DEFAULT_NOISE, init, cfg, NoiseStream(7, 0))
        b = integrate_sde(BASELINE_PARAMS, DEFAULT_NOISE, init, cfg, NoiseStream(7, 0))
        assert np.array_equal(a.states, b.states)
        c = integrate_sde(BASELINE_PARAMS, DEFAULT_NOISE, init, cfg, NoiseStream(7, 1))
        assert not np.array_equal(a.states, c.states)

    @pytest.mark.parametrize(
        "noise", [DEFAULT_NOISE, ZERO_NOISE], ids=["default", "zero"]
    )
    def test_em_update_rule_one_step(self, noise):
        # One hand-rolled Euler-Maruyama step must match the engine bit
        # for bit: x + f dt + sigma x dW on (S, E, I_s, I_a, B). At zero
        # noise the expected step has no noise term: forward Euler.
        p = BASELINE_PARAMS
        init = HerdState(2000.0, 40.0, 25.0, 12.0, 8.0, 90.0)
        cfg = SimConfig(t_end=0.02, dt=0.02)
        stream = NoiseStream(44, 0)
        tr = integrate_sde(p, noise, init, cfg, stream)
        x = init.as_array()
        y = x + np.array(drift(init, p)) * cfg.dt
        if noise == DEFAULT_NOISE:
            dw = wiener_increments(stream, 1, cfg.dt, start_step=0)[0]
            sig = np.array([0.05, 0.05, 0.05, 0.05, 0.0, 0.05])
            dw6 = np.array([dw[0], dw[1], dw[2], dw[3], 0.0, dw[4]])
            y += sig * x * dw6
        assert np.array_equal(tr.states[-1], np.maximum(y, 0.0))

    def test_truncate_policy_clamps(self):
        # One animal, huge negative shock: S would go negative.
        p = BASELINE_PARAMS
        init = HerdState(1.0, 0.0, 0.0, 0.0, 0.0, 0.0)
        loud = NoiseIntensities(50.0, 0.0, 0.0, 0.0, 0.0)
        cfg = SimConfig(t_end=1.0, dt=0.5)
        clamped = 0
        for seed in range(20):
            tr = integrate_sde(p, loud, init, cfg, NoiseStream(seed, 0))
            assert np.all(tr.states >= 0.0)
            clamped += int(np.sum(tr.states[1:, 0] == 0.0))
        assert clamped > 0

    def test_overflow_keeps_rows_before_the_bad_one(self):
        # The per-row view yields every finite row before it raises.
        p = replace(BASELINE_PARAMS, lambda_recruit=1e308)
        init = default_init(BASELINE_PARAMS)
        cfg = SimConfig(t_end=10.0, dt=0.5)
        times = []
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(IntegrationError, match="non-finite state at t=2"):
                for t, slab in iter_path_states(
                    p, init, cfg, noise=ZERO_NOISE, streams=[NoiseStream(0, 0)]
                ):
                    assert np.all(np.isfinite(slab))
                    times.append(t)
            with pytest.raises(IntegrationError, match="non-finite state at t=2$"):
                integrate_sde(p, ZERO_NOISE, init, cfg, NoiseStream(0, 0))
        assert times == [0.0, 0.5, 1.0, 1.5]

    def test_overflow_at_a_stride_names_the_next_recorded_time(self):
        # Steps of 0.5 recorded at stride 3: times 0, 1.5, 3, ... The
        # stride-1 runs fail at t=2 (EM) and t=0.5 (RK4), which are not
        # recorded here; the first recorded times after them are named.
        p = replace(BASELINE_PARAMS, lambda_recruit=1e308)
        init = default_init(BASELINE_PARAMS)
        cfg = SimConfig(t_end=10.0, dt=0.5, record_stride=3)
        recorded = (cfg.recorded_steps() * cfg.dt).tolist()
        times = []
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(IntegrationError, match="non-finite state at t=3$"):
                integrate_sde(p, ZERO_NOISE, init, cfg, NoiseStream(0, 0))
            with pytest.raises(IntegrationError, match="non-finite state at t=3$"):
                for t, _ in iter_path_states(
                    p, init, cfg, noise=ZERO_NOISE, streams=[NoiseStream(0, 0)]
                ):
                    times.append(t)
            with pytest.raises(IntegrationError, match="t=0.5$"):
                integrate_ode(p, init, replace(cfg, record_stride=1))
            with pytest.raises(IntegrationError, match="non-finite state at t=1.5$"):
                integrate_ode(p, init, cfg)
        assert times == [0.0, 1.5]
        assert {0.5, 2.0}.isdisjoint(recorded) and {1.5, 3.0} <= set(recorded)

    def test_overflow_is_reported_not_silent(self):
        # Recruitment beyond double range must surface as an error, not
        # as inf rows in the output.
        p = replace(BASELINE_PARAMS, lambda_recruit=1e308)
        init = default_init(BASELINE_PARAMS)
        cfg = SimConfig(t_end=10.0, dt=0.5)
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(IntegrationError):
                integrate_sde(p, DEFAULT_NOISE, init, cfg, NoiseStream(3, 0))
            with pytest.raises(IntegrationError):
                integrate_ode(p, init, cfg)

    def test_small_noise_tracks_ode(self):
        p = replace(BASELINE_PARAMS, beta_a=0.46665)
        init = default_init(p)
        cfg = SimConfig(t_end=20.0, dt=0.01)
        quiet = NoiseIntensities(1e-5, 1e-5, 1e-5, 1e-5, 1e-5)
        det = integrate_ode(p, init, cfg)
        finals = [
            integrate_sde(p, quiet, init, cfg, NoiseStream(100, i)).states[-1]
            for i in range(20)
        ]
        assert np.allclose(np.mean(finals, axis=0), det.states[-1], rtol=1e-2)

    def test_gbm_reduction_matches_exact_solution(self):
        # Only the reservoir populated and no shedding sources: the B
        # equation is geometric Brownian motion with drift -eps, whose
        # exact endpoint uses the same Wiener path the engine consumed.
        p = replace(BASELINE_PARAMS, lambda_recruit=0.0, eps_decay=1.0)
        noise = NoiseIntensities(0.0, 0.0, 0.0, 0.0, 0.5)
        init = HerdState(0.0, 0.0, 0.0, 0.0, 0.0, 1.0)
        dt = 2.0**-9
        cfg = SimConfig(t_end=1.0, dt=dt)
        errs = []
        for i in range(40):
            stream = NoiseStream(555, i)
            tr = integrate_sde(p, noise, init, cfg, stream)
            w_t = wiener_increments(stream, cfg.n_steps(), dt)[:, 4].sum()
            exact = math.exp((-1.0 - 0.5**2 / 2.0) * 1.0 + 0.5 * w_t)
            errs.append(abs(tr.states[-1, 5] - exact))
        # strong error ~ O(sqrt(dt)); generous bound to stay stable
        assert np.mean(errs) < 5.0 * math.sqrt(dt)

    def test_host_compartments_stay_exactly_zero_in_gbm_mode(self):
        p = replace(BASELINE_PARAMS, lambda_recruit=0.0)
        noise = NoiseIntensities(0.3, 0.3, 0.3, 0.3, 0.3)
        init = HerdState(0.0, 0.0, 0.0, 0.0, 0.0, 1.0)
        tr = integrate_sde(p, noise, init, SimConfig(5.0, 0.05), NoiseStream(8, 0))
        assert np.all(tr.states[:, :5] == 0.0)


class TestBatchEngine:
    def test_batch_drift_matches_scalar(self):
        # The array kernel on a stacked state equals the float drift
        # column by column.
        rng = np.random.default_rng(12)
        x = rng.uniform(0.0, 4000.0, size=(6, 64))
        x[:5, :3] = 0.0  # empty herds take the N = 0 branch
        c = rate_coefficients(BASELINE_PARAMS)
        out = rates_rows(c, 64)(x, np.empty_like(x))()
        for i in range(64):
            row = drift(HerdState.from_array(x[:, i]), BASELINE_PARAMS)
            assert np.array_equal(out[:, i], row)

    def test_single_path_slab_equals_integrate_sde(self):
        cfg = SimConfig(t_end=1.0, dt=0.01)
        init = default_init(BASELINE_PARAMS)
        tr = integrate_sde(
            BASELINE_PARAMS, DEFAULT_NOISE, init, cfg, NoiseStream(21, 3)
        )
        it = iter_path_states(
            BASELINE_PARAMS, init, cfg,
            noise=DEFAULT_NOISE, streams=[NoiseStream(21, 3)],
        )
        rows = np.array([slab[0].copy() for _, slab in it])
        assert np.array_equal(rows, tr.states)

    def test_stream_args_validated(self):
        cfg = SimConfig(t_end=1.0, dt=0.5)
        init = default_init(BASELINE_PARAMS)
        with pytest.raises(ValueError):
            list(iter_path_states(
                BASELINE_PARAMS, init, cfg, noise=DEFAULT_NOISE, streams=[]
            ))
        # The engine is stochastic only; integrate_ode runs without noise.
        with pytest.raises(TypeError):
            list(iter_path_states(
                BASELINE_PARAMS, init, cfg, streams=[NoiseStream(0, 0)]
            ))

    def test_blocks_concatenate_to_the_recorded_rows(self, monkeypatch):
        # At 1024-step blocks, rows straddle the first block boundary;
        # stride 5 leaves a final partial stride at step 2102.
        m = 1024
        monkeypatch.setattr(integrate, "_BLOCK_STEPS", m)
        cfg = SimConfig(t_end=262.75, dt=0.125, record_stride=5)
        init = default_init(BASELINE_PARAMS)
        streams = [NoiseStream(4, i) for i in range(3)]
        blocks = [
            (times.copy(), blk.copy())
            for times, blk in iter_path_blocks(
                BASELINE_PARAMS, init, cfg, noise=DEFAULT_NOISE, streams=streams
            )
        ]
        assert [len(t) for t, _ in blocks] == [1, 204, 205, 12]
        ks = cfg.recorded_steps()
        assert np.array_equal(np.concatenate([t for t, _ in blocks]), ks * cfg.dt)
        for times, _ in blocks[1:]:
            steps = np.rint(times / cfg.dt).astype(int)
            assert len(set((steps - 1) // m)) == 1
        rows = [
            (t, slab.copy())
            for t, slab in iter_path_states(
                BASELINE_PARAMS, init, cfg, noise=DEFAULT_NOISE, streams=streams
            )
        ]
        assert [t for t, _ in rows] == (ks * cfg.dt).tolist()
        assert np.array_equal(
            np.stack([slab for _, slab in rows]),
            np.concatenate([blk for _, blk in blocks]),
        )

    def test_recorded_times_follow_stride(self):
        cfg = SimConfig(t_end=1.0, dt=0.1, record_stride=4)
        init = default_init(BASELINE_PARAMS)
        it = iter_path_states(BASELINE_PARAMS, init, cfg, noise=ZERO_NOISE,
                              streams=[NoiseStream(0, 0)])
        times = [t for t, _ in it]
        assert times == pytest.approx([0.0, 0.4, 0.8, 1.0])


LOUD = NoiseIntensities(3.0, 3.0, 3.0, 3.0, 3.0)


class TestRecordingRule:
    """Row j of a single-path run is step j*stride, and its last row is
    step n_steps, as `SimConfig.recorded_steps` states."""

    # 200 steps: strides 3 and 7 end on a partial stride, and 201
    # records the first and last steps only.
    GRID = {"t_end": 10.0, "dt": 0.05}
    INIT = HerdState(2000.0, 40.0, 25.0, 12.0, 8.0, 90.0)

    @pytest.mark.parametrize("stride", [1, 3, 7, 201])
    def test_rows_are_the_stride_one_rows_at_the_recorded_steps(self, stride):
        p = replace(BASELINE_PARAMS, beta_a=0.46665)
        full, cfg = SimConfig(**self.GRID), SimConfig(**self.GRID, record_stride=stride)
        ks = cfg.recorded_steps()
        assert ks[-1] == 200
        for run in (
            lambda grid: integrate_ode(p, self.INIT, grid),
            # Noise loud enough that the clamp fires.
            lambda grid: integrate_sde(p, LOUD, self.INIT, grid, NoiseStream(9, 0)),
        ):
            got, ref = run(cfg), run(full)
            assert got.times.tobytes() == ref.times[ks].tobytes()
            assert got.states.tobytes() == ref.states[ks].tobytes()

    @pytest.mark.parametrize("stride", [1, 3, 7, 201])
    def test_rk4_peaks_are_the_peaks_of_the_recorded_rows(self, stride):
        # The first set peaks in I_s at step 31, inside a stride, so the
        # peak moves with the stride; the others peak at the last step.
        sets = [replace(BASELINE_PARAMS, beta_a=b) for b in (0.05, 0.46665, 2.0)]
        cols = rate_coefficients(SimpleNamespace(**{
            f.name: np.array([getattr(q, f.name) for q in sets])
            for f in fields(ModelParams)
        }))
        cfg = SimConfig(**self.GRID, record_stride=stride)
        ks = cfg.recorded_steps()
        i_s = 2
        ref = np.array([
            integrate_ode(q, self.INIT, SimConfig(**self.GRID)).states[ks, i_s].max()
            for q in sets
        ])
        got = integrate.rk4_peaks(cols, self.INIT, cfg, i_s)
        assert got.tobytes() == ref.tobytes()


class TestFloatPath:
    """The plain-float single path against the array engine."""

    def test_float_em_equals_ensemble_member_csv_bytes(self, tmp_path):
        # Noise loud enough that the clamp fires; CSV bytes would show a
        # -0.0 where the engine writes 0.0.
        p = replace(BASELINE_PARAMS, beta_a=0.46665)
        init = HerdState(2000.0, 40.0, 25.0, 12.0, 8.0, 90.0)
        cfg = SimConfig(t_end=30.0, dt=0.05, record_stride=3)
        streams = [NoiseStream(9, i) for i in range(4)]
        blocks = [
            (times.copy(), blk.copy())
            for times, blk in iter_path_blocks(
                p, init, cfg, noise=LOUD, streams=streams
            )
        ]
        times = np.concatenate([t for t, _ in blocks])
        member = np.concatenate([blk for _, blk in blocks])
        clamped = 0
        for i, st in enumerate(streams):
            tr = integrate_sde(p, LOUD, init, cfg, st)
            ref = Trajectory(times=times, states=member[:, i])
            write_trajectory_csv(tr, tmp_path / "float.csv")
            write_trajectory_csv(ref, tmp_path / "engine.csv")
            assert (tmp_path / "float.csv").read_bytes() == (
                tmp_path / "engine.csv"
            ).read_bytes()
            clamped += int(np.sum(tr.states[1:, :4] == 0.0))
        assert clamped > 0

    def test_float_em_equals_engine_at_zero_noise(self):
        cfg = SimConfig(t_end=3.0, dt=0.01, record_stride=7)
        init = default_init(BASELINE_PARAMS)
        det = integrate_sde(BASELINE_PARAMS, ZERO_NOISE, init, cfg, NoiseStream(1, 1))
        it = iter_path_states(
            BASELINE_PARAMS, init, cfg,
            noise=ZERO_NOISE, streams=[NoiseStream(1, 0), NoiseStream(1, 1)],
        )
        rows = np.array([slab.copy() for _, slab in it])
        assert det.states.tobytes() == rows[:, 1].tobytes()
