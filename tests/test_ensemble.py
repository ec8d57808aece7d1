import math
import os
import select
import signal
import subprocess
import sys
import textwrap
import threading
import time
import tracemalloc
import warnings
from dataclasses import replace

import numpy as np
import pytest

from herdflu import (
    BASELINE_PARAMS,
    DEFAULT_NOISE,
    EnsembleSummary,
    HerdState,
    IntegrationError,
    NoiseIntensities,
    NoiseStream,
    SimConfig,
    default_init,
    extinction_fraction,
    integrate_sde,
    iter_path_blocks,
    iter_path_states,
    run_ensemble,
)
from herdflu import integrate
from herdflu.cli import run_cli
from herdflu.ensemble import EXTINCTION_THRESHOLD, QUANTILES, _sorted_quantiles
from herdflu.integrate import _BLOCK_STEPS

ZERO_NOISE = NoiseIntensities(0.0, 0.0, 0.0, 0.0, 0.0)
CFG = SimConfig(t_end=2.0, dt=0.01)
INIT = default_init(BASELINE_PARAMS)


class TestRunEnsemble:
    def test_single_path_reduces_to_sde(self):
        summ = run_ensemble(BASELINE_PARAMS, DEFAULT_NOISE, INIT, CFG, 1, 42)
        tr = integrate_sde(BASELINE_PARAMS, DEFAULT_NOISE, INIT, CFG, NoiseStream(42, 0))
        assert np.array_equal(summ.mean, tr.states)
        assert np.array_equal(summ.q50, tr.states)
        assert np.all(summ.std == 0.0)

    def test_zero_noise_collapses_paths(self):
        summ = run_ensemble(BASELINE_PARAMS, ZERO_NOISE, INIT, CFG, 8, 0)
        det = integrate_sde(BASELINE_PARAMS, ZERO_NOISE, INIT, CFG, NoiseStream(0, 0))
        assert np.all(summ.std == 0.0)
        assert np.array_equal(summ.mean, det.states)
        assert np.array_equal(summ.q025, summ.q975)

    def test_reruns_identical(self):
        a = run_ensemble(BASELINE_PARAMS, DEFAULT_NOISE, INIT, CFG, 16, 5)
        b = run_ensemble(BASELINE_PARAMS, DEFAULT_NOISE, INIT, CFG, 16, 5)
        for x, y in ((a.mean, b.mean), (a.std, b.std), (a.q975, b.q975)):
            assert np.array_equal(x, y)

    def test_seed_matters(self):
        a = run_ensemble(BASELINE_PARAMS, DEFAULT_NOISE, INIT, CFG, 16, 5)
        b = run_ensemble(BASELINE_PARAMS, DEFAULT_NOISE, INIT, CFG, 16, 6)
        assert not np.array_equal(a.mean, b.mean)

    def test_quantiles_ordered_and_bracket_median(self):
        summ = run_ensemble(BASELINE_PARAMS, DEFAULT_NOISE, INIT, CFG, 64, 3)
        assert np.all(summ.q025 <= summ.q50)
        assert np.all(summ.q50 <= summ.q975)
        assert np.all(summ.q025 >= 0.0)

    def test_mean_between_extreme_quantiles(self):
        summ = run_ensemble(BASELINE_PARAMS, DEFAULT_NOISE, INIT, CFG, 64, 3)
        # means of 64 paths with mild noise stay inside the 95% band
        assert np.all(summ.mean <= summ.q975 + 1e-9)
        assert np.all(summ.mean >= summ.q025 - 1e-9)

    def test_member_paths_recoverable(self):
        # Every member path is reproducible from (master_seed, index),
        # and the summary moments are those of the member stack.
        summ = run_ensemble(BASELINE_PARAMS, DEFAULT_NOISE, INIT, CFG, 3, 11)
        members = [
            integrate_sde(
                BASELINE_PARAMS, DEFAULT_NOISE, INIT, CFG, NoiseStream(11, i)
            ).states
            for i in range(3)
        ]
        stack = np.stack(members)
        assert np.allclose(summ.mean, stack.mean(axis=0), rtol=1e-13, atol=1e-10)
        assert np.allclose(summ.std, stack.std(axis=0), rtol=1e-9, atol=1e-10)
        assert np.array_equal(summ.q50, np.quantile(stack, 0.5, axis=0))

    def test_block_reduction_matches_per_row_reference(self):
        # Reference: the per-row reduction, one recorded slab at a time.
        # The grid crosses two engine block boundaries (2600 steps),
        # records every 7th step and ends on a partial stride; over it
        # the share of paths below the extinction threshold keeps moving.
        cfg = SimConfig(t_end=2.6, dt=0.001, record_stride=7)
        n_paths, seed = 33, 17
        summ = run_ensemble(BASELINE_PARAMS, DEFAULT_NOISE, INIT, cfg, n_paths, seed)
        streams = [NoiseStream(seed, i) for i in range(n_paths)]
        ref = {name: [] for name in ("mean", "std", "q025", "q50", "q975")}
        for _, slab in iter_path_states(
            BASELINE_PARAMS, INIT, cfg, noise=DEFAULT_NOISE, streams=streams
        ):
            base = slab[0]
            dev = slab - base
            dm = dev.mean(axis=0)
            ref["mean"].append(base + dm)
            var = (dev * dev).mean(axis=0) - dm * dm
            ref["std"].append(np.sqrt(np.maximum(var, 0.0)))
            qs = np.quantile(slab, QUANTILES, axis=0)
            for name, q in zip(("q025", "q50", "q975"), qs):
                ref[name].append(q)
            last = slab.copy()
        assert len(summ.times) == len(ref["mean"]) == 373
        for name, rows in ref.items():
            assert np.array_equal(getattr(summ, name), np.array(rows)), name
        load = last[:, 1] + last[:, 2] + last[:, 3]
        assert summ.extinct_fraction == float(np.mean(load < EXTINCTION_THRESHOLD))
        assert 0.0 < summ.extinct_fraction < 1.0

    def test_in_place_reduction_matches_untouched_blocks(self):
        # The reducer sorts each engine block in place. Reference: the
        # same statistics on a copy of each block taken before the sort
        # (through on_block), with np.quantile on the untouched copy.
        # Loud noise on S clamps many paths to exactly 0, so order
        # statistics tie; the extinct share is per path and must survive
        # the sort.
        p = replace(BASELINE_PARAMS, beta_a=0.46665)
        init = HerdState(2000.0, 3.0, 2.0, 1.0, 8.0, 5.0)
        loud = NoiseIntensities(3.0, 1.0, 1.0, 1.0, 3.0)
        cfg = SimConfig(t_end=10.0, dt=0.1, record_stride=3)
        copies = []
        summ = run_ensemble(
            p, loud, init, cfg, 40, 8,
            on_block=lambda times, blk: copies.append(blk.copy()),
        )
        stack = np.concatenate(copies)
        assert np.mean(stack[1:, :, 0] == 0.0) > 0.05
        base = stack[:, 0]
        dev = stack - base[:, None]
        dm = dev.mean(axis=1)
        var = (dev * dev).mean(axis=1) - dm * dm
        ref = dict(
            mean=base + dm,
            std=np.sqrt(np.maximum(var, 0.0)),
            **dict(zip(("q025", "q50", "q975"),
                       np.quantile(stack, QUANTILES, axis=1))),
        )
        for name, want in ref.items():
            assert getattr(summ, name).tobytes() == want.tobytes(), name
        assert np.any(summ.q025[:, 0] == 0.0)
        load = stack[-1, :, 1] + stack[-1, :, 2] + stack[-1, :, 3]
        assert summ.extinct_fraction == float(np.mean(load < EXTINCTION_THRESHOLD))
        assert 0.0 < summ.extinct_fraction < 1.0

    def test_bad_n_paths_rejected(self):
        for n in (0, -3, 2.0):
            with pytest.raises(ValueError):
                run_ensemble(BASELINE_PARAMS, DEFAULT_NOISE, INIT, CFG, n, 0)

    def test_summary_shape_validated(self):
        t = np.array([0.0, 1.0])
        good = np.zeros((2, 6))
        with pytest.raises(ValueError):
            EnsembleSummary(
                times=t, mean=good, std=np.zeros((3, 6)), q025=good,
                q50=good, q975=good, n_paths=1, master_seed=0,
                extinct_fraction=0.0,
            )


class TestSortedQuantiles:
    """Order statistics of the sorted block against np.quantile."""

    @staticmethod
    def check(blk):
        want = np.quantile(blk, QUANTILES, axis=1, method="linear")
        srt = np.sort(blk, axis=1)
        got = np.full((3, len(blk), 6), np.nan)
        _sorted_quantiles(srt, tuple(got))
        assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("n_paths", range(1, 131))
    def test_bitwise_equal_to_np_quantile(self, n_paths):
        rng = np.random.default_rng(n_paths)
        blk = rng.lognormal(3.0, 2.0, size=(5, n_paths, 6))
        blk[1] = np.round(blk[1])                      # ties
        blk[2] = blk[2, :1]                            # all paths identical
        blk[3, :, 4:] = 0.0                            # zero columns
        # Zeros of one sign among other values. 0.0 and -0.0 compare
        # equal, so their order after a sort is unspecified; engine
        # blocks never mix them (the clamp writes 0.0, and only the
        # t = 0 block, where every path is equal, can hold a -0.0).
        blk[4, :, 1] = rng.choice([-0.0, 1e-300, 2.0], size=n_paths)
        blk[4, :, 2] = rng.choice([0.0, -1e-300, 2.0], size=n_paths)
        self.check(blk)

    @pytest.mark.parametrize("n_paths", [1, 2, 3, 41])
    def test_initial_block(self, n_paths):
        # The t = 0 block: every path at the initial state, zeros of
        # either sign included.
        x0 = np.array([2999.0, 1.0, -0.0, 0.0, 0.0, 5e-324])
        self.check(np.tile(x0, (1, n_paths, 1)))

    def test_run_ensemble_keeps_negative_zero(self):
        init = HerdState(3000.0, -0.0, -0.0, 0.0, 0.0, -0.0)
        for n_paths in (1, 2, 5):
            summ = run_ensemble(BASELINE_PARAMS, DEFAULT_NOISE, init, CFG, n_paths, 4)
            first = np.tile(init.as_array(), (1, n_paths, 1))
            want = np.quantile(first, QUANTILES, axis=1)[:, 0]
            got = np.array([summ.q025[0], summ.q50[0], summ.q975[0]])
            assert got.tobytes() == want.tobytes(), n_paths


class TestExtinction:
    def test_subcritical_herd_clears_infection(self):
        # r0 well below 1 and one exposed seed: by day 200 essentially
        # every path has burnt out.
        cfg = SimConfig(t_end=200.0, dt=0.05)
        frac = extinction_fraction(BASELINE_PARAMS, DEFAULT_NOISE, INIT, cfg, 50, 7)
        assert frac >= 0.9

    def test_monotone_in_threshold(self):
        cfg = SimConfig(t_end=50.0, dt=0.05)
        lo = extinction_fraction(
            BASELINE_PARAMS, DEFAULT_NOISE, INIT, cfg, 40, 1, threshold=0.05
        )
        hi = extinction_fraction(
            BASELINE_PARAMS, DEFAULT_NOISE, INIT, cfg, 40, 1, threshold=5.0
        )
        assert lo <= hi

    def test_default_matches_summary_fraction(self):
        summ = run_ensemble(BASELINE_PARAMS, DEFAULT_NOISE, INIT, CFG, 32, 13)
        frac = extinction_fraction(
            BASELINE_PARAMS, DEFAULT_NOISE, INIT, CFG, 32, 13
        )
        assert frac == summ.extinct_fraction

    @pytest.mark.parametrize("by_time", [3.0, float("nan"), float("inf")])
    def test_by_time_beyond_grid_rejected(self, by_time):
        with pytest.raises(ValueError):
            extinction_fraction(
                BASELINE_PARAMS, DEFAULT_NOISE, INIT, CFG, 4, 0, by_time=by_time
            )

    def test_earlier_cutoff_never_increases_fraction(self):
        # Requiring extinction over a longer tail is a stricter event.
        cfg = SimConfig(t_end=100.0, dt=0.05)
        late = extinction_fraction(
            BASELINE_PARAMS, DEFAULT_NOISE, INIT, cfg, 40, 2, by_time=100.0
        )
        early = extinction_fraction(
            BASELINE_PARAMS, DEFAULT_NOISE, INIT, cfg, 40, 2, by_time=50.0
        )
        assert early <= late

    def test_bad_threshold_rejected(self):
        with pytest.raises(ValueError):
            extinction_fraction(
                BASELINE_PARAMS, DEFAULT_NOISE, INIT, CFG, 4, 0, threshold=-1.0
            )


# Loud noise on S and B clamps them to 0, and some paths die out before
# t = 12.5, others after; 2500 steps at stride 7 put recorded rows and
# partial strides on either side of every block boundary at each block
# length the tests use (37, the default and 1024).
LOUD_P = replace(BASELINE_PARAMS, beta_a=0.46665)
LOUD = NoiseIntensities(3.0, 1.0, 1.0, 1.0, 3.0)
LOUD_INIT = HerdState(2000.0, 40.0, 25.0, 12.0, 8.0, 90.0)
LOUD_CFG = SimConfig(t_end=25.0, dt=0.01, record_stride=7)
LOUD_PATHS, LOUD_SEED = 6, 4
LOUD_CONFIG = (
    "beta_a = 0.46665\nt_end = 25\nseed = 4\nn_paths = 6\n"
    "s0 = 2000\ne0 = 40\nis0 = 25\nia0 = 12\nr0 = 8\nb0 = 90\n"
    "sig_s = 3\nsig_e = 1\nsig_is = 1\nsig_ia = 1\nsig_b = 3\n"
)


def loud_outputs(out):
    """Every engine consumer's bytes for the loud ensemble: the
    `iter_path_blocks` concatenation, the `run_ensemble` summary,
    `extinction_fraction(by_time=12.5)` and the CLI summary and
    `--paths-out` files, written under `out`."""
    streams = [NoiseStream(LOUD_SEED, i) for i in range(LOUD_PATHS)]
    blocks = [
        (times.copy(), blk.copy())
        for times, blk in iter_path_blocks(
            LOUD_P, LOUD_INIT, LOUD_CFG, noise=LOUD, streams=streams,
        )
    ]
    summ = run_ensemble(LOUD_P, LOUD, LOUD_INIT, LOUD_CFG, LOUD_PATHS, LOUD_SEED)
    tail = extinction_fraction(LOUD_P, LOUD, LOUD_INIT, LOUD_CFG, LOUD_PATHS,
                               LOUD_SEED, by_time=12.5)
    out.mkdir()
    config = out / "loud.cfg"
    config.write_text(LOUD_CONFIG)
    assert run_cli(["ensemble", "--config", str(config), "--out",
                    str(out / "summary.csv"), "--paths-out", str(out)]) == 0
    return (
        len(blocks),
        np.concatenate([t for t, _ in blocks]).tobytes(),
        np.concatenate([b for _, b in blocks]).tobytes(),
        [getattr(summ, name).tobytes()
         for name in ("times", "mean", "std", "q025", "q50", "q975")],
        summ.extinct_fraction,
        tail,
        {f.name: f.read_bytes() for f in sorted(out.iterdir())},
    )


@pytest.fixture
def made_here(monkeypatch):
    """The block lengths of every `_to_increments` call in this process;
    a forked helper's calls are counted in its own copy of the list."""
    lengths = []
    to_increments = integrate._to_increments

    def counting(z, sqrt_dt):
        lengths.append(len(z))
        return to_increments(z, sqrt_dt)

    monkeypatch.setattr(integrate, "_to_increments", counting)
    return lengths


class TestBlockLength:
    """How many steps an engine block spans never changes a value."""

    def test_values_do_not_depend_on_block_length(self, tmp_path, monkeypatch):
        seen = {}
        for m in (37, _BLOCK_STEPS, 1024):
            monkeypatch.setattr(integrate, "_BLOCK_STEPS", m)
            seen[m] = loud_outputs(tmp_path / f"m{m}")
            assert seen[m][0] == 1 + math.ceil(LOUD_CFG.n_steps() / m)
        ref = seen.pop(1024)
        assert np.sum(np.frombuffer(ref[2]) == 0.0) > 0
        assert 0.0 < ref[5] < ref[4] < 1.0
        assert len(ref[6]) == LOUD_PATHS + 2
        for m, got in seen.items():
            assert got[1:] == ref[1:], m

    def test_working_set_stays_within_one_block(self, monkeypatch):
        # 2000 paths at stride 1: a block holds five noise doubles per
        # path-step and six state doubles per recorded path-row.
        n_paths = 2000
        cfg = SimConfig(t_end=3.0, dt=0.01)
        block = _BLOCK_STEPS * n_paths * 8 * (5 + 6)
        # tracemalloc cannot see the shared noise ring, so its size is
        # checked apart: two engine blocks of noise.
        rings = []
        shared_array = integrate.shared_array

        def spy(shape):
            slots = shared_array(shape)
            rings.append(slots.nbytes)
            return slots

        monkeypatch.setattr(integrate, "shared_array", spy)
        # Load scipy.special outside the traced run.
        import scipy.special  # noqa: F401
        tracemalloc.start()
        try:
            run_ensemble(BASELINE_PARAMS, DEFAULT_NOISE, INIT, cfg, n_paths, 5)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # The engine block, plus the reducer's deviations from path 0 (a
        # copy of the block's rows, 6/11 of it) and np.quantile's scratch;
        # a second copy of the rows, or the previous block kept alive
        # while the engine fills the next, goes past this.
        assert peak < 1.5 * block
        assert rings == [2 * _BLOCK_STEPS * n_paths * 40]


class TestNoiseHelper:
    """The forked noise helper changes no value and leaves no process."""

    def test_values_do_not_depend_on_helper_share(self, tmp_path, monkeypatch, forks):
        # Each engine block fills one slot, also at odd lengths: the
        # 2500 steps end in a 21-step block at 37 and a 4-step one at 64.
        for m in (37, _BLOCK_STEPS):
            monkeypatch.setattr(integrate, "_BLOCK_STEPS", m)
            seen = {}
            for w in (0, 1, LOUD_PATHS // 2, LOUD_PATHS):
                monkeypatch.setattr(integrate, "_helper_share", lambda n, w=w: w)
                del forks[:]
                seen[w] = loud_outputs(tmp_path / f"m{m}w{w}")
                # One helper per run of each of the four consumers, and
                # the CLI summary's formatter.
                assert len(forks) == (5 if w else 1), (m, w)
            ref = seen.pop(0)
            for w, got in seen.items():
                assert got == ref, (m, w)

    @pytest.mark.parametrize("blocks, extra", [(1, 1), (2, 0), (2, 1), (3, 0)])
    def test_ring_edges_give_the_bytes_of_no_helper(
        self, blocks, extra, monkeypatch, forks
    ):
        # B + 1 and 2B + 1 steps end in a one-step block; at 2B steps the
        # helper gets no slot back, at 3B steps exactly one. Shares 1 and
        # P put the split at either end of the path axis.
        n_steps = blocks * _BLOCK_STEPS + extra
        cfg = SimConfig(t_end=n_steps * 0.01, dt=0.01, record_stride=7)
        assert cfg.n_steps() == n_steps
        streams = [NoiseStream(6, i) for i in range(5)]
        seen = {}
        for w in (0, 1, len(streams)):
            monkeypatch.setattr(integrate, "_helper_share", lambda n, w=w: w)
            del forks[:]
            got = [(t.copy(), b.copy()) for t, b in iter_path_blocks(
                BASELINE_PARAMS, INIT, cfg, noise=DEFAULT_NOISE, streams=streams)]
            assert len(forks) == (1 if w else 0), w
            self.assert_no_child()
            seen[w] = (np.concatenate([t for t, _ in got]).tobytes(),
                       np.concatenate([b for _, b in got]).tobytes())
        assert len(seen[0][0]) == 8 * len(cfg.recorded_steps())
        assert seen[1] == seen[0]
        assert seen[len(streams)] == seen[0]

    def test_default_share_and_fallbacks_give_the_same_bytes(
        self, tmp_path, monkeypatch, forks, made_here
    ):
        # With a helper, only the helper makes increments; every fallback
        # makes them in this process.
        ref = loud_outputs(tmp_path / "default")
        assert len(forks) == 5
        assert made_here == []
        del forks[:]

        # Another Python thread is running: no fork.
        stop = threading.Event()
        other = threading.Thread(target=stop.wait)
        other.start()
        try:
            assert loud_outputs(tmp_path / "thread") == ref
        finally:
            stop.set()
            other.join(timeout=10)
        assert not other.is_alive()
        assert forks == []
        assert made_here
        del made_here[:]

        # fork fails: no descriptor is left open.
        def failing_fork():
            raise OSError("fork refused")

        monkeypatch.setattr(os, "fork", failing_fork)
        fds = len(os.listdir("/proc/self/fd")) if os.path.isdir("/proc/self/fd") else None
        assert loud_outputs(tmp_path / "refused") == ref
        if fds is not None:
            assert len(os.listdir("/proc/self/fd")) == fds
        assert made_here
        del made_here[:]

        # No os.fork at all.
        monkeypatch.delattr(os, "fork")
        assert loud_outputs(tmp_path / "nofork") == ref
        assert made_here

    def test_close_does_not_wait_on_inherited_pipe_ends(self, forks):
        # A process forked by the consumer mid-run keeps copies of the
        # helper's pipes open; closing the run must still end the helper.
        # After the first of eight blocks the helper has filled blocks 0
        # to 2 and waits for the slot of block 3.
        cfg = SimConfig(t_end=5.0, dt=0.01)
        streams = [NoiseStream(2, i) for i in range(5)]
        it = iter_path_blocks(BASELINE_PARAMS, INIT, cfg, noise=DEFAULT_NOISE,
                              streams=streams)
        next(it)
        next(it)
        go_r, go_w = os.pipe()
        pid = os.fork()
        if pid == 0:
            select.select([go_r], [], [], 10.0)
            os._exit(0)
        try:
            t0 = time.monotonic()
            it.close()
            elapsed = time.monotonic() - t0
        finally:
            os.write(go_w, b"1")
            os.waitpid(pid, 0)
            os.close(go_r)
            os.close(go_w)
        assert elapsed < 5.0
        self.assert_no_child()

    def test_fork_warning_of_python_3_12_is_filtered(self, monkeypatch):
        # Python >= 3.12 warns like this on fork() when numpy's BLAS
        # threads exist; the helper makes no BLAS call, so the engine
        # silences exactly this warning.
        fork = os.fork

        def warning_fork():
            warnings.warn(
                f"This process (pid={os.getpid()}) is multi-threaded, use of "
                "fork() may lead to deadlocks in the child.",
                DeprecationWarning, stacklevel=2)
            return fork()

        monkeypatch.setattr(os, "fork", warning_fork)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            run_ensemble(BASELINE_PARAMS, DEFAULT_NOISE, INIT, CFG, 4, 1)
            warnings.warn("other warnings still show", DeprecationWarning)
        assert [str(w.message) for w in caught] == ["other warnings still show"]

    @pytest.mark.parametrize("failure", ["exception", "sigint"])
    def test_failing_helper_leaves_without_unwinding(
        self, failure, tmp_path, monkeypatch, forks
    ):
        # Once it has forked, only the helper calls _to_increments. It
        # must leave through os._exit: unwinding would run this test's
        # `finally` in the helper as well.
        monkeypatch.setattr(integrate, "_helper_share", lambda n: n)

        def broken(*args):
            if failure == "sigint":
                os.kill(os.getpid(), signal.SIGINT)
            raise KeyError("no noise")

        monkeypatch.setattr(integrate, "_to_increments", broken)
        mark = tmp_path / "unwound"
        with pytest.raises(ChildProcessError, match="noise helper process ended"):
            try:
                run_ensemble(BASELINE_PARAMS, DEFAULT_NOISE, INIT, CFG, 4, 1)
            finally:
                with open(mark, "a") as fh:
                    fh.write(f"{os.getpid()}\n")
        assert mark.read_text() == f"{os.getpid()}\n"
        assert len(forks) == 1
        self.assert_no_child()

    def test_dead_helper_makes_the_cli_exit_2(
        self, tmp_path, monkeypatch, capsys, forks
    ):
        monkeypatch.setattr(integrate, "_helper_share", lambda n: n)

        def broken(*args):
            raise KeyError("no noise")

        monkeypatch.setattr(integrate, "_to_increments", broken)
        config = tmp_path / "run.cfg"
        config.write_text("t_end = 2\ndt = 0.01\nn_paths = 4\nseed = 3\n")
        code = run_cli(["ensemble", "--config", str(config),
                        "--out", str(tmp_path / "summary.csv")])
        assert code == 2
        assert capsys.readouterr().err == (
            "error: the noise helper process ended by exit status 1\n")
        # The summary's formatter, then the noise helper.
        assert len(forks) == 2
        self.assert_no_child()

    def test_one_block_run_does_not_fork(self, forks, made_here):
        cfg = SimConfig(t_end=0.5, dt=0.01)
        assert cfg.n_steps() <= _BLOCK_STEPS
        run_ensemble(BASELINE_PARAMS, DEFAULT_NOISE, INIT, cfg, 4, 1)
        assert forks == []
        assert made_here == [cfg.n_steps()]

    def test_main_process_leaves_out_scipy_special(self):
        # At 500 paths the main process draws uniforms of its own, but
        # only the helper turns them into increments, so only the helper
        # loads scipy's `ndtri` kernel. With one usable CPU this process
        # makes every increment, and loads it, with the same values.
        script = textwrap.dedent("""
            import sys
            import herdflu

            def summary():
                s = herdflu.run_ensemble(
                    herdflu.BASELINE_PARAMS, herdflu.DEFAULT_NOISE,
                    herdflu.default_init(herdflu.BASELINE_PARAMS),
                    herdflu.SimConfig(2.0, 0.01), 500, 4)
                return [getattr(s, f).tobytes() for f in
                        ("times", "mean", "std", "q025", "q50", "q975")]

            herdflu.process.usable_cpus = lambda: 2
            two = summary()
            print("scipy.special._ufuncs" in sys.modules)
            herdflu.process.usable_cpus = lambda: 1
            one = summary()
            print("scipy.special._ufuncs" in sys.modules)
            print(one == two)
        """)
        proc = subprocess.run([sys.executable, "-c", script],
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.split() == ["False", "True", "True"]

    @staticmethod
    def assert_no_child():
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    def test_helper_is_reaped_after_a_full_run(self, forks):
        run_ensemble(BASELINE_PARAMS, DEFAULT_NOISE, INIT, CFG, 8, 3)
        assert len(forks) == 1
        self.assert_no_child()

    def test_helper_is_reaped_after_an_integration_error(
        self, monkeypatch, forks
    ):
        # Recruitment beyond double range overflows at t = 2, step 4,
        # in the second 3-step block.
        monkeypatch.setattr(integrate, "_BLOCK_STEPS", 3)
        p = replace(BASELINE_PARAMS, lambda_recruit=1e308)
        cfg = SimConfig(t_end=10.0, dt=0.5)
        streams = [NoiseStream(0, i) for i in range(4)]
        times = []
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(IntegrationError, match="non-finite state at t=2$"):
                for t, _ in iter_path_blocks(p, INIT, cfg, noise=DEFAULT_NOISE,
                                             streams=streams):
                    times.extend(t.tolist())
        assert times == [0.0, 0.5, 1.0, 1.5]
        assert len(forks) == 1
        self.assert_no_child()

    @pytest.mark.parametrize("taken", [1, 2])
    def test_helper_is_reaped_on_close(self, taken, forks):
        # taken 1: only the initial row; 2: also the first engine block.
        streams = [NoiseStream(2, i) for i in range(5)]
        it = iter_path_blocks(BASELINE_PARAMS, INIT, CFG, noise=DEFAULT_NOISE,
                              streams=streams)
        for _ in range(taken):
            next(it)
        assert len(forks) == 1
        it.close()
        self.assert_no_child()
