import dataclasses
import sys
import threading
import time
import tracemalloc
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

import nlspair as nl
from nlspair import profiles as P
from nlspair import spectral
from nlspair.asymptotics import reduced_flow_profiles
from nlspair.dynamics import SolverConfig, Trajectory, run
from nlspair.profiles import (
    BALANCED,
    SURVIVOR_1,
    SURVIVOR_2,
    build_case_records,
    classify,
    decay_exponents,
    decoupling_history,
    profile_history,
    remainder_history,
)
from nlspair.spectral import (
    SQRT_2PI,
    _forward_array,
    _inverse_array,
    _profile_multiplier,
    _pull_back,
    _push_forward,
)

from conftest import (
    cumtrapz_from_start,
    free_flow,
    gaussian_field,
    l2,
    one_shot_profiles,
    same_arrays,
)


def _generic(coupling="dissipative"):
    cfg = SolverConfig(
        n_points=512, length=360.0, t_start=0.0, t_end=150.0,
        checkpoint_times=tuple([0.0] + list(np.geomspace(2.0, 150.0, 28))), coupling=coupling,
    )
    g = cfg.grid
    traj = run(cfg, np.stack([gaussian_field(g, 0.15, 4.0), gaussian_field(g, 0.075, 6.0)]))
    profiles = profile_history(traj)
    return traj, profiles, remainder_history(traj, profiles)


@pytest.fixture(scope="module")
def generic_run():
    """Asymmetric pair integrated to t = 150 on a small box."""
    return _generic()


@pytest.fixture(scope="module")
def free_component_run():
    """Second component identically zero: the first evolves freely."""
    cfg = SolverConfig(
        n_points=512, length=360.0, t_start=0.0, t_end=150.0,
        checkpoint_times=tuple(np.geomspace(2.0, 150.0, 24)),
    )
    g = cfg.grid
    traj = run(cfg, np.stack([gaussian_field(g, 0.2, 4.0), np.zeros(g.n_points)]))
    profiles = profile_history(traj)
    return traj, profiles, remainder_history(traj, profiles)


@pytest.fixture(scope="module")
def swapped_run():
    """The generic run with its components swapped: the second survives."""
    cfg = SolverConfig(n_points=512, length=360.0, t_start=0.0, t_end=150.0,
                       checkpoint_times=tuple(np.geomspace(2.0, 150.0, 28)))
    g = cfg.grid
    traj = run(cfg, np.stack([gaussian_field(g, 0.075, 6.0), gaussian_field(g, 0.15, 4.0)]))
    profiles = profile_history(traj)
    return traj, profiles, remainder_history(traj, profiles)


@pytest.fixture()
def one_worker(monkeypatch):
    """Block sizes as on one CPU, and every block run inline."""
    monkeypatch.setattr(P, "_workers", lambda: 1)


@pytest.mark.usefixtures("one_worker")
class TestFftBudget:
    def test_four_calls_per_block(self, generic_run, fft_calls):
        # per block of checkpoints: one pull-back of the pair, shared by both
        # histories, one of both nonlinearities, and the two transforms of
        # the J-norm; a per-component loop would exceed it
        traj = generic_run[0]
        profiles = profile_history(traj)
        remainder_history(traj, profiles=profiles)
        n_blocks = len(P._blocks(traj.grid, len(profiles)))
        assert n_blocks == 1
        assert sum(fft_calls.values()) == 4 * n_blocks

    def test_two_tables_per_block(self, generic_run, monkeypatch):
        # each pull-back forms its own free-flow table: one table shared by
        # the two holds the analyze run's resident set 1-2 MiB higher
        traj = generic_run[0]
        tables = []

        def profile_multiplier(grid, t):
            tables.append(np.shape(t))
            return _profile_multiplier(grid, t)

        monkeypatch.setattr(spectral, "_profile_multiplier", profile_multiplier)
        profiles = profile_history(traj)
        remainder_history(traj, profiles=profiles)
        assert len(P._blocks(traj.grid, len(profiles))) == 1
        assert tables == [(len(profiles), 1)] * 2

    def test_history_cost_independent_of_checkpoints(self, fft_calls):
        # one batched transform per stack inside a block: a per-snapshot
        # loop would scale with the number of checkpoints
        counts = []
        for n_t in (10, 20):
            cfg = SolverConfig(n_points=256, length=200.0, t_end=10.0,
                               checkpoint_times=tuple(np.geomspace(2.0, 10.0, n_t)))
            g = cfg.grid
            traj = run(cfg, np.stack([gaussian_field(g, 0.1, 4.0), gaussian_field(g, 0.05, 5.0)]))
            assert len(P._blocks(g, n_t)) == 1
            before = sum(fft_calls.values())
            remainder_history(traj, profiles=profile_history(traj))
            counts.append(sum(fft_calls.values()) - before)
        assert counts[0] == counts[1] > 0


def _one_shot_remainders(grid, ts, states, alpha):
    """The remainder, its peak ``max <xi>|R|`` and its bound ratio on whole
    ``(n_t, 2, N)`` stacks."""
    fn = _pull_back(grid, np.abs(states[:, ::-1]) ** 2 * states, ts[:, None], overwrite_x=True)
    r = np.abs(alpha[:, ::-1]) ** 2 * alpha
    r /= ts[:, None, None]
    r -= fn
    w2 = 1.0 + grid.xi ** 2
    peak = np.max(np.sqrt(w2) * np.abs(r), axis=(1, 2))
    phys = _inverse_array(grid, alpha)
    phys *= grid.x
    j_spec = _forward_array(grid, phys)
    j_spec[..., 0] = 0.0
    h1 = np.sqrt(grid.dxi * np.sum(w2 * np.abs(alpha) ** 2, axis=(1, 2)))
    jh1 = np.sqrt(grid.dxi * np.sum(w2 * np.abs(j_spec) ** 2, axis=(1, 2)))
    denom = (h1 + jh1) ** 3
    return r, peak, peak * ts ** (1.25 - 3.0 * P.GAMMA) / np.where(denom > 0, denom, np.inf)


def _one_shot_rho_integral(ts, a, r):
    """The balance-law integral of ``rho`` from the first checkpoint, ``(N, n_t)``."""
    rho = 2.0 * np.real(np.conj(a[:, 0]) * r[:, 0] - np.conj(a[:, 1]) * r[:, 1])
    return cumtrapz_from_start(ts, np.moveaxis(rho, 0, -1))


def _one_shot_imbalance(ts, a, r):
    """``(m_a, m_b, discrepancy, balance_residual)`` on whole ``(n_t, N)`` arrays."""
    vals = np.abs(a[:, 0]) ** 2 - np.abs(a[:, 1]) ** 2
    integral = _one_shot_rho_integral(ts, a, r)
    m_a = vals[-1]
    m_b = vals[0] + integral[..., -1]
    resid = np.moveaxis(vals, 0, -1) - vals[0][..., None] - integral
    amp0 = np.abs(a[0, 0]) + np.abs(a[0, 1])
    resolved = amp0 >= 1e-3 * np.max(amp0)
    return m_a, m_b, np.max(np.abs(m_a - m_b)[resolved]), np.max(np.abs(resid))


class TestStreamedAnalytics:
    def test_blocks_match_one_shot_bitwise(self, generic_run, monkeypatch, one_worker):
        # blocks of 3 rows and a 1-row tail against whole-stack evaluation
        traj = generic_run[0]
        g = traj.grid
        monkeypatch.setattr(P, "_BLOCK_POINTS", 3 * 2 * g.n_points)
        profiles = profile_history(traj)
        sizes = [b.stop - b.start for b in P._blocks(g, len(profiles))]
        assert sizes[-1] == 1 and set(sizes[:-1]) == {3}

        alpha = one_shot_profiles(traj)
        window = profiles.ts >= 0.1 * profiles.ts[-1]
        imbalance = np.abs(alpha[:, 0]) ** 2 - np.abs(alpha[:, 1]) ** 2
        assert np.array_equal(profiles.first, alpha[0])
        assert np.array_equal(profiles.last, alpha[-1])
        assert np.array_equal(profiles.moduli, np.abs(alpha[window]))
        prod = np.abs(alpha[:, 0] * alpha[:, 1])
        assert np.array_equal(profiles.sup_products, np.max(prod, axis=-1))
        assert np.array_equal(profiles.l2_products, np.sqrt(g.dxi * np.sum(prod ** 2, axis=-1)))
        r, peak, ratio = _one_shot_remainders(g, profiles.ts, traj.states[-len(profiles):],
                                              alpha)
        assert np.array_equal(profiles.peak, peak)
        assert np.array_equal(profiles.bound_ratio, ratio)
        # the balance law folded in checkpoint order against the whole
        # (n_t, N) arrays: m_b and the residual
        integral = _one_shot_rho_integral(profiles.ts, alpha, r)
        assert np.array_equal(profiles.m_b, imbalance[0] + integral[:, -1])
        miss = imbalance - imbalance[0] - integral.T
        assert profiles.balance_residual == np.max(np.abs(miss))
        # R itself on the rows of the survivor's tail fit, here the last N_FIT
        assert len(profiles) > P.N_FIT
        assert np.array_equal(profiles.r_tail, r[-P.N_FIT:])
        table = build_case_records(profiles)
        m_a, m_b, disc, resid = _one_shot_imbalance(profiles.ts, alpha, r)
        assert np.array_equal(table.m_a, m_a)
        assert np.array_equal(profiles.m_b, m_b)
        assert table.discrepancy == disc
        assert profiles.balance_residual == resid
        # the fits on the survivor columns against the same fits on
        # time-by-frequency views of the whole stacks
        a_t, r_t = np.moveaxis(alpha, 0, -1), np.moveaxis(r, 0, -1)
        fit = slice(-P.N_FIT, None)
        for label, s, o in ((SURVIVOR_1, 0, 1), (SURVIVOR_2, 1, 0)):
            cols = table.label == label
            assert np.array_equal(table.fitted_exponent[cols],
                                  decay_exponents(profiles.ts, np.abs(a_t[o][cols])),
                                  equal_nan=True)
            beta, err = P._beta_plus_arrays(profiles.ts[fit], a_t[s][cols, -1], m_a[cols],
                                            m_b[cols], r_t[s][cols, fit])
            assert np.array_equal(table.beta_plus[cols], beta)
            assert np.array_equal(table.beta_tail_err[cols], err)


def _analytics(traj):
    profiles = profile_history(traj)
    probes = remainder_history(traj, profiles)
    return profiles, probes, build_case_records(profiles)


class TestThreadedBlocks:
    def test_results_independent_of_workers(self, generic_run, monkeypatch):
        # 2-row blocks inline against 1-row blocks on four threads
        traj = generic_run[0]
        monkeypatch.setattr(P, "_BLOCK_POINTS", 2 * 2 * traj.grid.n_points)
        results = {}
        for w in (1, 4):
            monkeypatch.setattr(P, "_workers", lambda w=w: w)
            assert len(P._blocks(traj.grid, len(traj.ts))) > 4
            results[w] = _analytics(traj)
        (p1, q1, t1), (p4, q4, t4) = results[1], results[4]
        assert q1 is p1 and q4 is p4
        assert same_arrays(p1, p4)
        for name in ("m_a", "label", "fitted_exponent", "beta_plus", "beta_tail_err",
                     "deadband", "discrepancy"):
            assert np.array_equal(getattr(t1, name), getattr(t4, name), equal_nan=name != "label")

    def test_block_exception_surfaces(self, generic_run, monkeypatch):
        traj = generic_run[0]
        monkeypatch.setattr(P, "_BLOCK_POINTS", 2 * traj.grid.n_points)
        monkeypatch.setattr(P, "_workers", lambda: 4)
        boom, t_bad = RuntimeError("one block fails"), traj.ts[7]

        def pull_back(grid, values, t, **kwargs):
            if np.any(t == t_bad):
                raise boom
            return _pull_back(grid, values, t, **kwargs)

        monkeypatch.setattr(P, "_pull_back", pull_back)
        threads = threading.active_count()
        with pytest.raises(RuntimeError) as info:
            profile_history(traj)
        assert info.value is boom
        assert threading.active_count() == threads

    def test_blocks_in_flight_bounded(self, monkeypatch):
        # fast blocks and a slow fold on two workers: at most 2 x workers
        # blocks are started and not yet folded, and the folds see the
        # results in block order
        monkeypatch.setattr(P, "_workers", lambda: 2)
        lock = threading.Lock()
        unfolded, most, folded = 0, 0, []

        def fn(b):
            nonlocal unfolded, most
            with lock:
                unfolded += 1
                most = max(most, unfolded)
            return b.start

        def fold(start):
            nonlocal unfolded
            time.sleep(0.002)
            folded.append(start)
            with lock:
                unfolded -= 1

        P._each_block(fn, [slice(i, i + 1) for i in range(24)], fold)
        assert folded == list(range(24))
        assert 2 <= most <= 4

    def test_earliest_block_exception_propagates(self, monkeypatch):
        # block 5 raises while block 3, which raises too, is still running:
        # block 3's exception propagates after the folds of blocks 0-2, no
        # block past the in-flight window is started, and the pool is joined
        monkeypatch.setattr(P, "_workers", lambda: 2)
        errors = {3: RuntimeError("block 3"), 5: RuntimeError("block 5")}
        started, folded = [], []

        def fn(b):
            started.append(b.start)
            if b.start == 3:
                time.sleep(0.05)
            if b.start in errors:
                raise errors[b.start]
            return b.start

        threads = threading.active_count()
        with pytest.raises(RuntimeError) as info:
            P._each_block(fn, [slice(i, i + 1) for i in range(40)], folded.append)
        assert info.value is errors[3]
        assert folded == [0, 1, 2]
        # three blocks folded, so at most 3 + 2 x workers started
        assert max(started) <= 6
        assert threading.active_count() == threads

    @pytest.mark.parametrize("workers", [1, 2])
    def test_follow_ups_run_on_the_pool(self, monkeypatch, workers):
        # a fold's follow-up runs on a pool thread, or inline right after its
        # fold with one worker, and every one has finished before return
        monkeypatch.setattr(P, "_workers", lambda: workers)
        events, threads = [], set()

        def fold(start):
            events.append(("fold", start))

            def later():
                time.sleep(0.002)
                threads.add(threading.get_ident())
                events.append(("follow-up", start))
            return later

        P._each_block(lambda b: b.start, [slice(i, i + 1) for i in range(12)], fold)
        assert sorted(s for kind, s in events if kind == "follow-up") == list(range(12))
        assert [s for kind, s in events if kind == "fold"] == list(range(12))
        if workers == 1:
            assert threads == {threading.get_ident()}
            assert events == [(kind, i) for i in range(12) for kind in ("fold", "follow-up")]
        else:
            assert threading.get_ident() not in threads

    def test_follow_ups_pending_bounded(self, monkeypatch):
        # fast blocks and slow follow-ups on two workers: when a fold runs,
        # at most `workers` follow-ups are pending, and they do pile up
        monkeypatch.setattr(P, "_workers", lambda: 2)
        lock = threading.Lock()
        pending, most = 0, 0

        def fold(start):
            nonlocal pending, most
            with lock:
                most = max(most, pending)
                pending += 1

            def later():
                nonlocal pending
                time.sleep(0.005)
                with lock:
                    pending -= 1
            return later

        P._each_block(lambda b: b.start, [slice(i, i + 1) for i in range(24)], fold)
        assert pending == 0
        assert most == 2

    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize("bad", [5, 39])
    def test_follow_up_exception_propagates(self, monkeypatch, workers, bad):
        # an early follow-up, or the last one, raises: its exception
        # propagates unchanged and the pool is joined
        monkeypatch.setattr(P, "_workers", lambda: workers)
        boom = RuntimeError(f"follow-up {bad}")

        def fold(start):
            def later():
                if start == bad:
                    raise boom
            return later

        threads = threading.active_count()
        with pytest.raises(RuntimeError) as info:
            P._each_block(lambda b: b.start, [slice(i, i + 1) for i in range(40)], fold)
        assert info.value is boom
        assert threading.active_count() == threads

    def test_one_block_starts_no_thread(self, generic_run, monkeypatch):
        traj = generic_run[0]
        monkeypatch.setattr(P, "_workers", lambda: 4)
        assert len(P._blocks(traj.grid, len(traj.ts))) == 1
        callers = set()

        def pull_back(*args, **kwargs):
            callers.add(threading.get_ident())
            return _pull_back(*args, **kwargs)

        monkeypatch.setattr(P, "_pull_back", pull_back)
        threads = threading.active_count()
        _analytics(traj)
        assert callers == {threading.get_ident()}
        assert threading.active_count() == threads

    def test_pull_back_on_threads_matches_serial(self, rng):
        # more threads than CPUs and a short switch interval, against the
        # same transforms in one thread
        grids = [nl.Grid(2 ** k, 50.0 * k) for k in range(4, 14)]
        states = [rng.standard_normal((2, g.n_points)) + 1j * rng.standard_normal((2, g.n_points))
                  for g in grids]
        jobs = [(grids[i % 10], states[i % 10], rng.uniform(1.0, 1e4)) for i in range(500)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(4) as pool:
                futures = [pool.submit(_pull_back, *job) for job in jobs]
                threaded = [f.result(timeout=60) for f in futures]
        finally:
            sys.setswitchinterval(interval)
        assert all(np.array_equal(_pull_back(*job), out) for job, out in zip(jobs, threaded))


class TestExtractProfiles:
    def test_free_solution_profile_constant(self, transform_grid):
        g = transform_grid
        phi = gaussian_field(g, 0.5, 1.5, velocity=0.4)
        phi_hat = _forward_array(g, phi)
        for t in (0.5, 3.0, 12.0):
            u = free_flow(g, phi, t)
            alpha = _pull_back(g, np.stack([u, u]), t)
            assert np.max(np.abs(alpha[0] - phi_hat)) < 1e-10

    def test_time_zero_is_plain_spectrum(self, small_grid):
        pair = np.stack([gaussian_field(small_grid, 0.3, 2.0),
                         gaussian_field(small_grid, 0.2, 3.0)])
        alpha = _pull_back(small_grid, pair, 0.0)
        assert np.allclose(alpha[0], _forward_array(small_grid, pair[0]))

    def test_unitarity_along_run(self, generic_run):
        traj, profiles, _ = generic_run
        late = traj.ts >= 2.0
        assert len(profiles) == np.count_nonzero(late)
        assert np.array_equal(profiles.ts, traj.ts[late])
        stack = one_shot_profiles(traj)
        norms = np.sqrt(traj.grid.dxi * np.sum(np.abs(stack) ** 2, axis=-1))
        for v, norm, t, alpha in zip(traj.states[late], norms, profiles.ts, stack, strict=True):
            assert np.all(np.abs(norm - l2(traj.grid, v)) <= 1e-12 * np.maximum(norm, 1e-30))
            # the batched history against the one-snapshot pull-back
            assert np.array_equal(alpha, _pull_back(traj.grid, v, t))


class TestRemainderProbe:
    def test_zero_component_gives_zero_remainder(self, free_component_run):
        # a zero peak max <xi>|R| at every checkpoint is R = 0 everywhere
        traj, _, probes = free_component_run
        assert np.all(probes.peak == 0)
        alpha = one_shot_profiles(traj)[0]
        assert np.array_equal(probes.m_b, np.abs(alpha[0]) ** 2 - np.abs(alpha[1]) ** 2)
        assert np.all(probes.r_tail == 0)

    def test_two_evaluation_paths_agree(self, small_grid):
        # independent path: naive DFT matrix plus the exact frequency-side
        # free multiplier, no FFT anywhere
        g = small_grid
        t = 3.7
        u1 = free_flow(g, gaussian_field(g, 0.5, 1.0, velocity=0.3), t)
        u2 = free_flow(g, gaussian_field(g, 0.4, 1.5, center=1.0), t)
        cfg = SolverConfig(n_points=g.n_points, length=g.length, t_end=t)
        traj = Trajectory(config=cfg, ts=np.array([t]),
                          states=np.stack([u1, u2])[None], provenance={})
        # one checkpoint: the tail holds its remainder
        r1 = remainder_history(traj, profile_history(traj)).r_tail[0, 0]

        dft = np.exp(-1j * np.outer(g.xi, g.x)) * (g.dx / SQRT_2PI)
        mult = np.exp(0.5j * g.xi ** 2 * t)
        a1 = mult * (dft @ u1)
        a2 = mult * (dft @ u2)
        n1 = np.abs(u2) ** 2 * u1
        r1_direct = np.abs(a2) ** 2 * a1 / t - mult * (dft @ n1)
        assert np.max(np.abs(r1 - r1_direct)) < 1e-10 * np.max(np.abs(r1))

    def test_bound_ratio_bounded_over_run(self, generic_run):
        ratios = generic_run[2].bound_ratio
        assert np.all(np.isfinite(ratios))
        assert np.max(ratios) <= 10 * np.median(ratios[ratios > 0])

    def test_weighted_remainder_decays(self, generic_run):
        # the peak max <xi>|R|, which test_blocks_match_one_shot_bitwise
        # checks against the whole stack of R
        _, profiles, probes = generic_run
        sel = profiles.ts >= 15.0
        slope = np.polyfit(np.log(profiles.ts[sel]), np.log(probes.peak[sel]), 1)[0]
        assert slope <= -1.1

    def test_history_reuses_snapshots_bitwise(self, generic_run):
        traj, profiles, probes = generic_run
        # a fresh extraction of the profiles gives the same remainders
        fresh = remainder_history(traj, profile_history(traj))
        assert same_arrays(fresh, probes)
        later = dataclasses.replace(profiles, ts=profiles.ts[1:])
        with pytest.raises(ValueError, match="different times"):
            remainder_history(traj, profiles=later)

    def test_profiles_of_another_run_rejected(self, generic_run, free_component_run,
                                              fft_calls):
        # the check reads the times only: nothing is pulled back
        with pytest.raises(ValueError, match="different times"):
            remainder_history(generic_run[0], profiles=free_component_run[1])
        assert sum(fft_calls.values()) == 0

    def test_calls_leave_the_history_alone(self, generic_run):
        traj, profiles, _ = generic_run
        # every array field: not the grid, nor the scalars balance_residual
        # and lam
        arrays = {f.name: getattr(profiles, f.name).copy()
                  for f in dataclasses.fields(profiles)
                  if f.name not in ("grid", "balance_residual", "lam")}
        first, second = (remainder_history(traj, profiles) for _ in range(2))
        assert first is second is profiles
        assert decoupling_history(profiles) is profiles
        for name, before in arrays.items():
            now = getattr(profiles, name)
            assert np.array_equal(now, before) and not now.flags.writeable


def _traced_analytics(monkeypatch):
    """The four analytics, in 2-row blocks on one thread, of a run with the
    analyze workload's stored run's shape: 100 log-spaced checkpoints, 27 of
    them in the trailing window.  Returns the states they read, the pass's
    record and the peak that tracemalloc traced while they ran."""
    ts = np.geomspace(2.0, 1e4, 100)
    cfg = SolverConfig(n_points=512, length=400.0, t_start=2.0, t_end=1e4,
                       checkpoint_times=tuple(ts))
    g = cfg.grid
    alpha = np.stack([np.exp(-0.5 * ((g.xi + 0.2) / 0.3) ** 2),
                      0.5 * np.exp(-0.5 * ((g.xi - 0.2) / 0.3) ** 2)]).astype(complex)
    traj = Trajectory(cfg, ts, _push_forward(g, alpha, ts[:, None]), {})
    states = traj.states[P._first_row(traj):]
    assert len(states) == 100 and np.sum(P.check_window(ts)) == 27
    monkeypatch.setattr(P, "_BLOCK_POINTS", 2 * 2 * g.n_points)
    assert len(P._blocks(g, len(states))) == 50
    tracemalloc.start()
    try:
        profiles = profile_history(traj)
        remainder_history(traj, profiles)
        build_case_records(profiles)
        decoupling_history(profiles)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return states, profiles, peak


@pytest.mark.usefixtures("one_worker")
class TestAnalyticsMemory:
    def test_one_profile_stack_bounds_the_rest(self, monkeypatch):
        # the analytics peak below the one (n_t, 2, N) stack of states they
        # read and keep no such stack; what the histories keep has rows of
        # the window and N_FIT rows, so a run of few checkpoints keeps more
        # than a stack
        states, profiles, peak = _traced_analytics(monkeypatch)
        assert peak < states.nbytes
        assert all(np.size(getattr(profiles, f.name)) != states.size
                   for f in dataclasses.fields(profiles))

    def test_balance_law_keeps_no_rows(self, monkeypatch):
        # the balance law is folded in checkpoint order: no (n_t, N) array
        # of the imbalance or of the integral of rho is kept, and the peak
        # stays below half the stack (measured: 0.36 of it; 0.84 with both
        # kept as (n_t, N) arrays)
        states, profiles, peak = _traced_analytics(monkeypatch)
        assert peak < 0.5 * states.nbytes
        n_t, _, n = states.shape
        assert all(np.size(getattr(profiles, f.name)) != n_t * n
                   for f in dataclasses.fields(profiles))


class TestEstimateM:
    def test_free_component(self, free_component_run):
        _, profiles, _ = free_component_run
        table = build_case_records(profiles)
        phi_hat_sq = np.abs(profiles.first[0]) ** 2
        assert np.all(table.m_a >= -1e-15)
        assert np.max(np.abs(table.m_a - phi_hat_sq)) < 1e-10
        assert table.discrepancy < 1e-10

    def test_symmetric_data_balances(self):
        cfg = SolverConfig(n_points=512, length=360.0, t_start=0.0, t_end=120.0,
                           checkpoint_times=tuple(np.geomspace(2.0, 120.0, 24)))
        g = cfg.grid
        u = gaussian_field(g, 0.15, 4.0)
        traj = run(cfg, np.stack([u, u]))
        table = _analytics(traj)[2]
        assert np.max(np.abs(table.m_a)) < 1e-14

    def test_estimators_agree(self, generic_run):
        profiles = generic_run[1]
        table = build_case_records(profiles)
        assert table.deadband == max(1e-3, 3.0 * table.discrepancy)
        mask = np.abs(table.m_a) > table.deadband
        rel = np.abs(table.m_a - profiles.m_b)[mask] / np.abs(table.m_a)[mask]
        assert np.max(rel) < 0.02

    def test_balance_law_residual_small(self, generic_run):
        # and the generic run under the phase-rotating coupling, whose
        # balance law reads its remainder lam R = i R (measured: 3e-4 of
        # the scale, and 0.23 with the dissipative remainder R)
        for profiles in (generic_run[1], _generic("conservative")[1]):
            scale = np.max(np.abs(build_case_records(profiles).m_a))
            assert profiles.balance_residual <= 0.03 * scale

    def test_short_trajectory_rejected(self):
        cfg = SolverConfig(n_points=256, length=200.0, t_start=0.0, t_end=20.0,
                           checkpoint_times=tuple(np.geomspace(2.0, 20.0, 12)))
        g = cfg.grid
        traj = run(cfg, np.stack([gaussian_field(g, 0.1, 4.0), gaussian_field(g, 0.05, 5.0)]))
        with pytest.raises(ValueError, match="too short"):
            _analytics(traj)


class TestClassify:
    def test_thresholds(self):
        labels = classify([0.05, -0.05, 0.005], deadband=0.01)
        assert list(labels) == [SURVIVOR_1, SURVIVOR_2, BALANCED]

    def test_deadband_positive(self):
        with pytest.raises(ValueError):
            classify([0.1], deadband=0.0)


class TestDecayFits:
    def test_exact_power_law(self):
        ts = np.geomspace(2.0, 2000.0, 40)
        slope = decay_exponents(ts, 3.7 * ts ** -0.3)
        assert slope == pytest.approx(-0.3, abs=1e-12)

    def test_constant_series(self):
        ts = np.geomspace(2.0, 2000.0, 40)
        assert decay_exponents(ts, np.full_like(ts, 2.5)) == pytest.approx(0.0, abs=1e-12)

    def test_underflowed_series_flagged(self):
        ts = np.geomspace(2.0, 2000.0, 40)
        vals = np.full_like(ts, 1e-16)
        assert np.isnan(decay_exponents(ts, vals))

    def test_too_few_points(self):
        ts = np.geomspace(2.0, 2000.0, 10)  # only ~5 land in [T/10, T]
        with pytest.raises(ValueError):
            decay_exponents(ts, ts ** -0.5)


class TestDecoupling:
    def test_disjoint_profiles(self, small_grid):
        a1 = np.where(small_grid.xi < 0, 1.0 + 0j, 0)
        a2 = np.where(small_grid.xi > 0, 1.0 + 0j, 0)
        sup, l2_norm = P._products(np.array([[a1, a2]]), small_grid.dxi)
        assert sup[0] == 0.0 and l2_norm[0] == 0.0

    def test_zero_component(self, free_component_run):
        _, profiles, _ = free_component_run
        rep = decoupling_history(profiles)
        assert np.all(rep.sup_products == 0.0)
        assert np.all(rep.l2_products == 0.0)

    def test_product_decays_on_generic_run(self, generic_run):
        _, profiles, _ = generic_run
        rep = decoupling_history(profiles)
        assert rep.sup_products[-1] < rep.sup_products[0]

    def test_profile_bound_stays_put(self, generic_run):
        # the paper's uniform bound on the profile: max_xi <xi> |alpha(t, xi)|
        traj = generic_run[0]
        weight = np.sqrt(1.0 + traj.grid.xi ** 2)
        bound = np.max(weight * np.abs(one_shot_profiles(traj)), axis=(1, 2))
        assert np.max(bound) <= 2.0 * bound[0]


@pytest.fixture(scope="module")
def reduced_flow_run():
    """A trajectory whose profiles follow the reduced flow exactly, with
    Gaussian profiles on opposite sides of xi = 0: the imbalance changes
    sign, and is conserved, so the survivors' limits are known in closed form."""
    ts = np.geomspace(2.0, 150.0, 24)
    cfg = SolverConfig(n_points=512, length=360.0, t_start=2.0, t_end=150.0,
                       checkpoint_times=tuple(ts))
    xi = cfg.grid.xi

    def profile(amp, centre, p1, p2):
        return amp * np.exp(-0.5 * ((xi - centre) / 0.15) ** 2 + 1j * (p1 * xi + p2 * xi ** 2))

    a0 = np.stack([profile(0.11, -0.09, 3.0, -2.0), profile(0.1, 0.09, -4.0, 1.0)])
    a0[:, 0] = 0.0      # the Nyquist slot
    states = np.stack([_push_forward(cfg.grid, reduced_flow_profiles(a0, ts[0], t), t)
                       for t in ts])
    return Trajectory(cfg, ts, states, {}), a0


class TestBetaPlus:
    def test_closed_form_limit(self, reduced_flow_run):
        # |beta+|^2 is the conserved imbalance m and the phase is frozen, so
        # the limit is alpha_s(T) sqrt|m| / |alpha_s(T)| on every survivor
        # column, down to those within 1-2 dead-bands
        traj, a0 = reduced_flow_run
        m = np.abs(a0[0]) ** 2 - np.abs(a0[1]) ** 2
        a_T = reduced_flow_profiles(a0, traj.ts[0], traj.ts[-1])
        table = _analytics(traj)[2]
        for s, label in enumerate((SURVIVOR_1, SURVIVOR_2)):
            cols = table.label == label
            assert np.any(cols & (np.abs(m) < 2.0 * table.deadband))
            exact = a_T[s, cols] * np.sqrt(np.abs(m[cols])) / np.abs(a_T[s, cols])
            error = np.abs(table.beta_plus[cols] - exact)
            assert np.all(error <= 1e-10 * np.abs(exact))
            assert np.all(error <= table.beta_tail_err[cols])

    def test_free_component_exact(self, free_component_run):
        traj, profiles, _ = free_component_run
        table = build_case_records(profiles)
        k = traj.config.grid.n_points // 2
        assert table.label[k] == SURVIVOR_1
        assert abs(table.beta_plus[k] - profiles.first[0, k]) < 1e-12

    @pytest.mark.parametrize("which", [1, 2])
    def test_survivor_consistency(self, which, request):
        # the limits estimated from the checkpoints up to t ~ 100 and from
        # all of them up to 150 agree within the sum of their error bars,
        # on every column both name a survivor; xi = 0 is one, on the
        # component the table names
        traj, profiles, _ = request.getfixturevalue(
            "generic_run" if which == 1 else "swapped_run")
        table = build_case_records(profiles)
        k = int(np.argmin(np.abs(traj.grid.xi)))
        assert table.label[k] == (SURVIVOR_1 if which == 1 else SURVIVOR_2)
        n = int(np.searchsorted(traj.ts, P.T_FINAL)) + 1
        cfg = dataclasses.replace(traj.config, t_end=float(traj.ts[n - 1]),
                                  checkpoint_times=traj.config.checkpoint_times[:n])
        early = _analytics(Trajectory(cfg, traj.ts[:n], traj.states[:n], traj.provenance))[2]
        cols = (early.label == table.label) & (table.label != BALANCED)
        assert cols[k]
        gap = np.abs(table.beta_plus[cols] - early.beta_plus[cols])
        assert np.all(gap <= table.beta_tail_err[cols] + early.beta_tail_err[cols])


class TestCaseRecords:
    def test_full_report(self, generic_run):
        traj, profiles, _ = generic_run
        table = build_case_records(profiles)
        g = traj.config.grid
        columns = {k: v for k, v in vars(table).items() if np.ndim(v)}
        assert set(vars(table)) - set(columns) == {"deadband", "discrepancy"}
        for col in columns.values():
            assert col.shape == (g.n_points,)
        labels = set(table.label)
        assert SURVIVOR_1 in labels and BALANCED in labels
        survivor, balanced = table.label == SURVIVOR_1, table.label == BALANCED
        assert np.all(np.isfinite(table.beta_plus[survivor]))
        assert np.all(np.isfinite(table.beta_tail_err[survivor]))
        # no limit at a balanced frequency, in either part
        assert np.all(np.isnan(table.beta_plus[balanced].real))
        assert np.all(np.isnan(table.beta_plus[balanced].imag))
        assert np.all(np.isnan(table.beta_tail_err[balanced]))
        # exactly one survivor label per frequency carries a limit value
        assert SURVIVOR_2 not in labels

    def test_log_decay_not_applied_to_survivors(self, generic_run):
        # routing check: the balanced-case fit guard is the classification
        _, profiles, _ = generic_run
        table = build_case_records(profiles)
        assert np.all(np.isnan(table.fitted_exponent[table.label == BALANCED]))
        survivors = np.flatnonzero(table.label == SURVIVOR_1)
        assert not np.any(np.isinf(table.fitted_exponent[survivors]))
        center = survivors[np.argmin(np.abs(profiles.grid.xi[survivors]))]
        assert table.fitted_exponent[center] < 0
