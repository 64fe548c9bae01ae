import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from nlspair import dynamics, profiles as P
from nlspair.dynamics import (
    T_MIN,
    DtPolicy,
    SolverConfig,
    Trajectory,
    _time_tol,
    mass_ledger,
    run,
)
from nlspair.errors import ConfigError, GuardViolation, NumericsError
from nlspair.profiles import profile_history
from nlspair.scattering import dyadic_profile_drift
from nlspair.spectral import _pull_back, _push_forward

from conftest import free_flow, gaussian_field, l2, rel_l2, rk4_run, strang_step


def rk4_pointwise(u1, u2, dt, n_sub):
    """Independent oracle: classical RK4 on the pointwise amplitude ODE."""
    h = dt / n_sub

    def f(v):
        return np.array([-abs(v[1]) ** 2 * v[0], -abs(v[0]) ** 2 * v[1]])

    v = np.array([u1, u2], dtype=complex)
    for _ in range(n_sub):
        k1 = f(v)
        k2 = f(v + 0.5 * h * k1)
        k3 = f(v + 0.5 * h * k2)
        k4 = f(v + h * k3)
        v = v + (h / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
    return v


def make_pair(grid, amps=(0.4, 0.25), widths=(3.0, 4.0), vel2=0.2):
    """A ``(2, N)`` state of two Gaussians."""
    return np.stack([gaussian_field(grid, amps[0], widths[0]),
                     gaussian_field(grid, amps[1], widths[1], velocity=vel2)])


def substep(v, dt):
    """The exact nonlinear substep on a copy of a ``(2, N)`` state."""
    out = np.array(v, dtype=complex)
    dynamics._decay_substep(out, dt)
    return out


def boundary_mass_fraction(grid, v):
    """Share of the mass of a ``(2, N)`` state in the guard's edge bands."""
    edge, total = dynamics._band_mass(np.abs(v) ** 2, dynamics._edge_bands(grid))
    return edge / total


def reference_decay_ratios(a0, b0, s):
    """The closed form with separate exp and expm1 evaluations and np.where branches."""
    m = a0 - b0
    arg = -2.0 * m * s
    huge = arg > 600.0
    arg_safe = np.where(huge, 0.0, arg)
    decay = np.exp(arg_safe)
    safe_m = np.where(m != 0.0, m, 1.0)
    growth_per_m = np.where(m != 0.0, np.expm1(arg_safe) / safe_m, -2.0 * s)
    denom = 1.0 - b0 * growth_per_m
    r1 = np.where(huge, 0.0, 1.0 / denom)
    r2 = np.where(huge, -m / np.where(huge, b0, 1.0), decay / denom)
    return r1, r2


class TestNonlinearSubstep:
    @pytest.mark.parametrize("dt", [1e-3, 0.04, 1.0, 20.48, 200.0])
    def test_matches_reference_closed_form(self, rng, dt):
        # random states with exact m == 0 entries, zeros, and (at the larger
        # steps) entries past the overflow clamp, -m dt > 300
        n = 4096
        v = (rng.standard_normal((2, n)) + 1j * rng.standard_normal((2, n))) \
            * rng.uniform(0.0, 3.0, n)
        v[1, :200] = v[0, :200]
        v[1, 200:400] = np.conj(v[0, 200:400])
        v[:, 400:500] = 0.0
        v[0, 500:600] = 0.0
        v[1, 600:700] = 0.0
        sq = v.real ** 2 + v.imag ** 2
        r1, r2 = reference_decay_ratios(sq[0], sq[1], dt)
        want = v * np.sqrt(np.stack([r1, r2]))
        got = v.copy()
        assert np.array_equal(dynamics._decay_substep(got, dt), sq)
        assert np.max(np.abs(got - want)) <= 1e-15 * np.max(np.abs(want))
        assert np.array_equal(got[:, 400:500], v[:, 400:500])

    def test_second_component_zero_is_identity(self, small_grid):
        u1 = gaussian_field(small_grid, 0.8, 2.0)
        out = substep(np.stack([u1, np.zeros(small_grid.n_points)]), 0.7)
        assert np.array_equal(out[0], u1)
        assert np.all(out[1] == 0)

    def test_balanced_closed_form(self, small_grid):
        u = gaussian_field(small_grid, 0.9, 2.0, velocity=0.3)
        out = substep(np.stack([u, u]), 0.5)
        a0 = np.abs(u) ** 2
        expected = a0 / (1.0 + 2.0 * a0 * 0.5)
        assert np.max(np.abs(np.abs(out[0]) ** 2 - expected)) < 1e-14

    def test_generic_point_against_rk4(self, small_grid):
        n = small_grid.n_points
        u1 = np.full(n, math.sqrt(2.0) * np.exp(0.7j))
        u2 = np.full(n, 1.0 * np.exp(-0.3j))
        out = substep(np.stack([u1, u2]), 0.3)
        ref = rk4_pointwise(u1[0], u2[0], 0.3, 10_000)
        assert abs(out[0, 0] - ref[0]) < 1e-10
        assert abs(out[1, 0] - ref[1]) < 1e-10
        a = abs(out[0, 0]) ** 2
        b = abs(out[1, 0]) ** 2
        assert abs((a - b) - 1.0) < 1e-13

    def test_pointwise_difference_conserved(self, small_grid, rng):
        n = small_grid.n_points
        u1 = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        u2 = 0.5 * (rng.standard_normal(n) + 1j * rng.standard_normal(n))
        out = substep(np.stack([u1, u2]), 0.4)
        m0 = np.abs(u1) ** 2 - np.abs(u2) ** 2
        m1 = np.abs(out[0]) ** 2 - np.abs(out[1]) ** 2
        assert np.max(np.abs(m1 - m0)) <= 1e-13 * np.max(1.0 + np.abs(m0))

    def test_phases_untouched(self, small_grid, rng):
        n = small_grid.n_points
        u1 = np.exp(1j * rng.uniform(-3, 3, n)) * rng.uniform(0.1, 2.0, n)
        u2 = np.exp(1j * rng.uniform(-3, 3, n)) * rng.uniform(0.1, 2.0, n)
        out = substep(np.stack([u1, u2]), 0.9)
        for before, after in ((u1, out[0]), (u2, out[1])):
            mask = np.abs(after) > 1e-12
            dphase = np.angle(after[mask] / before[mask])
            assert np.max(np.abs(dphase)) < 1e-12

    @pytest.mark.parametrize("dt", [0.3, -0.3])
    def test_rotation_against_rk4(self, dt):
        # the phase-rotating flow du_j/ds = -i |u_{3-j}|^2 u_j, either way in
        # s: the moduli stay and the phases turn
        v = np.array([[math.sqrt(2.0) * np.exp(0.7j)], [np.exp(-0.3j)]])
        want, h = v[:, 0], dt / 10_000

        def f(w):
            return -1j * np.abs(w[::-1]) ** 2 * w

        for _ in range(10_000):
            k1 = f(want)
            k2 = f(want + 0.5 * h * k1)
            k3 = f(want + 0.5 * h * k2)
            want = want + (h / 6.0) * (k1 + 2 * k2 + 2 * k3 + f(want + h * k3))
        got = v.copy()
        assert np.array_equal(dynamics._rotation_substep(got, dt), v.real ** 2 + v.imag ** 2)
        assert np.max(np.abs(got[:, 0] - want)) < 1e-10
        assert np.max(np.abs(np.abs(got) - np.abs(v))) <= 1e-15


class TestStrangStep:
    def test_zero_field(self, small_grid):
        out = strang_step(small_grid, np.zeros((2, small_grid.n_points), complex), 0.0, 0.05)
        assert np.all(out == 0)

    def test_decoupled_equals_free_flow(self, small_grid):
        u1 = gaussian_field(small_grid, 0.8, 2.0)
        out = strang_step(small_grid, np.stack([u1, np.zeros(small_grid.n_points)]), 0.0, 0.25)
        free = _push_forward(small_grid, _pull_back(small_grid, u1, 0.0), 0.25)
        assert rel_l2(small_grid, out[0], free) < 1e-13

    def test_richardson_order(self, small_grid):
        pair = make_pair(small_grid, amps=(0.5, 0.3))
        dt = 0.01
        one = strang_step(small_grid, pair, 0.0, dt)
        two = strang_step(small_grid, strang_step(small_grid, pair, 0.0, dt / 2), dt / 2, dt / 2)
        cfg = SolverConfig(n_points=small_grid.n_points, length=small_grid.length,
                           t_start=0.0, t_end=dt, dt_policy=DtPolicy.fixed(1e-4),
                           checkpoint_times=(dt,))
        ref = rk4_run(cfg, pair).states[-1]
        e1 = rel_l2(small_grid, one[0], ref[0])
        e2 = rel_l2(small_grid, two[0], ref[0])
        order = math.log2(e1 / e2)
        assert order >= 1.9

    @pytest.mark.parametrize("exact, hint", [(dynamics._decay_substep, True),
                                             (dynamics._rotation_substep, False)],
                             ids=["decay", "rotation"])
    def test_non_finite_stage_names_cause(self, small_grid, exact, hint):
        # only the decay substep has a domain a backward stage can leave, so
        # only its kernel names that cause of a non-finite stage
        v = make_pair(small_grid)
        v[0, 5] = np.nan
        with pytest.raises(NumericsError, match="non-finite mass") as exc:
            dynamics._StrangKernel(small_grid, exact, v).stage(0.0, 0.1)
        assert ("left the exact substep's domain" in str(exc.value)) == hint


class TestComposedStep:
    @pytest.mark.parametrize("coupling", ["dissipative", "conservative"])
    def test_fourth_order(self, small_grid, coupling):
        # run's step is the triple jump of Strang stages, with either
        # coupling's exact substep: its error on the final state against a
        # refined run falls 16x per halving of dt
        pair = make_pair(small_grid)

        def final(dt):
            cfg = SolverConfig(n_points=small_grid.n_points, length=small_grid.length,
                               t_end=2.0, dt_policy=DtPolicy.fixed(dt), checkpoint_times=(2.0,),
                               coupling=coupling)
            return run(cfg, pair).states[-1]

        ref = final(0.0125)
        coarse, fine = (rel_l2(small_grid, final(dt), ref) for dt in (0.2, 0.1))
        assert math.log2(coarse / fine) >= 3.8   # measured: 4.00 for both


def stage_steps(t, dt):
    """``(start, length)`` of the three Strang stages of one composed step of
    ``run`` from t to t + dt: ``W1 dt``, ``W0 dt``, ``W1 dt``."""
    outer = dynamics.W1 * dt
    return [(t, outer), (t + outer, dynamics.W0 * dt), (t + dt - outer, outer)]


def composed_step(grid, v, t, dt):
    """One step of ``run``'s scheme as three separate Strang steps."""
    for start, h in stage_steps(t, dt):
        v = strang_step(grid, v, start, h)
    return v


def stepped_checkpoints(cfg, v):
    """Repeated composed steps on the step sequence of ``run``; states at the checkpoints."""
    out, t, eps = [], cfg.t_start, 1e-9
    for target in cfg.resolved_checkpoints():
        while target > t + eps * max(1.0, t):
            dt = min(cfg.dt_policy.dt_at(t), target - t)
            v = composed_step(cfg.grid, v, t, dt)
            t = target if target - t - dt <= eps * max(1.0, target) else t + dt
        out.append(v)
    return out


class TestFusedKernel:
    """``run`` merges adjacent half free steps; it must equal repeated composed steps."""

    @pytest.mark.parametrize("policy, checkpoints", [
        (DtPolicy.fixed(0.05), (1.0, 2.0, 3.0)),
        (DtPolicy.fixed(0.07), (1.0, 2.5, 3.0)),
        # dt 0.05 to t = 5, 0.1 to t = 10, then 0.2: both changes fall between checkpoints
        (DtPolicy(dt=0.05, rate=0.02), (1.3, 7.0, 12.0)),
    ], ids=["fixed", "off-grid-checkpoint", "ladder-across-rungs"])
    def test_run_matches_repeated_strang_step(self, small_grid, policy, checkpoints):
        cfg = SolverConfig(n_points=small_grid.n_points, length=small_grid.length,
                           t_end=checkpoints[-1], dt_policy=policy,
                           checkpoint_times=checkpoints)
        pair = make_pair(small_grid)
        traj = run(cfg, pair)
        assert traj.provenance["n_steps"] > 3 * len(checkpoints)
        refs = stepped_checkpoints(cfg, pair)
        assert len(refs) == len(traj.states)
        for got, want in zip(traj.states, refs):
            assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want)
        assert np.array_equal(traj.ts, checkpoints)


class TestKernelOwnership:
    """The Strang kernel owns a copy of the state and steps it in place."""

    def _config(self, grid):
        return SolverConfig(n_points=grid.n_points, length=grid.length, t_end=2.0,
                            dt_policy=DtPolicy.fixed(0.1), checkpoint_times=(1.0, 2.0))

    def test_run_leaves_initial_untouched(self, small_grid):
        pair = make_pair(small_grid)
        before = pair.tobytes()
        traj = run(self._config(small_grid), pair)
        assert pair.tobytes() == before
        frozen = pair.copy()
        frozen.flags.writeable = False
        again = run(self._config(small_grid), frozen)
        assert again.states.tobytes() == traj.states.tobytes()

    def test_steps_one_array(self, small_grid):
        pair = make_pair(small_grid)
        kernel = dynamics._StrangKernel(small_grid, dynamics._decay_substep, pair)
        v = kernel.v
        assert not np.shares_memory(v, pair)
        kernel.step(0.0, 0.1)
        assert kernel.v is v and kernel.fields(0.1) is v
        want = composed_step(small_grid, pair, 0.0, 0.1)
        assert np.linalg.norm(v - want) <= 1e-12 * np.linalg.norm(want)

    def test_cache_holds_eight_tables(self, small_grid):
        # twelve step sizes, each with its pending half step applied: the
        # cache keeps the 8 tables used last
        kernel = dynamics._StrangKernel(small_grid, dynamics._decay_substep,
                                        make_pair(small_grid))
        t = 0.0
        for k in range(12):
            dt = 0.01 * (k + 1)
            kernel.step(t, dt)
            kernel.fields(t + dt)
            t += dt
        info = kernel._table.cache_info()
        assert info.maxsize == 8 and info.currsize == 8


def ladder_run(policy):
    """The headline's Gaussian pair on N=1024 up to t = 1000, 12 checkpoints from t = 2."""
    cfg = SolverConfig(n_points=1024, length=1200.0, t_end=1000.0, dt_policy=policy,
                       checkpoint_times=tuple(np.geomspace(2.0, 1000.0, 12)))
    g = cfg.grid
    return run(cfg, np.stack([gaussian_field(g, 0.1, 8.0), gaussian_field(g, 0.04, 12.0)]))


class TestStepLadder:
    @settings(deadline=None, max_examples=300)
    @given(st.floats(min_value=1e-3, max_value=1.0), st.floats(min_value=0.0, max_value=0.1),
           st.floats(min_value=0.0, max_value=1e6))
    def test_largest_rung_below_rate_t(self, dt, rate, t):
        step = DtPolicy(dt, rate).dt_at(t)
        k = math.log2(step / dt)
        assert k == round(k) >= 0
        assert step <= max(dt, rate * t) < 2.0 * step

    def test_step_size_resonance_guard(self):
        # the phases dt xi^2 / 2 of a step reach about 74 rad here, and 125
        # rad in the backward stage; a resonance of the splitting would show
        # as a gap to the 4x refined run
        pol = DtPolicy()
        runs = [ladder_run(p) for p in (pol, DtPolicy(pol.dt / 4, pol.rate / 4))]
        coarse, fine = (profile_history(r).last for r in runs)
        gap = rel_l2(None, coarse, fine)
        assert gap < 1e-6   # measured: 7.6e-10

    def test_multiplier_budget(self, monkeypatch):
        # on the ladder the kernel's cache hits: new free-flow multipliers
        # come only with a rung change or a checkpoint, not with each of the
        # three Strang stages of a step
        calls = []
        real = dynamics._free_multiplier_fft
        monkeypatch.setattr(dynamics, "_free_multiplier_fft",
                            lambda grid, tau: calls.append(tau) or real(grid, tau))
        traj = ladder_run(DtPolicy())
        assert 3 * traj.provenance["n_steps"] > 800
        assert len(calls) <= 64


amplitudes = st.floats(min_value=0.0, max_value=10.0, allow_subnormal=False)
durations = st.floats(min_value=0.0, max_value=50.0, allow_subnormal=False)


def decay_ratios(a0: float, b0: float, s: float) -> tuple[float, float]:
    """``(a(s)/a0, b(s)/b0)`` at one point: the squares of the substep's
    amplitude scales."""
    k1, k2 = dynamics._decay_scales(np.array([a0]), np.array([b0]), s)
    return k1[0] ** 2, k2[0] ** 2


class TestDecayRatioProperties:
    """Pointwise invariants of the closed-form amplitude flow a' = b' = -2ab."""

    @settings(deadline=None, max_examples=300)
    @given(amplitudes, amplitudes, durations)
    def test_difference_conserved(self, a0, b0, s):
        r1, r2 = decay_ratios(a0, b0, s)
        assert abs((a0 * r1 - b0 * r2) - (a0 - b0)) <= 1e-13 * (a0 + b0)

    @settings(deadline=None, max_examples=300)
    @given(amplitudes, amplitudes, durations, durations)
    def test_monotone_decay(self, a0, b0, s1, s2):
        s1, s2 = sorted((s1, s2))
        early = decay_ratios(a0, b0, s1)
        late = decay_ratios(a0, b0, s2)
        for r_early, r_late in zip(early, late):
            assert 0.0 <= r_late <= r_early * (1.0 + 1e-12)
            assert r_early <= 1.0 + 1e-12

    @settings(deadline=None, max_examples=300)
    @given(amplitudes, amplitudes, durations, durations)
    def test_semigroup(self, a0, b0, s1, s2):
        r1, r2 = decay_ratios(a0, b0, s1 + s2)
        h1, h2 = decay_ratios(a0, b0, s1)
        a1, b1 = a0 * h1, b0 * h2
        k1, k2 = decay_ratios(a1, b1, s2)
        tol = 1e-12 * (a0 + b0)
        assert abs(a0 * r1 - a1 * k1) <= tol
        assert abs(b0 * r2 - b1 * k2) <= tol

    @settings(deadline=None, max_examples=200)
    @given(st.floats(min_value=0.0, max_value=5.0), st.floats(min_value=0.5, max_value=5.0),
           st.floats(min_value=1.0001, max_value=100.0))
    def test_clamp_branch(self, a0, gap, stretch):
        # b0 - a0 = gap > 0 and -2 m s = 2 gap s > 600: exp would overflow, so the
        # closed form is replaced by its limit: component 1 gone, component 2 at gap
        b0 = a0 + gap
        m = a0 - b0
        s = stretch * 300.0 / -m
        r1, r2 = decay_ratios(a0, b0, s)
        assert r1 == 0.0
        assert b0 * r2 == pytest.approx(-m, rel=1e-12)
        # just below the threshold the unclamped formula gives the same limit
        below = decay_ratios(a0, b0, 299.0 / -m)
        assert a0 * below[0] <= 1e-250
        assert b0 * below[1] == pytest.approx(-m, rel=1e-12)


class TestMassLedger:
    def test_zero(self, small_grid):
        led = mass_ledger(small_grid, np.zeros((2, small_grid.n_points), complex))
        assert led.tolist() == [0.0, 0.0, 0.0, 0.0]

    def test_disjoint_supports(self, small_grid):
        left = np.where(small_grid.x < 0, 1.0 + 0j, 0.0)
        right = np.where(small_grid.x >= 0, 1.0 + 0j, 0.0)
        mass1, mass2, diff, interaction = mass_ledger(small_grid, np.stack([left, right]))
        assert interaction == 0.0
        assert diff == mass1 - mass2

    def test_unit_gaussian_interaction(self, transform_grid):
        from scipy.integrate import quad
        u = gaussian_field(transform_grid)
        interaction = mass_ledger(transform_grid, np.stack([u, u]))[3]
        closed_form = math.sqrt(math.pi / 2.0)
        oracle, _ = quad(lambda x: np.exp(-2 * x ** 2), -np.inf, np.inf)
        assert interaction == pytest.approx(closed_form, rel=1e-12)
        assert interaction == pytest.approx(oracle, rel=1e-10)


def fast_packet():
    """A strongly modulated packet that exits a short box quickly."""
    cfg = SolverConfig(n_points=256, length=80.0, t_start=0.0, t_end=200.0,
                       checkpoint_times=tuple(np.linspace(5.0, 200.0, 20)))
    g = cfg.grid
    pair = np.stack([gaussian_field(g, 0.2, 3.0, velocity=1.0),
                     gaussian_field(g, 0.1, 3.0, velocity=-1.0)])
    return cfg, pair


def first_crossing(cfg, v):
    """Mid-time of the first Strang stage of ``run``'s step sequence whose
    state, half a free stage on, holds more than the guard's share of the
    mass in the edge bands; None if no stage does.  The stage mid-times of a
    step from t are ``t + W1 dt/2``, ``t + dt/2`` and ``t + dt - W1 dt/2``."""
    t, eps = cfg.t_start, 1e-9
    for target in cfg.resolved_checkpoints():
        while target > t + eps * max(1.0, t):
            dt = min(cfg.dt_policy.dt_at(t), target - t)
            w1 = dynamics.W1 * dt
            for (start, h), mid_t in zip(stage_steps(t, dt),
                                         (t + 0.5 * w1, t + 0.5 * dt, t + dt - 0.5 * w1)):
                mid = free_flow(cfg.grid, v, 0.5 * h)
                if boundary_mass_fraction(cfg.grid, mid) > dynamics.BOUNDARY_MASS_TOL:
                    return mid_t
                v = strang_step(cfg.grid, v, start, h)
            t = target if target - t - dt <= eps * max(1.0, target) else t + dt
    return None


def ledger_residuals(grid, v, dt, T=2.0):
    """Residuals of the integrated dissipation law after repeated Strang steps
    of ``dt`` to ``T``: component 1, component 2 and the total."""
    ts, ledgers = [0.0], [mass_ledger(grid, v)]
    for _ in range(round(T / dt)):
        v = strang_step(grid, v, ts[-1], dt)
        ts.append(ts[-1] + dt)
        ledgers.append(mass_ledger(grid, v))
    ledgers = np.array(ledgers)
    inter = np.trapezoid(ledgers[:, 3], ts)
    m1, m2 = ledgers[-1, :2] - ledgers[0, :2]
    return abs(m1 + 2 * inter), abs(m2 + 2 * inter), abs(m1 + m2 + 4 * inter)


class TestRun:
    def _config(self, t_end=100.0, **kw):
        base = dict(n_points=512, length=320.0, t_start=0.0, t_end=t_end,
                    checkpoint_times=tuple([0.0] + list(np.geomspace(2.0, t_end, 24))))
        base.update(kw)
        return SolverConfig(**base)

    def _data(self, cfg, amps=(0.15, 0.075)):
        g = cfg.grid
        return np.stack([gaussian_field(g, amps[0], 4.0),
                         gaussian_field(g, amps[1], 6.0, velocity=0.1)])

    def test_zero_data_stays_zero(self):
        cfg = self._config(t_end=20.0)
        traj = run(cfg, np.zeros((2, cfg.n_points), complex))
        assert np.all(traj.ledger[:, :2] == 0)

    def test_mass_monotone_and_difference_conserved(self):
        cfg = self._config()
        traj = run(cfg, self._data(cfg))
        total = traj.ledger[:, 0] + traj.ledger[:, 1]
        assert np.all(total[1:] <= total[:-1] + 1e-12)
        drift = np.max(np.abs(traj.ledger[:, 2] - traj.ledger[0, 2]))
        assert drift <= 1e-8 * total[0]

    def test_ledger_consistent_with_pair(self):
        cfg = self._config(t_end=10.0)
        traj = run(cfg, self._data(cfg))
        assert traj.ledger.shape == (len(traj.ts), 4)
        for v, row in zip(traj.states, traj.ledger, strict=True):
            again = mass_ledger(traj.grid, v)
            assert np.array_equal(again, row)
            assert again[0] == pytest.approx(traj.grid.dx * np.sum(np.abs(v[0]) ** 2), rel=1e-12)

    def test_checkpoint_times_exact(self):
        cfg = self._config(t_end=50.0)
        traj = run(cfg, self._data(cfg))
        assert np.allclose(traj.ts, cfg.resolved_checkpoints(), rtol=0, atol=1e-9)

    def test_guard_trips_on_fast_packet(self):
        # every Strang stage is guarded: the run stops at the first crossing,
        # not at the checkpoint after it
        cfg, pair = fast_packet()
        with pytest.raises(GuardViolation) as exc:
            run(cfg, pair)
        t_ref = first_crossing(cfg, pair)
        assert t_ref is not None and t_ref < 200.0
        assert exc.value.time == pytest.approx(t_ref, abs=1e-9)
        assert exc.value.fraction > exc.value.tolerance

    def test_boundary_fraction_of_centered_data(self, small_grid):
        pair = make_pair(small_grid)
        assert boundary_mass_fraction(small_grid, pair) < 1e-12
        dynamics._guard(small_grid, pair, 0.0)

    def test_dissipation_rate_second_order(self, small_grid):
        # each component loses mass at rate 2 * interaction; the total at 4x.
        # residual of the integrated law must shrink at second order in dt
        pair0 = make_pair(small_grid)
        coarse, mid, fine = (ledger_residuals(small_grid, pair0, dt) for dt in (0.04, 0.02, 0.01))
        for k in range(3):
            assert math.log2(coarse[k] / mid[k]) >= 1.9
            assert math.log2(mid[k] / fine[k]) >= 1.9


class TestRk4Reference:
    def _config(self, **kw):
        base = dict(n_points=256, length=120.0, t_start=0.0, t_end=5.0,
                    dt_policy=DtPolicy.fixed(0.01), checkpoint_times=(5.0,))
        base.update(kw)
        return SolverConfig(**base)

    def test_zero_data(self):
        cfg = self._config()
        traj = rk4_run(cfg, np.zeros((2, cfg.n_points), complex))
        assert traj.ledger[-1, 0] == 0.0

    def test_decoupled_matches_free_flow(self):
        cfg = self._config()
        g = cfg.grid
        u1 = gaussian_field(g, 0.3, 3.0)
        traj = rk4_run(cfg, np.stack([u1, np.zeros(g.n_points)]))
        free = free_flow(g, u1, 5.0)
        assert rel_l2(g, traj.states[-1, 0], free) < 1e-8

    def test_agrees_with_strang(self):
        cfg_r = self._config(t_end=10.0, checkpoint_times=(10.0,),
                             dt_policy=DtPolicy.fixed(0.005))
        cfg_s = SolverConfig(n_points=256, length=120.0, t_start=0.0, t_end=10.0,
                             dt_policy=DtPolicy.fixed(0.005), checkpoint_times=(10.0,))
        g = cfg_s.grid
        pair = np.stack([gaussian_field(g, 0.1, 3.0),
                         gaussian_field(g, 0.05, 4.0, velocity=0.15)])
        a = run(cfg_s, pair).states[-1]
        b = rk4_run(cfg_r, pair).states[-1]
        assert math.hypot(*l2(g, a - b)) / math.hypot(*l2(g, a)) < 1e-6

    @pytest.mark.parametrize("integrate", [run, rk4_run], ids=["kernel", "rk4"])
    def test_conservative_coupling_preserves_mass(self, integrate):
        # the phase-rotating coupling keeps the moduli, so each component's mass
        cfg = self._config(coupling="conservative")
        g = cfg.grid
        pair = np.stack([gaussian_field(g, 0.2, 3.0), gaussian_field(g, 0.15, 4.0)])
        traj = integrate(cfg, pair)
        m0 = mass_ledger(g, pair)
        assert traj.ledger[-1, :2] == pytest.approx(m0[:2], rel=1e-10)

    def test_guard_trips_on_fast_packet(self):
        cfg, pair = fast_packet()
        with pytest.raises(GuardViolation) as exc:
            rk4_run(cfg, pair)
        assert exc.value.time <= 200.0
        assert exc.value.fraction > exc.value.tolerance


class TestConfigValidation:
    def test_bad_time_window(self):
        with pytest.raises(ConfigError):
            SolverConfig(n_points=256, length=100.0, t_start=5.0, t_end=5.0)

    def test_unknown_coupling(self):
        # the couplings are the keys of the kernel's substep table
        with pytest.raises(ConfigError, match="couplings: \\['conservative', 'dissipative'\\]"):
            SolverConfig(n_points=256, length=100.0, t_end=10.0, coupling="focusing")

    def test_checkpoints_outside_window(self):
        with pytest.raises(ConfigError):
            SolverConfig(n_points=256, length=100.0, t_end=10.0,
                         checkpoint_times=(2.0, 20.0))

    def test_checkpoints_not_increasing(self):
        with pytest.raises(ConfigError):
            SolverConfig(n_points=256, length=100.0, t_end=10.0,
                         checkpoint_times=(5.0, 2.0))

    def test_dt_policy_kinds(self):
        assert DtPolicy.fixed(0.1).dt_at(1e4) == 0.1
        pol = DtPolicy()
        assert pol.dt_at(1.0) == 0.16
        assert pol.dt_at(100.0) == 2.56
        assert pol.dt_at(1e4) == 163.84
        with pytest.raises(ConfigError):
            DtPolicy(rate=-1e-3)

    @pytest.mark.parametrize("make", [
        lambda: DtPolicy(dt=math.nan),
        lambda: DtPolicy(rate=math.nan),
        lambda: DtPolicy(dt=math.inf),
        lambda: SolverConfig(n_points=256, length=100.0, t_start=math.nan, t_end=10.0),
        lambda: SolverConfig(n_points=256, length=100.0, t_end=math.nan),
        lambda: SolverConfig(n_points=256, length=100.0, t_end=math.inf),
        lambda: SolverConfig(n_points=256, length=100.0, t_end=10.0,
                             checkpoint_times=(0.0, 2.0, math.nan)),
    ], ids=["dt-nan", "rate-nan", "dt-inf", "t_start-nan", "t_end-nan", "t_end-inf",
            "checkpoint-nan"])
    def test_non_finite_rejected(self, make):
        with pytest.raises(ConfigError):
            make()

    @pytest.mark.parametrize("t_start, t_end", [(0.0, 1.0), (0.0, 2.0), (5.0, 5.0 + 1e-14)])
    def test_default_checkpoints_need_increasing_grid(self, t_start, t_end):
        with pytest.raises(ConfigError, match="checkpoint_times"):
            SolverConfig(n_points=256, length=100.0, t_start=t_start, t_end=t_end)
        # explicit checkpoints inside the window are still accepted
        SolverConfig(n_points=256, length=100.0, t_start=t_start, t_end=t_end,
                     checkpoint_times=(t_end,))

    def test_default_checkpoints_start_at_two(self):
        cfg = SolverConfig(n_points=256, length=100.0, t_end=50.0)
        cps = cfg.resolved_checkpoints()
        assert cps[0] == pytest.approx(2.0)
        assert cps[-1] == pytest.approx(50.0)
        assert len(cps) == 40


@pytest.mark.parametrize("factor, same", [(0.5, True), (2.0, False)])
def test_one_time_tolerance(factor, same):
    # a time within _time_tol(t) of t is t for the config's window, the
    # analytics' first row and the dyadic drift's checkpoint lookup
    def off(t):
        return factor * _time_tol(t)

    lo, hi = 10.0, 100.0
    for cps in ((lo - off(lo), hi), (lo, hi + off(hi))):
        if same:
            SolverConfig(n_points=8, length=10.0, t_start=lo, t_end=hi, checkpoint_times=cps)
        else:
            with pytest.raises(ConfigError, match="within"):
                SolverConfig(n_points=8, length=10.0, t_start=lo, t_end=hi,
                             checkpoint_times=cps)

    cfg = SolverConfig(n_points=8, length=10.0, t_end=hi)

    def trajectory(*ts):
        return Trajectory(config=cfg, ts=np.array(ts),
                          states=np.zeros((len(ts), 2, 8), dtype=complex), provenance={})

    assert P._first_row(trajectory(0.0, T_MIN - off(T_MIN), hi)) == (1 if same else 2)
    late = trajectory(50.0, hi + off(hi))
    if same:
        assert dyadic_profile_drift(late, [50.0])["d1"].tolist() == [0.0]
    else:
        with pytest.raises(KeyError, match="no checkpoint at t = 100"):
            dyadic_profile_drift(late, [50.0])


class TestDeterminism:
    def test_identical_runs_bitwise(self):
        cfg = SolverConfig(n_points=256, length=160.0, t_end=20.0,
                           checkpoint_times=(2.0, 10.0, 20.0))
        g = cfg.grid
        pair = np.stack([gaussian_field(g, 0.2, 3.0),
                         gaussian_field(g, 0.1, 4.0, velocity=0.1)])
        a = run(cfg, pair)
        b = run(cfg, pair)
        assert np.array_equal(a.states, b.states)
        assert np.array_equal(a.ledger, b.ledger)
