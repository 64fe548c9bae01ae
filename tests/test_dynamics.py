import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from nlspair import dynamics
from nlspair.dynamics import (
    DtPolicy,
    SolverConfig,
    coupled_decay_ratios,
    mass_ledger,
    run,
)
from nlspair.errors import ConfigError, GuardViolation
from nlspair.profiles import profile_history
from nlspair.spectral import _pull_back, _push_forward

from conftest import free_flow, gaussian_field, l2, rel_l2, strang_step


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

    def test_backward_rejected(self, small_grid):
        # the reversed flow blows up: the closed form is forward-only
        sq = np.abs(make_pair(small_grid)) ** 2
        with pytest.raises(ValueError, match="forward"):
            coupled_decay_ratios(sq[0], sq[1], -0.1)


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
                           checkpoint_times=(dt,), scheme="rk4_reference")
        ref = run(cfg, pair).states[-1]
        e1 = rel_l2(small_grid, one[0], ref[0])
        e2 = rel_l2(small_grid, two[0], ref[0])
        order = math.log2(e1 / e2)
        assert order >= 1.9


def stepped_checkpoints(cfg, v):
    """Repeated Strang steps on the step sequence of ``run``; states at the checkpoints."""
    out, t, eps = [], cfg.t_start, 1e-9
    for target in cfg.resolved_checkpoints():
        while target > t + eps * max(1.0, t):
            dt = min(cfg.dt_policy.dt_at(t), target - t)
            v = strang_step(cfg.grid, v, t, dt)
            t = target if target - t - dt <= eps * max(1.0, target) else t + dt
        out.append(v)
    return out


class TestFusedKernel:
    """``run`` merges adjacent half free steps; it must equal repeated Strang steps."""

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
        # the Strang phases dt xi^2 / 2 reach about 9 rad here; a resonance
        # of the splitting would show as a gap to the 4x refined run
        pol = DtPolicy()
        runs = [ladder_run(p) for p in (pol, DtPolicy(pol.dt / 4, pol.rate / 4))]
        coarse, fine = (profile_history(r).alpha[-1] for r in runs)
        gap = rel_l2(None, coarse, fine)
        assert gap < 1e-6   # measured: 7.7e-8

    def test_multiplier_budget(self, monkeypatch):
        # on the ladder the kernel's cache hits: new free-flow multipliers
        # come only with a rung change or a checkpoint
        calls = []
        real = dynamics._free_multiplier_fft
        monkeypatch.setattr(dynamics, "_free_multiplier_fft",
                            lambda grid, tau: calls.append(tau) or real(grid, tau))
        traj = ladder_run(DtPolicy())
        assert traj.provenance["n_steps"] > 1000
        assert len(calls) <= 64


amplitudes = st.floats(min_value=0.0, max_value=10.0, allow_subnormal=False)
durations = st.floats(min_value=0.0, max_value=50.0, allow_subnormal=False)


class TestDecayRatioProperties:
    """Pointwise invariants of the closed-form amplitude flow a' = b' = -2ab."""

    @settings(deadline=None, max_examples=300)
    @given(amplitudes, amplitudes, durations)
    def test_difference_conserved(self, a0, b0, s):
        r1, r2 = coupled_decay_ratios(a0, b0, s)
        assert abs((a0 * r1 - b0 * r2) - (a0 - b0)) <= 1e-13 * (a0 + b0)

    @settings(deadline=None, max_examples=300)
    @given(amplitudes, amplitudes, durations, durations)
    def test_monotone_decay(self, a0, b0, s1, s2):
        s1, s2 = sorted((s1, s2))
        early = coupled_decay_ratios(a0, b0, s1)
        late = coupled_decay_ratios(a0, b0, s2)
        for r_early, r_late in zip(early, late):
            assert 0.0 <= r_late <= r_early * (1.0 + 1e-12)
            assert r_early <= 1.0 + 1e-12

    @settings(deadline=None, max_examples=300)
    @given(amplitudes, amplitudes, durations, durations)
    def test_semigroup(self, a0, b0, s1, s2):
        r1, r2 = coupled_decay_ratios(a0, b0, s1 + s2)
        h1, h2 = coupled_decay_ratios(a0, b0, s1)
        a1, b1 = a0 * h1, b0 * h2
        k1, k2 = coupled_decay_ratios(a1, b1, s2)
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
        r1, r2 = coupled_decay_ratios(a0, b0, s)
        assert r1 == 0.0
        assert b0 * r2 == pytest.approx(-m, rel=1e-12)
        # just below the threshold the unclamped formula gives the same limit
        below = coupled_decay_ratios(a0, b0, 299.0 / -m)
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
    """Mid-step time of the first step of ``run``'s step sequence whose state,
    half a free step on, holds more than the guard's share of the mass in the
    edge bands; None if no step does."""
    t, eps = cfg.t_start, 1e-9
    for target in cfg.resolved_checkpoints():
        while target > t + eps * max(1.0, t):
            dt = min(cfg.dt_policy.dt_at(t), target - t)
            mid = free_flow(cfg.grid, v, 0.5 * dt)
            if boundary_mass_fraction(cfg.grid, mid) > dynamics.BOUNDARY_MASS_TOL:
                return t + 0.5 * dt
            v = strang_step(cfg.grid, v, t, dt)
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
        # every Strang step is guarded: the run stops at the first crossing,
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
                    dt_policy=DtPolicy.fixed(0.01), checkpoint_times=(5.0,),
                    scheme="rk4_reference")
        base.update(kw)
        return SolverConfig(**base)

    def test_zero_data(self):
        cfg = self._config()
        traj = run(cfg, np.zeros((2, cfg.n_points), complex))
        assert traj.ledger[-1, 0] == 0.0

    def test_decoupled_matches_free_flow(self):
        cfg = self._config()
        g = cfg.grid
        u1 = gaussian_field(g, 0.3, 3.0)
        traj = run(cfg, np.stack([u1, np.zeros(g.n_points)]))
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
        b = run(cfg_r, pair).states[-1]
        assert math.hypot(*l2(g, a - b)) / math.hypot(*l2(g, a)) < 1e-6

    def test_conservative_coupling_preserves_mass(self):
        cfg = self._config(coupling="conservative")
        g = cfg.grid
        pair = np.stack([gaussian_field(g, 0.2, 3.0), gaussian_field(g, 0.15, 4.0)])
        traj = run(cfg, pair)
        m0 = mass_ledger(g, pair)
        assert traj.ledger[-1, :2].sum() == pytest.approx(m0[:2].sum(), rel=1e-10)

    def test_guard_trips_on_fast_packet(self):
        cfg, pair = fast_packet()
        with pytest.raises(GuardViolation) as exc:
            run(replace(cfg, scheme="rk4_reference"), pair)
        assert exc.value.time <= 200.0
        assert exc.value.fraction > exc.value.tolerance

    def test_conservative_needs_rk4(self):
        with pytest.raises(ConfigError):
            SolverConfig(n_points=256, length=120.0, t_end=5.0,
                         coupling="conservative", scheme="strang_exact")


class TestConfigValidation:
    def test_bad_time_window(self):
        with pytest.raises(ConfigError):
            SolverConfig(n_points=256, length=100.0, t_start=5.0, t_end=5.0)

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
        assert pol.dt_at(1.0) == 0.04
        assert pol.dt_at(100.0) == 0.32
        assert pol.dt_at(1e4) == 20.48
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

    def test_default_checkpoints_start_at_two(self):
        cfg = SolverConfig(n_points=256, length=100.0, t_end=50.0)
        cps = cfg.resolved_checkpoints()
        assert cps[0] == pytest.approx(2.0)
        assert cps[-1] == pytest.approx(50.0)
        assert len(cps) == 40


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
