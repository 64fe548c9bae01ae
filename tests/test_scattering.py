import math

import numpy as np
import pytest

import nlspair as nl
from nlspair.dynamics import SolverConfig, run
from nlspair.errors import PicardDivergence
from nlspair.scattering import (
    asymptotic_wave,
    build_final_state,
    dyadic_profile_drift,
    nonlinearity_norms,
    obstruction_probe,
    picard_construct,
    picard_residual,
    verify_scattering,
    xt_distance,
    xt_norm_to_leading,
)
from nlspair.spectral import _free_step_array, _push_forward, l2_norm

WINDOW_L = {"kind": "window", "lo": -0.9, "hi": -0.3, "amp": 0.05}
WINDOW_R = {"kind": "window", "lo": 0.3, "hi": 0.9, "amp": 0.05}


@pytest.fixture(scope="module")
def grid():
    return nl.make_grid(4096, 10000.0)


@pytest.fixture(scope="module")
def decoupled_spec(grid):
    return build_final_state(grid, [WINDOW_L], [WINDOW_R], s=2.0)


@pytest.fixture(scope="module")
def picard_state(decoupled_spec):
    return picard_construct(decoupled_spec, 50.0, 5000.0, max_iters=8,
                            tol=1e-9, n_time=48)


class TestBuildFinalState:
    def test_disjoint_windows_decouple(self, decoupled_spec):
        spec = decoupled_spec
        assert spec.decoupled
        assert np.max(np.abs(spec.psi_hat_1 * spec.psi_hat_2)) == 0.0
        assert spec.delta == pytest.approx(0.05)
        assert spec.mu == pytest.approx(0.25)
        assert 0.0 < spec.mu < 0.5 * (spec.s0 - 1.0)

    def test_identical_gaussians_do_not(self, grid):
        entry = {"kind": "gauss", "center": 0.0, "sigma": 0.3, "amp": 0.05}
        spec = build_final_state(grid, [entry], [dict(entry)])
        assert not spec.decoupled

    def test_zero_second_component(self, grid):
        spec = build_final_state(grid, [WINDOW_L], [])
        assert spec.decoupled
        assert np.all(spec.psi_hat_2 == 0)

    def test_kappa_against_quadrature(self, grid):
        # sigma small enough that the spectrum sits inside the resolved band
        from scipy.integrate import quad
        amp, sig = 0.1, 0.15
        entry = {"kind": "gauss", "center": 0.0, "sigma": sig, "amp": amp}
        spec = build_final_state(grid, [entry], [], s=2.0)
        # psi(x) = amp * sigma * exp(-sigma^2 x^2 / 2) under this convention
        oracle, _ = quad(lambda x: (1 + x * x) ** 2 * (amp * sig) ** 2
                         * np.exp(-sig ** 2 * x ** 2), -np.inf, np.inf)
        assert spec.kappa == pytest.approx(math.sqrt(oracle), rel=1e-8)

    def test_bad_regularity_rejected(self, grid):
        with pytest.raises(ValueError):
            build_final_state(grid, [WINDOW_L], [WINDOW_R], s=1.0)


class TestAsymptoticWave:
    def test_decomposition_identity(self, decoupled_spec):
        w = asymptotic_wave(decoupled_spec, 500.0)
        g = decoupled_spec.grid
        u1 = _push_forward(g, decoupled_spec.psi_hat_1, 500.0)
        u2 = _push_forward(g, decoupled_spec.psi_hat_2, 500.0)
        assert np.max(np.abs(w.w_sharp.u1.values + w.w_flat.u1.values - u1)) < 1e-12
        assert np.max(np.abs(w.w_sharp.u2.values + w.w_flat.u2.values - u2)) < 1e-12

    def test_leading_wave_norms(self):
        # fine grid: the sampled dilation must resolve the window transitions
        g = nl.make_grid(65536, 22000.0)
        spec = build_final_state(g, [WINDOW_L], [WINDOW_R], s=2.0)
        psi = spec.psi_pair()
        psi_l2 = math.hypot(l2_norm(psi.u1), l2_norm(psi.u2))
        for t in (100.0, 1000.0, 10000.0):
            w = asymptotic_wave(spec, t)
            sharp_l2 = math.hypot(l2_norm(w.w_sharp.u1), l2_norm(w.w_sharp.u2))
            assert abs(sharp_l2 - psi_l2) <= 1e-10 * psi_l2
            sup = max(np.max(np.abs(w.w_sharp.u1.values)),
                      np.max(np.abs(w.w_sharp.u2.values))) * math.sqrt(t)
            assert abs(sup - spec.delta) <= 1e-10 * spec.delta

    def test_remainder_decay_slopes(self):
        # Gaussian spectra land exactly on the critical s0 = 2 rate
        g = nl.make_grid(32768, 22000.0)
        spec = build_final_state(
            g, [{"kind": "gauss", "center": -0.6, "sigma": 0.12, "amp": 0.05}],
            [{"kind": "gauss", "center": 0.6, "sigma": 0.12, "amp": 0.05}], s=2.0)
        ts = np.geomspace(1e2, 1e4, 9)
        flat, jflat = [], []
        for t in ts:
            w = asymptotic_wave(spec, float(t))
            flat.append(math.hypot(l2_norm(w.w_flat.u1), l2_norm(w.w_flat.u2)))
            j1 = nl.apply_J(w.w_flat.u1, float(t))
            j2 = nl.apply_J(w.w_flat.u2, float(t))
            jflat.append(math.hypot(l2_norm(j1), l2_norm(j2)))
        slope = np.polyfit(np.log(ts), np.log(flat), 1)[0]
        assert -1.15 <= slope <= -0.85
        jslope = np.polyfit(np.log(ts), np.log(jflat), 1)[0]
        assert jslope <= -0.5 * (spec.s0 - 1.0) + 0.15

    def test_early_time_rejected(self, decoupled_spec):
        with pytest.raises(ValueError):
            asymptotic_wave(decoupled_spec, 0.5)


class TestPicard:
    def test_vanishing_leading_nonlinearity(self, decoupled_spec):
        # the nonlinearity of the leading wave is identically zero for
        # decoupled data, checked directly, independent of any shortcut
        from nlspair.scattering import _w_sharp_arrays
        g = decoupled_spec.grid
        for tau in (50.0, 500.0, 5000.0):
            s1, s2 = _w_sharp_arrays(decoupled_spec, tau)
            n1 = np.abs(s2) ** 2 * s1
            n2 = np.abs(s1) ** 2 * s2
            assert np.max(np.abs(_free_step_array(g, n1, -tau))) < 1e-12
            assert np.max(np.abs(_free_step_array(g, n2, -tau))) < 1e-12

    def test_zero_second_component_fixed_in_one_iteration(self, grid):
        spec = build_final_state(grid, [WINDOW_L], [])
        state = picard_construct(spec, 50.0, 1000.0, max_iters=4, tol=1e-12,
                                 n_time=24)
        assert state.converged and state.iterate_index <= 2
        u1 = _push_forward(grid, spec.psi_hat_1, 50.0)
        pair = state.pair_at(50.0)
        assert np.max(np.abs(pair.u1.values - u1)) < 1e-12
        assert np.all(pair.u2.values == 0)

    def test_contraction_and_residual(self, decoupled_spec, picard_state):
        state = picard_state
        assert state.converged
        assert all(r <= 0.5 for r in state.ratios[:3])
        resid = picard_residual(decoupled_spec, state)
        assert resid <= 2e-9

    def test_iterates_stay_in_ball(self, decoupled_spec, picard_state):
        assert xt_norm_to_leading(decoupled_spec, picard_state) <= decoupled_spec.kappa

    def test_uniqueness_two_starts(self, decoupled_spec, picard_state):
        other = picard_construct(decoupled_spec, 50.0, 5000.0, max_iters=8,
                                 tol=1e-9, n_time=48, initial="free")
        assert xt_distance(decoupled_spec, picard_state, other) <= 1e-8

    def test_iteration_cost_independent_of_samples(self, decoupled_spec, fft_calls):
        # one batched transform per stack: a per-sample loop would scale with n_time
        counts = []
        for n_time in (24, 48):
            before = sum(fft_calls.values())
            picard_construct(decoupled_spec, 50.0, 5000.0, max_iters=1, n_time=n_time)
            counts.append(sum(fft_calls.values()) - before)
        assert counts[0] == counts[1] > 0

    def test_coupled_spec_rejected(self, grid):
        entry = {"kind": "window", "lo": -0.4, "hi": 0.4, "amp": 0.05}
        spec = build_final_state(grid, [entry], [dict(entry)])
        with pytest.raises(ValueError, match="not decoupled"):
            picard_construct(spec, 50.0, 5000.0)

    def test_divergence_diagnostic(self, grid):
        # an amplitude far outside the small-data regime cannot contract
        big = build_final_state(
            grid, [{"kind": "window", "lo": -0.9, "hi": -0.3, "amp": 3.0}],
            [{"kind": "window", "lo": 0.3, "hi": 0.9, "amp": 3.0}])
        with pytest.raises(PicardDivergence):
            picard_construct(big, 2.0, 200.0, max_iters=6, tol=1e-9, n_time=24)


class TestVerifyScattering:
    def test_free_final_state_error_at_floor(self, grid):
        spec = build_final_state(grid, [WINDOW_L], [])
        state = picard_construct(spec, 50.0, 1000.0, max_iters=4, tol=1e-12,
                                 n_time=24)
        cfg = SolverConfig(n_points=grid.n_points, length=grid.length,
                           t_start=50.0, t_end=500.0,
                           checkpoint_times=tuple(np.geomspace(50.0, 500.0, 12)))
        traj = run(cfg, state.pair_at(50.0))
        rep = verify_scattering(traj, spec)
        assert np.max(rep.errors) < 1e-8
        assert rep.passed

    def test_forward_error_decays(self, decoupled_spec, picard_state):
        cfg = SolverConfig(n_points=decoupled_spec.grid.n_points,
                           length=decoupled_spec.grid.length,
                           t_start=50.0, t_end=500.0,
                           checkpoint_times=tuple(np.geomspace(50.0, 500.0, 16)))
        traj = run(cfg, picard_state.pair_at(50.0))
        rep = verify_scattering(traj, decoupled_spec)
        assert rep.fitted_slope is not None
        assert rep.fitted_slope <= rep.slope_bound
        assert rep.passed


class TestObstruction:
    def test_eta_by_quadrature(self, grid):
        from scipy.integrate import quad
        entry = {"kind": "gauss", "center": 0.0, "sigma": 0.4, "amp": 0.1}
        spec = build_final_state(grid, [entry], [dict(entry)])
        n1, n2 = nonlinearity_norms(spec)
        oracle, _ = quad(lambda xi: (0.1 * np.exp(-0.5 * (xi / 0.4) ** 2)) ** 6,
                         -np.inf, np.inf)
        assert n1 == pytest.approx(math.sqrt(oracle), rel=1e-8)
        assert n1 == pytest.approx(n2, rel=1e-14)

    def test_decoupled_probe_rejected(self, decoupled_spec):
        with pytest.raises(ValueError, match="nothing to probe"):
            obstruction_probe(decoupled_spec, [100.0])

    def test_zero_component_edge_rejected(self, grid):
        spec = build_final_state(grid, [WINDOW_L], [])
        with pytest.raises(ValueError):
            obstruction_probe(spec, [100.0])

    def test_dyadic_drift_vanishes_for_free_flow(self, grid):
        # a freely propagating pair has exactly constant profiles
        from nlspair.dynamics import Checkpoint, Trajectory, mass_ledger
        spec = build_final_state(grid, [WINDOW_L], [WINDOW_R])
        cps = []
        cfg = SolverConfig(n_points=grid.n_points, length=grid.length,
                           t_start=100.0, t_end=400.0,
                           checkpoint_times=(100.0, 200.0, 400.0))
        for t in (100.0, 200.0, 400.0):
            u1 = _push_forward(grid, spec.psi_hat_1, t)
            u2 = _push_forward(grid, spec.psi_hat_2, t)
            pair = nl.FieldPair(nl.ComplexField(grid, u1, t),
                                nl.ComplexField(grid, u2, t))
            cps.append(Checkpoint(pair, mass_ledger(pair)))
        traj = Trajectory(config=cfg, checkpoints=tuple(cps), provenance={})
        drift = dyadic_profile_drift(traj, [100.0, 200.0])
        assert np.max(drift["d1"]) < 1e-12
        assert np.max(drift["d2"]) < 1e-12
