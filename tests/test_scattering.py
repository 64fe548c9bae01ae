import math
import tracemalloc

import numpy as np
import pytest

import nlspair as nl
from nlspair.dynamics import SolverConfig, run
from nlspair import fits
from nlspair.errors import ConfigError, PicardDivergence
from nlspair.scattering import (
    _apply_map,
    _picard_iterate,
    _w_sharp_arrays,
    build_final_state,
    dyadic_profile_drift,
    nonlinearity_norms,
    obstruction_probe,
    picard_construct,
    verify_scattering,
)
from nlspair.spectral import (
    SQRT_2PI,
    _free_multiplier_fft,
    _inverse_array,
    _j_spectrum,
    _profile_multiplier,
    _pull_back,
    _push_forward,
)

from conftest import l2

WINDOW_L = {"kind": "window", "lo": -0.9, "hi": -0.3, "amp": 0.05}
WINDOW_R = {"kind": "window", "lo": 0.3, "hi": 0.9, "amp": 0.05}


def _fft_order_pull_back(g, values, mult):
    back = np.conjugate(mult)
    spec = np.fft.fft(values * g._sign, axis=-1)
    half = g._nyq_fft
    spec[..., :half] *= back[..., half:]
    spec[..., half:] *= back[..., :half]
    spec *= g._sign * (g.dx / SQRT_2PI)
    return spec


def _fft_order_push_forward(g, alpha, mult):
    half = g._nyq_fft
    spec = np.empty(np.broadcast_shapes(np.shape(alpha), mult.shape), dtype=np.complex128)
    np.multiply(alpha[..., :half], mult[..., half:], out=spec[..., :half])
    np.multiply(alpha[..., half:], mult[..., :half], out=spec[..., half:])
    spec *= g._sign
    out = np.fft.ifft(spec, axis=-1)
    out *= g._sign * (g.n_points * g.dxi / SQRT_2PI)
    return out


def reference_picard(spec, T, T_max, max_iters, tol, n_time):
    """The fixed-point iteration from the leading wave as it was before the
    profile-frame distance: fft-order tables, the tail quadrature along the
    transposed stack, and the distance pulled back from the x-space difference."""
    g = spec.grid
    taus = np.geomspace(T, T_max, n_time)
    mult = _free_multiplier_fft(g, taus)
    v1, v2 = _w_sharp_arrays(spec, taus).transpose(1, 0, 2)
    distances, k = [], 0
    for k in range(1, max_iters + 1):
        new = []
        for v, w, psi_hat in ((v1, v2, spec.psi_hat[0]), (v2, v1, spec.psi_hat[1])):
            pulled = _fft_order_pull_back(g, np.abs(w) ** 2 * v, mult)
            tail = fits.reverse_cumtrapz(taus, pulled.T).T
            tail += psi_hat
            new.append(_fft_order_push_forward(g, tail, mult))
        l2_sq, j_sq = np.zeros(n_time), np.zeros(n_time)
        for d in (new[0] - v1, new[1] - v2):
            l2_sq += g.dx * np.sum(np.abs(d) ** 2, axis=-1)
            alpha = _fft_order_pull_back(g, d, mult)
            j_sq += g.dxi * np.sum(np.abs(_j_spectrum(g, alpha)) ** 2, axis=-1)
        d = float(np.max(taus ** (spec.mu + 0.5) * np.sqrt(l2_sq)
                         + taus ** spec.mu * np.sqrt(j_sq)))
        distances.append(d)
        v1, v2 = new
        if d < tol:
            break
    return {"v1": v1, "v2": v2, "iterate_index": k, "distances": distances}


def xt_norm(grid, taus, d, mu):
    """sup over samples of t^(mu+1/2) ||d||_L2 + t^mu ||J d||_L2 of an
    ``(n_time, 2, N)`` stack ``d`` of x-space samples: the norm in which the
    Picard map contracts, by x-space quadrature and ``_j_spectrum``."""
    l2_sq = grid.dx * np.sum(np.abs(d) ** 2, axis=(-2, -1))
    j = _j_spectrum(grid, _pull_back(grid, d, taus[:, None]))
    j_sq = grid.dxi * np.sum(np.abs(j) ** 2, axis=(-2, -1))
    return float(np.max(taus ** (mu + 0.5) * np.sqrt(l2_sq) + taus ** mu * np.sqrt(j_sq)))


@pytest.fixture(scope="module")
def grid():
    return nl.Grid(4096, 10000.0)


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
        assert np.max(np.abs(spec.psi_hat[0] * spec.psi_hat[1])) == 0.0
        assert spec.psi_hat.shape == (2, spec.grid.n_points) and not spec.psi_hat.flags.writeable
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
        assert np.all(spec.psi_hat[1] == 0)

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


def leading_and_remainder(spec, t):
    """``(w#, U(t) psi+ - w#)`` as ``(2, N)`` states at the time t."""
    sharp = _w_sharp_arrays(spec, t)
    free = _push_forward(spec.grid, spec.psi_hat, t)
    return sharp, free - sharp


class TestAsymptoticWave:
    """The leading wave ``_w_sharp_arrays`` that starts the Picard map, and
    its remainder against the free wave ``_push_forward``."""

    def test_decomposition_identity(self, decoupled_spec):
        # rows of the batched waves at an array of times are the waves at each time
        g = decoupled_spec.grid
        ts = np.array([50.0, 500.0, 5000.0])
        sharp = _w_sharp_arrays(decoupled_spec, ts)
        free = _push_forward(g, decoupled_spec.psi_hat, ts[:, None])
        assert sharp.shape == free.shape == (3, 2, g.n_points)
        for i, t in enumerate(ts):
            assert np.array_equal(sharp[i], _w_sharp_arrays(decoupled_spec, t))
            u = _push_forward(g, decoupled_spec.psi_hat, t)
            assert np.max(np.abs(free[i] - u)) < 1e-12
        # U(t) psi+ = w# + remainder, and the remainder shrinks in time
        rest = l2(g, free[:, 0] - sharp[:, 0])
        assert np.all(np.diff(rest) < 0) and rest[-1] < 0.1 * l2(g, free[-1, 0])

    def test_leading_wave_norms(self):
        # fine grid: the sampled dilation must resolve the window transitions
        g = nl.Grid(65536, 22000.0)
        spec = build_final_state(g, [WINDOW_L], [WINDOW_R], s=2.0)
        psi = _inverse_array(g, spec.psi_hat)
        psi_l2 = math.hypot(*l2(g, psi))
        for t in (100.0, 1000.0, 10000.0):
            sharp, _ = leading_and_remainder(spec, t)
            sharp_l2 = math.hypot(*l2(g, sharp))
            assert abs(sharp_l2 - psi_l2) <= 1e-10 * psi_l2
            sup = np.max(np.abs(sharp)) * math.sqrt(t)
            assert abs(sup - spec.delta) <= 1e-10 * spec.delta

    def test_remainder_decay_slopes(self):
        # Gaussian spectra land exactly on the critical s0 = 2 rate
        g = nl.Grid(32768, 22000.0)
        spec = build_final_state(
            g, [{"kind": "gauss", "center": -0.6, "sigma": 0.12, "amp": 0.05}],
            [{"kind": "gauss", "center": 0.6, "sigma": 0.12, "amp": 0.05}], s=2.0)
        ts = np.geomspace(1e2, 1e4, 9)
        flat, jflat = [], []
        for t in ts:
            _, rest = leading_and_remainder(spec, float(t))
            flat.append(math.hypot(*l2(g, rest)))
            # J of the remainder, read off its profile as the remainder probe does
            j = _j_spectrum(g, _pull_back(g, rest, float(t)))
            jflat.append(math.sqrt(g.dxi * np.sum(np.abs(j) ** 2)))
        slope = np.polyfit(np.log(ts), np.log(flat), 1)[0]
        assert -1.15 <= slope <= -0.85
        jslope = np.polyfit(np.log(ts), np.log(jflat), 1)[0]
        assert jslope <= -0.5 * (spec.s0 - 1.0) + 0.15

    def test_early_time_rejected(self, decoupled_spec):
        # the leading wave starts the construction only from T >= 1
        with pytest.raises(ValueError, match="T >= 1"):
            picard_construct(decoupled_spec, 0.5, 50.0)


class TestPicard:
    def test_vanishing_leading_nonlinearity(self, decoupled_spec):
        # the nonlinearity of the leading wave is identically zero for
        # decoupled data, checked directly, independent of any shortcut
        g = decoupled_spec.grid
        for tau in (50.0, 500.0, 5000.0):
            s1, s2 = _w_sharp_arrays(decoupled_spec, tau)
            n1 = np.abs(s2) ** 2 * s1
            n2 = np.abs(s1) ** 2 * s2
            assert np.max(np.abs(_pull_back(g, n1, tau))) < 1e-12
            assert np.max(np.abs(_pull_back(g, n2, tau))) < 1e-12

    def test_zero_second_component_fixed_in_one_iteration(self, grid):
        spec = build_final_state(grid, [WINDOW_L], [])
        state = picard_construct(spec, 50.0, 1000.0, max_iters=4, tol=1e-12,
                                 n_time=24)
        assert state.converged and state.iterate_index <= 2
        u1 = _push_forward(grid, spec.psi_hat[0], 50.0)
        assert state.taus[0] == 50.0
        v = state.v[0]
        assert v.shape == (2, grid.n_points)
        assert np.max(np.abs(v[0] - u1)) < 1e-12
        assert np.all(v[1] == 0)

    def test_contraction_and_residual(self, decoupled_spec, picard_state):
        state = picard_state
        assert state.converged
        assert all(r <= 0.5 for r in state.ratios[:3])
        # the map returns the new profiles, Nyquist slot zeroed
        g, taus = decoupled_spec.grid, state.taus
        alpha = _apply_map(decoupled_spec, taus, state.v,
                           _profile_multiplier(g, taus)[:, None])
        assert alpha.shape == state.v.shape and np.all(alpha[..., 0] == 0)
        new = _push_forward(g, alpha, taus[:, None])
        assert xt_norm(g, taus, new - state.v, decoupled_spec.mu) <= 2e-9

    def test_iterates_stay_in_ball(self, decoupled_spec, picard_state):
        # the distance of the iterate from the leading wave
        spec, taus = decoupled_spec, picard_state.taus
        d = picard_state.v - _w_sharp_arrays(spec, taus)
        assert xt_norm(spec.grid, taus, d, spec.mu) <= spec.kappa

    def test_uniqueness_two_starts(self, decoupled_spec, picard_state):
        # the same fixed point from the free wave U(t) psi+ as from w#
        spec, taus = decoupled_spec, picard_state.taus
        free = _push_forward(spec.grid, spec.psi_hat, taus[:, None])
        other = _picard_iterate(spec, taus, free, max_iters=8, tol=1e-9)
        assert other.converged
        assert xt_norm(spec.grid, taus, picard_state.v - other.v, spec.mu) <= 1e-8

    def test_iteration_cost_independent_of_samples(self, decoupled_spec, fft_calls,
                                                   fft_points):
        # one batched transform per stack: a per-sample loop would scale with n_time
        counts, points = [], []
        for n_time, iters in ((24, 1), (48, 1), (48, 2)):
            before, before_points = sum(fft_calls.values()), fft_points["points"]
            picard_construct(decoupled_spec, 50.0, 5000.0, max_iters=iters, n_time=n_time)
            counts.append(sum(fft_calls.values()) - before)
            points.append(fft_points["points"] - before_points)
        assert counts[0] == counts[1] > 0
        # per iteration, each over the (n_time, 2, N) stack: the map's
        # pull-back and push-forward, and one IFFT for the distance; the
        # points transformed are those of one transform per component
        assert counts[2] - counts[1] == 3
        assert points[2] - points[1] == 6 * 48 * decoupled_spec.grid.n_points

    def test_matches_reference_map(self, decoupled_spec):
        # the map before the profile-frame norm, in the code's own conventions:
        # same iterates bitwise, same iteration count, same distances
        spec = decoupled_spec
        ref = reference_picard(spec, 50.0, 5000.0, max_iters=8, tol=1e-9, n_time=48)
        state = picard_construct(spec, 50.0, 5000.0, max_iters=8, tol=1e-9, n_time=48)
        assert np.array_equal(state.v[:, 0], ref["v1"])
        assert np.array_equal(state.v[:, 1], ref["v2"])
        assert state.iterate_index == ref["iterate_index"]
        d, d_ref = np.array(state.distances), np.array(ref["distances"])
        above = d_ref > 1e-6 * d_ref[0]
        assert above.sum() >= 2
        assert np.all(np.abs(d[above] / d_ref[above] - 1.0) <= 1e-6)

    def test_peak_memory_is_eight_stacks(self):
        # at its peak the construction holds the iterate, the old profiles,
        # the map's product (two (n_time, N) stacks each), the free-flow
        # table and the squared amplitudes: a difference of profiles
        # allocated afresh, not in the old profile's buffer, adds one more
        g = nl.Grid(2048, 10000.0)
        spec = build_final_state(g, [WINDOW_L], [WINDOW_R], s=2.0)
        tracemalloc.start()
        try:
            picard_construct(spec, 50.0, 5000.0, n_time=32)
            ratio = tracemalloc.get_traced_memory()[1] / (32 * g.n_points * 16)
        finally:
            tracemalloc.stop()
        # measured: 8.13, and 9.18 with the difference allocated afresh
        assert ratio <= 8.5

    def test_box_guard(self, decoupled_spec):
        # the support reaches |xi| = 0.8998: by T_max = 20000 its waves have
        # travelled far past the edge bands of the L = 10000 box
        with pytest.raises(ConfigError, match="edge bands"):
            picard_construct(decoupled_spec, 50.0, 20000.0)
        entry = {"kind": "window", "lo": -0.7, "hi": 0.7, "amp": 0.05}
        overlap = build_final_state(decoupled_spec.grid, [entry], [dict(entry)])
        with pytest.raises(ConfigError, match="edge bands"):
            obstruction_probe(overlap, [100.0], T=200.0)

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
        assert state.taus[0] == 50.0
        traj = run(cfg, state.v[0])
        rep = verify_scattering(traj, spec)
        assert np.max(rep.errors) < 1e-8
        assert rep.passed

    def test_forward_error_decays(self, decoupled_spec, picard_state):
        cfg = SolverConfig(n_points=decoupled_spec.grid.n_points,
                           length=decoupled_spec.grid.length,
                           t_start=50.0, t_end=500.0,
                           checkpoint_times=tuple(np.geomspace(50.0, 500.0, 16)))
        assert picard_state.taus[0] == 50.0
        traj = run(cfg, picard_state.v[0])
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
        from nlspair.dynamics import Trajectory
        spec = build_final_state(grid, [WINDOW_L], [WINDOW_R])
        ts = np.array([100.0, 200.0, 400.0])
        cfg = SolverConfig(n_points=grid.n_points, length=grid.length,
                           t_start=100.0, t_end=400.0, checkpoint_times=tuple(ts))
        states = _push_forward(grid, spec.psi_hat, ts[:, None])
        traj = Trajectory(config=cfg, ts=ts, states=states, provenance={})
        drift = dyadic_profile_drift(traj, [100.0, 200.0])
        assert np.max(drift["d1"]) < 1e-12
        assert np.max(drift["d2"]) < 1e-12
