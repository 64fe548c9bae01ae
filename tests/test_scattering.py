import math
import sys
import threading
import tracemalloc
from functools import partial

import numpy as np
import pytest

import nlspair as nl
from nlspair import profiles as P
from nlspair.dynamics import SolverConfig, run
from nlspair.errors import ConfigError, PicardDivergence
from nlspair.profiles import _blocks
from nlspair.scattering import (
    PicardState,
    _picard_iterate,
    _w_sharp_arrays,
    _xt_sup,
    build_final_state,
    dyadic_drift_run,
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
    _nyquist,
    _profile_multiplier,
    _profile_sq,
    _pull_back,
    _push_forward,
)

from conftest import cumtrapz_from_end, l2

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
            tail = cumtrapz_from_end(taus, pulled.T).T
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


def one_shot_picard(spec, taus, v, max_iters, tol):
    """The iteration as it was on whole stacks: the ``(n_time, 2, N)`` start
    ``v``, its profiles, the map's product and the new iterate each held at
    once, on one thread.  Returns ``(v, iterate_index, distances, ratios)``."""
    g = spec.grid
    table = _profile_multiplier(g, taus)[:, None]
    nyq = _nyquist(g, v)
    prev = _pull_back(g, v, taus[:, None], table)
    distances, ratios, k = [], [], 0
    for k in range(1, max_iters + 1):
        alpha = _pull_back(g, np.abs(v[:, ::-1]) ** 2 * v, taus[:, None], table,
                           overwrite_x=True)
        alpha = np.moveaxis(cumtrapz_from_end(taus, np.moveaxis(alpha, 0, -1)), -1, 0)
        alpha += spec.psi_hat
        alpha[..., 0] = 0.0
        v = _push_forward(g, alpha, taus[:, None], table)
        d = _xt_sup(taus, spec.mu, *_profile_sq(g, np.subtract(alpha, prev, out=prev), nyq))
        prev, nyq = alpha, None
        distances.append(d)
        if len(distances) > 1 and distances[-2] > 0:
            ratios.append(d / distances[-2])
        if d < tol or (len(ratios) >= 2 and ratios[-1] > 0.9 and ratios[-2] > 0.9):
            break
    return v, k, distances, ratios


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


@pytest.fixture(scope="module")
def forward_run(decoupled_spec, picard_state):
    """The forward run from the Picard iterate at T = 50 to 500, with 16
    log-spaced checkpoints."""
    g = decoupled_spec.grid
    cfg = SolverConfig(n_points=g.n_points, length=g.length, t_start=50.0, t_end=500.0,
                       checkpoint_times=tuple(np.geomspace(50.0, 500.0, 16)))
    assert picard_state.taus[0] == 50.0
    return run(cfg, picard_state.v[0])


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


def closed_form_w_sharp(spec, ts):
    """``(i t)^{-1/2} e^{i x^2/2t} psi_hat(x/t)`` on the whole grid, one row
    per time: ``(n_t, 2, N)``."""
    g = spec.grid
    t = np.asarray(ts, dtype=float)[:, None]
    wave = (1.0 / np.sqrt(1j * t)) * np.exp(0.5j * g.x ** 2 / t)
    return wave[:, None, :] * spec.spectrum(g.x / t)


GAUSS = {"kind": "gauss", "center": -0.2, "sigma": 0.3, "amp": 0.05}
OVERLAP = {"kind": "window", "lo": -0.5, "hi": 0.5, "amp": 0.1}


class TestAsymptoticWave:
    """The leading wave ``_w_sharp_arrays`` that starts the Picard map, and
    its remainder against the free wave ``_push_forward``."""

    @pytest.mark.parametrize("entries,whole", [
        (([WINDOW_L], [WINDOW_R]), False),
        (([OVERLAP], [OVERLAP]), False),
        (([GAUSS], [WINDOW_R]), True),
    ], ids=["scatter-windows", "overlapping-windows", "gaussian"])
    def test_matches_closed_form(self, grid, entries, whole):
        # the wave is formed on each row's support only: value for value the
        # whole-grid formula, and zero off the support
        spec = build_final_state(grid, *entries)
        ts = np.geomspace(50.0, 5000.0, 7)
        sharp = _w_sharp_arrays(spec, ts)
        assert np.array_equal(sharp, closed_form_w_sharp(spec, ts))
        off = ~np.any(spec.spectrum(grid.x / ts[:, None]) != 0, axis=1)
        assert np.all(sharp.transpose(1, 0, 2)[:, off] == 0)
        # a Gaussian's support is the whole grid by the last time, a window's never
        assert (not off[-1].any()) == whole and off[0].any()

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
            picard_construct(decoupled_spec, 0.5, 50.0, max_iters=8, tol=1e-9,
                             n_time=64)


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
        # the map once more, from the converged iterate: the new iterate
        # carries no Nyquist mode, and it moves by the residual only
        g, taus = decoupled_spec.grid, state.taus
        again = _picard_iterate(decoupled_spec, taus,
                                lambda t: state.v[np.searchsorted(taus, t)], 1, 0.0)
        assert again.iterate_index == 1 and not again.converged
        assert np.max(np.abs(_nyquist(g, again.v))) <= 1e-13 * np.max(np.abs(again.v))
        assert xt_norm(g, taus, again.v - state.v, decoupled_spec.mu) <= 2e-9

    def test_distance_drops_the_nyquist_mode(self):
        # psi_hat with a Nyquist mode, which no profile carries: the map drops
        # it, so the first distance is that of the iterates in x-space
        g = nl.Grid(256, 200.0)
        spec = build_final_state(g, [{"kind": "window", "lo": -4.5, "hi": -3.0, "amp": 0.05}],
                                 [{"kind": "window", "lo": 3.0, "hi": 3.9, "amp": 0.05}])
        assert spec.decoupled and spec.psi_hat[0, 0] != 0
        taus = np.geomspace(1.0, 10.0, 8)

        def free(t):
            return _push_forward(g, spec.psi_hat, t[:, None])

        state = _picard_iterate(spec, taus, free, 1, 0.0)
        expected = xt_norm(g, taus, state.v - free(taus), spec.mu)
        assert 0 < expected < 1e-3
        assert state.distances[0] == pytest.approx(expected, rel=1e-9)

    def test_iterates_stay_in_ball(self, decoupled_spec, picard_state):
        # the distance of the iterate from the leading wave
        spec, taus = decoupled_spec, picard_state.taus
        d = picard_state.v - _w_sharp_arrays(spec, taus)
        assert xt_norm(spec.grid, taus, d, spec.mu) <= spec.kappa

    def test_uniqueness_two_starts(self, decoupled_spec, picard_state):
        # the same fixed point from the free wave U(t) psi+ as from w#
        spec, taus = decoupled_spec, picard_state.taus
        def free(t):
            return _push_forward(spec.grid, spec.psi_hat, t[:, None])
        other = _picard_iterate(spec, taus, free, max_iters=8, tol=1e-9)
        assert other.converged
        assert xt_norm(spec.grid, taus, picard_state.v - other.v, spec.mu) <= 1e-8

    def test_iteration_cost_independent_of_samples(self, decoupled_spec, fft_calls,
                                                   fft_points):
        # batched transforms over blocks of samples: per sample, the points
        # transformed do not depend on n_time
        g = decoupled_spec.grid
        counts, points = [], []
        for n_time, iters in ((24, 1), (48, 1), (48, 2)):
            before, before_points = sum(fft_calls.values()), fft_points["points"]
            picard_construct(decoupled_spec, 50.0, 5000.0, max_iters=iters, tol=1e-9,
                             n_time=n_time)
            counts.append(sum(fft_calls.values()) - before)
            points.append(fft_points["points"] - before_points)
        assert points[1] == 2 * points[0] > 0
        # one iteration: per block of samples the start's profiles, one IFFT
        # for the distance and the final push-forward; N(w#) of decoupled
        # data vanishes, so the map pulls nothing back
        assert counts[0] == 3 * len(_blocks(g, 24))
        assert counts[1] == 3 * len(_blocks(g, 48))
        # each further iteration, per block: the push-forward of the old
        # profiles, the map's pull-back and the distance's IFFT; the points
        # transformed are those of one transform per component
        assert counts[2] - counts[1] == 3 * len(_blocks(g, 48))
        assert points[2] - points[1] == 6 * 48 * g.n_points

    def test_first_iteration_pulls_back_coupled_nonlinearity(self, overlap_spec, fft_calls):
        # overlapping data: N(w#) does not vanish, so the first iteration
        # pulls it back, 4 transforms per block
        taus = np.geomspace(50.0, 2000.0, 48)
        before = sum(fft_calls.values())
        _picard_iterate(overlap_spec, taus, partial(_w_sharp_arrays, overlap_spec), 1, 0.0)
        assert sum(fft_calls.values()) - before == 4 * len(_blocks(overlap_spec.grid, 48))

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

    def test_peak_memory_under_four_stacks(self, monkeypatch):
        # the construction holds one profile stack (two (n_time, N) stacks)
        # and the free-flow table as its half spectrum (half of one); the
        # x-space iterate, w#, the map's product, its tail integral and the
        # distance's difference live one block at a time, at most 2 x
        # workers blocks in flight.  The blocks are pinned to one row on two
        # threads: at this grid one default block is the whole stack.  The
        # pool's module is imported first, since an import's objects are not
        # the construction's
        import concurrent.futures  # noqa: F401
        g = nl.Grid(2048, 10000.0)
        monkeypatch.setattr(P, "_BLOCK_POINTS", 2 * g.n_points)
        monkeypatch.setattr(P, "_workers", lambda: 2)
        spec = build_final_state(g, [WINDOW_L], [WINDOW_R], s=2.0)
        tracemalloc.start()
        try:
            picard_construct(spec, 50.0, 5000.0, max_iters=8, tol=1e-9, n_time=32)
            ratio = tracemalloc.get_traced_memory()[1] / (32 * g.n_points * 16)
        finally:
            tracemalloc.stop()
        # measured: 3.22-3.45 on two threads, and 3.03 on one
        assert ratio <= 4.0

    def test_box_guard(self, decoupled_spec):
        # the support reaches |xi| = 0.8998: by T_max = 20000 its waves have
        # travelled far past the edge bands of the L = 10000 box
        with pytest.raises(ConfigError, match="edge bands"):
            picard_construct(decoupled_spec, 50.0, 20000.0, max_iters=8, tol=1e-9,
                             n_time=64)
        entry = {"kind": "window", "lo": -0.7, "hi": 0.7, "amp": 0.05}
        overlap = build_final_state(decoupled_spec.grid, [entry], [dict(entry)])
        with pytest.raises(ConfigError, match="edge bands"):
            obstruction_probe(overlap, [100.0], T=200.0, picard_iters=3)

    def test_coupled_spec_rejected(self, grid):
        entry = {"kind": "window", "lo": -0.4, "hi": 0.4, "amp": 0.05}
        spec = build_final_state(grid, [entry], [dict(entry)])
        with pytest.raises(ValueError, match="not decoupled"):
            picard_construct(spec, 50.0, 5000.0, max_iters=8, tol=1e-9, n_time=64)

    def test_divergence_diagnostic(self, grid):
        # an amplitude far outside the small-data regime cannot contract
        big = build_final_state(
            grid, [{"kind": "window", "lo": -0.9, "hi": -0.3, "amp": 3.0}],
            [{"kind": "window", "lo": 0.3, "hi": 0.9, "amp": 3.0}])
        with pytest.raises(PicardDivergence):
            picard_construct(big, 2.0, 200.0, max_iters=6, tol=1e-9, n_time=24)


# (workers, rows per block): inline and on four threads, 1-row blocks and
# 5-row blocks, whose last block of 48 samples is a short tail of 3
BLOCKINGS = [(1, 1), (4, 1), (1, 5), (4, 5)]


def _pin_blocks(monkeypatch, grid, workers, rows):
    monkeypatch.setattr(P, "_workers", lambda: workers)
    monkeypatch.setattr(P, "_BLOCK_POINTS", rows * workers * 2 * grid.n_points)
    assert _blocks(grid, 48)[0] == slice(0, rows)


@pytest.fixture(scope="module")
def overlap_spec(grid):
    return build_final_state(grid, [OVERLAP], [dict(OVERLAP)])


@pytest.fixture(scope="module")
def one_shot_drift(overlap_spec):
    """``dyadic_drift_run`` of the overlapping data started from the one-shot
    iteration on whole stacks."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr("nlspair.scattering._picard_iterate", one_shot_iterate)
        return dyadic_drift_run(overlap_spec, [60.0], 50.0, picard_iters=3)


def one_shot_iterate(spec, taus, start, max_iters, tol):
    """``_picard_iterate``'s signature on :func:`one_shot_picard`."""
    v, k, distances, ratios = one_shot_picard(spec, taus, start(taus), max_iters, tol)
    return PicardState(taus=taus, v=v, iterate_index=k, distances=distances,
                       ratios=ratios, converged=bool(distances[-1] < tol))


def _no_compute(*args, **kwargs):
    raise AssertionError("the iteration ran on parameters it should have rejected")


class TestStreamedPicard:
    @pytest.mark.parametrize("workers,rows", BLOCKINGS)
    def test_construct_bitwise_one_shot(self, decoupled_spec, monkeypatch, workers, rows):
        spec = decoupled_spec
        taus = np.geomspace(50.0, 5000.0, 48)
        v, k, distances, ratios = one_shot_picard(spec, taus, _w_sharp_arrays(spec, taus),
                                                  max_iters=8, tol=1e-9)
        _pin_blocks(monkeypatch, spec.grid, workers, rows)
        # threads switch often, so that a block writing another's rows would show
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            state = picard_construct(spec, 50.0, 5000.0, max_iters=8, tol=1e-9, n_time=48)
        finally:
            sys.setswitchinterval(interval)
        assert np.array_equal(state.v, v)
        assert state.iterate_index == k
        assert np.array_equal(state.distances, distances)
        assert np.array_equal(state.ratios, ratios)

    @pytest.mark.parametrize("workers,rows", BLOCKINGS)
    def test_drift_run_bitwise_one_shot(self, overlap_spec, one_shot_drift, monkeypatch,
                                        workers, rows):
        _pin_blocks(monkeypatch, overlap_spec.grid, workers, rows)
        drift = dyadic_drift_run(overlap_spec, [60.0], 50.0, picard_iters=3)
        assert np.array_equal(drift["d1"], one_shot_drift["d1"])
        assert np.array_equal(drift["d2"], one_shot_drift["d2"])
        assert drift["steps"] == one_shot_drift["steps"]

    def test_no_iteration_rejected(self, decoupled_spec):
        # the iterate lives only as profiles, so zero iterations have none to return
        with pytest.raises(ValueError, match="max_iters >= 1"):
            picard_construct(decoupled_spec, 50.0, 5000.0, max_iters=0, tol=1e-9, n_time=8)

    @pytest.mark.parametrize("n_time", [0, 1])
    def test_too_few_samples_rejected(self, decoupled_spec, monkeypatch, n_time):
        # no sample, or one with no tail integral to carry: rejected before
        # the iteration starts
        monkeypatch.setattr("nlspair.scattering._picard_iterate", _no_compute)
        with pytest.raises(ValueError, match="n_time >= 2"):
            picard_construct(decoupled_spec, 50.0, 5000.0, max_iters=8, tol=1e-9,
                             n_time=n_time)

    @pytest.mark.parametrize("name", ["T", "T_max", "tol"])
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_non_finite_parameter_rejected(self, decoupled_spec, monkeypatch, name, value):
        monkeypatch.setattr("nlspair.scattering._picard_iterate", _no_compute)
        kwargs = {"T": 50.0, "T_max": 5000.0, "tol": 1e-9, name: value}
        with pytest.raises(ValueError, match=f"finite {name},"):
            picard_construct(decoupled_spec, max_iters=8, n_time=48, **kwargs)

    def test_block_exception_surfaces(self, decoupled_spec, monkeypatch):
        spec = decoupled_spec
        _pin_blocks(monkeypatch, spec.grid, 4, 1)
        taus = np.geomspace(50.0, 5000.0, 48)
        boom = RuntimeError("one block fails")

        def start(t):
            if np.any(t == taus[7]):
                raise boom
            return _w_sharp_arrays(spec, t)

        threads = threading.active_count()
        with pytest.raises(RuntimeError) as info:
            _picard_iterate(spec, taus, start, max_iters=3, tol=0.0)
        assert info.value is boom
        assert threading.active_count() == threads


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

    def test_forward_error_decays(self, decoupled_spec, forward_run):
        rep = verify_scattering(forward_run, decoupled_spec)
        assert rep.fitted_slope is not None
        assert rep.fitted_slope <= rep.slope_bound
        assert rep.passed

    def test_errors_one_checkpoint_at_a_time(self, decoupled_spec, forward_run):
        # the errors of the whole-stack formula, bitwise, without its
        # (n_t, 2, N) stack of free waves and temporaries
        g, traj = decoupled_spec.grid, forward_run
        free = _push_forward(g, decoupled_spec.psi_hat, traj.ts[:, None])
        whole = np.sqrt(g.dx * np.sum(np.abs(traj.states - free) ** 2, axis=(-2, -1)))
        del free
        tracemalloc.start()
        try:
            rep = verify_scattering(traj, decoupled_spec)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert np.array_equal(rep.errors, whole)
        assert peak < traj.states.nbytes


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
            obstruction_probe(decoupled_spec, [100.0], T=50.0, picard_iters=3)

    def test_zero_component_edge_rejected(self, grid):
        spec = build_final_state(grid, [WINDOW_L], [])
        with pytest.raises(ValueError):
            obstruction_probe(spec, [100.0], T=50.0, picard_iters=3)

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
