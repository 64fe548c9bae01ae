import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import nlspair as nl
from nlspair.dynamics import SolverConfig, run
from nlspair.errors import ConfigError, NumericsError
from nlspair.harness import _sobolev, data_size_report
from nlspair.scattering import _w_sharp_arrays, build_final_state
from nlspair.spectral import (
    _forward_array,
    _free_multiplier_fft,
    _inverse_array,
    _j_spectrum,
    _profile_multiplier,
    _pull_back,
    _push_forward,
)

from conftest import bandlimited_field, free_flow, gaussian_field, l2, rel_l2


def spectral_l2(grid, spec):
    """dxi-weighted L2 norms along the last axis of spectra."""
    return np.sqrt(grid.dxi * np.sum(np.abs(spec) ** 2, axis=-1))


class TestGrid:
    def test_integer_frequencies_on_2pi(self):
        g = nl.Grid(8, 2 * math.pi)
        assert np.allclose(g.xi, np.arange(-4, 4), atol=1e-15)
        assert np.allclose(g.x[0], -math.pi)
        assert np.all(np.diff(g.x) > 0) and np.all(np.diff(g.xi) > 0)

    def test_spacing(self):
        g = nl.Grid(1024, 400.0)
        assert g.dx == pytest.approx(0.390625, abs=0)

    @pytest.mark.parametrize("n,length", [(8, -1.0), (12, 10.0), (4, 10.0), (0, 1.0)])
    def test_bad_construction(self, n, length):
        with pytest.raises(ConfigError):
            nl.Grid(n, length)

    def test_nyquist_is_first_ordered_frequency(self):
        g = nl.Grid(16, 8.0)
        assert g.xi[0] == pytest.approx(-2 * math.pi / 8.0 * 8)


class TestTransforms:
    def test_zero_maps_to_zero(self, small_grid):
        assert np.all(_forward_array(small_grid, np.zeros(small_grid.n_points)) == 0)

    def test_gaussian_self_transform(self, transform_grid):
        g = transform_grid
        fh = _forward_array(g, gaussian_field(g))
        assert np.max(np.abs(fh - np.exp(-g.xi ** 2 / 2))) < 1e-10

    def test_round_trip_random(self, transform_grid, rng):
        f = bandlimited_field(transform_grid, rng)
        back = _inverse_array(transform_grid, _forward_array(transform_grid, f))
        assert rel_l2(transform_grid, back, f) < 1e-12

    def test_plancherel(self, transform_grid, rng):
        g = transform_grid
        f = bandlimited_field(g, rng)
        assert abs(spectral_l2(g, _forward_array(g, f)) - l2(g, f)) <= 1e-12 * l2(g, f)


seeds = st.integers(min_value=0, max_value=2 ** 32 - 1)
sizes = st.sampled_from([8, 16, 32, 64, 128, 256, 512, 1024])
times = st.floats(min_value=-1e4, max_value=1e4, allow_nan=False, allow_subnormal=False)


def _full_band_field(seed, n):
    # the whole band, Nyquist mode included; length n gives dx = 1
    grid = nl.Grid(n, float(n))
    return grid, bandlimited_field(grid, np.random.default_rng(seed), band_frac=1.0)


def _without_nyquist(grid, values):
    spec = _forward_array(grid, values)
    spec[0] = 0.0
    return _inverse_array(grid, spec)


class TestTransformProperties:
    @settings(deadline=None, max_examples=100)
    @given(seeds, sizes)
    def test_plancherel(self, seed, n):
        g, u = _full_band_field(seed, n)
        x_side = g.dx * np.sum(np.abs(u) ** 2)
        xi_side = g.dxi * np.sum(np.abs(_forward_array(g, u)) ** 2)
        assert xi_side == pytest.approx(x_side, rel=1e-13)

    @settings(deadline=None, max_examples=100)
    @given(seeds, sizes)
    def test_round_trip(self, seed, n):
        g, u = _full_band_field(seed, n)
        assert rel_l2(g, _inverse_array(g, _forward_array(g, u)), u) < 1e-13

    @settings(deadline=None, max_examples=100)
    @given(seeds, sizes, times)
    def test_push_forward_inverts_pull_back(self, seed, n, t):
        g, u = _full_band_field(seed, n)
        back = _push_forward(g, _pull_back(g, u, t), t)
        assert rel_l2(g, back, _without_nyquist(g, u)) < 1e-13

    @settings(deadline=None, max_examples=100)
    @given(seeds, sizes, times)
    def test_pull_back_is_pulled_back_transform(self, seed, n, t):
        g, u = _full_band_field(seed, n)
        alpha = _pull_back(g, u, t)
        # the transform of the free flow back to t = 0, on data without a Nyquist mode
        composed = _forward_array(g, free_flow(g, _without_nyquist(g, u), -t))
        assert rel_l2(g, alpha, composed) < 1e-13
        # and the analytic multiplier exp(+i t xi^2 / 2) on the ordered grid,
        # to the phase error of evaluating it on another copy of xi
        direct = np.exp(0.5j * t * g.xi ** 2) * _forward_array(g, u)
        direct[0] = 0.0
        tol = 1e-13 * max(1.0, abs(t) * float(np.max(g.xi ** 2)))
        assert rel_l2(g, alpha, direct) < tol

    @settings(deadline=None, max_examples=50)
    @given(seeds, sizes, st.lists(times, min_size=1, max_size=5))
    def test_rows_match_single_time_calls(self, seed, n, ts):
        g, _ = _full_band_field(seed, n)
        rng = np.random.default_rng(seed)
        rows = np.stack([bandlimited_field(g, rng, band_frac=1.0) for _ in ts])
        t_rows = np.array(ts)
        alphas = _pull_back(g, rows, t_rows)
        pushed = _push_forward(g, alphas, t_rows)
        # a table evaluated once by the caller gives the same transforms
        table = _profile_multiplier(g, t_rows)
        assert np.array_equal(_pull_back(g, rows, t_rows, table), alphas)
        assert np.array_equal(_push_forward(g, alphas, t_rows, table), pushed)
        for i, t in enumerate(ts):
            assert rel_l2(g, alphas[i], _pull_back(g, rows[i], t)) <= 1e-14
            assert rel_l2(g, pushed[i], _push_forward(g, alphas[i], t)) <= 1e-14

    def test_table_branch_gives_same_bytes(self):
        # spectra with both signs in each part, the Nyquist slot included,
        # where the multiplier's zero leaves a product of either sign
        g = nl.Grid(256, 60.0)
        rng = np.random.default_rng(3)
        shape = (6, 2, g.n_points)
        rows = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        t_rows = np.geomspace(0.5, 300.0, 6)[:, None]
        table = _profile_multiplier(g, t_rows)
        with_table = _pull_back(g, rows, t_rows, table)
        assert with_table.tobytes() == _pull_back(g, rows, t_rows).tobytes()
        assert with_table[..., 0].tobytes() == np.zeros((6, 2), dtype=complex).tobytes()


class TestFreePropagate:
    @pytest.mark.parametrize("n, length", [(8, 8.0), (256, 60.0), (4096, 12000.0)])
    @pytest.mark.parametrize("dt", [0.005, -0.25, 0.5, 7321.5])
    def test_mirrored_multiplier_is_direct_one(self, n, length, dt):
        # xi^2 is even: the mirrored half must equal the full evaluation bitwise
        g = nl.Grid(n, length)
        direct = np.exp(-0.5j * dt * g._xi_fft ** 2)
        direct[n // 2] = 0.0
        assert _free_multiplier_fft(g, dt).tobytes() == direct.tobytes()

    @pytest.mark.parametrize("n, length", [(8, 8.0), (256, 60.0), (4096, 12000.0)])
    def test_profile_multiplier_is_ordered_direct_one(self, n, length):
        # the ordered table is the direct evaluation times (-1)^k, bitwise
        g = nl.Grid(n, length)
        ts = np.array([0.005, -0.25, 7321.5])
        direct = np.exp(-0.5j * ts[:, None] * np.fft.fftshift(g._xi_fft) ** 2) * g._sign
        direct[:, 0] = 0.0
        assert _profile_multiplier(g, ts).tobytes() == direct.tobytes()

    def test_dt_zero_is_identity(self, small_grid):
        # a run without steps records its initial state unchanged
        v = np.stack([gaussian_field(small_grid, 0.3, 2.0),
                      gaussian_field(small_grid, 0.2, 3.0, velocity=0.4)])
        cfg = SolverConfig(n_points=small_grid.n_points, length=small_grid.length,
                           t_start=1.0, t_end=2.0, checkpoint_times=(1.0,))
        traj = run(cfg, v)
        assert traj.provenance["n_steps"] == 0
        assert np.array_equal(traj.states[0], v)

    def test_plane_wave_eigenmode(self):
        g = nl.Grid(64, 2 * math.pi)
        k = 5.0
        mode = np.exp(1j * k * g.x)
        tau = 0.37
        out = free_flow(g, mode, tau)
        expected = np.exp(-0.5j * k ** 2 * tau) * mode
        assert np.max(np.abs(out - expected)) < 1e-13

    def test_gaussian_closed_form(self, transform_grid):
        g = transform_grid
        out = free_flow(g, gaussian_field(g), 5.0)
        z = 1.0 + 5.0j
        exact = z ** -0.5 * np.exp(-g.x ** 2 / (2 * z))
        assert np.max(np.abs(out - exact)) < 1e-9
        # and the profile of the free solution is the initial spectrum
        alpha = _pull_back(g, out, 5.0)
        assert np.max(np.abs(alpha[1:] - _forward_array(g, gaussian_field(g))[1:])) < 1e-12

    def test_unitarity_and_group_law(self, transform_grid, rng):
        g = transform_grid
        f = bandlimited_field(g, rng)
        a = free_flow(g, free_flow(g, f, 0.7), 1.6)
        b = free_flow(g, f, 2.3)
        assert rel_l2(g, a, b) < 1e-12
        assert abs(l2(g, a) - l2(g, f)) <= 1e-12 * l2(g, f)

    def test_negative_dt_inverts(self, transform_grid, rng):
        f = bandlimited_field(transform_grid, rng)
        back = free_flow(transform_grid, free_flow(transform_grid, f, 3.0), -3.0)
        assert rel_l2(transform_grid, back, f) < 1e-12

    def test_nyquist_mode_zeroed(self):
        g = nl.Grid(16, 8.0)
        spec = np.zeros(16, dtype=complex)
        spec[0] = 1.0
        f = _inverse_array(g, spec)
        assert np.max(np.abs(free_flow(g, f, 0.1))) < 1e-14
        assert np.max(np.abs(_pull_back(g, f, 0.1))) < 1e-14


class TestOperatorAlgebra:
    def test_M_unimodular(self):
        # the leading wave M D F psi: M and D change the phase and scale only,
        # so |w#(t, x)| = t^(-1/2) |psi_hat(x / t)|
        g = nl.Grid(4096, 10000.0)
        spec = build_final_state(g, [{"kind": "window", "lo": -0.9, "hi": -0.3, "amp": 0.05}],
                                 [{"kind": "gauss", "center": 0.5, "sigma": 0.1, "amp": 0.04}])
        for t in (2.5, 100.0):
            w = _w_sharp_arrays(spec, t)
            assert np.allclose(np.abs(w), np.abs(spec.spectrum(g.x / t)) / math.sqrt(t),
                               rtol=1e-14, atol=0)

    def test_mdfm_factorisation(self):
        # U(t) = M D F M: the dilation maps the frequency grid exactly onto
        # the spatial grid when length^2 == 2 pi t N
        t, n = 4.0, 1024
        g = nl.Grid(n, math.sqrt(2 * math.pi * t * n))
        f = np.exp(-g.x ** 2 / 2) * np.exp(0.3j * g.x)
        chirp = np.exp(0.5j * g.x ** 2 / t)
        rhs = _forward_array(g, f * chirp) * (1.0 / np.sqrt(1j * t)) * chirp
        assert rel_l2(g, rhs, free_flow(g, f, t)) < 1e-8


class TestJOperator:
    """``_j_spectrum``, the ``J = U(t) x U(-t)`` of the remainder probe."""

    def test_t_zero_is_coordinate_multiplication(self, small_grid, rng):
        # at t = 0 the profile is F u, and J is multiplication by x
        g = small_grid
        f = bandlimited_field(g, rng)
        want = _forward_array(g, g.x * f)
        want[0] = 0.0
        got = _j_spectrum(g, _forward_array(g, f))
        assert rel_l2(g, got, want) < 1e-13

    def test_conserved_along_free_flow(self):
        # width 2.5 keeps the spectrum inside the resolved band of this box
        g = nl.Grid(16384, 10000.0)
        phi = gaussian_field(g, width=2.5)
        ref = l2(g, g.x * phi)
        for t in (0.5, 5.0, 50.0, 1000.0):
            w = free_flow(g, phi, t)
            jw = spectral_l2(g, _j_spectrum(g, _pull_back(g, w, t)))
            assert abs(jw - ref) <= 1e-10 * ref

    def test_dispersive_sup_bound(self):
        # ||phi||_inf * sqrt(t) / sqrt(||phi|| ||J phi||) stays below 2 along
        # a free Gaussian; the box must contain the ballistic spread
        g = nl.Grid(16384, 10000.0)
        phi = gaussian_field(g, width=2.5)
        for t in (1.0, 10.0, 100.0, 1000.0):
            w = free_flow(g, phi, t)
            jw = spectral_l2(g, _j_spectrum(g, _pull_back(g, w, t)))
            ratio = np.max(np.abs(w)) * t ** 0.5 / math.sqrt(l2(g, w) * jw)
            assert ratio <= 2.0

    def test_commutation_with_derivative(self, transform_grid):
        # [d/dx, J] = 1 in frequency form: i xi J(alpha) - J(i xi alpha) == alpha
        # away from Nyquist, on a localized packet (x needs boundary decay)
        g = transform_grid
        envelope = np.exp(-0.5 * (g.x / 3.0) ** 2)
        vals = envelope * (1.0 + 0.3 * np.exp(1.1j * g.x) + 0.2 * np.exp(-0.7j * g.x))
        alpha = _pull_back(g, vals, 1.7)
        lhs = 1j * g.xi * _j_spectrum(g, alpha) - _j_spectrum(g, 1j * g.xi * alpha)
        assert rel_l2(g, lhs[1:], alpha[1:]) < 1e-8


class TestNorms:
    """The data size of the manifest, :func:`harness.data_size_report`."""

    def test_zero_field(self, small_grid):
        rep = data_size_report(small_grid, np.zeros((2, small_grid.n_points), complex))
        assert rep == {"l2": 0.0, "h2": 0.0, "h1_1": 0.0}

    def test_unit_gaussian_l2(self, transform_grid):
        g = transform_grid
        rep = data_size_report(g, np.stack([gaussian_field(g), np.zeros(g.n_points)]))
        assert rep["l2"] ** 2 == pytest.approx(math.sqrt(math.pi), rel=1e-12)
        # a pair of them has twice the mass
        rep2 = data_size_report(g, np.stack([gaussian_field(g)] * 2))
        assert rep2["l2"] ** 2 == pytest.approx(2.0 * math.sqrt(math.pi), rel=1e-12)

    def test_h0_equals_l2(self, small_grid, rng):
        v = np.stack([bandlimited_field(small_grid, rng) for _ in range(2)])
        assert np.allclose(_sobolev(small_grid, v, 0.0), l2(small_grid, v), rtol=1e-12, atol=0)


class TestFieldValidation:
    """A state is a ``(2, N)`` array: ``run`` checks it, the trajectory freezes it."""

    def test_length_mismatch(self, small_grid):
        cfg = SolverConfig(n_points=small_grid.n_points, length=small_grid.length,
                           t_end=1.0, checkpoint_times=(0.0, 1.0))
        for shape in ((2, small_grid.n_points + 1), (small_grid.n_points,),
                      (3, small_grid.n_points)):
            with pytest.raises(ConfigError, match="shape"):
                run(cfg, np.zeros(shape, complex))

    def test_nonfinite_rejected(self, small_grid):
        # a non-finite sample, or finite samples whose mass overflows
        cfg = SolverConfig(n_points=small_grid.n_points, length=small_grid.length,
                           t_end=1.0, checkpoint_times=(0.0, 1.0))
        nan = np.zeros((2, small_grid.n_points), dtype=complex)
        nan[1, 3] = np.nan
        huge = np.stack([gaussian_field(small_grid, 1e200, 2.0), np.zeros(small_grid.n_points)])
        for v, what in ((nan, "non-finite values"), (huge, "non-finite mass")):
            with pytest.raises(NumericsError, match=f"{what} at t = 0$"), \
                    np.errstate(over="ignore"):
                run(cfg, v)

    def test_values_frozen(self, small_grid):
        cfg = SolverConfig(n_points=small_grid.n_points, length=small_grid.length,
                           t_end=1.0, checkpoint_times=(0.0, 1.0))
        traj = run(cfg, np.zeros((2, small_grid.n_points), complex))
        for arr in (traj.ts, traj.states, traj.ledger, traj.checkpoints[0].pair.u1.values):
            with pytest.raises(ValueError):
                arr[0] = 1.0
