import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import nlspair as nl
from nlspair.errors import ConfigError
from nlspair.spectral import (
    _forward_array,
    _free_multiplier_fft,
    _free_step_array,
    _inverse_array,
    _profile_multiplier,
    _pull_back,
    _push_forward,
    l2_norm,
    sobolev_norm,
)

from conftest import bandlimited_field, gaussian_field, rel_l2


class TestGrid:
    def test_integer_frequencies_on_2pi(self):
        g = nl.make_grid(8, 2 * math.pi)
        assert np.allclose(g.xi, np.arange(-4, 4), atol=1e-15)
        assert np.allclose(g.x[0], -math.pi)
        assert np.all(np.diff(g.x) > 0) and np.all(np.diff(g.xi) > 0)

    def test_spacing(self):
        g = nl.make_grid(1024, 400.0)
        assert g.dx == pytest.approx(0.390625, abs=0)

    @pytest.mark.parametrize("n,length", [(8, -1.0), (12, 10.0), (4, 10.0), (0, 1.0)])
    def test_bad_construction(self, n, length):
        with pytest.raises(ConfigError):
            nl.make_grid(n, length)

    def test_nyquist_is_first_ordered_frequency(self):
        g = nl.make_grid(16, 8.0)
        assert g.xi[0] == pytest.approx(-2 * math.pi / 8.0 * 8)


class TestTransforms:
    def test_zero_maps_to_zero(self, small_grid):
        f = nl.ComplexField(small_grid, np.zeros(small_grid.n_points), 0.0)
        assert np.all(nl.forward_transform(f).values == 0)

    def test_gaussian_self_transform(self, transform_grid):
        g = transform_grid
        f = gaussian_field(g)
        fh = nl.forward_transform(f)
        assert np.max(np.abs(fh.values - np.exp(-g.xi ** 2 / 2))) < 1e-10

    def test_round_trip_random(self, transform_grid, rng):
        f = bandlimited_field(transform_grid, rng)
        back = nl.inverse_transform(nl.forward_transform(f))
        assert rel_l2(transform_grid, back.values, f.values) < 1e-12

    def test_plancherel(self, transform_grid, rng):
        f = bandlimited_field(transform_grid, rng)
        fh = nl.forward_transform(f)
        assert abs(l2_norm(fh) - l2_norm(f)) <= 1e-12 * l2_norm(f)

    def test_wrong_domain_rejected(self, small_grid):
        f = nl.ComplexField(small_grid, np.ones(small_grid.n_points), 0.0, domain="xi")
        with pytest.raises(ValueError):
            nl.forward_transform(f)


seeds = st.integers(min_value=0, max_value=2 ** 32 - 1)
sizes = st.sampled_from([8, 16, 32, 64, 128, 256, 512, 1024])
times = st.floats(min_value=-1e4, max_value=1e4, allow_nan=False, allow_subnormal=False)


def _full_band_field(seed, n):
    # the whole band, Nyquist mode included; length n gives dx = 1
    grid = nl.make_grid(n, float(n))
    return grid, bandlimited_field(grid, np.random.default_rng(seed), band_frac=1.0).values


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
        # the old composition keeps the Nyquist mode at t = 0 only
        old = _forward_array(g, _free_step_array(g, _without_nyquist(g, u), -t))
        assert rel_l2(g, alpha, old) < 1e-13
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
        rows = np.stack([bandlimited_field(g, rng, band_frac=1.0).values for _ in ts])
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


class TestFreePropagate:
    @pytest.mark.parametrize("n, length", [(8, 8.0), (256, 60.0), (4096, 12000.0)])
    @pytest.mark.parametrize("dt", [0.005, -0.25, 0.5, 7321.5])
    def test_mirrored_multiplier_is_direct_one(self, n, length, dt):
        # xi^2 is even: the mirrored half must equal the full evaluation bitwise
        g = nl.make_grid(n, length)
        direct = np.exp(-0.5j * dt * g._xi_fft ** 2)
        direct[n // 2] = 0.0
        assert _free_multiplier_fft(g, dt).tobytes() == direct.tobytes()

    @pytest.mark.parametrize("n, length", [(8, 8.0), (256, 60.0), (4096, 12000.0)])
    def test_profile_multiplier_is_ordered_direct_one(self, n, length):
        # the ordered table is the direct evaluation times (-1)^k, bitwise
        g = nl.make_grid(n, length)
        ts = np.array([0.005, -0.25, 7321.5])
        direct = np.exp(-0.5j * ts[:, None] * np.fft.fftshift(g._xi_fft) ** 2) * g._sign
        direct[:, 0] = 0.0
        assert _profile_multiplier(g, ts).tobytes() == direct.tobytes()

    def test_dt_zero_is_identity(self, small_grid, rng):
        f = bandlimited_field(small_grid, rng)
        out = nl.free_propagate(f, 0.0)
        assert np.array_equal(out.values, f.values)

    def test_plane_wave_eigenmode(self):
        g = nl.make_grid(64, 2 * math.pi)
        k = 5.0
        mode = nl.ComplexField(g, np.exp(1j * k * g.x), 0.0)
        tau = 0.37
        out = nl.free_propagate(mode, tau)
        expected = np.exp(-0.5j * k ** 2 * tau) * mode.values
        assert np.max(np.abs(out.values - expected)) < 1e-13

    def test_gaussian_closed_form(self, transform_grid):
        g = transform_grid
        f = gaussian_field(g)
        out = nl.free_propagate(f, 5.0)
        z = 1.0 + 5.0j
        exact = z ** -0.5 * np.exp(-g.x ** 2 / (2 * z))
        assert np.max(np.abs(out.values - exact)) < 1e-9
        assert out.time == pytest.approx(5.0)

    def test_unitarity_and_group_law(self, transform_grid, rng):
        f = bandlimited_field(transform_grid, rng)
        a = nl.free_propagate(nl.free_propagate(f, 0.7), 1.6)
        b = nl.free_propagate(f, 2.3)
        assert rel_l2(transform_grid, a.values, b.values) < 1e-12
        assert abs(l2_norm(a) - l2_norm(f)) <= 1e-12 * l2_norm(f)

    def test_negative_dt_inverts(self, transform_grid, rng):
        f = bandlimited_field(transform_grid, rng)
        back = nl.free_propagate(nl.free_propagate(f, 3.0), -3.0)
        assert rel_l2(transform_grid, back.values, f.values) < 1e-12

    def test_nyquist_mode_zeroed(self):
        g = nl.make_grid(16, 8.0)
        spec = np.zeros(16, dtype=complex)
        spec[0] = 1.0
        f = nl.inverse_transform(nl.ComplexField(g, spec, 0.0, domain="xi"))
        out = nl.free_propagate(f, 0.1)
        assert np.max(np.abs(out.values)) < 1e-14


class TestOperatorAlgebra:
    def test_M_unimodular(self, small_grid, rng):
        f = bandlimited_field(small_grid, rng)
        out = nl.apply_M(f, 2.5)
        assert np.allclose(np.abs(out.values), np.abs(f.values), atol=1e-14)

    @pytest.mark.parametrize("op", [nl.apply_M, nl.apply_D])
    def test_t_zero_rejected(self, small_grid, op):
        domain = "x" if op is nl.apply_M else "xi"
        f = nl.ComplexField(small_grid, np.ones(small_grid.n_points), 0.0, domain=domain)
        with pytest.raises(ValueError):
            op(f, 0.0)

    def test_D_requires_matched_grid(self, small_grid):
        f = nl.ComplexField(small_grid, np.ones(small_grid.n_points), 0.0, domain="xi")
        with pytest.raises(ValueError, match="dilation"):
            nl.apply_D(f, 3.0)

    def test_mdfm_factorisation(self):
        # the dilation maps the frequency grid exactly onto the spatial grid
        # when length^2 == 2 pi t N
        t, n = 4.0, 1024
        g = nl.make_grid(n, math.sqrt(2 * math.pi * t * n))
        f = nl.ComplexField(g, np.exp(-g.x ** 2 / 2) * np.exp(0.3j * g.x), 0.0)
        lhs = nl.free_propagate(f, t)
        rhs = nl.apply_M(nl.apply_D(nl.forward_transform(nl.apply_M(f, t)), t), t)
        assert rel_l2(g, rhs.values, lhs.values) < 1e-8


class TestJOperator:
    def test_t_zero_is_coordinate_multiplication(self, small_grid, rng):
        f = bandlimited_field(small_grid, rng)
        out = nl.apply_J(f, 0.0)
        assert np.array_equal(out.values, small_grid.x * f.values)

    def test_conserved_along_free_flow(self):
        # width 2.5 keeps the spectrum inside the resolved band of this box
        g = nl.make_grid(16384, 10000.0)
        phi = gaussian_field(g, width=2.5)
        ref = l2_norm(nl.ComplexField(g, g.x * phi.values, 0.0))
        for t in (0.5, 5.0, 50.0, 1000.0):
            w = nl.free_propagate(phi, t)
            jw = nl.apply_J(w, t)
            assert abs(l2_norm(jw) - ref) <= 1e-10 * ref

    def test_dispersive_sup_bound(self):
        # ||phi||_inf * sqrt(t) / sqrt(||phi|| ||J phi||) stays below 2 along
        # a free Gaussian; the box must contain the ballistic spread
        g = nl.make_grid(16384, 10000.0)
        phi = gaussian_field(g, width=2.5)
        for t in (1.0, 10.0, 100.0, 1000.0):
            w = nl.free_propagate(phi, t)
            jw = nl.apply_J(w, t)
            ratio = np.max(np.abs(w.values)) * t ** 0.5 / math.sqrt(l2_norm(w) * l2_norm(jw))
            assert ratio <= 2.0

    def test_commutation_with_derivative(self, transform_grid):
        # localized packet: x-multiplication needs boundary decay
        g = transform_grid
        envelope = np.exp(-0.5 * (g.x / 3.0) ** 2)
        vals = envelope * (1.0 + 0.3 * np.exp(1.1j * g.x) + 0.2 * np.exp(-0.7j * g.x))
        f = nl.ComplexField(g, vals, 0.0)
        t = 1.7

        def ddx(field):
            spec = nl.forward_transform(field)
            vals = 1j * g.xi * spec.values
            vals[0] = 0.0
            return nl.inverse_transform(nl.ComplexField(g, vals, field.time, domain="xi"))

        lhs = ddx(nl.apply_J(f, t)).values - nl.apply_J(ddx(f), t).values
        assert rel_l2(g, lhs, f.values) < 1e-8


class TestNorms:
    def test_zero_field(self, small_grid):
        rep = nl.norms(nl.ComplexField(small_grid, np.zeros(small_grid.n_points), 0.0))
        assert rep.l2 == rep.linf == rep.h1 == rep.h2 == rep.h1_1 == 0.0

    def test_unit_gaussian_l2(self, transform_grid):
        rep = nl.norms(gaussian_field(transform_grid))
        assert rep.l2 ** 2 == pytest.approx(math.sqrt(math.pi), rel=1e-12)

    def test_h0_equals_l2(self, small_grid, rng):
        f = bandlimited_field(small_grid, rng)
        assert sobolev_norm(f, 0.0) == pytest.approx(l2_norm(f), rel=1e-12)


class TestFieldValidation:
    def test_length_mismatch(self, small_grid):
        with pytest.raises(ValueError):
            nl.ComplexField(small_grid, np.zeros(small_grid.n_points + 1), 0.0)

    def test_nonfinite_rejected(self, small_grid):
        vals = np.zeros(small_grid.n_points, dtype=complex)
        vals[3] = np.nan
        with pytest.raises(ValueError):
            nl.ComplexField(small_grid, vals, 0.0)

    def test_pair_time_mismatch(self, small_grid):
        a = nl.ComplexField(small_grid, np.zeros(small_grid.n_points), 0.0)
        b = nl.ComplexField(small_grid, np.zeros(small_grid.n_points), 1.0)
        with pytest.raises(ValueError):
            nl.FieldPair(a, b)

    def test_values_frozen(self, small_grid):
        f = nl.ComplexField(small_grid, np.zeros(small_grid.n_points), 0.0)
        with pytest.raises(ValueError):
            f.values[0] = 1.0
