import numpy as np
import pytest

from nlspair.fits import RunningTrapezoid, loglog_slopes, power_tail
from nlspair.profiles import _beta_plus_arrays

from conftest import cumtrapz_from_end, cumtrapz_from_start


class TestPowerLawFits:
    ts = np.geomspace(50.0, 5000.0, 8)
    c = np.array([1.5, 0.2])[:, None, None]          # batch axis 0
    p = np.array([-2.5, -1.2, -0.5, 0.3])[:, None]   # batch axis 1
    series = c * ts ** p                              # (2, 4, 8)

    def test_slopes_of_exact_power_laws(self):
        slopes = loglog_slopes(self.ts, self.series)
        assert slopes.shape == (2, 4)
        assert np.allclose(slopes, np.broadcast_to(self.p[:, 0], (2, 4)), rtol=0, atol=1e-12)

    def test_underflow_is_clipped_not_nan(self):
        assert loglog_slopes(self.ts, np.zeros(8)) == pytest.approx(0.0, abs=1e-12)

    @staticmethod
    def survivor_tail(ts, r):
        """The survivor's error bar on a remainder series ``r`` with no
        imbalance discrepancy: the fitted tail of ``|r|`` beyond T alone."""
        ones = np.ones(r.shape[:-1])
        return _beta_plus_arrays(ts, ones + 0j, ones, ones, r)[1]

    def test_tail_closed_form(self):
        # integral_T^inf c t^p dt = c T^(p+1) / -(p+1) where p < -1, with the
        # exponent given and with the one the survivor's error bar fits
        q = self.p[:, 0] + 1.0
        T = self.ts[-1]
        exact = np.broadcast_to(self.c[:, :, 0] * T ** q / -q, (2, 4))
        ok = np.broadcast_to(q < 0, (2, 4))
        given = power_tail(self.series[..., -1], T, -self.p[:, 0])
        assert np.allclose(given[ok], exact[ok], rtol=1e-12, atol=0)
        tail = self.survivor_tail(self.ts, self.series)
        assert np.allclose(tail[ok], exact[ok], rtol=1e-10, atol=0)
        # elsewhere the error bar falls back to |R(T)| T
        assert np.array_equal(tail[~ok], (self.series[..., -1] * T)[~ok])

    def test_no_tail_when_not_integrable(self):
        # p > -1: slowly decaying, flat and growing series; the error bar
        # falls back to |R(T)| T
        p = np.array([-0.9, -0.5, 0.0, 0.3])[:, None]
        series = 1.5 * self.ts ** p
        tail = self.survivor_tail(self.ts, series)
        assert np.array_equal(tail, series[..., -1] * self.ts[-1])


@pytest.mark.parametrize("n_t, from_end", [(1, False), (2, False), (37, False), (1, True),
                                           (2, True), (37, True)],
                         ids=["1", "2", "37", "1-from_end", "2-from_end", "37-from_end"])
def test_cumtrapz_rows_is_the_cumulative_sum(n_t, from_end):
    # RunningTrapezoid fed real (N,) rows and complex (2, N) rows, one at a
    # time; from the end: the reversed rows at the negated times
    rng = np.random.default_rng(n_t)
    ts = np.cumsum(rng.uniform(0.1, 3.0, n_t))
    for vals in (rng.normal(size=(n_t, 64)),
                 rng.normal(size=(n_t, 2, 64)) + 1j * rng.normal(size=(n_t, 2, 64))):
        rows = np.moveaxis(vals, 0, -1)      # the references run along the last axis
        if from_end:
            expected = np.moveaxis(cumtrapz_from_end(ts, rows), -1, 0)
            run, order = RunningTrapezoid(-ts[::-1]), range(n_t - 1, -1, -1)
        else:
            expected = np.moveaxis(cumtrapz_from_start(ts, rows), -1, 0)
            run, order = RunningTrapezoid(ts), range(n_t)
        before = vals.copy()
        for i in order:
            out = run.add(vals[i])
            assert out is run.total and out.dtype == vals.dtype
            assert not np.shares_memory(out, vals)
            assert np.array_equal(out, expected[i])
        assert np.array_equal(vals, before)  # the rows are read, not written
