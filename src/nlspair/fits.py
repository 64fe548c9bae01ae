"""Small fitting helpers shared by the analytics and the lemma oracles: the
one log-log slope fit, the one power-law tail and the one cumulative
trapezoid."""

from __future__ import annotations

import numpy as np


def loglog_slopes(ts, series):
    """Least-squares slopes of log(series) against log(ts) along the last axis.

    The one log-log fit: vectorised over leading axes for the per-frequency
    decay exponents and the power-law tails, and run on one series for the
    error decay of the scattering and obstruction reports (a 0-d result).
    Entries below 1e-300, zeros included, are clipped to it, so an
    underflowed series still gets a finite slope.
    """
    log_ts = np.log(np.asarray(ts, dtype=float))
    x = log_ts - log_ts.mean()
    safe = np.clip(series, 1e-300, None)
    return (np.log(safe) * x).sum(axis=-1) / (x * x).sum()


def power_tail(f_T, T, k):
    """``integral_T^inf f(t) dt = f(T) T / (k - 1)`` of the power law
    ``f(t) = f(T) (t/T)^-k``, which converges for ``k > 1``; elementwise
    over arrays of ``f(T)`` and ``k``."""
    return f_T * T / (k - 1.0)


class RunningTrapezoid:
    """The running trapezoid integral over the times ``ts``, fed one integrand
    row at a time: the one cumulative rule of the package.

    ``add(f)`` takes the integrand at the next time and returns the integral
    from ``ts[0]`` to that time as a new array, zeros at ``ts[0]``;
    ``total`` is the latest one.  Each step is ``total + (upper + lower) *
    0.5 * dt``, in that order, with ``lower`` the previous row, held by
    reference.  The integral from the end, ``integral_{t_i}^{t_end}``, is
    this rule fed the rows from the last one back, at the negated times
    ``-ts[::-1]``.
    """

    def __init__(self, ts):
        self._dt = iter(np.diff(np.asarray(ts, dtype=float)))
        self._lower = self.total = None

    def add(self, f):
        if self._lower is None:
            total = np.zeros_like(f)
        else:
            seg = np.add(f, self._lower)
            seg *= 0.5
            seg *= next(self._dt)
            total = np.add(self.total, seg, out=seg)
        self._lower, self.total = f, total
        return total
