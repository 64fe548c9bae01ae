"""Small fitting helpers shared by the profile and scattering analytics: the
one log-log slope fit, the power-law tail built on it and the one trapezoid
recurrence."""

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


def power_tail(ts, series):
    """``integral_T^inf series(t) dt`` from a power law fitted on ``ts``.

    Fits ``series ~ c t^p`` along the last axis (``T = ts[-1]``) and returns
    ``(tail, ok)`` with ``tail = series[..., -1] T / -(p+1)``.  The integral
    converges only for ``p < -1``; elsewhere ``ok`` is False and ``tail`` is
    NaN, and the caller picks its own fallback.
    """
    ts = np.asarray(ts, dtype=float)
    p = loglog_slopes(ts, series)
    ok = p < -1.0
    last = np.asarray(series)[..., -1] * ts[-1]
    return np.where(ok, last / np.where(ok, -(p + 1.0), 1.0), np.nan), ok


def trapezoid_step(total, lower, upper, dt, out=None):
    """``total + (upper + lower) * 0.5 * dt``: a running trapezoid integral
    carried over one more interval of length ``dt``, from the integrand
    ``lower`` at its start to ``upper`` at its end; into ``out``, a buffer
    that is none of the three, or a new array.

    The one recurrence of the cumulative trapezoid: :func:`cumtrapz_rows`
    runs it over a stack, and ``profiles.profile_history`` over the rows of
    the balance-law integrand as its pass yields them, so both give the same
    bits.
    """
    seg = np.add(upper, lower, out=out)
    seg *= 0.5
    seg *= dt
    return np.add(total, seg, out=seg)


def cumtrapz_rows(ts, vals):
    """``I(t_i) = integral_{t_0}^{t_i} vals dt`` by trapezoid along the first
    axis, in place: row ``i`` of ``vals`` becomes the integral up to ``t_i``;
    returns ``vals``.

    :func:`trapezoid_step` over contiguous rows, adding the trapezoids in
    the order of the cumulative sum, so the result is bitwise equal to it.
    The integral from the end, ``integral_{t_i}^{t_end}``, is this rule on
    the reversed rows at the negated times: ``cumtrapz_rows(-ts[::-1],
    vals[::-1])``, which fills ``vals`` in place through the reversed view.
    A 1-D series goes in as one-column rows, ``vals[:, None]``.
    """
    dt = np.diff(np.asarray(ts, dtype=float))
    lower = vals[0].copy()          # the integrand at t_{i-1}
    upper = np.empty_like(lower)    # and at t_i, before row i is overwritten
    vals[0] = 0.0
    for i in range(1, len(dt) + 1):
        upper[...] = vals[i]
        trapezoid_step(vals[i - 1], lower, upper, dt[i - 1], out=vals[i])
        lower, upper = upper, lower
    return vals
