"""Reduced per-frequency dynamics and certified decay/limit oracles.

In log-time ``s = log t`` the leading profile system at a single frequency,

    d a1/ds = -|a2|^2 a1,    d a2/ds = -|a1|^2 a2,

is the same pointwise flow solved exactly by the splitting substep, so one
closed form serves both modules: squared moduli follow the logistic law with
``|a1|^2 - |a2|^2`` conserved and phases frozen.

Two supporting oracles certify the inequalities the long-time argument rests
on: a log-decay certificate for scalar comparison ODEs
``Phi' <= -(C0/t) |Phi|^p + C1 / t^q``, and a limit/error-bound check for
linear ODEs ``y' = lambda(t) y + Q(t)`` with integrable coefficients.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import fits
from .dynamics import _decay_scales


def reduced_flow_profiles(alpha: np.ndarray, t: float, t_target: float) -> np.ndarray:
    """Exact forward flow of the reduced system from t to t_target, applied to
    a ``(2, ...)`` profile pair: one frequency's ``(2,)`` or a spectrum's
    ``(2, N)``.

    Conserves ``|a1|^2 - |a2|^2`` to roundoff, never increases either
    modulus, and satisfies the semigroup property.  Backward targets are
    rejected.
    """
    if t_target < t:
        raise ValueError("reduced flow is forward-only")
    a, b = np.abs(np.reshape(alpha, (2, -1))) ** 2
    return alpha * np.reshape(_decay_scales(a, b, math.log(t_target / t)), np.shape(alpha))


# ---------------------------------------------------------------------------
# log-decay certificate
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class LemmaMParams:
    """Parameters of the comparison ODE ``Phi' <= -(C0/t)|Phi|^p + C1/t^q``.

    ``p_star`` is the Holder conjugate of p.  ``c2`` is the explicit
    constant in the certified bound ``Phi(t) <= c2 / (log t)^(p_star - 1)``:

        c2 = (1/log 2) [ (log t0)^{p*} Phi(t0)
                         + C1 * int_2^inf (log tau)^{p*} tau^{-q} dtau ]
             + (p* / (C0 p))^{p* - 1}
    """

    c0: float
    c1: float
    p: float
    q: float
    t0: float
    phi0: float
    p_star: float = field(init=False)

    def __post_init__(self) -> None:
        if not (self.c0 > 0 and self.c1 >= 0 and self.p > 1 and self.q > 1 and self.t0 >= 2):
            raise ValueError("need C0 > 0, C1 >= 0, p > 1, q > 1, t0 >= 2")
        object.__setattr__(self, "p_star", self.p / (self.p - 1.0))

    def c2(self) -> float:
        from scipy import integrate     # scipy loads only where a lemma oracle runs
        ps = self.p_star
        # integrate in log-time, where the tail decays exponentially
        tail, err = integrate.quad(
            lambda u: u ** ps * math.exp(u * (1.0 - self.q)), math.log(2.0), math.inf
        )
        if err > 1e-7 * max(1.0, abs(tail)):
            raise RuntimeError(f"tail quadrature did not converge (err {err:.2e})")
        return (
            (math.log(self.t0) ** ps * self.phi0 + self.c1 * tail) / math.log(2.0)
            + (ps / (self.c0 * self.p)) ** (ps - 1.0)
        )


@dataclass(frozen=True)
class LemmaCertificate:
    params: LemmaMParams
    c2: float
    worst_margin: float
    passed: bool
    n_samples: int


def lemma_m_certificate(params: LemmaMParams, ts, phis) -> LemmaCertificate:
    """Check ``Phi(t) <= c2 / (log t)^(p_star-1)`` at every sample.

    The supplied trajectory must actually satisfy the differential
    inequality; a finite-difference violation beyond a 10% discretisation
    slack is an input error, not a failed certificate.
    """
    ts = np.asarray(ts, dtype=float)
    phis = np.asarray(phis, dtype=float)
    if ts.ndim != 1 or ts.shape != phis.shape or len(ts) < 3:
        raise ValueError("need matching 1-d sample arrays with >= 3 points")
    if ts[0] < params.t0 - 1e-9 or np.any(np.diff(ts) <= 0):
        raise ValueError("samples must increase and start at t0 or later")

    # hypothesis sanity check by centred differences
    dphi = np.diff(phis) / np.diff(ts)
    t_mid = np.sqrt(ts[:-1] * ts[1:])
    phi_mid = 0.5 * (phis[:-1] + phis[1:])
    rhs = -params.c0 / t_mid * np.abs(phi_mid) ** params.p + params.c1 / t_mid ** params.q
    slack = 0.1 * (np.abs(dphi) + np.abs(rhs)) + 1e-12
    if np.any(dphi > rhs + slack):
        k = int(np.argmax(dphi - rhs - slack))
        raise ValueError(
            f"trajectory violates the decay hypothesis near t = {t_mid[k]:.4g}"
        )

    c2 = params.c2()
    bound = c2 / np.log(ts) ** (params.p_star - 1.0)
    margins = (bound - phis) / np.maximum(np.abs(bound), 1e-300)
    worst = float(np.min(margins))
    return LemmaCertificate(
        params=params, c2=c2, worst_margin=worst,
        passed=bool(worst >= -1e-9), n_samples=len(ts),
    )


def equality_phi_trajectory(params: LemmaMParams, t_end: float = 1e6,
                            n_samples: int = 240):
    """Integrate the equality ODE ``Phi' = -(C0/t)|Phi|^p + C1/t^q`` accurately.

    Solved in log-time with tight tolerances; returns log-uniform samples.
    The equality trajectory is the extremal input for the certificate.
    """
    from scipy import integrate
    s0, s1 = math.log(params.t0), math.log(t_end)
    s_eval = np.linspace(s0, s1, n_samples)

    def rhs(s, y):
        t = math.exp(s)
        return [-params.c0 * abs(y[0]) ** params.p + params.c1 * t ** (1.0 - params.q)]

    sol = integrate.solve_ivp(rhs, (s0, s1), [params.phi0], t_eval=s_eval,
                              rtol=1e-11, atol=1e-13, method="RK45")
    if not sol.success:
        raise RuntimeError(f"ODE integration failed: {sol.message}")
    return np.exp(sol.t), sol.y[0]


def default_lemma_m_sweep():
    """Synthetic (params, ts, phis) triples covering the exponent grid."""
    cases = []
    for p in (1.5, 2.0, 3.0):
        for q in (1.5, 2.0):
            for c0 in (0.5, 2.0):
                for c1 in (0.0, 0.3):
                    for phi0 in (0.5, 2.0):
                        params = LemmaMParams(c0=c0, c1=c1, p=p, q=q, t0=2.0, phi0=phi0)
                        ts, phis = equality_phi_trajectory(params)
                        cases.append((params, ts, phis))
    return cases


# ---------------------------------------------------------------------------
# linear-ODE limit oracle
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class LinearODERecord:
    """Sampled coefficients of ``y' = lambda(t) y + Q(t)`` with declared tails.

    Samples cover [ts[0], T]; beyond T each coefficient is taken to follow
    the declared power law ``f(t) = f(T) (t/T)^(-tail_pow)`` with
    tail_pow > 1, which keeps every integral to infinity finite and explicit.
    ``y0`` is the solution at ``ts[0]``.
    """

    ts: np.ndarray
    lam: np.ndarray
    q: np.ndarray
    y0: complex
    lam_tail_pow: float
    q_tail_pow: float

    def __post_init__(self) -> None:
        ts = np.asarray(self.ts, dtype=float)
        lam = np.asarray(self.lam, dtype=complex)
        qq = np.asarray(self.q, dtype=complex)
        if ts.ndim != 1 or len(ts) < 3 or np.any(np.diff(ts) <= 0):
            raise ValueError("need increasing sample times")
        if not (self.lam_tail_pow > 1.0 and self.q_tail_pow > 1.0):
            raise ValueError("declared tails must decay faster than 1/t to be integrable")
        for name, val in (("ts", ts), ("lam", lam), ("q", qq)):
            val.flags.writeable = False
            object.__setattr__(self, name, val)


@dataclass(frozen=True)
class LinearLimitReport:
    y_plus: complex
    c3: float
    worst_margin: float
    passed: bool


def linear_ode_limit(record: LinearODERecord, ys) -> LinearLimitReport:
    """Compute the limit y+ and check ``|y - y+| <= C3 int (|y+||lam| + |Q|)``.

    ``ys`` must sample the solution at ``record.ts``.  Every integral to
    infinity is a trapezoid in log-time (``int f dt = int f t d(log t)``,
    accurate on log-spaced samples) plus the declared tail
    ``f(T) T / (tail_pow - 1)``.  The limit is
    ``y+ = y0 e^{I(t0)} + int Q e^I`` with ``I(t) = int_t^inf lambda`` and
    ``t0 = ts[0]``, and ``C3 = exp(int_{t0}^inf |lambda|)``.  The bound is strict for the exact
    solution; the computed limit, however, carries the quadrature error of
    the sampled coefficients, so the check floors the bound at a Richardson
    estimate of that error (the full-resolution trapezoid against the
    half-resolution one) plus a roundoff margin.
    """
    ys = np.asarray(ys, dtype=complex)
    ts = record.ts
    if ys.shape != ts.shape:
        raise ValueError("solution samples must match the record's time grid")
    s = np.log(ts)
    lam, q = record.lam, record.q

    def richardson(vals):
        full = np.trapezoid(vals * ts, s)
        half = np.trapezoid((vals * ts)[::2], s[::2])
        return abs(full - half) / 3.0

    # int_{t_i}^T of lambda, |lambda| and |Q| in one pass, as the columns of
    # one complex array; the real ones keep their real arithmetic exactly
    abs_lam, abs_q = np.abs(lam), np.abs(q)
    cols = np.stack([lam, abs_lam, abs_q], axis=-1) * ts[:, None]
    to_T = fits.RunningTrapezoid(-s[::-1])
    lam_to_T, abs_lam_to_T, abs_q_to_T = np.array([to_T.add(c) for c in cols[::-1]])[::-1].T
    T = ts[-1]
    lam_from = lam_to_T + fits.power_tail(lam[-1], T, record.lam_tail_pow)
    abs_lam_from = abs_lam_to_T.real + fits.power_tail(abs_lam[-1], T, record.lam_tail_pow)
    abs_q_from = abs_q_to_T.real + fits.power_tail(abs_q[-1], T, record.q_tail_pow)

    # the declared tail of the source term is added without its exponent
    # factor, which is within exp(tail of |lambda|) of 1 there
    yp = record.y0 * np.exp(lam_from[0])
    yp += np.trapezoid(q * np.exp(lam_from) * ts, s)
    yp = complex(yp + fits.power_tail(q[-1], T, record.q_tail_pow))
    c3 = float(np.exp(abs_lam_from[0]))
    uncertainty = float(abs(record.y0) * math.exp(float(abs_lam_to_T[0].real))
                        * richardson(lam) + richardson(q))

    rhs = c3 * (abs(yp) * abs_lam_from + abs_q_from)
    lhs = np.abs(ys - yp)
    # factor 4 guards the non-asymptotic part of the Richardson estimate
    floor = 4.0 * uncertainty + 1e-10 * (abs(yp) + float(np.max(np.abs(ys))))
    scale = np.maximum(rhs, floor)
    worst = float(np.min((rhs + floor - lhs) / scale))
    return LinearLimitReport(y_plus=yp, c3=c3, worst_margin=worst,
                             passed=bool(worst >= -1e-6))


def solve_linear_record(record: LinearODERecord, lam_fn, q_fn) -> np.ndarray:
    """Integrate y' = lam y + Q through the sample grid with tight tolerances.

    ``lam_fn`` and ``q_fn`` are the analytic coefficients that the record
    samples, ``t -> lambda(t)`` and ``t -> Q(t)``; they keep the solve at
    solver precision, which interpolated samples would cap at the sampling
    density.
    """
    from scipy import integrate
    ts = record.ts

    def rhs(t, y):
        z = lam_fn(t) * (y[0] + 1j * y[1]) + q_fn(t)
        return [z.real, z.imag]

    sol = integrate.solve_ivp(rhs, (ts[0], ts[-1]), [record.y0.real, record.y0.imag],
                              t_eval=ts, rtol=1e-11, atol=1e-13)
    if not sol.success:
        raise RuntimeError(f"ODE integration failed: {sol.message}")
    return sol.y[0] + 1j * sol.y[1]


def default_linear_ode_sweep():
    """Synthetic (record, lam_fn, q_fn) triples with closed-form-checkable structure."""
    cases = []
    ts = np.geomspace(2.0, 1e6, 1200)
    zero = np.zeros_like(ts)
    zero_fn = lambda t: 0.0j
    # pure decay at several rates, no source
    for c in (0.3, 1.0):
        for pw in (1.5, 2.0, 3.0):
            rec = LinearODERecord(ts=ts, lam=-c * ts ** (-pw), q=zero,
                                  y0=1.0 + 0.0j, lam_tail_pow=pw, q_tail_pow=2.0)
            cases.append((rec, (lambda t, c=c, pw=pw: -c * t ** (-pw)), zero_fn))
    # decaying source against a decaying coefficient, complex phases
    lam_c, q_c = -0.5 + 0.2j, 0.3 - 0.1j
    rec = LinearODERecord(ts=ts, lam=lam_c * ts ** (-1.5), q=q_c * ts ** (-2.0),
                          y0=0.5 - 0.5j, lam_tail_pow=1.5, q_tail_pow=2.0)
    cases.append((rec, lambda t: lam_c * t ** (-1.5), lambda t: q_c * t ** (-2.0)))
    # source only
    rec = LinearODERecord(ts=ts, lam=zero, q=0.4 * ts ** (-1.8),
                          y0=0.0j, lam_tail_pow=2.0, q_tail_pow=1.8)
    cases.append((rec, zero_fn, lambda t: 0.4 * t ** (-1.8)))
    return cases
