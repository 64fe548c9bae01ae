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

import cmath
import math
from dataclasses import dataclass, field

import numpy as np

from . import fits
from .dynamics import T_MIN, coupled_decay_ratios


@dataclass(frozen=True)
class ReducedState:
    """One frequency's profile pair at time t (analytics start at ``T_MIN``)."""

    t: float
    a1: complex
    a2: complex

    def __post_init__(self) -> None:
        if not (math.isfinite(self.t) and self.t >= T_MIN):
            raise ValueError(f"reduced dynamics is tracked for t >= {T_MIN:g}, got {self.t}")
        if not (cmath.isfinite(self.a1) and cmath.isfinite(self.a2)):
            raise ValueError("non-finite reduced state")


def reduced_flow(state: ReducedState, t_target: float) -> ReducedState:
    """Exact forward flow of the reduced system from state.t to t_target.

    Conserves ``|a1|^2 - |a2|^2`` to roundoff, never increases either
    modulus, and satisfies the semigroup property.  Backward targets are
    rejected.
    """
    if t_target < state.t:
        raise ValueError("reduced flow is forward-only")
    s = math.log(t_target / state.t)
    r1, r2 = coupled_decay_ratios(abs(state.a1) ** 2, abs(state.a2) ** 2, s)
    return ReducedState(t=t_target, a1=state.a1 * math.sqrt(float(r1)),
                        a2=state.a2 * math.sqrt(float(r2)))


def reduced_flow_profiles(alpha: np.ndarray, t: float, t_target: float) -> np.ndarray:
    """Apply the reduced flow from t to t_target to a ``(2, N)`` profile pair at once."""
    if t_target < t:
        raise ValueError("reduced flow is forward-only")
    r = coupled_decay_ratios(np.abs(alpha[0]) ** 2, np.abs(alpha[1]) ** 2,
                             math.log(t_target / t))
    return alpha * np.sqrt(r)


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

    Samples cover [t0, T]; beyond T each coefficient is taken to follow the
    declared power law ``f(t) = f(T) (t/T)^(-tail_pow)`` with tail_pow > 1,
    which keeps every integral to infinity finite and explicit.
    """

    t0: float
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
        if abs(ts[0] - self.t0) > 1e-9 * max(1.0, self.t0):
            raise ValueError("samples must start at t0")
        if not (self.lam_tail_pow > 1.0 and self.q_tail_pow > 1.0):
            raise ValueError("declared tails must decay faster than 1/t to be integrable")
        for name, val in (("ts", ts), ("lam", lam), ("q", qq)):
            val.flags.writeable = False
            object.__setattr__(self, name, val)

    def _tail(self, vals: np.ndarray, pow_: float) -> complex:
        return vals[-1] * self.ts[-1] / (pow_ - 1.0)

    def _int_from(self, vals: np.ndarray) -> np.ndarray:
        # integrate in log-time: int f dt = int f(t) t d(log t); the change of
        # variable keeps the trapezoid accurate on log-spaced samples
        return fits.reverse_cumtrapz(np.log(self.ts), vals * self.ts)

    def lam_integral_from(self) -> np.ndarray:
        """``int_{t_i}^inf lambda`` at every sample (trapezoid + declared tail)."""
        return self._int_from(self.lam) + self._tail(self.lam, self.lam_tail_pow)

    def abs_lam_integral_from(self) -> np.ndarray:
        return self._int_from(np.abs(self.lam)) + abs(self._tail(np.abs(self.lam), self.lam_tail_pow))

    def abs_q_integral_from(self) -> np.ndarray:
        return self._int_from(np.abs(self.q)) + abs(self._tail(np.abs(self.q), self.q_tail_pow))

    def c3(self) -> float:
        return float(np.exp(self.abs_lam_integral_from()[0]))

    def y_plus_uncertainty(self) -> float:
        """Richardson estimate of the quadrature error carried by y_plus.

        Compares the full-resolution trapezoid against the half-resolution
        one; the limit value cannot be trusted below this level, so the
        certificate check floors its bound here.
        """
        s = np.log(self.ts)

        def total(vals):
            full = np.trapezoid(vals * self.ts, s)
            half = np.trapezoid((vals * self.ts)[::2], s[::2])
            return abs(full - half) / 3.0
        e_lam = total(self.lam)
        e_q = total(self.q)
        scale = abs(self.y0) * math.exp(float(self._int_from(np.abs(self.lam))[0]))
        return float(scale * e_lam + e_q)

    def y_plus(self) -> complex:
        I = self.lam_integral_from()
        val = self.y0 * np.exp(I[0])
        val += np.trapezoid(self.q * np.exp(I) * self.ts, np.log(self.ts))
        # declared-tail contribution of the source term; the exponent factor
        # is within exp(tail of |lambda|) of 1 there
        val += self._tail(self.q, self.q_tail_pow)
        return complex(val)


@dataclass(frozen=True)
class LinearLimitReport:
    y_plus: complex
    c3: float
    worst_margin: float
    passed: bool


def linear_ode_limit(record: LinearODERecord, ys) -> LinearLimitReport:
    """Compute the limit y+ and check ``|y - y+| <= C3 int (|y+||lam| + |Q|)``.

    ``ys`` must sample the solution at ``record.ts``.  The bound is strict
    for the exact solution; the computed limit, however, carries the
    quadrature error of the sampled coefficients, so the check floors the
    bound at the record's own uncertainty estimate plus a roundoff margin.
    """
    ys = np.asarray(ys, dtype=complex)
    if ys.shape != record.ts.shape:
        raise ValueError("solution samples must match the record's time grid")
    yp = record.y_plus()
    c3 = record.c3()
    rhs = c3 * (abs(yp) * record.abs_lam_integral_from() + record.abs_q_integral_from())
    lhs = np.abs(ys - yp)
    # factor 4 guards the non-asymptotic part of the Richardson estimate
    floor = 4.0 * record.y_plus_uncertainty() + 1e-10 * (abs(yp) + float(np.max(np.abs(ys))))
    scale = np.maximum(rhs, floor)
    worst = float(np.min((rhs + floor - lhs) / scale))
    return LinearLimitReport(y_plus=yp, c3=c3, worst_margin=worst,
                             passed=bool(worst >= -1e-6))


def _interp_complex(ts, vals, t):
    return np.interp(t, ts, vals.real) + 1j * np.interp(t, ts, vals.imag)


def solve_linear_record(record: LinearODERecord, lam_fn=None, q_fn=None) -> np.ndarray:
    """Integrate y' = lam y + Q through the sample grid with tight tolerances.

    Analytic coefficient callables keep the solve at solver precision; when
    absent the sampled coefficients are interpolated, which caps the
    accuracy at the sampling density.
    """
    from scipy import integrate
    ts = record.ts
    lam_of = lam_fn if lam_fn is not None else (lambda t: _interp_complex(ts, record.lam, t))
    q_of = q_fn if q_fn is not None else (lambda t: _interp_complex(ts, record.q, t))

    def rhs(t, y):
        z = lam_of(t) * (y[0] + 1j * y[1]) + q_of(t)
        return [z.real, z.imag]

    sol = integrate.solve_ivp(rhs, (ts[0], ts[-1]), [record.y0.real, record.y0.imag],
                              t_eval=ts, rtol=1e-11, atol=1e-13)
    if not sol.success:
        raise RuntimeError(f"ODE integration failed: {sol.message}")
    return sol.y[0] + 1j * sol.y[1]


def default_linear_ode_sweep():
    """Synthetic (record, lam_fn, q_fn) triples with closed-form-checkable structure."""
    cases = []
    t0, t_end = 2.0, 1e6
    ts = np.geomspace(t0, t_end, 1200)
    zero = np.zeros_like(ts)
    zero_fn = lambda t: 0.0j
    # pure decay at several rates, no source
    for c in (0.3, 1.0):
        for pw in (1.5, 2.0, 3.0):
            rec = LinearODERecord(t0=t0, ts=ts, lam=-c * ts ** (-pw), q=zero,
                                  y0=1.0 + 0.0j, lam_tail_pow=pw, q_tail_pow=2.0)
            cases.append((rec, (lambda t, c=c, pw=pw: -c * t ** (-pw)), zero_fn))
    # decaying source against a decaying coefficient, complex phases
    lam_c, q_c = -0.5 + 0.2j, 0.3 - 0.1j
    rec = LinearODERecord(t0=t0, ts=ts, lam=lam_c * ts ** (-1.5), q=q_c * ts ** (-2.0),
                          y0=0.5 - 0.5j, lam_tail_pow=1.5, q_tail_pow=2.0)
    cases.append((rec, lambda t: lam_c * t ** (-1.5), lambda t: q_c * t ** (-2.0)))
    # source only
    rec = LinearODERecord(t0=t0, ts=ts, lam=zero, q=0.4 * ts ** (-1.8),
                          y0=0.0j, lam_tail_pow=2.0, q_tail_pow=1.8)
    cases.append((rec, zero_fn, lambda t: 0.4 * t ** (-1.8)))
    return cases
