import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from nlspair.asymptotics import (
    LemmaMParams,
    LinearODERecord,
    default_lemma_m_sweep,
    default_linear_ode_sweep,
    equality_phi_trajectory,
    lemma_m_certificate,
    linear_ode_limit,
    reduced_flow_profiles,
    solve_linear_record,
)


def rk4_in_log_time(a1, a2, s_total, n=20000):
    """Independent oracle for the reduced flow, stepped in s = log t."""
    h = s_total / n

    def f(v):
        return np.array([-abs(v[1]) ** 2 * v[0], -abs(v[0]) ** 2 * v[1]])

    v = np.array([a1, a2], dtype=complex)
    for _ in range(n):
        k1 = f(v)
        k2 = f(v + 0.5 * h * k1)
        k3 = f(v + 0.5 * h * k2)
        k4 = f(v + h * k3)
        v = v + (h / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
    return v


def pair(a1, a2):
    """One frequency's profile pair, the ``(2,)`` input of the reduced flow."""
    return np.array([a1, a2], dtype=complex)


class TestReducedFlow:
    def test_dormant_companion_freezes_survivor(self):
        st = pair(0.6 - 0.2j, 0.0)
        out = reduced_flow_profiles(st, 2.0, 1e6)
        assert out[0] == st[0] and out[1] == 0.0

    def test_balanced_closed_form(self):
        a = 0.5 + 0.1j
        out = reduced_flow_profiles(pair(a, a * np.exp(0.4j)), 2.0, 1e4)
        c = abs(a) ** 2
        expected = c / (1.0 + 2.0 * c * math.log(1e4 / 2.0))
        assert abs(abs(out[0]) ** 2 - expected) < 1e-14
        # the balanced law is exactly the square-root-log decay that the
        # log-decay certificate bounds with p = 2
        params = LemmaMParams(c0=2.0, c1=0.0, p=2.0, q=2.0, t0=2.0, phi0=c)
        ts = np.geomspace(2.0, 1e4, 60)
        phis = c / (1.0 + 2.0 * c * np.log(ts / 2.0))
        assert lemma_m_certificate(params, ts, phis).passed

    def test_matches_rk4_oracle(self):
        st = pair(0.9 * np.exp(0.3j), 0.5 * np.exp(-1.1j))
        t_target = 400.0
        out = reduced_flow_profiles(st, 2.0, t_target)
        ref = rk4_in_log_time(st[0], st[1], math.log(t_target / 2.0))
        assert abs(out[0] - ref[0]) < 1e-12
        assert abs(out[1] - ref[1]) < 1e-12

    def test_survivor_locks_to_imbalance(self):
        st = pair(0.7, 0.4)
        m = abs(st[0]) ** 2 - abs(st[1]) ** 2
        ts = np.geomspace(1e3, 1e6, 12)
        a2_series = np.array([abs(reduced_flow_profiles(st, 2.0, float(t))[1]) for t in ts])
        slope = np.polyfit(np.log(ts), np.log(a2_series), 1)[0]
        assert slope == pytest.approx(-m, rel=1e-3)
        assert abs(reduced_flow_profiles(st, 2.0, 1e12)[0]) ** 2 == pytest.approx(m, rel=1e-7)

    def test_conservation_and_monotonicity(self):
        st = pair(0.8, 0.3j)
        m0 = abs(st[0]) ** 2 - abs(st[1]) ** 2
        prev1, prev2 = abs(st[0]), abs(st[1])
        for t in (5.0, 50.0, 5e3, 5e6):
            out = reduced_flow_profiles(st, 2.0, t)
            assert abs((abs(out[0]) ** 2 - abs(out[1]) ** 2) - m0) < 1e-13
            assert abs(out[0]) <= prev1 + 1e-15 and abs(out[1]) <= prev2 + 1e-15
            prev1, prev2 = abs(out[0]), abs(out[1])

    def test_semigroup(self):
        st = pair(0.8, 0.3j)
        through = reduced_flow_profiles(reduced_flow_profiles(st, 2.0, 50.0), 50.0, 1e4)
        direct = reduced_flow_profiles(st, 2.0, 1e4)
        assert abs(through[0] - direct[0]) < 1e-12
        assert abs(through[1] - direct[1]) < 1e-12

    def test_backward_rejected(self):
        with pytest.raises(ValueError):
            reduced_flow_profiles(pair(0.5, 0.5), 10.0, 5.0)

    def test_spectrum_variant(self, small_grid):
        a1 = 0.5 * np.exp(-small_grid.xi ** 2)
        a2 = 0.3 * np.exp(-2 * small_grid.xi ** 2)
        out = reduced_flow_profiles(np.stack([a1, a2]).astype(complex), 2.0, 200.0)
        assert out.shape == (2, small_grid.n_points)
        k = small_grid.n_points // 2
        one = reduced_flow_profiles(pair(a1[k], a2[k]), 2.0, 200.0)
        assert abs(out[0, k] - one[0]) < 1e-14


class TestLogDecayCertificate:
    def test_closed_form_equality_ode(self):
        # C1 = 0, p = 2: the equality ODE solves to phi0 / (1 + C0 phi0 log(t/t0))
        params = LemmaMParams(c0=2.0, c1=0.0, p=2.0, q=1.5, t0=2.0, phi0=0.8)
        ts = np.geomspace(2.0, 1e6, 200)
        phis = params.phi0 / (1.0 + params.c0 * params.phi0 * np.log(ts / 2.0))
        cert = lemma_m_certificate(params, ts, phis)
        assert cert.passed and cert.worst_margin > 0

    def test_zero_trajectory(self):
        params = LemmaMParams(c0=1.0, c1=0.0, p=2.0, q=2.0, t0=2.0, phi0=0.0)
        ts = np.geomspace(2.0, 1e5, 100)
        cert = lemma_m_certificate(params, ts, np.zeros_like(ts))
        assert cert.passed

    def test_full_sweep(self):
        for params, ts, phis in default_lemma_m_sweep():
            cert = lemma_m_certificate(params, ts, phis)
            assert cert.passed, (params.p, params.q, params.c0, params.c1)

    def test_hypothesis_violation_rejected(self):
        params = LemmaMParams(c0=1.0, c1=0.0, p=2.0, q=2.0, t0=2.0, phi0=0.5)
        ts = np.geomspace(2.0, 1e4, 50)
        growing = 0.5 + np.log(ts)     # grows: cannot satisfy the decay ODE
        with pytest.raises(ValueError, match="hypothesis"):
            lemma_m_certificate(params, ts, growing)

    def test_parameter_domain(self):
        with pytest.raises(ValueError):
            LemmaMParams(c0=0.0, c1=0.0, p=2.0, q=2.0, t0=2.0, phi0=1.0)
        with pytest.raises(ValueError):
            LemmaMParams(c0=1.0, c1=0.0, p=1.0, q=2.0, t0=2.0, phi0=1.0)
        with pytest.raises(ValueError):
            LemmaMParams(c0=1.0, c1=0.0, p=2.0, q=0.9, t0=2.0, phi0=1.0)

    def test_holder_conjugate(self):
        params = LemmaMParams(c0=1.0, c1=0.0, p=3.0, q=2.0, t0=2.0, phi0=1.0)
        assert 1.0 / params.p + 1.0 / params.p_star == pytest.approx(1.0, rel=1e-15)

    def test_equality_trajectory_solver(self):
        params = LemmaMParams(c0=2.0, c1=0.0, p=2.0, q=1.5, t0=2.0, phi0=0.8)
        ts, phis = equality_phi_trajectory(params, t_end=1e4, n_samples=80)
        exact = params.phi0 / (1.0 + params.c0 * params.phi0 * np.log(ts / 2.0))
        assert np.max(np.abs(phis - exact)) < 1e-9


class TestLinearOdeLimit:
    def test_trivial_case(self):
        ts = np.geomspace(2.0, 1e5, 100)
        zero = np.zeros_like(ts)
        rec = LinearODERecord(t0=2.0, ts=ts, lam=zero, q=zero, y0=0.7 - 0.2j,
                              lam_tail_pow=2.0, q_tail_pow=2.0)
        rep = linear_ode_limit(rec, np.full_like(ts, 0.7 - 0.2j, dtype=complex))
        assert rep.y_plus == pytest.approx(0.7 - 0.2j, rel=1e-14)
        assert rep.c3 == pytest.approx(1.0)
        assert rep.passed

    def test_closed_form_decay(self):
        c = 0.7
        ts = np.geomspace(2.0, 1e6, 1200)
        rec = LinearODERecord(t0=2.0, ts=ts, lam=-c * ts ** -1.5,
                              q=np.zeros_like(ts), y0=1.0 + 0j,
                              lam_tail_pow=1.5, q_tail_pow=2.0)
        ys = np.exp(-2 * c * (2.0 ** -0.5 - ts ** -0.5))
        y_plus_exact = math.exp(-2 * c * 2.0 ** -0.5)
        rep = linear_ode_limit(rec, ys)
        assert abs(rep.y_plus - y_plus_exact) < 1e-5
        assert rep.passed

    def test_full_sweep(self):
        for rec, lam_fn, q_fn in default_linear_ode_sweep():
            ys = solve_linear_record(rec, lam_fn, q_fn)
            rep = linear_ode_limit(rec, ys)
            assert rep.passed, (rec.lam_tail_pow, rec.q_tail_pow, rep.worst_margin)

    def test_reduced_flow_cross_check(self):
        # lambda built from a surviving-frequency trajectory: the linear
        # limit must match the survivor's locked amplitude sqrt(m)
        st = pair(0.7, 0.4)
        m = abs(st[0]) ** 2 - abs(st[1]) ** 2
        ts = np.geomspace(2.0, 1e6, 1200)
        flow = np.array([reduced_flow_profiles(st, 2.0, float(t)) for t in ts])
        a2sq = np.abs(flow[:, 1]) ** 2
        rec = LinearODERecord(t0=2.0, ts=ts, lam=-a2sq / ts, q=np.zeros_like(ts),
                              y0=st[0], lam_tail_pow=1.0 + 2 * m, q_tail_pow=2.0)
        ys = flow[:, 0]
        rep = linear_ode_limit(rec, ys)
        assert abs(rep.y_plus - math.sqrt(m)) < 1e-5
        assert rep.passed

    def test_non_integrable_tail_rejected(self):
        ts = np.geomspace(2.0, 1e5, 50)
        with pytest.raises(ValueError, match="integrable"):
            LinearODERecord(t0=2.0, ts=ts, lam=-1 / ts, q=np.zeros_like(ts),
                            y0=1.0, lam_tail_pow=1.0, q_tail_pow=2.0)


def test_package_import_loads_no_scipy():
    # the lemma oracles import scipy when they run, not when nlspair loads
    import nlspair
    src = Path(nlspair.__file__).resolve().parents[1]
    code = "import sys, nlspair; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, env={**os.environ, "PYTHONPATH": str(src)})
    assert out.stdout.strip() == "[]"
