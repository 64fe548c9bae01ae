import math

import numpy as np
import pytest

import nlspair as nl
from nlspair.dynamics import SolverConfig, run
from nlspair.profiles import (
    BALANCED,
    SURVIVOR_1,
    SURVIVOR_2,
    beta_plus_estimate,
    build_case_records,
    classify,
    decay_exponents,
    decoupling_history,
    decoupling_metric,
    estimate_m,
    extract_profiles,
    fit_log_decay,
    profile_bound_history,
    profile_history,
    remainder_history,
    remainder_probe,
)
from nlspair.spectral import SQRT_2PI, l2_norm

from conftest import gaussian_field


@pytest.fixture(scope="module")
def generic_run():
    """Asymmetric pair integrated to t = 150 on a small box."""
    cfg = SolverConfig(
        n_points=512, length=360.0, t_start=0.0, t_end=150.0,
        checkpoint_times=tuple([0.0] + list(np.geomspace(2.0, 150.0, 28))),
    )
    g = cfg.grid
    pair = nl.FieldPair(gaussian_field(g, 0.15, 4.0),
                        gaussian_field(g, 0.075, 6.0))
    traj = run(cfg, pair)
    profiles = profile_history(traj)
    probes = remainder_history(traj)
    return traj, profiles, probes


@pytest.fixture(scope="module")
def free_component_run():
    """Second component identically zero: the first evolves freely."""
    cfg = SolverConfig(
        n_points=512, length=360.0, t_start=0.0, t_end=150.0,
        checkpoint_times=tuple(np.geomspace(2.0, 150.0, 24)),
    )
    g = cfg.grid
    zero = nl.ComplexField(g, np.zeros(g.n_points), 0.0)
    traj = run(cfg, nl.FieldPair(gaussian_field(g, 0.2, 4.0), zero))
    return traj, profile_history(traj), remainder_history(traj)


class TestFftBudget:
    def test_four_calls_per_snapshot(self, generic_run, fft_calls):
        # one pull-back of the pair, one of both nonlinearities, and the
        # two transforms of the J-norm; a per-component loop would exceed it
        traj = generic_run[0]
        profiles = profile_history(traj)
        remainder_history(traj, profiles=profiles)
        assert 0 < sum(fft_calls.values()) <= 4 * len(profiles)


class TestExtractProfiles:
    def test_free_solution_profile_constant(self, transform_grid):
        g = transform_grid
        phi = gaussian_field(g, 0.5, 1.5, velocity=0.4)
        phi_hat = nl.forward_transform(phi).values
        for t in (0.5, 3.0, 12.0):
            u = nl.free_propagate(phi, t)
            snap = extract_profiles(nl.FieldPair(u, u))
            assert np.max(np.abs(snap.alpha1 - phi_hat)) < 1e-10

    def test_time_zero_is_plain_spectrum(self, small_grid):
        pair = nl.FieldPair(gaussian_field(small_grid, 0.3, 2.0),
                            gaussian_field(small_grid, 0.2, 3.0))
        snap = extract_profiles(pair)
        assert np.allclose(snap.alpha1, nl.forward_transform(pair.u1).values)
        assert snap.t == 0.0

    def test_unitarity_along_run(self, generic_run):
        traj, profiles, _ = generic_run
        for cp, snap in zip([c for c in traj.checkpoints if c.ledger.t >= 2.0], profiles):
            n1, n2 = snap.l2_norms()
            assert abs(n1 - l2_norm(cp.pair.u1)) <= 1e-12 * max(n1, 1e-30)
            assert abs(n2 - l2_norm(cp.pair.u2)) <= 1e-12 * max(n2, 1e-30)


class TestRemainderProbe:
    def test_zero_component_gives_zero_remainder(self, free_component_run):
        _, _, probes = free_component_run
        for p in probes:
            assert np.all(p.r1 == 0) and np.all(p.r2 == 0)

    def test_two_evaluation_paths_agree(self, small_grid):
        # independent path: naive DFT matrix plus the exact frequency-side
        # free multiplier, no FFT anywhere
        g = small_grid
        u1 = nl.free_propagate(gaussian_field(g, 0.5, 1.0, velocity=0.3), 3.7)
        u2 = nl.free_propagate(gaussian_field(g, 0.4, 1.5, center=1.0), 3.7)
        pair = nl.FieldPair(u1, u2)
        probe = remainder_probe(pair)

        t = 3.7
        dft = np.exp(-1j * np.outer(g.xi, g.x)) * (g.dx / SQRT_2PI)
        mult = np.exp(0.5j * g.xi ** 2 * t)
        a1 = mult * (dft @ u1.values)
        a2 = mult * (dft @ u2.values)
        n1 = np.abs(u2.values) ** 2 * u1.values
        r1_direct = np.abs(a2) ** 2 * a1 / t - mult * (dft @ n1)
        assert np.max(np.abs(probe.r1 - r1_direct)) < 1e-10 * np.max(np.abs(probe.r1))

    def test_bound_ratio_bounded_over_run(self, generic_run):
        _, _, probes = generic_run
        ratios = np.array([p.bound_ratio for p in probes])
        assert np.all(np.isfinite(ratios))
        assert np.max(ratios) <= 10 * np.median(ratios[ratios > 0])

    def test_weighted_remainder_decays(self, generic_run):
        traj, _, probes = generic_run
        w = np.sqrt(1.0 + traj.config.grid.xi ** 2)
        ts = np.array([p.t for p in probes])
        peak = np.array([max(np.max(w * np.abs(p.r1)), np.max(w * np.abs(p.r2)))
                         for p in probes])
        sel = ts >= 15.0
        slope = np.polyfit(np.log(ts[sel]), np.log(peak[sel]), 1)[0]
        assert slope <= -1.1

    def test_history_reuses_snapshots_bitwise(self, generic_run):
        traj, profiles, probes = generic_run
        pairs = [cp.pair for cp in traj.checkpoints if cp.ledger.t >= 2.0]
        reused = remainder_history(traj, profiles=profiles)
        for pair, p, q in zip(pairs, probes, reused, strict=True):
            fresh = remainder_probe(pair)   # extracts its own snapshot
            for probe in (p, q):
                assert np.array_equal(probe.r1, fresh.r1)
                assert np.array_equal(probe.r2, fresh.r2)
                assert probe.bound_ratio == fresh.bound_ratio
        with pytest.raises(ValueError, match="different times"):
            remainder_history(traj, profiles=profiles[1:])

    def test_gamma_domain(self, small_grid):
        pair = nl.FieldPair(gaussian_field(small_grid, 0.3, 2.0, time=2.0),
                            gaussian_field(small_grid, 0.2, 3.0, time=2.0))
        with pytest.raises(ValueError):
            remainder_probe(pair, gamma=0.2)
        with pytest.raises(ValueError):
            remainder_probe(pair, gamma=0.0)


class TestEstimateM:
    def test_free_component(self, free_component_run):
        traj, profiles, probes = free_component_run
        est = estimate_m(traj, profiles, probes)
        phi_hat_sq = np.abs(profiles[0].alpha1) ** 2
        assert np.all(est.m_hat >= -1e-15)
        assert np.max(np.abs(est.m_hat - phi_hat_sq)) < 1e-10
        assert est.discrepancy < 1e-10

    def test_symmetric_data_balances(self):
        cfg = SolverConfig(n_points=512, length=360.0, t_start=0.0, t_end=120.0,
                           checkpoint_times=tuple(np.geomspace(2.0, 120.0, 24)))
        g = cfg.grid
        u = gaussian_field(g, 0.15, 4.0)
        traj = run(cfg, nl.FieldPair(u, u))
        est = estimate_m(traj)
        assert np.max(np.abs(est.m_hat)) < 1e-14

    def test_estimators_agree(self, generic_run):
        traj, profiles, probes = generic_run
        est = estimate_m(traj, profiles, probes)
        mask = np.abs(est.m_a) > est.suggested_deadband
        rel = np.abs(est.m_a - est.m_b)[mask] / np.abs(est.m_a)[mask]
        assert np.max(rel) < 0.02

    def test_balance_law_residual_small(self, generic_run):
        traj, profiles, probes = generic_run
        est = estimate_m(traj, profiles, probes)
        scale = np.max(np.abs(est.m_a))
        assert est.balance_residual <= 0.03 * scale

    def test_short_trajectory_rejected(self):
        cfg = SolverConfig(n_points=256, length=200.0, t_start=0.0, t_end=20.0,
                           checkpoint_times=tuple(np.geomspace(2.0, 20.0, 12)))
        g = cfg.grid
        traj = run(cfg, nl.FieldPair(gaussian_field(g, 0.1, 4.0),
                                     gaussian_field(g, 0.05, 5.0)))
        with pytest.raises(ValueError, match="too short"):
            estimate_m(traj)


class TestClassify:
    def test_thresholds(self):
        labels = classify([0.05, -0.05, 0.005], deadband=0.01)
        assert list(labels) == [SURVIVOR_1, SURVIVOR_2, BALANCED]

    def test_deadband_positive(self):
        with pytest.raises(ValueError):
            classify([0.1], deadband=0.0)


class TestDecayFits:
    def test_exact_power_law(self):
        ts = np.geomspace(2.0, 2000.0, 40)
        slope = decay_exponents(ts, 3.7 * ts ** -0.3)
        assert slope == pytest.approx(-0.3, abs=1e-12)

    def test_constant_series(self):
        ts = np.geomspace(2.0, 2000.0, 40)
        assert decay_exponents(ts, np.full_like(ts, 2.5)) == pytest.approx(0.0, abs=1e-12)

    def test_underflowed_series_flagged(self):
        ts = np.geomspace(2.0, 2000.0, 40)
        vals = np.full_like(ts, 1e-16)
        assert np.isnan(decay_exponents(ts, vals))

    def test_too_few_points(self):
        ts = np.geomspace(2.0, 2000.0, 10)  # only ~5 land in [T/10, T]
        with pytest.raises(ValueError):
            decay_exponents(ts, ts ** -0.5)

    def test_log_decay_synthetic(self):
        ts = np.geomspace(10.0, 1e5, 60)
        rep = fit_log_decay(ts, np.log(ts) ** -0.5)
        assert rep.sup_value == pytest.approx(1.0, abs=1e-12)
        assert rep.max_consecutive_ratio <= 1.0 + 1e-12
        assert rep.non_diverging


class TestDecoupling:
    def test_disjoint_profiles(self, small_grid):
        a1 = np.where(small_grid.xi < 0, 1.0 + 0j, 0)
        a2 = np.where(small_grid.xi > 0, 1.0 + 0j, 0)
        from nlspair.profiles import ProfileSnapshot
        snap = ProfileSnapshot(t=2.0, alpha1=a1, alpha2=a2, grid=small_grid)
        t, sup, l2 = decoupling_metric(snap)
        assert sup == 0.0 and l2 == 0.0

    def test_zero_component(self, free_component_run):
        _, profiles, _ = free_component_run
        rep = decoupling_history(profiles)
        assert np.all(rep.sup_products == 0.0)
        assert np.all(rep.l2_products == 0.0)

    def test_product_decays_on_generic_run(self, generic_run):
        _, profiles, _ = generic_run
        rep = decoupling_history(profiles)
        assert rep.sup_product < rep.sup_products[0]

    def test_profile_bound_stays_put(self, generic_run):
        _, profiles, _ = generic_run
        bound = profile_bound_history(profiles)
        assert np.max(bound) <= 2.0 * bound[0]


class TestBetaPlus:
    def test_free_component_exact(self, free_component_run):
        traj, profiles, probes = free_component_run
        g = traj.config.grid
        k = g.n_points // 2
        est = beta_plus_estimate(traj, float(g.xi[k]), 1,
                                 profiles=profiles, probes=probes)
        assert abs(est.value - profiles[0].alpha1[k]) < 1e-12

    def test_survivor_consistency(self, generic_run):
        traj, profiles, probes = generic_run
        est = beta_plus_estimate(traj, 0.0, 1, profiles=profiles, probes=probes)
        assert est.observed_gap <= 3.0 * est.tail_err

    def test_balanced_frequency_rejected(self, generic_run):
        traj, profiles, probes = generic_run
        g = traj.config.grid
        far = float(g.xi[-1])   # spectrum is empty there: balanced
        with pytest.raises(ValueError, match="classified"):
            beta_plus_estimate(traj, far, 1, profiles=profiles, probes=probes)

    def test_survivor_2_when_components_swapped(self):
        cfg = SolverConfig(n_points=512, length=360.0, t_start=0.0, t_end=150.0,
                           checkpoint_times=tuple(np.geomspace(2.0, 150.0, 28)))
        g = cfg.grid
        pair = nl.FieldPair(gaussian_field(g, 0.075, 6.0),
                            gaussian_field(g, 0.15, 4.0))
        traj = run(cfg, pair)
        est = beta_plus_estimate(traj, 0.0, 2)
        assert est.observed_gap <= 3.0 * est.tail_err
        with pytest.raises(ValueError):
            beta_plus_estimate(traj, 0.0, 1)


class TestCaseRecords:
    def test_full_report(self, generic_run):
        traj, profiles, probes = generic_run
        records, est = build_case_records(traj, profiles, probes)
        g = traj.config.grid
        assert len(records) == g.n_points
        labels = {r.case_label for r in records}
        assert SURVIVOR_1 in labels and BALANCED in labels
        for r in records:
            if r.case_label == SURVIVOR_1:
                assert r.beta_plus is not None
            if r.case_label == BALANCED:
                assert r.beta_plus is None
        # exactly one survivor label per frequency carries a limit value
        assert not any(r.case_label == SURVIVOR_2 for r in records)

    def test_log_decay_not_applied_to_survivors(self, generic_run):
        # routing check: the balanced-case fit guard is the classification
        traj, profiles, probes = generic_run
        records, _ = build_case_records(traj, profiles, probes)
        assert all(r.fitted_exponent is None for r in records if r.case_label == BALANCED)
        survivors = [r for r in records if r.case_label == SURVIVOR_1]
        assert all(math.isfinite(r.fitted_exponent) for r in survivors
                   if r.fitted_exponent is not None)
        center = min(survivors, key=lambda r: abs(r.xi))
        assert center.fitted_exponent is not None
        assert center.fitted_exponent < 0
