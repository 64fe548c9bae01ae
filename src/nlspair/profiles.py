"""Fourier-profile extraction and the per-frequency long-time analytics.

The profile of a state u at time t is ``alpha(t, xi) = F[U(-t) u(t)](xi)``:
the spectrum pulled back along the free flow.  For a free solution it is
constant in time; for the coupled system it drifts slowly, and its two
components obey, up to an integrable remainder R,

    d alpha1/dt = -(1/t) |alpha2|^2 alpha1 + R1,
    d alpha2/dt = -(1/t) |alpha1|^2 alpha2 + R2.

Everything here is per-frequency and vectorised across the whole grid; all
inputs are immutable, so the analyses are trivially data-parallel.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import fits
from .dynamics import Trajectory, _stack
from .spectral import FieldPair, Grid, _j_spectrum, _pull_back

SURVIVOR_1 = "survivor_1"
SURVIVOR_2 = "survivor_2"
BALANCED = "balanced"

DEFAULT_GAMMA = 1.0 / 24.0  # midpoint-ish of the admissible (0, 1/12)


@dataclass(frozen=True)
class ProfileSnapshot:
    """Both profiles on the frequency grid at one time."""

    t: float
    alpha1: np.ndarray
    alpha2: np.ndarray
    grid: Grid

    def l2_norms(self) -> tuple[float, float]:
        dxi = self.grid.dxi
        return (
            math.sqrt(float(dxi * np.sum(np.abs(self.alpha1) ** 2))),
            math.sqrt(float(dxi * np.sum(np.abs(self.alpha2) ** 2))),
        )


def extract_profiles(pair: FieldPair) -> ProfileSnapshot:
    """Pull the pair back along the free flow and transform: alpha_j = F U(-t) u_j."""
    alpha = _pull_back(pair.grid, _stack(pair), pair.time)
    alpha.flags.writeable = False
    return ProfileSnapshot(t=pair.time, alpha1=alpha[0], alpha2=alpha[1], grid=pair.grid)


def profile_history(traj: Trajectory, t_min: float = 2.0) -> list[ProfileSnapshot]:
    """Profiles at every checkpoint with t >= t_min (the analytics window)."""
    return [
        extract_profiles(cp.pair)
        for cp in traj.checkpoints
        if cp.ledger.t >= t_min - 1e-9
    ]


# ---------------------------------------------------------------------------
# remainder probe
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class RemainderProbe:
    """Direct evaluation of the profile-equation remainder at one time.

    ``bound_ratio`` is ``max_xi <xi> |R| * t^(5/4 - 3 gamma)`` divided by the
    cube of ``(H^1 norm of u) + (H^1 norm of J u)``; its history over a run
    should stay bounded (the constant in the decay estimate is empirical,
    never asserted).
    """

    t: float
    r1: np.ndarray
    r2: np.ndarray
    bound_ratio: float
    gamma: float


def remainder_probe(pair: FieldPair, snapshot: ProfileSnapshot | None = None,
                    gamma: float = DEFAULT_GAMMA) -> RemainderProbe:
    """R_j = (1/t) |alpha_{3-j}|^2 alpha_j - F U(-t) N_j(u), evaluated spectrally."""
    if not (0.0 < gamma < 1.0 / 12.0):
        raise ValueError(f"gamma must lie in (0, 1/12), got {gamma}")
    t = pair.time
    if t < 1.0:
        raise ValueError("remainder probe needs t >= 1")
    if snapshot is None:
        snapshot = extract_profiles(pair)
    g = pair.grid
    u = _stack(pair)
    fn = _pull_back(g, np.abs(u[::-1]) ** 2 * u, t)
    alpha = np.stack([snapshot.alpha1, snapshot.alpha2])
    r = np.abs(alpha[::-1]) ** 2 * alpha / t - fn

    w2 = 1.0 + g.xi ** 2
    peak = float(np.max(np.sqrt(w2) * np.abs(r)))
    # |F u| = |alpha| and |F J u| = |F(x F^-1 alpha)| off the Nyquist slot,
    # both on the snapshot's profile
    h1 = math.sqrt(g.dxi * float(np.sum(w2 * np.abs(alpha) ** 2)))
    jh1 = math.sqrt(g.dxi * float(np.sum(w2 * np.abs(_j_spectrum(g, alpha)) ** 2)))
    denom = (h1 + jh1) ** 3
    ratio = peak * t ** (1.25 - 3.0 * gamma) / denom if denom > 0 else 0.0
    return RemainderProbe(t=t, r1=r[0], r2=r[1], bound_ratio=float(ratio), gamma=gamma)


def remainder_history(traj: Trajectory, gamma: float = DEFAULT_GAMMA,
                      t_min: float = 2.0,
                      profiles: list[ProfileSnapshot] | None = None) -> list[RemainderProbe]:
    """Remainder probes at every checkpoint with t >= t_min.

    ``profiles`` are the snapshots of :func:`profile_history` over the same
    checkpoints; pass them when already built, so they are not extracted twice.
    """
    t_min = max(t_min, 1.0)
    if profiles is None:
        profiles = profile_history(traj, t_min)
    pairs = [cp.pair for cp in traj.checkpoints if cp.ledger.t >= t_min - 1e-9]
    if [p.t for p in profiles] != [pair.time for pair in pairs]:
        raise ValueError("profiles and checkpoints cover different times")
    return [remainder_probe(pair, snap, gamma) for pair, snap in zip(pairs, profiles)]


# ---------------------------------------------------------------------------
# imbalance estimation and case classification
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class MEstimates:
    """Two estimators of the per-frequency squared-modulus imbalance limit.

    Estimator A reads ``|alpha1|^2 - |alpha2|^2`` at the final checkpoint
    (valid because the tail correction decays).  Estimator B anchors at the
    first checkpoint and adds the quadrature of
    ``rho = 2 Re[conj(alpha1) R1 - conj(alpha2) R2]``, i.e. it integrates the
    balance law instead of trusting the endpoint.  Their gap measures the
    quadrature/remainder error and feeds the classification dead-band.
    """

    xi: np.ndarray
    m_a: np.ndarray
    m_b: np.ndarray
    t_anchor: float
    t_final: float
    discrepancy: float
    balance_residual: float
    suggested_deadband: float

    @property
    def m_hat(self) -> np.ndarray:
        """Primary point estimate (estimator A)."""
        return self.m_a


def estimate_m(traj: Trajectory,
               profiles: list[ProfileSnapshot] | None = None,
               probes: list[RemainderProbe] | None = None,
               gamma: float = DEFAULT_GAMMA) -> MEstimates:
    if profiles is None:
        profiles = profile_history(traj)
    if len(profiles) < 4:
        raise ValueError("trajectory too short: need checkpoints spanning [2, T]")
    ts = np.array([p.t for p in profiles])
    if ts[-1] < 100.0:
        raise ValueError(f"trajectory too short: final time {ts[-1]} < 100")
    if probes is None:
        probes = remainder_history(traj, gamma=gamma, profiles=profiles)
    if len(probes) != len(profiles):
        raise ValueError("profiles and probes must cover the same checkpoints")

    vals = np.stack([np.abs(p.alpha1) ** 2 - np.abs(p.alpha2) ** 2 for p in profiles])
    rho = np.stack([
        2.0 * np.real(np.conj(p.alpha1) * q.r1 - np.conj(p.alpha2) * q.r2)
        for p, q in zip(profiles, probes)
    ])
    # integrate rho along checkpoints for every frequency at once
    integral = fits.cumtrapz_from_start(ts, np.moveaxis(rho, 0, -1))
    m_a = vals[-1]
    m_b = vals[0] + integral[..., -1]

    # balance-law residual: vals(t) - vals(t0) - int rho should vanish
    resid = np.moveaxis(vals, 0, -1) - vals[0][..., None] - integral
    balance_residual = float(np.max(np.abs(resid)))

    amp0 = np.abs(profiles[0].alpha1) + np.abs(profiles[0].alpha2)
    resolved = amp0 >= 1e-3 * np.max(amp0)
    disc = float(np.max(np.abs(m_a - m_b)[resolved])) if np.any(resolved) else 0.0
    return MEstimates(
        xi=profiles[0].grid.xi,
        m_a=m_a,
        m_b=m_b,
        t_anchor=float(ts[0]),
        t_final=float(ts[-1]),
        discrepancy=disc,
        balance_residual=balance_residual,
        suggested_deadband=max(1e-3, 3.0 * disc),
    )


@dataclass(frozen=True)
class CaseRecord:
    """Per-frequency verdict: which component survives, and at what rate."""

    xi: float
    m_hat: float
    r_tail: float
    case_label: str
    fitted_exponent: float | None = None
    beta_plus: complex | None = None


def classify(m_hat, deadband: float) -> np.ndarray:
    """Label each frequency by the sign of the imbalance against a dead-band.

    Returns an array of labels shaped like ``m_hat``.  The trichotomy is
    exact in the continuum but an estimated imbalance near zero is
    numerically unresolvable, hence the explicit buffer.
    """
    if deadband <= 0:
        raise ValueError("deadband must be positive")
    m_hat = np.asarray(m_hat, dtype=float)
    return np.where(m_hat > deadband, SURVIVOR_1,
                    np.where(m_hat < -deadband, SURVIVOR_2, BALANCED))


# ---------------------------------------------------------------------------
# decay fits
# ---------------------------------------------------------------------------

def _trailing(ts: np.ndarray, fraction: float = 0.1) -> np.ndarray:
    mask = fits.trailing_window_mask(ts, fraction)
    if int(np.sum(mask)) < 8:
        raise ValueError("need at least 8 checkpoints in the trailing window")
    return mask


def decay_exponents(ts, moduli) -> np.ndarray:
    """Log-log slopes of profile-modulus series over the trailing window.

    ``moduli`` has the checkpoints on its last axis; the result drops that
    axis.  A series that has underflowed to 1e-13 anywhere in the window is
    flagged with NaN.  For a surviving frequency with imbalance m the
    companion modulus decays like t^-m, so the slope estimates -m.
    """
    ts = np.asarray(ts, dtype=float)
    mask = _trailing(ts)
    window = np.asarray(moduli, dtype=float)[..., mask]
    ok = np.all(window > 1e-13, axis=-1)
    return np.where(ok, fits.loglog_slopes(ts[mask], window), np.nan)


@dataclass(frozen=True)
class LogDecayReport:
    """sup of |alpha| sqrt(log t) over dyadic subwindows of the trailing window."""

    window_times: np.ndarray
    windowed_sups: np.ndarray
    sup_value: float
    max_consecutive_ratio: float

    @property
    def non_diverging(self) -> bool:
        return self.max_consecutive_ratio <= 1.1


def fit_log_decay(ts, vals) -> LogDecayReport:
    """Boundedness report for the balanced-case rate |alpha| <= C / sqrt(log t)."""
    ts = np.asarray(ts, dtype=float)
    vals = np.asarray(vals, dtype=float)
    mask = _trailing(ts)
    ts, vals = ts[mask], vals[mask]
    scaled = vals * np.sqrt(np.log(ts))
    # dyadic subwindows of [T/10, T]
    edges = [ts[0]]
    while edges[-1] * 2.0 < ts[-1] * (1.0 + 1e-12):
        edges.append(edges[-1] * 2.0)
    edges.append(ts[-1] * (1.0 + 1e-12))
    sups, mids = [], []
    for lo, hi in zip(edges[:-1], edges[1:]):
        sel = (ts >= lo) & (ts <= hi)
        if np.any(sel):
            sups.append(float(np.max(scaled[sel])))
            mids.append(float(np.sqrt(lo * hi)))
    sups_arr = np.array(sups)
    ratios = sups_arr[1:] / sups_arr[:-1] if len(sups_arr) > 1 else np.array([1.0])
    return LogDecayReport(
        window_times=np.array(mids),
        windowed_sups=sups_arr,
        sup_value=float(np.max(scaled)),
        max_consecutive_ratio=float(np.max(ratios)),
    )


# ---------------------------------------------------------------------------
# decoupling metrics
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class DecouplingReport:
    """Pointwise-product metrics of the two profiles over the run.

    ``sup_products[i] = max_xi |alpha1 alpha2|`` at checkpoint i and
    ``l2_products`` the dxi-weighted L2 norm of the product; both must decay
    for the limiting supports to disjoin.
    """

    ts: np.ndarray
    sup_products: np.ndarray
    l2_products: np.ndarray

    @property
    def t(self) -> float:
        return float(self.ts[-1])

    @property
    def sup_product(self) -> float:
        return float(self.sup_products[-1])

    @property
    def l2_product(self) -> float:
        return float(self.l2_products[-1])


def decoupling_metric(snapshot: ProfileSnapshot) -> tuple[float, float, float]:
    """(t, sup, L2) of the pointwise profile product at one time."""
    prod = np.abs(snapshot.alpha1 * snapshot.alpha2)
    l2 = math.sqrt(float(snapshot.grid.dxi * np.sum(prod ** 2)))
    return snapshot.t, float(np.max(prod)), l2


def decoupling_history(profiles: list[ProfileSnapshot]) -> DecouplingReport:
    rows = [decoupling_metric(p) for p in profiles]
    ts, sups, l2s = (np.array(col) for col in zip(*rows))
    return DecouplingReport(ts=ts, sup_products=sups, l2_products=l2s)


def profile_bound_history(profiles: list[ProfileSnapshot]) -> np.ndarray:
    """max_xi <xi> |alpha| at each snapshot; should stay uniformly bounded."""
    out = []
    for p in profiles:
        w = np.sqrt(1.0 + p.grid.xi ** 2)
        out.append(float(max(np.max(w * np.abs(p.alpha1)), np.max(w * np.abs(p.alpha2)))))
    return np.array(out)


# ---------------------------------------------------------------------------
# limit-profile reconstruction for surviving frequencies
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class BetaPlusEstimate:
    value: complex
    tail_err: float
    observed_gap: float


def _beta_plus_arrays(ts: np.ndarray, surv: np.ndarray, other_sq: np.ndarray,
                      r_surv: np.ndarray):
    """Vectorised limit reconstruction over the last axis (checkpoints).

    ``surv``: survivor profile samples, shape (..., n_t); ``other_sq``: squared
    modulus of the decaying companion; ``r_surv``: remainder samples for the
    survivor.  Returns (beta, tail_err) of shape (...,).
    """
    # exponent I(s) = int_s^T |alpha_other|^2 dtau/tau, plus fitted tail
    integrand = other_sq / ts
    I = fits.reverse_cumtrapz(ts, integrand)
    n_fit = min(8, len(ts) - 1)
    tail_ts = ts[-n_fit:]
    # a flat or growing fitted tail means the series already hit its floor;
    # fall back to one more decade at the last value
    i_tail, ok = fits.power_tail(tail_ts, other_sq[..., -n_fit:], -1.0)
    i_tail = np.where(ok, i_tail, other_sq[..., -1])
    I_full = I + i_tail[..., None]
    decay = np.exp(-I_full)
    beta = surv[..., 0] * decay[..., 0]
    beta = beta + np.trapezoid(r_surv * decay, ts, axis=-1)
    r_abs = np.abs(r_surv)
    r_tail, ok = fits.power_tail(tail_ts, r_abs[..., -n_fit:], 0.0)
    r_tail = np.where(ok, r_tail, r_abs[..., -1] * ts[-1])
    tail_err = np.abs(surv[..., -1]) * i_tail + r_tail
    return beta, tail_err


def beta_plus_estimate(traj: Trajectory, xi: float, which: int,
                       profiles: list[ProfileSnapshot] | None = None,
                       probes: list[RemainderProbe] | None = None,
                       deadband: float | None = None,
                       gamma: float = DEFAULT_GAMMA) -> BetaPlusEstimate:
    """Limit of the surviving profile at one frequency, with a tail error bar.

    Reconstructs ``alpha(anchor) e^{-I} + quad(R e^{-I})`` where I integrates
    the companion's squared modulus against dtau/tau; the truncated tails are
    estimated from fitted power laws and reported, never silently dropped.
    Rejects frequencies not classified as the requested survivor.
    """
    if which not in (1, 2):
        raise ValueError("which must be 1 or 2")
    if profiles is None:
        profiles = profile_history(traj)
    if probes is None:
        probes = remainder_history(traj, gamma=gamma, profiles=profiles)
    # the whole grid, not only frequency k: the default dead-band is a max
    # over every resolved frequency
    est = estimate_m(traj, profiles, probes, gamma=gamma)
    if deadband is None:
        deadband = est.suggested_deadband
    grid = profiles[0].grid
    k = int(np.argmin(np.abs(grid.xi - xi)))
    wanted = SURVIVOR_1 if which == 1 else SURVIVOR_2
    label = str(classify(est.m_hat[k], deadband))
    if label != wanted:
        raise ValueError(f"frequency {grid.xi[k]:.4g} classified {label}, not {wanted}")

    ts = np.array([p.t for p in profiles])
    alpha = np.array([(p.alpha1[k], p.alpha2[k]) for p in profiles]).T   # (2, n_t)
    r = np.array([(q.r1[k], q.r2[k]) for q in probes]).T
    s, o = which - 1, 2 - which     # survivor and companion rows
    beta, tail = _beta_plus_arrays(ts, alpha[s], np.abs(alpha[o]) ** 2, r[s])
    return BetaPlusEstimate(
        value=complex(beta),
        tail_err=float(tail),
        observed_gap=float(abs(complex(beta) - alpha[s, -1])),
    )


# ---------------------------------------------------------------------------
# full per-frequency report
# ---------------------------------------------------------------------------

def build_case_records(traj: Trajectory,
                       profiles: list[ProfileSnapshot] | None = None,
                       probes: list[RemainderProbe] | None = None,
                       deadband: float | None = None,
                       gamma: float = DEFAULT_GAMMA):
    """Classify every frequency and attach decay fits and limit estimates.

    Returns ``(records, estimates)``.  Decay exponents are fitted for the
    decaying companion at surviving frequencies; limit values are
    reconstructed for the survivor.  All per-frequency work is vectorised.
    """
    if profiles is None:
        profiles = profile_history(traj)
    if probes is None:
        probes = remainder_history(traj, gamma=gamma, profiles=profiles)
    est = estimate_m(traj, profiles, probes, gamma=gamma)
    if deadband is None:
        deadband = est.suggested_deadband
    grid = profiles[0].grid
    ts = np.array([p.t for p in profiles])
    a1 = np.stack([p.alpha1 for p in profiles], axis=-1)   # (n_xi, n_t)
    a2 = np.stack([p.alpha2 for p in profiles], axis=-1)
    r1 = np.stack([q.r1 for q in probes], axis=-1)
    r2 = np.stack([q.r2 for q in probes], axis=-1)

    m = est.m_hat
    labels = classify(m, deadband)
    slope_a2 = decay_exponents(ts, np.abs(a2))
    slope_a1 = decay_exponents(ts, np.abs(a1))

    # tail of the balance-law integrand, as a signed magnitude estimate
    rho = 2.0 * np.real(np.conj(a1) * r1 - np.conj(a2) * r2)
    n_fit = min(8, len(ts) - 1)
    r_tail, ok = fits.power_tail(ts[-n_fit:], np.abs(rho[..., -n_fit:]), 0.0)
    r_tail = np.sign(np.sum(rho[..., -n_fit:], axis=-1)) * np.where(ok, r_tail, 0.0)

    beta1, _ = _beta_plus_arrays(ts, a1, np.abs(a2) ** 2, r1)
    beta2, _ = _beta_plus_arrays(ts, a2, np.abs(a1) ** 2, r2)

    records = []
    for k in range(grid.n_points):
        label = str(labels[k])
        if label == SURVIVOR_1:
            exp_fit = slope_a2[k]
            beta = complex(beta1[k])
        elif label == SURVIVOR_2:
            exp_fit = slope_a1[k]
            beta = complex(beta2[k])
        else:
            exp_fit = np.nan
            beta = None
        records.append(CaseRecord(
            xi=float(grid.xi[k]),
            m_hat=float(m[k]),
            r_tail=float(r_tail[k]),
            case_label=label,
            fitted_exponent=None if np.isnan(exp_fit) else float(exp_fit),
            beta_plus=beta,
        ))
    return records, est
