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

from dataclasses import dataclass

import numpy as np

from . import fits
from .dynamics import T_MIN, Trajectory
from .spectral import Grid, _j_spectrum, _pull_back

SURVIVOR_1 = "survivor_1"
SURVIVOR_2 = "survivor_2"
BALANCED = "balanced"

GAMMA = 1.0 / 24.0  # the remainder estimate's exponent: the middle of the admissible (0, 1/12)

# The analysable window: the analytics read the checkpoints from
# dynamics.T_MIN on; the last must reach T_FINAL, and the decay fits need
# N_WINDOW of them in the trailing window [T/10, T].
T_FINAL = 100.0
N_WINDOW = 8

# the power-law tails of the case table are fitted to the last N_FIT checkpoints
N_FIT = 8

# complex points per block of checkpoint rows in the streamed analytics:
# 2 MiB, so a block's few temporaries fit in cache (4 rows at N = 16384)
_BLOCK_POINTS = 2 ** 17


def check_window(ts) -> np.ndarray:
    """The mask of the trailing window [T/10, T] of the checkpoint times ``ts``;
    ValueError unless they hold an analysable window."""
    ts = np.asarray(ts, dtype=float)
    if ts.size == 0 or ts[-1] < T_FINAL:
        last = f"{ts[-1]:g}" if ts.size else "none"
        raise ValueError(f"run too short: profile analysis needs checkpoints up to "
                         f"t >= {T_FINAL:g}, last checkpoint {last}")
    window = ts >= 0.1 * ts[-1]
    if np.sum(window) < N_WINDOW:
        raise ValueError(f"profile analysis needs at least {N_WINDOW} checkpoints in the "
                         f"trailing window [T/10, T] (T = {ts[-1]:g}), got {np.sum(window)}")
    return window


@dataclass(frozen=True, eq=False)
class ProfileHistory:
    """Profiles at many times: ``alpha[i]`` holds both components at ``ts[i]``."""

    ts: np.ndarray
    alpha: np.ndarray       # (n_t, 2, N), read-only
    grid: Grid

    def __len__(self) -> int:
        return len(self.ts)


def _first_row(traj: Trajectory) -> int:
    """Index of the first checkpoint with t >= T_MIN: the rows of the analytics window."""
    return int(np.searchsorted(traj.ts, T_MIN - 1e-9))


def _blocks(grid: Grid, n_t: int) -> list[slice]:
    """Slices of consecutive checkpoint rows, each about _BLOCK_POINTS complex
    points of a ``(2, N)`` state stack: the analytics stream over them so
    that every temporary is block-sized and stays in cache."""
    rows = max(1, _BLOCK_POINTS // (2 * grid.n_points))
    return [slice(i, min(i + rows, n_t)) for i in range(0, n_t, rows)]


def profile_history(traj: Trajectory) -> ProfileHistory:
    """Profiles at every checkpoint with t >= T_MIN (the analytics window), one block at a time."""
    i0 = _first_row(traj)
    ts = traj.ts[i0:]
    states = traj.states[i0:]
    alpha = np.empty(states.shape, dtype=np.complex128)
    for b in _blocks(traj.grid, len(ts)):
        alpha[b] = _pull_back(traj.grid, states[b], ts[b, None])
    alpha.flags.writeable = False
    return ProfileHistory(ts, alpha, traj.grid)


# ---------------------------------------------------------------------------
# remainder history
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class RemainderHistory:
    """The profile-equation remainder ``r[i]`` (read-only, ``(n_t, 2, N)``) at ``ts[i]``.

    ``bound_ratio[i]`` is ``max_xi <xi> |R| * t^(5/4 - 3 GAMMA)`` divided by
    the cube of ``(H^1 norm of u) + (H^1 norm of J u)``; its history over a
    run should stay bounded (the constant in the decay estimate is
    empirical, never asserted).
    """

    ts: np.ndarray
    r: np.ndarray
    bound_ratio: np.ndarray


def _remainders(grid: Grid, ts: np.ndarray, states: np.ndarray,
                alpha: np.ndarray) -> RemainderHistory:
    """R_j = (1/t) |alpha_{3-j}|^2 alpha_j - F U(-t) N_j(u) on ``(n_t, 2, N)``
    stacks, formed block by block in the rows of ``r``."""
    if np.any(ts < 1.0):
        raise ValueError("remainder probe needs t >= 1")
    w2 = 1.0 + grid.xi ** 2
    weight = np.sqrt(w2)
    r = np.empty(alpha.shape, dtype=np.complex128)
    peak, h1, jh1 = (np.empty(len(ts)) for _ in range(3))
    for b in _blocks(grid, len(ts)):
        s, a, t = states[b], alpha[b], ts[b, None]
        fn = _pull_back(grid, np.abs(s[:, ::-1]) ** 2 * s, t, overwrite_x=True)
        sa = np.abs(a) ** 2
        np.multiply(sa[:, ::-1], a, out=r[b])
        r[b] /= t[..., None]
        r[b] -= fn
        del fn
        peak[b] = np.max(weight * np.abs(r[b]), axis=(1, 2))
        # |F u| = |alpha| and |F J u| = |F(x F^-1 alpha)| off the Nyquist slot,
        # both on the profile
        h1[b] = np.sqrt(grid.dxi * np.sum(w2 * sa, axis=(1, 2)))
        jh1[b] = np.sqrt(grid.dxi * np.sum(w2 * np.abs(_j_spectrum(grid, a)) ** 2, axis=(1, 2)))
    denom = (h1 + jh1) ** 3
    ratio = peak * ts ** (1.25 - 3.0 * GAMMA) / np.where(denom > 0, denom, np.inf)
    r.flags.writeable = False
    return RemainderHistory(ts, r, ratio)


def remainder_history(traj: Trajectory,
                      profiles: ProfileHistory | None = None) -> RemainderHistory:
    """Remainders at every checkpoint with t >= T_MIN, one block of checkpoints at a time.

    ``profiles`` is the :func:`profile_history` over the same checkpoints;
    pass it when already built, so the profiles are not extracted twice.
    """
    if profiles is None:
        profiles = profile_history(traj)
    i0 = _first_row(traj)
    if not np.array_equal(profiles.ts, traj.ts[i0:]):
        raise ValueError("profiles and checkpoints cover different times")
    return _remainders(traj.grid, profiles.ts, traj.states[i0:], profiles.alpha)


# ---------------------------------------------------------------------------
# imbalance estimation and case classification
# ---------------------------------------------------------------------------

def _imbalance(profiles: ProfileHistory, probes: RemainderHistory):
    """The two estimates of the imbalance limit, their gap on the resolved
    frequencies and the balance-law residual: ``(m_a, m_b, discrepancy,
    balance_residual)``.  Its ``(n_t, N)`` temporaries die on return."""
    ts, a, r = profiles.ts, profiles.alpha, probes.r
    vals = np.empty((len(ts), profiles.grid.n_points))
    rho = np.empty_like(vals)
    for b in _blocks(profiles.grid, len(ts)):
        ab, rb = a[b], r[b]
        np.subtract(np.abs(ab[:, 0]) ** 2, np.abs(ab[:, 1]) ** 2, out=vals[b])
        np.multiply(2.0, np.real(np.conj(ab[:, 0]) * rb[:, 0] - np.conj(ab[:, 1]) * rb[:, 1]),
                    out=rho[b])
    # integrate rho along checkpoints for every frequency at once
    integral = fits.cumtrapz_rows(ts, rho)
    m_a = vals[-1].copy()       # not a view: the stack is not kept alive
    m_b = vals[0] + integral[-1]

    # balance-law residual: vals(t) - vals(t0) - int rho should vanish
    vals -= vals[0].copy()
    vals -= integral
    balance_residual = float(np.max(np.abs(vals)))

    amp0 = np.abs(a[0, 0]) + np.abs(a[0, 1])
    resolved = amp0 >= 1e-3 * np.max(amp0)
    disc = float(np.max(np.abs(m_a - m_b)[resolved])) if np.any(resolved) else 0.0
    return m_a, m_b, disc, balance_residual


@dataclass(frozen=True, eq=False)
class CaseTable:
    """The per-frequency verdicts of a run, one length-N column each: which
    component survives at ``xi``, and at what rate.

    ``m_a`` reads the imbalance ``|alpha1|^2 - |alpha2|^2`` at the final
    checkpoint (valid because the tail correction decays); ``m_b`` anchors
    at the first checkpoint and adds the quadrature of
    ``rho = 2 Re[conj(alpha1) R1 - conj(alpha2) R2]``, i.e. it integrates
    the balance law instead of trusting the endpoint.  ``label`` classifies
    ``m_a`` against ``deadband``, by default ``max(1e-3, 3 discrepancy)``
    with ``discrepancy`` the largest ``|m_a - m_b|`` over the resolved
    frequencies.  ``balance_residual`` is the largest miss of the balance
    law over the run.

    ``fitted_exponent`` is NaN where no fit applies (balanced frequencies,
    underflowed companions); ``beta_plus`` (``complex(nan, nan)``) and its
    ``beta_tail_err`` are NaN at balanced frequencies.
    """

    xi: np.ndarray
    m_a: np.ndarray
    m_b: np.ndarray
    label: np.ndarray
    fitted_exponent: np.ndarray
    beta_plus: np.ndarray
    beta_tail_err: np.ndarray
    deadband: float
    discrepancy: float
    balance_residual: float


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

def decay_exponents(ts, moduli) -> np.ndarray:
    """Log-log slopes of profile-modulus series over the trailing window.

    ``moduli`` has the checkpoints on its last axis; the result drops that
    axis.  A series that has underflowed to 1e-13 anywhere in the window is
    flagged with NaN.  For a surviving frequency with imbalance m the
    companion modulus decays like t^-m, so the slope estimates -m.  Raises
    ValueError unless ``ts`` hold an analysable window (:func:`check_window`).
    """
    mask = check_window(ts)
    ts = np.asarray(ts, dtype=float)
    window = np.asarray(moduli, dtype=float)[..., mask]
    ok = np.all(window > 1e-13, axis=-1)
    return np.where(ok, fits.loglog_slopes(ts[mask], window), np.nan)


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


def decoupling_history(profiles: ProfileHistory) -> DecouplingReport:
    prod = np.abs(profiles.alpha[:, 0] * profiles.alpha[:, 1])     # (n_t, N)
    return DecouplingReport(ts=np.array(profiles.ts), sup_products=np.max(prod, axis=-1),
                            l2_products=np.sqrt(profiles.grid.dxi * np.sum(prod ** 2, axis=-1)))


# ---------------------------------------------------------------------------
# limit-profile reconstruction for surviving frequencies
# ---------------------------------------------------------------------------

def _beta_plus_arrays(ts: np.ndarray, surv: np.ndarray, other_sq: np.ndarray,
                      r_surv: np.ndarray, fit: slice):
    """Vectorised limit reconstruction over the last axis (checkpoints).

    ``surv``: survivor profile samples, shape (..., n_t); ``other_sq``: squared
    modulus of the decaying companion; ``r_surv``: remainder samples for the
    survivor; ``fit``: the checkpoints of the tail fits.  Returns
    ``alpha(anchor) e^{-I} + quad(R e^{-I})``, where I integrates the
    companion's squared modulus against dtau/tau, and the error bar of the
    truncated tails, both of shape (...,).
    """
    # exponent I(s) = int_s^T |alpha_other|^2 dtau/tau, plus fitted tail
    I = fits.reverse_cumtrapz(ts, other_sq / ts)
    tail_ts = ts[fit]
    # a flat or growing fitted tail means the series already hit its floor;
    # fall back to one more decade at the last value
    i_tail, ok = fits.power_tail(tail_ts, other_sq[..., fit], -1.0)
    i_tail = np.where(ok, i_tail, other_sq[..., -1])
    I += i_tail[..., None]
    decay = np.exp(np.negative(I, out=I), out=I)      # e^{-I}, in place
    beta = surv[..., 0] * decay[..., 0]
    beta = beta + np.trapezoid(r_surv * decay, ts, axis=-1)
    r_abs = np.abs(r_surv[..., fit])
    r_tail, ok = fits.power_tail(tail_ts, r_abs, 0.0)
    r_tail = np.where(ok, r_tail, r_abs[..., -1] * ts[-1])
    tail_err = np.abs(surv[..., -1]) * i_tail + r_tail
    return beta, tail_err


# ---------------------------------------------------------------------------
# full per-frequency report
# ---------------------------------------------------------------------------

def build_case_records(traj: Trajectory,
                       profiles: ProfileHistory | None = None,
                       probes: RemainderHistory | None = None,
                       deadband: float | None = None) -> CaseTable:
    """Classify every frequency and attach decay fits and limit estimates.

    Decay exponents are fitted for the decaying companion at surviving
    frequencies; limit values are reconstructed for the survivor; the
    truncated tails are estimated from fitted power laws and reported, never
    silently dropped.  All per-frequency work is vectorised.  Raises
    ValueError unless the checkpoints hold an analysable window
    (:func:`check_window`).
    """
    if profiles is None:
        profiles = profile_history(traj)
    ts = profiles.ts
    check_window(ts)
    if probes is None:
        probes = remainder_history(traj, profiles=profiles)
    if not np.array_equal(probes.ts, ts):
        raise ValueError("profiles and probes must cover the same checkpoints")
    m_a, m_b, disc, balance_residual = _imbalance(profiles, probes)
    if deadband is None:
        deadband = max(1e-3, 3.0 * disc)
    labels = classify(m_a, deadband)
    grid = profiles.grid
    # (n_xi, n_t) views: the fits run along the time axis, where it lies
    a1, a2 = np.moveaxis(profiles.alpha, 0, -1)
    r1, r2 = np.moveaxis(probes.r, 0, -1)

    fit = slice(-min(N_FIT, len(ts) - 1), None)
    # the companion's exponent and the survivor's limit, on that survivor's columns
    exp_fit = np.full(grid.n_points, np.nan)
    beta = np.full(grid.n_points, complex(np.nan, np.nan))
    beta_err = np.full(grid.n_points, np.nan)
    for label, s, o, r in ((SURVIVOR_1, a1, a2, r1), (SURVIVOR_2, a2, a1, r2)):
        cols = labels == label
        companion = np.abs(o[cols])
        exp_fit[cols] = decay_exponents(ts, companion)
        beta[cols], beta_err[cols] = _beta_plus_arrays(ts, s[cols], companion ** 2, r[cols], fit)
    return CaseTable(xi=grid.xi, m_a=m_a, m_b=m_b, label=labels,
                     fitted_exponent=exp_fit, beta_plus=beta, beta_tail_err=beta_err,
                     deadband=deadband, discrepancy=disc, balance_residual=balance_residual)
