"""Fourier-profile extraction and the per-frequency long-time analytics.

The profile of a state u at time t is ``alpha(t, xi) = F[U(-t) u(t)](xi)``:
the spectrum pulled back along the free flow.  For a free solution it is
constant in time; for the coupled system it drifts slowly, and its two
components obey, up to an integrable remainder R,

    d alpha1/dt = -(1/t) |alpha2|^2 alpha1 + R1,
    d alpha2/dt = -(1/t) |alpha1|^2 alpha2 + R2.

Everything here is per-frequency and vectorised across the whole grid; all
inputs are immutable, so the analyses are trivially data-parallel: the
histories run over blocks of checkpoints on every CPU of the process.
"""

from __future__ import annotations

import os
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

# the remainder's power-law tail beyond the last checkpoint is fitted to the
# last N_FIT checkpoints
N_FIT = 8

# complex points in flight in the streamed analytics, shared by the blocks of
# checkpoint rows that run at once: 2 MiB, so the blocks' few temporaries fit
# in cache (2 rows per block at N = 16384 on 2 CPUs)
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


def _workers() -> int:
    """The number of CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:      # no affinity call on this platform
        return os.cpu_count() or 1


def _blocks(grid: Grid, n_t: int) -> list[slice]:
    """Slices of consecutive checkpoint rows, each about ``_BLOCK_POINTS``
    complex points of a ``(2, N)`` state stack shared among the workers: the
    analytics stream over them so that every temporary is block-sized and
    stays in cache."""
    rows = max(1, _BLOCK_POINTS // (_workers() * 2 * grid.n_points))
    return [slice(i, min(i + rows, n_t)) for i in range(0, n_t, rows)]


def _each_block(fn, blocks: list[slice]) -> None:
    """Call ``fn`` on every block, on up to one thread per CPU.

    numpy releases the GIL inside its FFTs and ufuncs, and each block writes
    only its own rows with per-row reductions, so the results do not depend
    on the number of threads.  One worker or one block runs inline.  An
    exception a block raises propagates unchanged (the earliest block's, if
    several raise), and the pool's threads are joined before return.
    """
    workers = min(_workers(), len(blocks))
    if workers <= 1:
        for b in blocks:
            fn(b)
        return
    # imported here: it would add to the start-up of every CLI call
    from concurrent.futures import ThreadPoolExecutor
    with ThreadPoolExecutor(workers) as pool:
        for _ in pool.map(fn, blocks):
            pass


def profile_history(traj: Trajectory) -> ProfileHistory:
    """Profiles at every checkpoint with t >= T_MIN (the analytics window), block by block."""
    i0 = _first_row(traj)
    ts = traj.ts[i0:]
    states = traj.states[i0:]
    alpha = np.empty(states.shape, dtype=np.complex128)

    def block(b):
        alpha[b] = _pull_back(traj.grid, states[b], ts[b, None])

    _each_block(block, _blocks(traj.grid, len(ts)))
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


def remainder_history(traj: Trajectory, profiles: ProfileHistory) -> RemainderHistory:
    """Remainders ``R_j = (1/t) |alpha_{3-j}|^2 alpha_j - F U(-t) N_j(u)`` at
    every checkpoint with t >= T_MIN, block by block in the rows of ``r``.

    ``profiles`` is the :func:`profile_history` of ``traj``; ValueError when
    it covers other times.
    """
    i0 = _first_row(traj)
    ts, alpha, states, grid = profiles.ts, profiles.alpha, traj.states[i0:], traj.grid
    if not np.array_equal(ts, traj.ts[i0:]):
        raise ValueError("profiles and checkpoints cover different times")
    if np.any(ts < 1.0):
        raise ValueError("remainder probe needs t >= 1")
    w2 = 1.0 + grid.xi ** 2
    weight = np.sqrt(w2)
    r = np.empty(alpha.shape, dtype=np.complex128)
    peak, h1, jh1 = (np.empty(len(ts)) for _ in range(3))

    def block(b):
        s, a, t = states[b], alpha[b], ts[b, None]
        fn = _pull_back(grid, np.abs(s[:, ::-1]) ** 2 * s, t, overwrite_x=True)
        sa = np.abs(a) ** 2
        rb = np.multiply(sa[:, ::-1], a, out=r[b])
        # numpy divides a complex by t + 0j as x * (1/t): the same bits, as reals
        parts = rb.view(np.float64)
        parts *= 1.0 / t[..., None]
        rb -= fn
        del fn
        peak[b] = np.max(weight * np.abs(rb), axis=(1, 2))
        # |F u| = |alpha| and |F J u| = |F(x F^-1 alpha)| off the Nyquist slot,
        # both on the profile
        h1[b] = np.sqrt(grid.dxi * np.sum(w2 * sa, axis=(1, 2)))
        jh1[b] = np.sqrt(grid.dxi * np.sum(w2 * np.abs(_j_spectrum(grid, a)) ** 2, axis=(1, 2)))

    _each_block(block, _blocks(grid, len(ts)))
    denom = (h1 + jh1) ** 3
    ratio = peak * ts ** (1.25 - 3.0 * GAMMA) / np.where(denom > 0, denom, np.inf)
    r.flags.writeable = False
    return RemainderHistory(ts, r, ratio)


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

    def block(b):
        ab, rb = a[b], r[b]
        np.subtract(np.abs(ab[:, 0]) ** 2, np.abs(ab[:, 1]) ** 2, out=vals[b])
        np.multiply(2.0, np.real(np.conj(ab[:, 0]) * rb[:, 0] - np.conj(ab[:, 1]) * rb[:, 1]),
                    out=rho[b])

    _each_block(block, _blocks(profiles.grid, len(ts)))
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
    ``m_a`` against ``deadband = max(1e-3, 3 discrepancy)``, with
    ``discrepancy`` the largest ``|m_a - m_b|`` over the resolved
    frequencies.  ``balance_residual`` is the largest miss of the balance
    law over the run.

    ``fitted_exponent`` is NaN where no fit applies (balanced frequencies,
    underflowed companions).  ``beta_plus`` is the survivor's limit profile
    ``alpha_s(T) sqrt(|m_a|) / |alpha_s(T)|``: the modulus from the
    imbalance, the phase from the last checkpoint T.  Its error bar
    ``beta_tail_err`` is the remainder's fitted tail beyond T plus
    ``|m_a - m_b| / (2 sqrt|m_a|)``.  Both are NaN (``complex(nan, nan)``)
    at balanced frequencies.
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


def decoupling_history(profiles: ProfileHistory) -> DecouplingReport:
    prod = np.abs(profiles.alpha[:, 0] * profiles.alpha[:, 1])     # (n_t, N)
    return DecouplingReport(ts=np.array(profiles.ts), sup_products=np.max(prod, axis=-1),
                            l2_products=np.sqrt(profiles.grid.dxi * np.sum(prod ** 2, axis=-1)))


# ---------------------------------------------------------------------------
# limit-profile reconstruction for surviving frequencies
# ---------------------------------------------------------------------------

def _beta_plus_arrays(ts: np.ndarray, surv: np.ndarray, m_a: np.ndarray,
                      m_b: np.ndarray, r_surv: np.ndarray):
    """The survivor's limit ``beta+`` and its error bar on survivor columns.

    ``surv``: the survivor's profile at the last checkpoint T; ``m_a``,
    ``m_b``: the two imbalance estimates; ``r_surv``: the survivor's
    remainder at the checkpoints ``ts`` of the tail fit, on the last axis.
    Where the companion dies the imbalance tends to ``|beta+|^2``, so the
    limit takes its modulus ``sqrt|m_a|`` from the conserved imbalance and
    its phase from T.  The error bar is the remainder's fitted tail beyond
    T, ``integral_T^inf |R| dt``, plus the imbalance discrepancy carried
    through the square root, ``|m_a - m_b| / (2 sqrt|m_a|)``.  A survivor
    column has ``|surv|^2 >= |m_a| > deadband``, so nothing divides by zero.
    """
    beta = surv * np.sqrt(np.abs(m_a) / np.abs(surv) ** 2)
    r_abs = np.abs(r_surv)
    # no integrable power law fits the tail: fall back to |R(T)| T
    r_tail, ok = fits.power_tail(ts, r_abs)
    r_tail = np.where(ok, r_tail, r_abs[..., -1] * ts[-1])
    return beta, r_tail + np.abs(m_a - m_b) / (2.0 * np.sqrt(np.abs(m_a)))


# ---------------------------------------------------------------------------
# full per-frequency report
# ---------------------------------------------------------------------------

def build_case_records(profiles: ProfileHistory, probes: RemainderHistory) -> CaseTable:
    """Classify every frequency and attach decay fits and limit estimates.

    ``profiles`` and ``probes`` are the :func:`profile_history` and
    :func:`remainder_history` of one run.  Decay exponents are fitted for
    the decaying companion at surviving frequencies; the survivor's limit is
    read from the imbalance at the last checkpoint, with an error bar that
    reports the remainder's fitted tail and the imbalance discrepancy, never
    silently dropped.  All per-frequency work is vectorised.  Raises
    ValueError unless the checkpoints hold an analysable window
    (:func:`check_window`) that both histories cover.
    """
    ts = profiles.ts
    check_window(ts)
    if not np.array_equal(probes.ts, ts):
        raise ValueError("profiles and probes must cover the same checkpoints")
    m_a, m_b, disc, balance_residual = _imbalance(profiles, probes)
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
        exp_fit[cols] = decay_exponents(ts, np.abs(o[cols]))
        beta[cols], beta_err[cols] = _beta_plus_arrays(ts[fit], s[cols, -1], m_a[cols],
                                                       m_b[cols], r[cols, fit])
    return CaseTable(xi=grid.xi, m_a=m_a, m_b=m_b, label=labels,
                     fitted_exponent=exp_fit, beta_plus=beta, beta_tail_err=beta_err,
                     deadband=deadband, discrepancy=disc, balance_residual=balance_residual)
