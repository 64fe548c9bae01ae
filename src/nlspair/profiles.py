"""Fourier-profile extraction and the per-frequency long-time analytics.

The profile of a state u at time t is ``alpha(t, xi) = F[U(-t) u(t)](xi)``:
the spectrum pulled back along the free flow.  For a free solution it is
constant in time; for the coupled system it drifts slowly, and its two
components obey, up to an integrable remainder R,

    d alpha1/dt = -(1/t) |alpha2|^2 alpha1 + R1,
    d alpha2/dt = -(1/t) |alpha1|^2 alpha2 + R2.

Everything here is per-frequency and vectorised across the whole grid; all
inputs are immutable, so the analyses are trivially data-parallel: one pass
runs over blocks of checkpoints on every CPU of the process, and each block
of states is pulled back once for both the profiles and R.  No
``(n_t, 2, N)`` stack is formed: each block of states is read from the
trajectory on its own (from disk, for a stored run), and each block of
profiles, and of the remainder, is reduced while it is in cache to what the
reports read of it.  The balance law of the imbalance, the one reduction
that runs along time, is folded on the calling thread in checkpoint order
as the blocks finish, so no ``(n_t, N)`` array is formed either.
"""

from __future__ import annotations

import os
from collections import deque
from dataclasses import dataclass
from itertools import islice

import numpy as np

from . import fits
from .dynamics import T_MIN, Trajectory, _time_tol
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
class RemainderHistory:
    """What the reports read of the profile-equation remainder R at the
    checkpoints ``ts`` of its profiles; R itself is kept only on the last rows.

    - ``peak[i]``: ``max_xi <xi> |R|`` at ``ts[i]``, the quantity of the
      decay estimate.
    - ``bound_ratio[i]``: ``peak[i] t^(5/4 - 3 GAMMA)`` divided by the cube of
      ``(H^1 norm of u) + (H^1 norm of J u)``; its history over a run should
      stay bounded (the constant in the decay estimate is empirical, never
      asserted).
    - ``m_b`` (``(N,)``): the imbalance ``|alpha1|^2 - |alpha2|^2`` at
      ``ts[0]`` plus the trapezoid quadrature, from ``ts[0]`` to ``ts[-1]``,
      of the balance-law integrand
      ``rho = 2 Re[conj(alpha1) R1 - conj(alpha2) R2]``, at every frequency.
    - ``balance_residual``: the largest miss of the balance law over the
      run, ``max |imbalance(t_i) - imbalance(t_0) - integral_{t_0}^{t_i} rho|``
      over the checkpoints and frequencies.
    - ``r_tail`` (``(n_fit, 2, N)``): R at the last ``n_fit = min(N_FIT,
      n_t - 1)`` checkpoints, at least one, which the survivor's error bar
      fits.

    The arrays are read-only.
    """

    peak: np.ndarray
    bound_ratio: np.ndarray
    m_b: np.ndarray
    balance_residual: float
    r_tail: np.ndarray


@dataclass(frozen=True, eq=False)
class ProfileHistory:
    """What the later stages read of the profiles ``alpha`` at the
    checkpoints ``ts``; neither the ``(n_t, 2, N)`` stack itself nor any
    ``(n_t, N)`` array of it is kept.

    - ``first``, ``last`` (``(2, N)``): the profiles at ``ts[0]`` and
      ``ts[-1]``.
    - ``moduli`` (``(n_w, 2, N)``): ``|alpha|`` on the rows of the trailing
      window ``ts >= ts[-1] / 10``, which the decay fits read.
    - ``sup_products[i]``: ``max_xi |alpha1 alpha2|`` at ``ts[i]``, and
      ``l2_products[i]`` the dxi-weighted L2 norm of that product.
    - ``remainder``: the :class:`RemainderHistory` of the same checkpoints,
      formed in the same pass.

    The arrays are read-only.
    """

    ts: np.ndarray
    grid: Grid
    first: np.ndarray
    last: np.ndarray
    moduli: np.ndarray
    sup_products: np.ndarray
    l2_products: np.ndarray
    remainder: RemainderHistory

    def __len__(self) -> int:
        return len(self.ts)


def _first_row(traj: Trajectory) -> int:
    """Index of the first checkpoint with t >= T_MIN: the rows of the analytics window."""
    return int(np.searchsorted(traj.ts, T_MIN - _time_tol(T_MIN)))


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


def _each_block(fn, blocks: list[slice], fold=None) -> None:
    """Call ``fn`` on every block, on up to one thread per CPU, and
    ``fold``, when given, on each block's result, on the calling thread and
    in block order.

    A fold may return a follow-up, a callable of no arguments: the part of
    its work that need not run in block order.  The follow-up runs on the
    pool (inline, right after its fold, with one worker), at most
    ``workers`` of them are pending at once, and every one has finished
    before return.

    numpy releases the GIL inside its FFTs and ufuncs, each block and each
    follow-up writes only its own rows with per-row reductions, and the
    folds run in block order, so the results do not depend on the number of
    threads.  At most ``2 x workers`` blocks are in flight, submitted but
    not yet folded: the next block is submitted once the earliest is folded,
    and its result dropped, so what is held at any time is the results of
    the blocks in flight and of the pending follow-ups, not of the whole
    run, however slow the fold.  One worker or one block runs inline.  An
    exception a block or a follow-up raises propagates unchanged (the one
    the calling thread meets first: blocks and follow-ups are joined in
    order), the blocks and follow-ups not yet started are cancelled, and the
    pool's threads are joined before return.
    """
    workers = min(_workers(), len(blocks))
    if workers <= 1:
        for result in map(fn, blocks):
            later = fold(result) if fold is not None else None
            if later is not None:
                later()
        return
    # imported here: it would add to the start-up of every CLI call
    from concurrent.futures import ThreadPoolExecutor
    todo = iter(blocks)
    with ThreadPoolExecutor(workers) as pool:
        flight = deque(pool.submit(fn, b) for b in islice(todo, 2 * workers))
        pending = deque()
        try:
            while flight:
                result = flight.popleft().result()
                later = fold(result) if fold is not None else None
                del result
                if later is not None:
                    if len(pending) == workers:
                        pending.popleft().result()
                    pending.append(pool.submit(later))
                    del later
                for b in islice(todo, 1):
                    flight.append(pool.submit(fn, b))
            while pending:
                pending.popleft().result()
        finally:
            for future in (*flight, *pending):
                future.cancel()


def _products(a: np.ndarray, dxi: float):
    """``max_xi |alpha1 alpha2|`` and the dxi-weighted L2 norm of that
    product, per row of a block ``a`` of profiles."""
    prod = np.abs(a[:, 0] * a[:, 1])
    return np.max(prod, axis=-1), np.sqrt(dxi * np.sum(prod ** 2, axis=-1))


def profile_history(traj: Trajectory) -> ProfileHistory:
    """The profiles at every checkpoint with t >= T_MIN (the analytics
    window) and their remainders
    ``R_j = (1/t) |alpha_{3-j}|^2 alpha_j - F U(-t) N_j(u)``, in one pass
    over blocks of the states, reduced to a :class:`ProfileHistory`.

    Per block: one pull-back of both nonlinearities, one of the pair and
    the two transforms of the J-norm on that profile, 4 FFT calls; no
    ``(n_t, 2, N)`` stack of profiles or of R is formed, and the block's
    states are dropped once both pull-backs have read them.  Each block
    indexes only its own rows of ``traj.states``: the states of a stored
    run (``harness.StoredStates``) are read from its files there, on the
    block's thread, once per pass, and the CheckpointError of a file that
    no longer reads back propagates unchanged.

    Each block returns its rows of the imbalance and of the balance-law
    integrand ``rho``, which are folded on the calling thread in checkpoint
    order: the running integral of ``rho`` (``fits.RunningTrapezoid``), the
    first imbalance row and the largest miss of the balance law per row.
    The first row enters ``m_b`` and the misses, and is not kept.  No
    ``(n_t, N)`` array is formed.
    """
    i0 = _first_row(traj)
    ts, grid = traj.ts[i0:], traj.grid
    n_t, n = len(ts), grid.n_points
    w0 = int(np.searchsorted(ts, 0.1 * ts[-1]))     # the trailing window's first row
    tail = n_t - max(1, min(N_FIT, n_t - 1))        # the first row of r_tail
    first, last = (np.empty((2, n), dtype=np.complex128) for _ in range(2))
    moduli = np.empty((n_t - w0, 2, n))
    r_tail = np.empty((n_t - tail, 2, n), dtype=np.complex128)
    sup, l2, peak, h1, jh1 = (np.empty(n_t) for _ in range(5))
    w2 = 1.0 + grid.xi ** 2
    weight = np.sqrt(w2)

    def block(b):
        # only the block's rows: a stored run reads them from its files here
        s, t = traj.states[i0 + b.start:i0 + b.stop], ts[b, None]
        # both pull-backs read the states first, so a stored run's block of
        # them is dropped before the J-norm transforms
        fn = _pull_back(grid, np.abs(s[:, ::-1]) ** 2 * s, t, overwrite_x=True)
        a = _pull_back(grid, s, t)
        del s
        if b.start == 0:
            first[...] = a[0]
        if b.stop == n_t:
            last[...] = a[-1]
        sup[b], l2[b] = _products(a, grid.dxi)
        # |alpha| for the window's moduli, then squared in place: the bits
        # of np.abs(a) ** 2, which the imbalance, H^1 norm and R all read
        sa = np.abs(a)
        lo = max(b.start, w0)
        if lo < b.stop:
            moduli[lo - w0:b.stop - w0] = sa[lo - b.start:]
        np.square(sa, out=sa)
        imbalance = sa[:, 0] - sa[:, 1]
        h1[b] = np.sqrt(grid.dxi * np.sum(w2 * sa, axis=(1, 2)))
        # |F J u| = |F(x F^-1 alpha)| off the Nyquist slot, on the profile
        jh1[b] = np.sqrt(grid.dxi * np.sum(w2 * np.abs(_j_spectrum(grid, a)) ** 2, axis=(1, 2)))
        rb = np.multiply(sa[:, ::-1], a)
        del sa
        # numpy divides a complex by t + 0j as x * (1/t): the same bits, as reals
        parts = rb.view(np.float64)
        parts *= 1.0 / t[..., None]
        rb -= fn
        del fn
        peak[b] = np.max(weight * np.abs(rb), axis=(1, 2))
        rho = 2.0 * np.real(np.conj(a[:, 0]) * rb[:, 0] - np.conj(a[:, 1]) * rb[:, 1])
        lo = max(b.start, tail)
        if lo < b.stop:
            r_tail[lo - tail:b.stop - tail] = rb[lo - b.start:]
        return imbalance, rho

    # the balance law along the checkpoints: the imbalance's first row, the
    # running integral of rho and the largest miss per row
    integral = fits.RunningTrapezoid(ts)
    worst = []
    m_first = None

    def fold(rows):
        nonlocal m_first
        for m, rho in zip(*rows):
            if m_first is None:
                m_first = m.copy()
            miss = m - m_first
            miss -= integral.add(rho)
            worst.append(np.max(np.abs(miss)))

    _each_block(block, _blocks(grid, n_t), fold)
    m_b = m_first + integral.total
    denom = (h1 + jh1) ** 3
    ratio = peak * ts ** (1.25 - 3.0 * GAMMA) / np.where(denom > 0, denom, np.inf)
    for arr in (first, last, moduli, sup, l2, peak, ratio, m_b, r_tail):
        arr.flags.writeable = False
    return ProfileHistory(ts, grid, first, last, moduli, sup, l2,
                          RemainderHistory(peak, ratio, m_b, float(np.max(worst)), r_tail))


def remainder_history(traj: Trajectory, profiles: ProfileHistory) -> RemainderHistory:
    """The :class:`RemainderHistory` of ``traj`` that :func:`profile_history`
    formed beside its ``profiles``: ValueError when those cover other times."""
    if not np.array_equal(profiles.ts, traj.ts[_first_row(traj):]):
        raise ValueError("profiles and checkpoints cover different times")
    return profiles.remainder


# ---------------------------------------------------------------------------
# imbalance estimation and case classification
# ---------------------------------------------------------------------------

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
    # the mask's copy lies time-outermost in memory, so the fit's sums run
    # one checkpoint at a time; a C-ordered window moves fits in the last bits
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
    """The product metrics of ``profiles``."""
    return DecouplingReport(ts=np.array(profiles.ts), sup_products=np.array(profiles.sup_products),
                            l2_products=np.array(profiles.l2_products))


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
    # |R| ~ t^-k; where no integrable power law fits (k <= 1), fall back to
    # |R(T)| T, the tail of k = 2
    k = -fits.loglog_slopes(ts, r_abs)
    r_tail = fits.power_tail(r_abs[..., -1], ts[-1], np.where(k > 1.0, k, 2.0))
    return beta, r_tail + np.abs(m_a - m_b) / (2.0 * np.sqrt(np.abs(m_a)))


# ---------------------------------------------------------------------------
# full per-frequency report
# ---------------------------------------------------------------------------

def build_case_records(profiles: ProfileHistory) -> CaseTable:
    """Classify every frequency and attach decay fits and limit estimates.

    ``profiles`` is the :func:`profile_history` of a run.  Decay exponents
    are fitted for the decaying companion at surviving frequencies; the
    survivor's limit is read from the imbalance at the last checkpoint, with
    an error bar that reports the remainder's fitted tail and the imbalance
    discrepancy, never silently dropped.  All per-frequency work is vectorised.  Raises
    ValueError unless the checkpoints hold an analysable window
    (:func:`check_window`).
    """
    ts = profiles.ts
    window = check_window(ts)
    # m_a is the imbalance at the last checkpoint and m_b the balance law's
    # estimate of it; their gap is read on the frequencies resolved at the start
    probes = profiles.remainder
    m_a, m_b = np.abs(profiles.last[0]) ** 2 - np.abs(profiles.last[1]) ** 2, probes.m_b
    amp0 = np.abs(profiles.first[0]) + np.abs(profiles.first[1])
    resolved = amp0 >= 1e-3 * np.max(amp0)
    disc = float(np.max(np.abs(m_a - m_b)[resolved])) if np.any(resolved) else 0.0
    deadband = max(1e-3, 3.0 * disc)
    labels = classify(m_a, deadband)
    grid = profiles.grid
    # (n_xi, n_fit) views of the remainder's tail: its fits run along time
    r_tail = np.moveaxis(probes.r_tail, 0, -1)
    ts_fit = ts[len(ts) - len(probes.r_tail):]

    # the companion's exponent and the survivor's limit, on that survivor's columns
    exp_fit = np.full(grid.n_points, np.nan)
    beta = np.full(grid.n_points, complex(np.nan, np.nan))
    beta_err = np.full(grid.n_points, np.nan)
    for label, s, o in ((SURVIVOR_1, 0, 1), (SURVIVOR_2, 1, 0)):
        cols = labels == label
        # the companion's moduli, kept on the window's rows only: the window
        # of their own times is all of them
        exp_fit[cols] = decay_exponents(ts[window], profiles.moduli[:, o, cols].T)
        beta[cols], beta_err[cols] = _beta_plus_arrays(ts_fit, profiles.last[s, cols], m_a[cols],
                                                       m_b[cols], r_tail[s][cols])
    return CaseTable(xi=grid.xi, m_a=m_a, m_b=m_b, label=labels,
                     fitted_exponent=exp_fit, beta_plus=beta, beta_tail_err=beta_err,
                     deadband=deadband, discrepancy=disc,
                     balance_residual=probes.balance_residual)
