"""Final-state construction and its obstruction probe.

Given prescribed scattering data ``psi+`` with pointwise-disjoint spectral
supports, a solution converging to ``U(t) psi+`` is built as the fixed point
of

    Phi[v](t) = U(t) psi+  -  int_t^inf U(t - tau) N(v(tau)) dtau,

iterated on a log-spaced time grid of [T, T_max].  The leading asymptotic
wave is ``w# = M D F psi+`` (explicitly ``(i t)^{-1/2} e^{i x^2/2t}
psi_hat(x/t)``); for decoupled data the nonlinearity of w# vanishes
identically, which is what makes the integral converge.

When the prescribed spectra overlap, the dyadic profile increments
``d(t) = || alpha(2t) - alpha(t) ||_L2`` stagnate near ``eta log 2`` with
``eta = min_j ||N_j(psi_hat)||_L2`` instead of vanishing; the probe measures
exactly that.
"""

from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import dataclass, field
from functools import partial

import numpy as np

from . import fits
from .dynamics import SolverConfig, Trajectory, _inner_half_width, _time_tol, run
from .errors import ConfigError, PicardDivergence
from .profiles import _blocks, _each_block
from .spectral import (
    SQRT_2PI,
    Grid,
    _inverse_array,
    _mirror,
    _profile_multiplier,
    _pull_back,
    _push_forward,
)

DECOUPLED_TOL = 1e-14


# ---------------------------------------------------------------------------
# spectrum construction
# ---------------------------------------------------------------------------

def _smooth_rise(u: np.ndarray) -> np.ndarray:
    """C-infinity step: 0 for u <= 0, 1 for u >= 1."""
    out = np.zeros_like(u)
    inside = (u > 0) & (u < 1)
    with np.errstate(over="ignore", divide="ignore"):
        ui = u[inside]
        a = np.exp(-1.0 / ui)
        b = np.exp(-1.0 / (1.0 - ui))
        out[inside] = a / (a + b)
    out[u >= 1] = 1.0
    return out


def _eval_entry(entry: dict, xi: np.ndarray) -> np.ndarray:
    kind = entry.get("kind")
    if kind == "window":
        lo, hi, amp = float(entry["lo"]), float(entry["hi"]), float(entry["amp"])
        plateau = float(entry.get("plateau", 0.5))
        if not (hi > lo and 0 < plateau < 1):
            raise ValueError(f"bad window entry {entry!r}")
        edge = 0.5 * (1.0 - plateau) * (hi - lo)
        rise = _smooth_rise((xi - lo) / edge)
        fall = _smooth_rise((hi - xi) / edge)
        return amp * np.minimum(rise, fall)
    if kind == "gauss":
        c, sig, amp = float(entry.get("center", 0.0)), float(entry["sigma"]), float(entry["amp"])
        return amp * np.exp(-0.5 * ((xi - c) / sig) ** 2)
    raise ValueError(f"unknown spectrum entry kind {entry.get('kind')!r}")


def _spectrum_fn(entries1: list[dict], entries2: list[dict]):
    """The evaluator of both spectra: frequencies ``(..., len)`` to ``(..., 2, len)``."""
    def spectrum(xi):
        xi = np.asarray(xi, dtype=float)
        out = np.zeros(xi.shape[:-1] + (2,) + xi.shape[-1:])
        for j, entries in enumerate((entries1, entries2)):
            for e in entries:
                out[..., j, :] += _eval_entry(e, xi)
        return out
    return spectrum


@dataclass(frozen=True)
class FinalStateSpec:
    """Prescribed scattering data: the read-only ``(2, N)`` spectra ``psi_hat``
    on the grid plus their analytic evaluator ``spectrum``.

    ``delta`` is the sup of the spectra, ``kappa`` the x-weighted Sobolev
    size ``||<x>^{s0} psi||_L2`` with ``s0 = min(2, s)``, and ``mu`` the
    contraction-norm exponent, ``(s0-1)/4``: the middle of its admissible
    range ``(0, (s0-1)/2)``.
    """

    grid: Grid
    psi_hat: np.ndarray
    s: float
    delta: float
    kappa: float
    decoupled: bool
    spectrum: object = field(repr=False, compare=False)

    @property
    def s0(self) -> float:
        return min(2.0, self.s)

    @property
    def mu(self) -> float:
        return 0.25 * (self.s0 - 1.0)


def build_final_state(grid: Grid, entries1: list[dict], entries2: list[dict],
                      s: float = 2.0) -> FinalStateSpec:
    """Assemble prescribed data from smooth spectral windows or Gaussians.

    Disjoint windows give decoupled data (pointwise product identically
    zero); overlapping entries are allowed deliberately, for the obstruction
    probe.
    """
    if s <= 1.0:
        raise ValueError("need spectral regularity s > 1")
    spectrum = _spectrum_fn(entries1, entries2)
    psi = spectrum(grid.xi)
    psi_hat = psi.astype(complex)
    psi_hat.flags.writeable = False
    w = (1.0 + grid.x ** 2) ** (0.5 * min(2.0, s))
    k_sq = grid.dx * np.sum(np.abs(w * _inverse_array(grid, psi_hat)) ** 2, axis=-1)
    return FinalStateSpec(
        grid=grid, psi_hat=psi_hat, s=float(s), delta=float(np.max(np.abs(psi))),
        kappa=math.hypot(*np.sqrt(k_sq).tolist()),
        decoupled=bool(np.max(np.abs(psi[0] * psi[1])) <= DECOUPLED_TOL), spectrum=spectrum,
    )


# ---------------------------------------------------------------------------
# leading wave and remainder
# ---------------------------------------------------------------------------

def _w_sharp_arrays(spec: FinalStateSpec, t):
    """The ``(2, N)`` leading wave ``w# = M D F psi+`` at a time, or its
    ``(n_t, 2, N)`` stack when ``t`` is an array of times.

    ``w#`` keeps the exact L2 norm of psi+ and has sup norm
    ``delta / sqrt(t)``; the remainder ``U(t) psi+ - w#`` decays like
    ``t^(-s0/2)`` in L2 and ``t^(-(s0-1)/2)`` after J.

    ``psi_hat(x/t)`` is evaluated on the whole grid, but the scale, the
    chirp and their product only on each row's support: the contiguous
    range of nodes from the first to the last at which either component of
    ``psi_hat(x/t)`` is nonzero.  They are the same ufuncs on slices, so
    the values there are the whole-grid formula's, and the rest is zero.
    """
    g = spec.grid
    t = np.asarray(t, dtype=float)[..., None]
    rows = t.reshape(-1, 1)
    psi = spec.spectrum(g.x / rows)
    scale = 1.0 / np.sqrt(1j * rows)
    out = np.zeros(psi.shape, dtype=np.complex128)
    for i, on in enumerate(np.any(psi != 0, axis=1)):
        nz = np.flatnonzero(on)
        if nz.size:
            sl = slice(nz[0], nz[-1] + 1)
            chirp = np.exp(0.5j * g.x[sl] ** 2 / rows[i])
            np.multiply((scale[i] * chirp)[None, :], psi[i, :, sl], out=out[i, :, sl])
    return out.reshape(t.shape[:-1] + psi.shape[1:])


# ---------------------------------------------------------------------------
# Picard iteration
# ---------------------------------------------------------------------------

@dataclass
class PicardState:
    """Iteration record: the sample times, the current ``(n_t, 2, N)``
    iterate ``v`` and the contraction history.  ``taus[0]`` is the start
    time T of the construction, so ``v[0]`` is the ``(2, N)`` state at T."""

    taus: np.ndarray
    v: np.ndarray
    iterate_index: int
    distances: list[float]
    ratios: list[float]
    converged: bool


def _nyquist(grid: Grid, u: np.ndarray) -> np.ndarray:
    """The Nyquist mode of ``F u`` per row of raw x-space samples, which every
    profile drops: a rank-one alternating sum."""
    return (grid.dx / SQRT_2PI) * (u @ grid._sign)


def _sq_rows(a: np.ndarray) -> np.ndarray:
    """``sum |a|^2`` along the last axis of a C-contiguous complex stack."""
    f = a.view(np.float64)
    return np.einsum("...i,...i->...", f, f)


def _profile_sq(grid: Grid, dalpha: np.ndarray, nyq: np.ndarray | None = None):
    """``(||d||^2, ||J d||^2)`` per row of a difference ``d`` of iterates, read
    off its profile ``dalpha`` (Nyquist slot zeroed), which it overwrites.

    ``||d||`` is Plancherel on the profile, plus ``nyq``, the Nyquist mode of
    ``d`` itself, when ``d`` has one.  ``F J d`` is ``F(x phi)`` with
    ``phi = F^-1 dalpha`` and the Nyquist slot dropped, so ``||J d||^2`` is
    ``||x phi||^2`` less that mode, both from one IFFT: ``psi = ifft(dalpha)``
    is ``phi`` up to the signs ``(-1)^n``, a half-period shift of ``x`` and
    the factor ``N dxi / sqrt(2 pi)``.
    """
    l2_sq = grid.dxi * _sq_rows(dalpha)
    if nyq is not None:
        l2_sq += grid.dxi * np.abs(nyq) ** 2
    psi = np.fft.ifft(dalpha, axis=-1, out=dalpha)
    psi *= np.fft.ifftshift(grid.x)
    scale = grid.n_points * grid.dxi / SQRT_2PI
    j_sq = grid.dx * scale ** 2 * _sq_rows(psi) - grid.dxi * np.abs(psi.sum(axis=-1)) ** 2
    return l2_sq, np.maximum(j_sq, 0.0)


def _xt_sup(taus: np.ndarray, mu: float, l2_sq: np.ndarray, j_sq: np.ndarray) -> float:
    """sup over samples of t^(mu+1/2) ||d||_L2 + t^mu ||J d||_L2 from the
    ``(n_time, 2)`` :func:`_profile_sq` of a difference ``d`` of stacks."""
    l2 = np.sqrt(l2_sq[:, 0] + l2_sq[:, 1])
    j = np.sqrt(j_sq[:, 0] + j_sq[:, 1])
    return float(np.max(taus ** (mu + 0.5) * l2 + taus ** mu * j))


def _check_box(spec: FinalStateSpec, T_max: float) -> None:
    """Reject a time grid on which the free waves of psi+ reach the guard's
    edge bands: frequency xi travels to x = xi t, and the box is periodic."""
    g = spec.grid
    support = np.any(spec.psi_hat != 0, axis=0)
    reach = float(np.max(np.abs(g.xi[support]), initial=0.0)) * T_max
    limit = _inner_half_width(g)
    if reach > limit:
        raise ConfigError(f"the spectral support travels {reach:.6g} by T_max = {T_max:g}, "
                          f"past the box's edge bands at {limit:.6g}; "
                          f"enlarge the box or lower T_max")


def _picard_iterate(spec: FinalStateSpec, taus: np.ndarray,
                    start: Callable[[np.ndarray], np.ndarray],
                    max_iters: int, tol: float) -> PicardState:
    """Iterate the fixed-point map from the start ``start(t)``, the ``(n_t, 2,
    N)`` x-space stack at an array of sample times, built one block of
    ``taus`` at a time.

    Work happens in the pulled-back frame: with G(tau) = F U(-tau) N(v(tau)),
    Phi[v](t) = U(t) F^-1 [psi_hat + int_t^inf G].  The plus sign is forced
    by the equation: differentiating shows U(t)psi + int_t^inf U(t-tau) N dtau
    is what solves du/dt = (i/2) u_xx - N(u); the minus variant solves the
    sign-flipped system and its forward evolution never scatters to psi+.
    For decoupled data N(w#) is identically zero on the grid, so truncating
    the integral at T_max leaves only the decaying difference part.

    One ``(n_time, 2, N)`` stack holds the iterate's profiles.  The
    free-flow table is held as its signed half spectrum, ``(n_time, 1,
    N/2)``, and each block mirrors its rows once for both its push-forward
    and its pull-back.  The x-space iterate lives one block at a time.

    Each application of the map runs over blocks of consecutive sample
    times from ``T_max`` backward.  ``pull(b)`` forms the block's x-space
    iterate, the start on the first application and the push-forward of
    its profiles after that, and pulls back its ``N(v)`` on the analytics'
    pool; on the first application it also returns the start's Nyquist
    mode, which enters the first distance.  A block whose ``N(v)`` vanishes
    identically, as ``N(w#)`` of decoupled data does, pulls back to zeros
    without a transform.  ``fold`` takes the blocks on the calling thread in
    the same order and keeps only what couples the sample times: it carries
    the tail integral ``int_t^{T_max} G`` row by row in a
    ``fits.RunningTrapezoid`` at ``-taus[::-1]``, adds ``psi_hat`` and
    zeroes the Nyquist slot.  It hands the rest back to the pool as its
    follow-up, ``settle``: the difference of the new and old profiles is
    formed in the block's own rows of the stack, the distance is read off
    it, and the new profiles are written there.  A block's old profiles are
    read only by its own pull-back, which has returned, and by that
    distance, and every follow-up is joined before the distance is taken.
    Every other step is per row, so the result does not depend on the
    blocks or the threads.  The final iterate is pushed forward block by
    block into the same stack, which becomes ``PicardState.v``.
    """
    if max_iters < 1:
        raise ValueError("need max_iters >= 1: the iterate is built by the map")
    g = spec.grid
    n_t, half = len(taus), g._nyq_fft
    alpha = np.empty((n_t, 2, g.n_points), dtype=np.complex128)
    # one table for every transform of the construction, since the times are
    # fixed, kept as its signed half spectrum; the start fills it block by block
    halves = np.empty((n_t, 1, half), dtype=np.complex128)
    l2_sq = np.empty((n_t, 2))
    j_sq = np.empty((n_t, 2))

    def forward(b):
        table = _mirror(g, halves[b])
        return _push_forward(g, alpha[b], taus[b, None], table), table

    def pull(b):
        nyq = None
        if k == 1:
            table = _profile_multiplier(g, taus[b])[:, None]
            halves[b] = table[..., half:]
            v = start(taus[b])
            nyq = _nyquist(g, v)      # w#, say, is not band-limited
            alpha[b] = _pull_back(g, v, taus[b, None], table)
        else:
            v, table = forward(b)
        # N_j(v) = |v_k|^2 v_j, k the other component; a vanishing one
        # (w# of decoupled data) pulls back to zeros without a transform
        nv = np.multiply(np.abs(v[:, ::-1]) ** 2, v)
        if not nv.any():
            nv.fill(0.0)
            return b, nv, nyq
        return b, _pull_back(g, nv, taus[b, None], table, overwrite_x=True), nyq

    def fold(result):
        b, pulled, nyq = result
        new = np.empty_like(pulled)
        for i in range(len(pulled) - 1, -1, -1):
            np.add(tail.add(pulled[i]), spec.psi_hat, out=new[i])
        new[..., 0] = 0.0
        return partial(settle, b, new, nyq)

    def settle(b, new, nyq):
        # the distance of the iterates is read off their profiles, with the
        # difference formed in the old profiles' rows, which then take the new
        l2_sq[b], j_sq[b] = _profile_sq(g, np.subtract(new, alpha[b], out=alpha[b]), nyq)
        alpha[b] = new

    def final(b):
        alpha[b] = forward(b)[0]

    distances: list[float] = []
    ratios: list[float] = []
    converged = False
    k = 0
    for k in range(1, max_iters + 1):
        tail = fits.RunningTrapezoid(-taus[::-1])
        _each_block(pull, _blocks(g, n_t)[::-1], fold)
        d = _xt_sup(taus, spec.mu, l2_sq, j_sq)
        distances.append(d)
        if len(distances) > 1 and distances[-2] > 0:
            ratios.append(d / distances[-2])
        if d < tol:
            converged = True
            break
        if len(ratios) >= 2 and ratios[-1] > 0.9 and ratios[-2] > 0.9:
            break
    # the iterate is the push-forward of the last profiles, into their stack
    _each_block(final, _blocks(g, n_t))
    return PicardState(taus=taus, v=alpha, iterate_index=k, distances=distances,
                       ratios=ratios, converged=converged)


def picard_construct(spec: FinalStateSpec, T: float, T_max: float,
                     max_iters: int, tol: float, n_time: int) -> PicardState:
    """Fixed-point construction of the solution scattering to decoupled psi+.

    Starts from the leading wave, iterates the integral map at most
    ``max_iters`` times on ``n_time`` log-spaced samples of [T, T_max], and
    stops when successive iterates are closer than ``tol`` in the weighted
    sup norm.  Raises :class:`PicardDivergence` when
    the contraction ratio stays above 0.9 (amplitude too large or T too
    small); rejects non-decoupled data outright, fewer than two samples and
    a non-finite ``T``, ``T_max`` or ``tol`` with ValueError, and raises
    ConfigError before any compute when the free waves reach the box's edge
    bands by ``T_max``.
    """
    if not spec.decoupled:
        raise ValueError("final state is not decoupled; use obstruction_probe instead")
    for name, value in (("T", T), ("T_max", T_max), ("tol", tol)):
        if not math.isfinite(value):
            raise ValueError(f"need a finite {name}, got {value!r}")
    if n_time < 2:
        raise ValueError(f"need n_time >= 2 samples for the tail integral, got {n_time!r}")
    if T < 1.0:
        raise ValueError("need T >= 1")
    if T_max < 10.0 * T:
        raise ValueError("need T_max >= 10 T")
    _check_box(spec, T_max)
    taus = np.geomspace(T, T_max, n_time)
    state = _picard_iterate(spec, taus, partial(_w_sharp_arrays, spec), max_iters, tol)
    if not state.converged and state.ratios and state.ratios[-1] > 0.9:
        raise PicardDivergence(
            f"no contraction after {state.iterate_index} iterations "
            f"(last ratio {state.ratios[-1]:.3f}); reduce the amplitude or increase T"
        )
    return state


# ---------------------------------------------------------------------------
# verification and obstruction
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ScatteringReport:
    ts: np.ndarray
    errors: np.ndarray
    fitted_slope: float | None
    slope_bound: float

    @property
    def passed(self) -> bool:
        if self.fitted_slope is None:      # error at the noise floor: trivially scattering
            return True
        return self.fitted_slope <= self.slope_bound


def verify_scattering(traj: Trajectory, spec: FinalStateSpec) -> ScatteringReport:
    """Fit the decay of ||u(t) - U(t) psi+||_L2 along a forward trajectory.

    The fitted slope must reach ``-min(1/2 + mu, s0/2)`` within a 0.15
    slack.  Errors below the scheme floor (1e-8 of the data size) make the
    fit meaningless and count as trivially passing.

    The errors are formed one checkpoint at a time, each against the free
    wave at its own time, so no ``(n_t, 2, N)`` stack of free waves or of
    differences is held; each is bitwise the whole-stack formula's.
    """
    g = spec.grid
    ts_arr = traj.ts
    errs_arr = np.empty(len(ts_arr))
    for i, t in enumerate(ts_arr):
        d = traj.states[i] - _push_forward(g, spec.psi_hat, t)
        errs_arr[i] = np.sqrt(g.dx * np.sum(np.abs(d) ** 2))
    floor = 1e-8 * max(spec.kappa, 1e-30)
    slope = None
    if np.max(errs_arr) > floor:
        slope = float(fits.loglog_slopes(ts_arr, errs_arr))
    return ScatteringReport(
        ts=ts_arr, errors=errs_arr, fitted_slope=slope,
        slope_bound=-min(0.5 + spec.mu, 0.5 * spec.s0) + 0.15,
    )


def nonlinearity_norms(spec: FinalStateSpec) -> tuple[float, float]:
    """L2(dxi) norms of N_j(psi_hat) by direct grid quadrature."""
    psi = spec.psi_hat
    n = np.abs(psi[::-1]) ** 2 * psi
    return tuple(np.sqrt(spec.grid.dxi * np.sum(np.abs(n) ** 2, axis=-1)).tolist())


def dyadic_profile_drift(traj: Trajectory, base_times) -> dict:
    """d_j(t) = ||alpha_j(2t) - alpha_j(t)||_L2(dxi) at the given dyadic bases."""
    base = np.asarray(base_times, dtype=float)
    ts = np.concatenate([base, 2.0 * base])
    grid = traj.grid
    rows = np.argmin(np.abs(traj.ts - ts[:, None]), axis=-1)
    missing = np.abs(traj.ts[rows] - ts) > _time_tol(ts)
    if np.any(missing):
        raise KeyError(f"no checkpoint at t = {ts[missing][0]}")
    # one pull-back of every state, (2 n_base, 2, N), rows at their own times
    alpha = _pull_back(grid, traj.states[rows], ts[:, None], overwrite_x=True)
    d = np.sqrt(grid.dxi * np.sum(np.abs(alpha[len(base):] - alpha[:len(base)]) ** 2, axis=-1))
    return {"ts": base, "d1": d[:, 0], "d2": d[:, 1]}


@dataclass(frozen=True)
class ObstructionReport:
    eta: float
    stagnation_floor: float
    ts: np.ndarray
    d1: np.ndarray
    d2: np.ndarray
    stagnates: bool
    steps: dict


def dyadic_drift_run(spec: FinalStateSpec, base_times, T: float,
                     picard_iters: int) -> dict:
    """Dyadic profile drift of the solution started from a few Picard iterates.

    The iterates live on 48 log-spaced samples of [T, 40 T] and need not
    contract; the forward run from T records the base times and their
    doubles for :func:`dyadic_profile_drift`.  Returns its ``ts``, ``d1``
    and ``d2`` with the forward run's ``steps``.
    """
    _check_box(spec, 40.0 * T)
    taus = np.geomspace(T, 40.0 * T, 48)
    state = _picard_iterate(spec, taus, partial(_w_sharp_arrays, spec), picard_iters, 0.0)
    base = np.asarray(sorted(base_times), dtype=float)
    cps = np.unique(np.concatenate([base, 2.0 * base]))
    cfg = SolverConfig(
        n_points=spec.grid.n_points, length=spec.grid.length,
        t_start=T, t_end=float(cps[-1]), checkpoint_times=tuple(cps),
    )
    traj = run(cfg, state.v[0])
    return {**dyadic_profile_drift(traj, base), "steps": traj.steps}


def obstruction_probe(spec: FinalStateSpec, base_times,
                      T: float, picard_iters: int) -> ObstructionReport:
    """Best-effort construction for overlapping data, then dyadic drift.

    Requires genuinely coupled data: ``eta = min_j ||N_j(psi_hat)|| > 0``.
    A few fixed-point iterations produce the attempted scatterer at T (the
    map need not contract here); the forward run then measures whether the
    dyadic increments stay pinned above ``eta log(2) / 4``, the signature
    that no solution scatters to this final state.
    """
    n1, n2 = nonlinearity_norms(spec)
    eta = min(n1, n2)
    if eta <= DECOUPLED_TOL:
        raise ValueError("data is decoupled (eta = 0): nothing to probe")
    drift = dyadic_drift_run(spec, base_times, T, picard_iters)
    floor = 0.25 * eta * math.log(2.0)
    stagnates = bool(np.all(np.minimum(drift["d1"], drift["d2"]) >= floor))
    return ObstructionReport(
        eta=eta, stagnation_floor=floor, ts=drift["ts"],
        d1=drift["d1"], d2=drift["d2"], stagnates=stagnates, steps=drift["steps"],
    )
