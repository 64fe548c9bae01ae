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
from dataclasses import dataclass, field

import numpy as np

from . import fits
from .dynamics import SolverConfig, Trajectory, _stack, run
from .errors import PicardDivergence
from .spectral import (
    ComplexField,
    FieldPair,
    Grid,
    _free_multiplier_fft,
    _inverse_array,
    _j_spectrum,
    _pull_back,
    _push_forward,
    l2_norm,
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


def _spectrum_fn(entries: list[dict]):
    def fn(xi):
        xi = np.asarray(xi, dtype=float)
        total = np.zeros_like(xi)
        for e in entries:
            total = total + _eval_entry(e, xi)
        return total
    return fn


@dataclass(frozen=True)
class FinalStateSpec:
    """Prescribed scattering data: spectra on the grid plus analytic evaluators.

    ``delta`` is the sup of the spectra, ``kappa`` the x-weighted Sobolev
    size ``||<x>^{s0} psi||_L2`` with ``s0 = min(2, s)``, and ``mu`` the
    contraction-norm exponent, constrained to ``(0, (s0-1)/2)``.
    """

    grid: Grid
    psi_hat_1: np.ndarray
    psi_hat_2: np.ndarray
    s: float
    delta: float
    kappa: float
    mu: float
    decoupled: bool
    fn1: object = field(repr=False, compare=False, default=None)
    fn2: object = field(repr=False, compare=False, default=None)

    @property
    def s0(self) -> float:
        return min(2.0, self.s)

    def psi_pair(self, t: float = 0.0) -> FieldPair:
        """psi+ as x-space fields (inverse transforms of the spectra)."""
        g = self.grid
        p1 = _inverse_array(g, self.psi_hat_1)
        p2 = _inverse_array(g, self.psi_hat_2)
        return FieldPair(ComplexField(g, p1, t), ComplexField(g, p2, t))


def build_final_state(grid: Grid, entries1: list[dict], entries2: list[dict],
                      s: float = 2.0, mu: float | None = None) -> FinalStateSpec:
    """Assemble prescribed data from smooth spectral windows or Gaussians.

    Disjoint windows give decoupled data (pointwise product identically
    zero); overlapping entries are allowed deliberately, for the obstruction
    probe.
    """
    if s <= 1.0:
        raise ValueError("need spectral regularity s > 1")
    fn1, fn2 = _spectrum_fn(entries1), _spectrum_fn(entries2)
    p1 = fn1(grid.xi)
    p2 = fn2(grid.xi)
    s0 = min(2.0, s)
    if mu is None:
        mu = 0.25 * (s0 - 1.0)
    if not (0.0 < mu < 0.5 * (s0 - 1.0)):
        raise ValueError(f"mu must lie in (0, {(s0 - 1.0) / 2}), got {mu}")
    delta = float(max(np.max(np.abs(p1)), np.max(np.abs(p2))))
    w = (1.0 + grid.x ** 2) ** (0.5 * s0)
    k1 = l2_norm(ComplexField(grid, w * _inverse_array(grid, p1.astype(complex))))
    k2 = l2_norm(ComplexField(grid, w * _inverse_array(grid, p2.astype(complex))))
    kappa = math.hypot(k1, k2)
    decoupled = bool(np.max(np.abs(p1 * p2)) <= DECOUPLED_TOL)
    return FinalStateSpec(
        grid=grid, psi_hat_1=p1.astype(complex), psi_hat_2=p2.astype(complex),
        s=float(s), delta=delta, kappa=kappa, mu=float(mu), decoupled=decoupled,
        fn1=fn1, fn2=fn2,
    )


# ---------------------------------------------------------------------------
# leading wave and remainder
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class AsymptoticWave:
    t: float
    w_sharp: FieldPair
    w_flat: FieldPair


def _w_sharp_arrays(spec: FinalStateSpec, t):
    """w# at a time, or one row per time when ``t`` is an array of times."""
    g = spec.grid
    t = np.asarray(t, dtype=float)[..., None]
    y = g.x / t
    scale = 1.0 / np.sqrt(1j * t)
    chirp = np.exp(0.5j * g.x ** 2 / t)
    return (scale * chirp * spec.fn1(y), scale * chirp * spec.fn2(y))


def asymptotic_wave(spec: FinalStateSpec, t: float) -> AsymptoticWave:
    """Split U(t) psi+ into the leading wave w# and the remainder w-flat.

    ``w#`` keeps the exact L2 norm of psi+ and has sup norm
    ``delta / sqrt(t)``; the remainder decays like ``t^(-s0/2)`` in L2 and
    ``t^(-(s0-1)/2)`` after J.
    """
    t = float(t)
    if t < 1.0:
        raise ValueError("asymptotic wave is tracked for t >= 1")
    g = spec.grid
    s1, s2 = _w_sharp_arrays(spec, t)
    u1, u2 = _push_forward(g, np.stack([spec.psi_hat_1, spec.psi_hat_2]), t)
    sharp = FieldPair(ComplexField(g, s1, t), ComplexField(g, s2, t))
    flat = FieldPair(ComplexField(g, u1 - s1, t), ComplexField(g, u2 - s2, t))
    return AsymptoticWave(t=t, w_sharp=sharp, w_flat=flat)


# ---------------------------------------------------------------------------
# Picard iteration
# ---------------------------------------------------------------------------

@dataclass
class PicardState:
    """Iteration record: time grid, current iterate, contraction history."""

    T: float
    T_max: float
    mu: float
    taus: np.ndarray
    v1: np.ndarray          # (n_t, N)
    v2: np.ndarray
    iterate_index: int
    distances: list[float]
    ratios: list[float]
    converged: bool
    grid: Grid

    @property
    def contraction_ratio(self) -> float:
        return self.ratios[-1] if self.ratios else float("nan")

    def pair_at(self, t: float) -> FieldPair:
        i = int(np.argmin(np.abs(self.taus - t)))
        if abs(self.taus[i] - t) > 1e-9 * max(1.0, t):
            raise KeyError(f"no iterate sample at t = {t}")
        return FieldPair(
            ComplexField(self.grid, self.v1[i], self.taus[i]),
            ComplexField(self.grid, self.v2[i], self.taus[i]),
        )


def _xt_norm(grid: Grid, taus: np.ndarray, d1: np.ndarray, d2: np.ndarray,
             mu: float, mult: np.ndarray | None = None) -> float:
    """sup over samples of t^(mu+1/2) ||d||_L2 + t^mu ||J d||_L2.

    ``d1``, ``d2`` are ``(n_time, N)`` stacks; ``||J d||`` is read off the
    pulled-back profile of each row.  ``mult`` is the free-flow multiplier
    table at ``taus``, when the caller holds one.
    """
    l2_sq = np.zeros(len(taus))
    j_sq = np.zeros(len(taus))
    for d in (d1, d2):
        l2_sq += grid.dx * np.sum(np.abs(d) ** 2, axis=-1)
        alpha = _pull_back(grid, d, taus, mult)
        j_sq += grid.dxi * np.sum(np.abs(_j_spectrum(grid, alpha)) ** 2, axis=-1)
    return float(np.max(taus ** (mu + 0.5) * np.sqrt(l2_sq) + taus ** mu * np.sqrt(j_sq)))


def _apply_map(spec: FinalStateSpec, taus: np.ndarray,
               v1: np.ndarray, v2: np.ndarray, mult: np.ndarray | None = None):
    """One application of the fixed-point map on the sampled time grid.

    Work happens in the pulled-back frame: with G(tau) = F U(-tau) N(v(tau)),
    Phi[v](t) = U(t) F^-1 [psi_hat + int_t^inf G].  The plus sign is forced
    by the equation: differentiating shows U(t)psi + int_t^inf U(t-tau) N dtau
    is what solves du/dt = (i/2) u_xx - N(u); the minus variant solves the
    sign-flipped system and its forward evolution never scatters to psi+.
    For decoupled data N(w#) is identically zero on the grid, so truncating
    the integral at T_max leaves only the decaying difference part.  Each
    component is one ``(n_time, N)`` stack, pulled back and pushed forward
    in one call each, with the multiplier table ``mult`` at ``taus``.
    """
    g = spec.grid
    out = []
    for v, w, psi_hat in ((v1, v2, spec.psi_hat_1), (v2, v1, spec.psi_hat_2)):
        tail = fits.reverse_cumtrapz(taus, _pull_back(g, np.abs(w) ** 2 * v, taus, mult).T).T
        tail += psi_hat
        out.append(_push_forward(g, tail, taus, mult))
    return tuple(out)


def _picard_iterate(spec: FinalStateSpec, T: float, T_max: float,
                    max_iters: int, tol: float, n_time: int,
                    initial: str) -> PicardState:
    g = spec.grid
    taus = np.geomspace(T, T_max, n_time)
    # one table for every transform of the construction: the times are fixed
    mult = _free_multiplier_fft(g, taus)
    if initial == "leading":
        v1, v2 = _w_sharp_arrays(spec, taus)
    elif initial == "free":
        v1 = _push_forward(g, spec.psi_hat_1, taus, mult)
        v2 = _push_forward(g, spec.psi_hat_2, taus, mult)
    else:
        raise ValueError(f"unknown initial iterate {initial!r}")

    distances: list[float] = []
    ratios: list[float] = []
    converged = False
    k = 0
    for k in range(1, max_iters + 1):
        new1, new2 = _apply_map(spec, taus, v1, v2, mult)
        # the old iterate is not needed again: hold the difference in place
        d = _xt_norm(g, taus, np.subtract(new1, v1, out=v1),
                     np.subtract(new2, v2, out=v2), spec.mu, mult)
        distances.append(d)
        if len(distances) > 1 and distances[-2] > 0:
            ratios.append(d / distances[-2])
        v1, v2 = new1, new2
        if d < tol:
            converged = True
            break
        if len(ratios) >= 2 and ratios[-1] > 0.9 and ratios[-2] > 0.9:
            break
    return PicardState(
        T=T, T_max=T_max, mu=spec.mu, taus=taus, v1=v1, v2=v2,
        iterate_index=k, distances=distances, ratios=ratios,
        converged=converged, grid=g,
    )


def picard_construct(spec: FinalStateSpec, T: float, T_max: float | None = None,
                     max_iters: int = 8, tol: float = 1e-9, n_time: int = 64,
                     initial: str = "leading") -> PicardState:
    """Fixed-point construction of the solution scattering to decoupled psi+.

    Starts from the leading wave, iterates the integral map on a log-spaced
    grid of [T, T_max], and stops when successive iterates are closer than
    ``tol`` in the weighted sup norm.  Raises :class:`PicardDivergence` when
    the contraction ratio stays above 0.9 (amplitude too large or T too
    small); rejects non-decoupled data outright.
    """
    if not spec.decoupled:
        raise ValueError("final state is not decoupled; use obstruction_probe instead")
    if T < 1.0:
        raise ValueError("need T >= 1")
    if T_max is None:
        T_max = 100.0 * T
    if T_max < 10.0 * T:
        raise ValueError("need T_max >= 10 T")
    state = _picard_iterate(spec, T, T_max, max_iters, tol, n_time, initial)
    if not state.converged and state.ratios and state.ratios[-1] > 0.9:
        raise PicardDivergence(
            f"no contraction after {state.iterate_index} iterations "
            f"(last ratio {state.ratios[-1]:.3f}); reduce the amplitude or increase T"
        )
    return state


def picard_residual(spec: FinalStateSpec, state: PicardState) -> float:
    """Fixed-point residual ||Phi[v] - v|| in the weighted sup norm."""
    new1, new2 = _apply_map(spec, state.taus, state.v1, state.v2)
    return _xt_norm(state.grid, state.taus, new1 - state.v1, new2 - state.v2, state.mu)


def xt_distance(spec: FinalStateSpec, state_a: PicardState, state_b: PicardState) -> float:
    return _xt_norm(state_a.grid, state_a.taus, state_a.v1 - state_b.v1,
                    state_a.v2 - state_b.v2, spec.mu)


def xt_norm_to_leading(spec: FinalStateSpec, state: PicardState) -> float:
    """Distance of the current iterate from the leading wave (the iteration ball)."""
    s1, s2 = _w_sharp_arrays(spec, state.taus)
    return _xt_norm(state.grid, state.taus, state.v1 - s1, state.v2 - s2, spec.mu)


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
    """
    g = spec.grid
    ts_arr = traj.times()
    states = np.stack([_stack(cp.pair) for cp in traj.checkpoints])      # (n_t, 2, N)
    free = _push_forward(g, np.stack([spec.psi_hat_1, spec.psi_hat_2]), ts_arr[:, None])
    errs_arr = np.sqrt(g.dx * np.sum(np.abs(states - free) ** 2, axis=(-2, -1)))
    floor = 1e-8 * max(spec.kappa, 1e-30)
    slope = None
    if np.max(errs_arr) > floor:
        slope = fits.loglog_slope(ts_arr, errs_arr)
    return ScatteringReport(
        ts=ts_arr, errors=errs_arr, fitted_slope=slope,
        slope_bound=-min(0.5 + spec.mu, 0.5 * spec.s0) + 0.15,
    )


def nonlinearity_norms(spec: FinalStateSpec) -> tuple[float, float]:
    """L2(dxi) norms of N_j(psi_hat) by direct grid quadrature."""
    g = spec.grid
    n1 = np.abs(spec.psi_hat_2) ** 2 * spec.psi_hat_1
    n2 = np.abs(spec.psi_hat_1) ** 2 * spec.psi_hat_2
    return (
        math.sqrt(float(g.dxi * np.sum(np.abs(n1) ** 2))),
        math.sqrt(float(g.dxi * np.sum(np.abs(n2) ** 2))),
    )


def dyadic_profile_drift(traj: Trajectory, base_times) -> dict:
    """d_j(t) = ||alpha_j(2t) - alpha_j(t)||_L2(dxi) at the given dyadic bases."""
    base = np.asarray(base_times, dtype=float)
    ts = np.concatenate([base, 2.0 * base])
    grid = traj.config.grid
    # one pull-back of every state, (2 n_base, 2, N), rows at their own times
    alpha = _pull_back(grid, np.stack([_stack(traj.pair_at(t)) for t in ts]), ts[:, None])
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


def _dyadic_drift_run(spec: FinalStateSpec, base_times, T: float,
                      picard_iters: int) -> dict:
    """Dyadic profile drift of the solution started from a few Picard iterates.

    The iterates live on 48 log-spaced samples of [T, 40 T] and need not
    contract; the forward run from T records the base times and their
    doubles for :func:`dyadic_profile_drift`.
    """
    state = _picard_iterate(spec, T, 40.0 * T, picard_iters, 0.0, 48, "leading")
    base = np.asarray(sorted(base_times), dtype=float)
    cps = np.unique(np.concatenate([base, 2.0 * base]))
    cfg = SolverConfig(
        n_points=spec.grid.n_points, length=spec.grid.length,
        t_start=T, t_end=float(cps[-1]), checkpoint_times=tuple(cps),
    )
    return dyadic_profile_drift(run(cfg, state.pair_at(T)), base)


def obstruction_probe(spec: FinalStateSpec, base_times,
                      T: float = 50.0, picard_iters: int = 3) -> ObstructionReport:
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
    drift = _dyadic_drift_run(spec, base_times, T, picard_iters)
    floor = 0.25 * eta * math.log(2.0)
    stagnates = bool(np.all(np.minimum(drift["d1"], drift["d2"]) >= floor))
    return ObstructionReport(
        eta=eta, stagnation_floor=floor, ts=drift["ts"],
        d1=drift["d1"], d2=drift["d2"], stagnates=stagnates,
    )
