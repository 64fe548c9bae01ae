"""Time integration of the dissipatively coupled cubic pair.

The system is ``i du1/dt + (1/2) u1_xx = -i |u2|^2 u1`` and symmetrically for
u2.  Strang splitting alternates the exact free flow with an exact pointwise
nonlinear substep: with ``a = |u1|^2``, ``b = |u2|^2`` the substep obeys
``a' = -2ab``, ``b' = -2ab``, so ``m = a - b`` is a pointwise invariant and
``a`` follows the logistic law ``a' = -2a(a - m)`` with phases frozen.  Using
the closed form keeps the difference of the component masses conserved to
machine precision over arbitrarily long runs.  Adjacent half free steps are
merged between checkpoints, so one step costs one batched FFT/IFFT pair of
the ``(2, N)`` state.

A classical RK4 integrator in the interaction picture (the profile
``alpha = F U(-t) u``) is kept purely as a cross-validation oracle; it also
integrates the phase-rotating variant of the system (nonlinearity without
the dissipative twist), which the exact substep does not cover.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import __version__
from .errors import ConfigError, GuardViolation, NumericsError
from .spectral import (
    ComplexField,
    FieldPair,
    Grid,
    _free_multiplier_fft,
    _pull_back,
    _push_forward,
)


@dataclass(frozen=True)
class DtPolicy:
    """Step-size schedule: fixed, or growing proportionally to t.

    The proportional policy uses ``dt = dt_initial`` below ``t_switch`` and
    ``dt = min(rate * t, dt_cap)`` beyond it; profile dynamics slow down on a
    log-time scale, so steps may grow with t without losing accuracy.
    """

    kind: str = "proportional"
    dt: float = 0.01
    t_switch: float = 10.0
    rate: float = 1e-3
    dt_cap: float = 0.5

    def __post_init__(self) -> None:
        if self.kind not in ("fixed", "proportional"):
            raise ConfigError(f"unknown dt policy {self.kind!r}")
        if self.dt <= 0 or self.dt_cap <= 0 or self.rate <= 0:
            raise ConfigError("dt policy parameters must be positive")

    @staticmethod
    def fixed(dt: float) -> "DtPolicy":
        return DtPolicy(kind="fixed", dt=dt)

    def dt_at(self, t: float) -> float:
        if self.kind == "fixed":
            return self.dt
        if t < self.t_switch:
            return self.dt
        return min(self.rate * t, self.dt_cap)


def default_checkpoints(t_start: float, t_end: float, count: int = 40) -> np.ndarray:
    """Log-spaced checkpoint times on [max(t_start, 2), t_end]."""
    lo = max(t_start, 2.0)
    return np.geomspace(lo, t_end, count)


@dataclass(frozen=True)
class SolverConfig:
    """Grid, time window, step policy and scheme selection for one run."""

    n_points: int
    length: float
    t_end: float
    t_start: float = 0.0
    dt_policy: DtPolicy = field(default_factory=DtPolicy)
    checkpoint_times: tuple[float, ...] | None = None
    scheme: str = "strang_exact"
    coupling: str = "dissipative"
    boundary_band: float = 0.05
    boundary_mass_tol: float = 1e-6

    def __post_init__(self) -> None:
        if not (0.0 <= self.t_start < self.t_end):
            raise ConfigError(f"need t_end > t_start >= 0, got [{self.t_start}, {self.t_end}]")
        if self.scheme not in ("strang_exact", "rk4_reference"):
            raise ConfigError(f"unknown scheme {self.scheme!r}")
        if self.coupling not in ("dissipative", "conservative"):
            raise ConfigError(f"unknown coupling {self.coupling!r}")
        if self.coupling == "conservative" and self.scheme != "rk4_reference":
            raise ConfigError("the phase-rotating variant runs under rk4_reference only")
        if self.checkpoint_times is not None:
            cps = tuple(float(t) for t in self.checkpoint_times)
            if any(b <= a for a, b in zip(cps, cps[1:])):
                raise ConfigError("checkpoint times must be strictly increasing")
            if cps and (cps[0] < self.t_start - 1e-9 or cps[-1] > self.t_end + 1e-9):
                raise ConfigError("checkpoint times must lie within [t_start, t_end]")
            object.__setattr__(self, "checkpoint_times", cps)

    @property
    def grid(self) -> Grid:
        return Grid(self.n_points, self.length)

    def resolved_checkpoints(self) -> np.ndarray:
        if self.checkpoint_times is not None:
            return np.asarray(self.checkpoint_times, dtype=float)
        return default_checkpoints(self.t_start, self.t_end)


@dataclass(frozen=True)
class MassLedger:
    """Quadratic functionals tracked at a checkpoint.

    ``interaction`` is the cross term ``integral |u1|^2 |u2|^2 dx``.  Each
    component mass dissipates at rate ``-2 * interaction``; their difference
    is exactly conserved.
    """

    t: float
    mass1: float
    mass2: float
    diff: float
    interaction: float


@dataclass(frozen=True)
class Checkpoint:
    pair: FieldPair
    ledger: MassLedger


@dataclass(frozen=True)
class Trajectory:
    config: SolverConfig
    checkpoints: tuple[Checkpoint, ...]
    provenance: dict

    def times(self) -> np.ndarray:
        return np.array([c.ledger.t for c in self.checkpoints])

    def pair_at(self, t: float) -> FieldPair:
        ts = self.times()
        i = int(np.argmin(np.abs(ts - t)))
        if abs(ts[i] - t) > 1e-6 * max(1.0, abs(t)):
            raise KeyError(f"no checkpoint at t = {t} (closest is {ts[i]})")
        return self.checkpoints[i].pair

    def ledgers(self) -> list[MassLedger]:
        return [c.ledger for c in self.checkpoints]


def mass_ledger(pair: FieldPair) -> MassLedger:
    """dx-weighted quadrature of both masses and the interaction integral."""
    dx = pair.grid.dx
    a = np.abs(pair.u1.values) ** 2
    b = np.abs(pair.u2.values) ** 2
    m1 = float(dx * np.sum(a))
    m2 = float(dx * np.sum(b))
    return MassLedger(
        t=pair.time,
        mass1=m1,
        mass2=m2,
        diff=m1 - m2,
        interaction=float(dx * np.sum(a * b)),
    )


def boundary_mass_fraction(pair: FieldPair, band: float = 0.05) -> float:
    """Fraction of total mass within ``band`` of each edge of the box."""
    g = pair.grid
    half = 0.5 * g.length
    edge = (np.abs(g.x) >= (1.0 - 2.0 * band) * half)
    dens = np.abs(pair.u1.values) ** 2 + np.abs(pair.u2.values) ** 2
    total = float(np.sum(dens))
    if total == 0.0:
        return 0.0
    return float(np.sum(dens[edge]) / total)


# ---------------------------------------------------------------------------
# exact nonlinear substep
# ---------------------------------------------------------------------------

def coupled_decay_ratios(a0: np.ndarray, b0: np.ndarray, s: float):
    """Squared-amplitude ratios after time ``s`` of ``a' = -2ab, b' = -2ab``.

    Returns ``(a(s)/a0, b(s)/b0)`` evaluated by the closed form
    ``a(s) = m a0 / (a0 - b0 exp(-2 m s))`` with ``m = a0 - b0``, written so
    that the ``m -> 0`` limit is taken stably and ``a - b = m`` holds to
    roundoff.  Inputs may be scalars or arrays of any matching shape.
    """
    if s < 0:
        raise ValueError("forward decay only: s must be nonnegative")
    a0 = np.asarray(a0, dtype=float)
    b0 = np.asarray(b0, dtype=float)
    m = a0 - b0
    arg = -2.0 * m * s
    # Far beyond the logistic transition the survivor has locked to |m| and
    # the loser has underflowed; exp would overflow there, so clamp.
    huge = arg > 600.0
    arg_safe = np.where(huge, 0.0, arg)
    decay = np.exp(arg_safe)
    safe_m = np.where(m != 0.0, m, 1.0)
    growth_per_m = np.where(m != 0.0, np.expm1(arg_safe) / safe_m, -2.0 * s)
    denom = 1.0 - b0 * growth_per_m
    r1 = 1.0 / denom
    r2 = decay / denom
    if np.any(huge):
        # m < 0 branch: component 1 has fully decayed, component 2 -> |m|.
        b0_safe = np.where(b0 > 0.0, b0, 1.0)
        r1 = np.where(huge, 0.0, r1)
        r2 = np.where(huge, np.where(b0 > 0.0, -m / b0_safe, 1.0), r2)
    return r1, r2


def _decay_substep(v: np.ndarray, dt: float):
    """Exact nonlinear substep on a ``(2, N)`` state, in place; returns the ratios."""
    sq = v.real ** 2 + v.imag ** 2
    r1, r2 = coupled_decay_ratios(sq[0], sq[1], dt)
    v[0] *= np.sqrt(r1)
    v[1] *= np.sqrt(r2)
    return r1, r2


def _stack(pair: FieldPair) -> np.ndarray:
    return np.stack([pair.u1.values, pair.u2.values])


def _unstack(grid: Grid, v: np.ndarray, t: float) -> FieldPair:
    return FieldPair(ComplexField(grid, v[0], t), ComplexField(grid, v[1], t))


def nonlinear_substep(pair: FieldPair, dt: float) -> FieldPair:
    """Exact pointwise solution of the coupled amplitude-decay flow.

    Phases are untouched (the coupling coefficient is real), and the
    pointwise difference of the squared amplitudes is conserved bitwise up
    to a few ulp.  Backward steps are rejected: the reversed flow blows up.
    """
    dt = float(dt)
    if dt < 0:
        raise ValueError("nonlinear substep is forward-only (dt >= 0)")
    if dt == 0.0:
        return pair
    v = _stack(pair)
    r1, r2 = _decay_substep(v, dt)
    if np.any(r1 < 0.0) or np.any(r2 < 0.0):
        raise AssertionError("internal error: negative amplitude ratio in exact substep")
    return _unstack(pair.grid, v, pair.time)


class _StrangKernel:
    """Strang splitting of a ``(2, N)`` x-space state, first same as last.

    The trailing half free flow of each step is left pending and merged into
    the leading half of the next: free flows compose exactly,
    ``U(a) U(b) = U(a + b)``, so a step costs one batched FFT, one multiply
    and one batched IFFT around the exact substep.  ``flush`` applies the
    pending half step; the state is a Strang iterate only after it.
    """

    def __init__(self, grid: Grid):
        self.grid = grid
        self.pending = 0.0
        self._mults: dict[float, np.ndarray] = {}

    def _free(self, v: np.ndarray, tau: float) -> np.ndarray:
        mult = self._mults.get(tau)
        if mult is None:
            if len(self._mults) > 8:
                self._mults.clear()
            mult = self._mults[tau] = _free_multiplier_fft(self.grid, tau)
        spec = np.fft.fft(v, axis=-1)
        spec *= mult
        return np.fft.ifft(spec, axis=-1)

    def step(self, v: np.ndarray, dt: float) -> np.ndarray:
        v = self._free(v, self.pending + 0.5 * dt)
        _decay_substep(v, dt)
        self.pending = 0.5 * dt
        return v

    def flush(self, v: np.ndarray) -> np.ndarray:
        if self.pending:
            v = self._free(v, self.pending)
            self.pending = 0.0
        return v


def strang_step(pair: FieldPair, t: float, dt: float) -> FieldPair:
    """One split step: half free flow, exact nonlinear substep, half free flow."""
    if dt <= 0:
        raise ValueError("strang_step needs dt > 0")
    if abs(pair.time - t) > 1e-9 * max(1.0, abs(t)):
        raise ValueError(f"pair time {pair.time} does not match step time {t}")
    kernel = _StrangKernel(pair.grid)
    return _unstack(pair.grid, kernel.flush(kernel.step(_stack(pair), dt)), t + dt)


# ---------------------------------------------------------------------------
# drivers
# ---------------------------------------------------------------------------

def _checkpoint(grid: Grid, v1: np.ndarray, v2: np.ndarray, t: float) -> Checkpoint:
    if not (np.all(np.isfinite(v1.view(np.float64))) and np.all(np.isfinite(v2.view(np.float64)))):
        raise NumericsError(f"non-finite values at t = {t:.6g}")
    pair = FieldPair(ComplexField(grid, v1, t), ComplexField(grid, v2, t))
    return Checkpoint(pair, mass_ledger(pair))


def _guard(config: SolverConfig, cp: Checkpoint) -> None:
    frac = boundary_mass_fraction(cp.pair, config.boundary_band)
    if frac > config.boundary_mass_tol:
        raise GuardViolation(cp.ledger.t, frac, config.boundary_mass_tol)


def _drive(config: SolverConfig, initial: FieldPair, scheme, provenance: dict) -> Trajectory:
    """Step from t_start through every checkpoint with one scheme.

    ``scheme(config, initial)`` sets up its state and returns
    ``(step, fields)``: ``step(t, dt)`` advances the state from t to t + dt,
    and ``fields(t)`` returns the x-space components ``(u1, u2)`` at a
    checkpoint time t.
    """
    grid = config.grid
    if initial.grid != grid:
        raise ConfigError("initial data lives on a different grid than the config")
    if abs(initial.time - config.t_start) > 1e-9 * max(1.0, config.t_start):
        raise ConfigError(f"initial time {initial.time} != t_start {config.t_start}")
    t = config.t_start
    _guard(config, _checkpoint(grid, initial.u1.values, initial.u2.values, t))
    step, fields = scheme(config, initial)

    cps = config.resolved_checkpoints()
    out: list[Checkpoint] = []
    n_steps = 0
    i_cp = 0
    eps = 1e-9
    while i_cp < len(cps):
        target = cps[i_cp]
        if target <= t + eps * max(1.0, t):
            cp = _checkpoint(grid, *fields(target), target)
            _guard(config, cp)
            out.append(cp)
            i_cp += 1
            continue
        dt = min(config.dt_policy.dt_at(t), target - t)
        step(t, dt)
        t = target if target - t - dt <= eps * max(1.0, target) else t + dt
        n_steps += 1

    return Trajectory(
        config=config,
        checkpoints=tuple(out),
        provenance={**provenance, "n_steps": n_steps, "version": __version__},
    )


def _strang_scheme(config: SolverConfig, initial: FieldPair):
    """Fused Strang steps; checkpoints flush the pending half free step."""
    kernel = _StrangKernel(config.grid)
    v = _stack(initial)

    def step(t: float, dt: float) -> None:
        nonlocal v
        v = kernel.step(v, dt)

    def fields(t: float):
        nonlocal v
        v = kernel.flush(v)
        return v[0], v[1]

    return step, fields


def _rk4_scheme(config: SolverConfig, initial: FieldPair):
    """RK4 on the profile pair; checkpoints push it forward to x-space."""
    grid = config.grid
    coef = 1.0 if config.coupling == "dissipative" else 1.0j
    w = _pull_back(grid, _stack(initial), config.t_start)

    def rhs(tau: float, alpha: np.ndarray) -> np.ndarray:
        u = _push_forward(grid, alpha, tau)
        return -coef * _pull_back(grid, np.abs(u[::-1]) ** 2 * u, tau)

    def step(t: float, h: float) -> None:
        nonlocal w
        k1 = rhs(t, w)
        k2 = rhs(t + 0.5 * h, w + 0.5 * h * k1)
        k3 = rhs(t + 0.5 * h, w + 0.5 * h * k2)
        k4 = rhs(t + h, w + h * k3)
        w = w + (h / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)

    def fields(t: float):
        u = _push_forward(grid, w, t)
        return u[0], u[1]

    return step, fields


def run(config: SolverConfig, initial: FieldPair) -> Trajectory:
    """Integrate from t_start to t_end, recording a ledger at each checkpoint.

    Aborts with :class:`GuardViolation` if mass accumulates near the box
    boundary (periodic wrap-around silently corrupts long-time profiles) and
    with :class:`NumericsError` on the first checkpoint holding non-finite
    values.
    """
    if config.scheme == "rk4_reference":
        return rk4_reference(config, initial)
    return _drive(config, initial, _strang_scheme, {"scheme": "strang_exact"})


def rk4_reference(config: SolverConfig, initial: FieldPair) -> Trajectory:
    """Classical RK4 on the profile pair alpha(t) = F U(-t) u(t).

    ``dalpha/dt = -c F U(-t) N(U(t) F^-1 alpha)`` with
    ``N_j = |u_{3-j}|^2 u_j`` and ``c = 1`` for the dissipative coupling or
    ``c = i`` for the phase-rotating variant.  Desk-scale oracle; costlier than splitting.
    """
    return _drive(config, initial, _rk4_scheme,
                  {"scheme": "rk4_reference", "coupling": config.coupling})
