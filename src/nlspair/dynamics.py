"""Time integration of the dissipatively coupled cubic pair.

The system is ``i du1/dt + (1/2) u1_xx = -i |u2|^2 u1`` and symmetrically for
u2.  Strang splitting alternates the exact free flow with an exact pointwise
nonlinear substep: with ``a = |u1|^2``, ``b = |u2|^2`` the substep obeys
``a' = -2ab``, ``b' = -2ab``, so ``m = a - b`` is a pointwise invariant and
``a`` follows the logistic law ``a' = -2a(a - m)`` with phases frozen.  Using
the closed form keeps the difference of the component masses conserved to
machine precision over arbitrarily long runs.  The phase-rotating variant
(``coupling = "conservative"``, nonlinearity without the dissipative twist)
has the exact substep ``u_j <- u_j exp(-i s |u_{3-j}|^2)``, which keeps the
moduli; the same kernel runs it.

One step of ``run`` is the triple jump of Yoshida (1990) and Suzuki (1990):
the Strang stages ``S(W1 dt) S(W0 dt) S(W1 dt)``, fourth order in dt, with a
backward middle stage (``W0 < 0``).  Adjacent half free flows are merged
between checkpoints, so a stage costs one batched FFT/IFFT pair of the
``(2, N)`` state and a step six transforms.  The guard reports the stage
mid-times ``t + W1 dt/2``, ``t + dt/2`` and ``t + dt - W1 dt/2``.

A classical RK4 integrator in the interaction picture (the profile
``alpha = F U(-t) u``), :func:`_rk4_scheme`, is kept purely as the tests'
cross-validation oracle of both couplings; ``run`` does not reach it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, GuardViolation, NumericsError, finite_real
from .spectral import (
    ComplexField,
    FieldPair,
    Grid,
    _free_multiplier_fft,
    _pull_back,
    _push_forward,
)

# the boundary guard: a run stops once more than BOUNDARY_MASS_TOL of the mass
# lies within BOUNDARY_BAND (a fraction of the box) of either edge
BOUNDARY_BAND = 0.05
BOUNDARY_MASS_TOL = 1e-6

# the weights of the triple jump S(W1 dt) S(W0 dt) S(W1 dt); W0 < 0
W1 = 1.0 / (2.0 - 2.0 ** (1.0 / 3.0))
W0 = 1.0 - 2.0 * W1

# the profile analytics read the checkpoints from T_MIN on, where the default
# checkpoint grid starts
T_MIN = 2.0


@dataclass(frozen=True)
class DtPolicy:
    """Step sizes on a power-of-two ladder: ``dt`` while ``rate * t <= dt``,
    then the largest ``dt * 2**k`` not above ``rate * t``; ``rate = 0`` is fixed.

    The profile dynamics is autonomous in ``log t``, so steps may grow like
    t; on the ladder they take few values, which the kernel's cache reuses.
    The defaults come from ``scripts/step_sweep.py``: the headline takes 405
    composed steps, 7.4e-10 relative L2 from a refined run.
    """

    dt: float = 0.16
    rate: float = 3.2e-2

    def __post_init__(self) -> None:
        if not (finite_real(self.dt, "dt") > 0.0 and finite_real(self.rate, "rate") >= 0.0):
            raise ConfigError(f"dt policy needs finite dt > 0 and rate >= 0, got {self}")

    @staticmethod
    def fixed(dt: float) -> "DtPolicy":
        return DtPolicy(dt, rate=0.0)

    def dt_at(self, t: float) -> float:
        dt = self.dt
        while 2.0 * dt <= self.rate * t < math.inf:   # rate * t may overflow
            dt *= 2.0
        return dt


@dataclass(frozen=True)
class SolverConfig:
    """Grid, time window, step policy and coupling for one run; a run stops
    at its last checkpoint, so ``checkpoint_times``, when given, end at t_end."""

    n_points: int
    length: float
    t_end: float
    t_start: float = 0.0
    dt_policy: DtPolicy = field(default_factory=DtPolicy)
    checkpoint_times: tuple[float, ...] | None = None
    coupling: str = "dissipative"

    def __post_init__(self) -> None:
        if not (0.0 <= finite_real(self.t_start, "t_start") < finite_real(self.t_end, "t_end")):
            raise ConfigError(f"need finite t_end > t_start >= 0, "
                              f"got [{self.t_start}, {self.t_end}]")
        if self.coupling not in _SUBSTEPS:
            raise ConfigError(f"unknown coupling {self.coupling!r}; "
                              f"couplings: {sorted(_SUBSTEPS)}")
        if self.checkpoint_times is not None:
            cps = tuple(finite_real(t, "checkpoint time") for t in self.checkpoint_times)
            if any(b <= a for a, b in zip(cps, cps[1:])):
                raise ConfigError("checkpoint times must be strictly increasing")
            if not cps or cps[0] < self.t_start - _time_tol(self.t_start) \
                    or abs(cps[-1] - self.t_end) > _time_tol(self.t_end):
                raise ConfigError(f"need checkpoint times within [t_start, t_end], the last "
                                  f"at t_end = {self.t_end:g}")
            object.__setattr__(self, "checkpoint_times", cps)
        elif not np.all(np.diff(self.resolved_checkpoints()) > 0):
            lo = max(self.t_start, T_MIN)
            raise ConfigError(f"the default checkpoints are log-spaced on [max(t_start, "
                              f"{T_MIN:g}), t_end] = [{lo:g}, {self.t_end:g}]: need "
                              f"t_end > {lo:g}, or give checkpoint_times")

    @property
    def grid(self) -> Grid:
        return Grid(self.n_points, self.length)

    def resolved_checkpoints(self) -> np.ndarray:
        """The checkpoint times; by default 40 log-spaced on [max(t_start, T_MIN), t_end]."""
        if self.checkpoint_times is not None:
            return np.asarray(self.checkpoint_times, dtype=float)
        return np.geomspace(max(self.t_start, T_MIN), self.t_end, 40)


@dataclass(frozen=True, eq=False)
class Checkpoint:
    """Row ``i`` of a trajectory as a pair of fields at ``ts[i]``."""

    pair: FieldPair


@dataclass(frozen=True, eq=False)
class Trajectory:
    """A run on the config's one grid: ``states[i]`` is ``(u1, u2)`` at ``ts[i]``.

    ``states`` is the ``(n_t, 2, N)`` array of a run, which the trajectory
    takes ownership of and freezes, or, for a stored run, a reader of its
    files (``harness.StoredStates``) with the array's ``shape``, ``dtype``,
    length, iteration and int and slice indexing, which reads the rows on
    every access.  ``ledger[i]`` is :func:`mass_ledger` of row i, formed
    here in one pass over the rows; ``checkpoints`` is a read-only view of
    the rows, built afresh on every access, so a stored run's trajectory
    keeps none of its rows.
    """

    config: SolverConfig
    ts: np.ndarray
    states: np.ndarray
    provenance: dict
    grid: Grid = field(init=False, repr=False)
    ledger: np.ndarray = field(init=False, repr=False)

    def __post_init__(self) -> None:
        grid = self.config.grid
        ts = np.array(self.ts, dtype=float)
        states = self.states
        if states.dtype != np.complex128 or states.shape != (len(ts), 2, grid.n_points):
            raise ValueError(f"states {states.dtype}{states.shape} for {len(ts)} times on {grid}")
        ledger = np.empty((len(ts), 4))
        for i, v in enumerate(states):
            ledger[i] = mass_ledger(grid, v)
        for arr in (ts, states, ledger):
            if isinstance(arr, np.ndarray):
                arr.flags.writeable = False
        for name, val in (("grid", grid), ("ts", ts), ("ledger", ledger)):
            object.__setattr__(self, name, val)

    @property
    def steps(self) -> dict:
        """``n_steps``, ``dt_min`` and ``dt_max`` of a run, as its manifest records them."""
        return {k: self.provenance[k] for k in ("n_steps", "dt_min", "dt_max")}

    @property
    def checkpoints(self) -> tuple[Checkpoint, ...]:
        return tuple(Checkpoint(FieldPair(ComplexField(self.grid, v[0], t),
                                          ComplexField(self.grid, v[1], t)))
                     for t, v in zip(self.ts.tolist(), self.states))


def mass_ledger(grid: Grid, v: np.ndarray) -> np.ndarray:
    """``(mass1, mass2, diff, interaction)`` of a ``(2, N)`` state.

    dx-weighted quadrature; ``interaction`` is the cross term
    ``integral |u1|^2 |u2|^2 dx``.  Each component mass dissipates at rate
    ``-2 * interaction``; their difference is exactly conserved.
    """
    a, b = np.abs(v) ** 2
    m1 = grid.dx * np.sum(a)
    m2 = grid.dx * np.sum(b)
    return np.array([m1, m2, m1 - m2, grid.dx * np.sum(a * b)])


def _time_tol(t):
    """The tolerance ``1e-9 max(1, t)`` within which two times are the same,
    elementwise for an array of times ``t``."""
    return 1e-9 * np.maximum(1.0, t)


def _inner_half_width(grid: Grid) -> float:
    """``(1 - 2 BOUNDARY_BAND) L/2``: the box inside the guard's edge bands is
    ``|x| <`` this."""
    return (1.0 - 2.0 * BOUNDARY_BAND) * 0.5 * grid.length


def _edge_bands(grid: Grid) -> tuple[int, int]:
    """``(lo, hi)``: the points within ``BOUNDARY_BAND`` of either edge of the
    box are the index ranges ``[0, lo)`` and ``[hi, N)``."""
    inner = np.abs(grid.x) < _inner_half_width(grid)
    return int(np.argmax(inner)), grid.n_points - int(np.argmax(inner[::-1]))


def _band_mass(sq: np.ndarray, bands: tuple[int, int]) -> tuple[float, float]:
    """``(edge, total)`` sums of the squared amplitudes ``sq`` (last axis on the grid)."""
    lo, hi = bands
    return float(sq[..., :lo].sum() + sq[..., hi:].sum()), float(sq.sum())


def _check_bands(sq: np.ndarray, bands: tuple[int, int], t: float) -> None:
    """The guard's test of a state at time t from its squared amplitudes
    ``sq``: :class:`NumericsError` once their sum is not finite,
    :class:`GuardViolation` once the edge bands hold more than
    ``BOUNDARY_MASS_TOL`` of it."""
    edge, total = _band_mass(sq, bands)
    if not edge <= BOUNDARY_MASS_TOL * total < math.inf:
        if not math.isfinite(total):
            raise NumericsError(f"non-finite mass at t = {t:.6g}")
        raise GuardViolation(t, edge / total, BOUNDARY_MASS_TOL)


# ---------------------------------------------------------------------------
# exact nonlinear substep
# ---------------------------------------------------------------------------

def _decay_scales(a0: np.ndarray, b0: np.ndarray, s: float):
    """Amplitude ratios ``sqrt(a(s)/a0)``, ``sqrt(b(s)/b0)`` of ``a' = b' = -2ab``.

    The closed form is ``a(s)/a0 = 1 / (1 - b0 expm1(-2 m s) / m)`` and
    ``b(s)/b0 = exp(-2 m s) a(s)/a0`` with ``m = a0 - b0``.  One expm1 of half
    the exponent, ``h = expm1(-m s)``, gives both ``exp(-m s) = 1 + h`` and
    ``expm1(-2 m s) = h (2 + h)`` to relative accuracy; at ``m = 0`` the
    quotient takes its limit ``-2 s``.  ``a0``, ``b0`` are arrays of at least
    one dimension, left untouched; the two results are new arrays.

    Forward (``s > 0``) the flow exists for all time.  Backward (``s < 0``,
    the triple jump's middle stage) it blows up: a point is in its domain only
    while ``1 - b0 expm1(2 m |s|) / m > 0``, and a point past it gets NaN
    ratios, silently, for the guard to catch.
    """
    m = a0 - b0
    h = m * -s
    clamped = None
    if s > 0.0 and h.max(initial=0.0) > 300.0:
        # Far beyond the logistic transition the survivor has locked to |m|
        # and the loser has underflowed; expm1 would overflow there, so clamp.
        clamped = h > 300.0
        h[clamped] = 0.0
    with np.errstate(all="ignore"):
        np.expm1(h, out=h)
        k1 = h + 2.0
        k1 *= h
        k1 /= m
        if np.count_nonzero(m) < m.size:
            k1[m == 0.0] = -2.0 * s
        k1 *= b0
        np.subtract(1.0, k1, out=k1)
        np.sqrt(k1, out=k1)
        np.reciprocal(k1, out=k1)
        h += 1.0
        h *= k1
    if clamped is not None:
        # m < 0 there: component 1 has fully decayed, component 2 -> |m|
        k1[clamped] = 0.0
        h[clamped] = np.sqrt(-m[clamped] / np.broadcast_to(b0, m.shape)[clamped])
    return k1, h


def _decay_substep(v: np.ndarray, dt: float) -> np.ndarray:
    """Exact nonlinear substep on a ``(2, N)`` state, in place; returns the
    ``(2, N)`` squared amplitudes it started from."""
    sq = v.real ** 2 + v.imag ** 2
    k1, k2 = _decay_scales(sq[0], sq[1], dt)
    v[0] *= k1
    v[1] *= k2
    return sq


def _rotation_substep(v: np.ndarray, dt: float) -> np.ndarray:
    """Exact substep of the phase-rotating coupling on a ``(2, N)`` state, in
    place: ``u_j <- u_j exp(-i dt |u_{3-j}|^2)`` keeps the moduli and runs
    backward too; returns the ``(2, N)`` squared amplitudes it started from."""
    sq = v.real ** 2 + v.imag ** 2
    v *= np.exp(-1j * dt * sq[::-1])
    return sq


# the exact nonlinear substep of each coupling
_SUBSTEPS = {"dissipative": _decay_substep, "conservative": _rotation_substep}


class _StrangKernel:
    """Strang steps of a ``(2, N)`` x-space state, first same as last: the
    stages of the scheme's composed step.

    The trailing half free flow of each stage is left pending and merged into
    the leading half of the next: free flows compose exactly,
    ``U(a) U(b) = U(a + b)``, so a stage costs one batched FFT, one multiply
    and one batched IFFT around the exact substep, and the three stages of
    a step six transforms.  A stage may run backward (``dt < 0``).
    ``flush`` applies the pending half step; the state is an iterate only
    after it.

    ``substep(v, dt)`` is the exact nonlinear substep, one of
    ``_SUBSTEPS``: it advances ``v`` in place and returns the squared
    amplitudes it started from.  Every stage guards its mid-time state by
    :func:`_check_bands` on them.  One FFT spreads a NaN to every point, so
    the sums catch it without a scan for non-finite values: a backward stage
    that leaves the decay substep's domain stops the run at the next stage's
    mid-time, with a NumericsError that names the amplitude or
    ``dt_policy.dt`` as too large.
    """

    def __init__(self, grid: Grid, substep):
        self.grid = grid
        self.substep = substep
        self.pending = 0.0
        self.bands = _edge_bands(grid)
        self._mults: dict[float, np.ndarray] = {}

    def _free(self, v: np.ndarray, tau: float) -> np.ndarray:
        # a cache of the 8 multipliers used last: the few of the current rung
        # stay while the one-off ones of checkpoint steps pass through
        mult = self._mults.pop(tau, None)
        if mult is None:
            if len(self._mults) == 8:
                del self._mults[next(iter(self._mults))]
            mult = _free_multiplier_fft(self.grid, tau)
        self._mults[tau] = mult
        spec = np.fft.fft(v, axis=-1)
        spec *= mult
        return np.fft.ifft(spec, axis=-1)

    def step(self, v: np.ndarray, t: float, dt: float) -> np.ndarray:
        """Advance ``v`` from t to t + dt; the guard reports the mid-time."""
        v = self._free(v, self.pending + 0.5 * dt)
        self.pending = 0.5 * dt
        try:
            _check_bands(self.substep(v, dt), self.bands, t + 0.5 * dt)
        except NumericsError as exc:
            if self.substep is not _decay_substep:
                raise
            raise NumericsError(f"{exc}: the amplitude or dt_policy.dt is too large (a "
                                f"backward stage left the exact substep's domain)") from None
        return v

    def flush(self, v: np.ndarray) -> np.ndarray:
        if self.pending:
            v = self._free(v, self.pending)
            self.pending = 0.0
        return v


# ---------------------------------------------------------------------------
# drivers
# ---------------------------------------------------------------------------

def _guard(grid: Grid, v: np.ndarray, t: float) -> None:
    """Reject a ``(2, N)`` state with non-finite values, then by
    :func:`_check_bands`, the test of every Strang stage."""
    if not np.all(np.isfinite(v.view(np.float64))):
        raise NumericsError(f"non-finite values at t = {t:.6g}")
    _check_bands(np.abs(v[0]) ** 2 + np.abs(v[1]) ** 2, _edge_bands(grid), t)


def _drive(config: SolverConfig, initial: np.ndarray, scheme, provenance: dict) -> Trajectory:
    """Step from t_start through every checkpoint with one scheme.

    ``scheme(config, v)`` sets up its state from the ``(2, N)`` state ``v``
    at t_start, which it leaves untouched, and returns ``(step, fields)``:
    ``step(t, dt)`` advances the state from t to t + dt, and ``fields(t)``
    returns the ``(2, N)`` x-space state at a checkpoint time t, which is
    copied into that checkpoint's row of the trajectory.
    """
    grid = config.grid
    v = np.ascontiguousarray(initial, dtype=np.complex128)
    if v.shape != (2, grid.n_points):
        raise ConfigError(f"initial state has shape {v.shape}; the config's grid "
                          f"needs (2, {grid.n_points})")
    t = config.t_start
    _guard(grid, v, t)
    step, fields = scheme(config, v)

    cps = config.resolved_checkpoints()
    states = np.empty((len(cps), 2, grid.n_points), dtype=np.complex128)
    dts = []
    i_cp = 0
    while i_cp < len(cps):
        target = cps[i_cp]
        if target <= t + _time_tol(t):
            states[i_cp] = fields(target)
            _guard(grid, states[i_cp], target)
            i_cp += 1
            continue
        dt = min(config.dt_policy.dt_at(t), target - t)
        step(t, dt)
        t = target if target - t - dt <= _time_tol(target) else t + dt
        dts.append(dt)

    return Trajectory(config=config, ts=cps, states=states, provenance={
        **provenance, "n_steps": len(dts), "dt_min": min(dts, default=None),
        "dt_max": max(dts, default=None)})


def _strang_scheme(config: SolverConfig, v: np.ndarray):
    """Fused triple-jump steps ``S(W1 dt) S(W0 dt) S(W1 dt)`` of the Strang
    kernel with the coupling's exact substep; checkpoints flush the pending
    half free step."""
    kernel = _StrangKernel(config.grid, _SUBSTEPS[config.coupling])

    def step(t: float, dt: float) -> None:
        nonlocal v
        outer = W1 * dt
        v = kernel.step(v, t, outer)
        v = kernel.step(v, t + outer, W0 * dt)
        v = kernel.step(v, t + dt - outer, outer)

    def fields(t: float) -> np.ndarray:
        nonlocal v
        v = kernel.flush(v)
        return v

    return step, fields


def _rk4_scheme(config: SolverConfig, v: np.ndarray):
    """Classical RK4 on the profile pair alpha(t) = F U(-t) u(t); checkpoints
    push it forward to x-space.

    ``dalpha/dt = -c F U(-t) N(U(t) F^-1 alpha)`` with
    ``N_j = |u_{3-j}|^2 u_j`` and ``c = 1`` for the dissipative coupling or
    ``c = i`` for the phase-rotating variant.  Desk-scale oracle; costlier
    than splitting.
    """
    grid = config.grid
    coef = 1.0 if config.coupling == "dissipative" else 1.0j
    w = _pull_back(grid, v, config.t_start)

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

    def fields(t: float) -> np.ndarray:
        return _push_forward(grid, w, t)

    return step, fields


def run(config: SolverConfig, initial: np.ndarray) -> Trajectory:
    """Integrate the ``(2, N)`` state ``initial`` at t_start to t_end by the
    composed Strang steps of :func:`_strang_scheme`, with the exact substep
    of the config's coupling, recording it and its ledger at each checkpoint.

    A state of another shape than the config's grid is a ConfigError.
    Aborts with :class:`GuardViolation` if mass accumulates near the box
    boundary (periodic wrap-around silently corrupts long-time profiles) and
    with :class:`NumericsError` once the state holds non-finite values; both
    are checked at every Strang stage.
    """
    return _drive(config, initial, _strang_scheme, {"scheme": "strang_exact"})
