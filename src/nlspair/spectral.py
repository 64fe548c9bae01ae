"""Grids, unitary discrete Fourier transforms, and the free-flow operator algebra.

The transform convention is the continuum-normalised one,
``(F f)(xi) = (2 pi)^{-1/2} \\int e^{-i x xi} f(x) dx``, discretised with
``dx`` and ``dxi`` quadrature weights so that Plancherel holds exactly in the
induced grid norms and analytic formulas carry over without stray constants.

All operations are pure functions of immutable inputs; field values are
frozen (read-only arrays) after construction and safe to share across
threads.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, finite_real

SQRT_2PI = math.sqrt(2.0 * math.pi)


def _is_power_of_two(n: int) -> bool:
    return n >= 1 and (n & (n - 1)) == 0


@dataclass(frozen=True)
class Grid:
    """Uniform periodic grid of N points on [-L/2, L/2) with its frequency dual.

    Nodes are ``x_n = -L/2 + n L/N``; frequencies are ``xi_k = 2 pi k / L``
    for ``k = -N/2 .. N/2 - 1``, stored in increasing order.  The lone
    unpaired frequency ``-N/2`` (Nyquist) sits at index 0 of ``xi``; every
    field-valued spectral multiplier zeroes it because its sign is ambiguous.
    """

    n_points: int
    length: float

    x: np.ndarray = field(init=False, repr=False, compare=False)
    xi: np.ndarray = field(init=False, repr=False, compare=False)
    dx: float = field(init=False, repr=False, compare=False)
    dxi: float = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        n, length = self.n_points, self.length
        if not isinstance(n, (int, np.integer)) or n < 8 or not _is_power_of_two(int(n)):
            raise ConfigError(f"n_points must be a power of two >= 8, got {n!r}")
        if finite_real(length, "length") <= 0:
            raise ConfigError(f"length must be positive, got {length!r}")
        n = int(n)
        length = float(length)
        object.__setattr__(self, "n_points", n)
        object.__setattr__(self, "length", length)
        dx = length / n
        dxi = 2.0 * math.pi / length
        x = -0.5 * length + dx * np.arange(n)
        xi = dxi * (np.arange(n) - n // 2)
        # fft-order frequencies and Nyquist slot, used by the fast kernels
        xi_fft = 2.0 * math.pi * np.fft.fftfreq(n, d=dx)
        # (-1)^k: moves the origin of the ordered transforms to the centre
        sign = np.where(np.arange(n) % 2 == 0, 1.0, -1.0)
        for name, val in (("dx", dx), ("dxi", dxi), ("x", x), ("xi", xi), ("_xi_fft", xi_fft),
                          ("_nyq_fft", n // 2), ("_sign", sign)):
            object.__setattr__(self, name, val)
        for arr in (x, xi, xi_fft, sign):
            arr.flags.writeable = False


def make_grid(n_points: int, length: float) -> Grid:
    """Build a grid; rejects non-power-of-two sizes and nonpositive lengths."""
    return Grid(n_points, length)


@dataclass(frozen=True)
class ComplexField:
    """Complex samples of one field on a grid at one time.

    ``domain`` is ``"x"`` for physical space, ``"xi"`` for the frequency side.
    Values are coerced to complex128, copied, and frozen.
    """

    grid: Grid
    values: np.ndarray = field(compare=False)
    time: float = 0.0
    domain: str = "x"

    def __post_init__(self) -> None:
        vals = np.ascontiguousarray(self.values, dtype=np.complex128).copy()
        if vals.shape != (self.grid.n_points,):
            raise ValueError(
                f"field length {vals.shape} does not match grid ({self.grid.n_points},)"
            )
        if not np.all(np.isfinite(vals.view(np.float64))):
            raise ValueError("field contains non-finite entries")
        if self.domain not in ("x", "xi"):
            raise ValueError(f"domain must be 'x' or 'xi', got {self.domain!r}")
        vals.flags.writeable = False
        object.__setattr__(self, "values", vals)
        object.__setattr__(self, "time", float(self.time))

    @classmethod
    def _row(cls, grid: Grid, values: np.ndarray, time: float) -> "ComplexField":
        """An x-space field over a row of a frozen, already checked stack, uncopied."""
        f = object.__new__(cls)
        for name, val in (("grid", grid), ("values", values), ("time", float(time)),
                          ("domain", "x")):
            object.__setattr__(f, name, val)
        return f


@dataclass(frozen=True)
class FieldPair:
    """The two-component state (u1, u2) on a common grid at a common time."""

    u1: ComplexField
    u2: ComplexField

    def __post_init__(self) -> None:
        if self.u1.grid != self.u2.grid:
            raise ValueError("components live on different grids")
        if self.u1.domain != self.u2.domain:
            raise ValueError("components live on different domains")
        if abs(self.u1.time - self.u2.time) > 1e-9 * max(1.0, abs(self.u1.time)):
            raise ValueError(f"component times differ: {self.u1.time} vs {self.u2.time}")

    @property
    def grid(self) -> Grid:
        return self.u1.grid

    @property
    def time(self) -> float:
        return self.u1.time


# ---------------------------------------------------------------------------
# array kernels (private): fft-order fast paths shared by the time steppers
# ---------------------------------------------------------------------------

def _free_multiplier_fft(grid: Grid, dt) -> np.ndarray:
    """exp(-i dt xi^2 / 2) in fft order, Nyquist zeroed.

    ``dt`` is a scalar, giving shape ``(N,)``, or an array of times, giving
    one row per time.  ``xi^2`` is even and fft order holds the frequencies
    ``0 .. N/2 - 1`` first, so the exponentials of that half are mirrored
    onto the negative frequencies instead of being evaluated twice.
    """
    half = grid._nyq_fft
    dt = np.asarray(dt, dtype=float)
    pos = np.exp(-0.5j * dt[..., None] * grid._xi_fft[:half] ** 2)
    mult = np.empty(dt.shape + (grid.n_points,), dtype=np.complex128)
    mult[..., :half] = pos
    mult[..., half] = 0.0
    mult[..., half + 1:] = pos[..., :0:-1]
    return mult


def _free_step_array(grid: Grid, values: np.ndarray, dt: float,
                     mult: np.ndarray | None = None) -> np.ndarray:
    """Apply exp(i dt/2 d^2/dx^2) to raw x-space samples."""
    if dt == 0.0 and mult is None:
        return values
    if mult is None:
        mult = _free_multiplier_fft(grid, dt)
    return np.fft.ifft(np.fft.fft(values) * mult)


def _forward_array(grid: Grid, values: np.ndarray, overwrite_x: bool = False) -> np.ndarray:
    """Ordered, continuum-normalised spectrum of raw x-space samples (last axis).

    N/2 is even, so ``fftshift(fft(v)) == fft((-1)^n v)``: the sign on the
    input puts the output in ordered frequencies without a reordering copy.
    ``overwrite_x`` lets the sign go into ``values`` in place, for callers
    that pass a temporary.
    """
    spec = np.fft.fft(np.multiply(values, grid._sign, out=values if overwrite_x else None), axis=-1)
    spec *= grid._sign * (grid.dx / SQRT_2PI)
    return spec


def _inverse_array(grid: Grid, spec: np.ndarray) -> np.ndarray:
    """Raw x-space samples of an ordered spectrum; ``ifft(ifftshift(X)) == (-1)^n ifft(X)``."""
    out = np.fft.ifft(spec * grid._sign, axis=-1)
    out *= grid._sign * (grid.n_points * grid.dxi / SQRT_2PI)
    return out


def _profile_multiplier(grid: Grid, t) -> np.ndarray:
    """exp(-i t xi^2 / 2) (-1)^k in ordered frequencies, Nyquist zeroed.

    The free-flow table of :func:`_pull_back` and :func:`_push_forward`:
    ``t`` is a scalar, giving shape ``(N,)``, or an array of times, giving
    one row per time.  The values are those of :func:`_free_multiplier_fft`
    and the factor ``(-1)^k`` of the ordered transforms is folded in; both
    are exact, since ``xi^2`` is even and N/2 is even.
    """
    half = grid._nyq_fft
    t = np.asarray(t, dtype=float)
    pos = np.exp(-0.5j * t[..., None] * grid._xi_fft[:half] ** 2)
    pos *= grid._sign[:half]
    table = np.empty(t.shape + (grid.n_points,), dtype=np.complex128)
    table[..., 0] = 0.0
    table[..., 1:half] = pos[..., :0:-1]
    table[..., half:] = pos
    return table


def _pull_back(grid: Grid, values: np.ndarray, t,
               table: np.ndarray | None = None, overwrite_x: bool = False) -> np.ndarray:
    """Profile ``F U(-t) u`` of raw x-space samples, in one FFT.

    Batched along leading axes; ``t`` is a scalar or an array of times that
    broadcasts against them, e.g. one time per row of ``values``.  Like every
    free-flow multiplier it zeroes the Nyquist mode, at ``t = 0`` too.
    ``table`` is ``_profile_multiplier(grid, t)``, passed by callers that
    transform many stacks at the same times, and is left untouched;
    ``overwrite_x`` is as for :func:`_forward_array`.
    """
    spec = np.multiply(values, grid._sign, out=values if overwrite_x else None)
    np.fft.fft(spec, axis=-1, out=spec)
    if table is None:
        back = _profile_multiplier(grid, t)
        spec *= np.conjugate(back, out=back)
    else:
        # U(-t) multiplies by the conjugate: conj(conj(s) m) == s conj(m) bitwise
        np.conjugate(spec, out=spec)
        spec *= table
        np.conjugate(spec, out=spec)
    spec *= grid.dx / SQRT_2PI
    return spec


def _push_forward(grid: Grid, alpha: np.ndarray, t,
                  table: np.ndarray | None = None) -> np.ndarray:
    """x-space samples ``U(t) F^-1 alpha`` of a profile, in one IFFT.

    The inverse of :func:`_pull_back` on fields without a Nyquist mode.
    ``t`` is a scalar or an array of times; the rows of its multipliers
    broadcast against ``alpha``, so one profile can be pushed to many times.
    ``table`` is as for :func:`_pull_back`.
    """
    if table is None:
        table = _profile_multiplier(grid, t)
    out = np.multiply(alpha, table)
    np.fft.ifft(out, axis=-1, out=out)
    out *= grid._sign * (grid.n_points * grid.dxi / SQRT_2PI)
    return out


def _j_spectrum(grid: Grid, alpha: np.ndarray) -> np.ndarray:
    """``F J(t) u`` read off the profile ``alpha = F U(-t) u``.

    ``J = U(t) x U(-t)`` and ``U(t)`` only rotates phases, so this is
    ``F(x F^-1 alpha)`` with the Nyquist slot dropped; no time is needed.
    """
    # the ordered transforms of _inverse_array and _forward_array in one
    # buffer; their inner factors (-1)^n cancel exactly and are left out
    spec = alpha * grid._sign
    np.fft.ifft(spec, axis=-1, out=spec)
    spec *= grid.n_points * grid.dxi / SQRT_2PI
    spec *= grid.x
    np.fft.fft(spec, axis=-1, out=spec)
    spec *= grid._sign * (grid.dx / SQRT_2PI)
    spec[..., 0] = 0.0
    return spec


# ---------------------------------------------------------------------------
# public operations
# ---------------------------------------------------------------------------

def forward_transform(f: ComplexField) -> ComplexField:
    """Map an x-space field to its frequency-side samples on ``grid.xi``.

    Plancherel holds exactly: ``dx sum |f|^2 == dxi sum |Ff|^2`` up to
    roundoff, and ``inverse_transform(forward_transform(f)) == f``.
    """
    if f.domain != "x":
        raise ValueError("forward_transform expects an x-space field")
    return ComplexField(f.grid, _forward_array(f.grid, f.values), f.time, domain="xi")


def inverse_transform(f: ComplexField) -> ComplexField:
    if f.domain != "xi":
        raise ValueError("inverse_transform expects a frequency-side field")
    return ComplexField(f.grid, _inverse_array(f.grid, f.values), f.time, domain="x")


def free_propagate(f: ComplexField, dt: float) -> ComplexField:
    """Evolve by the free flow: multiply the spectrum by exp(-i xi^2 dt / 2).

    Unitary up to roundoff; satisfies the group law in ``dt``.  Negative
    ``dt`` is allowed (used to pull a state back along the free flow).
    ``dt == 0`` returns the input unchanged, Nyquist content included.
    """
    if f.domain != "x":
        raise ValueError("free_propagate expects an x-space field")
    dt = float(dt)
    if dt == 0.0:
        return f
    out = _free_step_array(f.grid, f.values, dt)
    return ComplexField(f.grid, out, f.time + dt, domain="x")


def apply_M(f: ComplexField, t: float) -> ComplexField:
    """Multiply by the quadratic phase exp(i x^2 / 2t).  Unimodular; t != 0."""
    t = float(t)
    if t == 0.0:
        raise ValueError("quadratic phase is undefined at t = 0")
    if f.domain != "x":
        raise ValueError("apply_M expects an x-space field")
    chirp = np.exp(0.5j * f.grid.x ** 2 / t)
    return ComplexField(f.grid, f.values * chirp, f.time, domain="x")


def apply_D(f: ComplexField, t: float) -> ComplexField:
    """Exact grid-to-grid dilation (it)^{-1/2} phi(x/t), frequency side to x side.

    Only defined when the dilation maps the frequency grid onto the spatial
    grid exactly, i.e. ``dx == t * dxi`` (equivalently ``L^2 == 2 pi t N``).
    Used inside the factorisation of the free propagator; never applied on
    mismatched grids.
    """
    t = float(t)
    if t == 0.0:
        raise ValueError("dilation is undefined at t = 0")
    if f.domain != "xi":
        raise ValueError("apply_D expects a frequency-side field")
    g = f.grid
    if abs(g.dx - t * g.dxi) > 1e-9 * g.dx:
        raise ValueError(
            f"dilation by t={t} does not map this grid onto itself "
            f"(need length^2 == 2 pi t N, i.e. L = {math.sqrt(2*math.pi*abs(t)*g.n_points):.6g})"
        )
    scale = 1.0 / np.sqrt(1j * t)
    return ComplexField(g, f.values * scale, f.time, domain="x")


def apply_J(f: ComplexField, t: float) -> ComplexField:
    """Weighted translation x + i t d/dx, realised as U(t) x U(-t).

    At ``t == 0`` this is exact multiplication by x (no transforms applied).
    Commutes with the free flow, so its L2 norm is conserved along free
    solutions.
    """
    if f.domain != "x":
        raise ValueError("apply_J expects an x-space field")
    t = float(t)
    g = f.grid
    if t == 0.0:
        return ComplexField(g, g.x * f.values, f.time, domain="x")
    back = _free_step_array(g, f.values, -t)
    out = _free_step_array(g, g.x * back, t)
    return ComplexField(g, out, f.time, domain="x")


def sobolev_norm(f: ComplexField, s: float) -> float:
    """Spectral Sobolev norm: sqrt(dxi sum <xi>^{2s} |Ff|^2)."""
    spec = _forward_array(f.grid, f.values) if f.domain == "x" else f.values
    w = (1.0 + f.grid.xi ** 2) ** s
    return math.sqrt(float(f.grid.dxi * np.sum(w * np.abs(spec) ** 2)))


def l2_norm(f: ComplexField) -> float:
    w = f.grid.dx if f.domain == "x" else f.grid.dxi
    return math.sqrt(float(w * np.sum(np.abs(f.values) ** 2)))


@dataclass(frozen=True)
class NormReport:
    """Grid surrogates of the norms used by the decay estimates."""

    l2: float
    linf: float
    h1: float
    h2: float
    h1_1: float


def norms(f: ComplexField) -> NormReport:
    """L2, sup, H^1, H^2 and weighted <x>-H^1 norms of an x-space field."""
    if f.domain != "x":
        raise ValueError("norms expects an x-space field")
    weighted = ComplexField(f.grid, (1.0 + f.grid.x ** 2) ** 0.5 * f.values, f.time)
    return NormReport(
        l2=l2_norm(f),
        linf=float(np.max(np.abs(f.values))),
        h1=sobolev_norm(f, 1.0),
        h2=sobolev_norm(f, 2.0),
        h1_1=sobolev_norm(weighted, 1.0),
    )

