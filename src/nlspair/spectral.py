"""Grids and the unitary discrete Fourier transforms of states on them.

A state is a complex ``(2, N)`` array of the x-space samples of ``(u1, u2)``
on a :class:`Grid`; a run is an ``(n_t, 2, N)`` stack of them.  The
transform convention is the continuum-normalised one,
``(F f)(xi) = (2 pi)^{-1/2} \\int e^{-i x xi} f(x) dx``, discretised with
``dx`` and ``dxi`` quadrature weights so that Plancherel holds exactly in the
induced grid norms and analytic formulas carry over without stray constants.
The free flow ``U(t)``, the profile ``F U(-t) u`` and ``J = U(t) x U(-t)``
are the array kernels below, batched along leading axes.

A grid and its arrays are immutable and safe to share across threads.
:class:`ComplexField` and :class:`FieldPair` only make up the read-only row
view ``Trajectory.checkpoints`` of any run, computed or stored.
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


@dataclass(frozen=True, eq=False)
class ComplexField:
    """One component of a stored state: a row of a state array on its grid at a time."""

    grid: Grid
    values: np.ndarray
    time: float


@dataclass(frozen=True, eq=False)
class FieldPair:
    """The two components ``(u1, u2)`` of a stored state at a common time."""

    u1: ComplexField
    u2: ComplexField

    @property
    def grid(self) -> Grid:
        return self.u1.grid

    @property
    def time(self) -> float:
        return self.u1.time


# ---------------------------------------------------------------------------
# array kernels (private): the transforms of the steppers and the analytics
# ---------------------------------------------------------------------------

def _forward_array(grid: Grid, values: np.ndarray) -> np.ndarray:
    """Ordered, continuum-normalised spectrum of raw x-space samples (last axis).

    N/2 is even, so ``fftshift(fft(v)) == fft((-1)^n v)``: the sign on the
    input puts the output in ordered frequencies without a reordering copy.
    """
    spec = np.fft.fft(values * grid._sign, axis=-1)
    spec *= grid._sign * (grid.dx / SQRT_2PI)
    return spec


def _inverse_array(grid: Grid, spec: np.ndarray) -> np.ndarray:
    """Raw x-space samples of an ordered spectrum; ``ifft(ifftshift(X)) == (-1)^n ifft(X)``."""
    out = np.fft.ifft(spec * grid._sign, axis=-1)
    out *= grid._sign * (grid.n_points * grid.dxi / SQRT_2PI)
    return out


def _half_exponential(grid: Grid, t) -> np.ndarray:
    """exp(-i t xi^2 / 2) at the frequencies ``0 .. N/2 - 1``: the half
    spectrum from which both tables of the free flow ``U(t)`` are mirrored.
    ``xi^2`` is even, so the negative frequencies take these values
    exactly; ``t`` is a scalar or an array of times, one row per time."""
    t = np.asarray(t, dtype=float)
    return np.exp(-0.5j * t[..., None] * grid._xi_fft[:grid._nyq_fft] ** 2)


def _signed_half(grid: Grid, t) -> np.ndarray:
    """exp(-i t xi^2 / 2) (-1)^k at the frequencies ``0 .. N/2 - 1``: the
    upper half ``[..., N/2:]`` of :func:`_profile_multiplier`, which callers
    that keep many tables hold, mirroring a few rows at a time."""
    pos = _half_exponential(grid, t)
    pos *= grid._sign[:grid._nyq_fft]
    return pos


def _profile_multiplier(grid: Grid, t) -> np.ndarray:
    """exp(-i t xi^2 / 2) (-1)^k in ordered frequencies, Nyquist zeroed: the
    table of the free flow ``U(t)`` for :func:`_pull_back` and
    :func:`_push_forward`, mirrored from :func:`_signed_half`.  ``t`` is a
    scalar, giving shape ``(N,)``, or an array of times, one row per time."""
    return _mirror(grid, _signed_half(grid, t))


def _mirror(grid: Grid, pos: np.ndarray) -> np.ndarray:
    """The ordered table whose upper half ``[..., N/2:]``, the frequencies
    ``0 .. N/2 - 1``, is ``pos``, mirrored onto the negative frequencies with
    Nyquist zeroed: exact for ``xi^2`` and, N/2 being even, for ``(-1)^k``."""
    half = grid._nyq_fft
    table = np.empty(pos.shape[:-1] + (grid.n_points,), dtype=np.complex128)
    table[..., 0] = 0.0
    table[..., 1:half] = pos[..., :0:-1]
    table[..., half:] = pos
    return table


def _free_multiplier_fft(grid: Grid, dt) -> np.ndarray:
    """exp(-i dt xi^2 / 2) in fft order, Nyquist zeroed: the ordered mirror
    of :func:`_half_exponential`, shifted to fft order.  ``dt`` is a scalar
    or an array of times, as there."""
    return np.fft.ifftshift(_mirror(grid, _half_exponential(grid, dt)), axes=-1)


def _pull_back(grid: Grid, values: np.ndarray, t,
               table: np.ndarray | None = None, overwrite_x: bool = False) -> np.ndarray:
    """Profile ``F U(-t) u`` of raw x-space samples, in one FFT.

    Batched along leading axes; ``t`` is a scalar or an array of times that
    broadcasts against them, e.g. one time per row of ``values``.  Like every
    free-flow multiplier it zeroes the Nyquist mode, at ``t = 0`` too.
    ``U(-t)`` multiplies the spectrum by the conjugate of the free-flow
    table: ``table`` is ``_profile_multiplier(grid, t)``, passed by callers
    that transform many stacks at the same times and left untouched, or
    formed here when none is passed.  ``overwrite_x`` lets the sign go into
    ``values`` in place, for callers that pass a temporary.
    """
    spec = np.multiply(values, grid._sign, out=values if overwrite_x else None)
    np.fft.fft(spec, axis=-1, out=spec)
    own = table is None
    if own:
        table = _profile_multiplier(grid, t)
    spec *= np.conjugate(table, out=table if own else None)
    # the product with the multiplier's zero may be -0: store +0
    spec[..., 0] = 0.0
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


def _nyquist(grid: Grid, u: np.ndarray) -> np.ndarray:
    """The Nyquist mode of ``F u`` per row of raw x-space samples, which every
    profile drops: a rank-one alternating sum."""
    return (grid.dx / SQRT_2PI) * (u @ grid._sign)


def _sq_rows(a: np.ndarray) -> np.ndarray:
    """``sum |a|^2`` along the last axis of a C-contiguous complex stack."""
    f = a.view(np.float64)
    return np.einsum("...i,...i->...", f, f)


def _profile_sq(grid: Grid, dalpha: np.ndarray, nyq: np.ndarray | None = None):
    """``(||d||^2, ||J d||^2)`` per row of a difference ``d`` of states, read
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
