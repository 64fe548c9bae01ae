"""Computations the benchmark makes apart from the program.

The output checks compare the program's reports against these: transforms
written here from ``numpy.fft`` with the continuum convention of the README,
the closed-form reduced profile flow, the smooth spectral window of the
scattering presets, grid quadrature, least-squares slopes, and a writer for
the documented checkpoint binary layout.  Nothing here imports ``nlspair``.
"""

from __future__ import annotations

import math
import struct
from pathlib import Path

import numpy as np

SQRT_2PI = math.sqrt(2.0 * math.pi)
CHECKPOINT_HEADER = struct.Struct("<8sIQdd")   # magic, version, n_points, length, time


def grid(n: int, length: float):
    """Nodes x_n = -L/2 + n dx and ordered frequencies xi_k = (k - N/2) dxi."""
    dx = length / n
    dxi = 2.0 * math.pi / length
    return -0.5 * length + dx * np.arange(n), dxi * (np.arange(n) - n // 2), dx, dxi


def _alternating(n: int) -> np.ndarray:
    # exp(i L xi_k / 2) = (-1)^(k - N/2) exactly, because x starts at -L/2
    return np.where((np.arange(n) - n // 2) % 2 == 0, 1.0, -1.0)


def spectrum(u: np.ndarray, length: float) -> np.ndarray:
    """(2 pi)^(-1/2) dx sum_n exp(-i x_n xi_k) u_n on the ordered xi grid (last axis)."""
    n = u.shape[-1]
    return (length / n / SQRT_2PI) * _alternating(n) * np.fft.fftshift(np.fft.fft(u), axes=-1)


def inverse_spectrum(a: np.ndarray, length: float) -> np.ndarray:
    """(2 pi)^(-1/2) dxi sum_k exp(i x_n xi_k) a_k, the inverse of :func:`spectrum`."""
    n = a.shape[-1]
    dxi = 2.0 * math.pi / length
    return (n * dxi / SQRT_2PI) * np.fft.ifft(np.fft.ifftshift(_alternating(n) * a, axes=-1))


def pull_back(u: np.ndarray, t: float, length: float) -> np.ndarray:
    """Profile alpha = F U(-t) u, with U(t) the multiplier exp(-i t xi^2 / 2)."""
    xi = grid(u.shape[-1], length)[1]
    return np.exp(0.5j * t * xi ** 2) * spectrum(u, length)


def push_forward(alpha: np.ndarray, t: float, length: float) -> np.ndarray:
    """u = U(t) F^-1 alpha, the state whose profile at time t is alpha."""
    xi = grid(alpha.shape[-1], length)[1]
    return inverse_spectrum(np.exp(-0.5j * t * xi ** 2) * alpha, length)


def masses(u1: np.ndarray, u2: np.ndarray, dx: float):
    """dx-quadrature of both masses and of the interaction integral |u1|^2 |u2|^2."""
    a = np.abs(u1) ** 2
    b = np.abs(u2) ** 2
    return dx * a.sum(), dx * b.sum(), dx * (a * b).sum()


def reduced_flow_ratios(a0: np.ndarray, b0: np.ndarray, s: float):
    """Closed form of da/ds = db/ds = -2ab after log-time s, as (a/a0, b/b0).

    With m = a0 - b0 and g = (1 - exp(-2 m s)) / m (g = 2s at m = 0),
    a = a0 / (1 + b0 g) and b = b0 exp(-2 m s) / (1 + b0 g), so a - b = m.
    """
    m = a0 - b0
    safe = np.where(m != 0.0, m, 1.0)
    g = np.where(m != 0.0, -np.expm1(-2.0 * m * s) / safe, 2.0 * s)
    denom = 1.0 + b0 * g
    return 1.0 / denom, np.exp(-2.0 * m * s) / denom


def lstsq_slopes(ts: np.ndarray, series: np.ndarray) -> np.ndarray:
    """Least-squares slope of log(series) against log(ts) along the last axis."""
    design = np.column_stack([np.log(ts), np.ones(len(ts))])
    coef = np.linalg.lstsq(design, np.log(series).reshape(-1, len(ts)).T, rcond=None)[0]
    return coef[0].reshape(series.shape[:-1])


def smooth_window(xi: np.ndarray, lo: float, hi: float, amp: float,
                  plateau: float = 0.5) -> np.ndarray:
    """C-infinity window of the scattering presets: flat top, smooth edges."""
    edge = 0.5 * (1.0 - plateau) * (hi - lo)

    def rise(v):
        v = np.clip(v, 0.0, 1.0)
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            a = np.exp(-1.0 / v)
            b = np.exp(-1.0 / (1.0 - v))
            out = a / (a + b)
        return np.where(v <= 0.0, 0.0, np.where(v >= 1.0, 1.0, out))

    return amp * np.minimum(rise((xi - lo) / edge), rise((hi - xi) / edge))


def write_checkpoint(path: Path, u1: np.ndarray, u2: np.ndarray,
                     length: float, t: float) -> int:
    """Little-endian: magic, u32 version 1, u64 N, f64 L, f64 t, u1 then u2 as re/im f64."""
    n = len(u1)
    payload = CHECKPOINT_HEADER.pack(b"NLSPAIR\x00", 1, n, length, t)
    payload += np.ascontiguousarray(u1, dtype="<c16").tobytes()
    payload += np.ascontiguousarray(u2, dtype="<c16").tobytes()
    Path(path).write_bytes(payload)
    return len(payload)
