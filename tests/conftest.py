import numpy as np
import pytest

import nlspair as nl
from nlspair.dynamics import _StrangKernel


@pytest.fixture(scope="session")
def small_grid():
    return nl.Grid(256, 60.0)


@pytest.fixture(scope="session")
def transform_grid():
    # wide enough that a unit Gaussian is resolved to machine precision
    return nl.Grid(1024, 80.0)


@pytest.fixture()
def rng():
    return np.random.default_rng(20240811)


def bandlimited_field(grid, rng, band_frac=0.25, amp=1.0):
    """Seeded random x-space samples with spectrum confined to a central band."""
    coeff = np.zeros(grid.n_points, dtype=complex)
    mask = np.abs(grid.xi) <= band_frac * np.max(np.abs(grid.xi))
    n = int(mask.sum())
    coeff[mask] = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    from nlspair.spectral import _inverse_array
    vals = _inverse_array(grid, coeff)
    vals *= amp / np.max(np.abs(vals))
    return vals


def gaussian_field(grid, amp=1.0, width=1.0, center=0.0, velocity=0.0):
    """Complex x-space samples of a Gaussian, modulated by ``velocity``."""
    vals = amp * np.exp(-0.5 * ((grid.x - center) / width) ** 2) + 0j
    if velocity:
        vals = vals * np.exp(1j * velocity * grid.x)
    return vals


def l2(grid, v):
    """dx-weighted L2 norms along the last axis of x-space samples."""
    return np.sqrt(grid.dx * np.sum(np.abs(v) ** 2, axis=-1))


def free_flow(grid, v, t):
    """``U(t) v`` by the Strang kernel's free flow, as the stepper applies it."""
    return _StrangKernel(grid)._free(v, t)


def strang_step(grid, v, t, dt):
    """One Strang step of a ``(2, N)`` state on a fresh kernel: half free flow,
    exact nonlinear substep, half free flow."""
    kernel = _StrangKernel(grid)
    return kernel.flush(kernel.step(v, t, dt))


def cumtrapz_from_start(ts, vals):
    """``integral_{t_0}^{t_i} vals dt`` by trapezoid along the last axis, by
    cumulative sum: the reference of ``fits.cumtrapz_rows``."""
    dt = np.diff(ts)
    seg = 0.5 * (vals[..., 1:] + vals[..., :-1]) * dt
    out = np.zeros_like(vals)
    out[..., 1:] = np.cumsum(seg, axis=-1)
    return out


def rel_l2(grid, a, b):
    num = np.sqrt(np.sum(np.abs(a - b) ** 2))
    den = np.sqrt(np.sum(np.abs(b) ** 2))
    return num / den if den > 0 else num


@pytest.fixture()
def fft_calls(monkeypatch):
    """Counts of ``numpy.fft.fft`` and ``numpy.fft.ifft`` calls, by name."""
    counts = {"fft": 0, "ifft": 0}
    for name in counts:
        original = getattr(np.fft, name)

        def counted(*args, _name=name, _original=original, **kwargs):
            counts[_name] += 1
            return _original(*args, **kwargs)
        monkeypatch.setattr(np.fft, name, counted)
    return counts


@pytest.fixture()
def fft_points(monkeypatch):
    """The number of points that ``numpy.fft.fft`` and ``numpy.fft.ifft``
    transform, summed over calls: the size of each input."""
    counts = {"points": 0}
    for name in ("fft", "ifft"):
        original = getattr(np.fft, name)

        def counted(a, *args, _original=original, **kwargs):
            counts["points"] += np.size(a)
            return _original(a, *args, **kwargs)
        monkeypatch.setattr(np.fft, name, counted)
    return counts
