import numpy as np
import pytest

import nlspair as nl


@pytest.fixture(scope="session")
def small_grid():
    return nl.make_grid(256, 60.0)


@pytest.fixture(scope="session")
def transform_grid():
    # wide enough that a unit Gaussian is resolved to machine precision
    return nl.make_grid(1024, 80.0)


@pytest.fixture()
def rng():
    return np.random.default_rng(20240811)


def bandlimited_field(grid, rng, band_frac=0.25, amp=1.0, time=0.0):
    """Seeded random field with spectrum confined to a central band."""
    coeff = np.zeros(grid.n_points, dtype=complex)
    mask = np.abs(grid.xi) <= band_frac * np.max(np.abs(grid.xi))
    n = int(mask.sum())
    coeff[mask] = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    from nlspair.spectral import _inverse_array
    vals = _inverse_array(grid, coeff)
    vals *= amp / np.max(np.abs(vals))
    return nl.ComplexField(grid, vals, time)


def gaussian_field(grid, amp=1.0, width=1.0, center=0.0, velocity=0.0, time=0.0):
    vals = amp * np.exp(-0.5 * ((grid.x - center) / width) ** 2)
    if velocity:
        vals = vals * np.exp(1j * velocity * grid.x)
    return nl.ComplexField(grid, vals, time)


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
