import dataclasses
import threading

import numpy as np
import pytest

import nlspair as nl
from nlspair import dynamics
from nlspair.dynamics import _StrangKernel, _decay_substep
from nlspair.profiles import _first_row
from nlspair.spectral import _pull_back


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
    return _StrangKernel(grid, _decay_substep, v)._free(t)


def strang_step(grid, v, t, dt):
    """One Strang step of a ``(2, N)`` state on a fresh kernel: half free flow,
    exact nonlinear substep, half free flow."""
    kernel = _StrangKernel(grid, _decay_substep, v)
    kernel.stage(t, dt)
    return kernel.fields(t + dt)


def rk4_run(config, state):
    """``run`` of the ``(2, N)`` state by the RK4 oracle in the interaction
    picture instead of the Strang kernel, on the config's coupling and steps."""
    return dynamics._drive(config, state, dynamics._rk4_scheme, {"scheme": "rk4_reference"})


def one_shot_profiles(traj):
    """The profiles ``alpha = F U(-t) u`` at the analytics' checkpoints
    (t >= T_MIN) as one ``(n_t, 2, N)`` stack, in one pull-back of the
    whole stack: the reference of what ``profiles.profile_history`` keeps."""
    i0 = _first_row(traj)
    return _pull_back(traj.grid, traj.states[i0:], traj.ts[i0:, None])


def cumtrapz_from_start(ts, vals):
    """``integral_{t_0}^{t_i} vals dt`` by trapezoid along the last axis, by
    cumulative sum: the reference of ``fits.RunningTrapezoid``."""
    dt = np.diff(ts)
    seg = 0.5 * (vals[..., 1:] + vals[..., :-1]) * dt
    out = np.zeros_like(vals)
    out[..., 1:] = np.cumsum(seg, axis=-1)
    return out


def cumtrapz_from_end(ts, vals):
    """``integral_{t_i}^{t_end} vals dt`` by trapezoid along the last axis, by
    reversed cumulative sum: the reference of ``fits.RunningTrapezoid`` fed
    the reversed rows at the negated times."""
    dt = np.diff(ts)
    seg = 0.5 * (vals[..., 1:] + vals[..., :-1]) * dt
    out = np.zeros_like(vals)
    out[..., :-1] = np.cumsum(seg[..., ::-1], axis=-1)[..., ::-1]
    return out


def rel_l2(grid, a, b):
    num = np.sqrt(np.sum(np.abs(a - b) ** 2))
    den = np.sqrt(np.sum(np.abs(b) ** 2))
    return num / den if den > 0 else num


@pytest.fixture()
def fft_calls(monkeypatch):
    """Counts of ``numpy.fft.fft`` and ``numpy.fft.ifft`` calls, by name,
    from any thread."""
    counts = {"fft": 0, "ifft": 0}
    lock = threading.Lock()
    for name in counts:
        original = getattr(np.fft, name)

        def counted(*args, _name=name, _original=original, **kwargs):
            with lock:
                counts[_name] += 1
            return _original(*args, **kwargs)
        monkeypatch.setattr(np.fft, name, counted)
    return counts


@pytest.fixture()
def fft_points(monkeypatch):
    """The number of points that ``numpy.fft.fft`` and ``numpy.fft.ifft``
    transform, summed over calls from any thread: the size of each input."""
    counts = {"points": 0}
    lock = threading.Lock()
    for name in ("fft", "ifft"):
        original = getattr(np.fft, name)

        def counted(a, *args, _original=original, **kwargs):
            with lock:
                counts["points"] += np.size(a)
            return _original(a, *args, **kwargs)
        monkeypatch.setattr(np.fft, name, counted)
    return counts


def same_arrays(p, q):
    """Every field of two profile histories but the grid, arrays and the
    balance residual, is bitwise the same (shape, dtype and bytes, so the
    sign of a zero counts)."""
    for f in dataclasses.fields(p):
        x, y = getattr(p, f.name), getattr(q, f.name)
        if f.name != "grid":
            # a scalar field, the balance residual, as a 0-d array
            x, y = np.asarray(x), np.asarray(y)
            if (x.shape, x.dtype, x.tobytes()) != (y.shape, y.dtype, y.tobytes()):
                return False
    return True
