"""Exception types shared across the package."""

import math
from numbers import Real


class ConfigError(ValueError):
    """Invalid configuration: bad grid sizes, malformed config files, unknown keys."""


def finite_real(value, what: str) -> float:
    """``value`` as a float; ConfigError unless it is a finite real number, not a bool."""
    if isinstance(value, bool) or not isinstance(value, Real) or not math.isfinite(value):
        raise ConfigError(f"{what} must be finite and real, got {value!r}")
    return float(value)


class GuardViolation(RuntimeError):
    """Boundary-mass guard tripped: the solution reached the edge of the periodic box.

    Carries the time at which the guard fired and the offending mass fraction.
    """

    def __init__(self, time: float, fraction: float, tolerance: float):
        self.time = float(time)
        self.fraction = float(fraction)
        self.tolerance = float(tolerance)
        super().__init__(
            f"boundary mass fraction {fraction:.3e} exceeds {tolerance:.1e} "
            f"at t = {time:.6g}; enlarge the box or shorten the run"
        )


class NumericsError(RuntimeError):
    """Non-finite values appeared during integration."""


class PicardDivergence(RuntimeError):
    """Fixed-point iteration failed to contract (amplitude too large or start time too small)."""


class CheckpointError(ValueError):
    """Checkpoint file rejected: bad magic, version mismatch, or truncated payload."""
