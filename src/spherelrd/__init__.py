"""Spectral-domain long-range-dependence testing for functional time series on the sphere."""

import numbers

__version__ = "0.1.0"


class SpherelrdError(ValueError):
    """A bad model, config, panel or argument: the one error the package raises."""


def _integer(key: str, value) -> int:
    """``value`` as an int (a NumPy integer, or a float with no fractional
    part, included); a boolean or a fractional number names the config ``key``."""
    integral = isinstance(value, numbers.Integral) or (
        isinstance(value, numbers.Real) and float(value).is_integer()
    )
    if integral and not isinstance(value, bool):
        return int(value)
    raise SpherelrdError(f"{key!r} must be an integer, got {value!r}")
