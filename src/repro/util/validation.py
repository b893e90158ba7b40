"""Argument-validation helpers.

Small, composable checks used at public-API boundaries.  Each raises
:class:`ValueError`/:class:`TypeError` subclasses with messages that
name the offending parameter, so configuration mistakes surface with
actionable errors instead of downstream shape mismatches.
"""

from __future__ import annotations

from typing import Iterable

import numpy as np

from repro.errors import ConfigurationError

__all__ = [
    "check_positive",
    "check_nonnegative",
    "check_power_of_two",
    "check_multiple",
    "check_in_range",
    "check_dtype",
    "check_choice",
    "check_workers",
]


def check_positive(name: str, value: int | float) -> None:
    """Require ``value > 0``."""
    if not value > 0:
        raise ValueError(f"{name} must be positive, got {value!r}")


def check_nonnegative(name: str, value: int | float) -> None:
    """Require ``value >= 0``."""
    if value < 0:
        raise ValueError(f"{name} must be non-negative, got {value!r}")


def check_power_of_two(name: str, value: int) -> None:
    """Require ``value`` to be a positive power of two."""
    if value <= 0 or (value & (value - 1)) != 0:
        raise ValueError(f"{name} must be a power of two, got {value!r}")


def check_multiple(name: str, value: int, base: int) -> None:
    """Require ``value`` to be a positive multiple of ``base``."""
    if base <= 0:
        raise ValueError(f"base for {name} must be positive, got {base!r}")
    if value <= 0 or value % base != 0:
        raise ValueError(f"{name} must be a positive multiple of {base}, got {value!r}")


def check_in_range(
    name: str,
    value: int | float,
    low: int | float,
    high: int | float,
) -> None:
    """Require ``low <= value <= high``."""
    if not (low <= value <= high):
        raise ValueError(f"{name} must be in [{low}, {high}], got {value!r}")


def check_dtype(name: str, array: np.ndarray, allowed: Iterable[type]) -> None:
    """Require ``array.dtype`` to be one of ``allowed`` NumPy dtypes."""
    allowed_dtypes = tuple(np.dtype(a) for a in allowed)
    if np.asarray(array).dtype not in allowed_dtypes:
        names = ", ".join(str(d) for d in allowed_dtypes)
        raise TypeError(
            f"{name} must have dtype in {{{names}}}, got {np.asarray(array).dtype}"
        )


def check_choice(name: str, value: object, choices: Iterable[object]) -> None:
    """Require ``value`` to be one of ``choices``."""
    options = tuple(choices)
    if value not in options:
        raise ValueError(f"{name} must be one of {options!r}, got {value!r}")


def check_workers(
    name: str, value: object, zero_means_default: bool = False
) -> int:
    """Validate a worker-count parameter at an API entry point.

    Every layer that accepts a worker count (engine constructor,
    framework -- and through it every application entry point and the
    service -- and CLI ``--workers``) shares this check so a bad count
    fails with one clear
    :class:`~repro.errors.ConfigurationError` (a :class:`ValueError`)
    naming the parameter instead of surfacing as a pool-construction
    or type error deep in the stack.  With ``zero_means_default=True``
    (the CLI convention) ``0`` is accepted as "pick the machine
    default" and only negative counts are rejected.  Returns the
    validated count.
    """
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigurationError(
            f"{name} must be an integer worker count, got {value!r}"
        )
    floor = 0 if zero_means_default else 1
    if value < floor:
        expect = "non-negative (0 = machine default)" if zero_means_default \
            else "a positive integer"
        raise ConfigurationError(f"{name} must be {expect}, got {value}")
    return value
