"""Argument-validation helpers.

Small, composable checks used at public-API boundaries.  Each raises
:class:`ValueError`/:class:`TypeError` subclasses with messages that
name the offending parameter, so configuration mistakes surface with
actionable errors instead of downstream shape mismatches.
"""

from __future__ import annotations

from typing import Iterable

import numpy as np

from repro.errors import ConfigurationError, DatasetError

__all__ = [
    "check_positive",
    "check_nonnegative",
    "check_power_of_two",
    "check_multiple",
    "check_in_range",
    "check_dtype",
    "check_choice",
    "check_workers",
    "check_k",
    "check_binary_matrix",
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


def check_k(name: str, value: object, maximum: int) -> int:
    """Validate a top-k size: an integer in ``[1, maximum]``.

    Every top-k entry point (the streaming search, the identity
    service's default and per-request ``k`` -- and through it the
    wire) shares this check, so a fractional, boolean or string ``k``
    fails with one :class:`~repro.errors.DatasetError` instead of
    returning ``ceil(k)`` or 1 matches, or surfacing as a bare
    ``TypeError``.  Returns the validated size.
    """
    if isinstance(value, (bool, np.bool_)) or not isinstance(value, (int, np.integer)):
        raise DatasetError(f"{name} must be a positive integer, got {value!r}")
    if value < 1:
        raise DatasetError(f"{name}={value} must be positive")
    if value > maximum:
        raise DatasetError(
            f"{name}={value} exceeds the supported maximum {maximum}; retain "
            f"fewer candidates or compute the full distance table"
        )
    return int(value)


def check_binary_matrix(name: str, data: object) -> np.ndarray:
    """Validate a binary 0/1 matrix; returns it as an array, uncopied.

    Rejects a wrong rank, a dtype that is neither integer nor bool, and
    values outside {0, 1}, with a :class:`~repro.errors.DatasetError`
    naming ``name`` -- before the caller touches any state.  It runs on
    every streamed, served, mixture-scan and ld-prune chunk, so it
    walks the data once for ``min()`` and once for ``max()``.
    """
    arr = np.asarray(data)
    if arr.ndim != 2:
        raise DatasetError(
            f"{name} must be a 2-D binary matrix, got {arr.ndim}-D shape {arr.shape}"
        )
    if arr.dtype != np.bool_ and not np.issubdtype(arr.dtype, np.integer):
        raise DatasetError(
            f"{name} has dtype {arr.dtype}; binary matrices must use an "
            f"integer or bool dtype"
        )
    if arr.size:
        lo, hi = int(arr.min()), int(arr.max())
        if lo < 0 or hi > 1:
            raise DatasetError(
                f"{name} contains non-binary values "
                f"(min={lo}, max={hi}); entries must be 0 or 1"
            )
    return arr
