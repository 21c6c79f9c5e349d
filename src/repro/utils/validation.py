"""Lightweight argument-validation helpers used across the library."""

from __future__ import annotations

import math
from typing import Any, Iterable

import numpy as np


def check_positive(name: str, value: float) -> None:
    """Raise ``ValueError`` unless ``value`` > 0."""
    if not value > 0:
        raise ValueError(f"{name} must be positive, got {value!r}")


def check_finite(name: str, value: float) -> None:
    """Raise ``ValueError`` unless ``value`` is finite (no NaN/inf)."""
    if not math.isfinite(value):
        raise ValueError(f"{name} must be finite, got {value!r}")


def check_positive_finite(name: str, value: float) -> None:
    """Raise ``ValueError`` unless ``value`` is finite and > 0."""
    check_finite(name, value)
    check_positive(name, value)


def check_probability(name: str, value: float) -> None:
    """Raise ``ValueError`` unless ``value`` is a probability in [0, 1]."""
    if not (math.isfinite(value) and 0.0 <= value <= 1.0):
        raise ValueError(f"{name} must be a probability in [0, 1], "
                         f"got {value!r}")


def check_non_negative(name: str, value: float) -> None:
    """Raise ``ValueError`` unless ``value`` >= 0."""
    if value < 0:
        raise ValueError(f"{name} must be non-negative, got {value!r}")


def check_in(name: str, value: Any, allowed: Iterable[Any]) -> None:
    """Raise ``ValueError`` unless ``value`` is one of ``allowed``."""
    allowed = tuple(allowed)
    if value not in allowed:
        raise ValueError(f"{name} must be one of {allowed}, got {value!r}")


def check_power_of_two(name: str, value: int) -> None:
    """Raise ``ValueError`` unless ``value`` is a positive power of two."""
    if value <= 0 or (value & (value - 1)) != 0:
        raise ValueError(f"{name} must be a positive power of two, got {value!r}")


_BOOL_TYPES = frozenset((bool, np.bool_))
_NESTED_TYPES = frozenset((list, tuple, np.ndarray))


def _holds_bool(ids) -> bool:
    """Whether a (nested) list or tuple of ids holds a bool anywhere."""
    kinds = set(map(type, ids))
    if not kinds.isdisjoint(_BOOL_TYPES):
        return True
    return not kinds.isdisjoint(_NESTED_TYPES) and any(
        item.dtype.kind == "b" if isinstance(item, np.ndarray)
        else isinstance(item, (list, tuple)) and _holds_bool(item)
        for item in ids)


def integer_indices(indices) -> np.ndarray:
    """``indices`` as an array, or ``TypeError`` for a non-integer dtype or
    a bool element: a float or bool id must never be truncated to a row
    (numpy turns ``[True, 2]`` into ``int64``). An empty list passes."""
    array = np.asarray(indices)
    if array.size and array.dtype.kind not in "iu":
        raise TypeError(f"indices must be integers, got dtype {array.dtype}")
    if (array.size and isinstance(indices, (list, tuple))
            and _holds_bool(indices)):
        raise TypeError("indices must be integers, got a bool element")
    return array
