"""Floating-point precision handling shared by the whole library.

The paper evaluates every kernel in single and double precision; throughput
and memory traffic both depend on the element width, so precision is modelled
explicitly everywhere instead of being an afterthought.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import ConfigurationError

#: canonical names accepted by the public API
SINGLE = "float32"
DOUBLE = "float64"

_ALIASES = {
    "float32": SINGLE,
    "fp32": SINGLE,
    "single": SINGLE,
    "f32": SINGLE,
    np.float32: SINGLE,
    np.dtype(np.float32): SINGLE,
    "float64": DOUBLE,
    "fp64": DOUBLE,
    "double": DOUBLE,
    "f64": DOUBLE,
    np.float64: DOUBLE,
    np.dtype(np.float64): DOUBLE,
}


@dataclass(frozen=True)
class Precision:
    """A floating point precision used for kernel data.

    Attributes
    ----------
    name:
        Canonical name (``"float32"`` or ``"float64"``).
    itemsize:
        Bytes per element.
    numpy_dtype:
        The corresponding NumPy dtype object.
    """

    name: str
    itemsize: int

    @property
    def numpy_dtype(self) -> np.dtype:
        """NumPy dtype corresponding to this precision."""
        return np.dtype(self.name)

    @property
    def registers_per_value(self) -> int:
        """Number of 32-bit hardware registers needed to hold one value."""
        return self.itemsize // 4

    def __str__(self) -> str:  # pragma: no cover - trivial
        return self.name


FLOAT32 = Precision(SINGLE, 4)
FLOAT64 = Precision(DOUBLE, 8)


def resolve_precision(precision: object) -> Precision:
    """Return the :class:`Precision` for any accepted spelling.

    Parameters
    ----------
    precision:
        A :class:`Precision`, a NumPy dtype, or one of the string aliases
        ``"float32"/"fp32"/"single"`` and ``"float64"/"fp64"/"double"``.

    Raises
    ------
    ConfigurationError
        If the precision is not one of the supported floating point types.
    """
    if isinstance(precision, Precision):
        return precision
    key: object = precision
    if isinstance(precision, str):
        key = precision.lower()
    elif isinstance(precision, np.dtype):
        key = precision
    elif isinstance(precision, type) and issubclass(precision, np.generic):
        key = np.dtype(precision)
    try:
        return _resolve_cached(key)
    except (KeyError, TypeError) as exc:
        raise ConfigurationError(
            f"unsupported precision {precision!r}; expected float32 or float64"
        ) from exc


@lru_cache(maxsize=None)
def _resolve_cached(key: object) -> Precision:
    """Alias lookup, memoised so hot launch paths skip re-validation."""
    canonical = _ALIASES[key]  # type: ignore[index]
    return FLOAT32 if canonical == SINGLE else FLOAT64
