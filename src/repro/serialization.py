"""Canonical JSON serialization and stable content digests.

The experiment pipeline memoizes simulations on disk and fans jobs out to
worker processes, so every object that parameterises a simulation (problem
specs, SSAM plans, launch configurations, job parameters) needs a stable,
platform-independent identity.  This module provides the two primitives the
whole repository shares:

* :func:`jsonify` — normalise a value into plain JSON types (tuples become
  lists, NumPy scalars/arrays become Python numbers/lists) so the same
  logical value always serialises to the same text;
* :func:`stable_digest` — a hex digest of the canonical JSON encoding,
  used for cache keys and spec fingerprints.

Keeping this at the package root lets :mod:`repro.core`, :mod:`repro.gpu`
and :mod:`repro.experiments` all use one identity scheme without layering
violations (the GPU layer never imports the experiment layer).
"""

from __future__ import annotations

import hashlib
import json
import os
from collections.abc import Mapping
from typing import Any, Iterator

import numpy as np


#: exact types :func:`jsonify` passes through unchanged (its hot path:
#: counters, job keys and payloads are mostly these)
_JSON_SCALARS = frozenset((str, int, float, bool, type(None)))


def jsonify(value: Any) -> Any:
    """Normalise ``value`` into plain JSON-compatible Python types.

    Tuples become lists, mappings become plain dicts (preserving insertion
    order), NumPy scalars become Python ints/floats/bools and NumPy arrays
    become nested lists.  Values that are already JSON types pass through
    unchanged; anything else raises ``TypeError`` so non-serialisable
    objects are caught at the call site rather than deep inside ``json``.
    """
    kind = type(value)
    if kind in _JSON_SCALARS:
        return value
    if kind is dict:
        return {str(key): item if type(item) in _JSON_SCALARS else jsonify(item)
                for key, item in value.items()}
    if kind is list or kind is tuple:
        return [item if type(item) in _JSON_SCALARS else jsonify(item)
                for item in value]
    if value is None or isinstance(value, (bool, int, str)):
        return value
    if isinstance(value, float):
        return float(value)  # np.float64 subclasses float; normalise it too
    if isinstance(value, (np.bool_,)):
        return bool(value)
    if isinstance(value, np.integer):
        return int(value)
    if isinstance(value, np.floating):
        return float(value)
    if isinstance(value, np.ndarray):
        return [jsonify(item) for item in value.tolist()] \
            if value.dtype == object else value.tolist()
    if isinstance(value, Mapping):
        return {str(key): jsonify(item) for key, item in value.items()}
    if isinstance(value, (list, tuple, set, frozenset)):
        items = sorted(value) if isinstance(value, (set, frozenset)) else value
        return [jsonify(item) for item in items]
    if hasattr(value, "to_dict"):
        return jsonify(value.to_dict())
    raise TypeError(f"cannot serialise {type(value).__name__!r} value {value!r}")


#: the canonical encoder, built once (``json.dumps`` with options builds
#: one per call); it holds no state between calls
_CANONICAL_ENCODER = json.JSONEncoder(sort_keys=True, separators=(",", ":"),
                                      allow_nan=True)


def canonical_json(value: Any) -> str:
    """Deterministic JSON encoding: sorted keys, no whitespace drift.

    Two values that :func:`jsonify` to the same structure always produce the
    same text, regardless of dict insertion order.
    """
    return _CANONICAL_ENCODER.encode(jsonify(value))


def stable_digest(value: Any, length: int = 16) -> str:
    """Short hex digest of the canonical JSON encoding of ``value``."""
    digest = hashlib.sha256(canonical_json(value).encode("utf-8")).hexdigest()
    return digest[:length] if length else digest


#: containers nested less deep than this are laid out one entry per line
_LINE_DEPTH = 3


def _line_chunks(value: Any, pad: str, depth: int = 0) -> Iterator[str]:
    """Text chunks of the line layout of :func:`atomic_write_json`.

    An object or array nested less than :data:`_LINE_DEPTH` deep puts
    each entry on its own line; an array's items, and everything deeper,
    are written whole by one one-shot ``json.dumps`` each, which runs the
    C encoder (``json.dump(..., indent=...)`` would run the pure-Python
    one over the whole document).  No chunk holds more than one such
    entry, so the text is never built in memory at once.
    """
    kind = type(value)
    if depth >= _LINE_DEPTH or kind not in (dict, list) or not value:
        yield json.dumps(value)
        return
    inner = "\n" + pad * (depth + 1)
    yield "{" if kind is dict else "["
    for index, item in enumerate(value.items() if kind is dict else value):
        yield inner if index == 0 else "," + inner
        if kind is dict:
            key, item = item
            yield json.dumps(str(key)) + ": "
            yield from _line_chunks(item, pad, depth + 1)
        else:
            yield json.dumps(item)
    yield "\n" + pad * depth + ("}" if kind is dict else "]")


def atomic_write_json(path: str, value: Any, indent: "int | None" = None) -> str:
    """Write ``value`` as JSON via a temp file + ``os.replace``.

    Without ``indent`` the text is compact.  With it, the outer levels go
    one entry per line (an artifact's measurement rows one per line, see
    :func:`_line_chunks`), followed by a trailing newline.  Concurrent
    writers/readers (parallel experiment runs sharing a cache or artifact
    directory) never observe a partially written file; the last writer
    wins.  Returns ``path``.
    """
    os.makedirs(os.path.dirname(os.path.abspath(path)), exist_ok=True)
    tmp = f"{path}.tmp.{os.getpid()}"
    with open(tmp, "w", encoding="utf-8") as handle:
        if indent:
            handle.writelines(_line_chunks(value, " " * indent))
            handle.write("\n")
        else:
            handle.write(json.dumps(value, separators=(",", ":")))
    os.replace(tmp, path)
    return path


def load_json(path: str) -> Any:
    """Read one JSON document (matrix specs, artifacts, cache entries)."""
    with open(path, "r", encoding="utf-8") as handle:
        return json.load(handle)


def array_digest(array: np.ndarray, length: int = 16) -> str:
    """Content digest of a NumPy array (dtype + shape + bytes).

    Faster than routing large arrays through JSON; used by spec
    fingerprints that embed weight matrices.
    """
    array = np.ascontiguousarray(array)
    hasher = hashlib.sha256()
    hasher.update(str(array.dtype).encode())
    hasher.update(str(array.shape).encode())
    hasher.update(array.tobytes())
    digest = hasher.hexdigest()
    return digest[:length] if length else digest
