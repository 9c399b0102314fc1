"""Typed experiment results: the data layer of the experiment pipeline.

Every table and figure is now produced in two stages: simulation jobs yield
:class:`Measurement` records (one per simulated kernel / benchmark cell),
an experiment-specific ``assemble`` step collects them into an
:class:`ExperimentResult`, and the text report is a pure view rendered from
that result via :mod:`repro.analysis.tables`.  Results serialise to JSON
artifacts (``ssam-repro --output-dir``) and load back losslessly, so
downstream analyses never have to re-parse formatted tables.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Sequence

from ..errors import ConfigurationError
from ..serialization import atomic_write_json, jsonify

#: bumped when the artifact layout changes incompatibly
SCHEMA_VERSION = 1


@dataclass(frozen=True)
class Measurement:
    """One measured/simulated data point of a table or figure.

    Attributes
    ----------
    kernel:
        Implementation or operation identifier (``"ssam"``, ``"npp"``,
        ``"shfl_up_sync"``...).
    architecture:
        Architecture the point was simulated on (preset name or full GPU
        name); empty for architecture-independent rows.
    workload:
        The x-axis identity: benchmark name, filter-size label, ...
    config:
        Launch/problem configuration that produced the point (JSON types).
    counters:
        ``KernelCounters.as_dict()`` of the simulated launch, when the
        producing job counted one (``None`` for metadata-only rows).
    milliseconds:
        Modelled kernel time, when the point is a timed simulation.
    value:
        The headline metric plotted/tabulated (ms, GCells/s, cycles...).
    unit:
        Unit of ``value``.
    extra:
        Remaining report columns (paper comparisons, derived fields).
    """

    kernel: str
    architecture: str = ""
    workload: str = ""
    config: Mapping[str, object] = field(default_factory=dict)
    counters: Optional[Mapping[str, float]] = None
    milliseconds: Optional[float] = None
    value: Optional[float] = None
    unit: str = ""
    extra: Mapping[str, object] = field(default_factory=dict)

    def __post_init__(self) -> None:
        # normalise eagerly so equality survives a JSON round-trip
        object.__setattr__(self, "config", jsonify(self.config))
        object.__setattr__(self, "extra", jsonify(self.extra))
        if self.counters is not None:
            object.__setattr__(self, "counters", jsonify(self.counters))

    def to_dict(self) -> Dict[str, object]:
        return {
            "kernel": self.kernel,
            "architecture": self.architecture,
            "workload": self.workload,
            "config": self.config,
            "counters": self.counters,
            "milliseconds": self.milliseconds,
            "value": self.value,
            "unit": self.unit,
            "extra": self.extra,
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, object]) -> "Measurement":
        return cls(
            kernel=data["kernel"],
            architecture=data.get("architecture", ""),
            workload=data.get("workload", ""),
            config=data.get("config") or {},
            counters=data.get("counters"),
            milliseconds=data.get("milliseconds"),
            value=data.get("value"),
            unit=data.get("unit", ""),
            extra=data.get("extra") or {},
        )


@dataclass(frozen=True)
class ExperimentResult:
    """Everything one experiment produced, independent of presentation.

    ``metadata`` carries the per-experiment structure the renderer needs to
    rebuild the exact report text (panel order, series order, summaries),
    so rendering is a pure function of the result.
    """

    experiment: str
    title: str
    quick: bool
    measurements: List[Measurement] = field(default_factory=list)
    metadata: Mapping[str, object] = field(default_factory=dict)
    schema_version: int = SCHEMA_VERSION

    def __post_init__(self) -> None:
        object.__setattr__(self, "measurements", list(self.measurements))
        object.__setattr__(self, "metadata", jsonify(self.metadata))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ExperimentResult):
            return NotImplemented
        return self.to_dict() == other.to_dict()

    def __hash__(self) -> int:  # pragma: no cover - unused, required by eq
        return hash((self.experiment, self.schema_version, len(self.measurements)))

    def to_dict(self) -> Dict[str, object]:
        return {
            "schema_version": self.schema_version,
            "experiment": self.experiment,
            "title": self.title,
            "quick": self.quick,
            "measurements": [m.to_dict() for m in self.measurements],
            "metadata": self.metadata,
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, object]) -> "ExperimentResult":
        version = data.get("schema_version", SCHEMA_VERSION)
        if version != SCHEMA_VERSION:
            raise ConfigurationError(
                f"unsupported result schema version {version!r} "
                f"(this build reads version {SCHEMA_VERSION})")
        return cls(
            experiment=data["experiment"],
            title=data.get("title", data["experiment"]),
            quick=bool(data.get("quick", False)),
            measurements=[Measurement.from_dict(m)
                          for m in data.get("measurements", [])],
            metadata=data.get("metadata") or {},
        )

    # -- convenience accessors used by renderers --------------------------
    def series_value(self, kernel: str, architecture: str = "",
                     workload: str = "") -> Optional[float]:
        """The value of the first measurement matching the given identity.

        Backed by a lazily built index so figure renders stay linear in
        the measurement count.
        """
        index = self.__dict__.get("_series_index")
        if index is None:
            index = {}
            for m in self.measurements:
                index.setdefault((m.kernel, m.architecture, m.workload), m.value)
            object.__setattr__(self, "_series_index", index)
        return index.get((kernel, architecture, workload))

    def series(self, kernels: Sequence[str], architecture: str,
               workloads: Sequence[str]) -> Dict[str, List[Optional[float]]]:
        """``{kernel: [value per workload]}``: one panel's series, in order."""
        return {kernel: [self.series_value(kernel, architecture, w) for w in workloads]
                for kernel in kernels}

    def rows(self, kernel: Optional[str] = None) -> List[Dict[str, object]]:
        """The ``extra`` payload of every measurement, in order.

        Table-style experiments store their report columns in ``extra``, so
        this is exactly the row list :func:`repro.analysis.tables.format_table`
        renders.  ``kernel`` filters to one measurement series — experiments
        that mix row schemas (e.g. the model validation's advantage sweep
        next to its cross-engine cells) render each series separately.
        """
        return [dict(m.extra) for m in self.measurements
                if kernel is None or m.kernel == kernel]

    # -- persistence -------------------------------------------------------
    def save(self, path: str) -> str:
        """Write the result as a JSON artifact; returns the path written."""
        return atomic_write_json(path, self.to_dict(), indent=2)


def load_result(path: str) -> ExperimentResult:
    """Load one experiment result artifact written by :meth:`~ExperimentResult.save`."""
    with open(path, "r", encoding="utf-8") as handle:
        return ExperimentResult.from_dict(json.load(handle))
