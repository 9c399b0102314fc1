"""Registry-level static verification: analyze whole scenarios.

:func:`analyze_scenario` runs one registered scenario once through the
compiled trace-replay engine under a :func:`repro.trace.replay.capture_traces`
context, then statically verifies every recorded kernel trace with
:func:`repro.analysis.verify.verify_trace` — races, bounds, performance
lints and the static-vs-dynamic counter cross-check against the eager
chunk's counters.  Kernels the tracer cannot express become explicit
``coverage`` findings rather than silent gaps.

:func:`run_analyze` sweeps every replay-capable scenario (one architecture
under ``--quick``, the full architecture set otherwise) and assembles a
standard :class:`~repro.experiments.results.ExperimentResult`, so
``ssam-repro --experiment analyze`` gets JSON artifacts and a rendered
report exactly like the paper experiments.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional

from ..errors import ConfigurationError
from .report import COVERAGE, Finding, TraceReport, WARNING

#: architectures the full (non-quick) analyze experiment covers
ANALYZE_ARCHITECTURES = ("p100", "v100", "a100", "h100")


@dataclass(frozen=True)
class ScenarioAnalysis:
    """Static-verification outcome of one scenario on one architecture."""

    scenario: str
    architecture: str
    precision: str
    size: str
    case_id: str
    reports: List[TraceReport] = field(default_factory=list)
    fallbacks: List[Dict[str, str]] = field(default_factory=list)

    @property
    def findings(self) -> List[Finding]:
        """Every finding across all verified traces, plus fallback gaps."""
        out: List[Finding] = []
        for report in self.reports:
            out.extend(report.findings)
        for event in self.fallbacks:
            out.append(Finding(
                category=COVERAGE, severity=WARNING,
                message=(f"kernel {event['kernel']!r} fell back to the "
                         f"batched engine and was not statically verified: "
                         f"{event['reason']}"),
                detail=dict(event)))
        return out

    @property
    def ok(self) -> bool:
        """True when every trace verified clean and nothing fell back."""
        return not self.findings

    def by_category(self) -> Dict[str, int]:
        counts: Dict[str, int] = {}
        for finding in self.findings:
            counts[finding.category] = counts.get(finding.category, 0) + 1
        return counts

    def to_dict(self) -> Dict[str, object]:
        return {
            "scenario": self.scenario,
            "architecture": self.architecture,
            "precision": self.precision,
            "size": self.size,
            "case_id": self.case_id,
            "ok": self.ok,
            "reports": [report.to_dict() for report in self.reports],
            "fallbacks": [dict(event) for event in self.fallbacks],
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, object]) -> "ScenarioAnalysis":
        return cls(
            scenario=data["scenario"],
            architecture=data.get("architecture", ""),
            precision=data.get("precision", "float32"),
            size=data.get("size", ""),
            case_id=data.get("case_id", ""),
            reports=[TraceReport.from_dict(r)
                     for r in data.get("reports", [])],
            fallbacks=[dict(event) for event in data.get("fallbacks", [])],
        )

    def render(self) -> str:
        lines = [f"=== {self.case_id} ==="]
        for report in self.reports:
            lines.append(report.render())
        for event in self.fallbacks:
            lines.append(f"fallback: {event['kernel']}: {event['reason']}")
        verdict = "clean" if self.ok else f"{len(self.findings)} finding(s)"
        lines.append(f"verdict: {verdict}")
        return "\n".join(lines)


def _pick_size(entry, architecture: str, precision: str) -> str:
    """Smallest size the replay engine covers on the given cell."""
    names = list(entry.sizes)
    # prefer "tiny": verification cost scales with the grid, and findings
    # are size-independent properties of the kernel's index arithmetic
    if "tiny" in names:
        names.remove("tiny")
        names.insert(0, "tiny")
    for size in names:
        if entry.supports(architecture, precision, "replay", size=size):
            return size
    raise ConfigurationError(
        f"scenario {entry.name!r} has no replay-capable size on "
        f"{architecture}/{precision}; static analysis needs the trace IR")


def supports_analysis(entry, architecture: str = "p100",
                      precision: str = "float32") -> bool:
    """True when the scenario can be traced (and therefore verified)."""
    return any(entry.supports(architecture, precision, "replay", size=size)
               for size in entry.sizes)


def analyze_scenario(name: str, architecture: str = "p100",
                     precision: str = "float32",
                     size: Optional[str] = None) -> ScenarioAnalysis:
    """Statically verify every kernel one scenario launches.

    Runs the scenario through the replay engine inside a trace capture,
    then verifies each unique recorded trace.  The eager chunk's counter
    delta rides along, so every report includes the static-vs-dynamic
    cross-check.
    """
    from ..scenarios.registry import ScenarioCase, get_scenario
    from ..trace.replay import capture_traces

    entry = get_scenario(name)
    if size is None:
        size = _pick_size(entry, architecture, precision)
    case = ScenarioCase(scenario=name, architecture=architecture,
                        precision=precision, engine="replay", size=size)
    with capture_traces() as capture:
        entry.run_case(case)
    reports = []
    for record in capture.unique_records():
        reports.append(verify_capture_record(record))
    return ScenarioAnalysis(
        scenario=name, architecture=architecture, precision=precision,
        size=size, case_id=case.case_id, reports=reports,
        fallbacks=[dict(event) for event in capture.fallbacks])


def verify_capture_record(record) -> TraceReport:
    """Verify one :class:`~repro.trace.replay.TraceCaptureRecord`."""
    from .verify import verify_trace

    return verify_trace(
        record.trace, record.config.grid_dim, record.architecture,
        chunk_blocks=record.chunk_blocks,
        dynamic_counters=record.chunk_counters,
        kernel_name=record.kernel_name)


# --------------------------------------------------------- the experiment

def run_analyze(quick: bool = False, workers: int = 1,
                cache=None) -> "ExperimentResult":
    """``ssam-repro --experiment analyze``: verify the whole registry.

    Analysis is pure front-end work on tiny problem sizes (the replay run
    only records one chunk eagerly), so it always executes in-process;
    ``workers`` and ``cache`` are accepted for pipeline symmetry.
    """
    from ..experiments.results import ExperimentResult, Measurement
    from ..scenarios.registry import all_scenarios

    del workers, cache  # in-process by design; see docstring
    measurements: List[Measurement] = []
    skipped: List[str] = []
    for entry in all_scenarios():
        if not supports_analysis(entry):
            skipped.append(entry.name)
            continue
        architectures = ("p100",) if quick else tuple(
            arch for arch in ANALYZE_ARCHITECTURES
            if arch in entry.architectures)
        for architecture in architectures:
            start = time.perf_counter()
            analysis = analyze_scenario(entry.name, architecture=architecture)
            elapsed_ms = (time.perf_counter() - start) * 1e3
            findings = analysis.findings
            measurements.append(Measurement(
                kernel=entry.name,
                architecture=architecture,
                workload=analysis.size,
                value=float(len(findings)),
                unit="findings",
                milliseconds=elapsed_ms,
                extra={
                    "scenario": entry.name,
                    "architecture": architecture,
                    "size": analysis.size,
                    "case_id": analysis.case_id,
                    "ok": analysis.ok,
                    "traces": len(analysis.reports),
                    "phases": max((r.phases for r in analysis.reports),
                                  default=0),
                    "nodes": sum(r.nodes for r in analysis.reports),
                    "accesses": sum(r.accesses for r in analysis.reports),
                    "findings": len(findings),
                    "by_category": analysis.by_category(),
                    "fallbacks": len(analysis.fallbacks),
                    "analysis": analysis.to_dict(),
                },
            ))
    return ExperimentResult(
        experiment="analyze",
        title="Static kernel verification (trace-IR race/bounds/perf analysis)",
        quick=quick,
        measurements=measurements,
        metadata={"skipped_scenarios": skipped,
                  "architectures": (["p100"] if quick
                                    else list(ANALYZE_ARCHITECTURES))},
    )


def render(result: ExperimentResult) -> str:
    """Deterministic text report of an analyze result (no wall-clock)."""
    header = (f"{'scenario':<20} {'arch':<6} {'size':<6} {'traces':>6} "
              f"{'phases':>6} {'nodes':>6} {'findings':>8}  verdict")
    lines = [result.title, "=" * len(header), header, "-" * len(header)]
    clean = 0
    total_findings = 0
    for measurement in result.measurements:
        row = measurement.extra
        verdict = "clean" if row["ok"] else _verdict(row)
        if row["ok"]:
            clean += 1
        total_findings += int(row["findings"])
        lines.append(
            f"{row['scenario']:<20} {row['architecture']:<6} "
            f"{row['size']:<6} {row['traces']:>6} {row['phases']:>6} "
            f"{row['nodes']:>6} {row['findings']:>8}  {verdict}")
    lines.append("-" * len(header))
    skipped = result.metadata.get("skipped_scenarios") or []
    if skipped:
        lines.append(f"not traceable (no replay engine): "
                     f"{', '.join(skipped)}")
    lines.append(f"{clean}/{len(result.measurements)} cells clean, "
                 f"{total_findings} finding(s) total")
    return "\n".join(lines)


def _verdict(row: Mapping[str, object]) -> str:
    counts = row.get("by_category") or {}
    parts = [f"{counts[key]} {key}" for key in sorted(counts)]
    return ", ".join(parts) if parts else "findings"
