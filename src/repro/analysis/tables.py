"""Plain-text table rendering for the experiment reports (README,
"Experiment pipeline"; the goldens under ``tests/golden/``)."""

from __future__ import annotations

from typing import Dict, List, Mapping, Optional, Sequence


def format_table(rows: Sequence[Mapping[str, object]],
                 columns: Optional[Sequence[str]] = None,
                 float_digits: int = 2) -> str:
    """Render a list of row dictionaries as an aligned ASCII table."""
    if not rows:
        return "(no data)"
    if columns is None:
        columns = list(rows[0].keys())
    def fmt(value: object) -> str:
        if isinstance(value, float):
            return f"{value:.{float_digits}f}"
        return str(value)
    table = [[fmt(row.get(col, "")) for col in columns] for row in rows]
    widths = [max(len(str(col)), *(len(r[i]) for r in table)) for i, col in enumerate(columns)]
    header = " | ".join(str(col).ljust(widths[i]) for i, col in enumerate(columns))
    separator = "-+-".join("-" * widths[i] for i in range(len(columns)))
    body = "\n".join(" | ".join(r[i].ljust(widths[i]) for i in range(len(columns)))
                     for r in table)
    return f"{header}\n{separator}\n{body}"


def format_series(title: str, x_label: str, x_values: Sequence[object],
                  series: Mapping[str, Sequence[float]], unit: str = "",
                  float_digits: int = 2) -> str:
    """Render one figure panel (several named series over a shared x axis)."""
    rows: List[Dict[str, object]] = []
    for i, x in enumerate(x_values):
        row: Dict[str, object] = {x_label: x}
        for name, values in series.items():
            row[name] = values[i] if i < len(values) and values[i] is not None else ""
        rows.append(row)
    suffix = f"  [{unit}]" if unit else ""
    return f"== {title}{suffix} ==\n" + format_table(rows, float_digits=float_digits)
