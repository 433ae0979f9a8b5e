"""Tabular reporting in the paper's layout.

Every experiment module produces a :class:`Table`: a titled grid of rows
with named columns, renderable as aligned text (what the benchmarks print)
or CSV (for EXPERIMENTS.md bookkeeping and downstream plotting).  Numbers
are formatted to two decimals like the paper's tables; ratio columns get
the paper's ``HS/STR`` style headers.
"""

from __future__ import annotations

import io
from dataclasses import dataclass, field
from typing import Any, Iterable, Sequence

from ..obs.spans import PHASES

__all__ = ["Table", "Series", "format_value", "series_table",
           "timing_breakdown_table"]


def format_value(value: Any, decimals: int = 2) -> str:
    """Paper-style cell formatting: floats to ``decimals``, rest as str."""
    if isinstance(value, bool) or value is None:
        return str(value)
    if isinstance(value, float):
        return f"{value:.{decimals}f}"
    return str(value)


@dataclass
class Table:
    """A titled result grid mirroring one of the paper's tables."""

    title: str
    columns: Sequence[str]
    rows: list[Sequence[Any]] = field(default_factory=list)
    #: Free-form provenance notes (paper values, substitutions, scale).
    notes: list[str] = field(default_factory=list)

    def add_row(self, *values: Any) -> None:
        """Append one data row (arity must match the columns)."""
        if len(values) != len(self.columns):
            raise ValueError(
                f"row has {len(values)} cells, table has "
                f"{len(self.columns)} columns"
            )
        self.rows.append(values)

    def add_section(self, label: str) -> None:
        """A full-width separator row, like the paper's query-type bands."""
        self.rows.append((label,) + ("",) * (len(self.columns) - 1))

    def column(self, name: str) -> list[Any]:
        """All values of one column (section separators excluded)."""
        idx = list(self.columns).index(name)
        return [
            row[idx] for row in self.rows
            if not self._is_section(row)
        ]

    def cell(self, row_index: int, name: str) -> Any:
        """One cell by data-row index and column name."""
        data_rows = [r for r in self.rows if not self._is_section(r)]
        return data_rows[row_index][list(self.columns).index(name)]

    def data_rows(self) -> list[Sequence[Any]]:
        """All rows except section separators."""
        return [r for r in self.rows if not self._is_section(r)]

    @staticmethod
    def _is_section(row: Sequence[Any]) -> bool:
        return len(row) > 1 and all(v == "" for v in row[1:])

    # -- rendering ----------------------------------------------------------

    def render(self, decimals: int = 2) -> str:
        """Aligned plain-text rendering."""
        header = [str(c) for c in self.columns]
        body = [
            [format_value(v, decimals) for v in row] for row in self.rows
        ]
        widths = [
            max(len(header[i]), *(len(r[i]) for r in body)) if body
            else len(header[i])
            for i in range(len(header))
        ]
        out = io.StringIO()
        out.write(self.title + "\n")
        out.write("=" * len(self.title) + "\n")
        out.write(
            "  ".join(h.rjust(w) for h, w in zip(header, widths)) + "\n"
        )
        out.write("  ".join("-" * w for w in widths) + "\n")
        for row, cells in zip(self.rows, body):
            if self._is_section(row):
                out.write(f"-- {row[0]} --\n")
            else:
                out.write(
                    "  ".join(c.rjust(w) for c, w in zip(cells, widths))
                    + "\n"
                )
        for note in self.notes:
            out.write(f"note: {note}\n")
        return out.getvalue()

    def to_csv(self) -> str:
        """CSV rendering (sections become single-cell rows)."""
        out = io.StringIO()
        out.write(",".join(str(c) for c in self.columns) + "\n")
        for row in self.rows:
            out.write(",".join(format_value(v, 6) for v in row) + "\n")
        return out.getvalue()

    def __str__(self) -> str:
        return self.render()


def timing_breakdown_table(phases: dict, spans: dict,
                           title: str = "Phase timing breakdown") -> Table:
    """The phase/span timing table ``repro profile`` and ``repro report``
    print.

    ``phases`` and ``spans`` are a tracer's
    :meth:`~repro.obs.spans.Tracer.phase_summary` and
    :meth:`~repro.obs.spans.Tracer.summary`, live or as a run manifest
    stored them.  Two bands: the coarse phases (sort/tile/pack/query,
    *self* time, so the percentages sum to 100) and the per-span-name
    totals (inclusive wall time — nested spans count their children, so
    these do not sum).
    """
    table = Table(
        title=title,
        columns=("phase / span", "count", "wall s", "cpu s", "% wall"),
    )
    total_wall = sum(p.get("wall_s", 0.0) for p in phases.values())

    def row(label: str, entry: dict) -> None:
        wall = entry.get("wall_s", 0.0)
        pct = 100.0 * wall / total_wall if total_wall else 0.0
        table.add_row(label, int(entry.get("count", 0)), round(wall, 4),
                      round(entry.get("cpu_s", 0.0), 4), f"{pct:.1f}%")

    table.add_section("phases (self time)")
    ordered = [p for p in PHASES if p in phases]
    ordered += sorted(set(phases) - set(ordered))
    for phase in ordered:
        row(phase, phases[phase])
    table.add_section("spans (inclusive time)")
    for name in sorted(spans, key=lambda n: -spans[n].get("wall_s", 0.0)):
        row(f"{name} [{spans[name].get('phase', '?')}]", spans[name])
    count = sum(int(s.get("count", 0)) for s in spans.values())
    table.notes.append(
        f"traced wall time {total_wall:.3f}s over {count} spans; "
        "phase rows use self time (exclusive of children) and sum to 100%"
    )
    return table


@dataclass
class Series:
    """One line of one of the paper's figures: (x, y) pairs plus a label."""

    label: str
    xs: list[float] = field(default_factory=list)
    ys: list[float] = field(default_factory=list)

    def add(self, x: float, y: float) -> None:
        """Append one (x, y) sample."""
        self.xs.append(float(x))
        self.ys.append(float(y))

    def as_table_rows(self) -> Iterable[tuple[str, float, float]]:
        """Yield (label, x, y) triples for tabular rendering."""
        for x, y in zip(self.xs, self.ys):
            yield (self.label, x, y)


def series_table(name: str, series: Iterable[Series]) -> Table:
    """A figure's series as one three-column ``(series, x, y)`` table."""
    table = Table(title=name, columns=("series", "x", "y"))
    for line in series:
        for label, x, y in line.as_table_rows():
            table.add_row(label, x, y)
    return table
