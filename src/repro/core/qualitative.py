"""Table 1: the paper's qualitative trend matrix, machine-readable.

Each row predicts how a technique or trend moves the three execution-time
fractions (f_P, f_L, f_B). The key observation the table encodes: every
latency-reduction technique and every processor trend *increases* the
bandwidth-stall fraction; only the physical trends (packaging, larger
on-chip memories) push it down.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass


class Trend(enum.Enum):
    UP = "up"
    DOWN = "down"
    UNKNOWN = "?"

    def __str__(self) -> str:
        return {"up": "increases", "down": "decreases", "?": "?"}[self.value]


class Section(enum.Enum):
    LATENCY_REDUCTION = "A. Latency reduction"
    PROCESSOR_TRENDS = "B. Processor trends"
    PHYSICAL_TRENDS = "C. Physical trends"


@dataclass(frozen=True, slots=True)
class Table1Row:
    section: Section
    technique: str
    f_p: Trend
    f_l: Trend
    f_b: Trend


#: The paper's Table 1, row for row.
TABLE1: tuple[Table1Row, ...] = (
    # A. Latency reduction
    Table1Row(Section.LATENCY_REDUCTION, "Lockup-free caches", Trend.UNKNOWN, Trend.DOWN, Trend.UP),
    Table1Row(Section.LATENCY_REDUCTION, "Intelligent load scheduling", Trend.UP, Trend.DOWN, Trend.UP),
    Table1Row(Section.LATENCY_REDUCTION, "Hardware prefetching", Trend.UNKNOWN, Trend.DOWN, Trend.UP),
    Table1Row(Section.LATENCY_REDUCTION, "Software prefetching", Trend.UP, Trend.DOWN, Trend.UP),
    Table1Row(Section.LATENCY_REDUCTION, "Speculative loads", Trend.UP, Trend.DOWN, Trend.UP),
    Table1Row(Section.LATENCY_REDUCTION, "Multithreading", Trend.UNKNOWN, Trend.DOWN, Trend.UP),
    Table1Row(Section.LATENCY_REDUCTION, "Larger cache blocks", Trend.UNKNOWN, Trend.DOWN, Trend.UP),
    # B. Processor trends
    Table1Row(Section.PROCESSOR_TRENDS, "Faster clock speed", Trend.DOWN, Trend.UP, Trend.UP),
    Table1Row(Section.PROCESSOR_TRENDS, "Wider-issue", Trend.DOWN, Trend.UNKNOWN, Trend.UP),
    Table1Row(Section.PROCESSOR_TRENDS, "Speculative (Multiscalar)", Trend.DOWN, Trend.UNKNOWN, Trend.UP),
    Table1Row(Section.PROCESSOR_TRENDS, "Multiprocessors/chip", Trend.DOWN, Trend.UP, Trend.UP),
    # C. Physical trends
    Table1Row(Section.PHYSICAL_TRENDS, "Better packaging technology", Trend.UP, Trend.DOWN, Trend.DOWN),
    Table1Row(Section.PHYSICAL_TRENDS, "Larger on-chip memories", Trend.UP, Trend.DOWN, Trend.DOWN),
)


def rows(section: Section | None = None) -> tuple[Table1Row, ...]:
    """All rows, or the rows of one section."""
    if section is None:
        return TABLE1
    return tuple(row for row in TABLE1 if row.section is section)


def render() -> str:
    """Print Table 1 in the paper's layout."""
    lines = []
    current: Section | None = None
    for row in TABLE1:
        if row.section is not current:
            current = row.section
            lines.append(current.value)
        symbols = {
            Trend.UP: "+",
            Trend.DOWN: "-",
            Trend.UNKNOWN: "?",
        }
        lines.append(
            f"  {row.technique:<30s} f_P:{symbols[row.f_p]}  "
            f"f_L:{symbols[row.f_l]}  f_B:{symbols[row.f_b]}"
        )
    return "\n".join(lines)
