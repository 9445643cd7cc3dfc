"""The per-cell CSV formatter ``ScenarioResult.csv_text`` replaced, kept as the
reference its differential test compares against: it formats each cell by its
own type, so it needs no column to hold one kind of value."""

from __future__ import annotations

from typing import Sequence

import numpy as np


def _cell(value: object) -> str:
    """Format one CSV cell deterministically."""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    return str(value)


def csv_text(columns: Sequence[str], rows: Sequence[tuple]) -> str:
    """The header, then one line per row of comma-joined cells, LF endings."""
    lines = [",".join(columns)]
    for row in rows:
        lines.append(",".join(_cell(v) for v in row))
    return "\n".join(lines) + "\n"
