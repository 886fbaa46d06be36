"""Deterministic rendering of count results and suite reports."""

from __future__ import annotations

import json

from .counting import CountResult
from .verify import SuiteReport

_COUNT_HEADER = (f"{'G':<14} {'N':<14} {'method':<20} {'value':>10} "
                 f"{'runtime':>10}")


def emit_report(results, fmt: str = "table") -> str:
    """Render CountResult lists or a SuiteReport as table or versioned JSON."""
    if fmt not in ("table", "json"):
        raise ValueError(f"unknown report format {fmt!r}")
    if isinstance(results, SuiteReport):
        if fmt == "json":
            return json.dumps(results.to_dict(), indent=2, sort_keys=True)
        lines = [item.line() for item in results.items]
        lines.append(results.summary())
        return "\n".join(lines)
    items = list(results) if not isinstance(results, CountResult) else [results]
    if fmt == "json":
        return json.dumps(
            {"schema": "hgs-report/1",
             "items": [r.to_dict() for r in items]},
            indent=2, sort_keys=True)
    lines = [_COUNT_HEADER]
    lines.extend(r.row() for r in items)
    return "\n".join(lines)
