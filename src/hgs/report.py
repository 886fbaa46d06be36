"""Deterministic rendering of count results."""

from __future__ import annotations

import json

_COUNT_HEADER = (f"{'G':<14} {'N':<14} {'method':<20} {'value':>10} "
                 f"{'runtime':>10}")


def emit_report(results, fmt: str = "table") -> str:
    """Render a list of CountResults as table or versioned JSON."""
    if fmt not in ("table", "json"):
        raise ValueError(f"unknown report format {fmt!r}")
    if fmt == "json":
        return json.dumps(
            {"schema": "hgs-report/1",
             "items": [r.to_dict() for r in results]},
            indent=2, sort_keys=True)
    lines = [_COUNT_HEADER]
    lines.extend(r.row() for r in results)
    return "\n".join(lines)
