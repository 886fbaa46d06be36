"""Permutations on 0-based points, stored as numpy index arrays."""

from __future__ import annotations

import re

import numpy as np


class PermParseError(ValueError):
    """Raised on malformed cycle notation; carries the offending line number."""

    def __init__(self, message: str, line: int | None = None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


def identity_perm(degree: int) -> np.ndarray:
    return np.arange(degree)


def is_identity(p: np.ndarray) -> bool:
    return bool(np.all(p == np.arange(len(p))))


def is_permutation(p: np.ndarray) -> bool:
    if p.min() < 0 or p.max() >= len(p):
        return False
    hit = np.zeros(len(p), dtype=bool)
    hit[p] = True
    return bool(hit.all())


def perm_order(p: np.ndarray) -> int:
    order = 1
    q = p
    while not is_identity(q):
        q = p[q]
        order += 1
    return order


_CYCLE_RE = re.compile(r"\(\s*([0-9][0-9\s,]*)?\)")


def parse_cycles(text: str, degree: int, line: int | None = None) -> np.ndarray:
    """Parse a product of cycles like ``(0 1 2)(3 4)`` into a permutation.

    Points are 0-based and must be below ``degree``.  Cycles are applied
    right-to-left, matching the usual composition convention.
    """
    stripped = text.strip()
    if not stripped:
        raise PermParseError("empty permutation", line)
    cycles = []
    pos = 0
    while pos < len(stripped):
        m = _CYCLE_RE.match(stripped, pos)
        if m is None:
            raise PermParseError(f"unparseable cycle notation at {stripped[pos:pos+20]!r}", line)
        body = m.group(1)
        if body:
            points = [int(tok) for tok in re.split(r"[\s,]+", body.strip()) if tok]
            if len(set(points)) != len(points):
                raise PermParseError(f"repeated point in cycle {m.group(0)!r}", line)
            for pt in points:
                if pt >= degree:
                    raise PermParseError(f"point {pt} exceeds degree {degree}", line)
            if len(points) > 1:
                cycles.append(points)
        pos = m.end()
        while pos < len(stripped) and stripped[pos].isspace():
            pos += 1
    perm = identity_perm(degree)
    for cyc in reversed(cycles):
        q = identity_perm(degree)
        for a, b in zip(cyc, cyc[1:] + cyc[:1]):
            q[a] = b
        perm = q[perm]
    return perm


def format_cycles(p: np.ndarray) -> str:
    seen = [False] * len(p)
    parts = []
    for i in range(len(p)):
        if seen[i] or p[i] == i:
            seen[i] = True
            continue
        cyc = [i]
        seen[i] = True
        j = int(p[i])
        while j != i:
            seen[j] = True
            cyc.append(j)
            j = int(p[j])
        parts.append("(" + " ".join(map(str, cyc)) + ")")
    return "".join(parts) if parts else "()"
