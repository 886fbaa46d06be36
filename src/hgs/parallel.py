"""Deterministic worker pools for the enumeration outer loops.

Work is partitioned over the outer f-index of a holomorph run; results are
merged back in index order, so totals are identical for any worker count.
Workers reuse the parent's Hol(N) and f-list, handed over once through the
pool initializer, and run the same per-f counter as a serial run.  The pool
never has more workers than f's left to search: the holomorph run passes
min(jobs, f's left) and stays serial when that is one or less.
"""

from __future__ import annotations

import os
from concurrent.futures import ProcessPoolExecutor
from typing import Iterator

from .holomorph import Holomorph, bijective_pair_count
from .morphisms import Homomorphism

_CONTEXT = {}


def default_jobs() -> int:
    raw = os.environ.get("HGS_JOBS", "")
    if raw.strip():
        try:
            jobs = int(raw)
        except ValueError:
            raise ValueError(f"HGS_JOBS must be an integer, got {raw!r}")
        return max(1, jobs)
    return 1


def _init_crossed_worker(context: tuple[Holomorph, list[Homomorphism]]) -> None:
    # one object, so every f still targets this holomorph's Aut(N) carrier
    _CONTEXT["hol"], _CONTEXT["f_list"] = context


def _count_one(fi: int) -> tuple[int, int]:
    return fi, bijective_pair_count(_CONTEXT["hol"], _CONTEXT["f_list"][fi])


def parallel_crossed_counts(hol: Holomorph, f_list: list[Homomorphism],
                            start_index: int, *,
                            jobs: int) -> Iterator[tuple[int, int]]:
    """Bijective crossed-hom counts of f_list[start_index:], yielded in f order."""
    with ProcessPoolExecutor(
        max_workers=jobs,
        initializer=_init_crossed_worker,
        initargs=((hol, f_list),),
    ) as pool:
        yield from pool.map(_count_one, range(start_index, len(f_list)))
