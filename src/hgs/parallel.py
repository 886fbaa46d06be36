"""Deterministic worker pool over a holomorph run's orbit representatives.

Nothing in hgs imports this module: every holomorph count runs its orbit
loop in the calling process.  It stays only because the benchmark's tracing
harness (``benchmarks/tracing.py``) imports it and wraps
``parallel_crossed_counts``.  The benchmark change that replaces the
``byott-120-jobs2`` workload drops that import, and the change after it
deletes this module and ``count_byott``'s ``jobs`` keyword.

Results are merged back in orbit order, so totals are identical for any
worker count.  Workers reuse the parent's Aut(N) and representative list,
handed over once through the pool initializer, and run the same per-f
counter as a serial run.
"""

from __future__ import annotations

from concurrent.futures import ProcessPoolExecutor
from typing import Iterator

from .holomorph import bijective_pair_count
from .morphisms import AutomorphismGroup, Homomorphism

_CONTEXT = {}


def _init_crossed_worker(context: tuple[AutomorphismGroup, list[Homomorphism]]) -> None:
    # one object, so every f still targets this Aut(N)'s own carrier
    _CONTEXT["aut"], _CONTEXT["reps"] = context


def _count_one(oi: int) -> tuple[int, int]:
    return oi, bijective_pair_count(_CONTEXT["aut"], _CONTEXT["reps"][oi])


def parallel_crossed_counts(aut: AutomorphismGroup, reps: list[Homomorphism], *,
                            jobs: int) -> Iterator[tuple[int, int]]:
    """Bijective crossed-hom counts of every representative, yielded in orbit order."""
    with ProcessPoolExecutor(
        max_workers=jobs,
        initializer=_init_crossed_worker,
        initargs=((aut, reps),),
    ) as pool:
        yield from pool.map(_count_one, range(len(reps)))
