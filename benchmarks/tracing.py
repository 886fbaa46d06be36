"""Tracing hgs from outside: spans and counts around each module's entry points.

``Tracer.install`` wraps the public entry points of each hgs module.  A name
is wrapped wherever a module binds it, because ``from .morphisms import
automorphism_group`` copies the binding into the importing module.  Each
call records a span (name, start, end, parent span, check id); a call to a
generator function records one span per ``next()``, so only time spent
inside the generator counts.  Spans stay in memory until ``write_spans``.

Layer times are self times: a span's duration minus the durations of its
direct child spans.  Counts are recorded at the same boundaries.
"""

from __future__ import annotations

import json
import os
import resource
import statistics
import sys
import time
from pathlib import Path
from typing import Callable, Iterator

from hgs import counting, groups, holomorph, morphisms, parallel, screening, catalog

# span name -> the entry points it wraps, as (owner, attribute) pairs
SPANS = {
    "catalog.resolve": [(catalog, "resolve_spec")],
    "groups.perm_table": [(groups, "from_perm_gens"), (catalog, "from_perm_set")],
    "groups.structure": [(groups, "normal_subgroups"), (groups, "commutator_subgroup"),
                         (groups, "quotient_group"), (groups, "center"),
                         (groups.FiniteGroup, "conjugacy_classes")],
    "morphisms.aut": [(morphisms, "automorphism_group")],
    "morphisms.iso": [(morphisms, "are_isomorphic")],
    "counting.oracle": [(counting, "all_regular_subgroups_of_sym")],
    "counting.brute": [(counting, "count_brute_force")],
    "counting.fpf": [(counting, "count_fpf_inner_holomorph")],
    "counting.formula": [(counting, "count_self_type"), (counting, "count_product_type"),
                         (counting, "count_sn")],
    "screening.classify": [(screening, "classify_group")],
    "screening.screen": [(screening, "screen_candidate")],
    "screening.inner_unique": [(screening, "check_inner_unique_in_aut")],
}
GENERATOR_SPANS = {
    "morphisms.hom_enum": (morphisms, "enumerate_homomorphisms"),
    "holomorph.crossed": (holomorph, "crossed_homomorphisms"),
    "parallel.pool": (parallel, "parallel_crossed_counts"),
}

# (metric, unit, better) for every per-layer metric, in report order
LAYER_METRICS = [
    ("catalog.resolve_s", "s", "lower"),
    ("groups.perm_table_s", "s", "lower"),
    ("groups.table_entries", "count", "lower"),
    ("groups.structure_s", "s", "lower"),
    ("morphisms.aut_s", "s", "lower"),
    ("morphisms.aut_computed", "count", "lower"),
    ("morphisms.aut_elements", "count", "lower"),
    ("morphisms.hom_enum_s", "s", "lower"),
    ("morphisms.homs_emitted", "count", "lower"),
    ("morphisms.iso_s", "s", "lower"),
    ("morphisms.iso_calls", "count", "lower"),
    ("holomorph.crossed_s", "s", "lower"),
    ("holomorph.f_searched", "count", "lower"),
    ("holomorph.pairs_found", "count", "lower"),
    ("holomorph.f_hit_ratio", "ratio", "higher"),
    ("holomorph.per_f_p50_ms", "ms", "lower"),
    ("holomorph.per_f_max_ms", "ms", "lower"),
    ("counting.oracle_s", "s", "lower"),
    ("counting.oracle_subgroups", "count", "lower"),
    ("counting.normalized_ratio", "ratio", "higher"),
    ("counting.brute_s", "s", "lower"),
    ("counting.fpf_s", "s", "lower"),
    ("counting.formula_s", "s", "lower"),
    ("screening.classify_s", "s", "lower"),
    ("screening.screen_s", "s", "lower"),
    ("screening.inner_unique_s", "s", "lower"),
    ("parallel.pool_s", "s", "lower"),
    ("parallel.first_result_s", "s", "lower"),
    ("parallel.children_cpu_s", "s", "lower"),
    ("parallel.busy_ratio", "ratio", "higher"),
    ("trace_overhead_s", "s", "lower"),
]


def _children_cpu() -> float:
    ru = resource.getrusage(resource.RUSAGE_CHILDREN)
    return ru.ru_utime + ru.ru_stime


class _GenStats:
    __slots__ = ("seconds", "items")

    def __init__(self):
        self.seconds = 0.0
        self.items = 0


class _TracedIter:
    """Iterator that records one span per ``next()`` of the wrapped generator."""

    __slots__ = ("_it", "_tracer", "_name", "_stats")

    def __init__(self, tracer: "Tracer", name: str, it: Iterator, stats: _GenStats):
        self._it, self._tracer, self._name, self._stats = it, tracer, name, stats

    def __iter__(self):
        return self

    def __next__(self):
        tracer = self._tracer
        sid = tracer.open(self._name)
        try:
            item = next(self._it)
        finally:
            tracer.close(sid)
            span = tracer.spans[sid]
            self._stats.seconds += span[2] - span[1]
        self._stats.items += 1
        return item


class Tracer:
    def __init__(self):
        # span = [name, start, end, parent span index or -1, check id]
        self.spans: list[list] = []
        self._stack: list[int] = []
        self.check = "setup"
        self.enabled = True
        self.counts: dict[str, int] = {
            "table_entries": 0, "aut_computed": 0, "aut_elements": 0,
            "iso_calls": 0, "oracle_subgroups": 0,
            "oracle_examined": 0, "oracle_normalized": 0,
        }
        self.generators: dict[str, list[_GenStats]] = {}
        self.pools: list[dict] = []
        self._oracle_orders: set[int] = set()

    # -- spans ---------------------------------------------------------------

    def open(self, name: str) -> int:
        sid = len(self.spans)
        self.spans.append([name, time.perf_counter(), 0.0,
                           self._stack[-1] if self._stack else -1, self.check])
        self._stack.append(sid)
        return sid

    def close(self, sid: int) -> None:
        self.spans[sid][2] = time.perf_counter()
        self._stack.pop()

    def self_times(self) -> dict[str, float]:
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: dict[str, float] = {}
        for sid, (name, start, end, _, _) in enumerate(self.spans):
            out[name] = out.get(name, 0.0) + (end - start) - child[sid]
        return out

    def write_spans(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        keys = ("name", "start", "end", "parent", "check")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump([dict(zip(keys, s)) for s in self.spans], fh)

    # -- wrapping ------------------------------------------------------------

    def install(self) -> None:
        """Wrap every entry point in SPANS and GENERATOR_SPANS, in every binding."""
        os.register_at_fork(after_in_child=self._disable)
        oracle = counting.all_regular_subgroups_of_sym

        def aut_cached(args):
            return "aut" in args[0]._cache

        def count_aut(args, aut, cached):
            if not cached:
                self.counts["aut_computed"] += 1
                self.counts["aut_elements"] += aut.order

        def count_iso(args, iso, _):
            self.counts["iso_calls"] += 1

        def count_oracle(args, subgroups, _):
            if args[0] not in self._oracle_orders:  # the first call per order computes
                self._oracle_orders.add(args[0])
                self.counts["oracle_subgroups"] += len(subgroups)

        def count_brute(args, brute, _):
            self.counts["oracle_examined"] += len(oracle(args[0].order))
            self.counts["oracle_normalized"] += len(brute.subgroups)

        hooks = {
            "morphisms.aut": (aut_cached, count_aut),
            "morphisms.iso": (None, count_iso),
            "counting.oracle": (None, count_oracle),
            "counting.brute": (None, count_brute),
        }
        for name, targets in SPANS.items():
            before, after = hooks.get(name, (None, None))
            for owner, attr in targets:
                orig = getattr(owner, attr)
                self._rebind(owner, orig, self._call_wrapper(name, orig, before, after))
        for name, (owner, attr) in GENERATOR_SPANS.items():
            orig = getattr(owner, attr)
            self._rebind(owner, orig, self._generator_wrapper(name, orig))
        orig_init = groups.FiniteGroup.__init__

        def counted_init(group, *args, **kwargs):
            orig_init(group, *args, **kwargs)
            if self.enabled:
                self.counts["table_entries"] += group.order * group.order

        groups.FiniteGroup.__init__ = counted_init

    def _disable(self) -> None:
        self.enabled = False

    @staticmethod
    def _rebind(owner, orig, wrapper) -> None:
        if isinstance(owner, type):
            setattr(owner, orig.__name__, wrapper)
            return
        for mod_name, mod in list(sys.modules.items()):
            if mod_name != "hgs" and not mod_name.startswith("hgs."):
                continue
            for key, value in list(vars(mod).items()):
                if value is orig:
                    setattr(mod, key, wrapper)

    def _call_wrapper(self, name: str, orig: Callable, before, after):
        def wrapper(*args, **kwargs):
            if not self.enabled:
                return orig(*args, **kwargs)
            state = before(args) if before else None
            sid = self.open(name)
            try:
                result = orig(*args, **kwargs)
            finally:
                self.close(sid)
            if after:
                after(args, result, state)
            return result

        wrapper.__name__ = orig.__name__
        return wrapper

    def _generator_wrapper(self, name: str, orig: Callable):
        def wrapper(*args, **kwargs):
            it = orig(*args, **kwargs)
            if not self.enabled:
                return it
            stats = _GenStats()
            self.generators.setdefault(name, []).append(stats)
            traced = _TracedIter(self, name, it, stats)
            if name == "parallel.pool":
                jobs = args[4] if len(args) > 4 else kwargs["jobs"]
                return self._watch_pool(traced, jobs)
            return traced

        wrapper.__name__ = orig.__name__
        return wrapper

    def _watch_pool(self, traced: Iterator, jobs: int) -> Iterator:
        """Pool lifetime, time to the first result and the workers' CPU."""
        start, cpu0 = time.perf_counter(), _children_cpu()
        first = None
        for item in traced:
            if first is None:
                first = time.perf_counter() - start
            yield item
        # the pool has shut down and its workers are reaped at this point
        self.pools.append({"jobs": jobs, "first": first or 0.0,
                           "pool": time.perf_counter() - start,
                           "children_cpu": _children_cpu() - cpu0})

    # -- per-layer metrics ---------------------------------------------------

    def layer_metrics(self) -> dict[str, float]:
        st = self.self_times()
        c = self.counts
        crossed = self.generators.get("holomorph.crossed", [])
        per_f = [1000 * s.seconds for s in crossed]
        out = {
            "catalog.resolve_s": st.get("catalog.resolve", 0.0),
            "groups.perm_table_s": st.get("groups.perm_table", 0.0),
            "groups.table_entries": c["table_entries"],
            "groups.structure_s": st.get("groups.structure", 0.0),
            "morphisms.aut_s": st.get("morphisms.aut", 0.0),
            "morphisms.aut_computed": c["aut_computed"],
            "morphisms.aut_elements": c["aut_elements"],
            "morphisms.hom_enum_s": st.get("morphisms.hom_enum", 0.0),
            "morphisms.homs_emitted": sum(
                s.items for s in self.generators.get("morphisms.hom_enum", [])),
            "morphisms.iso_s": st.get("morphisms.iso", 0.0),
            "morphisms.iso_calls": c["iso_calls"],
            "holomorph.crossed_s": st.get("holomorph.crossed", 0.0),
            "holomorph.f_searched": len(crossed),
            "holomorph.pairs_found": sum(s.items for s in crossed),
            "holomorph.f_hit_ratio": (sum(s.items > 0 for s in crossed) / len(crossed)
                                      if crossed else 0.0),
            "holomorph.per_f_p50_ms": statistics.median(per_f) if per_f else 0.0,
            "holomorph.per_f_max_ms": max(per_f) if per_f else 0.0,
            "counting.oracle_s": st.get("counting.oracle", 0.0),
            "counting.oracle_subgroups": c["oracle_subgroups"],
            "counting.normalized_ratio": (c["oracle_normalized"] / c["oracle_examined"]
                                          if c["oracle_examined"] else 0.0),
            "counting.brute_s": st.get("counting.brute", 0.0),
            "counting.fpf_s": st.get("counting.fpf", 0.0),
            "counting.formula_s": st.get("counting.formula", 0.0),
            "screening.classify_s": st.get("screening.classify", 0.0),
            "screening.screen_s": st.get("screening.screen", 0.0),
            "screening.inner_unique_s": st.get("screening.inner_unique", 0.0),
        }
        pools = self.pools
        cpu = sum(p["children_cpu"] for p in pools)
        capacity = sum(p["jobs"] * p["pool"] for p in pools)
        out.update({
            "parallel.pool_s": sum(p["pool"] for p in pools),
            "parallel.first_result_s": sum(p["first"] for p in pools),
            "parallel.children_cpu_s": cpu,
            "parallel.busy_ratio": cpu / capacity if capacity else 0.0,
        })
        return out
