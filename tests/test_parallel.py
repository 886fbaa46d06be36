"""Worker-count invariance: identical results for any jobs value."""

import pickle

import pytest

from hgs import holomorph, morphisms, parallel
from hgs.catalog import resolve_spec
from hgs.counting import count_byott
from hgs.holomorph import regular_subgroups_in_holomorph


def test_byott_counts_do_not_depend_on_jobs():
    V4, C4 = resolve_spec("V4"), resolve_spec("C4")
    serial = regular_subgroups_in_holomorph(V4, C4)
    parallel = regular_subgroups_in_holomorph(V4, C4, jobs=2)
    assert (serial.pair_count, serial.subgroup_count) == \
        (parallel.pair_count, parallel.subgroup_count)


def test_byott_value_matches_across_jobs():
    C8 = resolve_spec("C8")
    D4 = resolve_spec("D4")
    assert count_byott(C8, D4, jobs=1).value == count_byott(C8, D4, jobs=2).value


def _logged(N, G, **kwargs):
    """The run and the (orbit index, orbit count, running pair count) triples it logs."""
    seen = []
    run = regular_subgroups_in_holomorph(N, G, log=lambda *a: seen.append(a), **kwargs)
    return run, seen


def test_per_orbit_counts_do_not_depend_on_jobs():
    Q8, D4 = resolve_spec("Q8"), resolve_spec("D4")
    serial_run, serial = _logged(Q8, D4)
    pooled_run, pooled = _logged(Q8, D4, jobs=2)
    assert [oi for oi, _, _ in serial] == list(range(9))
    assert {total for _, total, _ in serial} == {9}
    totals = [0] + [pairs for _, _, pairs in serial]
    assert sum(b > a for a, b in zip(totals, totals[1:])) == 2  # orbits with pairs
    assert pooled == serial
    assert pooled_run == serial_run


def test_worker_context_survives_pickling():
    # a spawned worker unpickles hol and the f-list together; the f's must
    # still land in that holomorph's own Aut(N) carrier
    V4, C4 = resolve_spec("V4"), resolve_spec("C4")
    hol = holomorph.build_holomorph(V4)
    f_list = list(morphisms.enumerate_homomorphisms(C4, hol.aut.carrier))
    hol2, f_list2 = pickle.loads(pickle.dumps((hol, f_list)))
    assert all(f.target is hol2.aut.carrier for f in f_list2)
    assert [holomorph.bijective_pair_count(hol2, f) for f in f_list2] == \
        [holomorph.bijective_pair_count(hol, f) for f in f_list]


REBUILDERS = ("build_holomorph", "automorphism_group", "enumerate_homomorphisms",
              "hom_orbits")


@pytest.fixture
def inline_pool(monkeypatch):
    """Run the pool in this process; record its sizes and calls made by workers."""
    record = {"sizes": [], "calls": [], "worker_calls": [], "in_worker": False}

    def as_worker(fn, *args):
        record["in_worker"] = True
        try:
            return fn(*args)
        finally:
            record["in_worker"] = False

    class InlinePool:
        def __init__(self, max_workers, initializer, initargs):
            record["sizes"].append(max_workers)
            self._init = (initializer, initargs)

        def __enter__(self):
            initializer, initargs = self._init
            as_worker(initializer, *initargs)
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items):
            return (as_worker(fn, x) for x in items)

    def spy(module, name):
        orig = getattr(module, name)

        def wrapper(*args, **kwargs):
            record["worker_calls" if record["in_worker"] else "calls"].append(name)
            return orig(*args, **kwargs)

        monkeypatch.setattr(module, name, wrapper)

    monkeypatch.setattr(parallel, "ProcessPoolExecutor", InlinePool)
    monkeypatch.setattr(parallel, "_CONTEXT", {})
    for module in (holomorph, morphisms, parallel):
        for name in REBUILDERS:
            if hasattr(module, name):
                spy(module, name)
    return record


def test_workers_reuse_the_parent_holomorph_and_f_list(inline_pool):
    Q8, D4 = resolve_spec("Q8"), resolve_spec("D4")
    _, serial = _logged(Q8, D4)
    inline_pool["calls"].clear()
    _, pooled = _logged(Q8, D4, jobs=2)
    assert pooled == serial
    assert inline_pool["sizes"] == [2]
    assert inline_pool["calls"].count("hom_orbits") == 1
    assert inline_pool["worker_calls"] == []
    assert not any(hasattr(parallel, name) for name in REBUILDERS)


def test_pool_never_exceeds_the_orbits_left(inline_pool):
    # the pool is min(jobs, orbit count); one orbit runs serially
    for n_label, g_label, jobs, f_total, orbits, sizes in [
        ("Q8", "D4", 4, 76, 9, [4]),
        ("V4", "C4", 8, 4, 2, [2]),
        ("C3", "C3", 8, 1, 1, []),
    ]:
        N, G = resolve_spec(n_label), resolve_spec(g_label)
        serial = regular_subgroups_in_holomorph(N, G)
        assert (serial.f_total, serial.orbit_count) == (f_total, orbits)
        inline_pool["sizes"].clear()
        pooled = regular_subgroups_in_holomorph(N, G, jobs=jobs)
        assert pooled.pair_count == serial.pair_count
        assert inline_pool["sizes"] == sizes
