"""The kept ``jobs`` keyword changes nothing, and the worker context the
pool module hands over survives pickling."""

import pickle

from hgs import holomorph, morphisms, parallel
from hgs.catalog import resolve_spec
from hgs.counting import count_byott


def test_byott_value_matches_across_jobs():
    C8 = resolve_spec("C8")
    D4 = resolve_spec("D4")
    assert count_byott(C8, D4, jobs=1).value == count_byott(C8, D4, jobs=2).value


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


def test_kept_pool_module_yields_the_serial_counts_in_order():
    # no hgs path imports hgs.parallel; the benchmark's tracing harness
    # still wraps parallel_crossed_counts, so it must keep working
    V4, C4 = resolve_spec("V4"), resolve_spec("C4")
    hol = holomorph.build_holomorph(V4)
    reps = [f for f, _ in holomorph.hom_orbits(
        C4, morphisms.automorphism_group(C4), hol.aut)]
    serial = [holomorph.bijective_pair_count(hol, f) for f in reps]
    assert list(parallel.parallel_crossed_counts(hol, reps, jobs=1)) == \
        list(enumerate(serial))
