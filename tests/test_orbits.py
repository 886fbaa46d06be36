"""The orbit-reduced holomorph route against the exhaustive per-f route.

The exhaustive route, one bijective crossed-hom search for every f in
Hom(G, Aut(N)) that counts every map, is kept here as the reference for
the orbit-weighted sum, for the centralizer-weighted count of each
representative and for the subgroups that collecting runs close under
Aut(N), and the orbit closure keyed by Python tuples as the reference for
the one keyed by byte rows.
"""

import numpy as np
import pytest

from hgs import _search, holomorph
from hgs.catalog import resolve_spec
from hgs.counting import count_byott
from hgs.groups import ELEMENT_DTYPE, EngineError
from hgs.holomorph import (
    bijective_pair_count,
    crossed_homomorphisms,
    hom_orbit,
    hom_orbits,
    pair_perms,
    regular_subgroups_in_holomorph,
)
from hgs.morphisms import are_isomorphic, automorphism_group, enumerate_homomorphisms
from hgs.perms import is_permutation
from hgs.verify import SMALL_CATALOG


def unweighted_pair_count(aut, f) -> int:
    """Every bijective crossed hom of f, counted one by one."""
    return sum(1 for _ in crossed_homomorphisms(aut, f))


def exhaustive_pair_count(N, G) -> int:
    aut = automorphism_group(N)
    return sum(unweighted_pair_count(aut, f)
               for f in enumerate_homomorphisms(G, aut.carrier))


def _same_order_pairs():
    groups = {label: resolve_spec(label) for label in SMALL_CATALOG}
    return [(groups[gl], groups[nl]) for gl in groups for nl in groups
            if groups[gl].order == groups[nl].order]


ORDER_120 = [("S5", "S5"), ("S5", "AxCp(A5,2)")]


def test_orbit_totals_equal_exhaustive_totals_on_the_small_grid():
    assert len(_same_order_pairs()) == 33
    for G, N in _same_order_pairs():
        run = regular_subgroups_in_holomorph(N, G)
        assert run.pair_count == exhaustive_pair_count(N, G), (G.name, N.name)


@pytest.mark.parametrize("gl, nl, pairs", [("S5", "S5", 3840),
                                           ("S5", "AxCp(A5,2)", 2400)])
def test_orbit_totals_equal_exhaustive_totals_at_order_120(gl, nl, pairs):
    G, N = resolve_spec(gl), resolve_spec(nl)
    run = regular_subgroups_in_holomorph(N, G)
    assert run.pair_count == exhaustive_pair_count(N, G) == pairs
    homs = enumerate_homomorphisms(G, automorphism_group(N).carrier)
    assert (len(list(homs)), run.orbit_count) == (146, 4)


def _weighted_counts_equal_unweighted(G, N) -> list[int]:
    aut = automorphism_group(N)
    counts = []
    for f, _ in hom_orbits(G, automorphism_group(G), aut):
        count = bijective_pair_count(aut, f)
        assert count == unweighted_pair_count(aut, f), (G.name, N.name)
        counts.append(count)
    return counts


def test_weighted_counts_equal_unweighted_per_representative_on_the_small_grid():
    pairs = _same_order_pairs()
    assert len(pairs) == 33
    assert sum(sum(_weighted_counts_equal_unweighted(G, N)) > 0 for G, N in pairs) == 30


@pytest.mark.parametrize("gl, nl, counts", [("S5", "S5", [120, 0, 120, 16]),
                                            ("S5", "AxCp(A5,2)", [0, 120, 0, 10]),
                                            ("PGL(2,9)", "M10", [0, 0, 0, 1440, 30])])
def test_weighted_counts_equal_unweighted_per_representative(gl, nl, counts):
    G, N = resolve_spec(gl), resolve_spec(nl)
    assert _weighted_counts_equal_unweighted(G, N) == counts


def test_the_weighted_search_tries_one_first_image_per_centralizer_orbit():
    # the trivial f of S5 -> S5: C is all of Aut(S5), its orbits the seven
    # classes, and only the class of S5's first generator has bijective maps
    G, N = resolve_spec("S5"), resolve_spec("S5")
    aut = automorphism_group(N)
    trivial = next(f for f, size in hom_orbits(G, automorphism_group(G), aut)
                   if size == 1)
    order, weight = holomorph.centralizer_orbits(aut, trivial)
    assert order == 120
    assert sorted(weight[weight > 0].tolist()) == [1, 10, 15, 20, 20, 24, 30]
    classes = N.conjugacy_classes()
    least = np.array([classes[k].min() for k in N.class_index()])
    assert np.array_equal(weight > 0, least == np.arange(120))
    maps = list(crossed_homomorphisms(aut, trivial, first_images=weight > 0))
    s1 = _search.stage_data(G).gens[0]
    full = crossed_homomorphisms(aut, trivial)
    assert [c.g.tolist() for c in maps] == \
        [c.g.tolist() for c in full if weight[c.g[s1]] > 0]  # same maps, same order
    assert sum(int(weight[c.g[s1]]) for c in maps) == 120
    assert len(maps) == 120 // int(weight[maps[0].g[s1]])


def test_a_weight_that_breaks_the_free_action_raises(monkeypatch):
    G, N = resolve_spec("S5"), resolve_spec("S5")
    aut = automorphism_group(N)
    reps = [f for f, _ in hom_orbits(G, automorphism_group(G), aut)]
    real = holomorph.centralizer_orbits

    def one_too_many(aut, f):
        order, weight = real(aut, f)
        return order, np.where(weight > 0, weight + 1, 0)

    monkeypatch.setattr(holomorph, "centralizer_orbits", one_too_many)
    with pytest.raises(EngineError, match="not a multiple"):
        for f in reps:
            bijective_pair_count(aut, f)


def full_orbit(images, aut_g, aut_n) -> set[bytes]:
    """c_a . f . b for every (b, a) in Aut(G) x Aut(N), not just generators."""
    A = aut_n.carrier
    a = np.arange(A.order)[:, None, None]
    f_b = images[aut_g.perms][None]                   # f . b, one row per b
    rows = A.mul[A.mul[a, f_b], A.inv[a]]
    return {row.tobytes() for row in rows.reshape(-1, len(images))}


def _orbits_cover_hom_exactly(G, N, *, with_full_orbits=True):
    aut = automorphism_group(N)
    aut_g = automorphism_group(G)
    orbits = hom_orbits(G, aut_g, aut)
    homs = {f.images.tobytes() for f in enumerate_homomorphisms(G, aut.carrier)}
    covered = set()
    for rep, size in orbits:
        members = {row.tobytes() for row in hom_orbit(rep.images, aut_g, aut)}
        if with_full_orbits:
            assert members == full_orbit(rep.images, aut_g, aut)
        assert len(members) == size
        assert not covered & members  # orbits are disjoint
        covered |= members
    assert covered == homs
    assert sum(size for _, size in orbits) == len(homs)
    return [size for _, size in orbits]


def test_orbits_cover_hom_exactly_on_the_small_grid():
    counts = {}
    for G, N in _same_order_pairs():
        counts[G.name, N.name] = len(_orbits_cover_hom_exactly(G, N))
    # Out(D4) = C2 and Out(Q8) = S3 merge Aut(N)-orbits
    assert (counts["D4", "Q8"], counts["Q8", "D4"]) == (9, 6)


def test_orbits_cover_hom_exactly_at_order_120():
    for gl, nl in ORDER_120:
        sizes = _orbits_cover_hom_exactly(resolve_spec(gl), resolve_spec(nl))
        assert sorted(sizes) == [1, 10, 15, 120]


def test_orbits_cover_hom_exactly_at_order_720():
    # without the full_orbit reference, which takes minutes per pair at this order
    sizes = _orbits_cover_hom_exactly(resolve_spec("S6"), resolve_spec("M10"),
                                      with_full_orbits=False)
    assert sum(sizes) == 1552
    assert sorted(sizes) == [1, 30, 36, 45, 1440]


def test_orbit_list_and_totals_do_not_depend_on_jobs():
    # count_byott keeps a jobs keyword that has no effect
    for gl, nl in [("D4", "Q8"), ("S5", "AxCp(A5,2)")]:
        G, N = resolve_spec(gl), resolve_spec(nl)
        runs = [count_byott(G, N, jobs=jobs) for jobs in (1, 2)]
        assert (runs[0].value, runs[0].notes) == (runs[1].value, runs[1].notes)
    # D4 -> Q8 has nine orbits, two of them with pairs
    G, N = resolve_spec("D4"), resolve_spec("Q8")
    aut = automorphism_group(N)
    counts = [bijective_pair_count(aut, f)
              for f, _ in hom_orbits(G, automorphism_group(G), aut)]
    assert len(counts) == 9
    assert sum(count > 0 for count in counts) == 2


def test_collecting_and_counting_runs_search_the_same_orbits():
    G, N = resolve_spec("D4"), resolve_spec("C4xC2")
    collected = regular_subgroups_in_holomorph(N, G, collect_subgroups=True)
    counted = regular_subgroups_in_holomorph(N, G)
    assert (collected.orbit_count, collected.pair_count) == \
        (counted.orbit_count, counted.pair_count)
    assert counted.orbit_count < len(list(
        enumerate_homomorphisms(G, automorphism_group(N).carrier)))
    assert len(collected.samples) == counted.subgroup_count


def exhaustive_member_sets(N, G) -> set[bytes]:
    """The member rows of every regular subgroup, from every f in
    Hom(G, Aut(N)) and every bijective crossed hom of it."""
    aut = automorphism_group(N)
    found = set()
    for f in enumerate_homomorphisms(G, aut.carrier):
        for c in crossed_homomorphisms(aut, f):
            rows = pair_perms(aut, c.g, f.images)
            found.add(b"".join(sorted(row.tobytes() for row in rows)))
    return found


def collected_member_sets(N, G) -> set[bytes]:
    run = regular_subgroups_in_holomorph(N, G, collect_subgroups=True)
    keys = {b"".join(sorted(D.key())) for D in run.samples}
    assert len(keys) == len(run.samples) == run.subgroup_count
    return keys


def test_collected_subgroups_equal_the_exhaustive_sets_on_the_small_grid():
    pairs = _same_order_pairs()
    assert len(pairs) == 33
    for G, N in pairs:
        assert collected_member_sets(N, G) == exhaustive_member_sets(N, G), \
            (G.name, N.name)


@pytest.mark.parametrize("gl, nl, subgroups", [("S5", "S5", 32),
                                               ("S5", "AxCp(A5,2)", 20)])
def test_collected_subgroups_equal_the_exhaustive_sets_at_order_120(gl, nl, subgroups):
    G, N = resolve_spec(gl), resolve_spec(nl)
    collected = collected_member_sets(N, G)
    assert collected == exhaustive_member_sets(N, G)
    assert len(collected) == subgroups


def test_pgl29_subgroups_of_hol_m10_counted_from_below():
    G, N = resolve_spec("PGL(2,9)"), resolve_spec("M10")
    run = regular_subgroups_in_holomorph(N, G, collect_subgroups=True)
    assert run.subgroup_count == len({D.key() for D in run.samples}) == 60
    for D in run.samples:
        assert is_permutation(D.members[:, 0])
        assert are_isomorphic(D.as_group(), G) is not None


def test_a_closure_that_drops_a_conjugate_raises(monkeypatch):
    G, N = resolve_spec("PGL(2,9)"), resolve_spec("M10")
    real = holomorph.close_under_aut
    monkeypatch.setattr(holomorph, "close_under_aut",
                        lambda aut, found: real(aut, found)[:-1])
    with pytest.raises(EngineError, match="disagrees with the pair count"):
        regular_subgroups_in_holomorph(N, G, collect_subgroups=True)


def test_an_orbit_size_that_breaks_orbit_stabilizer_raises(monkeypatch):
    G, N = resolve_spec("D4"), resolve_spec("Q8")
    real = holomorph.hom_orbit

    def one_row_too_many(images, aut_g, aut_n):
        orbit = real(images, aut_g, aut_n)
        return np.concatenate([orbit, orbit[:1]])

    monkeypatch.setattr(holomorph, "hom_orbit", one_row_too_many)
    with pytest.raises(EngineError, match="does not divide"):
        regular_subgroups_in_holomorph(N, G)


def tuple_keyed_hom_orbit(images, aut_g, aut_n):
    """``hom_orbit`` with one Python tuple per row as its key."""
    gens = _search.stage_data(aut_g.base).gens
    B, A = aut_g.carrier, aut_n.carrier
    b_invs = aut_g.perms[B.inv[np.asarray(B.gens, dtype=np.intp)]]
    rows = [np.asarray(images, dtype=np.int32)]
    seen = {tuple(rows[0][gens].tolist())}
    frontier = rows[0][None, :]
    while len(frontier):
        moved = [frontier[:, b_inv] for b_inv in b_invs]
        moved += [A.mul[A.mul[a, frontier], A.inv[a]] for a in A.gens]
        if not moved:
            break
        moved = np.concatenate(moved)
        fresh = []
        for i, key in enumerate(map(tuple, moved[:, gens].tolist())):
            if key not in seen:
                seen.add(key)
                fresh.append(i)
        frontier = moved[fresh]
        rows.extend(frontier)
    return np.stack(rows)


def _orbit_rows_and_list_match_tuple_keys(G, N, monkeypatch):
    aut_g, aut_n = automorphism_group(G), automorphism_group(N)
    got = hom_orbits(G, aut_g, aut_n)
    for rep, size in got:
        rows = hom_orbit(rep.images, aut_g, aut_n)
        assert rows.dtype == ELEMENT_DTYPE
        assert np.array_equal(rows, tuple_keyed_hom_orbit(rep.images, aut_g, aut_n))
        assert len(rows) == size
    with monkeypatch.context() as m:
        m.setattr(holomorph, "hom_orbit", tuple_keyed_hom_orbit)
        ref = hom_orbits(G, aut_g, aut_n)
    assert [(f.images.tolist(), size) for f, size in got] == \
        [(f.images.tolist(), size) for f, size in ref]
    return len(got)


def test_byte_keyed_orbits_equal_tuple_keyed_orbits_on_the_small_grid(monkeypatch):
    groups = [resolve_spec(label) for label in SMALL_CATALOG]
    orbit_counts = [_orbit_rows_and_list_match_tuple_keys(G, N, monkeypatch)
                    for G in groups for N in groups]
    assert len(orbit_counts) == 81


@pytest.mark.parametrize("gl, nl", ORDER_120)
def test_byte_keyed_orbits_equal_tuple_keyed_orbits_at_order_120(gl, nl, monkeypatch):
    G, N = resolve_spec(gl), resolve_spec(nl)
    assert _orbit_rows_and_list_match_tuple_keys(G, N, monkeypatch) == 4
