"""The orbit-reduced holomorph route against the exhaustive per-f route.

The exhaustive route, one bijective crossed-hom search for every f in
Hom(G, Aut(N)), is kept here as the reference for the orbit-weighted sum,
and the orbit closure keyed by Python tuples as the reference for the one
keyed by byte rows.
"""

import numpy as np
import pytest

from hgs import _search, holomorph
from hgs.catalog import resolve_spec
from hgs.groups import EngineError
from hgs.holomorph import (
    bijective_pair_count,
    build_holomorph,
    hom_orbit,
    hom_orbits,
    regular_subgroups_in_holomorph,
)
from hgs.morphisms import automorphism_group, enumerate_homomorphisms
from hgs.verify import SMALL_CATALOG


def exhaustive_pair_count(N, G) -> int:
    hol = build_holomorph(N)
    return sum(bijective_pair_count(hol, f)
               for f in enumerate_homomorphisms(G, hol.aut.carrier))


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
    assert (run.f_total, run.orbit_count) == (146, 4)


def full_orbit(images, aut_g, aut_n) -> set[bytes]:
    """c_a . f . b for every (b, a) in Aut(G) x Aut(N), not just generators."""
    A = aut_n.carrier
    a = np.arange(A.order)[:, None, None]
    f_b = images[aut_g.perms][None]                   # f . b, one row per b
    rows = A.mul[A.mul[a, f_b], A.inv[a]]
    return {row.tobytes() for row in rows.reshape(-1, len(images))}


def _orbits_cover_hom_exactly(G, N):
    hol = build_holomorph(N)
    aut_g = automorphism_group(G)
    orbits = hom_orbits(G, aut_g, hol.aut)
    homs = {f.images.tobytes() for f in enumerate_homomorphisms(G, hol.aut.carrier)}
    covered = set()
    for rep, size in orbits:
        members = {row.tobytes() for row in hom_orbit(rep.images, aut_g, hol.aut)}
        assert members == full_orbit(rep.images, aut_g, hol.aut)
        assert len(members) == size
        assert not covered & members  # orbits are disjoint
        covered |= members
    assert covered == homs
    assert sum(size for _, size in orbits) == len(homs)
    assert regular_subgroups_in_holomorph(N, G).f_total == len(homs)
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


def test_orbit_list_and_totals_do_not_depend_on_jobs():
    for gl, nl in [("D4", "Q8"), ("S5", "AxCp(A5,2)")]:
        G, N = resolve_spec(gl), resolve_spec(nl)
        runs = []
        for jobs in (1, 2):
            logged = []
            run = regular_subgroups_in_holomorph(N, G, jobs=jobs,
                                                 log=lambda *a: logged.append(a))
            runs.append((run, logged))
        assert runs[0] == runs[1]


def test_collecting_runs_keep_every_f_as_its_own_orbit():
    G, N = resolve_spec("D4"), resolve_spec("C4xC2")
    collected = regular_subgroups_in_holomorph(N, G, collect_subgroups=True)
    counted = regular_subgroups_in_holomorph(N, G)
    assert collected.orbit_count == collected.f_total == counted.f_total
    assert counted.orbit_count < counted.f_total
    assert collected.pair_count == counted.pair_count
    assert len(collected.samples) == counted.subgroup_count


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
        assert rows.dtype == np.int32
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
