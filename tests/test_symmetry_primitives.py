"""The shared symmetry primitives against the inline formulas they replaced.

``groups.centralizer`` and ``groups.conjugation_rows`` stand in for the
commuting masks and conjugation tables that ``center``, the screening
centralizer, the isomorphism branches, ``holomorph.centralizer_orbits``,
``Subgroup.is_normal``, Inn(G) and the Aut(N) closures each wrote out;
``_search.row_blocks`` for the five blocked gather loops; and
``morphisms._isomorphisms`` for the two isomorphism branch loops.
"""

import numpy as np
import pytest

from hgs import _search
from hgs.catalog import resolve_spec
from hgs.groups import (
    GroupError,
    centralizer,
    conjugation_rows,
    subgroup_closure,
)
from hgs.morphisms import _isomorphisms, are_isomorphic, automorphism_group

CATALOG = ["C1", "C2", "C4", "V4", "C6", "S3", "C8", "C4xC2", "C2xC2xC2", "D4",
           "Q8", "A4", "D6", "SL(2,3)", "S4", "A5", "S5", "AxCp(A5,2)", "SL(2,5)",
           "PGL(2,5)", "PSL(2,7)", "PGL(2,7)", "A6", "PSL(2,9)", "S6", "PGL(2,9)",
           "M10", "SL(2,9)", "AxCp(A6,2)", "PSL(2,11)", "C720", "Aut(A6)"]


def _reference_centralizer(G, elements):
    # the screening centralizer's mask: row y against column y, per y
    y = np.asarray(elements, dtype=np.intp)
    return np.flatnonzero((G.mul[y] == G.mul[:, y].T).all(axis=0))


def _reference_single_centralizer(G, x):
    # the mask of the single-element centralizer and of _condition4
    return np.flatnonzero(G.mul[x, :] == G.mul[:, x])


def _reference_conjugation(G, by):
    # the table automorphism_group, hom_orbit and close_under_aut built
    g = np.asarray(by, dtype=np.intp)
    return G.mul[G.mul[g], G.inv[g][:, None]]


def _random_sets(G, rng, count=4):
    for size in range(count):
        yield rng.choice(G.order, size=min(size, G.order), replace=False)


@pytest.mark.parametrize("label", CATALOG)
def test_centralizer_equals_the_commuting_masks(label):
    G = resolve_spec(label)
    rng = np.random.default_rng(len(label) * G.order)
    # the center, from the generators
    center_mask = (G.mul[:, G.gens] == G.mul[G.gens].T).all(axis=1)
    assert np.array_equal(centralizer(G, G.gens).members, np.flatnonzero(center_mask))
    for x in map(int, rng.choice(G.order, size=min(6, G.order), replace=False)):
        C = centralizer(G, x)
        assert np.array_equal(C.members, _reference_single_centralizer(G, x))
        assert np.array_equal(centralizer(G, [x]).members, C.members)
    for elements in _random_sets(G, rng):
        C = centralizer(G, elements)
        assert np.array_equal(C.members, _reference_centralizer(G, elements))
        # closed, as a subgroup must be: no member outside is reached
        assert np.array_equal(subgroup_closure(G, C.members).members, C.members)


@pytest.mark.parametrize("label", CATALOG)
def test_conjugation_rows_equal_the_inline_table(label):
    G = resolve_spec(label)
    rng = np.random.default_rng(G.order + 7)
    for by in [np.arange(G.order), list(G.gens), *_random_sets(G, rng)]:
        rows = conjugation_rows(G, by)
        assert rows.dtype == G.mul.dtype
        assert np.array_equal(rows, _reference_conjugation(G, by))
    # one entry by definition: g x g^-1, with g on the left
    g, x = int(rng.integers(G.order)), int(rng.integers(G.order))
    assert conjugation_rows(G, [g])[0, x] == G.mul[G.mul[g, x], G.inv[g]]


def test_the_centralizer_of_nothing_is_the_group():
    # centralizer_orbits passes the trivial G's empty generator list
    for label in ("C1", "S3", "Aut(A6)"):
        G = resolve_spec(label)
        for empty in ([], np.array([], dtype=np.int16)):
            assert centralizer(G, empty).size == G.order


def test_centralizers_on_the_aut_a6_carrier():
    G = resolve_spec("Aut(A6)")
    assert G.order == 1440
    rng = np.random.default_rng(1440)
    for _ in range(10):
        elements = rng.choice(G.order, size=int(rng.integers(1, 4)), replace=False)
        C = centralizer(G, elements)
        assert np.array_equal(C.members, _reference_centralizer(G, elements))
        # C_G of a set is the meet of the single centralizers
        meet = np.ones(G.order, dtype=bool)
        for x in elements:
            meet &= centralizer(G, int(x)).member_mask()
        assert np.array_equal(C.member_mask(), meet)
    by = rng.choice(G.order, size=50, replace=False)
    assert np.array_equal(conjugation_rows(G, by), _reference_conjugation(G, by))


def test_centralizer_rejects_elements_out_of_range(S5):
    for bad in (120, -1, [0, 120]):
        with pytest.raises(GroupError, match="out of range"):
            centralizer(S5, bad)


@pytest.mark.parametrize("label", ["S4", "S5", "A5", "PGL(2,9)"])
def test_is_normal_equals_the_per_generator_check(label):
    G = resolve_spec(label)
    rng = np.random.default_rng(G.order)
    verdicts = set()
    for x in map(int, rng.choice(G.order, size=12, replace=False)):
        H = subgroup_closure(G, [x])
        mask = H.member_mask()
        reference = all(mask[G.mul[G.mul[g, H.members], G.inv[g]]].all() for g in G.gens)
        assert H.is_normal() == reference
        verdicts.add(reference)
    assert False in verdicts


@pytest.mark.parametrize("count, width", [
    (0, 5), (1, 5), (7, 1), (1440, 720), (720, 720), (91, 720), (5, 0),
    (3, _search.CERTIFICATE_BLOCK + 1), (_search.CERTIFICATE_BLOCK + 3, 1),
])
def test_row_blocks_cover_every_row_once_in_order(count, width):
    blocks = list(_search.row_blocks(count, width))
    covered = [i for block in blocks for i in range(count)[block]]
    assert covered == list(range(count))
    for block in blocks:
        rows = len(range(count)[block])
        assert rows >= 1
        assert rows * width <= _search.CERTIFICATE_BLOCK or rows == 1


@pytest.mark.parametrize("g_label, h_label", [
    ("S3", "S3"), ("C6", "C6"), ("V4", "V4"), ("D4", "D4"), ("Q8", "Q8"),
    ("S4", "S4"), ("A5", "PSL(2,5)"), ("S5", "PGL(2,5)"), ("SL(2,3)", "SL(2,3)"),
])
def test_isomorphisms_meet_every_class_under_inner_automorphisms(g_label, h_label):
    G, H = resolve_spec(g_label), resolve_spec(h_label)
    maps = list(_isomorphisms(G, H))
    first = are_isomorphic(G, H)
    assert np.array_equal(first.images, maps[0])
    # c_h . m for every map m met and every h of H: all isomorphisms G -> H
    inn = conjugation_rows(H, np.arange(H.order))
    met = {row.tobytes() for m in maps for row in inn[:, m]}
    every = {first.images[a].tobytes() for a in automorphism_group(G).perms}
    assert met == every


def test_isomorphisms_of_non_isomorphic_groups_are_none():
    for g_label, h_label in [("D4", "Q8"), ("C4", "V4"), ("SL(2,3)", "S4"),
                             ("SL(2,5)", "S5")]:
        G, H = resolve_spec(g_label), resolve_spec(h_label)
        assert list(_isomorphisms(G, H)) == []
        assert are_isomorphic(G, H) is None
