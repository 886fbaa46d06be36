"""The fail-fast staged engine against the fill-then-check engine it replaced.

The reference below fills every node of a stage and only then runs the
stage's checks, on whole tables converted to row lists up front.  The
engine under test runs each check right after the node that makes it
decidable and converts rows on first use; both must emit the same maps in
the same order.  ``derive_h`` is held to its per-element loop the same way.
"""

import numpy as np
import pytest

from hgs import _search
from hgs.catalog import resolve_spec
from hgs.groups import ELEMENT_DTYPE, EngineError, RowIndex, row_sort_order
from hgs.holomorph import (
    CrossedHom,
    _crossed_candidates,
    crossed_homomorphisms,
    crossed_relation_holds,
    derive_h,
    hom_orbits,
)
from hgs.morphisms import (
    Homomorphism,
    _hom_candidates,
    _iso_candidates,
    automorphism_group,
    class_cut,
    enumerate_homomorphisms,
)

from test_morphisms import AUT_GRID


def _reference_tree(mul, gens):
    """Per stage, the word-tree nodes (element, gi, parent) with
    element = gens[gi] * parent, in breadth-first order, and the
    (gi, w, gens[gi] * w) products the tree leaves out."""
    member_list, member_set = [0], {0}
    eff_gens, gen_rows, out = [], [], []
    for g in gens:
        if g in member_set:
            continue
        k = len(eff_gens)
        eff_gens.append(int(g))
        gen_rows.append(mul[g].tolist())
        prev_count = len(member_list)
        nodes, tree_edge = [], set()
        pos = 0
        while pos < len(member_list):
            x = member_list[pos]
            pos += 1
            for gi in range(k + 1):
                y = gen_rows[gi][x]
                if y not in member_set:
                    member_set.add(y)
                    member_list.append(y)
                    nodes.append((y, gi, x))
                    tree_edge.add((gi, x))
        checks = []
        new_members = member_list[prev_count:]
        for gi in range(k + 1):
            targets = member_list if gi == k else new_members
            for w in targets:
                if (gi, w) not in tree_edge:
                    checks.append((gi, w, gen_rows[gi][w]))
        out.append((nodes, checks))
    return out


def _reference_stage_maps(S, tables, candidates, *, bijective=False):
    """The fill-then-check engine: fill a whole stage, then run its checks."""
    gens = S.gens
    tree = _reference_tree(S.mul, gens)
    tables = [t.tolist() for t in tables]
    if not gens:
        yield np.zeros(S.order, dtype=np.int32)
        return
    img = [-1] * S.order
    img[0] = 0
    used = None
    if bijective:
        used = bytearray(len(tables[0]))
        used[0] = 1
    rows = [None] * len(gens)

    def drive(k):
        gen_elt = gens[k]
        nodes, checks = tree[k]
        for x in candidates[k]:
            if used is not None and used[x]:
                continue
            img[gen_elt] = x
            rows[k] = tables[k][x]
            if used is not None:
                used[x] = 1
            trail = [gen_elt]
            ok = True
            for e, gi, par in nodes:
                if e == gen_elt:
                    continue
                v = rows[gi][img[par]]
                if used is not None:
                    if used[v]:
                        ok = False
                        break
                    used[v] = 1
                img[e] = v
                trail.append(e)
            if ok:
                for gi, w, u in checks:
                    if img[u] != rows[gi][img[w]]:
                        ok = False
                        break
            if ok:
                if k + 1 == len(gens):
                    yield np.array(img, dtype=np.int32)
                else:
                    yield from drive(k + 1)
            for e in trail:
                if used is not None:
                    used[img[e]] = 0
                img[e] = -1

    yield from drive(0)


def _reference_hom_images(S, T, candidates, *, bijective=False):
    tables = [T.mul] * len(S.gens)
    for img in _reference_stage_maps(S, tables, candidates, bijective=bijective):
        if _search.generator_certificate(S, T, img):
            yield img


def _reference_crossed(aut, f):
    G, N = f.source, aut.base
    tables = [N.mul[:, aut.perms[int(f.images[s])]]
              for s in G.gens]
    candidates = _crossed_candidates(aut, f)
    for g in _reference_stage_maps(G, tables, candidates, bijective=True):
        if crossed_relation_holds(aut, f, g) and len(np.unique(g)) == N.order:
            yield g


def _same_sequence(found, expected):
    found, expected = list(found), list(expected)
    assert len(found) == len(expected)
    for a, b in zip(found, expected):
        assert np.array_equal(a, b)
    return len(found)


SCHEDULE_GROUPS = ["C1", "C12", "D4", "Q8", "C2xC2xC2", "S4", "SL(2,3)", "S5",
                   "AxCp(A5,2)", "A6", "PGL(2,9)", "M10"]


@pytest.mark.parametrize("spec", SCHEDULE_GROUPS)
def test_each_check_is_scheduled_once_after_both_of_its_nodes(spec):
    G = resolve_spec(spec)
    sd = _search.stage_data(G)
    reference = _reference_tree(G.mul, G.gens)
    assert len(sd.first) == len(sd.fill) == len(reference)
    earlier: set[int] = {0}
    for k, (first, fill) in enumerate(zip(sd.first, sd.fill)):
        # node 0 is the stage's generator, with the checks ``first``
        nodes = [(sd.gens[k], k, 0)] + [(e, gi, par) for e, gi, par, _ in fill]
        due = [first] + [checks for _, _, _, checks in fill]
        assert nodes == reference[k][0]
        node_of = {e: i for i, (e, _, _) in enumerate(nodes)}
        scheduled = []
        for i, checks in enumerate(due):
            for gi, w, u in checks:
                assert gi <= k and G.mul[sd.gens[gi], w] == u
                for x in (w, u):
                    assert x in earlier or node_of[x] <= i
                # due no later than needed: the later of the two nodes
                assert i == max(node_of.get(w, 0), node_of.get(u, 0))
                scheduled.append((gi, w, u))
        assert sorted(scheduled) == sorted(reference[k][1])
        assert len(set(scheduled)) == len(scheduled)
        earlier.update(node_of)


def test_hom_emission_equals_fill_then_check_on_small_grid(small_catalog):
    total = 0
    for S in small_catalog.values():
        for T in small_catalog.values():
            total += _same_sequence(
                (h.images for h in enumerate_homomorphisms(S, T)),
                _reference_hom_images(S, T, _hom_candidates(S, T)))
    assert total > 500


@pytest.mark.parametrize("spec", AUT_GRID)
def test_aut_search_emission_equals_fill_then_check(spec):
    G = resolve_spec(spec)
    for candidates in (_iso_candidates(G, G), class_cut(G, _iso_candidates(G, G))):
        _same_sequence(
            _search.iter_hom_images(G, G, candidates, bijective=True),
            _reference_hom_images(G, G, candidates, bijective=True))


@pytest.mark.parametrize("g_label,n_label", [("S3", "C6"), ("D4", "Q8")])
def test_crossed_emission_equals_fill_then_check(g_label, n_label):
    G, N = resolve_spec(g_label), resolve_spec(n_label)
    aut = automorphism_group(N)
    emitted = 0
    for f in enumerate_homomorphisms(G, aut.carrier):
        emitted += _same_sequence((c.g for c in crossed_homomorphisms(aut, f)),
                                  _reference_crossed(aut, f))
    assert emitted > 0


def test_crossed_emission_on_s5_orbit_representatives(S5):
    aut = automorphism_group(S5)
    emitted = 0
    for f, _ in hom_orbits(S5, automorphism_group(S5), aut):
        emitted += _same_sequence((c.g for c in crossed_homomorphisms(aut, f)),
                                  _reference_crossed(aut, f))
    assert emitted > 0


def test_row_sort_order_equals_lexsort():
    rng = np.random.default_rng(11)
    for shape, high in [((300, 1), 1000), ((500, 6), 300), ((400, 40), 70000),
                        ((64, 3), 2**31 - 1)]:
        rows = rng.integers(256, high, shape)
        rows[::7] = rows[0]  # ties keep their input order, as in lexsort
        assert np.array_equal(row_sort_order(rows), np.lexsort(rows.T[::-1]))
    for spec in ("S4", "A5", "A6", "PGL(2,9)"):
        perms = np.asarray(automorphism_group(resolve_spec(spec)).perms)
        shuffled = perms[rng.permutation(len(perms))]
        order = row_sort_order(shuffled)
        assert np.array_equal(order, np.lexsort(shuffled.T[::-1]))
        assert np.array_equal(shuffled[order], perms)


def _reference_derive_h(c):
    """Per element, conj(g(d)) . f(d) looked up by its whole row in a dict."""
    aut, G = c.aut, c.f.source
    N = aut.base
    index = {tuple(p): i for i, p in enumerate(aut.perms.tolist())}
    images = np.empty(G.order, dtype=np.int32)
    for d in range(G.order):
        gd = int(c.g[d])
        fp = aut.perms[int(c.f.images[d])]
        row = N.mul[N.mul[gd, fp], N.inv[gd]]
        images[d] = index.get(tuple(row.tolist()), -1)
        if images[d] < 0:
            raise EngineError("conj(g(d)).f(d) is not an automorphism of N")
    return images


@pytest.mark.parametrize("g_label,n_label", [("S3", "C6"), ("D4", "Q8"), ("Q8", "D4"),
                                             ("S5", "AxCp(A5,2)")])
def test_derive_h_equals_the_per_element_loop(g_label, n_label):
    G, N = resolve_spec(g_label), resolve_spec(n_label)
    aut = automorphism_group(N)
    checked = 0
    for f in enumerate_homomorphisms(G, aut.carrier):
        for c in crossed_homomorphisms(aut, f):
            h = derive_h(c)
            assert h.images.dtype == ELEMENT_DTYPE
            assert np.array_equal(h.images, _reference_derive_h(c))
            checked += 1
            if checked >= 400:
                return
    assert checked > 0


def test_derive_h_error_paths(monkeypatch):
    Q8 = resolve_spec("Q8")
    aut = automorphism_group(Q8)
    f = Homomorphism(Q8, aut.carrier, np.zeros(8, dtype=np.int32))
    # an index that holds the identity alone: the lookup of conj(g(d)) fails
    c = CrossedHom(aut, f, np.arange(8, dtype=np.int32))
    monkeypatch.setattr(aut, "index", RowIndex(aut.perms[:1]))
    with pytest.raises(EngineError, match="is not an automorphism of N"):
        derive_h(c)
    monkeypatch.undo()
    # a g that is not a crossed hom: every key exists, h is not multiplicative
    d = int(np.flatnonzero(Q8.elt_order == 4)[0])
    g = np.zeros(8, dtype=np.int32)
    g[d] = d  # h(d) = conj(d) is not trivial, h(d^-1) is
    bad = CrossedHom(aut, f, g)
    with pytest.raises(EngineError, match="derived map h is not a homomorphism"):
        derive_h(bad)
