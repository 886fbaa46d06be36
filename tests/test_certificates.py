"""The O(n * |gens|) generator certificates against the exhaustive n^2 checks."""

import tracemalloc

import numpy as np
import pytest

from hgs import _search
from hgs.catalog import resolve_spec
from hgs.groups import EngineError, GroupError, RowIndex
from hgs.holomorph import crossed_homomorphisms, crossed_relation_holds, pair_orders
from hgs.morphisms import _certified_carrier, automorphism_group, enumerate_homomorphisms


def _full_hom_check(S, T, img):
    """Reference: img[x * y] == img[x] * img[y] for every pair."""
    return bool(np.array_equal(img[S.mul], T.mul[img][:, img]))


def _whole_stack_certificate(S, T, images):
    """Reference: the generator certificate as one broadcast over the stack."""
    gens = np.asarray(_search.stage_data(S).gens, dtype=np.intp)
    lhs = images[..., S.mul[gens]]
    rhs = T.mul[images[..., gens, None], images[..., None, :]]
    return bool(np.array_equal(lhs, rhs))


def _full_crossed_check(aut, f, g):
    """Reference: g(d1 * d2) == g(d1) * f(d1)(g(d2)) for every pair."""
    G, N = f.source, aut.base
    F = aut.perms[f.images]
    applied = F[np.arange(G.order)[:, None], g[None, :]]
    return bool(np.array_equal(g[G.mul], N.mul[g[:, None], applied]))


def _perturbed(img, n_target, rng, count):
    """Copies of img with one non-identity position changed."""
    out = []
    for _ in range(count):
        bad = img.copy()
        d = int(rng.integers(1, len(img)))
        bad[d] = (bad[d] + int(rng.integers(1, n_target))) % n_target
        out.append(bad)
    return out


def test_certificate_agrees_with_full_check_on_small_grid(small_catalog):
    rng = np.random.default_rng(5)
    groups = list(small_catalog.values())
    homs = rejected = 0
    for S in groups:
        for T in groups:
            rows = []
            for h in enumerate_homomorphisms(S, T):
                img = np.array(h.images)
                assert _full_hom_check(S, T, img)
                assert _search.generator_certificate(S, T, img)
                rows.append(img)
                for bad in _perturbed(img, T.order, rng, 2):
                    verdict = _full_hom_check(S, T, bad)
                    assert _search.generator_certificate(S, T, bad) == verdict
                    rejected += not verdict
            homs += len(rows)
            # a stack of maps is certified row by row
            stack = np.stack(rows)
            assert _search.generator_certificate(S, T, stack)
            stack[-1] = _perturbed(stack[-1], T.order, rng, 1)[0]
            assert (_search.generator_certificate(S, T, stack)
                    == _full_hom_check(S, T, stack[-1]))
            for _ in range(5):
                img = rng.integers(0, T.order, S.order).astype(np.int32)
                img[0] = 0
                assert (_search.generator_certificate(S, T, img)
                        == _full_hom_check(S, T, img))
    assert homs > 500 and rejected > 500


@pytest.mark.parametrize("bad_gen", [0, 1])
def test_certificate_rejects_map_failing_on_one_generator(bad_gen):
    # V4 = <a, b> -> S3 with a, b sent to non-commuting involutions x, y and
    # ab sent to xy (or yx): multiplicative on one generator, not the other
    V4, S3 = resolve_spec("V4"), resolve_spec("S3")
    a, b = _search.stage_data(V4).gens
    x, y = [int(t) for t in np.flatnonzero(S3.elt_order == 2)[:2]]
    assert S3.mul[x, y] != S3.mul[y, x]
    img = np.zeros(4, dtype=np.int32)
    img[a], img[b] = x, y
    img[V4.mul[a, b]] = S3.mul[y, x] if bad_gen == 0 else S3.mul[x, y]
    good = b if bad_gen == 0 else a
    bad = a if bad_gen == 0 else b
    assert np.array_equal(img[V4.mul[good]], S3.mul[img[good], img])
    assert not np.array_equal(img[V4.mul[bad]], S3.mul[img[bad], img])
    assert not _search.generator_certificate(V4, S3, img)
    assert not _full_hom_check(V4, S3, img)


def _first_generator_crossed_map(aut, f, rng):
    """A map with g(s1 w) = g(s1) f(s1)(g(w)) for every w, random elsewhere.

    g(s1) = c is drawn so that the pair (c, f(s1)) has order dividing that
    of s1; then y -> c f(s1)(y) closes up on every orbit of left
    multiplication by s1, and g is free on one point per orbit.
    """
    G, N = f.source, aut.base
    s1 = _search.stage_data(G).gens[0]
    a = int(f.images[s1])
    m = int(G.elt_order[s1])
    c = int(rng.choice(np.flatnonzero(m % pair_orders(aut, a) == 0)))
    g = np.full(G.order, -1, dtype=np.int32)
    for w in range(G.order):
        if g[w] >= 0:
            continue
        x, y = w, 0 if w == 0 else int(rng.integers(N.order))
        for _ in range(m):
            g[x] = y
            x, y = int(G.mul[s1, x]), int(N.mul[c, aut.perms[a, y]])
    assert np.array_equal(g[G.mul[s1]], N.mul[g[s1], aut.perms[a][g]])
    return g


@pytest.mark.parametrize("g_label,n_label", [("S3", "C6"), ("D4", "Q8")])
def test_crossed_certificate_agrees_with_full_check(g_label, n_label):
    G, N = resolve_spec(g_label), resolve_spec(n_label)
    aut = automorphism_group(N)
    rng = np.random.default_rng(7)
    emitted = rejected = one_gen_rejected = 0
    for f in enumerate_homomorphisms(G, aut.carrier):
        for _ in range(3):
            g = _first_generator_crossed_map(aut, f, rng)
            verdict = _full_crossed_check(aut, f, g)
            assert crossed_relation_holds(aut, f, g) == verdict
            one_gen_rejected += not verdict
        for c in crossed_homomorphisms(aut, f):
            g = np.array(c.g)
            assert _full_crossed_check(aut, f, g)
            assert crossed_relation_holds(aut, f, g)
            emitted += 1
            for bad in _perturbed(g, N.order, rng, 2):
                verdict = _full_crossed_check(aut, f, bad)
                assert crossed_relation_holds(aut, f, bad) == verdict
                rejected += not verdict
        for _ in range(3):
            g = rng.integers(0, N.order, G.order).astype(np.int32)
            g[0] = 0
            assert crossed_relation_holds(aut, f, g) == _full_crossed_check(aut, f, g)
    assert emitted > 0 and rejected > 0 and one_gen_rejected > 0


@pytest.fixture(scope="module")
def pgl29_aut_rows():
    """PGL(2,9) and the 1440 rows of its automorphisms, which span many blocks."""
    G = resolve_spec("PGL(2,9)")
    return G, np.array(automorphism_group(G).perms)


def _rows_per_block(G):
    return max(1, _search.CERTIFICATE_BLOCK // (len(_search.stage_data(G).gens) * G.order))


def test_blocked_certificate_rejects_a_bad_row_anywhere_in_the_stack(pgl29_aut_rows):
    G, perms = pgl29_aut_rows
    per_block = _rows_per_block(G)
    assert len(perms) > 8 * per_block  # the stack spans many blocks
    assert _search.generator_certificate(G, G, perms)
    rng = np.random.default_rng(13)
    # first, middle and last row, and the rows on either side of a block edge
    for row in (0, len(perms) // 2, len(perms) - 1, per_block - 1, per_block,
                5 * per_block - 1, 5 * per_block):
        bad = perms.copy()
        bad[row] = _perturbed(perms[row], G.order, rng, 1)[0]
        assert not _full_hom_check(G, G, bad[row])
        assert not _search.generator_certificate(G, G, bad), row
        assert not _whole_stack_certificate(G, G, bad), row


def test_single_maps_and_one_row_stacks_agree_with_the_references(pgl29_aut_rows):
    G, perms = pgl29_aut_rows
    rng = np.random.default_rng(17)
    rows = perms[rng.choice(len(perms), 6, replace=False)]
    maps = list(rows) + [bad for row in rows for bad in _perturbed(row, G.order, rng, 2)]
    random_map = rng.integers(0, G.order, G.order).astype(np.int32)
    random_map[0] = 0
    verdicts = set()
    for img in maps + [random_map]:
        verdict = _full_hom_check(G, G, img)
        assert _search.generator_certificate(G, G, img) == verdict
        assert _search.generator_certificate(G, G, img[None, :]) == verdict
        assert _whole_stack_certificate(G, G, img) == verdict
        verdicts.add(verdict)
    assert verdicts == {False, True}
    # a stack is accepted exactly when the reference accepts every row
    for stack in (rows, np.stack(maps)):
        assert (_search.generator_certificate(G, G, stack)
                == _whole_stack_certificate(G, G, stack)
                == all(_full_hom_check(G, G, img) for img in stack))


def test_blocked_certificate_bounds_its_memory(pgl29_aut_rows):
    # one broadcast over the whole stack traced a 26.7 MiB peak here
    G, perms = pgl29_aut_rows
    _search.generator_certificate(G, G, perms[:1])  # caches outside the trace
    tracemalloc.start()
    try:
        ok = _search.generator_certificate(G, G, perms)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert ok
    assert peak < 4 * 2**20


# Aut(G) certifies only its carrier's generator rows (``_certified_carrier``);
# these stacks break that certificate or the closure it rests on


@pytest.mark.parametrize("spec", ["S4", "A6", "PGL(2,9)"])
def test_carrier_certificate_rejects_the_left_translations(spec):
    # x -> g x is a group of permutations, closed under composition, but
    # only g = 1 is an automorphism
    G = resolve_spec(spec)
    with pytest.raises(EngineError, match="generator certificate"):
        _certified_carrier(G, RowIndex(G.mul), "L")


@pytest.mark.parametrize("spec", ["A6", "PGL(2,9)"])
def test_carrier_rejects_a_stack_with_a_non_member_row(spec):
    G = resolve_spec(spec)
    aut = automorphism_group(G)
    for row in (1, aut.order // 2, aut.order - 1):
        bad = np.array(aut.perms)
        bad[row, [1, 2]] = bad[row, [2, 1]]  # a permutation fixing 0, not in Aut
        assert aut.index.find(bad[row]) == -1
        with pytest.raises(EngineError) as raised:
            _certified_carrier(G, RowIndex(bad), "bad")
        assert isinstance(raised.value.__cause__, GroupError), row


@pytest.mark.parametrize("spec", ["A6", "S6", "PGL(2,9)", "M10"])
def test_full_stack_certificate_still_passes_on_every_aut_row(spec):
    # the certificate of all rows, kept as a cross-check of the one on
    # the carrier's generator rows
    G = resolve_spec(spec)
    assert _search.generator_certificate(G, G, automorphism_group(G).perms)
