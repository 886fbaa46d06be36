import hashlib
import math
import tracemalloc

import numpy as np
import pytest

from hgs import _search
from hgs.catalog import catalog_aut6_tower, cyclic, resolve_spec
from hgs.groups import (
    CapExceededError,
    FiniteGroup,
    GroupError,
    conjugation_rows,
    direct_product,
    fingerprint,
)
from hgs.morphisms import (
    Homomorphism,
    _iso_candidates,
    _isomorphisms,
    _sorted_stack,
    are_isomorphic,
    automorphism_group,
    count_injective_homomorphisms,
    enumerate_homomorphisms,
    fixed_points,
)

from test_screening import ORDER_120
from test_structure_kernels import _table_by_rows, _relabel


def test_homomorphism_rejects_non_multiplicative(S5):
    images = np.zeros(120, dtype=np.int32)
    images[1] = 1
    with pytest.raises(GroupError):
        Homomorphism(S5, S5, images)


def test_table_cap_applies_to_inputs_not_to_aut_carriers(monkeypatch):
    monkeypatch.setenv("HGS_MAX_TABLE", "100")
    C2 = cyclic(2)
    G = direct_product(direct_product(C2, C2), C2)  # built afresh, so under the cap
    carrier = automorphism_group(G).carrier  # GL(3,2)
    assert carrier.order == 168
    with pytest.raises(CapExceededError):
        FiniteGroup(carrier.mul)
    with pytest.raises(CapExceededError):
        automorphism_group(carrier)


def test_aut_a5_is_s5(A5):
    aut = automorphism_group(A5)
    assert aut.order == 120
    assert aut.inner.size == 60
    assert aut.order // aut.inner.size == 2
    assert are_isomorphic(aut.carrier, resolve_spec("S5")) is not None


def test_aut_a6_has_order_1440(A6):
    aut = automorphism_group(A6)
    assert aut.order == 1440
    assert aut.inner.size == 360
    assert aut.order // aut.inner.size == 4


def test_aut_orders_match_closed_forms():
    def phi(n):
        return sum(math.gcd(k, n) == 1 for k in range(1, n + 1))

    for n in range(1, 41):
        assert automorphism_group(resolve_spec(f"C{n}")).order == phi(n), n
    for n in range(3, 31):
        assert automorphism_group(resolve_spec(f"D{n}")).order == n * phi(n), n
    for spec, order in [("S3", 6), ("S4", 24), ("S5", 120), ("A4", 24), ("A5", 120),
                        ("S6", 1440), ("A6", 1440)]:
        assert automorphism_group(resolve_spec(spec)).order == order, spec


def test_aut_action_is_faithful(A5):
    aut = automorphism_group(A5)
    keys = {row.tobytes() for row in aut.perms}
    assert len(keys) == aut.order


def test_aut_carrier_multiplication_is_composition(A5):
    aut = automorphism_group(A5)
    rng = np.random.default_rng(11)
    for _ in range(25):
        a, b = rng.integers(0, aut.order, 2)
        composed = aut.perms[a][aut.perms[b]]
        c = int(aut.carrier.mul[a, b])
        assert np.array_equal(aut.perms[c], composed)


def test_hom_c2_to_c3_only_trivial():
    C2 = resolve_spec("C2")
    C3 = resolve_spec("C3")
    homs = list(enumerate_homomorphisms(C2, C3))
    assert len(homs) == 1
    assert homs[0].images.tolist() == [0, 0]


def test_hom_a5_to_c2_only_trivial(A5):
    homs = list(enumerate_homomorphisms(A5, resolve_spec("C2")))
    assert len(homs) == 1


def test_hom_s3_to_s3_count():
    S3 = resolve_spec("S3")
    homs = list(enumerate_homomorphisms(S3, S3))
    # trivial + 3 sign-like maps onto each order-2 subgroup + 6 automorphisms
    assert len(homs) == 10
    assert len([h for h in homs if h.is_injective()]) == 6


def test_hom_enumeration_is_deterministic():
    S3 = resolve_spec("S3")
    first = [h.images.tolist() for h in enumerate_homomorphisms(S3, S3)]
    second = [h.images.tolist() for h in enumerate_homomorphisms(S3, S3)]
    assert first == second


def test_fixed_points_diagonal(A5):
    aut = automorphism_group(A5)
    ident = Homomorphism(A5, A5, aut.perms[0])
    assert len(fixed_points(ident, ident)) == 60  # so not fixed point free


def test_fixed_points_of_inner_automorphism(A5):
    aut = automorphism_group(A5)
    five = int(np.flatnonzero(A5.elt_order == 5)[0])
    conj_perm = A5.mul[A5.mul[five, np.arange(60)], A5.inv[five]]
    idx = int(aut.index.find(conj_perm))
    fp = fixed_points(Homomorphism(A5, A5, aut.perms[idx]),
                      Homomorphism(A5, A5, aut.perms[0]))
    assert len(fp) == 5  # centralizer of a 5-cycle in A5


def test_fixed_points_requires_shared_endpoints(A5, S5):
    aut = automorphism_group(A5)
    with pytest.raises(GroupError):
        fixed_points(Homomorphism(A5, A5, aut.perms[0]),
                     Homomorphism(S5, S5, np.arange(120)))


def test_are_isomorphic_rejects_c4_v4():
    assert are_isomorphic(resolve_spec("C4"), resolve_spec("V4")) is None


def test_are_isomorphic_reflexive_and_symmetric(small_catalog):
    for label, G in small_catalog.items():
        iso = are_isomorphic(G, G)
        assert iso is not None and iso.is_injective()
    assert are_isomorphic(small_catalog["D4"], small_catalog["Q8"]) is None
    assert are_isomorphic(small_catalog["Q8"], small_catalog["D4"]) is None


def test_pgl29_not_isomorphic_to_s6():
    PGL = resolve_spec("PGL(2,9)")
    S6 = resolve_spec("S6")
    assert PGL.order == S6.order == 720
    # PGL(2,9) has elements of order 8, S6 does not
    assert (PGL.elt_order == 8).any()
    assert not (S6.elt_order == 8).any()
    assert are_isomorphic(PGL, S6) is None


def test_isomorphism_images_are_verified(A5):
    iso = are_isomorphic(A5, resolve_spec("PSL(2,4)"))
    assert iso is not None
    img = iso.images
    T = iso.target
    assert np.array_equal(img[A5.mul], T.mul[img][:, img])
    # symmetry: the reverse direction succeeds too
    assert are_isomorphic(resolve_spec("PSL(2,4)"), A5) is not None


def _isomorphic_by_uncut_search(G, H):
    """Reference: the isomorphism search over every candidate image, with
    no cut by classes or centralizer orbits."""
    if G.order != H.order or fingerprint(G) != fingerprint(H):
        return False
    candidates = _iso_candidates(G, H)
    if candidates is None:
        return False
    found = _search.iter_hom_images(G, H, candidates, bijective=True)
    return next(found, None) is not None


ORDER_720 = ("S6", "PGL(2,9)", "M10", "SL(2,9)", "AxCp(A6,2)", "C720")


def _iso_pairs(small):
    """Every same-order pair of the small grid; S5 and A5 x C2 against the
    order-120 catalog; every pair of the order-720 catalog groups, the
    Aut(A6) tower's three groups and a relabelled copy of each."""
    pairs = [(G, H) for G in small for H in small if G.order == H.order]
    pairs += [(resolve_spec(g), resolve_spec(h))
              for g in ("S5", "AxCp(A5,2)") for h in ORDER_120]
    big = [resolve_spec(label) for label in ORDER_720]
    tower = catalog_aut6_tower()
    big += [tower["S6"], tower["PGL(2,9)"]]  # the catalog's M10 is the tower's
    big += [_relabel(G, seed) for seed, G in enumerate(big[:3] + big[-2:], start=1)]
    pairs += [(G, H) for G in big for H in big]
    return pairs


def test_cut_isomorphism_search_agrees_with_the_uncut_one(small_catalog):
    found = [(are_isomorphic(G, H) is not None, _isomorphic_by_uncut_search(G, H))
             for G, H in _iso_pairs(list(small_catalog.values()))]
    assert all(cut == uncut for cut, uncut in found)
    # each group with itself on the small grid and at order 120; at order
    # 720, the pairs inside each class of four S6, four PGL(2,9) and two
    # M10, and SL(2,9), A6 x C2 and C720 each with itself
    assert sum(cut for cut, _ in found) == 9 + 2 + 16 + 16 + 4 + 3


# catalog atoms up to order 168 (C_n and D_n sampled), the product
# groups of the verify suites, and three order-360/720 groups
AUT_GRID = [
    "C1", "C2", "C3", "C4", "C5", "C6", "C7", "C8", "C9", "C10", "C12", "C16",
    "C30", "C60", "C168", "D3", "D4", "D5", "D6", "D7", "D8", "D10", "D12", "D15",
    "D21", "V4", "Q8", "S3", "S4", "S5", "A4", "A5", "SL(2,2)", "SL(2,3)",
    "SL(2,4)", "SL(2,5)", "PSL(2,2)", "PSL(2,3)", "PSL(2,4)", "PSL(2,5)",
    "PSL(2,7)", "PGL(2,2)", "PGL(2,3)", "PGL(2,4)", "PGL(2,5)", "C4xC2",
    "C2xC2xC2", "C3xC3", "AxCp(A5,2)", "AxCp(S4,2)", "A6", "S6", "AxCp(A6,2)",
]


def _exhaustive_aut(G):
    """Aut(G) by the plain staged search over every candidate image."""
    found = list(_search.iter_hom_images(G, G, _iso_candidates(G, G), bijective=True))
    ident = list(range(G.order))
    rows = sorted((p.tolist() for p in found), key=lambda r: (r != ident, r))
    perms = np.array(rows, dtype=np.int32)
    assert _search.generator_certificate(G, G, perms)
    index = {tuple(p): i for i, p in enumerate(perms.tolist())}
    inner = sorted({index[tuple(G.mul[G.mul[g], G.inv[g]].tolist())]
                    for g in range(G.order)})
    return perms, inner


@pytest.mark.parametrize("spec", AUT_GRID)
def test_inn_reduced_aut_equals_exhaustive_search(spec):
    G = resolve_spec(spec)
    aut = automorphism_group(G)
    perms, inner = _exhaustive_aut(G)
    assert np.array_equal(aut.perms, perms)
    assert np.array_equal(aut.carrier.mul, _table_by_rows(perms))
    assert aut.inner.members.tolist() == inner
    assert aut.index.find(perms).tolist() == list(range(len(perms)))


@pytest.mark.parametrize("s, t", [
    ("C1", "S3"), ("C2", "V4"), ("C4", "D4"), ("V4", "S4"), ("S3", "S4"),
    ("Q8", "SL(2,3)"), ("C6", "AxCp(A5,2)"), ("A4", "S5"), ("A5", "S5"),
])
def test_injective_count_equals_the_filtered_hom_search(s, t):
    S, T = resolve_spec(s), resolve_spec(t)
    want = sum(f.is_injective() for f in enumerate_homomorphisms(S, T))
    assert count_injective_homomorphisms(S, T) == want


@pytest.mark.parametrize("spec, out_order", [
    ("A5", 2), ("S5", 1), ("A6", 4), ("S6", 2), ("PGL(2,9)", 2), ("M10", 2),
])
def test_aut_search_emits_one_map_per_outer_class(spec, out_order, monkeypatch):
    # each branch fixes g1 -> r and one g2 image per C_G(r)-orbit, so two
    # maps of one branch in one Inn(G)-coset differ by conjugation with an
    # element that centralizes both images; in these groups only 1 does,
    # so the search emits one map per coset
    G = resolve_spec(spec)
    G = FiniteGroup(G.mul, gens=G.gens, validate=False)  # nothing cached
    emitted = []
    search = _search.iter_hom_images

    def counted(*args, **kwargs):
        for img in search(*args, **kwargs):
            emitted.append(img)
            yield img

    monkeypatch.setattr(_search, "iter_hom_images", counted)
    aut = automorphism_group(G)
    assert aut.order // aut.inner.size == out_order
    assert len(emitted) == out_order


@pytest.mark.parametrize("spec,digest", [
    ("PGL(2,9)", "0b9cdf2263b3595a086b8f12cd56f4fcee3f8326a608b07eb62e5eccca08a2ae"),
    ("M10", "742f7132084b6daa8648e5b3c3e4d8b87126aaedbc12206f8acf47ab505908e8"),
    ("SL(2,9)", "361653dc9fe39b2d10c7dfc8da203d63dcbf94fb5a97ba570d572112a5482f2e"),
])
def test_aut_perms_pinned_at_order_720(spec, digest):
    # every f: G -> Aut(N) holds carrier indices, so Hom emission order and
    # the orbit representatives depend on them; pinned from the exhaustive
    # search that preceded the Inn(G) reduction, hashed as 32-bit entries
    aut = automorphism_group(resolve_spec(spec))
    assert aut.order == 1440
    assert hashlib.sha256(aut.perms.astype("<i4").tobytes()).hexdigest() == digest


def _lexsorted(rows):
    return rows[np.lexsort(rows.T[::-1])]


@pytest.mark.parametrize("spec", ["PGL(2,9)", "S6", "M10", "SL(2,9)",
                                  "A6", "C720", "C2xC2xC2"])
def test_prefix_ordered_stack_equals_the_whole_row_lexsort(spec):
    # the inner rows shuffled, and one coset representative of each outer
    # class; a repeated representative makes rows tie over their whole width.
    # The shapes differ: A6 has k = 4 representatives, C720 a single inner
    # row and k = 192, C2xC2xC2 k = 168 rows of width 8.  A gather that
    # loops over the representatives stacks the same rows but is many times
    # slower on the last two, so the block gather is pinned on all of them
    G = resolve_spec(spec)
    aut = automorphism_group(G)
    inner = aut.perms[aut.inner.members]
    inn = inner[np.random.default_rng(7).permutation(len(inner))]
    covered, reps = np.zeros(aut.order, dtype=bool), []
    for x in range(aut.order):
        if not covered[x]:
            reps.append(x)
            covered[aut.carrier.mul[aut.inner.members, x]] = True
    reps = aut.perms[reps]
    full = inn[:, reps].reshape(-1, G.order)
    assert np.array_equal(_sorted_stack(inn, reps), _lexsorted(full))
    assert np.array_equal(_lexsorted(full), aut.perms)
    twice = np.concatenate([reps, reps[-1:]])
    full = inn[:, twice].reshape(-1, G.order)
    assert np.array_equal(_sorted_stack(inn, twice), _lexsorted(full))


def _prefixes_tie(perms, width):
    return bool((perms[1:, :width] == perms[:-1, :width]).all(axis=1).any())


def test_prefix_width_grows_only_where_leading_columns_tie():
    # the catalog labelling of PGL(2,9) needs more than 8 leading columns
    # to tell its automorphisms apart; renumbered copies need 4
    G = resolve_spec("PGL(2,9)")
    assert _prefixes_tie(automorphism_group(G).perms, 8)
    for spec in ("PGL(2,9)", "S6", "M10"):
        for seed in (1, 2, 3):
            H = _relabel(resolve_spec(spec), seed)
            assert not _prefixes_tie(automorphism_group(H).perms, 4), (spec, seed)


def test_aut_build_holds_its_result_and_about_a_megabyte_more():
    # the unsorted stack, its whole-row sort keys and the inner table held
    # through the carrier build once took the peak 1.9 MB past the result
    G0 = resolve_spec("PGL(2,9)")
    G = FiniteGroup(G0.mul, gens=G0.gens, validate=False)  # nothing cached
    tracemalloc.start()
    try:
        aut = automorphism_group(G)
        kept, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert kept >= aut.perms.nbytes + aut.carrier.mul.nbytes
    assert peak - kept <= 1.2 * 2 ** 20


@pytest.mark.parametrize("spec", ["V4", "C4xC2", "C2xC2xC2", "C3xC3", "C6"])
def test_abelian_plain_search_emits_what_the_branches_would(spec):
    # with singleton classes and orbits, the branch of each first image r
    # searches the whole candidate lists, so the branches in turn emit the
    # plain search's maps in its order
    G = resolve_spec(spec)
    candidates = _iso_candidates(G, G)
    branched = [img.tolist() for r in candidates[0]
                for img in _search.iter_hom_images(G, G, [[r], *candidates[1:]],
                                                   bijective=True)]
    assert [img.tolist() for img in _isomorphisms(G, G)] == branched
    assert len(branched) == automorphism_group(G).order
