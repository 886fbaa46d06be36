import hashlib

import numpy as np
import pytest

from hgs.catalog import resolve_spec
from hgs.groups import GroupError, center, normal_subgroups
from hgs.holomorph import (
    build_holomorph,
    crossed_homomorphisms,
    derive_h,
    dual_regular_subgroup,
    holomorph_equals_translation_normalizers,
    induce_on_quotient,
    is_characteristic,
    lambda_perms,
    normalized_by,
    regular_subgroups_in_holomorph,
    rho_perms,
)
from hgs.morphisms import (
    Homomorphism,
    automorphism_group,
    enumerate_homomorphisms,
    fixed_points,
)


def _trivial_f(G, hol):
    return Homomorphism(G, hol.aut.carrier, np.zeros(G.order, dtype=np.int32))


def test_holomorph_orders():
    assert build_holomorph(resolve_spec("C4")).order == 8
    assert build_holomorph(resolve_spec("V4")).order == 24
    assert build_holomorph(resolve_spec("A5")).order == 7200


def test_holomorph_action_is_faithful_and_matches_pairs():
    G = resolve_spec("S3")
    hol = build_holomorph(G)
    perms = hol.all_pair_perms()
    assert len({row.tobytes() for row in perms}) == hol.order
    # pair action composes like pair multiplication
    p, q = (2, 1), (4, 3)
    left = hol.pair_perm(hol.pair_mul(p, q))
    right = hol.pair_perm(p)[hol.pair_perm(q)]
    assert np.array_equal(left, right)


@pytest.mark.parametrize("label", ["C6", "S3", "D4", "Q8", "C2xC2xC2"])
def test_pair_orders_match_pair_multiplication(label):
    hol = build_holomorph(resolve_spec(label))
    for a in range(hol.aut.order):
        expected = []
        for x in range(hol.base.order):
            q, k = (x, a), 1
            while q != (0, 0):
                q = hol.pair_mul(q, (x, a))
                k += 1
            expected.append(k)
        assert hol.pair_orders(a).tolist() == expected


def test_lambda_rho_pairs_act_as_translations():
    # left translation by g is the pair (g^-1, conj(g)), right translation by
    # g^-1 the pair (g, 1)
    G = resolve_spec("S3")
    hol = build_holomorph(G)
    for g in range(6):
        conj = int(hol.aut.index.find(G.mul[G.mul[g], G.inv[g]]))
        assert np.array_equal(hol.pair_perm((G.inv[g], conj)), lambda_perms(G, [g])[0])
        assert np.array_equal(hol.pair_perm((g, 0)), rho_perms(G, [g])[0])


def test_lambda_rho_centralize_each_other():
    G = resolve_spec("S3")
    lam, rho = lambda_perms(G), rho_perms(G)
    for a in lam:
        for b in rho:
            assert np.array_equal(a[b], b[a])


def test_normalizer_identity_small_groups():
    for label in ("C2", "C4", "V4", "C6", "S3"):
        assert holomorph_equals_translation_normalizers(resolve_spec(label))


def test_normalizer_identity_capped():
    with pytest.raises(GroupError, match="capped"):
        holomorph_equals_translation_normalizers(resolve_spec("C8"))


def test_trivial_f_crossed_homs_are_homomorphisms():
    C4 = resolve_spec("C4")
    hol = build_holomorph(C4)
    f = _trivial_f(C4, hol)
    # with trivial f the crossed relation is plain multiplicativity, and the
    # bijective maps are the two automorphisms
    assert [c.g.tolist() for c in crossed_homomorphisms(hol, f)] == \
        [[0, 1, 2, 3], [0, 3, 2, 1]]


def test_no_bijective_crossed_hom_c4_to_v4():
    V4 = resolve_spec("V4")
    C4 = resolve_spec("C4")
    hol = build_holomorph(V4)
    f = _trivial_f(C4, hol)
    assert list(crossed_homomorphisms(hol, f)) == []


# |Aut(N)| for the isomorphic pairs below; the others have no isomorphism
ISOMORPHISMS = {("C4", "C4"): 2, ("S3", "S3"): 6, ("Q8", "Q8"): 24, ("D4", "D4"): 8}


@pytest.mark.parametrize("g_label,n_label", [
    ("C4", "C4"), ("V4", "C4"), ("S3", "C6"), ("C6", "S3"), ("S3", "S3"),
    ("D4", "Q8"), ("Q8", "D4"), ("C4xC2", "D4"), ("Q8", "Q8"), ("D4", "D4"),
])
def test_trivial_f_crossed_homs_are_hom_enumeration(g_label, n_label):
    # for the trivial f the crossed homs are the isomorphisms G -> N, found
    # in the order of the Hom search
    G, N = resolve_spec(g_label), resolve_spec(n_label)
    hol = build_holomorph(N)
    crossed = [c.g.tolist() for c in crossed_homomorphisms(hol, _trivial_f(G, hol))]
    homs = [h.images.tolist() for h in enumerate_homomorphisms(G, N) if h.is_injective()]
    assert crossed == homs
    assert len(crossed) == ISOMORPHISMS.get((g_label, n_label), 0)


def test_crossed_homs_need_equal_orders():
    G, N = resolve_spec("C6"), resolve_spec("C2")
    hol = build_holomorph(N)
    with pytest.raises(GroupError, match="need \\|G\\| = \\|N\\|"):
        next(crossed_homomorphisms(hol, _trivial_f(G, hol)))


def _crossed_sequence_digest(G, N):
    """sha256 over every emitted (f, g), all f's.

    Index arrays are hashed as 32-bit entries, the width the pins were
    taken at, so the pins do not move with the element dtype."""
    hol = build_holomorph(N)
    h = hashlib.sha256()
    count = 0
    for f in enumerate_homomorphisms(G, hol.aut.carrier):
        for c in crossed_homomorphisms(hol, f):
            h.update(c.f.images.astype("<i4").tobytes())
            h.update(c.g.astype("<i4").tobytes())
            count += 1
        h.update(b"|")
    return h.hexdigest(), count


@pytest.mark.parametrize("g_label,n_label,digest,count", [
    ("S3", "C6", "4a0d8836c8576db7bc6443ae2f9a6cd77a13dc9d0fe15dbd5a715824474774b1", 6),
    ("D4", "Q8", "8f4360db7a61061275d3511b810e5e2ae9fe83a48265e4c60b36ac7d4d6f7ec5", 48),
])
def test_crossed_emission_order_is_pinned(g_label, n_label, digest, count):
    # a collecting run keeps the first crossed hom it meets for each subgroup,
    # so its samples depend on this order
    G, N = resolve_spec(g_label), resolve_spec(n_label)
    assert _crossed_sequence_digest(G, N) == (digest, count)


def test_crossed_relation_verified_on_all_pairs(S5, A5xC2):
    hol = build_holomorph(A5xC2)
    f_list = list(enumerate_homomorphisms(S5, hol.aut.carrier))
    seen = 0
    for f in f_list:
        for c in crossed_homomorphisms(hol, f):
            assert c.verify()
            seen += 1
            if seen >= 50:
                return
    assert seen > 0


def test_derive_h_properties(S5, A5xC2):
    hol = build_holomorph(A5xC2)
    ZN = center(A5xC2)
    f_list = list(enumerate_homomorphisms(S5, hol.aut.carrier))
    checked = 0
    for f in f_list:
        for c in crossed_homomorphisms(hol, f):
            h = derive_h(c)  # construction fails if not a homomorphism
            fp = fixed_points(c.f, h)
            assert np.array_equal(fp, np.flatnonzero(np.isin(c.g, ZN.members)))
            checked += 1
            if checked >= 20:
                return
    assert checked > 0


def test_derive_h_trivial_f_identity_g():
    # with f trivial and g the identity map, h is conjugation; kernel = Z(N)
    Q8 = resolve_spec("Q8")
    hol = build_holomorph(Q8)
    f = _trivial_f(Q8, hol)
    from hgs.holomorph import CrossedHom
    c = CrossedHom(hol, f, np.arange(8, dtype=np.int32))
    assert c.verify()
    h = derive_h(c)
    assert h.kernel().size == center(Q8).size == 2


def test_induce_on_quotient_characteristic_only(A5xC2):
    hol = build_holomorph(A5xC2)
    f = _trivial_f(A5xC2, hol)
    c = next(crossed_homomorphisms(hol, f))
    subs = normal_subgroups(A5xC2)
    a5 = [s for s in subs if s.size == 60][0]
    c2 = [s for s in subs if s.size == 2][0]
    assert is_characteristic(hol.aut, a5)
    assert is_characteristic(hol.aut, c2)
    induced, pre = induce_on_quotient(c, a5)
    assert induced.source.order == 120 and induced.hol.base.order == 2
    assert pre.size == 60


def test_induce_on_trivial_and_full_subgroup(A5xC2):
    from hgs.groups import Subgroup, subgroup_closure
    hol = build_holomorph(A5xC2)
    f = _trivial_f(A5xC2, hol)
    c = next(crossed_homomorphisms(hol, f))
    ind, pre = induce_on_quotient(c, subgroup_closure(A5xC2, []))
    assert np.array_equal(ind.g, c.g)
    assert pre.size == 1
    ind2, pre2 = induce_on_quotient(c, Subgroup(A5xC2, np.arange(A5xC2.order)))
    assert ind2.hol.base.order == 1
    assert pre2.size == 120


def test_induce_on_quotient_builds_each_quotient_once(monkeypatch):
    from hgs import holomorph
    from hgs.groups import FiniteGroup
    N = FiniteGroup(resolve_spec("S3").mul.copy(), name="S3")  # fresh caches
    hol = build_holomorph(N)
    A3 = [s for s in normal_subgroups(N) if s.size == 3][0]
    real = holomorph.quotient_group
    built = []
    monkeypatch.setattr(holomorph, "quotient_group",
                        lambda *args, **kw: built.append(real(*args, **kw)) or built[-1])
    pairs = [c for f in enumerate_homomorphisms(N, hol.aut.carrier)
             for c in crossed_homomorphisms(hol, f)]
    induced = [induce_on_quotient(c, A3)[0] for c in pairs]
    assert len(induced) == 12 and len(built) == 1
    Q, coset_of = built[0]
    reps = np.empty(Q.order, dtype=np.int64)
    reps[coset_of] = np.arange(N.order)
    for c, ind in zip(pairs, induced):
        assert ind.hol is build_holomorph(Q)
        on_q = coset_of[hol.aut.perms[c.f.images][:, reps]]  # f(d) acting on Q
        assert np.array_equal(ind.hol.aut.perms[ind.f.images], on_q)
        assert np.array_equal(ind.g, coset_of[c.g])


def test_induce_rejects_non_characteristic():
    # the three order-2 subgroups of V4 are normal but not characteristic
    V4 = resolve_spec("V4")
    hol = build_holomorph(V4)
    f = _trivial_f(V4, hol)
    c = next(crossed_homomorphisms(hol, f))
    from hgs.groups import Subgroup
    sub = Subgroup(V4, np.array([0, 1], dtype=np.int64))
    with pytest.raises(GroupError, match="characteristic"):
        induce_on_quotient(c, sub)


def test_regular_counts_v4_c4_fixtures():
    V4, C4 = resolve_spec("V4"), resolve_spec("C4")
    r = regular_subgroups_in_holomorph(V4, C4, collect_subgroups=True)
    assert (r.pair_count, r.subgroup_count) == (6, 3)
    r2 = regular_subgroups_in_holomorph(C4, V4, collect_subgroups=True)
    assert (r2.pair_count, r2.subgroup_count) == (6, 1)


def test_regular_subgroup_members_are_regular():
    V4, C4 = resolve_spec("V4"), resolve_spec("C4")
    r = regular_subgroups_in_holomorph(V4, C4, collect_subgroups=True)
    for D in r.samples:
        evals = D.members[:, 0]
        assert len(np.unique(evals)) == 4
        H = D.as_group()
        assert H.order == 4 and H.elt_order.max() == 4  # cyclic


def test_dual_of_lambda_is_rho():
    G = resolve_spec("S3")
    from hgs.holomorph import RegularSubgroup
    lam = RegularSubgroup(G, lambda_perms(G))
    dual = dual_regular_subgroup(lam)
    assert dual.key() == RegularSubgroup(G, rho_perms(G)).key()


def test_double_dual_and_abelian_self_dual():
    G = resolve_spec("C6")
    from hgs.holomorph import RegularSubgroup
    lam = RegularSubgroup(G, lambda_perms(G))
    dual = dual_regular_subgroup(lam)
    assert dual.key() == lam.key()  # abelian: self-dual
    assert dual_regular_subgroup(dual).key() == lam.key()


def test_normalized_by_lambda_self():
    G = resolve_spec("S3")
    from hgs.holomorph import RegularSubgroup
    lam = RegularSubgroup(G, lambda_perms(G))
    assert normalized_by(lam, lambda_perms(G, G.gens))


def test_pair_count_divisible_by_aut_g(S5, A5xC2):
    r = regular_subgroups_in_holomorph(A5xC2, S5)
    assert r.pair_count == 2400
    assert r.pair_count % automorphism_group(S5).order == 0
