import hashlib

import numpy as np
import pytest

from hgs.catalog import resolve_spec
from hgs.counting import (
    CountResult,
    all_regular_subgroups_of_sym,
    count_brute_force,
    count_byott,
    count_fpf_inner_holomorph,
    count_product_type,
    count_self_type,
    count_sn,
    sn_involution_census,
)
from hgs.cli import main
from hgs.groups import ELEMENT_DTYPE, CapExceededError, GroupError
from hgs.morphisms import enumerate_homomorphisms
from hgs.perms import is_permutation, perm_order
from hgs.screening import classify_group


def test_sn_involution_census_matches_brute_enumeration():
    from itertools import permutations
    for n in (5, 6):
        even = odd = 0
        for perm in permutations(range(n)):
            # order 2: perm is its own inverse and not the identity
            if perm == tuple(range(n)):
                continue
            if all(perm[perm[i]] == i for i in range(n)):
                inversions = sum(1 for i in range(n) for j in range(i + 1, n)
                                 if perm[i] > perm[j])
                if inversions % 2 == 0:
                    even += 1
                else:
                    odd += 1
        assert sn_involution_census(n) == (even, odd)


def test_count_sn_values():
    assert count_sn(5, "Sn").value == 32
    assert count_sn(5, "AnxC2").value == 20
    assert count_sn(6, "Sn").value == 92
    assert count_sn(6, "AnxC2").value == 60
    with pytest.raises(GroupError):
        count_sn(4, "Sn")
    with pytest.raises(GroupError):
        count_sn(5, "bogus")


def test_self_type_formula_s5(S5):
    r = count_self_type(S5, g_label="S5")
    assert r.value == 32
    assert "verified" in r.notes


def test_product_type_formula_s5(S5):
    assert count_product_type(S5).value == 20


@pytest.mark.parametrize("q, self_type, product_type", [
    (5, 32, 20), (7, 44, 56), (9, 92, 72), (11, 112, 132)])
def test_pgl2_formulas_match_dicksons_involution_count(q, self_type, product_type):
    """Dickson: PSL(2,q), q odd, has q(q+1)/2 involutions when q = 1 mod 4
    and q(q-1)/2 when q = 3 mod 4, and PGL(2,q) has q^2 in all.  So with i
    the socle's involutions, e(G, G) = 2 + 2i and e(G, PSL(2,q) x C2) =
    2(q^2 - i)."""
    i = q * (q + 1) // 2 if q % 4 == 1 else q * (q - 1) // 2
    assert (2 + 2 * i, 2 * (q * q - i)) == (self_type, product_type)
    G = resolve_spec(f"PGL(2,{q})")
    r = count_self_type(G)
    assert (r.value, r.notes) == (self_type, "inner-uniqueness verified")
    assert count_product_type(G).value == product_type


def test_pgl27_values_by_the_holomorph_and_fpf_routes():
    G, N = resolve_spec("PGL(2,7)"), resolve_spec("AxCp(PSL(2,7),2)")
    assert count_byott(G, G).value == 44
    assert count_byott(G, N).value == 56
    assert count_fpf_inner_holomorph(G, N).value == 56


def test_formulas_reject_wrong_shape():
    with pytest.raises(GroupError):
        count_self_type(resolve_spec("A5"))
    with pytest.raises(GroupError):
        count_product_type(resolve_spec("C8"))


def test_byott_small_fixtures():
    C4, V4 = resolve_spec("C4"), resolve_spec("V4")
    assert count_byott(C4, V4).value == 1
    assert count_byott(V4, C4).value == 3
    assert count_byott(C4, C4).value == 1
    assert count_byott(V4, V4).value == 1


def test_byott_rejects_mismatched_orders():
    with pytest.raises(GroupError):
        count_byott(resolve_spec("C4"), resolve_spec("C6"))


def test_fpf_route_s5(S5, A5xC2):
    r = count_fpf_inner_holomorph(S5, A5xC2)
    assert r.value == 20
    assert "e1=120" in r.notes and "e2=10" in r.notes


def _fpf_factors_by_kernel_filter(G, N):
    """e1 and e2 from the whole of Hom(N, G), each map kept by its kernel
    after the search: the cyclic factor for e1, the simple factor with the
    cyclic generator sent outside the socle for e2."""
    cls_g, cls_n = classify_group(G), classify_group(N)
    c_members, a_members = cls_n.cyclic_factor.members, cls_n.socle.members
    eps = int(c_members[1])
    socle_mask = cls_g.socle.member_mask()
    e1 = e2 = 0
    for h in enumerate_homomorphisms(N, G):
        ker = np.flatnonzero(h.images == 0)
        if np.array_equal(ker, c_members):
            e1 += 1
        elif np.array_equal(ker, a_members) and not socle_mask[h(eps)]:
            e2 += 1
    return e1, e2


@pytest.mark.parametrize("g, n, e1, e2", [
    ("S5", "AxCp(A5,2)", 120, 10),
    ("S6", "AxCp(A6,2)", 1440, 30),
    ("PGL(2,9)", "AxCp(A6,2)", 1440, 36),
    ("M10", "AxCp(A6,2)", 1440, 0),
], ids=["S5", "S6", "PGL(2,9)", "M10"])
def test_fpf_factors_equal_the_kernel_filtered_hom_search(g, n, e1, e2):
    G, N = resolve_spec(g), resolve_spec(n)
    assert _fpf_factors_by_kernel_filter(G, N) == (e1, e2)
    assert count_fpf_inner_holomorph(G, N).notes == f"e1={e1} e2={e2}"


def test_fpf_rejects_wrong_type_shape(S5):
    with pytest.raises(GroupError, match="shape"):
        count_fpf_inner_holomorph(S5, resolve_spec("C120"))


def test_regular_subgroup_counts_of_sym_n():
    # n! / (n |Aut(H)|) regular copies per isomorphism type
    assert len(all_regular_subgroups_of_sym(1)) == 1    # the trivial group
    assert len(all_regular_subgroups_of_sym(4)) == 4    # 3 C4 + 1 V4
    assert len(all_regular_subgroups_of_sym(6)) == 80   # 60 C6 + 20 S3
    subs8 = all_regular_subgroups_of_sym(8)
    # 1260 C8 + 630 C4xC2 + 30 C2^3 + 630 D4 + 210 Q8
    assert len(subs8) == 2760


# sha256 prefixes over the concatenated member bytes, as the previous
# (worklist) enumerator produced them: same arrays, same order.  The bytes
# are those of 32-bit entries, the width the digests were taken at, so the
# pins do not move with the element dtype
SYM_N_DIGESTS = {4: "fce28686cecf3d16", 6: "8c9585a760fd4e90", 8: "fc6df56ff236e1a1"}

# element-order census -> (type, (n-1)!/|Aut(type)|); the census tells
# every type of order 4, 6 and 8 apart
SYM_N_TYPES = {
    4: {(1, 2, 4, 4): ("C4", 3), (1, 2, 2, 2): ("V4", 1)},
    6: {(1, 2, 3, 3, 6, 6): ("C6", 60), (1, 2, 2, 2, 3, 3): ("S3", 20)},
    8: {(1, 2, 4, 4, 8, 8, 8, 8): ("C8", 1260),
        (1, 2, 2, 2, 4, 4, 4, 4): ("C4xC2", 630),
        (1, 2, 2, 2, 2, 2, 2, 2): ("C2^3", 30),
        (1, 2, 2, 2, 2, 2, 4, 4): ("D4", 630),
        (1, 2, 4, 4, 4, 4, 4, 4): ("Q8", 210)},
}


@pytest.mark.parametrize("n", [4, 6, 8])
def test_sym_n_regular_subgroups_are_pinned(n):
    subs = all_regular_subgroups_of_sym(n)
    assert all(m.dtype == ELEMENT_DTYPE for m in subs)
    digest = hashlib.sha256(b"".join(m.astype("<i4").tobytes() for m in subs)).hexdigest()
    assert digest[:16] == SYM_N_DIGESTS[n]


@pytest.mark.parametrize("n", [4, 6, 8])
def test_sym_n_regular_subgroups_are_distinct_regular_groups(n):
    subs = all_regular_subgroups_of_sym(n)
    assert len({m.tobytes() for m in subs}) == len(subs)
    census = {}
    for m in subs:
        rows = {r.tobytes() for r in m}
        assert m.shape == (n, n) and len(rows) == n
        assert all(is_permutation(r) for r in m)
        assert sorted(m[:, 0]) == list(range(n))                    # regular
        assert all(r.tobytes() in rows for r in m[:, m].reshape(-1, n))  # closed
        key = tuple(sorted(perm_order(r) for r in m))
        census[key] = census.get(key, 0) + 1
    assert census == {k: count for k, (_, count) in SYM_N_TYPES[n].items()}


def test_sym_n_oracle_result_cannot_corrupt_its_cache(small_catalog):
    subs = all_regular_subgroups_of_sym(4)
    with pytest.raises(AttributeError):
        subs.clear()
    with pytest.raises(ValueError):
        subs[0][0, 0] = 3
    assert all_regular_subgroups_of_sym(4) is subs and len(subs) == 4
    assert subs[0][0, 0] == 0
    res = count_brute_force(small_catalog["C4"], small_catalog)
    assert res.counts == {"C4": 1, "V4": 1}


def test_brute_force_fixtures(small_catalog):
    res = count_brute_force(small_catalog["C4"], small_catalog)
    assert res.counts == {"C4": 1, "V4": 1}
    res = count_brute_force(small_catalog["V4"], small_catalog)
    assert res.counts == {"V4": 1, "C4": 3}


def test_brute_force_respects_cap():
    with pytest.raises(CapExceededError):
        count_brute_force(resolve_spec("C16"))


def test_order_9_flag_still_caps_order_16():
    # the flag reaches order 9; order 10 is refused before any search starts
    for spec in ("C16", "C10"):
        with pytest.raises(CapExceededError, match="capped at order 9"):
            count_brute_force(resolve_spec(spec), allow_order_9=True)
        assert main(["count", "-G", spec, "-N", spec, "--method", "brute",
                     "--allow-order-9"]) == 3


def test_brute_force_agrees_with_byott_order_six(small_catalog):
    types = {k: v for k, v in small_catalog.items() if v.order == 6}
    for gl, G in types.items():
        brute = count_brute_force(G, types, g_label=gl)
        for nl, N in types.items():
            assert brute.counts.get(nl, 0) == count_byott(G, N).value


def test_count_result_row_and_dict():
    r = CountResult("S5", "A5xC2", "byott", 20, 1234, notes="x")
    row = r.row()
    assert "S5" in row and "20" in row and "byott" in row
    d = r.to_dict()
    assert d["value"] == 20 and d["method"] == "byott"
    assert set(d) == {"G", "N", "method", "value", "runtime_ms", "notes"}
