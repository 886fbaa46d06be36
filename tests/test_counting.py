import hashlib

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
from hgs.groups import CapExceededError, GroupError
from hgs.perms import is_permutation, perm_order


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
# (worklist) enumerator produced them: same arrays, same order
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
    digest = hashlib.sha256(b"".join(m.tobytes() for m in subs)).hexdigest()
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


def test_order_12_flag_still_caps_order_16():
    # the flag reaches order 9; order 10 is refused before any search starts
    for spec in ("C16", "C10"):
        with pytest.raises(CapExceededError, match="capped at order 9"):
            count_brute_force(resolve_spec(spec), allow_order_12=True)
        assert main(["count", "-G", spec, "-N", spec, "--method", "brute",
                     "--allow-order-12"]) == 3


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
