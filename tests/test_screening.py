import numpy as np
import pytest

from hgs import screening
from hgs.catalog import resolve_spec
from hgs.groups import (
    FiniteGroup,
    GroupError,
    Subgroup,
    center,
    commutator_subgroup,
    quotient_group,
)
from hgs.morphisms import are_isomorphic, automorphism_group, enumerate_homomorphisms
from hgs.screening import (
    check_inner_unique_in_aut,
    classify_group,
    reverify_report,
    screen_candidate,
)


def test_classify_basic_shapes(small_catalog):
    assert classify_group(small_catalog["C8"]).kind == "abelian"
    assert classify_group(small_catalog["D4"]).kind == "solvable-other"
    assert classify_group(resolve_spec("A5")).kind == "simple"
    assert classify_group(resolve_spec("A6")).kind == "simple"


def test_classify_almost_simple(S5):
    cls = classify_group(S5)
    assert cls.kind == "almost-simple"
    assert cls.prime == 2
    assert cls.socle.size == 60
    assert are_isomorphic(cls.socle_group, resolve_spec("A5")) is not None


def test_classify_pgl_and_m10():
    for label in ("PGL(2,9)", "M10"):
        cls = classify_group(resolve_spec(label))
        assert cls.kind == "almost-simple"
        assert (cls.prime, cls.socle.size) == (2, 360)


def test_classify_quasisimple_sl29():
    G = resolve_spec("SL(2,9)")
    cls = classify_group(G)
    assert cls.kind == "quasisimple"
    assert center(G).size == 2
    assert are_isomorphic(cls.quotient, resolve_spec("A6")) is not None


def test_classify_direct_product_shape(A5xC2):
    cls = classify_group(A5xC2)
    assert cls.kind == "direct-product-simple-cyclic"
    assert cls.prime == 2
    assert cls.socle.size == 60
    assert cls.cyclic_factor.size == 2


def test_classify_aut_a6_is_other():
    # five proper normal subgroups, so not almost simple by the lattice test
    cls = classify_group(resolve_spec("Aut(A6)"))
    assert cls.kind == "other"


def test_almost_simple_has_trivial_center():
    for label in ("S5", "PGL(2,9)", "M10"):
        G = resolve_spec(label)
        assert classify_group(G).kind == "almost-simple"
        assert center(G).size == 1


def test_aut_of_product_splits(A5xC2):
    # |Aut(A x C_p)| = |Aut(A)| * |Aut(C_p)|
    assert automorphism_group(A5xC2).order == 120
    assert automorphism_group(resolve_spec("AxCp(A6,2)")).order == 1440


def test_screen_requires_almost_simple_g():
    with pytest.raises(GroupError, match="almost simple"):
        screen_candidate(resolve_spec("A5"), resolve_spec("A5"))


def test_screen_requires_equal_orders(S5):
    with pytest.raises(GroupError, match="same order"):
        screen_candidate(S5, resolve_spec("C4"))


def test_screen_allows_product_and_almost_simple_types(S5, A5xC2):
    assert screen_candidate(S5, A5xC2).shape_verdict == "allowed-nonperfect"
    PGL, M10, S6 = (resolve_spec(s) for s in ("PGL(2,9)", "M10", "S6"))
    assert screen_candidate(PGL, resolve_spec("AxCp(A6,2)")).shape_verdict == \
        "allowed-nonperfect"
    assert screen_candidate(M10, S6).shape_verdict == "allowed-nonperfect"
    assert screen_candidate(PGL, M10).shape_verdict == "allowed-nonperfect"


def test_screen_excludes_cyclic_720():
    C720 = resolve_spec("C720")
    for label in ("PGL(2,9)", "M10"):
        rep = screen_candidate(resolve_spec(label), C720, label, "C720")
        assert rep.shape_verdict == "excluded"
        assert "abelian" in rep.reason


def test_screen_excludes_s5xc2_like_shapes(S5):
    # S3 x (C5 x C4): solvable? no -- use a wrong-shape insolvable group:
    # A5 x C2 passes, but A5 x C2 with the wrong socle does not arise at 120.
    # Use the cyclic group instead at order 120.
    rep = screen_candidate(S5, resolve_spec("C120"))
    assert rep.shape_verdict == "excluded"


def test_sl29_fails_condition3_with_reverified_witness():
    PGL = resolve_spec("PGL(2,9)")
    SL = resolve_spec("SL(2,9)")
    rep = screen_candidate(PGL, SL, "PGL(2,9)", "SL(2,9)")
    assert rep.shape_verdict == "excluded"
    cond3 = rep.conditions["condition-3"]
    assert cond3.status == "fails"
    assert len(cond3.witness["counterexamples"]) > 0
    assert reverify_report(rep, PGL, SL)
    # conditions 1 and 2 hold for the double cover
    assert rep.conditions["condition-1"].status == "holds"
    assert rep.conditions["condition-2"].status == "holds"


def test_screen_report_serializes(S5, A5xC2):
    rep = screen_candidate(S5, A5xC2, "S5", "A5xC2")
    payload = rep.to_dict()
    assert payload["schema"] == "hgs-screen/1"
    assert payload["shape_verdict"] == "allowed-nonperfect"
    import json
    assert json.loads(rep.to_json())["N"] == "A5xC2"


def test_inner_unique_s5(S5):
    check = check_inner_unique_in_aut(S5)
    assert check.status == "holds"
    assert "only candidate" in check.detail


def test_inner_unique_pgl_and_m10():
    for label in ("PGL(2,9)", "M10"):
        check = check_inner_unique_in_aut(resolve_spec(label))
        assert check.status == "holds"
        iso_flags = [w["isomorphic_to_G"] for w in check.witnesses]
        assert iso_flags.count(True) == 1  # exactly one copy: the inner one


def test_inner_unique_infeasible_for_central_groups():
    check = check_inner_unique_in_aut(resolve_spec("Q8"))
    assert check.status == "infeasible"


def _relabel(G, seed):
    """Copy of G under a seeded renumbering that keeps 0 at 0."""
    rng = np.random.default_rng(seed)
    sigma = np.concatenate([[0], 1 + rng.permutation(G.order - 1)])
    back = np.argsort(sigma)
    return FiniteGroup(sigma[G.mul[np.ix_(back, back)]], name=f"{G.name}~{seed}",
                       assume_associative=True)


# (isomorphic_to_G, equals_inner) per index-2 subgroup of Aut(G), in the
# check's order, for each order-720 group and a relabelled copy of it
INNER_PINS = {
    "PGL(2,9)": [(True, True), (False, False), (False, False)],
    "PGL(2,9)~1": [(True, True), (False, False), (False, False)],
    "M10": [(False, False), (True, True), (False, False)],
    "M10~2": [(False, False), (False, False), (True, True)],
    "S6": [(True, True), (False, False), (False, False)],
    "S6~3": [(False, False), (True, True), (False, False)],
}


@pytest.fixture(scope="module")
def order_720_groups():
    found = {}
    for seed, label in enumerate(["PGL(2,9)", "M10", "S6"], start=1):
        found[label] = resolve_spec(label)
        found[f"{label}~{seed}"] = _relabel(found[label], seed)
    return found


def _witnesses_building_every_subgroup(G):
    """Reference: the check's witnesses with every index-2 subgroup built
    and searched, none skipped by its element-order census."""
    aut = automorphism_group(G)
    car = aut.carrier
    Q, coset_of = quotient_group(car, commutator_subgroup(car))
    c2 = FiniteGroup(np.array([[0, 1], [1, 0]], dtype=np.int32), name="C2")
    witnesses, seen = [], set()
    for h in enumerate_homomorphisms(Q, c2):
        if not h.is_surjective():
            continue
        members = np.flatnonzero(np.isin(coset_of, h.kernel().members))
        if members.tobytes() in seen:
            continue
        seen.add(members.tobytes())
        H, _ = Subgroup(car, members).as_group()
        witnesses.append({"subgroup_order": int(len(members)),
                          "isomorphic_to_G": are_isomorphic(H, G) is not None,
                          "equals_inner": np.array_equal(members, aut.inner.members)})
    return witnesses


def test_inner_unique_results_are_pinned(order_720_groups):
    for label, G in order_720_groups.items():
        check = check_inner_unique_in_aut(G)
        assert check.status == "holds", label
        assert check.detail == "checked 3 index-2 subgroups of Aut(G)", label
        assert [(w["isomorphic_to_G"], w["equals_inner"]) for w in check.witnesses] \
            == INNER_PINS[label], label
        for w in check.witnesses:
            assert w["subgroup_order"] == 720
            assert all(type(v) is bool for k, v in w.items() if k != "subgroup_order")


def test_census_skip_never_drops_the_inner_copy(order_720_groups, monkeypatch):
    searched = []

    def spy(H, G):
        iso = are_isomorphic(H, G)
        searched.append(iso is not None)
        return iso

    monkeypatch.setattr(screening, "are_isomorphic", spy)
    for label, G in order_720_groups.items():
        searched.clear()
        check = check_inner_unique_in_aut(G)
        inner = [w for w in check.witnesses if w["equals_inner"]]
        assert len(inner) == 1 and inner[0]["isomorphic_to_G"], label
        # the inner copy was built and found isomorphic; the other two have
        # another census and were not built
        assert searched == [True], label
        assert check.witnesses == _witnesses_building_every_subgroup(G), label
