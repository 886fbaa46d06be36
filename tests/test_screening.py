import numpy as np
import pytest

from hgs import screening
from hgs.catalog import projective_general_linear2, resolve_spec
from hgs.counting import count_byott
from hgs.groups import (
    EngineError,
    FiniteGroup,
    GroupError,
    Subgroup,
    center,
    commutator_subgroup,
    conjugation_rows,
    quotient_group,
    row_sort_order,
)
from hgs.morphisms import (are_isomorphic, automorphism_group, enumerate_homomorphisms,
                           outer_coset_reps)
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


# every catalog N of order 120 that the sweep below screens and counts
ORDER_120 = ("C120", "D60", "S5", "SL(2,5)", "AxCp(A5,2)", "S4xC5", "A4xC10",
             "S3xC20", "S3xD10", "D4xC15", "Q8xC15", "C2xC60", "C2xC2xC30",
             "D6xC10", "D12xC5", "A4xD5", "V4xC30")


def test_screen_verdicts_agree_with_counts_at_order_120(S5):
    """The paper's necessary criteria against the holomorph count: every N
    the screen excludes has e(S5, N) = 0, and the two it allows are S5 and
    A5 x C2, with 32 and 20.  The catalog holds only these 17 of the 47
    groups of order 120."""
    allowed, failing = {}, {}
    for spec in ORDER_120:
        N = resolve_spec(spec)
        rep = screen_candidate(S5, N, "S5", spec)
        value = count_byott(S5, N).value
        if rep.shape_verdict == "excluded":
            assert value == 0, spec
            failing[spec] = [k for k, v in rep.conditions.items() if v.status == "fails"]
        else:
            allowed[spec] = value
    assert allowed == {"S5": 32, "AxCp(A5,2)": 20}
    # the perfect SL(2,5) is excluded by condition 3 alone; the other 14
    # are excluded by their shape, before any condition applies
    assert failing.pop("SL(2,5)") == ["condition-3"]
    assert len(failing) == 14 and not any(failing.values())


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
# check's order, for each order-720 group and a relabelled copy of it: the
# pairs (chi0, eps) of ``_index2_kernels``, so the inner copy (chi0 = 0)
# comes first, then the two kernels of the sign map chi0 with eps = 0, 1
INNER_PINS = {
    "PGL(2,9)": [(True, True), (False, False), (False, False)],
    "PGL(2,9)~1": [(True, True), (False, False), (False, False)],
    "M10": [(True, True), (False, False), (False, False)],
    "M10~2": [(True, True), (False, False), (False, False)],
    "S6": [(True, True), (False, False), (False, False)],
    "S6~3": [(True, True), (False, False), (False, False)],
}


@pytest.fixture(scope="module")
def order_720_groups():
    found = {}
    for seed, label in enumerate(["PGL(2,9)", "M10", "S6"], start=1):
        found[label] = resolve_spec(label)
        found[f"{label}~{seed}"] = _relabel(found[label], seed)
    return found


def _carrier_kernels(G):
    """Reference: every index-2 subgroup of the carrier Aut(G), as the
    sorted member indices of a kernel of a map of the abelianization onto
    C_2, each once, with its witness when it is built and searched."""
    aut = automorphism_group(G)
    car = aut.carrier
    Q, coset_of = quotient_group(car, commutator_subgroup(car))
    c2 = FiniteGroup(np.array([[0, 1], [1, 0]], dtype=np.int32), name="C2")
    found = {}
    for h in enumerate_homomorphisms(Q, c2):
        if not h.images.any():  # the trivial map is not onto
            continue
        members = np.flatnonzero(np.isin(coset_of, h.kernel().members))
        H = Subgroup(car, members).as_group()
        found.setdefault(members.tobytes(), (members, {
            "subgroup_order": int(len(members)),
            "isomorphic_to_G": are_isomorphic(H, G) is not None,
            "equals_inner": np.array_equal(members, aut.inner.members)}))
    return list(found.values())


def _check_kernels(G):
    """The check's index-2 subgroups, each as (chi0, eps) and as the
    sorted rows of its automorphisms c_h phi^a."""
    phi, h0 = screening._outer_square(G, outer_coset_reps(G))
    conj = conjugation_rows(G, np.arange(G.order))  # row h is c_h
    out = []
    for chi0, eps in screening._index2_kernels(G, phi, h0):
        rows = np.concatenate([conj[chi0 == 0], conj[chi0 == eps][:, phi]])
        out.append((chi0, eps, rows[row_sort_order(rows)]))
    return phi, h0, out


@pytest.fixture(scope="module")
def index_2_groups(order_720_groups):
    """Centerless groups with [Aut(G) : Inn(G)] = 2, and relabelled copies.
    Some map S3xS3 -> C_2 is not phi-invariant, and D5's map onto C_2 is
    1 at h0, so each of those two filters of ``_index2_kernels`` acts."""
    found = dict(order_720_groups)
    for seed, label in enumerate(["A5", "D5", "S3xS3"], start=4):
        found[label] = resolve_spec(label)
        found[f"{label}~{seed}"] = _relabel(found[label], seed)
    return found


def test_inner_unique_results_are_pinned(order_720_groups, monkeypatch):
    def spy(H, G):
        raise AssertionError("an isomorphism search ran")

    for label, G in order_720_groups.items():
        with monkeypatch.context() as m:
            # the inner copy is G in coset coordinates and the other two
            # have another census, so no subgroup is searched
            m.setattr(screening, "are_isomorphic", spy)
            check = check_inner_unique_in_aut(G)
        assert check.status == "holds", label
        assert check.detail == "checked 3 index-2 subgroups of Aut(G)", label
        assert [(w["isomorphic_to_G"], w["equals_inner"]) for w in check.witnesses] \
            == INNER_PINS[label], label
        for w in check.witnesses:
            assert w["subgroup_order"] == 720
            assert all(type(v) is bool for k, v in w.items() if k != "subgroup_order")


def test_check_subgroups_are_the_carrier_kernels(index_2_groups):
    for label, G in index_2_groups.items():
        check = check_inner_unique_in_aut(G)
        aut = automorphism_group(G)
        reference = _carrier_kernels(G)
        mine = [rows.tobytes() for _, _, rows in _check_kernels(G)[2]]
        theirs = [aut.perms[members].tobytes() for members, _ in reference]
        assert sorted(mine) == sorted(theirs), label  # carrier rows are sorted
        key = lambda w: sorted(w.items())
        assert sorted(check.witnesses, key=key) \
            == sorted((w for _, w in reference), key=key), label


def test_kernel_tables_match_the_carrier_without_the_census_skip(index_2_groups,
                                                                 monkeypatch):
    for label, G in index_2_groups.items():
        want = check_inner_unique_in_aut(G).witnesses
        with monkeypatch.context() as m:
            # every census agrees, so every kernel but Inn(G) is built and searched
            m.setattr(screening, "_census", lambda orders: ())
            assert check_inner_unique_in_aut(G).witnesses == want, label
        aut = automorphism_group(G)
        by_rows = {aut.perms[members].tobytes(): members
                   for members, _ in _carrier_kernels(G)}
        phi, h0, kernels = _check_kernels(G)
        for chi0, eps, rows in kernels:
            K = screening._kernel_group(G, phi, h0, chi0, eps)
            assert np.array_equal(K.elt_order,
                                  screening._kernel_orders(G, phi, h0, chi0, eps)), label
            H = Subgroup(aut.carrier, by_rows[rows.tobytes()]).as_group()
            assert are_isomorphic(K, H) is not None, (label, eps)


def _relabelled_a5_with(corrupt, seed):
    """A fresh relabelled A5 whose cached coset representatives pass
    through ``corrupt``."""
    G = _relabel(resolve_spec("A5"), seed)  # Aut(A5) = S5: index 2
    G._cache["outer_coset_reps"] = corrupt(G, outer_coset_reps(G).copy())
    return G


def _outer_row(G, reps):
    gens = list(G.gens)
    inner = conjugation_rows(G, np.arange(G.order))[:, gens]
    return next(i for i, phi in enumerate(reps)
                if not (inner == phi[gens]).all(axis=1).any())


def _swap_two_entries(G, reps):
    phi = reps[_outer_row(G, reps)]
    phi[[1, 2]] = phi[[2, 1]]
    return reps


def _trivial_phi(G, reps):
    # a homomorphism, but phi^2 = 1 is conjugation by no element
    reps[_outer_row(G, reps)] = 0
    return reps


def _inner_phi(G, reps):
    reps[_outer_row(G, reps)] = conjugation_rows(G, [5])[0]
    return reps


@pytest.mark.parametrize("corrupt, message", [
    (_swap_two_entries, "not a homomorphism"),
    (_trivial_phi, "conjugation by 0 elements"),
    (_inner_phi, "0 of the 2 coset representatives are outer"),
], ids=["swapped-entries", "trivial-map", "inner-map"])
def test_a_corrupted_outer_representative_raises(corrupt, message):
    G = _relabelled_a5_with(corrupt, seed=4)
    with pytest.raises(EngineError, match=message):
        check_inner_unique_in_aut(G)


def test_the_check_builds_no_aut_group():
    for G in (_relabel(resolve_spec("PGL(2,9)"), 11), projective_general_linear2(11)):
        assert check_inner_unique_in_aut(G).status == "holds", G.name
        assert "outer_coset_reps" in G._cache and "aut" not in G._cache, G.name


def test_condition1_fails_on_a_quotient_other_than_the_socle():
    A6 = resolve_spec("A6")
    cases = {"SL(2,5)": ("fails", "quasisimple"),  # SL(2,5)/Z = A5, not A6
             "A6": ("fails", "simple"),
             "SL(2,9)": ("holds", "quasisimple")}
    for label, (status, kind) in cases.items():
        N = resolve_spec(label)
        verdict = screening._condition1(N, center(N), A6)
        assert (verdict.status, verdict.witness) \
            == (status, {"kind": kind, "center_order": center(N).size}), label


@pytest.mark.parametrize("g, n", [("S5", "SL(2,5)"), ("M10", "SL(2,9)")])
def test_condition4_holds_with_a_reverified_witness(g, n):
    # Aut of SL(2,q) fixes its center of order 2, so condition 4 applies: an
    # order-p zeta in the socle commutes with a sigma outside it
    G, N = resolve_spec(g), resolve_spec(n)
    cls_g = classify_group(G)
    verdict = screening._condition4(G, cls_g, N, center(N), cls_g.prime)
    assert verdict.status == "holds"
    zeta, sigma = verdict.witness["zeta"], verdict.witness["sigma"]
    assert int(G.elt_order[zeta]) == cls_g.prime and cls_g.socle.contains(zeta)
    assert not cls_g.socle.contains(sigma)
    assert G.mul[zeta, sigma] == G.mul[sigma, zeta]
    report = screen_candidate(G, N)
    assert report.conditions["condition-4"] == verdict
    assert reverify_report(report, G, N)
