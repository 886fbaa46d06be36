import itertools

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from hgs import catalog, perms as P
from hgs._search import stage_data
from hgs.catalog import resolve_spec
from hgs.morphisms import automorphism_group
from hgs.groups import (
    ELEMENT_DTYPE,
    CapExceededError,
    FiniteGroup,
    GroupError,
    RowIndex,
    Subgroup,
    center,
    centralizer,
    commutator_subgroup,
    direct_product,
    from_perm_gens,
    is_perfect,
    is_solvable,
    normal_subgroups,
    order_census,
    quotient_group,
    subgroup_closure,
)


def test_c2_from_table():
    G = FiniteGroup([[0, 1], [1, 0]], name="C2")
    assert G.order == 2
    assert G.elt_order.tolist() == [1, 2]
    assert G.inv.tolist() == [0, 1]


def test_rejects_non_associative_table():
    # a quasigroup table with identity but broken associativity
    table = [
        [0, 1, 2, 3, 4],
        [1, 0, 3, 4, 2],
        [2, 4, 0, 1, 3],
        [3, 2, 4, 0, 1],
        [4, 3, 1, 2, 0],
    ]
    with pytest.raises(GroupError, match="associativity"):
        FiniteGroup(table)


def test_rejects_bad_identity_and_bad_rows():
    with pytest.raises(GroupError, match="identity"):
        FiniteGroup([[1, 0], [0, 1]])
    with pytest.raises(GroupError, match="not a permutation"):
        FiniteGroup([[0, 1], [1, 1]])


def test_a5_closure_from_cycle_generators():
    a = P.parse_cycles("(0 1 2 3 4)", 5)
    b = P.parse_cycles("(2 3 4)", 5)
    G = from_perm_gens([a, b], name="A5")
    assert G.order == 60
    assert order_census(G, 2) == 15
    assert center(G).size == 1


def test_closure_cap_enforced(monkeypatch):
    monkeypatch.setenv("HGS_MAX_TABLE", "10")
    a = P.parse_cycles("(0 1 2 3 4)", 5)
    b = P.parse_cycles("(2 3 4)", 5)
    with pytest.raises(CapExceededError):
        from_perm_gens([a, b])


def test_rejects_non_bijective_generator():
    with pytest.raises(GroupError, match="bijection"):
        from_perm_gens([np.array([0, 0, 1], dtype=np.int32)])


def test_s5_normal_subgroup_lattice(S5):
    subs = normal_subgroups(S5)
    assert [s.size for s in subs] == [1, 60, 120]
    a5 = subs[1]
    assert a5.is_normal()


def test_c720_has_one_normal_subgroup_per_divisor():
    # cyclic: every subgroup is normal and there is one of each order d | 720
    subs = normal_subgroups(resolve_spec("C720"))
    divisors = [d for d in range(1, 721) if 720 % d == 0]
    assert len(subs) == len(divisors) == 30
    assert [s.size for s in subs] == divisors


def test_order_census_regions(S5):
    a5 = [s for s in normal_subgroups(S5) if s.size == 60][0]
    assert order_census(S5, 2, "inside", a5) == 15
    assert order_census(S5, 2, "outside", a5) == 10
    assert order_census(S5, 2) == 25
    assert order_census(S5, 1) == 1


def test_census_partitions_group(S5):
    total = sum(order_census(S5, int(k)) for k in np.unique(S5.elt_order))
    assert total == S5.order


def test_centralizer_of_transposition(S5):
    # index of (0 1) in the S5 table
    transpositions = np.flatnonzero(S5.elt_order == 2)
    sizes = {centralizer(S5, int(t)).size for t in transpositions}
    assert 12 in sizes  # 2 * |S3| for a single transposition
    assert centralizer(S5, 0).size == 120


def test_centralizer_contains_element_and_center(A5):
    for x in [0, 3, 17]:
        c = centralizer(A5, x)
        assert c.contains(x)
        assert c.contains(0)


def test_centralizer_contains_center_of_product(A5xC2):
    z = center(A5xC2)
    for x in [0, 5, 33, 119]:
        c = centralizer(A5xC2, x)
        assert all(c.contains(int(m)) for m in z.members)


def test_perm_rep_is_injective_and_multiplicative(A5):
    rep = A5.perm_rep
    assert rep is not None
    keys = {row.tobytes() for row in rep.images}
    assert len(keys) == A5.order
    rng = np.random.default_rng(5)
    for _ in range(20):
        x, y = rng.integers(0, A5.order, 2)
        composed = rep.images[x][rep.images[y]]
        assert np.array_equal(rep.images[A5.mul[x, y]], composed)


def test_subgroup_closure_of_five_cycle(S5):
    five = int(np.flatnonzero(S5.elt_order == 5)[0])
    H = subgroup_closure(S5, [five])
    assert H.size == 5


def test_subgroup_closure_identity_only(S5):
    assert subgroup_closure(S5, []).size == 1


@pytest.mark.parametrize("spec", ["D4", "Q8", "C2xC2xC2", "S4", "AxCp(A5,2)"])
def test_trusted_subgroups_have_strictly_increasing_members(spec):
    """centralizer, subgroup_closure and normal_subgroups build their members
    sorted and distinct, and Subgroup keeps them as given."""
    G = resolve_spec(spec)
    rng = np.random.default_rng(3)
    pairs = rng.integers(0, G.order, (10, 2)).tolist()
    made = {
        "centralizer": [centralizer(G, x) for x in range(G.order)]
                       + [centralizer(G, pair) for pair in pairs],
        "subgroup_closure": [subgroup_closure(G, [x]) for x in range(G.order)]
                            + [subgroup_closure(G, pair) for pair in pairs],
        "normal_subgroups": normal_subgroups(G),
    }
    for caller, subs in made.items():
        for H in subs:
            assert H.members.dtype == np.int64, caller
            assert H.members[0] == 0 and (np.diff(H.members) > 0).all(), caller
            assert not H.members.flags.writeable, caller


def test_direct_product_structure(A5):
    C2 = FiniteGroup([[0, 1], [1, 0]], name="C2")
    G = direct_product(A5, C2)
    assert G.order == 120
    assert center(G).size == 2
    assert sorted(s.size for s in normal_subgroups(G)) == [1, 2, 60, 120]


def test_quotient_by_center():
    SL = resolve_spec("SL(2,9)")
    Z = center(SL)
    assert Z.size == 2
    Q, coset_of = quotient_group(SL, Z)
    assert Q.order == 360
    assert coset_of[0] == 0


def test_quotient_refuses_a_subgroup_of_another_group(S5, A5xC2):
    # unchecked, the first quotient came out trivial and the second raised
    # "element has no finite order"
    S3, C6 = resolve_spec("S3"), resolve_spec("C6")
    with pytest.raises(GroupError, match="subgroup of the group itself, got one of C6 for S3"):
        quotient_group(S3, center(C6))
    with pytest.raises(GroupError, match="got one of A5xC2 for S5"):
        quotient_group(S5, center(A5xC2))


def test_commutator_and_solvability(S5, A5):
    assert commutator_subgroup(S5).size == 60
    assert is_perfect(A5)
    assert not is_perfect(S5)
    assert not is_solvable(S5)
    assert is_solvable(resolve_spec("D4"))


@pytest.mark.parametrize("label", ["S5", "PGL(2,9)", "Aut(A6)"])
def test_as_group_table_equals_the_ix_gather(label):
    # A5 < S5, A6 < PGL(2,9) (its 360 rows end in a short block of the
    # gather) and an index-2 subgroup of Aut(A6) (one of S6, PGL(2,9), M10)
    G = resolve_spec(label)
    sub = next(s for s in normal_subgroups(G) if 2 * s.size == G.order)
    H, members = sub.as_group()
    assert np.array_equal(members, sub.members)
    pos = np.full(G.order, -1, dtype=ELEMENT_DTYPE)
    pos[members] = np.arange(len(members))
    reference = pos[G.mul[np.ix_(members, members)]]
    assert H.mul.dtype == reference.dtype
    assert np.array_equal(H.mul, reference)
    assert H.mul.flags.c_contiguous


def test_subgroup_validation_rejects_non_closed(S5):
    with pytest.raises(GroupError):
        Subgroup(S5, np.array([0, 1, 2], dtype=np.int64))


def test_conjugacy_classes_partition(S5):
    classes = S5.conjugacy_classes()
    assert sum(len(c) for c in classes) == S5.order
    # S5 has 7 classes: 1, 10, 15, 20, 20, 24, 30
    assert sorted(len(c) for c in classes) == [1, 10, 15, 20, 20, 24, 30]


@given(st.integers(min_value=1, max_value=24))
@settings(max_examples=20, deadline=None)
def test_cyclic_group_census_properties(n):
    G = resolve_spec(f"C{n}")
    assert G.order == n
    # element orders in a cyclic group are divisors; census counts are phi(d)
    for k in np.unique(G.elt_order):
        assert n % int(k) == 0
    total = sum(order_census(G, int(k)) for k in np.unique(G.elt_order))
    assert total == n


def test_stage_data_word_tree_reaches_everything(S5):
    sd = stage_data(S5)
    assert sd.gens == S5.gens and len(sd.fill) == len(sd.first) == len(sd.gens)
    # every non-identity element is reached once: each stage's generator,
    # then its fill steps, each as gen * parent for a parent filled earlier
    reached = {0}
    for k, fill in enumerate(sd.fill):
        assert sd.gens[k] not in reached
        reached.add(sd.gens[k])
        for e, gi, par, _ in fill:
            assert gi <= k and par in reached and e not in reached
            assert S5.mul[sd.gens[gi], par] == e
            reached.add(e)
    assert sorted(reached) == list(range(S5.order))


def test_explicit_non_generating_gens_rejected():
    S3 = resolve_spec("S3")
    three_cycle = int(np.flatnonzero(S3.elt_order == 3)[0])
    swap = int(np.flatnonzero(S3.elt_order == 2)[0])
    with pytest.raises(GroupError, match="do not generate"):
        FiniteGroup(S3.mul, gens=[three_cycle], validate=False)
    with pytest.raises(GroupError, match="do not generate"):
        FiniteGroup(S3.mul, gens=[], validate=False)
    assert FiniteGroup(S3.mul, gens=[three_cycle, swap], validate=False).order == 6
    with pytest.raises(GroupError, match="out of range"):
        FiniteGroup(S3.mul, gens=[three_cycle, swap, 6], validate=False)


def test_redundant_given_generators_are_dropped():
    S3 = resolve_spec("S3")
    three_cycle = int(np.flatnonzero(S3.elt_order == 3)[0])
    swap = int(np.flatnonzero(S3.elt_order == 2)[0])
    given = [three_cycle, int(S3.inv[three_cycle]), 0, swap, int(S3.mul[swap, three_cycle])]
    G = FiniteGroup(S3.mul, gens=given, validate=False)
    assert G.gens == [three_cycle, swap]
    cyc = P.parse_cycles("(0 1 2 3)", 4)
    H = from_perm_gens([cyc, cyc[cyc], P.parse_cycles("(0 2)", 4)])
    assert len(H.gens) == 2 and H.order == 8
    assert stage_data(H).gens == H.gens


def _relabelled(G, seed):
    """Copy of G under a seeded renumbering that keeps 0 at 0, with the
    images of G's generators as its given generators."""
    rng = np.random.default_rng(seed)
    sigma = np.concatenate([[0], 1 + rng.permutation(G.order - 1)])
    back = np.argsort(sigma)
    gens = [int(sigma[g]) for g in G.gens]
    H = FiniteGroup(sigma[G.mul[np.ix_(back, back)]], assume_associative=True, gens=gens)
    assert H.gens == gens
    return H


def test_given_generators_build_no_word_tree_until_a_search():
    A5 = catalog.alternating(5)
    groups = [A5, catalog.cyclic(12), direct_product(catalog.symmetric(3), catalog.cyclic(4)),
              _relabelled(A5, 7)]
    for G in groups:
        assert "stage_data" not in G._cache
    for G in groups:
        automorphism_group(G)
        assert stage_data(G) is G._cache["stage_data"]
        assert stage_data(G).gens == G.gens


def test_perm_table_matches_reference_composition():
    # reference: look every composed row up by its full image sequence
    groups = [resolve_spec(label) for label in ("S4", "D5", "PGL(2,5)")]
    for images in [G.perm_rep.images for G in groups] + [
            automorphism_group(resolve_spec("S4")).perms]:
        index = {row.tobytes(): i for i, row in enumerate(images)}
        reference = [[index[images[i][images[j]].tobytes()] for j in range(len(images))]
                     for i in range(len(images))]
        assert RowIndex(images).table().tolist() == reference


def test_perm_table_rejects_an_unclosed_set():
    cyc = P.parse_cycles("(0 1 2 3)", 4)
    with pytest.raises(GroupError, match="not closed"):
        RowIndex(np.stack([P.identity_perm(4), cyc])).table()


def test_perm_table_rejects_a_set_that_agrees_with_a_group_on_its_base():
    # on the base {0} these rows look like C3, but row 2 is an involution
    rows = np.stack([P.identity_perm(5), P.parse_cycles("(0 4 1)", 5),
                     P.parse_cycles("(0 1)(2 3)", 5)])
    with pytest.raises(GroupError, match="not closed"):
        RowIndex(rows).table()


def test_perm_table_on_random_subsets_of_sym5():
    # identity first, then distinct random members of Sym(5); a set gets a
    # table exactly when it is closed, and the table is the composition's
    sym5 = np.array(list(itertools.permutations(range(5))), dtype=ELEMENT_DTYPE)
    rng = np.random.default_rng(5)
    closed = 0
    for _ in range(1500):
        size = int(rng.integers(2, 7))
        rows = sym5[np.concatenate([[0], 1 + rng.choice(119, size - 1, replace=False)])]
        index = {row.tobytes(): i for i, row in enumerate(rows)}
        products = [[index.get(rows[i][rows[j]].tobytes()) for j in range(size)]
                    for i in range(size)]
        if any(None in line for line in products):
            for build in (lambda rows: RowIndex(rows).table(), catalog.from_perm_set):
                with pytest.raises(GroupError, match="not closed"):
                    build(rows)
        else:
            closed += 1
            assert RowIndex(rows).table().tolist() == products
    assert closed >= 50
