import numpy as np
import pytest

from hgs.catalog import (
    SpecError,
    _check_catalog_invariants,
    _pgl2_elements,
    _projective_action,
    catalog_aut6_tower,
    cyclic,
    from_perm_set,
    load_group_file,
    resolve_spec,
)
from hgs.cli import main
from hgs.fields import gf
from hgs.groups import (
    CapExceededError,
    GroupError,
    center,
    direct_product,
    normal_subgroups,
    order_census,
)
from hgs.morphisms import are_isomorphic


def test_named_specs_resolve(small_catalog):
    assert resolve_spec("C6").order == 6
    assert resolve_spec("D4").order == 8
    assert resolve_spec("S5").order == 120
    assert resolve_spec("A6").order == 360
    assert resolve_spec("Q8").order == 8


def test_spec_cache_returns_same_object():
    assert resolve_spec("S5") is resolve_spec("S5")
    assert resolve_spec("S5") is resolve_spec(" S 5 ")


def test_unknown_spec_rejected():
    with pytest.raises(SpecError):
        resolve_spec("E8")
    with pytest.raises(SpecError):
        resolve_spec("")


def test_matrix_group_orders():
    assert resolve_spec("SL(2,9)").order == 720
    assert resolve_spec("PGL(2,9)").order == 720
    assert resolve_spec("PSL(2,9)").order == 360
    assert resolve_spec("PSL(2,7)").order == 168
    assert resolve_spec("SL(2,4)").order == 60


@pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 8, 9, 11])
def test_pgl2_from_one_matrix_per_point_map_is_the_all_matrix_group(q):
    # the reference acts with every invertible matrix, each point map q - 1
    # times over, and keeps the distinct rows; the catalog acts with the
    # matrices whose first row starts (after zeros) with the field's 1
    F = gf(q)
    one = int(np.flatnonzero((F.mul == np.arange(q)).all(axis=1))[0])
    a, b, c, d = mats = np.indices((q,) * 4).reshape(4, -1)
    invertible = mats.T[F.add[F.mul[a, d], F.neg[F.mul[b, c]]] != 0]
    reference = from_perm_set(_projective_action(F, invertible))
    lead = np.where(invertible[:, 0] != 0, invertible[:, 0], invertible[:, 1])
    normalized = invertible[lead == one]
    assert len(normalized) == q ** 3 - q == reference.order
    assert np.array_equal(_pgl2_elements(F), normalized)
    G = resolve_spec(f"PGL(2,{q})")
    assert np.array_equal(G.mul, reference.mul)
    assert np.array_equal(G.perm_rep.images, reference.perm_rep.images)


def test_psl_constructions_match_alternating_groups():
    assert are_isomorphic(resolve_spec("PSL(2,4)"), resolve_spec("A5")) is not None
    assert are_isomorphic(resolve_spec("PSL(2,9)"), resolve_spec("A6")) is not None


def test_sl29_is_double_cover_shape():
    SL = resolve_spec("SL(2,9)")
    assert center(SL).size == 2
    assert order_census(SL, 2) == 1  # unique involution: the central one


def test_product_specs():
    assert resolve_spec("C4xC2").order == 8
    assert resolve_spec("C2xC2xC2").order == 8
    G = resolve_spec("AxCp(A6,2)")
    assert G.order == 720
    assert sorted(s.size for s in normal_subgroups(G)) == [1, 2, 360, 720]


def test_cyclic_tables_are_addition_mod_n():
    for n in [*range(1, 41), 720]:
        idx = np.arange(n, dtype=np.int64)
        mul = cyclic(n).mul
        assert mul.dtype == np.int16, n
        assert np.array_equal(mul, (idx[:, None] + idx[None, :]) % n), n


def test_cyclic_orders_above_the_table_cap_are_refused(monkeypatch):
    monkeypatch.setenv("HGS_MAX_TABLE", "100")
    assert cyclic(100).order == 100
    with pytest.raises(CapExceededError):
        cyclic(101)
    assert main(["info", "-G", "C200"]) == 3


def _product_by_pairs(A, B):
    """Reference: (a, b)(a', b') = (a a', b b') over every pair of elements."""
    a, b = np.divmod(np.arange(A.order * B.order), B.order)
    return (A.mul[a[:, None], a[None, :]].astype(np.int64) * B.order
            + B.mul[b[:, None], b[None, :]])


@pytest.mark.parametrize("a, b", [
    ("A5", "C2"), ("A6", "C2"), ("C4", "C2"), ("C2xC2", "C2"), ("C2", "C2"),
    ("C120", "C1"), ("C1", "C120"), ("S4", "C5"), ("A4", "C10"), ("S3", "C20"),
    ("S3", "D10"), ("D4", "C15"), ("Q8", "C15"), ("C2", "C60"), ("C2xC2", "C30"),
    ("D6", "C10"), ("D12", "C5"), ("A4", "D5"), ("V4", "C30"),
])
def test_direct_product_tables_equal_the_pairwise_rule(a, b):
    A, B = resolve_spec(a), resolve_spec(b)
    mul = direct_product(A, B).mul
    assert mul.dtype == np.int16
    assert np.array_equal(mul, _product_by_pairs(A, B))


def test_tower_labels_and_m10():
    tower = catalog_aut6_tower()
    assert set(tower) == {"Aut(A6)", "Inn(A6)", "M10", "S6", "PGL(2,9)"}
    assert tower["Aut(A6)"].order == 1440
    M10 = tower["M10"]
    socle = [s for s in normal_subgroups(M10) if s.size == 360][0]
    assert order_census(M10, 2, "outside", socle) == 0
    assert are_isomorphic(tower["S6"], resolve_spec("S6")) is not None
    assert are_isomorphic(tower["PGL(2,9)"], resolve_spec("PGL(2,9)")) is not None


def test_tower_is_stable_across_calls():
    t1 = catalog_aut6_tower()
    t2 = catalog_aut6_tower()
    assert all(t1[k] is t2[k] for k in t1)


def test_m10_spec_goes_through_tower():
    assert resolve_spec("M10") is catalog_aut6_tower()["M10"]


def test_load_perm_group_file(tmp_path):
    path = tmp_path / "a5.grp"
    path.write_text("perm 5\n(0 1 2 3 4)\n(2 3 4)\n")
    G = load_group_file(path)
    assert G.order == 60


def test_load_table_group_file(tmp_path):
    path = tmp_path / "c3.grp"
    path.write_text("table 3\n0 1 2\n1 2 0\n2 0 1\n")
    G = load_group_file(path)
    assert G.order == 3
    assert G.elt_order.tolist() == [1, 3, 3]


def test_file_spec_via_resolve(tmp_path):
    path = tmp_path / "v4.grp"
    path.write_text("perm 4\n(0 1)(2 3)\n(0 2)(1 3)\n")
    G = resolve_spec(f"file:{path}")
    assert G.order == 4


def test_file_errors_carry_line_numbers(tmp_path):
    bad_header = tmp_path / "h.grp"
    bad_header.write_text("permutation 5\n")
    with pytest.raises(SpecError, match="line 1"):
        load_group_file(bad_header)

    bad_cycle = tmp_path / "c.grp"
    bad_cycle.write_text("perm 5\n(0 1 2 3 4)\n(0 9)\n")
    with pytest.raises(SpecError, match="line 3"):
        load_group_file(bad_cycle)

    bad_row = tmp_path / "r.grp"
    bad_row.write_text("table 3\n0 1 2\n1 2\n2 0 1\n")
    with pytest.raises(SpecError, match="line 3"):
        load_group_file(bad_row)

    bad_value = tmp_path / "v.grp"
    bad_value.write_text("table 2\n0 1\nx y\n")
    with pytest.raises(SpecError, match="line 3"):
        load_group_file(bad_value)


def test_comments_and_blank_lines_allowed(tmp_path):
    path = tmp_path / "c4.grp"
    path.write_text("# a 4-cycle\nperm 4\n\n(0 1 2 3)\n")
    assert load_group_file(path).order == 4


@pytest.mark.parametrize("rows, message", [
    ([[1, 0, 2], [0, 2, 1]], "identity row must come first"),
    ([[0, 1], [0, 0]], r"row \[0, 0\] is not a permutation"),
    ([[0, 1], [1, 1]], r"row \[1, 1\] is not a permutation"),
    ([[0, 1], [65537, 0]], r"row \[65537, 0\] is not a permutation"),  # not wrapped
])
def test_from_perm_set_rejects_rows_that_are_no_group(rows, message):
    with pytest.raises(GroupError, match=message):
        from_perm_set(np.array(rows))


@pytest.mark.parametrize("label", ["S5", "S6", "A5", "A6", "PGL(2,9)", "PSL(2,9)",
                                   "SL(2,9)", "M10", "Q8", "V4"])
def test_each_checked_label_rejects_a_group_of_the_wrong_order(label):
    # the first seven by the pattern rules, M10, Q8 and V4 by their table
    with pytest.raises(GroupError, match=f"resolved to order 3, expected"):
        _check_catalog_invariants(label, cyclic(3))
