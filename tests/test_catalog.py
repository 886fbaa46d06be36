import hashlib
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from hgs import catalog
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
    EngineError,
    GroupError,
    center,
    direct_product,
    normal_subgroups,
    order_census,
)
from hgs.morphisms import are_isomorphic, automorphism_group, conjugators, outer_coset_reps


def test_named_specs_resolve(small_catalog):
    assert resolve_spec("C6").order == 6
    assert resolve_spec("D4").order == 8
    assert resolve_spec("S5").order == 120
    assert resolve_spec("A6").order == 360
    assert resolve_spec("Q8").order == 8


def test_spec_cache_returns_same_object():
    assert resolve_spec("S5") is resolve_spec("S5")
    assert resolve_spec("S5") is resolve_spec(" S 5 ")


@pytest.mark.parametrize("spelling, canonical", [
    ("s5", "S5"), ("axcp(a5,2)", "AxCp(A5,2)"), ("pgl(2,9)", "PGL(2,9)"),
    ("Sl(2, 9)", "SL(2,9)"), ("m10", "M10"), ("aut(a6)", "Aut(A6)"),
    ("c4xc2", "C4xC2"), ("D04", "D4"), ("C4XC2", "C4xC2"),
    ("axcp(a5,2)XC3", "AxCp(A5,2)xC3"), ("c3XAXCP(A5, 2)", "C3xAxCp(A5,2)"),
])
def test_every_spelling_of_a_spec_resolves_to_one_cached_group(spelling, canonical):
    assert resolve_spec(spelling) is resolve_spec(canonical)
    assert canonical in catalog._RESOLVE_CACHE and spelling not in catalog._RESOLVE_CACHE


@pytest.mark.parametrize("spec", ["AxCp(A5,4)", "AxCp(A5,1)", "axcp(C3,0)"])
def test_axcp_needs_a_prime(spec):
    with pytest.raises(SpecError, match="prime"):
        resolve_spec(spec)


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
    # an x inside the name AxCp, or inside parentheses, splits nothing
    assert resolve_spec("AxCp(A5,2)xC3").order == 360
    assert resolve_spec("C3xAxCp(A5,2)").order == 360
    assert resolve_spec("AxCp(AxCp(A5,2),3)").order == 360
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
    assert set(tower) == {"Inn(A6)", "M10", "S6", "PGL(2,9)"}
    aut = resolve_spec("Aut(A6)")
    assert aut is automorphism_group(resolve_spec("A6")).carrier
    assert aut.order == 1440
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


def _digest(G):
    return hashlib.sha256(G.mul.astype("<i2").tobytes()).hexdigest()[:16]


# first 16 hex digits of the sha256 of each table as little-endian int16,
# and its generators
TOWER_PINS = {
    "Inn(A6)": ("364ef89b4c7bc010", [1, 5, 10]),
    "PGL(2,9)": ("2a912393e466afba", [1, 10, 20]),
    "S6": ("67833d6dbfd514bf", [1, 5, 15]),
    "M10": ("86ee910d42e3b805", [1, 5, 15]),
}


def test_tower_tables_are_pinned():
    tower = catalog_aut6_tower()
    assert {label: (_digest(G), list(G.gens)) for label, G in tower.items()} == TOWER_PINS
    assert all(G.name == label for label, G in tower.items())
    aut = resolve_spec("Aut(A6)")
    assert (_digest(aut), list(aut.gens), aut.name) \
        == ("3298356ebf5e13b1", [1, 10, 30], "Aut(A6)")


def test_the_tower_builds_no_aut_group():
    # a fresh process, since other tests build Aut(A6) on the cached A6
    src = Path(catalog.__file__).resolve().parent.parent
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(src), env.get("PYTHONPATH")) if p)
    code = ("from hgs.catalog import catalog_aut6_tower, resolve_spec\n"
            "catalog_aut6_tower()\n"
            "cache = resolve_spec('A6')._cache\n"
            "print('aut' in cache, 'outer_coset_reps' in cache)\n")
    run = subprocess.run([sys.executable, "-c", code], env=env,
                         capture_output=True, text=True, timeout=300)
    assert run.returncode == 0, run.stderr[-2000:]
    assert run.stdout.split() == ["False", "True"]


def test_a_coset_that_does_not_close_raises(monkeypatch):
    A6 = resolve_spec("A6")
    reps = outer_coset_reps(A6).copy()
    q = next(q for q, phi in enumerate(reps) if not len(conjugators(A6, phi)))
    # swap two images that neither a generator nor phi of one names, so
    # phi^2 still agrees with an inner map on the generators
    named = set(A6.gens) | set(reps[q][A6.gens].tolist())
    x, y = [x for x in range(1, A6.order) if x not in named][:2]
    reps[q, [x, y]] = reps[q, [y, x]]
    monkeypatch.setattr(catalog, "_TOWER_CACHE", {})
    monkeypatch.setattr(catalog, "outer_coset_reps", lambda G: reps)
    with pytest.raises(EngineError, match="do not form a group"):
        catalog_aut6_tower()


def test_the_tower_finds_the_inner_coset_wherever_it_comes(monkeypatch):
    reps = outer_coset_reps(resolve_spec("A6"))
    monkeypatch.setattr(catalog, "_TOWER_CACHE", {})
    monkeypatch.setattr(catalog, "outer_coset_reps", lambda G: np.roll(reps, 1, axis=0))
    tower = catalog_aut6_tower()
    assert {label: (_digest(G), list(G.gens)) for label, G in tower.items()} == TOWER_PINS


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
                                   "SL(2,9)", "M10", "Aut(A6)", "Q8", "V4", "D4", "C4"])
def test_each_checked_label_rejects_a_group_of_the_wrong_order(label):
    # in any case: the order formula belongs to the family, not the spelling
    for spelling in (label, label.lower()):
        with pytest.raises(GroupError, match="resolved to order 3, expected"):
            _check_catalog_invariants(spelling, cyclic(3))


def test_structure_checks_hold_in_any_case():
    with pytest.raises(GroupError, match="center of order 2"):
        _check_catalog_invariants("sl(2,9)", cyclic(720))
    with pytest.raises(GroupError, match="elements of order 8"):
        _check_catalog_invariants("pgl(2,9)", resolve_spec("S6"))


def test_a_lower_case_spec_that_builds_the_wrong_order_is_refused(monkeypatch):
    families = tuple(f._replace(build=lambda: cyclic(3)) if f.spelling == "Q8" else f
                     for f in catalog.FAMILIES)
    monkeypatch.setattr(catalog, "FAMILIES", families)
    monkeypatch.setattr(catalog, "_RESOLVE_CACHE", {})
    with pytest.raises(GroupError, match="Q8 resolved to order 3, expected 8"):
        resolve_spec("q8")
