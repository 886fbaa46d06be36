"""One element dtype: every array of element indices has
``groups.ELEMENT_DTYPE``, and no group outgrows it."""

import numpy as np
import pytest

from hgs import _search
from hgs.catalog import cyclic, resolve_spec
from hgs.groups import (
    ELEMENT_DTYPE,
    MAX_ORDER,
    CapExceededError,
    FiniteGroup,
    GroupError,
    RowIndex,
    commutator_subgroup,
    direct_product,
    from_perm_gens,
    table_cap,
)
from hgs.holomorph import (
    RegularSubgroup,
    crossed_homomorphisms,
    hom_orbit,
    pair_perms,
)
from hgs.morphisms import Homomorphism, automorphism_group


def _element_arrays(G: FiniteGroup) -> dict:
    """Every kind of element-index array the engine builds around G."""
    arrays = {"mul": G.mul, "inv": G.inv}
    if G.perm_rep is not None:
        arrays["perm_rep.images"] = G.perm_rep.images
        arrays["RowIndex.table"] = RowIndex(G.perm_rep.images).table()
    arrays["as_group"] = commutator_subgroup(G).as_group().mul
    arrays["direct_product"] = direct_product(G, cyclic(2)).mul
    aut = automorphism_group(G)
    arrays["aut.perms"] = aut.perms
    arrays["aut.carrier.mul"] = aut.carrier.mul
    trivial = Homomorphism(G, aut.carrier, np.zeros(G.order, dtype=np.int64))
    arrays["Homomorphism.images"] = trivial.images
    arrays["automorphism images"] = Homomorphism(G, G, aut.perms[1]).images
    arrays["searched images"] = next(_search.iter_hom_images(
        G, aut.carrier, [[0]] * len(_search.stage_data(G).gens)))
    arrays["hom_orbit"] = hom_orbit(trivial.images, aut, aut)
    arrays["crossed g"] = next(crossed_homomorphisms(aut, trivial)).g
    rho = (np.arange(G.order), np.zeros(G.order, dtype=np.int64))  # pairs (x, 1)
    arrays["pair_perms"] = pair_perms(aut, *rho)
    arrays["RegularSubgroup"] = RegularSubgroup(G, pair_perms(aut, *rho)).members
    return arrays


@pytest.mark.parametrize("spec", ["S5", "AxCp(A5,2)", "PGL(2,9)"])
def test_element_index_arrays_share_the_element_dtype(spec):
    arrays = _element_arrays(resolve_spec(spec))
    assert {name: a.dtype for name, a in arrays.items()} == \
        dict.fromkeys(arrays, np.dtype(ELEMENT_DTYPE))


def test_order_720_table_and_aut_stack_take_two_bytes_an_entry():
    PGL = resolve_spec("PGL(2,9)")
    assert PGL.mul.nbytes == 720 * 720 * 2
    aut = automorphism_group(PGL)
    assert aut.perms.nbytes == 1440 * 720 * 2
    assert aut.carrier.mul.nbytes == 1440 * 1440 * 2


def test_max_order_is_the_16_bit_index_count():
    assert MAX_ORDER == 32768 == np.iinfo(ELEMENT_DTYPE).max + 1


def test_groups_above_the_ceiling_are_refused_before_any_allocation():
    # zero-stride views: the shape says the order, nothing is allocated
    table = np.broadcast_to(np.int64(0), (MAX_ORDER + 1, MAX_ORDER + 1))
    with pytest.raises(CapExceededError, match="32768"):
        FiniteGroup(table, validate=False)
    rows = np.broadcast_to(np.int64(0), (MAX_ORDER + 1, 3))
    with pytest.raises(CapExceededError, match="32768"):
        RowIndex(rows).table()  # an Aut carrier past the ceiling fails here


def test_table_cap_is_held_to_the_ceiling(monkeypatch):
    monkeypatch.setenv("HGS_MAX_TABLE", str(MAX_ORDER))
    assert table_cap() == MAX_ORDER
    monkeypatch.setenv("HGS_MAX_TABLE", str(MAX_ORDER + 1))
    with pytest.raises(GroupError, match="at most 32768"):
        table_cap()


def test_wide_inputs_are_range_checked_before_narrowing():
    # 65537 would wrap to 1 in 16 bits, turning each input into C2
    with pytest.raises(GroupError, match="out of range"):
        FiniteGroup([[0, 65537], [65537, 0]])
    with pytest.raises(GroupError, match="not a bijection"):
        from_perm_gens([np.array([65537, 0])])
