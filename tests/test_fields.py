import pytest

from hgs.fields import FieldError, field_axioms_hold, gf


@pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 8, 9, 11])
def test_field_axioms_exhaustive(q):
    assert field_axioms_hold(gf(q))


def test_rejects_non_prime_power():
    with pytest.raises(FieldError):
        gf(6)
    with pytest.raises(FieldError):
        gf(12)


def test_only_the_catalog_prime_powers_are_pinned():
    for q in (25, 27, 49):
        with pytest.raises(FieldError):
            gf(q)


def test_gf9_structure():
    F = gf(9)
    assert (F.p, F.k, F.q) == (3, 2, 9)
    # the multiplicative group is cyclic of order 8
    orders = []
    for x in range(1, 9):
        y, k = x, 1
        while y != 1:
            y = int(F.mul[y, x])
            k += 1
        orders.append(k)
    assert max(orders) == 8


def test_element_encoding_is_little_endian_base_p():
    F = gf(9)
    # index c0 + 3 c1 is c0 + c1 x, and x^2 = -1 under the modulus x^2 + 1
    assert F.mul[3, 3] == 2  # x * x = 2
    assert F.add[1, 3] == 4  # 1 + x


def test_tables_are_frozen():
    F = gf(4)
    with pytest.raises(ValueError):
        F.mul[0, 0] = 1
