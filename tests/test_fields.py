import numpy as np
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
    assert F.q == 9
    # the pinned encoding: index c0 + 3 c1 is c0 + c1 i, with i^2 = -1
    c1, c0 = np.divmod(np.arange(9), 3)
    assert np.array_equal(F.add, (c0[:, None] + c0) % 3 + 3 * ((c1[:, None] + c1) % 3))
    real = (c0[:, None] * c0 - c1[:, None] * c1) % 3
    imag = (c0[:, None] * c1 + c1[:, None] * c0) % 3
    assert np.array_equal(F.mul, real + 3 * imag)
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
