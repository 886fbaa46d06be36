import hashlib

import numpy as np
import pytest

from hgs.fields import FieldError, field_axioms_hold, gf

# sha256 over dtype, shape and bytes of add, mul, neg and inv, in that order;
# pinned when GF(p) still had a construction of its own, which the
# polynomial path GF(p)[x]/(x) must reproduce byte for byte
TABLE_DIGESTS = {
    2: "fc4c0d55a3432c34a495e1c28ee5aeae41b739a38c039945ccbe117fe4942ea8",
    3: "f0e488dddcd7111d25dc7d8a7c4db90ee28f0cdec31ee6845b1f7f7b1118f23d",
    4: "5a67751624a1453723571d6509e0ea37e020dd2c407af167cc69d0303d21fb93",
    5: "e78dc1e77180a032cffe6f78414652d99c300358b2e98fb2c659219ba69b65a1",
    7: "3138d4df4f2e7f4c93e59cc545cb25eeab1a81cdde813bf664475f573f5a6fdf",
    8: "df42efac8fc17dd0ee1408ab70ca8211efdd858b0c9c0fd02f7d7819bb732274",
    9: "2bc6804b9a9e4f9d5a89770548513d1eebd6216711c1f3c721c6971a1cc4eb23",
    11: "01e86b703f5dfc79cbe05f75ed9126188c56de22a7ffcc13176506f5ac31c0fc",
}


@pytest.mark.parametrize("q", sorted(TABLE_DIGESTS))
def test_field_tables_match_their_pinned_digests(q):
    F = gf(q)
    digest = hashlib.sha256()
    for table in (F.add, F.mul, F.neg, F.inv):
        digest.update(table.dtype.str.encode())
        digest.update(repr(table.shape).encode())
        digest.update(table.tobytes())
    assert digest.hexdigest() == TABLE_DIGESTS[q]


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
