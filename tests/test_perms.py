import numpy as np
import pytest
from hypothesis import given, strategies as st

from hgs import perms as P


def test_parse_simple_cycle():
    p = P.parse_cycles("(0 1 2 3 4)", 5)
    assert p.tolist() == [1, 2, 3, 4, 0]


def test_parse_disjoint_cycles():
    p = P.parse_cycles("(0 1)(2 3 4)", 5)
    assert p.tolist() == [1, 0, 3, 4, 2]


def test_parse_overlapping_cycles_compose_right_to_left():
    # (0 1)(1 2) sends 1 -> 2 first, then 0 -> 1: so 1 -> 2, 2 -> 0... check
    p = P.parse_cycles("(0 1)(1 2)", 3)
    q = P.parse_cycles("(0 1)", 3)[P.parse_cycles("(1 2)", 3)]
    assert np.array_equal(p, q)


def test_parse_accepts_commas_and_identity():
    p = P.parse_cycles("(0, 1, 2)", 4)
    assert p.tolist() == [1, 2, 0, 3]
    assert P.parse_cycles("()", 3).tolist() == [0, 1, 2]


@pytest.mark.parametrize("bad", ["", "(0 1", "0 1 2", "(0 0 1)", "(0 9)"])
def test_parse_rejects_garbage(bad):
    with pytest.raises(P.PermParseError):
        P.parse_cycles(bad, 5)


def test_parse_error_carries_line_number():
    with pytest.raises(P.PermParseError, match="line 7"):
        P.parse_cycles("(0 99)", 5, line=7)


def test_cycle_type_and_order():
    p = P.parse_cycles("(0 1 2 3)(4 5)", 8)
    assert P.perm_order(p) == 4


@given(st.permutations(list(range(7))))
def test_format_parse_roundtrip(perm):
    arr = np.array(perm, dtype=np.int32)
    text = P.format_cycles(arr)
    assert np.array_equal(P.parse_cycles(text, 7), arr)

