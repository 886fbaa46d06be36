"""Small finite fields with exhaustively checkable tables: GF(p) for every
prime p, and GF(4), GF(8) and GF(9), the prime powers that the catalog's
matrix groups use (q <= 11).

Every field is GF(p)[x] modulo a monic irreducible polynomial of degree k,
GF(p) itself being GF(p)[x]/(x).  Elements are dense indices 0..q-1
encoding coefficient tuples little-endian in base p
(index = c0 + c1*p + c2*p^2).  The reducing moduli of GF(4), GF(8) and
GF(9) are pinned below so element encodings are stable across runs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


class FieldError(ValueError):
    pass


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


# ascending coefficients, monic: [a0, a1, ..., 1] for a0 + a1 x + ... + x^k
_MODULI: dict[tuple[int, int], tuple[int, ...]] = {
    (2, 2): (1, 1, 1),        # x^2 + x + 1
    (2, 3): (1, 1, 0, 1),     # x^3 + x + 1
    (3, 2): (1, 0, 1),        # x^2 + 1
}


@dataclass(frozen=True)
class GaloisField:
    q: int
    add: np.ndarray   # (q, q)
    mul: np.ndarray   # (q, q)
    neg: np.ndarray   # (q,)
    inv: np.ndarray   # (q,), inv[0] = 0 as a sentinel


def _poly_mul_mod(a: list[int], b: list[int], modulus: tuple[int, ...], p: int) -> list[int]:
    k = len(modulus) - 1
    prod = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                prod[i + j] = (prod[i + j] + ai * bj) % p
    # reduce by the monic modulus
    for d in range(len(prod) - 1, k - 1, -1):
        c = prod[d]
        if c:
            prod[d] = 0
            for j in range(k):
                prod[d - k + j] = (prod[d - k + j] - c * modulus[j]) % p
    out = prod[:k]
    out += [0] * (k - len(out))
    return out


_FIELD_CACHE: dict[int, GaloisField] = {}


def gf(q: int) -> GaloisField:
    """The field with q elements; q must be a prime, 4, 8 or 9."""
    if q in _FIELD_CACHE:
        return _FIELD_CACHE[q]
    p, k = None, None
    for prime in range(2, q + 1):
        if not _is_prime(prime):
            continue
        for kk in (1, 2, 3):
            if prime ** kk == q:
                p, k = prime, kk
                break
        if p:
            break
    if p is None:
        raise FieldError(f"{q} is not a prime power p^k with k <= 3")
    modulus = (0, 1) if k == 1 else _MODULI.get((p, k))  # GF(p) = GF(p)[x]/(x)
    if modulus is None:
        raise FieldError(f"no pinned modulus for GF({p}^{k})")

    def decode(x: int) -> list[int]:
        out = []
        for _ in range(k):
            out.append(x % p)
            x //= p
        return out

    def encode(c: list[int]) -> int:
        v = 0
        for d in reversed(c):
            v = v * p + d
        return v

    add = np.empty((q, q), dtype=np.int64)
    mul = np.empty((q, q), dtype=np.int64)
    for x in range(q):
        cx = decode(x)
        for y in range(q):
            cy = decode(y)
            add[x, y] = encode([(a + b) % p for a, b in zip(cx, cy)])
            mul[x, y] = encode(_poly_mul_mod(cx, cy, modulus, p))
    neg = np.array([encode([(-c) % p for c in decode(x)]) for x in range(q)],
                   dtype=np.int64)
    inv = np.zeros(q, dtype=np.int64)
    for x in range(1, q):
        hits = np.flatnonzero(mul[x] == 1)
        if len(hits) != 1:
            raise FieldError(f"modulus for GF({p}^{k}) is not irreducible")
        inv[x] = hits[0]
    for a in (add, mul, neg, inv):
        a.setflags(write=False)
    field = GaloisField(q, add, mul, neg, inv)
    _FIELD_CACHE[q] = field
    return field


def field_axioms_hold(F: GaloisField) -> bool:
    """Exhaustive field-axiom check; intended for q <= 81."""
    q = F.q
    idx = np.arange(q)
    if not np.array_equal(F.add, F.add.T) or not np.array_equal(F.mul, F.mul.T):
        return False
    if not np.array_equal(F.add[0], idx) or not np.array_equal(F.mul[1], idx):
        return False
    if not np.all(F.add[idx, F.neg[idx]] == 0):
        return False
    if not np.all(F.mul[idx[1:], F.inv[idx[1:]]] == 1):
        return False
    for a in range(q):
        # associativity of both operations and distributivity
        if not np.array_equal(F.add[F.add[a]], F.add[a][F.add]):
            return False
        if not np.array_equal(F.mul[F.mul[a]], F.mul[a][F.mul]):
            return False
        if not np.array_equal(F.mul[a][F.add], F.add[F.mul[a][:, None], F.mul[a][None, :]]):
            return False
    return True
