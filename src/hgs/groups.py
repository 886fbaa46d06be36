"""Index-based finite group arithmetic.

A group of order n lives on the element set {0, .., n-1} with 0 the identity.
The multiplication table is the primary representation; groups above the
table cap are never materialized here (the holomorph machinery keeps them as
pairs instead).
"""

from __future__ import annotations

import math
import os
from dataclasses import InitVar, dataclass
from typing import Iterable, Sequence

import numpy as np

from . import _search
from . import perms as P


class GroupError(Exception):
    """A structural defect in group input (bad table, bad generators)."""


class EngineError(Exception):
    """An internal invariant failed; indicates a bug, not bad input."""


class CapExceededError(GroupError):
    """An operation would exceed the configured size cap."""


DEFAULT_TABLE_CAP = 2000
PERM_INPUT_DEGREE_CAP = 64

# The one dtype of every array of element indices: tables, inverses,
# permutation rows, automorphism stacks, homomorphism images.  Indices
# 0..n-1 fit it up to order MAX_ORDER.  Values that are not element indices
# (element orders, pair codes, flat table offsets) stay wide, and any
# product of an index with an order is formed in a wide type first.
ELEMENT_DTYPE = np.int16
MAX_ORDER = int(np.iinfo(ELEMENT_DTYPE).max) + 1

# the element orders that the power walk of ``_compute_orders_and_inverses``
# finds step by step; larger ones are found by square-and-multiply
ORDER_WALK_LIMIT = 32


def table_cap() -> int:
    raw = os.environ.get("HGS_MAX_TABLE", "")
    if raw.strip():
        try:
            cap = int(raw)
        except ValueError:
            raise GroupError(f"HGS_MAX_TABLE must be an integer, got {raw!r}")
        if cap > MAX_ORDER:
            raise GroupError(f"HGS_MAX_TABLE must be at most {MAX_ORDER}, the "
                             f"most elements that indices can number, got {cap}")
        return cap
    return DEFAULT_TABLE_CAP


def _readonly(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


@dataclass(frozen=True)
class PermRep:
    """Faithful permutation representation: one image row per group element."""

    degree: int
    images: np.ndarray  # (order, degree), ELEMENT_DTYPE


class FiniteGroup:
    """Finite group as an n x n index table with identity at index 0.

    ``gens`` are effective generators of the group: none lies in the
    subgroup of the earlier ones.  They are the given ones less those, or
    greedy ones (``_greedy_closure``).  Instances are immutable; derived
    data (orders, classes, the search word tree) is cached on first use.
    """

    def __init__(
        self,
        mul: np.ndarray,
        *,
        name: str | None = None,
        perm_rep: PermRep | None = None,
        gens: Sequence[int] | None = None,
        validate: bool = True,
        assume_associative: bool = False,
    ):
        shape = np.shape(mul)  # read before anything is converted
        if shape and shape[0] > MAX_ORDER:
            raise CapExceededError(f"order {shape[0]} is above {MAX_ORDER}, the "
                                   f"most elements that indices can number")
        mul = np.asarray(mul)
        n = mul.shape[0]
        if mul.shape != (n, n):
            raise GroupError(f"multiplication table must be square, got {mul.shape}")
        if n == 0:
            raise GroupError("empty group")
        if mul.dtype != ELEMENT_DTYPE:
            # a wide entry out of range must not wrap into range
            if validate and (mul.min() < 0 or mul.max() >= n):
                raise GroupError("table entries out of range")
            mul = mul.astype(ELEMENT_DTYPE)
        self.order = n
        self.mul = _readonly(np.ascontiguousarray(mul))
        self.name = name
        self.perm_rep = perm_rep
        if validate:
            self._validate_table(assume_associative)
        orders, inv = self._compute_orders_and_inverses()
        self.inv = _readonly(inv)
        self.elt_order = _readonly(orders)
        self._cache: dict = {}
        self.gens = (self._greedy_generators() if gens is None
                     else _effective_generators(self.mul, gens))

    # -- construction internals ------------------------------------------------

    def _validate_table(self, assume_associative: bool) -> None:
        n, mul = self.order, self.mul
        if mul.min() < 0 or mul.max() >= n:
            raise GroupError("table entries out of range")
        idx = np.arange(n, dtype=ELEMENT_DTYPE)
        if not np.array_equal(mul[0], idx) or not np.array_equal(mul[:, 0], idx):
            raise GroupError("index 0 is not a two-sided identity")
        # every row and column must be a permutation (cancellation law):
        # sorted, each one reads 0, 1, .., n-1
        for side, lines in (("row", mul), ("column", mul.T)):
            if not (np.sort(lines, axis=1) == idx).all():
                raise GroupError(f"some {side} of the table is not a permutation")
        if not assume_associative:
            if n > table_cap():
                raise CapExceededError(
                    f"cannot exhaustively verify associativity at order {n} "
                    f"(cap {table_cap()}); construct from a permutation "
                    f"representation or a product rule instead"
                )
            for a in range(n):
                if not np.array_equal(mul[mul[a]], mul[a][mul]):
                    raise GroupError(f"associativity fails with left factor {a}")

    def _compute_orders_and_inverses(self) -> tuple[np.ndarray, np.ndarray]:
        """Element orders and inverses, over the whole element array at once.

        First a walk x, x^2, .. for every x together, up to the power
        ``ORDER_WALK_LIMIT``: z[i] = x[i]^k is not yet 0, and for x of order
        m the last power before 0, x^(m-1), is x^-1.  The elements
        still left (C720 has hundreds, of orders up to 720) are finished by
        square-and-multiply with exponents from n = |G|: for each prime
        power p^a exactly dividing n, y = x^(n/p^a) has order the p-part of
        ord(x), which is p^c for the fewest c raisings of y to the p that
        reach 1; the order is the product of those parts, and the inverse
        is x^(n-1).  Both are what the walk would give, because x^n = 1 in
        a group of order n.  A table that is not a group may have no such
        n: a y that is not 1 after a raisings, an order the walk should
        have reached, or an inverse that is not one, raise, as the walk
        does once it passes n.
        """
        n, mul = self.order, self.mul
        orders = np.ones(n, dtype=np.int64)  # an order, not an index: n may not fit
        inv = np.zeros(n, dtype=ELEMENT_DTYPE)
        x = np.arange(1, n)
        z = x
        k = 1
        while len(x) and k < ORDER_WALK_LIMIT:
            if k >= n:  # an element of a group of order n has x^n = 1
                raise GroupError("element has no finite order")
            last = z
            z = mul[z, x]
            k += 1
            done = z == 0
            orders[x[done]] = k
            inv[x[done]] = last[done]
            x, z = x[~done], z[~done]
        if len(x):
            order = np.ones(len(x), dtype=np.int64)
            for p, a in _prime_powers(n):
                y = _powers(mul, x, n // p ** a)
                for _ in range(a):
                    order[y != 0] *= p
                    y = _powers(mul, y, p)
                if y.any():
                    raise GroupError("element has no finite order")
            x_inv = _powers(mul, x, n - 1)
            if (order <= ORDER_WALK_LIMIT).any() or mul[x_inv, x].any():
                raise GroupError("element has no finite order")
            orders[x] = order
            inv[x] = x_inv
        return orders, inv

    def _greedy_generators(self) -> list[int]:
        gens, _ = _greedy_closure(self.mul, np.ones(self.order, dtype=bool))
        return gens

    # -- basic queries -----------------------------------------------------------

    def is_abelian(self) -> bool:
        """Whether G is its own center."""
        if "abelian" not in self._cache:
            self._cache["abelian"] = center(self).size == self.order
        return self._cache["abelian"]

    def conjugacy_classes(self) -> list[np.ndarray]:
        """Classes as sorted index arrays; class 0 is the identity class.

        Conjugation by the generators generates conjugation by G, so the
        class of x is its orbit under conjugation by them
        (``conjugation_orbit_least``).  Classes are numbered by their least
        member.
        """
        if "classes" in self._cache:
            return self._cache["classes"]
        n = self.order
        least = conjugation_orbit_least(self, self.gens)
        is_least = least == np.arange(n)
        cls_id = (np.cumsum(is_least, dtype=np.int64) - 1)[least]
        by_class = np.argsort(cls_id, kind="stable")
        bounds = np.cumsum(np.bincount(cls_id))[:-1]
        classes = np.split(by_class.astype(np.int64), bounds)
        self._cache["classes"] = classes
        self._cache["class_index"] = cls_id
        return classes

    def class_index(self) -> np.ndarray:
        self.conjugacy_classes()
        return self._cache["class_index"]

    def class_sizes_by_element(self) -> np.ndarray:
        if "class_size_by_elt" not in self._cache:
            classes = self.conjugacy_classes()
            sizes = np.zeros(self.order, dtype=np.int64)
            for c in classes:
                sizes[c] = len(c)
            self._cache["class_size_by_elt"] = sizes
        return self._cache["class_size_by_elt"]

    def __repr__(self) -> str:
        label = self.name or "group"
        return f"<FiniteGroup {label} of order {self.order}>"

    def __getstate__(self):
        state = self.__dict__.copy()
        state["_cache"] = {}  # caches hold unpicklable cross-references
        return state


@dataclass(frozen=True)
class Subgroup:
    """A verified subgroup, stored as a sorted member index set.

    The set is checked by generating it greedily from inside: each
    generator is its least member not yet reached, and the set is a
    subgroup exactly when the closure of these generators is the set.
    That costs O(|S| k) for k generators rather than the |S|^2 products
    of S.  Callers that have just built the set as a closure, sorted and
    distinct (``np.flatnonzero`` of a mask), pass ``_checked=True`` and
    skip that check and the sort.
    """

    parent: FiniteGroup
    members: np.ndarray  # sorted int64
    _checked: InitVar[bool] = False

    def __post_init__(self, _checked: bool):
        members = np.asarray(self.members if _checked else sorted_distinct(self.members),
                             dtype=np.int64)
        object.__setattr__(self, "members", _readonly(members))
        if len(members) == 0 or members[0] != 0:
            raise GroupError("subgroup must contain the identity")
        if not _checked:
            mask = self.member_mask()
            if not np.array_equal(_greedy_closure(self.parent.mul, mask)[1], mask):
                raise GroupError("subgroup members are not closed under multiplication")
        if self.parent.order % len(members) != 0:
            raise GroupError("subgroup size does not divide the group order")

    @property
    def size(self) -> int:
        return len(self.members)

    def member_mask(self) -> np.ndarray:
        mask = np.zeros(self.parent.order, dtype=bool)
        mask[self.members] = True
        return mask

    def contains(self, x: int) -> bool:
        i = int(np.searchsorted(self.members, x))
        return i < len(self.members) and self.members[i] == x

    def is_normal(self) -> bool:
        """Whether conjugation by each generator of the parent keeps the
        members inside."""
        conj = conjugation_rows(self.parent, self.parent.gens)
        return bool(self.member_mask()[conj[:, self.members]].all())

    def as_group(self, name: str | None = None) -> tuple[FiniteGroup, np.ndarray]:
        """Reindexed copy of the subgroup plus the member list embedding it."""
        members = self.members
        pos = np.full(self.parent.order, -1, dtype=ELEMENT_DTYPE)
        pos[members] = np.arange(len(members))
        # a take along each axis gathers about 2.5x faster than np.ix_; a
        # block of rows at a time keeps the intp widening of the pos lookup
        # near half a megabyte (``_search.row_blocks``)
        table = np.empty((len(members), len(members)), dtype=ELEMENT_DTYPE)
        for rows in _search.row_blocks(len(members), self.parent.order):
            block = self.parent.mul.take(members[rows], axis=0).take(members, axis=1)
            table[rows] = np.take(pos, block)
        perm_rep = None
        if self.parent.perm_rep is not None:
            perm_rep = PermRep(self.parent.perm_rep.degree,
                               _readonly(self.parent.perm_rep.images[members].copy()))
        H = FiniteGroup(table, name=name, perm_rep=perm_rep, validate=False)
        return H, members.copy()


def centralizer(G: FiniteGroup, elements) -> Subgroup:
    """C_G of a set of elements, or of one element: the x with x y = y x
    for every y of the set, found by comparing column y of the table with
    row y.  The centralizer of the empty set is G.  The centralizer of a
    set is that of any set generating the same subgroup, so callers pass
    generators."""
    y = np.atleast_1d(np.asarray(elements, dtype=np.intp))
    if y.size and not (0 <= y.min() and y.max() < G.order):
        raise GroupError(f"element indices {y.tolist()} out of range")
    commuting = (G.mul[:, y] == G.mul[y].T).all(axis=1)
    return Subgroup(G, np.flatnonzero(commuting), _checked=True)


def conjugation_rows(G: FiniteGroup, by) -> np.ndarray:
    """One row per element g of ``by``: the map x -> g x g^-1 on G."""
    g = np.asarray(by, dtype=np.intp)
    return G.mul[G.mul[g], G.inv[g][:, None]]


def conjugation_orbit_least(G: FiniteGroup, by: Sequence[int]) -> np.ndarray:
    """least[x]: the least member of the orbit of x under conjugation by
    the subgroup that the elements ``by`` generate.

    That orbit is the orbit under the k maps x -> g x g^-1, g in ``by``,
    one row each (``conjugation_rows``).  Every element's label starts as
    itself and is pulled down along those rows, with pointer jumping
    (least = least[least]) in between, until every row maps each label to
    itself: each label is then its orbit's least member, at O(n k) per
    round.
    """
    conj = conjugation_rows(G, by)
    least = np.arange(G.order)
    while True:
        for row in conj:
            least = np.minimum(least, least[row])
        least = least[least]
        if (least[conj] == least).all():  # constant on every orbit
            return least


# -- construction ------------------------------------------------------------


def _prime_powers(n: int) -> list[tuple[int, int]]:
    """(p, a) for each prime power p^a exactly dividing n."""
    out = []
    p = 2
    while p * p <= n:
        a = 0
        while n % p == 0:
            n //= p
            a += 1
        if a:
            out.append((p, a))
        p += 1
    if n > 1:
        out.append((n, 1))
    return out


def _powers(mul: np.ndarray, x: np.ndarray, e: int) -> np.ndarray:
    """x^e for every entry of x, by square-and-multiply on the table."""
    result = np.zeros(len(x), dtype=mul.dtype)
    while e:
        if e & 1:
            result = mul[result, x]
        e >>= 1
        if e:
            x = mul[x, x]
    return result


def _grow_closure(mul: np.ndarray, reached: np.ndarray, gens: list[int], g: int) -> None:
    """Grow the subgroup H marked in ``reached``, generated by gens, by g.

    In place, and g joins gens.  With g^j the first power of g inside H,
    the cosets H g, .., H g^(j-1) are distinct and new, and together with
    H they are closed under g.  So they are multiplied by the old
    generators only, and from there each newly reached member by every
    generator: no member is expanded twice.  H may also be M<gens> for a
    marked normal subgroup M that gens leave out: x m = (x m x^-1) x, so
    right products with M never leave the cosets of M reached.
    """
    powers = []
    p = g
    while not reached[p]:
        if len(powers) == len(mul):  # a table that is not a group
            raise GroupError("element has no finite order")
        powers.append(p)
        p = int(mul[p, g])
    by = np.asarray(gens, dtype=np.intp)
    gens.append(g)
    new = mul[np.flatnonzero(reached)[:, None], powers].ravel()
    reached[new] = True
    while len(new) and len(by):
        before = reached.copy()
        reached[mul[new[:, None], by]] = True
        new = np.flatnonzero(reached > before)  # reached only now
        by = np.asarray(gens, dtype=np.intp)


def _effective_generators(mul: np.ndarray, given: Sequence[int]) -> list[int]:
    """The given generators in order, less each one that the earlier ones
    generate; raises unless they generate the group."""
    reached = np.zeros(len(mul), dtype=bool)
    reached[0] = True
    gens: list[int] = []
    for g in map(int, given):
        if not 0 <= g < len(mul):
            raise GroupError(f"generator index {g} out of range")
        if not reached[g]:
            _grow_closure(mul, reached, gens, g)
    if not reached.all():
        raise GroupError("stored generators do not generate the group")
    return gens


def _greedy_closure(mul: np.ndarray, wanted: np.ndarray) -> tuple[list[int], np.ndarray]:
    """Greedy generators of the subgroup generated by the marked elements,
    and the mask of its members.

    Each generator is the least marked element not yet reached, and the
    closure grows one generator at a time (``_grow_closure``), at O(m k)
    for m members and k generators.  A marked set holding 0 is a subgroup
    exactly when the mask comes back equal to it.
    """
    reached = np.zeros(len(mul), dtype=bool)
    reached[0] = True
    gens: list[int] = []
    while True:
        g = int(np.argmax(wanted > reached))
        if reached[g]:  # argmax found no wanted element unreached
            return gens, reached
        _grow_closure(mul, reached, gens, g)


def _row_keys(rows: np.ndarray, word: int = 0) -> np.ndarray:
    """One key per row of nonnegative integers below 2^32, ordered as the
    rows are lexicographically.

    Entries take ``word`` bytes, by default 2 when they fit (element indices
    always do), else 4.  A row of at most 64 bits becomes one uint64, first
    entry highest: its words, last entry first, are the key's bytes read
    little-endian.  NumPy sorts and compares those natively.  A wider row
    is a void key of big-endian words, whose byte order is the rows' order.
    """
    k = rows.shape[1]
    narrow = rows.dtype.itemsize <= 2 or not rows.size or rows.max() < 1 << 16
    word = word or (2 if narrow else 4)
    if k * word <= 8:
        words = np.zeros((len(rows), 8 // word), dtype=f"<u{word}")
        words[:, :k] = rows[:, ::-1]
        return words.view("<u8").ravel()
    rows = np.ascontiguousarray(rows, dtype=f">u{word}")
    return rows.view(np.dtype((np.void, k * word))).ravel()


def row_sort_order(rows: np.ndarray) -> np.ndarray:
    """Indices that sort nonnegative integer rows lexicographically.

    Equal to ``np.lexsort(rows.T[::-1])``, ties included (the sort is
    stable), with one argsort over whole-row keys.
    """
    return np.argsort(_row_keys(rows), kind="stable")


def sorted_distinct(values: np.ndarray) -> np.ndarray:
    """``np.unique(values)`` for a 1-d array, ``np.unique(values, axis=0)``
    for a 2-d one of nonnegative integer rows: sort, then keep the first of
    every run of equal entries.

    NumPy's plain ``np.unique`` imports numpy.ma on its first call, about
    14 ms that nothing else here needs.
    """
    values = np.asarray(values)
    values = np.sort(values) if values.ndim == 1 else values[row_sort_order(values)]
    keep = np.ones(len(values), dtype=bool)
    differs = values[1:] != values[:-1]
    keep[1:] = differs if values.ndim == 1 else differs.any(axis=1)
    return values[keep]


class RowIndex:
    """Distinct rows of element indices, each found again by its whole row.

    Rows are told apart by their entries on a base, columns chosen greedily
    until those entries differ, and sorted by those entries.  ``find`` looks
    a row up in one sorted search on its base entries and keeps the match
    only when the whole row is equal.
    """

    def __init__(self, rows: np.ndarray):
        n = len(rows)
        if n > MAX_ORDER:
            raise CapExceededError(f"{n} rows are more than the "
                                   f"{MAX_ORDER} that indices can number")
        self.rows = np.ascontiguousarray(rows, dtype=ELEMENT_DTYPE)
        base: list[int] = []
        seen = 0
        for p in range(self.rows.shape[1]):
            if seen == n:
                break
            distinct = len(sorted_distinct(self.rows[:, base + [p]]))
            if distinct > seen:
                base.append(p)
                seen = distinct
        if seen != n:
            raise GroupError("rows are not distinct")
        self._base = base
        on_base = self.rows[:, base]
        self._order = np.argsort(_row_keys(on_base))
        self._keys = _row_keys(on_base[self._order])

    def find(self, rows: np.ndarray) -> np.ndarray:
        """The position of every row of ``rows`` (its last axis) among the
        indexed rows, or -1 where none of them equals it.  Rows go a block
        at a time (``_search.row_blocks``)."""
        rows = np.asarray(rows)
        flat = rows.reshape(-1, rows.shape[-1])
        found = np.empty(len(flat), dtype=np.intp)
        last = len(self._keys) - 1
        for part in _search.row_blocks(len(flat), flat.shape[1]):
            block = flat[part]
            keys = _row_keys(block[:, self._base])
            at = self._order[np.minimum(np.searchsorted(self._keys, keys), last)]
            at[(self.rows.take(at, axis=0) != block).any(axis=1)] = -1
            found[part] = at
        return found.reshape(rows.shape[:-1])

    def table(self) -> np.ndarray:
        """Cayley table of the rows, permutations with the identity first:
        ``mul[i, j]`` is the position of the row ``rows[i][rows[j]]``.

        Only generator rows are looked up, each composed with every row and
        found whole: each generator is the first row not yet reached.  A
        product that is no row raises GroupError.  Every other row is filled
        from known ones, x = h p giving mul[x] = mul[h][mul[p]] for a
        generator h, one breadth-first level at a time: per level and
        generator, one gather finds the new products x and one more fills
        their rows (``_compose_rows``).  Left multiplication by h is a
        bijection, so h meets each new x once; the row of x is the same
        whichever parent reaches it, so the fill order does not matter.
        A returned table thus shows the rows closed under composition.
        """
        images, n = self.rows, len(self.rows)
        if not np.array_equal(images[0], np.arange(images.shape[1])):
            raise GroupError("the identity row must come first")
        mul = np.empty((n, n), dtype=ELEMENT_DTYPE)
        mul[0] = np.arange(n)
        known = np.zeros(n, dtype=bool)
        known[0] = True
        gens: list[int] = []
        while not known.all():
            g = int(np.argmin(known))  # the first row not yet reached
            for rows in _search.row_blocks(n, images.shape[1]):
                # np.take gathers faster than a subscript
                mul[g, rows] = self.find(np.take(images[g], images[rows]))
            if (mul[g] < 0).any():
                raise GroupError("permutation rows are not closed under composition")
            known[g] = True
            gens.append(g)
            # the words w g reach every element of the group the gens generate
            level = np.array([g], dtype=np.intp)
            while len(level):
                reached = []
                for h in gens:
                    x = mul[h, level]
                    new = ~known[x]
                    x, parents = x[new], level[new]
                    known[x] = True
                    _compose_rows(mul, h, x, parents)
                    reached.append(x)
                level = np.concatenate(reached).astype(np.intp)
        return mul


class RowSet:
    """The rows a closure has met, keyed by ``_row_keys`` in fixed 32-bit words."""

    def __init__(self):
        self._keys: set = set()

    def add(self, rows: np.ndarray) -> np.ndarray:
        """Meet ``rows``; return the positions of the first copies of new ones."""
        seen, fresh = self._keys, []
        for i, key in enumerate(_row_keys(np.asarray(rows), 4).tolist()):
            if key not in seen:
                seen.add(key)
                fresh.append(i)
        return np.array(fresh, dtype=np.intp)

    def __contains__(self, row) -> bool:
        # the key _row_keys gives one row, built without arrays
        key, row = 0, row.tolist()
        for v in row:
            key = key << 32 | v
        return (key if len(row) <= 2 else key.to_bytes(4 * len(row), "big")) in self._keys


def _compose_rows(mul: np.ndarray, h: int, xs: np.ndarray, parents: np.ndarray) -> None:
    """mul[x] = mul[h][mul[p]] for each x = h p and its parent p.

    Rows are gathered a block at a time (``_search.row_blocks``): numpy
    widens an int16 index block to intp, so the temporaries stay near half
    a megabyte however many rows a level holds.
    """
    left = mul[h]
    for rows in _search.row_blocks(len(xs), len(mul)):
        # np.take gathers about twice as fast as the subscript left[...]
        mul[xs[rows]] = np.take(left, mul[parents[rows]])


def from_perm_gens(
    gen_perms: Sequence[np.ndarray],
    *,
    name: str | None = None,
) -> FiniteGroup:
    """Group generated by permutations, closed by breadth-first multiplication.

    Elements are indexed from the identity, 0, level by level: each level's
    elements in turn times every generator.  ``gens`` are the given ones, less
    redundant ones.  The closure stops at the first level past the table cap.
    """
    if not gen_perms:
        raise GroupError("need at least one generator permutation")
    degree = len(gen_perms[0])
    if degree > MAX_ORDER:
        raise CapExceededError(f"degree {degree} is above {MAX_ORDER}, the "
                               f"most points that indices can number")
    gens = []
    for i, p in enumerate(gen_perms):
        p = np.asarray(p, dtype=np.int64)  # checked wide, so nothing wraps
        if len(p) != degree:
            raise GroupError(f"generator {i} has degree {len(p)}, expected {degree}")
        if not P.is_permutation(p):
            raise GroupError(f"generator {i} is not a bijection")
        gens.append(p.astype(ELEMENT_DTYPE))
    cap, gens = table_cap(), np.stack(gens)
    level = np.arange(degree, dtype=ELEMENT_DTYPE)[None]
    seen, levels, size = RowSet(), [level], 1
    seen.add(level)
    while len(level):
        # row x m + j is generator j after element x of the level: g[x]
        moved = gens[:, level].transpose(1, 0, 2).reshape(-1, degree)
        level = moved[seen.add(moved)]
        size += len(level)
        if size > cap:
            raise CapExceededError(f"closure has more than {cap} elements, the table cap")
        levels.append(level)
    images = np.concatenate(levels)
    index = RowIndex(images)
    return FiniteGroup(index.table(), name=name,
                       perm_rep=PermRep(degree, _readonly(images)),
                       gens=index.find(gens).tolist(), validate=False)


def direct_product(A: FiniteGroup, B: FiniteGroup, *, name: str | None = None) -> FiniteGroup:
    """Direct product with elements encoded as a * |B| + b."""
    nA, nB = A.order, B.order
    n = nA * nB
    if n > table_cap():
        raise CapExceededError(f"product order {n} above table cap {table_cap()}")
    # a * |B| for each a of A: every entry a * |B| + b is below n, so the
    # element dtype holds it and (a, b)(a', b') sits at [a, b, a', b']
    scaled = (np.arange(nA) * nB).astype(ELEMENT_DTYPE)
    mul = (scaled[A.mul][:, None, :, None] + B.mul[None, :, None, :]).reshape(n, n)
    gens = [int(a * nB) for a in A.gens] + [int(b) for b in B.gens]
    return FiniteGroup(mul, name=name, gens=gens, validate=False)


def subgroup_closure(G: FiniteGroup, seed: Iterable[int]) -> Subgroup:
    """Smallest subgroup of G containing the seed elements."""
    wanted = np.zeros(G.order, dtype=bool)
    wanted[np.fromiter(seed, dtype=np.int64)] = True
    _, reached = _greedy_closure(G.mul, wanted)
    return Subgroup(G, np.flatnonzero(reached), _checked=True)


# -- element censuses and classical subgroups ---------------------------------


def order_census(G: FiniteGroup, k: int, region: str = "all",
                 subgroup: Subgroup | None = None) -> int:
    """Number of elements of exact order k in a region of G.

    region is one of "all", "inside", "outside"; the latter two count within
    or outside the given subgroup.
    """
    if k <= 0:
        raise GroupError("element order must be positive")
    hits = G.elt_order == k
    if region == "all":
        return int(np.count_nonzero(hits))
    if subgroup is None or subgroup.parent is not G:
        raise GroupError("inside/outside census needs a subgroup of G")
    mask = subgroup.member_mask()
    if region == "inside":
        return int(np.count_nonzero(hits & mask))
    if region == "outside":
        return int(np.count_nonzero(hits & ~mask))
    raise GroupError(f"unknown census region {region!r}")


def center(G: FiniteGroup) -> Subgroup:
    """Z(G): the centralizer of the generators."""
    return centralizer(G, G.gens)


def _derived_subgroup(G: FiniteGroup, members: np.ndarray,
                      gens: Sequence[int]) -> Subgroup:
    """[H, H] for H = <gens> with the given members, as the closure of the
    commutators x s x^-1 s^-1, x in H and s a generator.

    Those generate a normal subgroup of H, since
    y [x, s] y^-1 = [yx, s] [y, s]^-1, and it holds [a, b] for every pair of
    generators, whose normal closure is [H, H].
    """
    x = np.asarray(members)[:, None]
    s = np.array(gens, dtype=np.int64)
    comm = G.mul[G.mul[x, s], G.mul[G.inv[x], G.inv[s]]]
    return subgroup_closure(G, comm.ravel())


def commutator_subgroup(G: FiniteGroup) -> Subgroup:
    """[G, G], from the commutators of G with its generators."""
    if "derived" not in G._cache:
        G._cache["derived"] = _derived_subgroup(G, np.arange(G.order), G.gens)
    return G._cache["derived"]


def is_perfect(G: FiniteGroup) -> bool:
    return commutator_subgroup(G).size == G.order


def is_solvable(G: FiniteGroup) -> bool:
    """Whether the derived series, kept as subgroups of G, reaches 1."""
    D, size = commutator_subgroup(G), G.order
    while 1 < D.size < size:
        size = D.size
        gens, _ = _greedy_closure(G.mul, D.member_mask())
        D = _derived_subgroup(G, D.members, gens)
    return D.size == 1


def normal_subgroups(G: FiniteGroup) -> list[Subgroup]:
    """All normal subgroups, as joins of normal closures of conjugacy classes.

    Every normal subgroup is a union of classes, so it is the join of the
    subgroups its classes generate.  Those class closures are found first,
    once each (many classes close to the same subgroup: in C720 the 720
    singleton classes give only 30), and every normal subgroup found is
    then joined with each of them.  The join H K grows H by the greedy
    generators of K (``_grow_closure``), at O(|H K| k) for k of them,
    rather than forming the |H| |K| products of H K.
    """
    if G.order > table_cap():
        raise CapExceededError(
            f"normal subgroup scan capped at order {table_cap()}")
    if "normal_subgroups" in G._cache:
        return G._cache["normal_subgroups"]
    # each class closure keeps its greedy generators
    closures: dict[bytes, tuple[np.ndarray, list[int]]] = {}
    # x^k with gcd(k, ord x) = 1 generates <x>, so its class closes to the
    # same subgroup as the class of x: marked once x's class is closed
    known = np.zeros(G.order, dtype=bool)
    for cls in G.conjugacy_classes():
        if cls[0] == 0 or known[cls].any():
            continue
        wanted = np.zeros(G.order, dtype=bool)
        wanted[cls] = True
        gens, reached = _greedy_closure(G.mul, wanted)
        closure = np.flatnonzero(reached)
        closures.setdefault(closure.tobytes(), (closure, gens))
        x = int(cls[0])
        m = int(G.elt_order[x])
        powers = [0, x]
        for _ in range(m - 2):
            powers.append(int(G.mul[powers[-1], x]))
        known[[p for k, p in enumerate(powers) if math.gcd(k, m) == 1]] = True
    found: dict[bytes, np.ndarray] = {}
    trivial = np.array([0], dtype=np.int64)
    found[trivial.tobytes()] = trivial
    frontier = [trivial]
    while frontier:
        base = frontier.pop()
        in_base = np.zeros(G.order, dtype=bool)
        in_base[base] = True
        for closure, gens in closures.values():
            if in_base[closure].all():
                continue
            # the base H is normal, so H x h = H (x h x^-1) x for h in H: the
            # join grows from H by the closure's generators alone
            reached = in_base.copy()
            grown: list[int] = []
            for g in gens:
                if not reached[g]:
                    _grow_closure(G.mul, reached, grown, g)
            joined = np.flatnonzero(reached)
            key = joined.tobytes()
            if key not in found:
                found[key] = joined
                frontier.append(joined)
    subs = [Subgroup(G, m, _checked=True)
            for m in sorted(found.values(), key=lambda m: (len(m), m.tolist()))]
    if not all(s.is_normal() for s in subs):
        raise EngineError("a union of conjugacy classes closed to a non-normal subgroup")
    G._cache["normal_subgroups"] = subs
    return subs


def quotient_group(G: FiniteGroup, N: Subgroup,
                   *, name: str | None = None) -> tuple[FiniteGroup, np.ndarray]:
    """Quotient G/N for normal N; returns the quotient and the coset map."""
    if N.parent is not G:
        raise GroupError("can only quotient by a subgroup of the group itself, got one of "
                         f"{N.parent.name or 'another group'} for {G.name or 'this group'}")
    if not N.is_normal():
        raise GroupError("can only quotient by a normal subgroup")
    n = G.order
    coset_of = np.full(n, -1, dtype=np.int64)
    reps: list[int] = []
    for x in range(n):
        if coset_of[x] >= 0:
            continue
        coset = G.mul[x, N.members]
        coset_of[coset] = len(reps)
        reps.append(x)
    m = len(reps)
    reps_arr = np.array(reps, dtype=np.int64)
    table = coset_of[G.mul[np.ix_(reps_arr, reps_arr)]]
    Q = FiniteGroup(table.astype(ELEMENT_DTYPE), name=name, validate=False)
    return Q, _readonly(coset_of)


# -- abelian invariants (for fingerprints) -------------------------------------


def abelian_invariants(G: FiniteGroup) -> tuple[int, ...]:
    """Invariant factors of the abelianization G/[G,G]."""
    D = commutator_subgroup(G)
    Q, _ = quotient_group(G, D)
    # Q is abelian: peel off cyclic factors of maximal order
    factors: list[int] = []
    remaining = Q
    while remaining.order > 1:
        x = int(np.argmax(remaining.elt_order))
        factors.append(int(remaining.elt_order[x]))
        cyc = subgroup_closure(remaining, [x])
        remaining, _ = quotient_group(remaining, cyc)
    return tuple(sorted(factors))


def fingerprint(G: FiniteGroup) -> tuple:
    """Cheap isomorphism invariants: censuses, center, classes, abelianization."""
    if "fingerprint" in G._cache:
        return G._cache["fingerprint"]
    orders = G.elt_order
    census = tuple((k, int(c)) for k, c in enumerate(np.bincount(orders).tolist()) if c)
    classes = G.conjugacy_classes()
    class_profile = tuple(sorted((len(c), int(orders[c[0]])) for c in classes))
    fp = (
        G.order,
        census,
        center(G).size,
        class_profile,
        commutator_subgroup(G).size,
        abelian_invariants(G),
    )
    G._cache["fingerprint"] = fp
    return fp
