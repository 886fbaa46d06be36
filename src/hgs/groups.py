"""Index-based finite group arithmetic.

A group of order n lives on the element set {0, .., n-1} with 0 the identity.
The multiplication table is the primary representation; groups above the
table cap are never materialized here (the holomorph machinery keeps them as
pairs instead).
"""

from __future__ import annotations

import os
from dataclasses import dataclass
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
CLOSURE_ELEMENT_CAP = 10**6
PERM_INPUT_DEGREE_CAP = 64


def table_cap() -> int:
    raw = os.environ.get("HGS_MAX_TABLE", "")
    if raw.strip():
        try:
            return int(raw)
        except ValueError:
            raise GroupError(f"HGS_MAX_TABLE must be an integer, got {raw!r}")
    return DEFAULT_TABLE_CAP


def _readonly(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


@dataclass(frozen=True)
class PermRep:
    """Faithful permutation representation: one image row per group element."""

    degree: int
    images: np.ndarray  # (order, degree)


class FiniteGroup:
    """Finite group as an n x n index table with identity at index 0.

    Instances are immutable after construction; all derived data (element
    orders, conjugacy classes, the search word tree over the generating set)
    is either computed up front or cached on first use.
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
        mul = np.ascontiguousarray(np.asarray(mul, dtype=np.int32))
        n = mul.shape[0]
        if mul.shape != (n, n):
            raise GroupError(f"multiplication table must be square, got {mul.shape}")
        if n == 0:
            raise GroupError("empty group")
        self.order = n
        self.mul = _readonly(mul)
        self.name = name
        self.perm_rep = perm_rep
        if validate:
            self._validate_table(assume_associative)
        self.inv = _readonly(self._compute_inverses())
        self.elt_order = _readonly(self._compute_element_orders())
        self._cache: dict = {}
        if gens is None:
            gens = self._greedy_generators()
        else:
            # given generators must generate: the search word tree shows it
            try:
                self._cache["stage_data"] = _search.StageData(mul, gens)
            except ValueError:
                raise GroupError("stored generators do not generate the group") from None
        self.gens = [int(g) for g in gens]

    # -- construction internals ------------------------------------------------

    def _validate_table(self, assume_associative: bool) -> None:
        n, mul = self.order, self.mul
        if mul.min() < 0 or mul.max() >= n:
            raise GroupError("table entries out of range")
        idx = np.arange(n, dtype=np.int32)
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

    def _compute_inverses(self) -> np.ndarray:
        inv = np.argmin(self.mul, axis=1).astype(np.int32)
        # argmin finds the column holding 0 in each row
        if not np.all(self.mul[np.arange(self.order), inv] == 0):
            raise GroupError("some element has no inverse")
        return inv

    def _compute_element_orders(self) -> np.ndarray:
        n, mul = self.order, self.mul
        orders = np.ones(n, dtype=np.int32)
        # walk x, x^2, ... for every x at once; z[i] = x[i]^k is not yet 0
        x = np.arange(1, n)
        z = x
        k = 1
        while len(x):
            if k >= n:  # an element of a group of order n has x^n = 1
                raise GroupError("element has no finite order")
            z = mul[z, x]
            k += 1
            done = z == 0
            orders[x[done]] = k
            x, z = x[~done], z[~done]
        return orders

    def _greedy_generators(self) -> list[int]:
        n = self.order
        if n == 1:
            return []
        gens: list[int] = []
        closed = np.zeros(n, dtype=bool)
        closed[0] = True
        while not closed.all():
            x = int(np.argmin(closed))
            gens.append(x)
            members = _closure_indices(self.mul, [0] + gens)
            closed[:] = False
            closed[members] = True
        return gens

    # -- basic queries -----------------------------------------------------------

    def mul_rows(self) -> list:
        """Table as a list of row lists (fast scalar indexing in hot loops)."""
        if "mul_rows" not in self._cache:
            self._cache["mul_rows"] = self.mul.tolist()
        return self._cache["mul_rows"]

    def inv_list(self) -> list:
        if "inv_list" not in self._cache:
            self._cache["inv_list"] = self.inv.tolist()
        return self._cache["inv_list"]

    def conj(self, g: int, x: int) -> int:
        """g x g^-1."""
        return int(self.mul[self.mul[g, x], self.inv[g]])

    def is_abelian(self) -> bool:
        if "abelian" not in self._cache:
            self._cache["abelian"] = bool(np.array_equal(self.mul, self.mul.T))
        return self._cache["abelian"]

    def conjugacy_classes(self) -> list[np.ndarray]:
        """Classes as sorted index arrays; class 0 is the identity class."""
        if "classes" in self._cache:
            return self._cache["classes"]
        n, mul = self.order, self.mul
        # column x of conj lists every g x g^-1, so its minimum is the least
        # member of the class of x; classes are numbered by that member
        conj = mul[mul, self.inv[:, None]]
        least = conj.min(axis=0)
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
    """A verified subgroup, stored as a sorted member index set."""

    parent: FiniteGroup
    members: np.ndarray  # sorted int64

    def __post_init__(self):
        members = np.unique(np.asarray(self.members, dtype=np.int64))
        object.__setattr__(self, "members", _readonly(members))
        if len(members) == 0 or members[0] != 0:
            raise GroupError("subgroup must contain the identity")
        sub = self.parent.mul[np.ix_(members, members)]
        if not self.member_mask()[sub].all():
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
        G = self.parent
        mask = self.member_mask()
        for g in G.gens:
            conj = G.mul[G.mul[g, self.members], G.inv[g]]
            if not mask[conj].all():
                return False
        return True

    def index(self) -> int:
        return self.parent.order // self.size

    def as_group(self, name: str | None = None) -> tuple[FiniteGroup, np.ndarray]:
        """Reindexed copy of the subgroup plus the member list embedding it."""
        members = self.members
        pos = np.full(self.parent.order, -1, dtype=np.int64)
        pos[members] = np.arange(len(members))
        table = pos[self.parent.mul[np.ix_(members, members)]]
        perm_rep = None
        if self.parent.perm_rep is not None:
            perm_rep = PermRep(self.parent.perm_rep.degree,
                               _readonly(self.parent.perm_rep.images[members].copy()))
        H = FiniteGroup(table.astype(np.int32), name=name, perm_rep=perm_rep,
                        validate=False, assume_associative=True)
        return H, members.copy()


# -- construction ------------------------------------------------------------


def _closure_indices(mul: np.ndarray, seed: Iterable[int]) -> np.ndarray:
    """Sorted members of the subgroup generated by seed.

    A breadth-first walk: each round multiplies the members first reached in
    the round before by every seed element, so each member is expanded once.
    In a finite group the products of seed elements already hold the
    identity and every inverse.
    """
    mask = np.zeros(len(mul), dtype=bool)
    mask[np.fromiter(seed, dtype=np.int64)] = True
    new = np.flatnonzero(mask)
    gens = new[new != 0]
    while len(new):
        reached = mask.copy()
        reached[mul[new[:, None], gens]] = True
        new = np.flatnonzero(reached & ~mask)
        mask = reached
    return np.flatnonzero(mask)


def _row_keys(rows: np.ndarray) -> np.ndarray:
    """One sortable opaque key per row of an int32 array."""
    rows = np.ascontiguousarray(rows, dtype=np.int32)
    return rows.view(np.dtype((np.void, 4 * rows.shape[1]))).ravel()


def perm_table(images: np.ndarray) -> np.ndarray:
    """Cayley table of a set of permutation rows closed under composition.

    ``mul[i, j]`` is the index of the row ``images[i][images[j]]``; the
    identity row must come first.  Rows are told apart by their images on
    a base, a set of points chosen greedily until those images differ.
    Only the rows of a greedy generating set are looked up, in one sorted
    search each; every other row is composed from known ones, since
    x = h p gives mul[x] = mul[h][mul[p]].  A looked-up row that misses the
    set raises, and every composed row is then in the set too.
    """
    images = np.ascontiguousarray(images, dtype=np.int32)
    n = len(images)
    if not np.array_equal(images[0], np.arange(images.shape[1])):
        raise GroupError("the identity row must come first")
    base: list[int] = []
    seen = 0
    for p in range(images.shape[1]):
        if seen == n:
            break
        distinct = len(np.unique(images[:, base + [p]], axis=0))
        if distinct > seen:
            base.append(p)
            seen = distinct
    if seen != n:
        raise GroupError("permutation rows are not distinct")
    on_base = np.ascontiguousarray(images[:, base])
    order = np.argsort(_row_keys(on_base))
    sorted_keys = _row_keys(on_base[order])
    mul = np.empty((n, n), dtype=np.int32)
    mul[0] = np.arange(n)
    known = np.zeros(n, dtype=bool)
    known[0] = True
    queue = [0]
    gens: list[int] = []
    while len(queue) < n:
        g = int(np.argmin(known))  # the first row not yet reached
        composed = images[g][on_base]
        mul[g] = order[np.minimum(np.searchsorted(sorted_keys, _row_keys(composed)), n - 1)]
        if not np.array_equal(on_base[mul[g]], composed):
            raise GroupError("permutation rows are not closed under composition")
        known[g] = True
        queue.append(g)
        gens.append(g)
        for p in queue:  # grows while it is walked
            for h in gens:
                x = mul[h, p]
                if not known[x]:
                    known[x] = True
                    mul[x] = mul[h][mul[p]]
                    queue.append(x)
    return mul


def from_mul_table(table, *, name: str | None = None, validate: bool = True) -> FiniteGroup:
    """Group from an explicit Cayley table; fully validated when small enough."""
    return FiniteGroup(np.asarray(table, dtype=np.int32), name=name, validate=validate)


def from_perm_gens(
    gen_perms: Sequence[np.ndarray],
    *,
    name: str | None = None,
    element_cap: int | None = None,
) -> FiniteGroup:
    """Group generated by permutations, closed by breadth-first multiplication.

    Elements are indexed in BFS discovery order from the identity, so index 0
    is automatically the identity; the generators become the stored
    generating set.
    """
    if not gen_perms:
        raise GroupError("need at least one generator permutation")
    degree = len(gen_perms[0])
    gens = []
    for i, p in enumerate(gen_perms):
        p = np.asarray(p, dtype=np.int32)
        if len(p) != degree:
            raise GroupError(f"generator {i} has degree {len(p)}, expected {degree}")
        if not P.is_permutation(p):
            raise GroupError(f"generator {i} is not a bijection")
        gens.append(p)
    cap = element_cap if element_cap is not None else CLOSURE_ELEMENT_CAP
    identity = P.identity_perm(degree)
    index_of = {identity.tobytes(): 0}
    elements = [identity]  # also the BFS queue
    pos = 0
    while pos < len(elements):
        x = elements[pos]
        pos += 1
        for g in gens:
            y = g[x]
            key = y.tobytes()
            if key not in index_of:
                if len(elements) >= cap:
                    raise CapExceededError(
                        f"closure exceeded the {cap}-element cap")
                index_of[key] = len(elements)
                elements.append(y)
    n = len(elements)
    if n > table_cap():
        raise CapExceededError(
            f"closure has {n} elements, above the table cap {table_cap()}")
    images = np.stack(elements)
    mul = perm_table(images)
    gen_indices = [index_of[g.tobytes()] for g in gens]
    # drop duplicate/identity generators but keep the given order
    seen: set[int] = set()
    gen_indices = [g for g in gen_indices if g != 0 and not (g in seen or seen.add(g))]
    return FiniteGroup(
        mul,
        name=name,
        perm_rep=PermRep(degree, _readonly(images.astype(np.int32))),
        gens=gen_indices,
        validate=False,
    )


def direct_product(A: FiniteGroup, B: FiniteGroup, *, name: str | None = None) -> FiniteGroup:
    """Direct product with elements encoded as a * |B| + b."""
    nA, nB = A.order, B.order
    n = nA * nB
    if n > table_cap():
        raise CapExceededError(f"product order {n} above table cap {table_cap()}")
    a1, b1 = np.divmod(np.arange(n, dtype=np.int64), nB)
    mul = (A.mul[a1[:, None], a1[None, :]].astype(np.int64) * nB
           + B.mul[b1[:, None], b1[None, :]])
    gens = [int(a * nB) for a in A.gens] + [int(b) for b in B.gens]
    g = FiniteGroup(mul.astype(np.int32), name=name, gens=gens,
                    validate=False, assume_associative=True)
    return g


def subgroup_closure(G: FiniteGroup, seed: Iterable[int]) -> Subgroup:
    """Smallest subgroup of G containing the seed elements."""
    members = _closure_indices(G.mul, list(seed) + [0])
    return Subgroup(G, members)


def trivial_subgroup(G: FiniteGroup) -> Subgroup:
    return Subgroup(G, np.array([0], dtype=np.int64))


def full_subgroup(G: FiniteGroup) -> Subgroup:
    return Subgroup(G, np.arange(G.order, dtype=np.int64))


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
    central = np.flatnonzero(np.all(G.mul == G.mul.T, axis=1))
    return Subgroup(G, central)


def centralizer(G: FiniteGroup, x: int) -> Subgroup:
    if not 0 <= x < G.order:
        raise GroupError(f"element index {x} out of range")
    hits = np.flatnonzero(G.mul[x, :] == G.mul[:, x])
    return Subgroup(G, hits)


def commutator_subgroup(G: FiniteGroup) -> Subgroup:
    """[G, G], generated by the commutators x s x^-1 s^-1 with s a generator.

    Those generate a normal subgroup, since
    y [x, s] y^-1 = [yx, s] [y, s]^-1, and it holds [a, b] for every pair of
    generators, whose normal closure is [G, G].
    """
    if "derived" in G._cache:
        return G._cache["derived"]
    x = np.arange(G.order)[:, None]
    s = np.array(G.gens, dtype=np.int64)
    comm = G.mul[G.mul[x, s], G.mul[G.inv[x], G.inv[s]]]
    result = subgroup_closure(G, comm.ravel())
    G._cache["derived"] = result
    return result


def is_perfect(G: FiniteGroup) -> bool:
    return commutator_subgroup(G).size == G.order


def is_solvable(G: FiniteGroup) -> bool:
    H = G
    while True:
        D = commutator_subgroup(H)
        if D.size == 1:
            return True
        if D.size == H.order:
            return False
        H, _ = D.as_group()


def normal_subgroups(G: FiniteGroup) -> list[Subgroup]:
    """All normal subgroups, as closures of unions of conjugacy classes."""
    if G.order > table_cap():
        raise CapExceededError(
            f"normal subgroup scan capped at order {table_cap()}")
    if "normal_subgroups" in G._cache:
        return G._cache["normal_subgroups"]
    classes = G.conjugacy_classes()
    found: dict[bytes, np.ndarray] = {}
    trivial = np.array([0], dtype=np.int64)
    found[trivial.tobytes()] = trivial
    frontier = [trivial]
    while frontier:
        base = frontier.pop()
        in_base = np.zeros(G.order, dtype=bool)
        in_base[base] = True
        for cls in classes:
            if cls[0] == 0 or in_base[cls].all():
                continue
            joined = _closure_indices(G.mul, np.concatenate([base, cls]))
            key = joined.tobytes()
            if key not in found:
                found[key] = joined
                frontier.append(joined)
    subs = [Subgroup(G, m) for m in sorted(found.values(), key=lambda m: (len(m), m.tolist()))]
    if not all(s.is_normal() for s in subs):
        raise EngineError("a union of conjugacy classes closed to a non-normal subgroup")
    G._cache["normal_subgroups"] = subs
    return subs


def quotient_group(G: FiniteGroup, N: Subgroup,
                   *, name: str | None = None) -> tuple[FiniteGroup, np.ndarray]:
    """Quotient G/N for normal N; returns the quotient and the coset map."""
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
    Q = FiniteGroup(table.astype(np.int32), name=name, validate=False,
                    assume_associative=True)
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
    census = tuple(sorted((int(k), int(np.count_nonzero(orders == k)))
                          for k in np.unique(orders)))
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
