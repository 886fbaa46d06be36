"""Homomorphism enumeration and automorphism group construction."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Optional

import numpy as np

from . import _search
from .groups import (
    ELEMENT_DTYPE,
    CapExceededError,
    EngineError,
    FiniteGroup,
    GroupError,
    RowIndex,
    RowSet,
    Subgroup,
    center,
    centralizer,
    conjugation_orbit_least,
    conjugation_rows,
    fingerprint,
    row_sort_order,
    sorted_distinct,
    table_cap,
    _greedy_closure,
    _readonly,
)


class Homomorphism:
    """A total map between finite groups, stored as an image sequence.

    Construction runs the generator certificate
    (``_search.generator_certificate``), so every instance in circulation is
    a verified homomorphism.
    """

    __slots__ = ("source", "target", "images")

    def __init__(self, source: FiniteGroup, target: FiniteGroup, images,
                 *, _checked: bool = False):
        images = np.ascontiguousarray(np.asarray(images, dtype=ELEMENT_DTYPE))
        if images.shape != (source.order,):
            raise GroupError("image sequence length must equal the source order")
        if images[0] != 0:
            raise GroupError("homomorphism must send identity to identity")
        if not _checked and not _search.generator_certificate(source, target, images):
            raise GroupError("map is not multiplicative")
        self.source = source
        self.target = target
        self.images = _readonly(images)

    def __call__(self, x: int) -> int:
        return int(self.images[x])

    def kernel(self) -> Subgroup:
        return Subgroup(self.source, np.flatnonzero(self.images == 0))

    def image(self) -> Subgroup:
        return Subgroup(self.target, self.images)

    def is_injective(self) -> bool:
        return len(sorted_distinct(self.images)) == self.source.order

    def __repr__(self) -> str:
        return (f"<Homomorphism {self.source.name or '?'} -> "
                f"{self.target.name or '?'}>")


@dataclass
class AutomorphismGroup:
    """Aut(base) with its own multiplication table.

    ``perms[i]`` realizes carrier element i as a permutation of the base
    group; ``inner`` marks the inner automorphisms inside the carrier;
    ``index`` finds carrier indices of permutations of the base.
    """

    base: FiniteGroup
    carrier: FiniteGroup
    perms: np.ndarray  # (|Aut|, |base|), ELEMENT_DTYPE
    inner: Subgroup
    index: RowIndex  # over perms

    @property
    def order(self) -> int:
        return self.carrier.order


def _iso_candidates(G: FiniteGroup, H: FiniteGroup) -> Optional[list[list[int]]]:
    """Per-generator image candidates in H: same element order, same class size.

    None when some generator of G has invariants no element of H shares.
    """
    bins: dict[tuple[int, int], list[int]] = {}
    sizes_h = H.class_sizes_by_element()
    for x in range(H.order):
        bins.setdefault((int(H.elt_order[x]), int(sizes_h[x])), []).append(x)
    sizes = G.class_sizes_by_element()
    out = []
    for g in G.gens:
        key = (int(G.elt_order[g]), int(sizes[g]))
        if key not in bins:
            return None
        out.append(bins[key])
    return out


def _first_per_label(candidates: list[int], labels: np.ndarray) -> list[int]:
    """The first candidate of each label, in the candidates' order."""
    first = np.unique(labels[candidates], return_index=True)[1]
    return [candidates[i] for i in sorted(first)]


def class_cut(T: FiniteGroup, candidates: list[list[int]]) -> list[list[int]]:
    """Keep, for the first generator, the first candidate of each class of T.

    The first list must be a union of conjugacy classes of T.  A search
    whose maps come in orbits closed under conjugation by T still meets
    every orbit after the cut: if m(g1) = h r h^-1 for the kept
    representative r, then h^-1 m h sends g1 to r.  Order is kept, and the
    later generators' lists are left whole.
    """
    if not candidates:  # the trivial source has no generators
        return candidates
    return [_first_per_label(candidates[0], T.class_index())] + candidates[1:]


def _isomorphisms(G: FiniteGroup, H: FiniteGroup) -> Iterator[np.ndarray]:
    """Image arrays of isomorphisms G -> H: at least one from every class
    of them under composition with the inner automorphisms of H, and none
    when G and H are not isomorphic.

    The search keeps no value twice, and a generator's images keep its
    element order and class size (``_iso_candidates``).  An isomorphism
    psi followed by conjugation with h is again one, so the search is cut
    twice without losing a class.  First, g1 -> h r h^-1 becomes g1 -> r
    after conjugation by h^-1, so one image r per class of H is tried
    (``class_cut``).  Then each r is its own branch: conjugation by z in
    the centralizer C_H(r) fixes r and moves g2's image s to z s z^-1, so
    the branch keeps one image of g2 per C_H(r)-orbit.  g2's candidates
    are a union of classes of H, so they hold each orbit whole.  With one
    generator there is nothing to cut.  Each branch is one staged search,
    in the order of the kept images; branches are made lazily, so a
    caller that stops early computes no further centralizers.  For
    abelian H the classes and orbits are singletons, so the branches
    would emit the maps of the one plain search in its order; that search
    runs instead.
    """
    candidates = _iso_candidates(G, H)
    if candidates is None:
        return
    abelian = H.is_abelian()
    if not abelian:
        candidates = class_cut(H, candidates)
    if abelian or len(candidates) < 2:
        yield from _search.iter_hom_images(G, H, candidates, bijective=True)
        return
    for r in candidates[0]:
        orbit_gens, _ = _greedy_closure(H.mul, centralizer(H, r).member_mask())
        second = _first_per_label(candidates[1], conjugation_orbit_least(H, orbit_gens))
        yield from _search.iter_hom_images(G, H, [[r], second, *candidates[2:]],
                                           bijective=True)


def outer_coset_reps(G: FiniteGroup) -> np.ndarray:
    """One automorphism of G per coset Inn(G) . psi of Aut(G), a row each,
    in the order the search meets the cosets; so [Aut(G) : Inn(G)] is the
    number of rows.

    The isomorphism search G -> G (``_isomorphisms``) meets every coset;
    each map whose generator images no coset met so far holds starts a
    new one.  A coset is kept by its rows on the generators alone, h
    phi(g) h^-1 for one h per inner automorphism, so no conjugation row
    of all of G is built.  When two generators generate G, each coset is met
    once per branch: a map that also fixes g2's image differs by
    conjugation with a central element, which is the same map.  For
    abelian G the classes and orbits are singletons and this is the plain
    search.  Cached on G; ``automorphism_group`` builds Aut(G) from the
    same cosets.
    """
    if "outer_coset_reps" in G._cache:
        return G._cache["outer_coset_reps"]
    if G.order > table_cap():
        raise CapExceededError(
            f"automorphism search capped at order {table_cap()}")
    gens = np.asarray(G.gens, dtype=np.intp)
    # one h per distinct map x -> h x h^-1, told apart on the generators
    hs = RowSet().add(G.mul[G.mul[:, gens], G.inv[:, None]])
    h_col, h_inv = hs[:, None], G.inv[hs][:, None]
    reps = []
    covered = RowSet()
    for phi in _isomorphisms(G, G):
        if phi[gens] not in covered:
            # the coset Inn(G) . phi, on the generators
            covered.add(G.mul[G.mul[h_col, phi[gens]], h_inv])
            reps.append(phi)
    if not reps:
        raise GroupError("automorphism search lost the identity map")
    reps = _readonly(np.stack(reps))
    G._cache["outer_coset_reps"] = reps
    return reps


def conjugators(G: FiniteGroup, phi: np.ndarray) -> np.ndarray:
    """The h with phi = c_h (x -> h x h^-1), told apart on the generators,
    which fix a homomorphism: empty when the automorphism phi is not inner."""
    gens = np.asarray(G.gens, dtype=np.intp)
    inner = G.mul[G.mul[:, gens], G.inv[:, None]]  # row h: c_h on the generators
    return np.flatnonzero((inner == phi[gens]).all(axis=1))


def automorphism_group(G: FiniteGroup) -> AutomorphismGroup:
    """All automorphisms of G: the Inn(G)-cosets of every searched
    representative (``outer_coset_reps``), built by ``coset_group``.

    Carrier order: identity first, the rest by image-sequence order, which
    depends on the set of automorphisms alone and not on which coset
    representatives the search met.
    """
    if "aut" in G._cache:
        return G._cache["aut"]
    carrier, index, inner_of = coset_group(G, outer_coset_reps(G),
                                           f"Aut({G.name})" if G.name else "Aut")
    inner = Subgroup(carrier, inner_of)
    z = center(G).size
    if inner.size * z != G.order:
        raise GroupError("inner automorphism count disagrees with the center")
    aut = AutomorphismGroup(G, carrier, index.rows, inner, index)
    G._cache["aut"] = aut
    return aut


def coset_group(G: FiniteGroup, reps: np.ndarray,
                name: str) -> tuple[FiniteGroup, RowIndex, np.ndarray]:
    """The group of the automorphisms in the cosets Inn(G) . reps[i], each
    added whole: its carrier, the ``RowIndex`` of its rows (maps G -> G)
    and the carrier index of each inner automorphism.

    ``reps`` are rows of ``outer_coset_reps``, one of them inner.  The
    rows are sorted (``_sorted_stack``), so the identity comes first and
    the carrier depends on the set of automorphisms alone.  The inner
    table is dropped once the inner rows are found, before the carrier
    table is built, so the build holds little more than its result.

    The carrier is certified on its generator rows alone
    (``_certified_carrier``).  ``RowIndex.table`` finds every product of a
    generator row with a row as a whole row, or raises, so the cosets are
    closed under composition and every row is a composition of the
    carrier's generator rows; a composition of homomorphisms is one, so
    the certificate on those few rows proves what it would prove on every
    row.
    """
    # row h: x -> h x h^-1, one row per inner automorphism
    inn = conjugation_rows(G, np.arange(G.order))
    inn = inn[RowSet().add(inn[:, G.gens])]
    # the identity is the least permutation, so it sorts first
    perms = _readonly(_sorted_stack(inn, reps))
    if not np.array_equal(perms[0], np.arange(G.order)):
        raise EngineError("the automorphism cosets miss the identity map")
    index = RowIndex(perms)
    inner_of = index.find(inn)  # the carrier index of each c_h
    del inn  # the carrier table is built without it
    return _certified_carrier(G, index, name), index, inner_of


def _sorted_stack(inn: np.ndarray, reps: np.ndarray) -> np.ndarray:
    """The rows inn[h][reps[i]], for every h and i, in lexicographic order.

    The rows are ordered by their first c entries alone, c = 4 at first
    and doubled only while two of those prefixes tie.  That is the order
    of the whole rows once no prefixes tie, and at c = |G| it is
    ``row_sort_order`` of the whole stack, ties and all.  The sorted stack
    is then gathered from ``inn`` a block of rows at a time
    (``_search.row_blocks``), so no unsorted copy and no whole-row keys
    are ever built.  Each block is one flat take from ``inn`` at
    h * |G| + reps[i], which a fancy index over the pair (h, reps[i])
    gathers about twice as slowly.
    """
    k, n = reps.shape
    c = min(4, n)
    while True:
        prefix = inn[:, reps[:, :c]].reshape(-1, c)  # row (h, i) at h * k + i
        order = row_sort_order(prefix)
        prefix = prefix[order]
        if c == n or not (prefix[1:] == prefix[:-1]).all(axis=1).any():
            break
        c = min(2 * c, n)
    h, i = np.divmod(order, k)
    h *= n  # the flat offset of row h
    flat = inn.ravel()
    stack = np.empty((len(order), n), dtype=inn.dtype)
    for rows in _search.row_blocks(len(order), n):
        np.take(flat, h[rows, None] + reps[i[rows]], out=stack[rows])
    return stack


def _certified_carrier(G: FiniteGroup, index: RowIndex, name: str) -> FiniteGroup:
    """The group of the rows of ``index``, maps G -> G certified as
    homomorphisms on the generator rows (``coset_group`` says why that
    suffices).  EngineError when the rows are not closed under
    composition or a generator row fails the certificate.
    """
    try:
        mul = index.table()
    except GroupError as exc:
        raise EngineError(f"the automorphisms do not form a group: {exc}") from exc
    carrier = FiniteGroup(mul, name=name, validate=False)
    if not _search.generator_certificate(G, G, index.rows[carrier.gens]):
        raise EngineError("an automorphism fails the generator certificate")
    return carrier


def _hom_candidates(S: FiniteGroup, T: FiniteGroup) -> list[list[int]]:
    by_divisor: dict[int, list[int]] = {}
    out = []
    for g in S.gens:
        m = int(S.elt_order[g])
        if m not in by_divisor:
            by_divisor[m] = [t for t in range(T.order) if m % int(T.elt_order[t]) == 0]
        out.append(by_divisor[m])
    return out


def enumerate_homomorphisms(S: FiniteGroup, T: FiniteGroup) -> Iterator[Homomorphism]:
    """Every homomorphism S -> T exactly once, in a deterministic order."""
    for img in _search.iter_hom_images(S, T, _hom_candidates(S, T)):
        yield Homomorphism(S, T, img, _checked=True)


def count_injective_homomorphisms(S: FiniteGroup, T: FiniteGroup) -> int:
    """The number of injective homomorphisms S -> T.

    The search keeps no value twice, so it meets only injective maps, and
    it tries one first-generator image r per conjugacy class of T
    (``class_cut``).  Post-composition with conjugation by h is a
    bijection from the maps with g1 -> r onto those with g1 -> h r h^-1,
    and it keeps injectivity, so each map found stands for the size of
    the class of r.
    """
    gens = S.gens
    if not gens:  # the trivial source: its one map is injective
        return 1
    sizes = T.class_sizes_by_element()
    candidates = class_cut(T, _hom_candidates(S, T))
    return sum(int(sizes[img[gens[0]]])
               for img in _search.iter_hom_images(S, T, candidates, bijective=True))


def fixed_points(phi: Homomorphism, psi: Homomorphism) -> np.ndarray:
    """Elements where the two maps agree; size one means fixed point free."""
    if phi.source is not psi.source or phi.target is not psi.target:
        raise GroupError("fixed points need a shared source and target")
    return np.flatnonzero(phi.images == psi.images)


def are_isomorphic(G: FiniteGroup, H: FiniteGroup) -> Optional[Homomorphism]:
    """An isomorphism G -> H, or None when there is none.

    Invariant fingerprints reject most non-isomorphic pairs before any
    search; the remainder takes the first map of ``_isomorphisms``, which
    is the first in its branches' order, not the least overall.
    """
    if G.order != H.order or fingerprint(G) != fingerprint(H):
        return None
    img = next(_isomorphisms(G, H), None)
    return None if img is None else Homomorphism(G, H, img, _checked=True)
