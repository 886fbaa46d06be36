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
    conjugation_orbit_least,
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

    def is_surjective(self) -> bool:
        return len(sorted_distinct(self.images)) == self.target.order

    def __repr__(self) -> str:
        return (f"<Homomorphism {self.source.name or '?'} -> "
                f"{self.target.name or '?'}>")


@dataclass
class AutomorphismGroup:
    """Aut(base) with its own multiplication table.

    ``perms[i]`` realizes carrier element i as a permutation of the base
    group; ``inner`` marks the inner automorphisms inside the carrier;
    ``inner_of`` is the carrier index of each distinct conjugation
    x -> h x h^-1, the first h of each coset of the center, so for a
    centerless base ``inner_of[h]`` is c_h itself; ``index`` finds carrier
    indices of permutations of the base.
    """

    base: FiniteGroup
    carrier: FiniteGroup
    perms: np.ndarray  # (|Aut|, |base|), ELEMENT_DTYPE
    inner: Subgroup
    inner_of: np.ndarray  # (|Inn|,), ELEMENT_DTYPE
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


def _inn_branches(T: FiniteGroup, candidates: list[list[int]]) -> Iterator[list[list[int]]]:
    """One search branch per kept first-generator image r in the target T.

    Branch r fixes g1 -> r and keeps, for the second generator, the first
    candidate in each orbit of the centralizer C_T(r) acting by
    conjugation.  Conjugation by z in C_T(r) fixes r, so it moves a map
    with g1 -> r, g2 -> s to one with g1 -> r, g2 -> z s z^-1, the same
    map followed by an inner automorphism of T.  Both searches that use
    it, Aut(G) (T = G) and the isomorphisms G -> T, are closed under that
    composition, so each class of maps that meets g1 -> r still meets the
    branch.  The second list must be a union of classes of T, so it holds
    the whole orbit of each of its candidates.  With one generator there
    is nothing to cut.  Branches are made lazily, so a search that stops
    early computes no further centralizers.
    """
    if len(candidates) < 2:
        yield candidates
        return
    for r in candidates[0]:
        centralizer_gens, _ = _greedy_closure(T.mul, T.mul[r] == T.mul[:, r])
        least = conjugation_orbit_least(T, centralizer_gens)
        yield [[r], _first_per_label(candidates[1], least), *candidates[2:]]


def automorphism_group(G: FiniteGroup) -> AutomorphismGroup:
    """All automorphisms of G, as Inn(G)-cosets of searched representatives.

    Inn(G) is built directly by conjugation.  Every automorphism psi sends
    the first effective generator g1 into the conjugacy class of some class
    representative r, say psi(g1) = h r h^-1; then c_h^-1 . psi sends g1 to
    r.  Among the maps with g1 -> r, conjugation by the centralizer C_G(r)
    moves the second generator's image within its C_G(r)-orbit and stays
    in the coset.  So one staged search per kept r, with g2 restricted to
    one candidate per C_G(r)-orbit (``_inn_branches``), finds a map in
    every coset Inn(G) . psi; each coset not yet covered is added whole.
    When two generators generate G, each coset is met once per branch: a
    map that also fixes g2's image differs by conjugation with a central
    element, which is the same map.  For abelian G the classes and orbits
    are singletons and this is the plain search.

    Carrier order: identity first, the rest by image-sequence order, which
    depends on the set of automorphisms alone and not on which coset
    representatives the search met.  All rows pass the generator
    certificate before the carrier is built.
    """
    if "aut" in G._cache:
        return G._cache["aut"]
    if G.order > table_cap():
        raise CapExceededError(
            f"automorphism search capped at order {table_cap()}")
    gen_idx = G.gens
    # row h: x -> h x h^-1, one row per inner automorphism
    inn = G.mul[G.mul, G.inv[:, None]]
    inn = inn[RowSet().add(inn[:, gen_idx])]
    candidates = class_cut(G, _iso_candidates(G, G))
    coset_reps = []
    covered = RowSet()
    for branch in _inn_branches(G, candidates):
        for phi in _search.iter_hom_images(G, G, branch, bijective=True):
            if phi[gen_idx] not in covered:
                # the coset Inn(G) . phi, on the generators
                covered.add(inn[:, phi[gen_idx]])
                coset_reps.append(phi)
    if not coset_reps:
        raise GroupError("automorphism search lost the identity map")
    perms = inn[:, np.stack(coset_reps)].reshape(-1, G.order)
    # the identity is the least permutation, so it sorts first
    perms = perms[row_sort_order(perms)]
    if not np.array_equal(perms[0], np.arange(G.order)):
        raise EngineError("the automorphism cosets miss the identity map")
    if not _search.generator_certificate(G, G, perms):
        raise EngineError("an automorphism fails the generator certificate")
    perms = _readonly(perms)
    index = RowIndex(perms)
    carrier = FiniteGroup(index.table(),
                          name=f"Aut({G.name})" if G.name else "Aut",
                          validate=False)
    inner_of = index.find(inn).astype(ELEMENT_DTYPE)
    inner = Subgroup(carrier, inner_of)
    z = center(G).size
    if inner.size * z != G.order:
        raise GroupError("inner automorphism count disagrees with the center")
    aut = AutomorphismGroup(G, carrier, perms, inner, _readonly(inner_of), index)
    G._cache["aut"] = aut
    return aut


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
    search; the remainder backtracks over generator images restricted to
    elements of equal order and class size, in the branches of
    ``_inn_branches(H, ...)``: one first-generator image per class of H
    and one second-generator image per orbit of its centralizer.  An
    isomorphism followed by an inner automorphism of H is again one, so
    when any exists some branch meets one.  Which isomorphism is returned
    is therefore the first in the branches' order, not the least overall.
    """
    if G.order != H.order:
        return None
    if fingerprint(G) != fingerprint(H):
        return None
    candidates = _iso_candidates(G, H)
    if candidates is None:
        return None
    for branch in _inn_branches(H, class_cut(H, candidates)):
        for img in _search.iter_hom_images(G, H, branch, bijective=True):
            return Homomorphism(G, H, img, _checked=True)
    return None
