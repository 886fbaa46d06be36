"""Holomorph machinery: crossed homomorphisms and regular subgroups.

Hol(N) is the semidirect product rho(N) x| Aut(N) inside Perm(N).  It is kept
as pairs (eta, alpha) acting on N by x -> alpha(x) * eta^-1; the full
permutation group on N is never materialized.  A regular subgroup of Hol(N)
isomorphic to G is parametrized by a homomorphism f: G -> Aut(N) together
with a bijective crossed homomorphism g: G -> N with respect to f, i.e.

    g(d1 * d2) = g(d1) * f(d1)(g(d2))        for all d1, d2,

and the subgroup is {(g(d), f(d)) : d in G}.  Byott's translation needs
these alone, so the crossed-hom search (``crossed_homomorphisms``) finds
only bijective maps, between groups of one order.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import permutations
from typing import Iterator, Optional, Sequence

import numpy as np

from . import _search
from .groups import (
    ELEMENT_DTYPE,
    EngineError,
    FiniteGroup,
    GroupError,
    RowSet,
    Subgroup,
    _readonly,
    quotient_group,
    row_sort_order,
)
from .morphisms import (
    AutomorphismGroup,
    Homomorphism,
    _hom_candidates,
    automorphism_group,
    class_cut,
)
from .perms import is_permutation


class Holomorph:
    """Hol(N) as pairs (eta, alpha), alpha indexed into Aut(N)'s carrier."""

    def __init__(self, base: FiniteGroup, aut: AutomorphismGroup):
        self.base = base
        self.aut = aut
        self.order = base.order * aut.order
        self._pair_orders: dict[int, np.ndarray] = {}

    def pair_mul(self, p: tuple[int, int], q: tuple[int, int]) -> tuple[int, int]:
        e1, a1 = p
        e2, a2 = q
        return (int(self.base.mul[e1, self.aut.perms[a1, e2]]),
                int(self.aut.carrier.mul[a1, a2]))

    def pair_orders(self, a: int) -> np.ndarray:
        """Order of the pair (x, a) for every x in the base, cached per a.

        (x, a)^k = (x * a(x) * ... * a^(k-1)(x), a^k), so all x advance
        together, one product per step.
        """
        if a not in self._pair_orders:
            orders = np.zeros(self.base.order, dtype=np.int64)
            first = np.arange(self.base.order)  # first component of (x, a)^k
            ak, k = a, 1                        # a^k, k
            while True:
                if ak == 0:  # carrier index 0 is the identity
                    orders[(first == 0) & (orders == 0)] = k
                    if orders.all():
                        break
                first = self.base.mul[first, self.aut.perms[ak]]
                ak = int(self.aut.carrier.mul[ak, a])
                k += 1
            self._pair_orders[a] = _readonly(orders)
        return self._pair_orders[a]

    def pair_perm(self, p: tuple) -> np.ndarray:
        """The pair as a permutation of the base set: x -> alpha(x) * eta^-1,
        one row per pair when eta and alpha are arrays."""
        e, a = p
        return self.base.mul[self.aut.perms[a], self.base.inv[e][..., None]]

    def all_pair_perms(self) -> np.ndarray:
        """Permutation image of the whole holomorph (small bases only)."""
        n, m = self.base.order, self.aut.order
        out = np.empty((n * m, n), dtype=ELEMENT_DTYPE)
        for e in range(n):
            col = self.base.inv[e]
            out[e * m:(e + 1) * m] = self.base.mul[self.aut.perms, col]
        return out

    def __repr__(self) -> str:
        return f"<Holomorph of {self.base.name or '?'} order {self.order}>"


def build_holomorph(N: FiniteGroup) -> Holomorph:
    if "holomorph" not in N._cache:
        N._cache["holomorph"] = Holomorph(N, automorphism_group(N))
    return N._cache["holomorph"]


# -- crossed homomorphisms -----------------------------------------------------


@dataclass
class CrossedHom:
    """A pair (f, g) with g a crossed homomorphism with respect to f."""

    hol: Holomorph
    f: Homomorphism  # G -> Aut(N) carrier
    g: np.ndarray    # |G| indices into N

    @property
    def source(self) -> FiniteGroup:
        return self.f.source

    def verify(self) -> bool:
        """Generator certificate of the crossed relation."""
        return crossed_relation_holds(self.hol, self.f, self.g)


def crossed_relation_holds(hol: Holomorph, f: Homomorphism, g: np.ndarray) -> bool:
    """g(s * w) = g(s) * f(s)(g(w)) for every effective generator s and every w.

    Sufficient because f is a verified homomorphism: if the relation holds
    for x and y at every w, then g(x y w) = g(x) f(x)(g(y) f(y)(g(w)))
    = g(x y) f(x y)(g(w)), so the x it holds for form a subgroup, and the
    generators lie in it.
    """
    G = f.source
    N = hol.base
    for s in G.gens:
        twisted = hol.aut.perms[int(f.images[s])][g]
        if not np.array_equal(g[G.mul[s]], N.mul[g[s], twisted]):
            return False
    return True


def _crossed_candidates(hol: Holomorph, f: Homomorphism) -> list[list[int]]:
    """Per-generator g-image candidates: the x whose pair (x, f(s)) has the
    order of s, as d -> (g(d), f(d)) is an isomorphism for bijective g."""
    G = f.source
    return [np.flatnonzero(hol.pair_orders(int(f.images[s])) == G.elt_order[s]).tolist()
            for s in G.gens]


def crossed_homomorphisms(
    hol: Holomorph,
    f: Homomorphism,
    *,
    first_images: Optional[np.ndarray] = None,
) -> Iterator[CrossedHom]:
    """All bijective crossed homomorphisms g: G -> N with respect to f, DFS order.

    These are the maps Byott's translation needs: their subgroups
    {(g(d), f(d))} are the regular subgroups of Hol(N), so |G| = |N| is
    required.  The staged search runs on the twisted tables
    T_s[a][b] = a * f(s)(b), one per effective generator s of G, and
    rejects a partial assignment on the first violated product or repeated
    value.  Fully assigned maps pass ``crossed_relation_holds`` before
    emission.  ``first_images``, a boolean mask over N, keeps only the maps
    whose first effective generator lands where it is True; the emitted
    maps are then those of the full search with that image, in the same
    order.
    """
    G = f.source
    N = hol.base
    if f.target is not hol.aut.carrier:
        raise GroupError("f must land in the automorphism carrier of the holomorph")
    if G.order != N.order:
        raise GroupError("bijective crossed homomorphisms need |G| = |N|")
    tables = [N.mul[:, hol.aut.perms[int(f.images[s])]] for s in G.gens]
    candidates = _crossed_candidates(hol, f)
    if first_images is not None and candidates:
        candidates[0] = [x for x in candidates[0] if first_images[x]]
    for g in _search.iter_stage_maps(_search.stage_data(G), tables, candidates,
                                     bijective=True):
        if crossed_relation_holds(hol, f, g):
            yield CrossedHom(hol, f, _readonly(g))


def derive_h(c: CrossedHom) -> Homomorphism:
    """The companion map h(d) = conj(g(d)) . f(d), valued in Aut(N)."""
    hol = c.hol
    G = c.source
    N = hol.base
    n, flat, g = np.intp(N.order), N.mul.ravel(), c.g[:, None]
    # row d: x -> g(d) f(d)(x) g(d)^-1, gathered from the flat table at
    # intp indices, which cannot wrap
    twisted = flat.take(g * n + hol.aut.perms[c.f.images])
    images = hol.aut.index.find(flat.take(twisted * n + N.inv[g])).astype(ELEMENT_DTYPE)
    if (images < 0).any():
        raise EngineError("conj(g(d)).f(d) is not an automorphism of N")
    try:
        return Homomorphism(G, hol.aut.carrier, images)
    except GroupError as exc:
        raise EngineError(f"derived map h is not a homomorphism: {exc}") from exc


# -- quotient induction --------------------------------------------------------


def is_characteristic(aut: AutomorphismGroup, H: Subgroup) -> bool:
    if H.parent is not aut.base:
        raise GroupError("subgroup does not live in the automorphism base")
    mask = H.member_mask()
    return bool(mask[aut.perms[:, H.members]].all())


def induce_on_quotient(c: CrossedHom, L: Subgroup) -> tuple[CrossedHom, Subgroup]:
    """Push (f, g) to N/L for a characteristic subgroup L of N.

    Returns the induced crossed homomorphism on the quotient and the
    preimage subgroup g^-1(L) of the source.
    """
    hol = c.hol
    N = hol.base
    if not is_characteristic(hol.aut, L):
        raise GroupError("induction requires a characteristic subgroup")
    G = c.source
    key = ("quotient", L.members.tobytes())
    if key not in N._cache:  # Q (and so its Aut and holomorph) once per L
        Q, coset_of = quotient_group(N, L, name=f"{N.name}/|{L.size}|" if N.name else None)
        reps = np.empty(Q.order, dtype=np.int64)
        reps[coset_of] = np.arange(N.order)  # one representative per coset
        # every automorphism of N acting on Q, as an index into Aut(Q)
        on_q = automorphism_group(Q).index.find(coset_of[hol.aut.perms[:, reps]])
        if (on_q < 0).any():
            raise EngineError("an automorphism of N does not act on N/L as one of Aut(N/L)")
        N._cache[key] = Q, coset_of, on_q.astype(ELEMENT_DTYPE)
    Q, coset_of, on_q = N._cache[key]
    f_bar = Homomorphism(G, automorphism_group(Q).carrier, on_q[c.f.images])
    g_bar = coset_of[c.g].astype(ELEMENT_DTYPE)
    hol_q = build_holomorph(Q)
    if not crossed_relation_holds(hol_q, f_bar, g_bar):
        raise EngineError("induced map is not a crossed homomorphism")
    induced = CrossedHom(hol_q, f_bar, _readonly(g_bar))
    preimage = Subgroup(G, np.flatnonzero(np.isin(c.g, L.members)))
    return induced, preimage


# -- regular subgroups ---------------------------------------------------------


@dataclass
class RegularSubgroup:
    """A regular subgroup of Perm(X), stored by its member permutations."""

    base: FiniteGroup          # the set X acted on, with its own group law
    members: np.ndarray        # (|X|, |X|) permutation rows, sorted canonically
    iso_label: str | None = None

    def __post_init__(self):
        members = np.asarray(self.members, dtype=ELEMENT_DTYPE)
        members = members[row_sort_order(members)]
        self.members = _readonly(members)
        n = self.base.order
        if members.shape != (n, n):
            raise GroupError("regular subgroup must have one member per point")
        if not is_permutation(members[:, 0]):
            raise GroupError("evaluation at the identity is not bijective")

    def key(self) -> tuple[bytes, ...]:
        return tuple(np.ascontiguousarray(row).tobytes() for row in self.members)

    def contains(self, rows: np.ndarray) -> bool:
        """True when every permutation row of ``rows`` (its last axis) is a
        member: row x of the sorted members is the one sending 0 to x."""
        return bool((self.members[rows[..., 0]] == rows).all())

    def as_group(self, name: str | None = None) -> FiniteGroup:
        """The subgroup as an abstract group, indexed by evaluation at 0.

        Point x names row x, the member sending 0 to x, so the product of
        points x and y is simply row_x[y]; the member table itself is the
        Cayley table.
        """
        return FiniteGroup(self.members, name=name, validate=self.base.order <= 128)


def normalized_by(D: RegularSubgroup, conjugator_perms: Sequence[np.ndarray]) -> bool:
    """True when every conjugator keeps D's member set fixed setwise."""
    for e in conjugator_perms:
        e = np.asarray(e)
        e_inv = np.empty_like(e)
        e_inv[e] = np.arange(len(e))
        if not D.contains(e[D.members[:, e_inv]]):
            return False
    return True


def lambda_perms(G: FiniteGroup, elements: Optional[Sequence[int]] = None) -> np.ndarray:
    """Left-translation permutations x -> g x."""
    if elements is None:
        return G.mul.copy()
    return G.mul[np.asarray(elements, dtype=np.int64)]


def rho_perms(G: FiniteGroup, elements: Optional[Sequence[int]] = None) -> np.ndarray:
    """Right-translation permutations x -> x g^-1."""
    if elements is None:
        elements = np.arange(G.order)
    elements = np.asarray(elements, dtype=np.int64)
    return G.mul.T[G.inv[elements]]


def dual_regular_subgroup(D: RegularSubgroup) -> RegularSubgroup:
    """Centralizer of a regular subgroup in the full symmetric group.

    Solved through the regular action: member x, the one sending the
    identity point to x, plays the role of x under evaluation, and the
    dual's members are the transported right translations, y -> x y sending
    x to members[x][y]: the columns of the member rows.
    """
    members = D.members
    dual = RegularSubgroup(D.base, members.T)
    if not dual.contains(dual.members[:, dual.members]):
        raise EngineError("centralizer transport did not produce a subgroup")
    if not np.array_equal(members[:, dual.members],
                          dual.members[:, members].transpose(1, 0, 2)):
        raise EngineError("dual member fails to centralize")
    return dual


# -- counting runs -------------------------------------------------------------


@dataclass
class RegularSubgroupCount:
    pair_count: int
    subgroup_count: int
    samples: list[RegularSubgroup]
    orbit_count: int      # orbit representatives searched


def centralizer_orbits(hol: Holomorph, f: Homomorphism) -> tuple[int, np.ndarray]:
    """|C| for C = C_Aut(N)(f(G)), and the size of every C-orbit on N, kept
    at the orbit's least member (0 at every other point).

    C is read off the carrier table: the automorphisms that commute with
    f(s) for every effective generator s of G.
    """
    A = hol.aut.carrier
    imgs = f.images[f.source.gens]
    cent = np.flatnonzero((A.mul[:, imgs] == A.mul[imgs].T).all(axis=1))
    least = hol.aut.perms[cent].min(axis=0)
    return len(cent), np.bincount(least, minlength=hol.base.order)


def bijective_pair_count(hol: Holomorph, f: Homomorphism,
                         found: Optional[list] = None) -> int:
    """Bijective crossed homs for one f; each emitted map appends the sorted
    pair codes g(d) |Aut(N)| + f(d) of its subgroup to ``found``, repeats and all.

    One first-generator image is searched per orbit of C = C_Aut(N)(f(G))
    on N: for alpha in C, g -> alpha . g permutes the bijective crossed homs
    of f, since alpha(g(s) f(s)(g(w))) = alpha(g(s)) f(s)(alpha(g(w))).  So
    the number of maps with g(s1) = x is constant on each C-orbit, and each
    emitted map stands for |C . g(s1)| of them (and its subgroup for their
    conjugates by (1, alpha)), with g(s1) the least member of its orbit.  C
    acts freely on these maps (alpha . g = g with g onto N forces alpha = 1),
    so the total is a multiple of |C|.
    """
    s1 = (f.source.gens or [0])[0]  # the trivial group has none
    cent_order, weight = centralizer_orbits(hol, f)
    m = np.int64(hol.aut.order)
    count = 0
    for c in crossed_homomorphisms(hol, f, first_images=weight > 0):
        count += int(weight[c.g[s1]])
        if found is not None:
            found.append(np.sort(c.g * m + f.images))
    if count % cent_order:
        raise EngineError(f"weighted pair count {count} is not a multiple of "
                          f"|C_Aut(N)(f(G))| = {cent_order}")
    return count


def hom_orbit(images: np.ndarray, aut_g: AutomorphismGroup,
              aut_n: AutomorphismGroup) -> np.ndarray:
    """The orbit of f: G -> Aut(N) under f -> c_a . f . b^-1, as image rows.

    (b, a) runs over Aut(G) x Aut(N).  The orbit is closed one frontier at
    a time under the generators of both carriers; a map is known by its
    images of the effective generators of G, held in a ``RowSet``.  Each
    frontier moves those images only, keeps the first copy of every image
    row not met before, in the order the moves produce them, and builds
    whole rows for the new ones alone.
    """
    gens = np.asarray(aut_g.base.gens, dtype=np.intp)
    B, A = aut_g.carrier, aut_n.carrier
    b_gens = np.asarray(B.gens, dtype=np.intp)
    a_gens = np.asarray(A.gens, dtype=np.intp)
    # move j sends the row f to conj[j][f[perm[j]]]: first f . b^-1 for each
    # generator b of Aut(G), then c_a . f for each generator a of Aut(N)
    nb, m = len(b_gens), len(b_gens) + len(a_gens)
    perm = np.empty((m, len(images)), dtype=ELEMENT_DTYPE)
    perm[:nb] = aut_g.perms[B.inv[b_gens]]
    perm[nb:] = np.arange(len(images))
    conj = np.empty((m, A.order), dtype=ELEMENT_DTYPE)
    conj[:nb] = np.arange(A.order)
    conj[nb:] = A.mul[A.mul[a_gens], A.inv[a_gens][:, None]]
    perm_on_gens = perm[:, gens]
    moves = np.arange(m)[:, None, None]
    frontier = np.asarray(images, dtype=ELEMENT_DTYPE)[None, :]
    blocks = [frontier]
    seen = RowSet()
    seen.add(frontier[:, gens])
    while True:
        # row j * len(frontier) + r is move j applied to frontier row r
        moved = conj[moves, frontier[:, perm_on_gens].transpose(1, 0, 2)]
        fresh = seen.add(moved.reshape(m * len(frontier), len(gens)))
        if not len(fresh):
            return np.concatenate(blocks)
        move, row = np.divmod(fresh, len(frontier))
        frontier = conj[move[:, None], frontier[row[:, None], perm[move]]]
        blocks.append(frontier)


def hom_orbits(G: FiniteGroup, aut_g: AutomorphismGroup,
               aut_n: AutomorphismGroup) -> list[tuple[Homomorphism, int]]:
    """One representative and the size of every Aut(G) x Aut(N)-orbit on
    Hom(G, Aut(N)), in the emission order of the staged search.

    The bijective crossed-hom count is the same for every f in an orbit:
    (g, f) -> (a . g . b^-1, c_a . f . b^-1) maps the crossed homs of f
    bijectively onto those of its image.  The orbits are closed under
    conjugation by Aut(N), so one Hom search with the first generator's
    image cut to one element per class (``morphisms.class_cut``) meets
    every orbit.  Each f it finds is skipped if its generator images are
    covered, else certified, and its orbit is closed and marked covered.
    """
    carrier = aut_n.carrier
    gens = G.gens
    group_order = aut_g.order * aut_n.order
    covered = RowSet()
    orbits = []
    candidates = class_cut(carrier, _hom_candidates(G, carrier))
    for img in _search.iter_stage_maps(_search.stage_data(G), [carrier.mul] * len(gens),
                                       candidates):
        if (img[gens] in covered
                or not _search.generator_certificate(G, carrier, img)):
            continue
        orbit = hom_orbit(img, aut_g, aut_n)
        if group_order % len(orbit):
            raise EngineError(f"orbit of size {len(orbit)} does not divide "
                              f"|Aut(G)| |Aut(N)| = {group_order}")
        covered.add(orbit[:, gens])
        orbits.append((Homomorphism(G, carrier, img, _checked=True), len(orbit)))
    return orbits


def close_under_aut(hol: Holomorph, found: list) -> list[np.ndarray]:
    """The distinct pair-code sets of ``found``, in order, closed one frontier at
    a time under conjugation by (1, b), (x, beta) -> (b(x), b beta b^-1), for
    the generators b of Aut(N)'s carrier; new sets follow in first-reached order."""
    A, m, n = hol.aut.carrier, np.int64(hol.aut.order), hol.base.order
    b = np.asarray(A.gens, dtype=np.intp)
    conj = A.mul[A.mul[b], A.inv[b][:, None]]  # conj[j][beta] = b_j beta b_j^-1
    seen, frontier = RowSet(), np.array(found, dtype=np.int64).reshape(-1, n)
    closed = [frontier[seen.add(frontier)]]
    while len(closed[-1]):
        x, beta = np.divmod(closed[-1], m)
        moved = np.sort(hol.aut.perms[b][:, x] * m + conj[:, beta], axis=2).reshape(-1, n)
        closed.append(moved[seen.add(moved)])
    return list(np.concatenate(closed))


def regular_subgroups_in_holomorph(
    N: FiniteGroup,
    G: FiniteGroup,
    *,
    collect_subgroups: bool = False,
) -> RegularSubgroupCount:
    """Count (and optionally collect) regular subgroups of Hol(N) isomorphic to G.

    The pair count is the sum over the Aut(G) x Aut(N)-orbits on
    Hom(G, Aut(N)) of |orbit| times the bijective crossed-hom count of the
    orbit's representative (``hom_orbits``).  Collecting runs the same
    search: (g, f) -> (a . g . b^-1, c_a . f . b^-1) sends the subgroup of
    (g, f) to its conjugate by (1, a), so the subgroups of the emitted maps
    meet every Aut(N)-class, and ``close_under_aut`` must reach exactly
    pair count / |Aut(G)| of them.  The orbits are searched one after
    another in the calling process and thread.
    """
    if N.order != G.order:
        raise GroupError("regular subgroups need |N| = |G|")
    hol = build_holomorph(N)
    aut_g = automorphism_group(G)
    orbits = hom_orbits(G, aut_g, hol.aut)

    found: list[np.ndarray] = []
    sink = found if collect_subgroups else None
    pair_count = sum(size * bijective_pair_count(hol, f, sink) for f, size in orbits)

    if pair_count % aut_g.order != 0:
        raise EngineError(
            f"pair count {pair_count} not divisible by |Aut(G)| = {aut_g.order}")
    subgroups = close_under_aut(hol, found) if collect_subgroups else []
    if collect_subgroups and len(subgroups) != pair_count // aut_g.order:
        raise EngineError("collected subgroup count disagrees with the pair count")
    samples = [RegularSubgroup(N, hol.pair_perm(np.divmod(codes, hol.aut.order)))
               for codes in subgroups]
    return RegularSubgroupCount(pair_count, pair_count // aut_g.order, samples,
                                len(orbits))


# -- normalizer identity (desk-scale literal check) -----------------------------


def holomorph_equals_translation_normalizers(G: FiniteGroup) -> bool:
    """Check Norm(lambda(G)) = image of Hol(G) = Norm(rho(G)) inside Perm(G).

    Exhaustive over all |G|! permutations, so callers cap |G| at 6.
    """
    n = G.order
    if n > 6:
        raise GroupError("normalizer identity check is capped at order 6")
    hol = build_holomorph(G).all_pair_perms()
    hol = hol[row_sort_order(hol)]
    lam = RegularSubgroup(G, lambda_perms(G))
    rho = RegularSubgroup(G, rho_perms(G))
    every = np.array(list(permutations(range(n))), dtype=ELEMENT_DTYPE)  # sorted
    norm_lam = [p for p in every if normalized_by(lam, [p])]
    norm_rho = [p for p in every if normalized_by(rho, [p])]
    return np.array_equal(norm_lam, hol) and np.array_equal(norm_rho, hol)
