"""The holomorph route: crossed homomorphisms and regular subgroups.

Hol(N) is the semidirect product rho(N) x| Aut(N) inside Perm(N).  No object
stands for it: the route takes N's ``AutomorphismGroup`` alone, and an
element of Hol(N) is a pair (eta, alpha), eta in N and alpha an index into
the carrier of Aut(N), acting on N by x -> alpha(x) * eta^-1.  Pair orders
(``pair_orders``), pair permutations (``pair_perms``) and the pair codes
eta |Aut(N)| + alpha of collected subgroups are built in this module only;
the full permutation group on N is never materialized.

A regular subgroup of Hol(N) isomorphic to G is parametrized by a
homomorphism f: G -> Aut(N) together with a bijective crossed homomorphism
g: G -> N with respect to f, i.e.

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
    centralizer,
    conjugation_rows,
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


def pair_orders(aut: AutomorphismGroup, a: int) -> np.ndarray:
    """Order of the pair (x, a) for every x in N = aut.base, cached per a.

    (x, a)^k = (x * a(x) * ... * a^(k-1)(x), a^k), so all x advance
    together, one product per step.
    """
    key = ("pair_orders", a)
    if key not in aut.carrier._cache:
        N = aut.base
        orders = np.zeros(N.order, dtype=np.int64)
        first = np.arange(N.order)  # first component of (x, a)^k
        ak, k = a, 1                # a^k, k
        while True:
            if ak == 0:  # carrier index 0 is the identity
                orders[(first == 0) & (orders == 0)] = k
                if orders.all():
                    break
            first = N.mul[first, aut.perms[ak]]
            ak = int(aut.carrier.mul[ak, a])
            k += 1
        aut.carrier._cache[key] = _readonly(orders)
    return aut.carrier._cache[key]


def pair_perms(aut: AutomorphismGroup, eta, alpha) -> np.ndarray:
    """The pairs (eta, alpha) as permutations of N: x -> alpha(x) * eta^-1,
    one row per pair when eta and alpha are arrays."""
    N = aut.base
    return N.mul[aut.perms[alpha], N.inv[eta][..., None]]


# -- crossed homomorphisms -----------------------------------------------------


@dataclass
class CrossedHom:
    """A pair (f, g) with g a crossed homomorphism with respect to f."""

    aut: AutomorphismGroup  # Aut(N)
    f: Homomorphism  # G -> Aut(N) carrier
    g: np.ndarray    # |G| indices into N


def crossed_relation_holds(aut: AutomorphismGroup, f: Homomorphism, g: np.ndarray) -> bool:
    """g(s * w) = g(s) * f(s)(g(w)) for every effective generator s and every w.

    Sufficient because f is a verified homomorphism: if the relation holds
    for x and y at every w, then g(x y w) = g(x) f(x)(g(y) f(y)(g(w)))
    = g(x y) f(x y)(g(w)), so the x it holds for form a subgroup, and the
    generators lie in it.
    """
    G = f.source
    N = aut.base
    for s in G.gens:
        twisted = aut.perms[int(f.images[s])][g]
        if not np.array_equal(g[G.mul[s]], N.mul[g[s], twisted]):
            return False
    return True


def _crossed_candidates(aut: AutomorphismGroup, f: Homomorphism) -> list[list[int]]:
    """Per-generator g-image candidates: the x whose pair (x, f(s)) has the
    order of s, as d -> (g(d), f(d)) is an isomorphism for bijective g."""
    G = f.source
    return [np.flatnonzero(pair_orders(aut, int(f.images[s])) == G.elt_order[s]).tolist()
            for s in G.gens]


def crossed_homomorphisms(
    aut: AutomorphismGroup,
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
    N = aut.base
    if f.target is not aut.carrier:
        raise GroupError("f must land in the carrier of Aut(N)")
    if G.order != N.order:
        raise GroupError("bijective crossed homomorphisms need |G| = |N|")
    tables = [N.mul[:, aut.perms[int(f.images[s])]] for s in G.gens]
    candidates = _crossed_candidates(aut, f)
    if first_images is not None and candidates:
        candidates[0] = [x for x in candidates[0] if first_images[x]]
    for g in _search.iter_stage_maps(_search.stage_data(G), tables, candidates,
                                     bijective=True):
        if crossed_relation_holds(aut, f, g):
            yield CrossedHom(aut, f, _readonly(g))


def derive_h(c: CrossedHom) -> Homomorphism:
    """The companion map h(d) = conj(g(d)) . f(d), valued in Aut(N)."""
    aut = c.aut
    N = aut.base
    n, flat, g = np.intp(N.order), N.mul.ravel(), c.g[:, None]
    # row d: x -> g(d) f(d)(x) g(d)^-1, gathered from the flat table at
    # intp indices, which cannot wrap
    twisted = flat.take(g * n + aut.perms[c.f.images])
    images = aut.index.find(flat.take(twisted * n + N.inv[g])).astype(ELEMENT_DTYPE)
    if (images < 0).any():
        raise EngineError("conj(g(d)).f(d) is not an automorphism of N")
    try:
        return Homomorphism(c.f.source, aut.carrier, images)
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
    aut = c.aut
    N = aut.base
    if not is_characteristic(aut, L):
        raise GroupError("induction requires a characteristic subgroup")
    G = c.f.source
    key = ("quotient", L.members.tobytes())
    if key not in N._cache:  # Q (and so its Aut) once per L
        Q, coset_of = quotient_group(N, L, name=f"{N.name}/|{L.size}|" if N.name else None)
        reps = np.empty(Q.order, dtype=np.int64)
        reps[coset_of] = np.arange(N.order)  # one representative per coset
        # every automorphism of N acting on Q, as an index into Aut(Q)
        on_q = automorphism_group(Q).index.find(coset_of[aut.perms[:, reps]])
        if (on_q < 0).any():
            raise EngineError("an automorphism of N does not act on N/L as one of Aut(N/L)")
        N._cache[key] = Q, coset_of, on_q.astype(ELEMENT_DTYPE)
    Q, coset_of, on_q = N._cache[key]
    aut_q = automorphism_group(Q)
    f_bar = Homomorphism(G, aut_q.carrier, on_q[c.f.images])
    g_bar = coset_of[c.g].astype(ELEMENT_DTYPE)
    if not crossed_relation_holds(aut_q, f_bar, g_bar):
        raise EngineError("induced map is not a crossed homomorphism")
    induced = CrossedHom(aut_q, f_bar, _readonly(g_bar))
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


def centralizer_orbits(aut: AutomorphismGroup, f: Homomorphism) -> tuple[int, np.ndarray]:
    """|C| for C = C_Aut(N)(f(G)), and the size of every C-orbit on N, kept
    at the orbit's least member (0 at every other point).

    C is read off the carrier table: the centralizer of the images f(s)
    of the effective generators s of G.
    """
    cent = centralizer(aut.carrier, f.images[f.source.gens])
    least = aut.perms[cent.members].min(axis=0)
    return cent.size, np.bincount(least, minlength=aut.base.order)


def bijective_pair_count(aut: AutomorphismGroup, f: Homomorphism,
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
    cent_order, weight = centralizer_orbits(aut, f)
    m = np.int64(aut.order)
    count = 0
    for c in crossed_homomorphisms(aut, f, first_images=weight > 0):
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
    conj[nb:] = conjugation_rows(A, a_gens)
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


def close_under_aut(aut: AutomorphismGroup, found: list) -> list[np.ndarray]:
    """The distinct pair-code sets of ``found``, in order, closed one frontier at
    a time under conjugation by (1, b), (x, beta) -> (b(x), b beta b^-1), for
    the generators b of Aut(N)'s carrier; new sets follow in first-reached order."""
    A, m, n = aut.carrier, np.int64(aut.order), aut.base.order
    b = np.asarray(A.gens, dtype=np.intp)
    conj = conjugation_rows(A, b)  # conj[j][beta] = b_j beta b_j^-1
    seen, frontier = RowSet(), np.array(found, dtype=np.int64).reshape(-1, n)
    closed = [frontier[seen.add(frontier)]]
    while len(closed[-1]):
        x, beta = np.divmod(closed[-1], m)
        moved = np.sort(aut.perms[b][:, x] * m + conj[:, beta], axis=2).reshape(-1, n)
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
    aut_n = automorphism_group(N)
    aut_g = automorphism_group(G)
    orbits = hom_orbits(G, aut_g, aut_n)

    found: list[np.ndarray] = []
    sink = found if collect_subgroups else None
    pair_count = sum(size * bijective_pair_count(aut_n, f, sink) for f, size in orbits)

    if pair_count % aut_g.order != 0:
        raise EngineError(
            f"pair count {pair_count} not divisible by |Aut(G)| = {aut_g.order}")
    subgroups = close_under_aut(aut_n, found) if collect_subgroups else []
    if collect_subgroups and len(subgroups) != pair_count // aut_g.order:
        raise EngineError("collected subgroup count disagrees with the pair count")
    samples = [RegularSubgroup(N, pair_perms(aut_n, *np.divmod(codes, aut_n.order)))
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
    aut = automorphism_group(G)
    hol = pair_perms(aut, *np.indices((n, aut.order)).reshape(2, -1))
    hol = hol[row_sort_order(hol)]
    lam = RegularSubgroup(G, lambda_perms(G))
    rho = RegularSubgroup(G, rho_perms(G))
    every = np.array(list(permutations(range(n))), dtype=ELEMENT_DTYPE)  # sorted
    norm_lam = [p for p in every if normalized_by(lam, [p])]
    norm_rho = [p for p in every if normalized_by(rho, [p])]
    return np.array_equal(norm_lam, hol) and np.array_equal(norm_rho, hol)
