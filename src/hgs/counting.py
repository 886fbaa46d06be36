"""The counting routes for Hopf-Galois structure numbers e(G, N).

Four independent paths are implemented and cross-checked by the verify
suites:

* closed-form censuses for almost simple G (the self-type and socle x C_p
  formulas, plus the symmetric-group involution formulas),
* the Byott translation through regular subgroups of Hol(N),
* the fixed-point-free pair route through the inner holomorph, and
* a brute-force oracle that enumerates regular subgroups of Perm(G)
  directly (small orders only).

All scalings are exact integer divisions; a nonzero remainder is raised as
an engine bug, never rounded.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from itertools import permutations as _itpermutations

import numpy as np

from .groups import (
    ELEMENT_DTYPE,
    CapExceededError,
    EngineError,
    FiniteGroup,
    GroupError,
    _readonly,
    order_census,
)
from .holomorph import (
    RegularSubgroup,
    lambda_perms,
    normalized_by,
    regular_subgroups_in_holomorph,
)
from .morphisms import (
    are_isomorphic,
    automorphism_group,
    count_injective_homomorphisms,
    enumerate_homomorphisms,
)
from .screening import check_inner_unique_in_aut, classify_group

METHOD_FORMULA_SELF = "formula-self-type"
METHOD_FORMULA_PRODUCT = "formula-product-type"
METHOD_FORMULA_SN = "formula-sn"
METHOD_BYOTT = "byott"
METHOD_FPF = "fpf-inhol"
METHOD_BRUTE = "brute-perm"


@dataclass
class CountResult:
    g_label: str
    n_label: str
    method: str
    value: int
    runtime_ms: int
    notes: str = ""

    def row(self) -> str:
        return (f"{self.g_label:<14} {self.n_label:<14} {self.method:<20} "
                f"{self.value:>10d} {self.runtime_ms:>8d}ms")

    def to_dict(self) -> dict:
        return {
            "G": self.g_label, "N": self.n_label, "method": self.method,
            "value": self.value, "runtime_ms": self.runtime_ms,
            "notes": self.notes,
        }


def _exact_div(num: int, den: int, what: str) -> int:
    q, r = divmod(num, den)
    if r:
        raise EngineError(f"{what}: {num} is not divisible by {den}")
    return q


def _almost_simple_data(G: FiniteGroup):
    cls = classify_group(G)
    if cls.kind != "almost-simple":
        raise GroupError("count formulas need an almost simple G with prime-index socle")
    return cls


def count_self_type(G: FiniteGroup, *, g_label: str | None = None,
                    check_hypothesis: bool = True) -> CountResult:
    """e(G, G) by census: 2 + 2#{order p in A} + 2 (p-2)/(p-1) #{order p outside A}.

    Valid when the inner copy is the only subgroup of Aut(G) isomorphic to
    G; the check result is recorded in the notes and a failed or infeasible
    check marks the value conditional rather than silently trusting it.
    """
    t0 = time.perf_counter()
    cls = _almost_simple_data(G)
    p = cls.prime
    inside = order_census(G, p, "inside", cls.socle)
    outside = order_census(G, p, "outside", cls.socle)
    cross = 2 * (p - 2) * outside
    if p == 2 and cross != 0:
        raise EngineError("the outside-socle term must vanish at p = 2")
    value = 2 + 2 * inside + _exact_div(cross, p - 1, "outside-socle term")
    notes = ""
    if check_hypothesis:
        hyp = check_inner_unique_in_aut(G)
        if hyp.status == "holds":
            notes = "inner-uniqueness verified"
        else:
            notes = f"CONDITIONAL: inner-uniqueness {hyp.status} ({hyp.detail})"
    label = g_label or G.name or "G"
    ms = int((time.perf_counter() - t0) * 1000)
    return CountResult(label, label, METHOD_FORMULA_SELF, value, ms, notes)


def count_product_type(G: FiniteGroup, *, g_label: str | None = None,
                       n_label: str | None = None) -> CountResult:
    """e(G, A x C_p) = 2/(p-1) #{order p outside the socle}, exact division."""
    t0 = time.perf_counter()
    cls = _almost_simple_data(G)
    p = cls.prime
    outside = order_census(G, p, "outside", cls.socle)
    value = _exact_div(2 * outside, p - 1, "outside-socle census")
    label = g_label or G.name or "G"
    nlab = n_label or f"socle x C{p}"
    ms = int((time.perf_counter() - t0) * 1000)
    return CountResult(label, nlab, METHOD_FORMULA_PRODUCT, value, ms)


# -- symmetric-group involution formulas ----------------------------------------


def sn_involution_census(n: int) -> tuple[int, int]:
    """(even, odd) involution counts of S_n, by cycle-type combinatorics."""
    even = odd = 0
    for k in range(1, n // 2 + 1):
        count = math.factorial(n) // (math.factorial(k) * 2 ** k * math.factorial(n - 2 * k))
        if k % 2 == 0:
            even += count
        else:
            odd += count
    return even, odd


def count_sn(n: int, variant: str) -> CountResult:
    """The two symmetric-group counts by direct involution census.

    variant "Sn" gives e(S_n, S_n) = 2 + 2#{even involutions}; variant
    "AnxC2" gives e(S_n, A_n x C_2) = 2#{odd involutions}.
    """
    if not 5 <= n <= 10:
        raise GroupError("symmetric-group formulas are implemented for 5 <= n <= 10")
    t0 = time.perf_counter()
    even, odd = sn_involution_census(n)
    if variant == "Sn":
        value = 2 + 2 * even
        nlab = f"S{n}"
    elif variant == "AnxC2":
        value = 2 * odd
        nlab = f"A{n}xC2"
    else:
        raise GroupError(f"unknown variant {variant!r}; use 'Sn' or 'AnxC2'")
    ms = int((time.perf_counter() - t0) * 1000)
    return CountResult(f"S{n}", nlab, METHOD_FORMULA_SN, value, ms)


# -- Byott translation -----------------------------------------------------------


def count_byott(G: FiniteGroup, N: FiniteGroup, *,
                g_label: str | None = None, n_label: str | None = None,
                jobs: int = 1) -> CountResult:
    """e(G, N) = pair count over Hol(N) divided by |Aut(N)|, exactly.

    The pair count sums, over the Aut(G) x Aut(N)-orbits on
    Hom(G, Aut(N)), the bijective crossed homomorphisms G -> N of each
    orbit's representative times the orbit size
    (``holomorph.regular_subgroups_in_holomorph``).  The count runs in the
    calling process and thread.  ``jobs`` is ignored: it is kept only for
    the ``byott-120-jobs2`` benchmark workload, which passes it, and goes
    together with that workload.
    """
    t0 = time.perf_counter()
    if G.order != N.order:
        raise GroupError("count needs |G| = |N|")
    run = regular_subgroups_in_holomorph(N, G)
    aut_n = automorphism_group(N).order
    value = _exact_div(run.pair_count, aut_n, "holomorph pair count")
    ms = int((time.perf_counter() - t0) * 1000)
    return CountResult(g_label or G.name or "G", n_label or N.name or "N",
                       METHOD_BYOTT, value, ms,
                       notes=(f"pairs={run.pair_count} subgroups={run.subgroup_count} "
                              f"orbits={run.orbit_count}"))


# -- fixed-point-free pairs in the inner holomorph -------------------------------


def count_fpf_inner_holomorph(G: FiniteGroup, N: FiniteGroup, *,
                              g_label: str | None = None,
                              n_label: str | None = None) -> CountResult:
    """e(G, A x C_p) through fixed-point-free homomorphism pairs into G.

    Counts e1 = #{f: N -> G with kernel the cyclic factor} and e2 =
    #{h: N -> G with kernel the simple factor and h(eps) outside the socle},
    then scales by 2 e1 e2 / |Aut(N)|.  Requires centerless almost simple G
    and N of matching socle x C_p shape.

    Each count is searched on a factor of N alone.  A map with kernel C_p
    is an injective map A -> G composed with the projection, counted one
    image class of A's first generator at a time
    (``count_injective_homomorphisms``), and a map with kernel A is an
    injective map C_p -> G.  The image of C_p has prime
    order, so it lies inside the prime-index socle or meets it only in 1:
    one generator's image decides which, and an image outside the socle is
    not the identity, so that map is injective.
    """
    t0 = time.perf_counter()
    cls_g = _almost_simple_data(G)
    p = cls_g.prime
    cls_n = classify_group(N)
    if cls_n.kind != "direct-product-simple-cyclic" or cls_n.prime != p:
        raise GroupError("fpf route needs N of shape (simple A) x C_p")
    if are_isomorphic(cls_n.socle_group, cls_g.socle_group) is None:
        raise GroupError("the simple factor of N must match the socle of G")
    C, _ = cls_n.cyclic_factor.as_group()
    eps = C.gens[0]
    socle_mask = cls_g.socle.member_mask()

    e1 = count_injective_homomorphisms(cls_n.socle_group, G)
    e2 = sum(not socle_mask[h(eps)] for h in enumerate_homomorphisms(C, G))

    aut_n = automorphism_group(N).order
    aut_a = automorphism_group(cls_n.socle_group).order
    if aut_n != (p - 1) * aut_a:
        raise EngineError(
            f"|Aut(N)| = {aut_n} disagrees with (p-1)|Aut(A)| = {(p - 1) * aut_a}")
    value = _exact_div(2 * e1 * e2, aut_n, "fpf pair count")
    ms = int((time.perf_counter() - t0) * 1000)
    return CountResult(g_label or G.name or "G", n_label or N.name or "N",
                       METHOD_FPF, value, ms, notes=f"e1={e1} e2={e2}")


# -- brute-force oracle over Perm(G) ----------------------------------------------


def _uniform_cycle_perms(n: int, d: int) -> list[tuple[int, ...]]:
    """All permutations of n points whose cycles all have length d."""
    out: list[tuple[int, ...]] = []
    perm = list(range(n))

    def rec(remaining: list[int]) -> None:
        if not remaining:
            out.append(tuple(perm))
            return
        first = remaining[0]
        rest = remaining[1:]
        for companions in _itpermutations(rest, d - 1):
            cycle = (first,) + companions
            for a, b in zip(cycle, cycle[1:] + cycle[:1]):
                perm[a] = b
            left = [x for x in rest if x not in companions]
            rec(left)
            for a in cycle:
                perm[a] = a

    rec(list(range(n)))
    return out


def _semiregular_elements(n: int) -> list[tuple[int, ...]]:
    """Nonidentity perms with uniform cycle length dividing n (candidates for
    members of regular subgroups)."""
    out: list[tuple[int, ...]] = []
    for d in range(2, n + 1):
        if n % d == 0:
            out.extend(_uniform_cycle_perms(n, d))
    return sorted(out)


_REGULAR_CACHE: dict[int, tuple[np.ndarray, ...]] = {}


def all_regular_subgroups_of_sym(n: int) -> tuple[np.ndarray, ...]:
    """Every regular subgroup of Sym(n), as read-only (n, n) member matrices.

    Members are held in a dict keyed by their image of 0, starting from the
    identity.  Let x be the least point no member sends 0 to; the search
    branches over the semiregular p with p(0) = x and closes under products.
    Each regular subgroup is reached exactly once, with no dedupe:

    * a regular N containing the held group H has exactly one member
      sending 0 to x, so N lies in exactly one branch at every level;
    * two members that agree at 0 give a non-identity element fixing 0, so
      a closure with such a collision lies in no regular group (and, keyed
      by the n images of 0, no closure passes n members);
    * a closure of size n with distinct images of 0 is transitive, hence
      regular.

    Closures whose size does not divide n lie in no regular group either.
    Rows are sorted, and the groups are sorted by their bytes.
    """
    if n in _REGULAR_CACHE:
        return _REGULAR_CACHE[n]
    by_image: dict[int, list[tuple[int, ...]]] = {}
    for p in _semiregular_elements(n):
        by_image.setdefault(p[0], []).append(p)
    found: list[np.ndarray] = []

    def compose(p, q):
        return tuple(map(p.__getitem__, q))

    def close(held: dict, p) -> dict | None:
        members = dict(held)
        members[p[0]] = p
        queue = [p]
        while queue:
            a = queue.pop()
            for b in list(members.values()):
                for prod in (compose(a, b), compose(b, a)):
                    old = members.get(prod[0])
                    if old is None:
                        members[prod[0]] = prod
                        queue.append(prod)
                    elif old != prod:
                        return None
        return members

    def grow(held: dict) -> None:
        if len(held) == n:
            found.append(_readonly(np.array(sorted(held.values()), dtype=ELEMENT_DTYPE)))
            return
        x = next(i for i in range(n) if i not in held)
        for p in by_image[x]:
            closure = close(held, p)
            if closure is not None and n % len(closure) == 0:
                grow(closure)

    grow({0: tuple(range(n))})
    result = tuple(sorted(found, key=lambda m: m.tobytes()))
    _REGULAR_CACHE[n] = result
    return result


@dataclass
class BruteForceResult:
    g_label: str
    counts: dict[str, int]
    subgroups: list[RegularSubgroup]
    runtime_ms: int


def count_brute_force(G: FiniteGroup, types: dict[str, FiniteGroup] | None = None,
                      *, g_label: str | None = None,
                      allow_order_9: bool = False) -> BruteForceResult:
    """Per-isomorphism-type census of regular subgroups of Perm(G) normalized
    by the left translations of G.

    Capped at order 8 by default.  ``allow_order_9`` lifts the cap to 9,
    the oracle's measured reach: order 9 takes about 15 s on one core, and
    order 10 did not finish in 10 minutes (Sym(10) has ~436k semiregular
    candidates, Sym(12) ~48M), so orders 10 to 12 are refused at once.
    Unmatched isomorphism types get a synthetic label.
    """
    n = G.order
    cap = 9 if allow_order_9 else 8
    if n > cap:
        raise CapExceededError(
            f"brute-force oracle capped at order {cap} (got {n})")
    t0 = time.perf_counter()
    subs = all_regular_subgroups_of_sym(n)
    lam = lambda_perms(G, G.gens)
    normalized: list[RegularSubgroup] = []
    for members in subs:
        D = RegularSubgroup(G, members)
        if normalized_by(D, lam):
            normalized.append(D)
    counts: dict[str, int] = {}
    reps: list[tuple[FiniteGroup, str]] = []
    anon = 0
    for D in normalized:
        H = D.as_group()
        label = None
        for grp, lbl in reps:
            if are_isomorphic(H, grp) is not None:
                label = lbl
                break
        if label is None:
            if types:
                for lbl, T in types.items():
                    if T.order == n and are_isomorphic(H, T) is not None:
                        label = lbl
                        break
            if label is None:
                label = f"order{n}-type{anon}"
                anon += 1
            reps.append((H, label))
        D.iso_label = label
        counts[label] = counts.get(label, 0) + 1
    ms = int((time.perf_counter() - t0) * 1000)
    return BruteForceResult(g_label or G.name or "G", counts, normalized, ms)
