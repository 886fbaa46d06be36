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
from pathlib import Path
from typing import Optional

import numpy as np

from .groups import (
    CapExceededError,
    EngineError,
    FiniteGroup,
    GroupError,
    order_census,
)
from .holomorph import (
    RegularSubgroup,
    lambda_perms,
    normalized_by,
    regular_subgroups_in_holomorph,
)
from .morphisms import are_isomorphic, automorphism_group, enumerate_homomorphisms
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
    checkpoint_id: Optional[str] = None

    def row(self) -> str:
        ck = self.checkpoint_id or "-"
        return (f"{self.g_label:<14} {self.n_label:<14} {self.method:<20} "
                f"{self.value:>10d} {self.runtime_ms:>8d}ms {ck}")

    def to_dict(self) -> dict:
        return {
            "G": self.g_label, "N": self.n_label, "method": self.method,
            "value": self.value, "runtime_ms": self.runtime_ms,
            "notes": self.notes, "checkpoint_id": self.checkpoint_id,
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
                checkpoint_path: Optional[Path] = None,
                jobs: int = 1, log=None) -> CountResult:
    """e(G, N) = pair count over Hol(N) divided by |Aut(N)|, exactly."""
    t0 = time.perf_counter()
    if G.order != N.order:
        raise GroupError("count needs |G| = |N|")
    run = regular_subgroups_in_holomorph(N, G, checkpoint_path=checkpoint_path,
                                         jobs=jobs, log=log)
    aut_n = automorphism_group(N).order
    value = _exact_div(run.pair_count, aut_n, "holomorph pair count")
    ms = int((time.perf_counter() - t0) * 1000)
    ck = str(checkpoint_path) if checkpoint_path else None
    return CountResult(g_label or G.name or "G", n_label or N.name or "N",
                       METHOD_BYOTT, value, ms,
                       notes=(f"pairs={run.pair_count} subgroups={run.subgroup_count} "
                              f"orbits={run.orbit_count}"),
                       checkpoint_id=ck)


# -- fixed-point-free pairs in the inner holomorph -------------------------------


def count_fpf_inner_holomorph(G: FiniteGroup, N: FiniteGroup, *,
                              g_label: str | None = None,
                              n_label: str | None = None) -> CountResult:
    """e(G, A x C_p) through fixed-point-free homomorphism pairs into G.

    Counts e1 = #{f: N -> G with kernel the cyclic factor} and e2 =
    #{h: N -> G with kernel the simple factor and h(eps) outside the socle},
    then scales by 2 e1 e2 / |Aut(N)|.  Requires centerless almost simple G
    and N of matching socle x C_p shape.
    """
    t0 = time.perf_counter()
    cls_g = _almost_simple_data(G)
    p = cls_g.prime
    cls_n = classify_group(N)
    if cls_n.kind != "direct-product-simple-cyclic" or cls_n.prime != p:
        raise GroupError("fpf route needs N of shape (simple A) x C_p")
    if are_isomorphic(cls_n.socle_group, cls_g.socle_group) is None:
        raise GroupError("the simple factor of N must match the socle of G")
    a_factor = cls_n.socle
    c_factor = cls_n.cyclic_factor
    eps = int(c_factor.members[1])
    socle_mask = cls_g.socle.member_mask()

    e1 = 0
    for f in enumerate_homomorphisms(N, G, kernel_filter=c_factor):
        e1 += 1
    e2 = 0
    for h in enumerate_homomorphisms(N, G, kernel_filter=a_factor):
        if not socle_mask[h(eps)]:
            e2 += 1

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


_REGULAR_CACHE: dict[int, list[np.ndarray]] = {}


def all_regular_subgroups_of_sym(n: int) -> list[np.ndarray]:
    """Every regular subgroup of Sym(n), as (n, n) member matrices.

    Grown by closure from fixed-point-free candidate generators: any
    subgroup chain witnessing a generating sequence stays semiregular, so
    level-by-level augmentation reaches every regular subgroup.
    """
    if n in _REGULAR_CACHE:
        return _REGULAR_CACHE[n]
    ident = tuple(range(n))
    candidates = _semiregular_elements(n)
    allowed = set(candidates)
    allowed.add(ident)
    comp_cache: dict[tuple[tuple, tuple], tuple] = {}

    def compose(p, q):
        return tuple(p[q[i]] for i in range(n))

    def bounded_closure(base: frozenset, extra) -> frozenset | None:
        members = set(base)
        members.add(extra)
        queue = [extra]
        while queue:
            x = queue.pop()
            for y in list(members):
                for prod in (compose(x, y), compose(y, x)):
                    if prod in members:
                        continue
                    if prod not in allowed or len(members) >= n:
                        return None
                    members.add(prod)
                    queue.append(prod)
        return frozenset(members)

    found_regular: set[frozenset] = set()
    worklist = [frozenset([ident])]
    seen: set[frozenset] = set(worklist)
    while worklist:
        H = worklist.pop()
        size = len(H)
        half_target = 2 * size == n
        for p in candidates:
            if p in H:
                continue
            if half_target:
                # the only possible proper extension has index 2, so p must
                # square into H and normalize it
                if compose(p, p) not in H:
                    continue
                p_inv = tuple(sorted(range(n), key=p.__getitem__))
                if any(compose(compose(p, h), p_inv) not in H for h in H):
                    continue
            closure = bounded_closure(H, p)
            if closure is None or len(closure) > n or n % len(closure):
                continue
            if closure in seen:
                continue
            seen.add(closure)
            if len(closure) == n:
                found_regular.add(closure)
            else:
                worklist.append(closure)
    result = []
    for H in found_regular:
        members = np.array(sorted(H), dtype=np.int32)
        # regularity: evaluation at point 0 must be bijective
        if len(np.unique(members[:, 0])) == n:
            result.append(members)
    result.sort(key=lambda m: m.tobytes())
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
                      allow_order_12: bool = False) -> BruteForceResult:
    """Per-isomorphism-type census of regular subgroups of Perm(G) normalized
    by the left translations of G.

    Capped at order 8 by default; orders up to 12 sit behind a flag and can
    take a long time.  Unmatched isomorphism types get a synthetic label.
    """
    n = G.order
    cap = 12 if allow_order_12 else 8
    if n > cap:
        raise CapExceededError(
            f"brute-force oracle capped at order {cap} (got {n})")
    t0 = time.perf_counter()
    subs = all_regular_subgroups_of_sym(n)
    lam = lambda_perms(G, G.gens)
    normalized: list[RegularSubgroup] = []
    for members in subs:
        D = RegularSubgroup(G, members, ambient="perm")
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
