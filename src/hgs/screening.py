"""Structure classification and necessary-condition screening.

`classify_group` sorts a group into the shapes the counting theory cares
about (simple, almost simple with prime-index socle, quasisimple, simple x
cyclic, ...).  `screen_candidate` then checks a candidate type N against the
necessary conditions for admitting any count at all when the acting group G
is almost simple with prime-index socle: non-perfect N must look like
A x C_p or almost simple with the same socle, and perfect N must pass four
explicit conditions tied to the center of N and the fixed points of
automorphisms of the socle.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from . import _search
from .fields import _is_prime
from .groups import (
    EngineError,
    FiniteGroup,
    GroupError,
    Subgroup,
    center,
    centralizer,
    commutator_subgroup,
    is_perfect,
    is_solvable,
    normal_subgroups,
    quotient_group,
    sorted_distinct,
    _greedy_closure,
)
from .morphisms import (AutomorphismGroup, are_isomorphic, automorphism_group,
                        enumerate_homomorphisms)


@dataclass
class StructureClass:
    """Classification verdict with the subgroups that back it up."""

    kind: str
    socle: Optional[Subgroup] = None
    socle_group: Optional[FiniteGroup] = None
    prime: Optional[int] = None
    quotient: Optional[FiniteGroup] = None
    cyclic_factor: Optional[Subgroup] = None

    def __repr__(self) -> str:
        bits = [self.kind]
        if self.prime is not None:
            bits.append(f"p={self.prime}")
        if self.socle is not None:
            bits.append(f"socle={self.socle.size}")
        return f"<StructureClass {' '.join(bits)}>"


def _is_nonabelian_simple(G: FiniteGroup) -> bool:
    return (G.order > 1 and not G.is_abelian()
            and len(normal_subgroups(G)) == 2)


def classify_group(G: FiniteGroup) -> StructureClass:
    """Shape detection: abelian / solvable / (almost, quasi) simple / A x C_p."""
    if "structure_class" in G._cache:
        return G._cache["structure_class"]
    result = _classify(G)
    G._cache["structure_class"] = result
    return result


def _classify(G: FiniteGroup) -> StructureClass:
    if G.is_abelian():
        return StructureClass("abelian")
    if is_solvable(G):
        return StructureClass("solvable-other")
    ns = normal_subgroups(G)
    proper = [s for s in ns if 1 < s.size < G.order]
    if not proper:
        return StructureClass("simple")
    if is_perfect(G):
        Z = center(G)
        if Z.size > 1:
            Q, _ = quotient_group(G, Z)
            if _is_nonabelian_simple(Q):
                return StructureClass("quasisimple", quotient=Q)
        return StructureClass("perfect-other")
    if len(proper) == 1:
        A = proper[0]
        index = G.order // A.size
        Agrp, _ = A.as_group()
        if _is_prime(index) and _is_nonabelian_simple(Agrp):
            # C_G(A) from generators of A: |G| k comparisons, not |G| |A|
            if centralizer(G, _greedy_closure(G.mul, A.member_mask())[0]).size == 1:
                return StructureClass("almost-simple", socle=A, socle_group=Agrp,
                                      prime=index)
        return StructureClass("other")
    if len(proper) == 2:
        by_size = sorted(proper, key=lambda s: s.size)
        C, A = by_size
        p = C.size
        Agrp, _ = A.as_group()
        if (_is_prime(p) and A.size * p == G.order
                and _is_nonabelian_simple(Agrp)
                and np.count_nonzero(A.member_mask()[C.members]) == 1
                and np.array_equal(center(G).members, C.members)):
            return StructureClass("direct-product-simple-cyclic", socle=A,
                                  socle_group=Agrp, prime=p, cyclic_factor=C)
        return StructureClass("other")
    return StructureClass("other")


def socle_times_cp(cls_g: StructureClass, N: FiniteGroup) -> Optional[StructureClass]:
    """N's class if N is A x C_p for the socle A and prime p of the almost
    simple G classed as ``cls_g``, else None: the one test of that shape."""
    cls_n = classify_group(N)
    fits = (cls_n.kind == "direct-product-simple-cyclic" and cls_n.prime == cls_g.prime
            and are_isomorphic(cls_n.socle_group, cls_g.socle_group) is not None)
    return cls_n if fits else None


# -- screening reports ----------------------------------------------------------


@dataclass
class ConditionVerdict:
    status: str                      # "holds" | "fails" | "not-applicable"
    witness: dict = field(default_factory=dict)


@dataclass
class ScreeningReport:
    g_label: str
    n_label: str
    shape_verdict: str               # "allowed-nonperfect" | "allowed-perfect-candidate" | "excluded"
    reason: Optional[str]
    conditions: dict[str, ConditionVerdict]

    def to_dict(self) -> dict:
        return {
            "schema": "hgs-screen/1",
            "G": self.g_label,
            "N": self.n_label,
            "shape_verdict": self.shape_verdict,
            "reason": self.reason,
            "conditions": {
                k: {"status": v.status, "witness": v.witness}
                for k, v in self.conditions.items()
            },
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True)


def screen_candidate(G: FiniteGroup, N: FiniteGroup,
                     g_label: str | None = None,
                     n_label: str | None = None) -> ScreeningReport:
    """Necessary-condition screen of a candidate type N against G.

    G must be almost simple with prime-index socle A.  Non-perfect N is
    allowed only in the shapes A x C_p or almost-simple-with-socle-A;
    perfect N is tested against four explicit conditions, with witnesses
    recorded for independent re-verification.
    """
    cls_g = classify_group(G)
    if cls_g.kind != "almost-simple":
        raise GroupError("screening requires an almost simple G with prime-index socle")
    if N.order != G.order:
        raise GroupError("candidate type must have the same order as G")
    g_label = g_label or G.name or "G"
    n_label = n_label or N.name or "N"
    A_grp = cls_g.socle_group
    p = cls_g.prime
    conditions: dict[str, ConditionVerdict] = {}

    cls_n = classify_group(N)
    if not is_perfect(N):
        for key in ("condition-1", "condition-2", "condition-3", "condition-4"):
            conditions[key] = ConditionVerdict("not-applicable")
        if socle_times_cp(cls_g, N) is not None or (
                cls_n.kind == "almost-simple"
                and are_isomorphic(cls_n.socle_group, A_grp) is not None):
            return ScreeningReport(g_label, n_label, "allowed-nonperfect", None,
                                   conditions)
        return ScreeningReport(
            g_label, n_label, "excluded",
            f"non-perfect candidate of shape {cls_n.kind!r} is neither "
            f"socle x C_{p} nor almost simple with matching socle",
            conditions)

    # perfect candidate: the four necessary conditions
    ZN = center(N)

    quasi_ok = (cls_n.kind == "quasisimple"
                and are_isomorphic(cls_n.quotient, A_grp) is not None)
    conditions["condition-1"] = ConditionVerdict(
        "holds" if quasi_ok else "fails",
        {"kind": cls_n.kind, "center_order": ZN.size},
    )

    autA = automorphism_group(A_grp)
    fp_counts = (autA.perms == np.arange(A_grp.order)).sum(axis=1)
    hits = np.flatnonzero(fp_counts == p)
    conditions["condition-2"] = ConditionVerdict(
        "holds" if len(hits) else "fails",
        {"automorphism_index": int(hits[0]) if len(hits) else None,
         "fixed_point_target": p},
    )

    conditions["condition-3"] = _condition3(N, ZN, p)
    conditions["condition-4"] = _condition4(G, cls_g, N, ZN, p)

    failing = [k for k, v in conditions.items() if v.status == "fails"]
    if failing:
        return ScreeningReport(g_label, n_label, "excluded",
                               f"perfect candidate fails {', '.join(failing)}",
                               conditions)
    return ScreeningReport(g_label, n_label, "allowed-perfect-candidate", None,
                           conditions)


def _condition3(N: FiniteGroup, ZN: Subgroup, p: int) -> ConditionVerdict:
    """Some coset of order p in N/Z(N) must commute exactly when it commutes
    modulo the center."""
    Q, coset_of = quotient_group(N, ZN)
    reps = np.empty(Q.order, dtype=np.int64)
    reps[coset_of] = np.arange(N.order)
    counterexamples = []
    for q in range(Q.order):
        if int(Q.elt_order[q]) != p:
            continue
        zeta = int(reps[q])
        left = N.mul[:, zeta]    # eta * zeta over all eta
        right = N.mul[zeta, :]   # zeta * eta
        mod_comm = coset_of[left] == coset_of[right]
        bad = np.flatnonzero(mod_comm & ~centralizer(N, zeta).member_mask())
        if len(bad) == 0:
            return ConditionVerdict("holds", {"zeta_tilde": zeta})
        counterexamples.append({"zeta_tilde": zeta, "eta": int(bad[0])})
    return ConditionVerdict("fails", {"counterexamples": counterexamples})


def _condition4(G: FiniteGroup, cls_g: StructureClass, N: FiniteGroup,
                ZN: Subgroup, p: int) -> ConditionVerdict:
    """When Aut(N) fixes Z(N) pointwise: the socle must contain an order-p
    element commuting with something outside the socle."""
    autN = automorphism_group(N)
    fixed_pointwise = bool(
        (autN.perms[:, ZN.members] == ZN.members[None, :]).all())
    if not fixed_pointwise:
        return ConditionVerdict("not-applicable",
                                {"center_fixed_pointwise": False})
    socle_mask = cls_g.socle.member_mask()
    for zeta in cls_g.socle.members:
        if int(G.elt_order[zeta]) != p:
            continue
        outside = [int(s) for s in centralizer(G, zeta).members if not socle_mask[s]]
        if outside:
            return ConditionVerdict("holds",
                                    {"zeta": int(zeta), "sigma": outside[0]})
    return ConditionVerdict("fails", {})


def reverify_report(report: ScreeningReport, G: FiniteGroup,
                    N: FiniteGroup) -> bool:
    """Independently re-check the witnesses carried by a screening report."""
    conds = report.conditions
    ZN = center(N)
    zmask = ZN.member_mask()
    c3 = conds.get("condition-3")
    if c3 is not None and c3.status == "fails":
        if not c3.witness.get("counterexamples"):
            return False
        for pair in c3.witness["counterexamples"]:
            zeta, eta = pair["zeta_tilde"], pair["eta"]
            ez = int(N.mul[eta, zeta])
            ze = int(N.mul[zeta, eta])
            commutator_in_center = zmask[N.mul[ez, N.inv[ze]]]
            if not commutator_in_center or ez == ze:
                return False
    if c3 is not None and c3.status == "holds":
        zeta = c3.witness["zeta_tilde"]
        # eta zeta (zeta eta)^-1 for every eta: central, then trivial
        comm = N.mul[N.mul[:, zeta], N.inv[N.mul[zeta, :]]]
        if np.any(zmask[comm] & (comm != 0)):
            return False
    c2 = conds.get("condition-2")
    if c2 is not None and c2.status == "holds":
        cls_g = classify_group(G)
        autA = automorphism_group(cls_g.socle_group)
        idx = c2.witness["automorphism_index"]
        fp = int((autA.perms[idx] == np.arange(cls_g.socle_group.order)).sum())
        if fp != c2.witness["fixed_point_target"]:
            return False
    c4 = conds.get("condition-4")
    if c4 is not None and c4.status == "holds":
        zeta, sigma = c4.witness["zeta"], c4.witness["sigma"]
        cls_g = classify_group(G)
        if cls_g.socle.contains(sigma):
            return False
        if int(G.mul[zeta, sigma]) != int(G.mul[sigma, zeta]):
            return False
        if int(G.elt_order[zeta]) != cls_g.prime or not cls_g.socle.contains(zeta):
            return False
    return True


# -- uniqueness of the inner copy inside Aut(G) -----------------------------------


@dataclass
class InnerUniquenessCheck:
    status: str                      # "holds" | "fails" | "infeasible"
    detail: str
    witnesses: list = field(default_factory=list)


def _certify_inner_copy(G: FiniteGroup, aut: AutomorphismGroup) -> None:
    """Check that h -> c_h (``aut.inner_of``) is an isomorphism of the
    centerless G onto Inn(G): a homomorphism into the carrier by the
    generator certificate, one-to-one, with image ``aut.inner.members``.
    The map comes from ``automorphism_group``, so a failure is an engine
    fault (EngineError)."""
    images = aut.inner_of
    if not _search.generator_certificate(G, aut.carrier, images):
        raise EngineError("h -> c_h fails the generator certificate")
    image = sorted_distinct(images)
    if len(image) != G.order or not np.array_equal(image, aut.inner.members):
        raise EngineError("h -> c_h is not one-to-one onto Inn(G)")


def check_inner_unique_in_aut(G: FiniteGroup) -> InnerUniquenessCheck:
    """Is Inn(G) the only subgroup of Aut(G) isomorphic to G?

    Feasible exactly when [Aut(G) : Inn(G)] is 1 or 2: index-2 subgroups are
    kernels of maps onto C_2, found through the abelianization, and those
    are all subgroups of order |G|.  Larger indices are reported infeasible
    rather than guessed.  The subgroup equal to Inn(G) is not searched: it
    is isomorphic to G by the certified map h -> c_h
    (``_certify_inner_copy``).  Every other one is compared with G by its
    element-order census and then, if that agrees, by ``are_isomorphic``.
    """
    if center(G).size != 1:
        return InnerUniquenessCheck(
            "infeasible", "check requires a centerless group")
    aut = automorphism_group(G)
    car = aut.carrier
    if car.order == G.order:
        return InnerUniquenessCheck(
            "holds", "Aut(G) equals Inn(G), which is the only candidate")
    if car.order != 2 * G.order:
        return InnerUniquenessCheck(
            "infeasible",
            f"[Aut(G):Inn(G)] = {car.order // G.order} is out of reach for "
            "the abelianization-kernel search")
    derived = commutator_subgroup(car)
    Q, coset_of = quotient_group(car, derived)
    c2 = FiniteGroup([[0, 1], [1, 0]], name="C2")
    # isomorphic groups have equal element-order censuses (``fingerprint``
    # compares them), so a subgroup with another census is not built
    census = np.bincount(G.elt_order)
    witnesses = []
    ok = True
    # a map onto C2 is fixed by its kernel and coset_of is onto: no subgroup twice
    for h in enumerate_homomorphisms(Q, c2):
        if not h.is_surjective():
            continue
        kernel_cosets = h.kernel().members
        members = np.flatnonzero(np.isin(coset_of, kernel_cosets))
        equals_inner = np.array_equal(members, aut.inner.members)
        if equals_inner:
            _certify_inner_copy(G, aut)
            iso = True
        else:
            iso = (np.array_equal(np.bincount(car.elt_order[members]), census)
                   and are_isomorphic(Subgroup(car, members).as_group()[0], G) is not None)
        witnesses.append({"subgroup_order": int(len(members)),
                          "isomorphic_to_G": iso,
                          "equals_inner": equals_inner})
        if iso and not equals_inner:
            ok = False
    return InnerUniquenessCheck(
        "holds" if ok else "fails",
        f"checked {len(witnesses)} index-2 subgroups of Aut(G)",
        witnesses)
