"""Named verification suites with expected-vs-observed reporting.

Suites:

* ``small``      — oracle equivalence: brute-force Perm(G) census against the
                   holomorph translation for every ordered same-order pair of
                   catalog groups at orders 4, 6, 8.
* ``paper-120``  — the order-120 triple agreement: e(S5, S5) = 32 and
                   e(S5, A5 x C2) = 20 along every implemented route.
* ``paper-720``  — the order-720 table for G in {S6, PGL(2,9), M10}: the
                   self-type and product-type formula values, the A6 x C2
                   column by fixed-point-free pairs, all 18 holomorph
                   counts against the six types N with their row sums of
                   224, the SL(2,9) and C720 screening exclusions, and the
                   Aut(A6) tower labels.
* ``lemmas``     — the structural property sweep (crossed-homomorphism laws,
                   normalizer identity, duality, exactly-one normalization,
                   socle facts, fixed points of simple-group automorphisms).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from .catalog import catalog_aut6_tower, resolve_spec
from .counting import (
    count_brute_force,
    count_byott,
    count_fpf_inner_holomorph,
    count_product_type,
    count_self_type,
    count_sn,
)
from .groups import (
    center,
    is_solvable,
    normal_subgroups,
    order_census,
    quotient_group,
    sorted_distinct,
)
from .holomorph import (
    build_holomorph,
    crossed_homomorphisms,
    derive_h,
    dual_regular_subgroup,
    holomorph_equals_translation_normalizers,
    induce_on_quotient,
    lambda_perms,
    normalized_by,
    regular_subgroups_in_holomorph,
)
from .morphisms import (
    are_isomorphic,
    automorphism_group,
    enumerate_homomorphisms,
    fixed_points,
)
from .screening import reverify_report, screen_candidate

SMALL_CATALOG = ["C4", "V4", "C6", "S3", "C8", "C4xC2", "C2xC2xC2", "D4", "Q8"]


@dataclass
class CheckItem:
    name: str
    expected: object
    observed: object
    ok: bool
    runtime_ms: int

    def line(self) -> str:
        mark = "PASS" if self.ok else "FAIL"
        return (f"[{mark}] {self.name}: expected {self.expected!r}, "
                f"observed {self.observed!r} ({self.runtime_ms} ms)")


@dataclass
class SuiteReport:
    suite: str
    items: list[CheckItem] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return all(item.ok for item in self.items)

    @property
    def runtime_ms(self) -> int:
        return sum(item.runtime_ms for item in self.items)

    def summary(self) -> str:
        status = "all passed" if self.ok else "FAILURES PRESENT"
        return (f"suite {self.suite}: {len(self.items)} checks, {status} "
                f"({self.runtime_ms} ms)")

    def to_dict(self) -> dict:
        return {
            "schema": "hgs-report/1",
            "suite": self.suite,
            "ok": self.ok,
            "runtime_ms": self.runtime_ms,
            "items": [
                {"name": i.name, "expected": repr(i.expected),
                 "observed": repr(i.observed), "status": "pass" if i.ok else "fail",
                 "runtime_ms": i.runtime_ms}
                for i in self.items
            ],
        }


class _Suite:
    def __init__(self, name: str, log: Optional[Callable[[str], None]]):
        self.report = SuiteReport(name)
        self.log = log

    def check(self, name: str, expected, fn: Callable[[], object]) -> None:
        t0 = time.perf_counter()
        observed = fn()
        ms = int((time.perf_counter() - t0) * 1000)
        item = CheckItem(name, expected, observed, observed == expected, ms)
        self.report.items.append(item)
        if self.log:
            self.log(item.line())


def _suite_small(s: _Suite) -> None:
    groups = {label: resolve_spec(label) for label in SMALL_CATALOG}
    by_order: dict[int, list[str]] = {}
    for label, G in groups.items():
        by_order.setdefault(G.order, []).append(label)
    s.check("brute census of C4", {"C4": 1, "V4": 1},
            lambda: count_brute_force(groups["C4"], groups).counts)
    s.check("brute census of V4", {"V4": 1, "C4": 3},
            lambda: count_brute_force(groups["V4"], groups).counts)
    for order in sorted(by_order):
        labels = by_order[order]
        types = {l: groups[l] for l in labels}
        for gl in labels:
            brute = count_brute_force(groups[gl], types, g_label=gl)
            for nl in labels:
                expected = brute.counts.get(nl, 0)
                s.check(
                    f"holomorph route matches oracle for e({gl},{nl})",
                    expected,
                    lambda gl=gl, nl=nl: count_byott(
                        groups[gl], groups[nl], g_label=gl, n_label=nl).value,
                )


def _suite_paper_120(s: _Suite) -> None:
    S5 = resolve_spec("S5")
    N = resolve_spec("AxCp(A5,2)")
    s.check("e(S5,S5) by self-type formula", 32,
            lambda: count_self_type(S5, g_label="S5").value)
    s.check("e(S5,S5) by symmetric-group census", 32,
            lambda: count_sn(5, "Sn").value)
    s.check("e(S5,S5) by holomorph enumeration", 32,
            lambda: count_byott(S5, S5, g_label="S5", n_label="S5").value)
    s.check("e(S5,A5xC2) by product-type formula", 20,
            lambda: count_product_type(S5, g_label="S5", n_label="A5xC2").value)
    s.check("e(S5,A5xC2) by symmetric-group census", 20,
            lambda: count_sn(5, "AnxC2").value)
    s.check("e(S5,A5xC2) by holomorph enumeration", 20,
            lambda: count_byott(S5, N, g_label="S5", n_label="A5xC2").value)
    s.check("e(S5,A5xC2) by fixed-point-free pairs", 20,
            lambda: count_fpf_inner_holomorph(S5, N, g_label="S5",
                                              n_label="A5xC2").value)


# The order-720 table: G almost simple with socle A6 of index 2, N running
# over the six types the catalog holds.  Every row sums to 224.
_E_720 = {
    ("S6", "S6"): 92, ("S6", "PGL(2,9)"): 0, ("S6", "M10"): 72,
    ("S6", "A6xC2"): 60, ("S6", "SL(2,9)"): 0, ("S6", "C720"): 0,
    ("PGL(2,9)", "S6"): 0, ("PGL(2,9)", "PGL(2,9)"): 92, ("PGL(2,9)", "M10"): 60,
    ("PGL(2,9)", "A6xC2"): 72, ("PGL(2,9)", "SL(2,9)"): 0, ("PGL(2,9)", "C720"): 0,
    ("M10", "S6"): 72, ("M10", "PGL(2,9)"): 60, ("M10", "M10"): 92,
    ("M10", "A6xC2"): 0, ("M10", "SL(2,9)"): 0, ("M10", "C720"): 0,
}
_G_720 = ("S6", "PGL(2,9)", "M10")


def _group_720(label: str):
    return resolve_spec("AxCp(A6,2)" if label == "A6xC2" else label)


def _suite_paper_720(s: _Suite) -> None:
    def self_type_checked(g):
        r = count_self_type(_group_720(g), g_label=g)
        if "CONDITIONAL" in r.notes:
            return f"conditional: {r.value}"
        return r.value

    for g in _G_720:
        s.check(f"e({g},{g}) by self-type formula", _E_720[g, g],
                lambda g=g: self_type_checked(g))
        s.check(f"e({g},A6xC2) by product-type formula", _E_720[g, "A6xC2"],
                lambda g=g: count_product_type(_group_720(g), g_label=g).value)
        s.check(f"e({g},A6xC2) by fixed-point-free pairs", _E_720[g, "A6xC2"],
                lambda g=g: count_fpf_inner_holomorph(
                    _group_720(g), _group_720("A6xC2"), g_label=g,
                    n_label="A6xC2").value)

    row_sums = dict.fromkeys(_G_720, 0)
    for (g, n), expected in _E_720.items():
        def holomorph_count(g=g, n=n):
            value = count_byott(_group_720(g), _group_720(n),
                                g_label=g, n_label=n).value
            row_sums[g] += value
            return value

        s.check(f"e({g},{n}) by holomorph enumeration", expected, holomorph_count)
    for g in _G_720:
        s.check(f"e({g},N) summed over the six types by holomorph enumeration",
                224, lambda g=g: row_sums[g])

    def screen_sl29(g):
        G, SL = _group_720(g), _group_720("SL(2,9)")
        rep = screen_candidate(G, SL, g, "SL(2,9)")
        cond3 = rep.conditions["condition-3"]
        return (rep.shape_verdict, cond3.status, reverify_report(rep, G, SL))

    sl29_name = "SL(2,9) fails the exact-commutation lifting condition"
    for g in _G_720:
        s.check(sl29_name if g == "PGL(2,9)" else f"{sl29_name} for {g}",
                ("excluded", "fails", True), lambda g=g: screen_sl29(g))
        s.check(f"cyclic C720 is excluded for {g}", "excluded",
                lambda g=g: screen_candidate(_group_720(g), _group_720("C720"),
                                             g, "C720").shape_verdict)

    def tower_labels():
        tower = catalog_aut6_tower()
        return tuple(sorted(k for k in tower if k not in ("Aut(A6)", "Inn(A6)")))

    s.check("Aut(A6) tower labels its three index-2 overgroups",
            ("M10", "PGL(2,9)", "S6"), tower_labels)

    def m10_outer_involutions():
        tower_m10 = catalog_aut6_tower()["M10"]
        socle = [n for n in normal_subgroups(tower_m10) if n.size == 360][0]
        return order_census(tower_m10, 2, "outside", socle)

    s.check("M10 outer coset is involution-free", 0, m10_outer_involutions)


def _lemma_crossed_sweep(S5, N) -> dict:
    """One pass over all bijective crossed homomorphisms for (S5, A5 x C2),
    checking the crossed relation, the companion-map laws, the quotient
    induction, and the socle identification."""
    hol = build_holomorph(N)
    ZN = center(N)
    socle_g = [n for n in normal_subgroups(S5) if n.size == 60][0]
    a_factor = [n for n in normal_subgroups(N) if n.size == 60][0]
    counts = {"pairs": 0, "relation": 0, "companion": 0, "fixed_points": 0,
              "kernel_laws": 0, "preimage_is_socle": 0}
    for f in enumerate_homomorphisms(S5, hol.aut.carrier):
        for c in crossed_homomorphisms(hol, f, bijective_only=True):
            counts["pairs"] += 1
            if c.verify():
                counts["relation"] += 1
            h = derive_h(c)  # construction itself checks multiplicativity
            counts["companion"] += 1
            fp = fixed_points(c.f, h)
            if np.array_equal(fp, np.flatnonzero(np.isin(c.g, ZN.members))):
                counts["fixed_points"] += 1
            kf = np.flatnonzero(c.f.images == 0)
            kh = np.flatnonzero(h.images == 0)
            if (np.array_equal(c.g[S5.mul[kf]], N.mul[c.g[kf][:, None], c.g])
                    and np.array_equal(c.g[S5.mul[kh]],
                                       N.mul[c.g, c.g[kh][:, None]])):
                counts["kernel_laws"] += 1
            _, pre = induce_on_quotient(c, a_factor)
            if np.array_equal(pre.members, socle_g.members):
                counts["preimage_is_socle"] += 1
    return counts


def _suite_lemmas(s: _Suite) -> None:
    S5 = resolve_spec("S5")
    N5 = resolve_spec("AxCp(A5,2)")

    def crossed_sweep():
        c = _lemma_crossed_sweep(S5, N5)
        total = c.pop("pairs")
        return {"pairs": total, "all_hold": all(v == total for v in c.values())}

    s.check("crossed-homomorphism laws on every bijective pair for (S5,A5xC2)",
            {"pairs": 2400, "all_hold": True}, crossed_sweep)

    for label in ("C2", "C3", "C4", "V4", "C5", "C6", "S3"):
        s.check(f"normalizer identity for {label}", True,
                lambda label=label: holomorph_equals_translation_normalizers(
                    resolve_spec(label)))

    def duality(label: str):
        G = resolve_spec(label)
        types = {l: resolve_spec(l) for l in SMALL_CATALOG}
        brute = count_brute_force(G, types, g_label=label)
        keys = {D.key() for D in brute.subgroups}
        lam = lambda_perms(G, G.gens)
        for D in brute.subgroups:
            dual = dual_regular_subgroup(D)
            if dual_regular_subgroup(dual).key() != D.key():
                return "double dual broke"
            if (dual.key() == D.key()) != D.as_group().is_abelian():
                return "self-duality broke"
            if dual.key() not in keys:
                return "dual not normalized"
            if are_isomorphic(D.as_group(), dual.as_group()) is None:
                return "dual changed isomorphism type"
            if not normalized_by(dual, lam):
                return "dual lost normalization"
        return "ok"

    for label in SMALL_CATALOG:
        s.check(f"duality facts over Perm({label})", "ok",
                lambda label=label: duality(label))

    def exactly_one_normalizer():
        run = regular_subgroups_in_holomorph(N5, S5, collect_subgroups=True)
        hol = build_holomorph(N5)
        lam = [hol.pair_perm(hol.lambda_pair(g)) for g in N5.gens]
        rho = [hol.pair_perm(hol.rho_pair(g)) for g in N5.gens]
        patterns = sorted(
            (normalized_by(D, lam), normalized_by(D, rho)) for D in run.samples)
        return (len(run.samples),
                all(a != b for a, b in patterns))

    s.check("each regular S5-subgroup of Hol(A5xC2) is normalized by exactly "
            "one translation side", (20, True), exactly_one_normalizer)

    for label in ("A5", "A6"):
        A = resolve_spec(label)

        def min_fixed_points(A=A):
            aut = automorphism_group(A)
            fp = (aut.perms == np.arange(A.order)).sum(axis=1)
            return int(fp.min())

        s.check(f"every automorphism of {label} fixes a nonidentity element",
                True, lambda A=A: min_fixed_points(A) >= 2)

        def unique_simple_copy(A=A):
            aut = automorphism_group(A)
            inner_key = aut.inner.members.tobytes()
            embeddings = 0
            for h in enumerate_homomorphisms(A, aut.carrier):
                if not h.is_injective():
                    continue
                embeddings += 1
                if sorted_distinct(h.images).astype(np.int64).tobytes() != inner_key:
                    return "found a copy other than the inner one"
            return f"{embeddings} embeddings, all onto the inner copy"

        s.check(f"the only copy of {label} inside its automorphism group is "
                f"the inner one",
                f"{automorphism_group(A).order} embeddings, all onto the inner copy",
                lambda A=A: unique_simple_copy(A))

        def outer_solvable(A=A):
            aut = automorphism_group(A)
            Q, _ = quotient_group(aut.carrier, aut.inner)
            return is_solvable(Q)

        s.check(f"outer automorphism group of {label} is solvable", True,
                outer_solvable)


_SUITES = {
    "small": _suite_small,
    "paper-120": _suite_paper_120,
    "paper-720": _suite_paper_720,
    "lemmas": _suite_lemmas,
}
SUITE_NAMES = tuple(_SUITES)


def run_verify_suite(name: str, *,
                     log: Optional[Callable[[str], None]] = None) -> SuiteReport:
    """Run a named suite; each item prints one pass/fail line through ``log``."""
    if name not in _SUITES:
        raise ValueError(f"unknown suite {name!r}; choose from {SUITE_NAMES}")
    s = _Suite(name, log)
    _SUITES[name](s)
    return s.report
