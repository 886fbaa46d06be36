"""Named verification suites with expected-vs-observed reporting.

The suites ``small``, ``paper-120`` and ``paper-720`` are tables of cells
(``CELLS``): G, N, the expected e(G, N) and the routes that reach it, each
a phrase of ``ROUTES``; four count through ``counting.METHODS``, as ``hgs
count --method`` does.  One runner (``_Suite.cells``) checks every route of
every cell, one item per route.  ``tests/test_verify_tables.py`` reads the
cells without running them and fails on a cell with fewer than two
distinct routes unless its exemption map names the cell.  Row sums, tower
labels and lemmas are plain checks.

* ``small``      — for every ordered same-order pair of catalog groups at
                   orders 4, 6, 8, the brute-force Perm(G) census gives the
                   expected value and the holomorph route the observed one.
* ``paper-120``  — e(S5, S5) = 32 and e(S5, A5 x C2) = 20 along every route.
* ``paper-720``  — the order-720 table for G in {S6, PGL(2,9), M10}: the
                   self-type formula on the diagonal, the product-type formula
                   and fixed-point-free pairs for A6 x C2, the SL(2,9) and
                   C720 screening exclusions, all 18 cells by holomorph
                   enumeration with row sums of 224, and the Aut(A6) tower.
* ``lemmas``     — the structural property sweep (crossed-homomorphism laws,
                   normalizer identity, duality, exactly-one normalization,
                   socle facts, fixed points of simple-group automorphisms).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from functools import partial
from typing import Callable, NamedTuple, Optional

import numpy as np

from .catalog import catalog_aut6_tower, resolve_spec
from .counting import METHODS, count_brute_force, count_sn
from .groups import (center, is_solvable, normal_subgroups, order_census, quotient_group,
                     sorted_distinct)
from .holomorph import (crossed_homomorphisms, crossed_relation_holds, derive_h,
                        dual_regular_subgroup, holomorph_equals_translation_normalizers,
                        induce_on_quotient, lambda_perms, normalized_by,
                        regular_subgroups_in_holomorph, rho_perms)
from .morphisms import are_isomorphic, automorphism_group, enumerate_homomorphisms, fixed_points
from .screening import reverify_report, screen_candidate

# the small grid's catalog groups, grouped by order
_SAME_ORDER = (("C4", "V4"), ("C6", "S3"), ("C8", "C4xC2", "C2xC2xC2", "D4", "Q8"))
SMALL_CATALOG = [label for labels in _SAME_ORDER for label in labels]

# item labels whose catalog spec differs from the label
_SPECS = {"A5xC2": "AxCp(A5,2)", "A6xC2": "AxCp(A6,2)"}


def _group(label: str):
    return resolve_spec(_SPECS.get(label, label))


class Cell(NamedTuple):
    """e(G, N) = ``value`` along each of ``routes``.  With ``value`` None the
    first route gives the value that the others must match."""
    g: str
    n: str
    value: Optional[int]
    routes: tuple[str, ...]


class Route(NamedTuple):
    """One way to reach e(G, N).  ``count(suite, g, n)`` is what the route
    observes and ``expect(e)`` what it must observe when e(G, N) = e.  Its
    items are named ``name(g, n)``, by default "e(G,N) by <phrase>", and
    "<matches> matches <reference> for e(G,N)" against a reference route."""
    count: Callable[["_Suite", str, str], object]
    name: Optional[Callable[[str, str], str]] = None
    expect: Callable[[int], object] = lambda e: e
    matches: str = ""


def _census(s: "_Suite", g: str):
    """The oracle's census of Perm(G) over the same-order catalog groups,
    taken once per suite run."""
    if g not in s.censuses:
        G = _group(g)
        types = {l: _group(l) for l in SMALL_CATALOG if _group(l).order == G.order}
        s.censuses[g] = count_brute_force(G, types, g_label=g)
    return s.censuses[g]


def _by_method(method: str, s, g: str, n: str):
    """e(G, N) by ``counting.METHODS[method]``; a self-type count whose
    hypothesis check did not hold reads "conditional: e"."""
    r = METHODS[method](_group(g), _group(n), g_label=g, n_label=n)
    return f"conditional: {r.value}" if "CONDITIONAL" in r.notes else r.value


def _lifting(s, g: str, n: str):
    G, N = _group(g), _group(n)
    rep = screen_candidate(G, N, g, n)
    return (rep.shape_verdict, rep.conditions["condition-3"].status,
            reverify_report(rep, G, N))


# route phrase -> count call.  A screening route reaches only the zero
# cells: an N that the paper's necessary criteria exclude has e(G, N) = 0.
ROUTES = {
    "self-type formula": Route(partial(_by_method, "formula")),
    "product-type formula": Route(partial(_by_method, "formula")),
    "symmetric-group census": Route(lambda s, g, n: count_sn(  # G = S_n
        int(g[1:]), "Sn" if n == g else "AnxC2").value),
    "holomorph enumeration": Route(partial(_by_method, "byott"), matches="holomorph route"),
    "fixed-point-free pairs": Route(partial(_by_method, "fpf")),
    "oracle": Route(lambda s, g, n: _census(s, g).counts.get(n, 0)),
    "cyclic exclusion": Route(
        lambda s, g, n: screen_candidate(_group(g), _group(n), g, n).shape_verdict,
        name=lambda g, n: f"cyclic {n} is excluded for {g}",
        expect={0: "excluded"}.get),
    "exact-commutation lifting condition": Route(
        _lifting, expect={0: ("excluded", "fails", True)}.get,
        name=lambda g, n: f"{n} fails the exact-commutation lifting condition for {g}"),
}

# The order-720 table: G almost simple with socle A6 of index 2, N running
# over the six types the catalog holds.  Every row sums to 224.  Beside the
# holomorph route, the diagonal has the self-type formula and three columns
# the routes below.
_N_720 = ("S6", "PGL(2,9)", "M10", "A6xC2", "SL(2,9)", "C720")
_E_720 = {"S6": (92, 0, 72, 60, 0, 0),
          "PGL(2,9)": (0, 92, 60, 72, 0, 0),
          "M10": (72, 60, 92, 0, 0, 0)}
_ROUTES_720 = {"A6xC2": ("product-type formula", "fixed-point-free pairs"),
               "SL(2,9)": ("exact-commutation lifting condition",),
               "C720": ("cyclic exclusion",)}

CELLS = {
    "small": [Cell(g, n, None, ("oracle", "holomorph enumeration"))
              for labels in _SAME_ORDER for g in labels for n in labels],
    "paper-120": [
        Cell("S5", "S5", 32, ("self-type formula", "symmetric-group census",
                              "holomorph enumeration")),
        Cell("S5", "A5xC2", 20, ("product-type formula", "symmetric-group census",
                                 "holomorph enumeration", "fixed-point-free pairs")),
    ],
    "paper-720": [
        Cell(g, n, e, (("self-type formula",) if n == g else _ROUTES_720.get(n, ()))
             + ("holomorph enumeration",))
        for g in _E_720 for n, e in zip(_N_720, _E_720[g])],
}


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
        self.seen: dict[tuple[str, str, str], object] = {}  # (G, N, route) -> observed
        self.censuses: dict[str, object] = {}

    def item(self, name: str, fn: Callable[[], tuple[object, object]]) -> None:
        """One report item; ``fn`` gives (expected, observed) and is timed."""
        t0 = time.perf_counter()
        expected, observed = fn()
        ms = int((time.perf_counter() - t0) * 1000)
        item = CheckItem(name, expected, observed, observed == expected, ms)
        self.report.items.append(item)
        if self.log:
            self.log(item.line())

    def check(self, name: str, expected, fn: Callable[[], object]) -> None:
        self.item(name, lambda: (expected, fn()))

    def observe(self, c: Cell, phrase: str):
        seen = self.seen[c.g, c.n, phrase] = ROUTES[phrase].count(self, c.g, c.n)
        return seen

    def cells(self, suite: str, phrases: tuple[str, ...] = ()) -> None:
        """Check every route of every cell of ``CELLS[suite]``, in table order
        (only the routes in ``phrases``, when given), one item per route."""
        for c in CELLS[suite]:
            ref = c.routes[0] if c.value is None else None
            for phrase in c.routes:
                if phrase == ref or (phrases and phrase not in phrases):
                    continue
                route = ROUTES[phrase]
                name = (f"{route.matches} matches {ref} for e({c.g},{c.n})" if ref
                        else route.name(c.g, c.n) if route.name
                        else f"e({c.g},{c.n}) by {phrase}")
                self.item(name, lambda: (
                    route.expect(self.observe(c, ref) if ref else c.value),
                    self.observe(c, phrase)))


def _suite_small(s: _Suite) -> None:
    for g, census in (("C4", {"C4": 1, "V4": 1}), ("V4", {"V4": 1, "C4": 3})):
        s.check(f"brute census of {g}", census, lambda g=g: _census(s, g).counts)
    s.cells("small")


def _suite_paper_720(s: _Suite) -> None:
    s.cells("paper-720", ("self-type formula", "product-type formula", "fixed-point-free pairs"))
    s.cells("paper-720", ("holomorph enumeration",))
    for g in _E_720:
        s.check(f"e({g},N) summed over the six types by holomorph enumeration", 224,
                lambda g=g: sum(s.seen[g, n, "holomorph enumeration"] for n in _N_720))
    s.cells("paper-720", ("exact-commutation lifting condition", "cyclic exclusion"))

    s.check("Aut(A6) tower labels its three index-2 overgroups", ("M10", "PGL(2,9)", "S6"),
            lambda: tuple(sorted(set(catalog_aut6_tower()) - {"Aut(A6)", "Inn(A6)"})))

    def m10_outer_involutions():
        M10 = catalog_aut6_tower()["M10"]
        socle = next(n for n in normal_subgroups(M10) if n.size == 360)
        return order_census(M10, 2, "outside", socle)

    s.check("M10 outer coset is involution-free", 0, m10_outer_involutions)


def _crossed_sweep(S5, N) -> dict:
    """Every bijective crossed homomorphism for (S5, A5 x C2) against the
    crossed relation, its companion map (whose construction checks that it
    is a homomorphism), their fixed points and kernel laws, and the
    quotient induction onto the socle of S5."""
    aut = automorphism_group(N)
    ZN = center(N).members
    socle_g = next(n for n in normal_subgroups(S5) if n.size == 60)
    a_factor = next(n for n in normal_subgroups(N) if n.size == 60)
    pairs, all_hold = 0, True
    for f in enumerate_homomorphisms(S5, aut.carrier):
        for c in crossed_homomorphisms(aut, f):
            pairs += 1
            h = derive_h(c)
            kf, kh = np.flatnonzero(c.f.images == 0), np.flatnonzero(h.images == 0)
            all_hold &= bool(
                crossed_relation_holds(aut, c.f, c.g)
                and np.array_equal(fixed_points(c.f, h),
                                   np.flatnonzero(np.isin(c.g, ZN)))
                and np.array_equal(c.g[S5.mul[kf]], N.mul[c.g[kf][:, None], c.g])
                and np.array_equal(c.g[S5.mul[kh]], N.mul[c.g, c.g[kh][:, None]])
                and np.array_equal(induce_on_quotient(c, a_factor)[1].members,
                                   socle_g.members))
    return {"pairs": pairs, "all_hold": all_hold}


def _suite_lemmas(s: _Suite) -> None:
    S5, N5 = resolve_spec("S5"), resolve_spec("AxCp(A5,2)")
    s.check("crossed-homomorphism laws on every bijective pair for (S5,A5xC2)",
            {"pairs": 2400, "all_hold": True}, lambda: _crossed_sweep(S5, N5))

    for label in ("C2", "C3", "C4", "V4", "C5", "C6", "S3"):
        s.check(f"normalizer identity for {label}", True,
                lambda label=label: holomorph_equals_translation_normalizers(
                    resolve_spec(label)))

    def duality(label: str):
        G = resolve_spec(label)
        subgroups = _census(s, label).subgroups
        keys = {D.key() for D in subgroups}
        lam = lambda_perms(G, G.gens)
        for D in subgroups:
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
        lam, rho = lambda_perms(N5, N5.gens), rho_perms(N5, N5.gens)
        return (len(run.samples), all(normalized_by(D, lam) != normalized_by(D, rho)
                                      for D in run.samples))

    s.check("each regular S5-subgroup of Hol(A5xC2) is normalized by exactly "
            "one translation side", (20, True), exactly_one_normalizer)

    for label in ("A5", "A6"):
        A = resolve_spec(label)
        s.check(f"every automorphism of {label} fixes a nonidentity element", True,
                lambda A=A: int((automorphism_group(A).perms == np.arange(A.order))
                                .sum(axis=1).min()) >= 2)

        def unique_simple_copy(A=A):
            aut = automorphism_group(A)
            copies = [sorted_distinct(h.images).astype(np.int64).tobytes()
                      for h in enumerate_homomorphisms(A, aut.carrier) if h.is_injective()]
            if any(copy != aut.inner.members.tobytes() for copy in copies):
                return "found a copy other than the inner one"
            return f"{len(copies)} embeddings, all onto the inner copy"

        s.check(f"the only copy of {label} inside its automorphism group is the inner one",
                f"{automorphism_group(A).order} embeddings, all onto the inner copy",
                unique_simple_copy)

        def outer_solvable(A=A):
            aut = automorphism_group(A)
            return is_solvable(quotient_group(aut.carrier, aut.inner)[0])

        s.check(f"outer automorphism group of {label} is solvable", True, outer_solvable)


_SUITES = {
    "small": _suite_small,
    "paper-120": lambda s: s.cells("paper-120"),
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
