"""The benchmark's workloads: seeded inputs plus checked calls into hgs.

Each workload builds its input groups (catalog resolve, then the seeded
relabel) and then runs checks, each comparing one hgs result with its
expected value.  Calls go through module attributes (``counting.count_byott``
rather than a name bound at import) so that the tracer's wrappers see them.
"""

from __future__ import annotations

import traceback
from dataclasses import dataclass
from typing import Callable, Optional

from hgs import catalog, counting, groups, screening

from relabel import relabel

SMALL_CATALOG = ["C4", "V4", "C6", "S3", "C8", "C4xC2", "C2xC2xC2", "D4", "Q8"]
# orders at which the brute Sym(n) oracle runs in every pass; at order 8 it
# alone takes 20-25 s, too long a pass to time steadily, so the order-8
# pairs are checked by the holomorph route against the pinned grid only
ORACLE_ORDERS = (4, 6)

# e(G, N) on the small grid, for every ordered pair of same-order catalog
# groups; the holomorph route, and the oracle where it runs, must give these
SMALL_GRID = {
    ("C4", "C4"): 1, ("C4", "V4"): 1,
    ("V4", "C4"): 3, ("V4", "V4"): 1,
    ("C6", "C6"): 1, ("C6", "S3"): 2,
    ("S3", "C6"): 3, ("S3", "S3"): 2,
    ("C8", "C8"): 2, ("C8", "C4xC2"): 0, ("C8", "C2xC2xC2"): 0,
    ("C8", "D4"): 2, ("C8", "Q8"): 2,
    ("C4xC2", "C8"): 4, ("C4xC2", "C4xC2"): 10, ("C4xC2", "C2xC2xC2"): 4,
    ("C4xC2", "D4"): 6, ("C4xC2", "Q8"): 2,
    ("C2xC2xC2", "C8"): 0, ("C2xC2xC2", "C4xC2"): 42,
    ("C2xC2xC2", "C2xC2xC2"): 8, ("C2xC2xC2", "D4"): 42,
    ("C2xC2xC2", "Q8"): 14,
    ("D4", "C8"): 2, ("D4", "C4xC2"): 14, ("D4", "C2xC2xC2"): 6,
    ("D4", "D4"): 6, ("D4", "Q8"): 2,
    ("Q8", "C8"): 6, ("Q8", "C4xC2"): 6, ("Q8", "C2xC2xC2"): 2,
    ("Q8", "D4"): 6, ("Q8", "Q8"): 2,
}


@dataclass
class CheckResult:
    name: str
    expected: object
    observed: object
    ok: bool
    error: Optional[str] = None


class Checker:
    """Runs checks; a raised exception is recorded as a failed check."""

    def __init__(self, on_check: Optional[Callable[[str], None]] = None):
        self.results: list[CheckResult] = []
        self.on_check = on_check

    def check(self, name: str, expected, fn: Callable[[], object]) -> None:
        if self.on_check:
            self.on_check(name)
        try:
            observed = fn()
        except Exception as exc:  # a check that raises is a failed check
            self.fail(name, expected, exc)
            return
        self.results.append(CheckResult(name, expected, observed, observed == expected))

    def fail(self, name: str, expected, exc: Exception) -> None:
        self.results.append(CheckResult(
            name, expected, f"raised {type(exc).__name__}: {exc}", False,
            traceback.format_exc()))


def build_inputs(specs: dict[str, str], seed: int, variant: int = 0) -> dict:
    return {label: relabel(catalog.resolve_spec(spec), seed, label, variant)
            for label, spec in specs.items()}


def _paper_120(c: Checker, G: dict) -> None:
    S5, N = G["S5"], G["A5xC2"]
    c.check("e(S5,S5) by self-type formula", 32,
            lambda: counting.count_self_type(S5, g_label="S5").value)
    c.check("e(S5,S5) by symmetric-group census", 32,
            lambda: counting.count_sn(5, "Sn").value)
    c.check("e(S5,S5) by holomorph enumeration", 32,
            lambda: counting.count_byott(S5, S5, g_label="S5", n_label="S5").value)
    c.check("e(S5,A5xC2) by product-type formula", 20,
            lambda: counting.count_product_type(S5, g_label="S5",
                                                n_label="A5xC2").value)
    c.check("e(S5,A5xC2) by symmetric-group census", 20,
            lambda: counting.count_sn(5, "AnxC2").value)
    c.check("e(S5,A5xC2) by holomorph enumeration", 20,
            lambda: counting.count_byott(S5, N, g_label="S5",
                                         n_label="A5xC2").value)
    c.check("e(S5,A5xC2) by fixed-point-free pairs", 20,
            lambda: counting.count_fpf_inner_holomorph(
                S5, N, g_label="S5", n_label="A5xC2").value)


def _byott_120_jobs2(c: Checker, G: dict) -> None:
    S5, N = G["S5"], G["A5xC2"]
    c.check("e(S5,S5) by holomorph enumeration, 2 workers", 32,
            lambda: counting.count_byott(S5, S5, g_label="S5", n_label="S5",
                                         jobs=2).value)
    c.check("e(S5,A5xC2) by holomorph enumeration, 2 workers", 20,
            lambda: counting.count_byott(S5, N, g_label="S5", n_label="A5xC2",
                                         jobs=2).value)


def _paper_720(c: Checker, G: dict) -> None:
    PGL, M10, C720 = G["PGL(2,9)"], G["M10"], G["C720"]

    def self_type_checked(H, label):
        r = counting.count_self_type(H, g_label=label)
        if "CONDITIONAL" in r.notes:
            return f"conditional: {r.value}"
        return r.value

    c.check("e(PGL(2,9),PGL(2,9)) by self-type formula", 92,
            lambda: self_type_checked(PGL, "PGL(2,9)"))
    # one order-720 Aut search per pass keeps a run inside its time budget,
    # so M10's inner-uniqueness hypothesis is left to the tier-1 suite
    c.check("e(M10,M10) by self-type formula, hypothesis not rechecked", 92,
            lambda: counting.count_self_type(M10, g_label="M10",
                                             check_hypothesis=False).value)
    c.check("e(PGL(2,9),A6xC2) by product-type formula", 72,
            lambda: counting.count_product_type(PGL, g_label="PGL(2,9)").value)
    c.check("e(M10,A6xC2) by product-type formula", 0,
            lambda: counting.count_product_type(M10, g_label="M10").value)

    c.check("cyclic C720 is excluded for PGL(2,9)", "excluded",
            lambda: screening.screen_candidate(PGL, C720, "PGL(2,9)",
                                               "C720").shape_verdict)
    c.check("cyclic C720 is excluded for M10", "excluded",
            lambda: screening.screen_candidate(M10, C720, "M10",
                                               "C720").shape_verdict)

    def tower_labels():
        tower = catalog.catalog_aut6_tower()
        return tuple(sorted(k for k in tower if k not in ("Aut(A6)", "Inn(A6)")))

    c.check("Aut(A6) tower labels its three index-2 overgroups",
            ("M10", "PGL(2,9)", "S6"), tower_labels)

    def m10_outer_involutions():
        socle = [n for n in groups.normal_subgroups(M10) if n.size == 360][0]
        return groups.order_census(M10, 2, "outside", socle)

    c.check("M10 outer coset is involution-free", 0, m10_outer_involutions)


def _oracle_small(c: Checker, G: dict) -> None:
    by_order: dict[int, dict] = {}
    for label in SMALL_CATALOG:
        by_order.setdefault(G[label].order, {})[label] = G[label]
    c.check("brute census of C4", {"C4": 1, "V4": 1},
            lambda: counting.count_brute_force(G["C4"], G).counts)
    c.check("brute census of V4", {"V4": 1, "C4": 3},
            lambda: counting.count_brute_force(G["V4"], G).counts)
    census: dict[str, dict] = {}

    def byott(gl: str, nl: str) -> int:
        return counting.count_byott(G[gl], G[nl], g_label=gl, n_label=nl).value

    def both_routes(gl: str, nl: str) -> tuple[int, int]:
        if gl not in census:
            census[gl] = counting.count_brute_force(
                G[gl], by_order[G[gl].order], g_label=gl).counts
        return census[gl].get(nl, 0), byott(gl, nl)

    for (gl, nl), value in SMALL_GRID.items():
        if G[gl].order in ORACLE_ORDERS:
            c.check(f"e({gl},{nl}) by oracle and by holomorph enumeration",
                    (value, value), lambda gl=gl, nl=nl: both_routes(gl, nl))
        else:
            c.check(f"e({gl},{nl}) by holomorph enumeration", value,
                    lambda gl=gl, nl=nl: byott(gl, nl))


@dataclass(frozen=True)
class Workload:
    specs: dict[str, str]
    checks: Callable[[Checker, dict], None]


WORKLOADS = {
    "paper-120": Workload({"S5": "S5", "A5xC2": "AxCp(A5,2)"}, _paper_120),
    "paper-720": Workload({"PGL(2,9)": "PGL(2,9)", "M10": "M10", "C720": "C720"},
                          _paper_720),
    "oracle-small": Workload({label: label for label in SMALL_CATALOG}, _oracle_small),
    "byott-120-jobs2": Workload({"S5": "S5", "A5xC2": "AxCp(A5,2)"}, _byott_120_jobs2),
}
