"""Acceptance criteria, one test per criterion, printing pass/fail lines.

All five run in the default suite; criteria 1 and 5 share one run of the
paper-720 suite (about 10 s on one core), which checks the formula values
and all 18 holomorph counts of the order-720 table.  Each suite's items are
also pinned by digest, inside the run that its criterion makes.
"""

import hashlib
import json

import pytest

from hgs.verify import run_verify_suite

# sha256 of each suite's items (name, expected, observed, status, in order;
# runtimes left out), with the item counts
ITEM_DIGESTS = {
    "small": (35, "b622ea7a19aac8dbfd8aa1371fdb2435960c2946ca35f86df9bdfe7926db2243"),
    "paper-120": (7, "83e461dbd360a5fa35dd96e62d06285717861573fcc7c19145032686d20c4b8d"),
    "paper-720": (38, "2f3844bdaba39621a6766a506798d8f3c3abd1b2e4cf2703cc53da32cb488beb"),
    "lemmas": (24, "6e7436529ff4c38c6a2ecfc294c023577e35b75c9be2e52a4a02c23e9b8459bb"),
}


def _run(suite: str, **kw):
    lines = []
    report = run_verify_suite(suite, log=lines.append, **kw)
    for line in lines:
        print(line)
    return report


def _assert_items_pinned(report):
    items = [[i["name"], i["expected"], i["observed"], i["status"]]
             for i in report.to_dict()["items"]]
    digest = hashlib.sha256(json.dumps(items).encode()).hexdigest()
    assert (len(items), digest) == ITEM_DIGESTS[report.suite]


@pytest.fixture(scope="module")
def paper_720():
    return _run("paper-720")


# e(G, N) at order 720: rows G, columns N = S6, PGL(2,9), M10, A6xC2,
# SL(2,9), C720.
TABLE_720 = {
    "S6": (92, 0, 72, 60, 0, 0),
    "PGL(2,9)": (0, 92, 60, 72, 0, 0),
    "M10": (72, 60, 92, 0, 0, 0),
}
TYPES_720 = ("S6", "PGL(2,9)", "M10", "A6xC2", "SL(2,9)", "C720")


def test_criterion_1_formula_paths_order_720(paper_720):
    """Self-type and product-type formula values at order 720 (92, 92, 92
    and 60, 72, 0), the A6xC2 column again by fixed-point-free pairs, every
    cell of the order-720 table by holomorph enumeration, and each row
    summing to 224."""
    for item in paper_720.items:
        assert item.ok, item.line()
    named = {i.name: i.observed for i in paper_720.items}
    for g, row in TABLE_720.items():
        for n, value in zip(TYPES_720, row):
            assert named[f"e({g},{n}) by holomorph enumeration"] == value
        assert named[f"e({g},{g}) by self-type formula"] == 92
        assert named[f"e({g},A6xC2) by product-type formula"] == row[3]
        assert named[f"e({g},A6xC2) by fixed-point-free pairs"] == row[3]
        assert named[f"e({g},N) summed over the six types by holomorph "
                     f"enumeration"] == sum(row) == 224
    _assert_items_pinned(paper_720)


def test_criterion_2_triple_agreement_order_120():
    """e(S5,S5) = 32 and e(S5,A5xC2) = 20 along every route, exactly."""
    report = _run("paper-120")
    values = {i.name: i.observed for i in report.items}
    assert all(i.ok for i in report.items), [i.line() for i in report.items]
    assert len([v for v in values.values() if v == 32]) == 3
    assert len([v for v in values.values() if v == 20]) == 4
    _assert_items_pinned(report)


def test_criterion_3_oracle_equivalence_small_orders():
    """Per-type brute-force counts equal the holomorph route at orders 4, 6, 8."""
    report = _run("small")
    assert len(report.items) == 35  # 2 fixtures + 33 ordered pairs
    for item in report.items:
        assert item.ok, item.line()
    _assert_items_pinned(report)


def test_criterion_4_lemma_property_suite():
    """Crossed-homomorphism laws, normalizer identity, duality, exactly-one
    normalization, socle facts, and simple-group automorphism facts."""
    report = _run("lemmas")
    for item in report.items:
        assert item.ok, item.line()
    _assert_items_pinned(report)


def test_criterion_5_screening_verdicts(paper_720):
    """SL(2,9) condition-3 failure with re-verified witnesses, cyclic
    exclusions, and the tower labeling (inside the paper-720 suite)."""
    named = {i.name: i for i in paper_720.items}
    for g in TABLE_720:
        assert named[f"SL(2,9) fails the exact-commutation lifting condition for {g}"].ok
        assert named[f"cyclic C720 is excluded for {g}"].ok
    assert named["M10 outer coset is involution-free"].ok
