"""The suites' cell tables: every headline value by two routes.

``hgs.verify.CELLS`` holds one row per cell (G, N, expected e(G, N),
routes) for the small, paper-120 and paper-720 suites.  These tests read the
rows without running any count.  A cell reached by fewer than two distinct
routes fails unless ``EXEMPT`` names it with its reason, and an exemption
that names a cell with two routes fails too, so the map stays exact.
"""

from hgs import verify
from hgs.verify import CELLS, ROUTES, Route, run_verify_suite

_CROSS = ("only the holomorph route reaches the cross cells among S6, PGL(2,9) "
          "and M10; the pair route of ROADMAP item 1 is their second")
EXEMPT = {
    ("paper-720", "S6", "PGL(2,9)"): _CROSS,
    ("paper-720", "S6", "M10"): _CROSS,
    ("paper-720", "PGL(2,9)", "S6"): _CROSS,
    ("paper-720", "PGL(2,9)", "M10"): _CROSS,
    ("paper-720", "M10", "S6"): _CROSS,
    ("paper-720", "M10", "PGL(2,9)"): _CROSS,
}


def _route_faults(cells, exempt) -> list[str]:
    """Cells with fewer than two distinct routes that ``exempt`` does not
    name, exemptions of cells that have two, repeated cells and unknown
    routes."""
    faults, found = [], set()
    for suite, rows in cells.items():
        for c in rows:
            key = (suite, c.g, c.n)
            if key in found:
                faults.append(f"{suite}: e({c.g},{c.n}) has two rows")
            found.add(key)
            faults += [f"{suite}: e({c.g},{c.n}) names no route {p!r}"
                       for p in c.routes if p not in ROUTES]
            if len(set(c.routes)) < 2 and key not in exempt:
                faults.append(f"{suite}: e({c.g},{c.n}) has one route {c.routes}")
            elif len(set(c.routes)) >= 2 and key in exempt:
                faults.append(f"{suite}: e({c.g},{c.n}) is exempt but has two routes")
    faults += [f"{k[0]}: e({k[1]},{k[2]}) is exempt but no cell" for k in exempt
               if k not in found]
    return faults


def test_every_cell_has_two_routes_or_a_named_exemption():
    assert set(CELLS) == {"small", "paper-120", "paper-720"}
    assert {s: len(rows) for s, rows in CELLS.items()} == {
        "small": 33, "paper-120": 2, "paper-720": 18}
    assert _route_faults(CELLS, EXEMPT) == []
    assert all(reason for reason in EXEMPT.values())


def test_every_route_serves_some_cell():
    used = {p for rows in CELLS.values() for c in rows for p in c.routes}
    assert used == set(ROUTES)


def test_a_cell_left_with_one_route_is_named():
    cells = {suite: list(rows) for suite, rows in CELLS.items()}
    rows = cells["paper-720"]
    i = next(i for i, c in enumerate(rows) if c.g == c.n == "PGL(2,9)")
    assert "self-type formula" in rows[i].routes
    rows[i] = rows[i]._replace(routes=tuple(
        p for p in rows[i].routes if p != "self-type formula"))
    assert _route_faults(cells, EXEMPT) == [
        "paper-720: e(PGL(2,9),PGL(2,9)) has one route ('holomorph enumeration',)"]
    assert CELLS["paper-720"][i].routes != rows[i].routes


def test_dropping_an_exemption_names_its_cross_cell():
    for key in EXEMPT:
        exempt = {k: v for k, v in EXEMPT.items() if k != key}
        assert _route_faults(CELLS, exempt) == [
            f"paper-720: e({key[1]},{key[2]}) has one route ('holomorph enumeration',)"]


def test_a_route_off_by_one_fails_exactly_its_items(monkeypatch):
    for phrase in ("fixed-point-free pairs", "symmetric-group census"):
        count = ROUTES[phrase].count
        with monkeypatch.context() as m:
            m.setitem(verify.ROUTES, phrase,
                      Route(lambda s, g, n, count=count: count(s, g, n) + 1))
            report = run_verify_suite("paper-120")
        failed = [i.name for i in report.items if not i.ok]
        assert failed == [f"e({c.g},{c.n}) by {phrase}" for c in CELLS["paper-120"]
                          if phrase in c.routes]
        assert not report.ok
        assert len(report.items) == 7
    assert run_verify_suite("paper-120").ok
