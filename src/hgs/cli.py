"""Command-line interface.

Exit codes: 0 success, 1 check failure, 2 usage or parse error, or a
``counting.NoFormulaError`` (no closed form fits ``count --method
formula``), 3 infeasible (a size cap was exceeded), 4 internal error (an
engine invariant failed, which is a bug in hgs).  HGS_MAX_TABLE overrides
the Cayley-table cap of 2000, up to 32768: element indices are 16-bit
(``groups.ELEMENT_DTYPE``), so a table takes 2 bytes per entry, about 1 MB
at order 720 and 4 MB for a 1440-element Aut carrier.  hgs runs one
process and one thread: every count runs in the process that parses the
command line.
"""

from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from .catalog import SpecError, catalog_list, resolve_spec
from .counting import METHODS, NoFormulaError
from .groups import CapExceededError, EngineError, GroupError, center
from .report import emit_report
from .screening import classify_group, screen_candidate
from .verify import SUITE_NAMES, run_verify_suite

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_USAGE = 2
EXIT_INFEASIBLE = 3
EXIT_INTERNAL = 4


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hgs",
        description="Count Hopf-Galois structures on finite groups by "
                    "formula, holomorph enumeration, or brute force.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_info = sub.add_parser("info", help="classify a group and print censuses")
    p_info.add_argument("-G", required=True, metavar="SPEC")
    p_info.add_argument("--json", action="store_true")

    p_count = sub.add_parser("count", help="count structures of type N on G")
    p_count.add_argument("-G", required=True, metavar="SPEC")
    p_count.add_argument("-N", required=True, metavar="SPEC")
    p_count.add_argument("--method", required=True, choices=list(METHODS))
    p_count.add_argument("--json", action="store_true")
    p_count.add_argument("--allow-order-9", action="store_true",
                         help="lift the brute-force cap from 8 to 9 (~15 s); "
                              "orders 10-12 do not finish and are refused")

    p_screen = sub.add_parser("screen", help="necessary-condition screen of N against G")
    p_screen.add_argument("-G", required=True, metavar="SPEC")
    p_screen.add_argument("-N", required=True, metavar="SPEC")
    p_screen.add_argument("--json", action="store_true")

    p_verify = sub.add_parser("verify", help="run a named verification suite")
    p_verify.add_argument("--suite", required=True, choices=list(SUITE_NAMES))
    p_verify.add_argument("--json", action="store_true")

    p_catalog = sub.add_parser("catalog", help="catalog utilities")
    p_catalog.add_argument("action", choices=["list"])
    return parser


def _cmd_info(args) -> int:
    G = resolve_spec(args.G)
    cls = classify_group(G)
    # np.bincount, as groups.fingerprint: a plain np.unique imports numpy.ma
    census = {k: c for k, c in enumerate(np.bincount(G.elt_order).tolist()) if c}
    payload = {
        "spec": args.G,
        "order": G.order,
        "classification": cls.kind,
        "center_order": center(G).size,
        "socle_order": cls.socle.size if cls.socle is not None else None,
        "socle_index": cls.prime,
        "element_order_census": census,
    }
    if args.json:
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        for key, value in payload.items():
            print(f"{key}: {value}")
    return EXIT_OK


def _cmd_count(args) -> int:
    G, N = resolve_spec(args.G), resolve_spec(args.N)
    if args.method == "brute":
        result = METHODS["brute"](G, N, g_label=args.G, n_label=args.N,
                                  allow_order_9=args.allow_order_9)
    else:
        result = METHODS[args.method](G, N, g_label=args.G, n_label=args.N)
    print(emit_report([result], "json" if args.json else "table"))
    return EXIT_OK


def _cmd_screen(args) -> int:
    G, N = resolve_spec(args.G), resolve_spec(args.N)
    report = screen_candidate(G, N, args.G, args.N)
    if args.json:
        print(report.to_json())
    else:
        print(f"G = {args.G}, N = {args.N}")
        print(f"verdict: {report.shape_verdict}")
        if report.reason:
            print(f"reason: {report.reason}")
        for key, cond in report.conditions.items():
            print(f"{key}: {cond.status} {cond.witness}")
    return EXIT_OK


def _cmd_verify(args) -> int:
    report = run_verify_suite(args.suite, log=None if args.json else print)
    if args.json:
        print(json.dumps(report.to_dict(), indent=2, sort_keys=True))
    else:
        print(report.summary())
    return EXIT_OK if report.ok else EXIT_CHECK_FAILED


def _cmd_catalog(args) -> int:
    print("\n".join(catalog_list()))
    return EXIT_OK


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else EXIT_OK
    commands = {"info": _cmd_info, "count": _cmd_count, "screen": _cmd_screen,
                "verify": _cmd_verify, "catalog": _cmd_catalog}
    try:
        return commands[args.command](args)
    except CapExceededError as exc:
        print(f"infeasible: {exc}", file=sys.stderr)
        return EXIT_INFEASIBLE
    except NoFormulaError as exc:
        print(exc, file=sys.stderr)
        return EXIT_USAGE
    except SpecError as exc:
        print(f"spec error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except GroupError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CHECK_FAILED
    except EngineError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    raise SystemExit(main())
