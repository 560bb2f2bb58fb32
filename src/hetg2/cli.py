"""Command-line verification driver.

``hetg2 verify --suite <name>`` runs a named suite of exact checks and
prints one line per check; ``--json`` writes a byte-stable report (no
timestamps), ``--params`` overrides the parameters of the exact-solution
checks.  Exit code 0 means no failures (flagged findings are allowed and
expected: the suites deliberately surface source-convention discrepancies),
1 means at least one failure, 2 a usage error or an unwritable report.
"""

from __future__ import annotations

import argparse
import sys

# Importing the driver imports no domain module and no check declaration:
# each command imports only what its work needs (``--list`` the declarations
# in ``suites``, ``show`` one registry's module).
from . import PARAM_KEYS, SPINOR_LABELS, __version__

SUITES = ("3ad", "su3", "spinor", "heisenberg", "bianchi", "all")


def _entry(name: str):
    # the declarations are imported only when a suite runs
    def records(params: dict) -> list:
        from .suites import SUITE_CLASSES
        return SUITE_CLASSES[name].records(params)
    return records


# the entry point of each suite: its records for the given --params
SUITE_FUNCS = {name: _entry(name) for name in SUITES if name != "all"}
suite_3ad, suite_su3, suite_spinor, suite_heisenberg, suite_bianchi = \
    SUITE_FUNCS.values()


def parse_params(text: str) -> dict:
    from fractions import Fraction
    out = {}
    if not text:
        return out
    for piece in text.split(","):
        piece = piece.strip()
        if not piece:
            continue
        if "=" not in piece:
            raise ValueError(f"parameter binding without '=': {piece!r}")
        key, val = piece.split("=", 1)
        key = key.strip()
        if key not in PARAM_KEYS:
            raise ValueError(f"unknown parameter: {key!r} "
                             f"(known: {', '.join(PARAM_KEYS)})")
        if key in out:
            raise ValueError(f"parameter {key!r} given twice")
        try:
            out[key] = Fraction(val.strip())
        except (ValueError, ZeroDivisionError):
            raise ValueError(f"parameter {key!r}: {val.strip()!r} is not a "
                             "rational number") from None
    return out


def run_suite(suite: str, params: dict) -> list:
    names = list(SUITE_FUNCS) if suite == "all" else [suite]
    records = []
    for name in names:
        records.extend(SUITE_FUNCS[name](params))
    return records


def report_payload(suite: str, records) -> dict:
    summary = {"pass": 0, "fail": 0, "flagged": 0}
    for r in records:
        summary[r.status] += 1
    return {
        "version": __version__,
        "suite": suite,
        "records": [r.as_dict() for r in records],
        "summary": summary,
    }


def render_json(payload: dict) -> str:
    import json
    return json.dumps(payload, indent=2, sort_keys=False, ensure_ascii=True)


def list_checks(stream, suite: str = "all") -> None:
    """The suite names, then the check ids of ``suite`` ("all": of each)."""
    from .suites import SUITE_CLASSES
    print("suites:", ", ".join(SUITES), file=stream)
    for name, cls in SUITE_CLASSES.items():
        for chk in cls.checks if suite in ("all", name) else ():
            print(f"  {name}: {chk.check_id}", file=stream)


def cmd_verify(args) -> int:
    try:
        params = parse_params(args.params or "")
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.list:
        if params or args.json:
            what = f"parameter {next(iter(params))!r}" if params else "--json"
            print(f"error: --list does not read {what}", file=sys.stderr)
            return 2
        list_checks(sys.stdout, args.suite or "all")
        return 0
    if args.suite is None:
        print("error: --suite is required (or use --list)", file=sys.stderr)
        return 2
    from .suites import SUITE_CLASSES
    suites = SUITE_CLASSES.values() if args.suite == "all" \
        else [SUITE_CLASSES[args.suite]]
    for key in params:
        if not any(key in suite.reads for suite in suites):
            print(f"error: --suite {args.suite} does not read parameter "
                  f"{key!r}", file=sys.stderr)
            return 2
    records = run_suite(args.suite, params)
    payload = report_payload(args.suite, records)
    for r in records:
        line = f"{r.status.upper():7s} {r.check_id}: {r.claim}"
        if r.notes:
            line += f"  [{r.notes}]"
        print(line)
    s = payload["summary"]
    print(f"summary: {s['pass']} pass, {s['fail']} fail, "
          f"{s['flagged']} flagged")
    if args.json:
        try:
            with open(args.json, "w") as fh:
                fh.write(render_json(payload))
        except OSError as exc:
            print(f"error: cannot write '{args.json}': {exc.strerror}",
                  file=sys.stderr)
            return 2
    return 0 if s["fail"] == 0 else 1


def cmd_show(args) -> int:
    # a spinor label is known without importing either registry's module
    if args.name in SPINOR_LABELS:
        from .spinor import spinor_registry
        print(tuple(spinor_registry()[args.name]()))
        return 0
    from .structures import registry
    reg = registry()
    if args.name in reg:
        print(reg[args.name]().text())
        return 0
    print(f"error: unknown name {args.name!r}; known: "
          + ", ".join(sorted([*reg, *SPINOR_LABELS])), file=sys.stderr)
    return 2


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="hetg2",
        description="exact verification suites for the heterotic flux "
                    "identities on the two contact geometries")
    sub = parser.add_subparsers(dest="command")
    ver = sub.add_parser("verify", help="run a verification suite")
    ver.add_argument("--suite", choices=SUITES)
    ver.add_argument("--params", help="rational overrides, e.g. "
                                      "alpha=1,delta=0,alphap=1/12")
    ver.add_argument("--json", help="write the report to this path")
    ver.add_argument("--list", action="store_true",
                     help="list suites and the check ids of --suite")
    show = sub.add_parser("show", help="print a named form or spinor")
    show.add_argument("--name", required=True)
    args = parser.parse_args(argv)
    if args.command == "verify":
        return cmd_verify(args)
    if args.command == "show":
        return cmd_show(args)
    parser.print_help()
    return 2


if __name__ == "__main__":
    sys.exit(main())
