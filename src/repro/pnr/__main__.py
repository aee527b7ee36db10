"""Command-line front end: ``python -m repro.pnr``.

``compile`` runs the full pipeline on the DSL kernels (or a graph JSON
file), prints the report, and exits nonzero on any legality
diagnostic — which is exactly what the CI compile-smoke step asserts.
``codes`` prints the diagnostic vocabulary of both compilers.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from repro.diagnostics import CODES
from repro.pnr.compile import compile_graph
from repro.pnr.diag import PnrError
from repro.pnr.graph import KernelGraph


def _golden_path(directory: str, name: str) -> Path:
    return Path(directory) / f"pnr_{name}.json"


def _load_graphs(args) -> list:
    if args.graph:
        payloads = []
        for path in args.graph:
            payload = json.loads(Path(path).read_text())
            payloads.append(KernelGraph.from_dict(
                payload.get("graph", payload)))
        return payloads
    from repro.kernels.dsl import golden_kernels
    kernels = golden_kernels()
    names = args.kernels or sorted(kernels)
    missing = [n for n in names if n not in kernels]
    if missing:
        raise SystemExit(f"unknown kernel(s) {missing}; "
                         f"have {sorted(kernels)}")
    return [kernels[n] for n in names]


def _cmd_compile(args) -> int:
    try:
        graphs = _load_graphs(args)
    except PnrError as exc:     # malformed --graph file
        print(exc, file=sys.stderr)
        return 1
    status = 0
    reports = []
    for graph in graphs:
        try:
            kernel = compile_graph(graph, balance=args.balance)
            report = kernel.report
        except PnrError as exc:
            kernel, report = None, exc.report
        reports.append(report)
        if not args.json:
            print(report.render())
        if kernel is None:
            status = 1
            continue
        if args.nml and not args.json:
            from repro.xpp.nml import dump_nml
            print(dump_nml(kernel.config))
        placement = kernel.placement
        if args.write_golden:
            path = _golden_path(args.write_golden, graph.name)
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_text(json.dumps(placement.to_dict(), indent=2,
                                       sort_keys=True) + "\n")
            if not args.json:
                print(f"  wrote {path}")
        if args.check_golden:
            path = _golden_path(args.check_golden, graph.name)
            committed = json.loads(path.read_text())
            if committed != placement.to_dict():
                status = 1
                print(f"placement of {graph.name!r} differs from the "
                      f"golden artifact {path}.\nIf the change is "
                      f"intended, regenerate with:\n  python -m "
                      f"repro.pnr compile --write-golden "
                      f"{args.check_golden}", file=sys.stderr)
    if args.json:
        print(json.dumps([r.to_dict() for r in reports], indent=2))
    return status


def _cmd_codes(_args) -> int:
    width = max(len(c) for c in CODES)
    for code, (compiler, desc) in CODES.items():
        print(f"{code:<{width}}  {compiler:<8}  {desc}")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.pnr",
        description="kernel DSL place-and-route compiler")
    sub = parser.add_subparsers(dest="command", required=True)

    p_compile = sub.add_parser(
        "compile", help="compile DSL kernels (exit 1 on any diagnostic)")
    p_compile.add_argument("kernels", nargs="*",
                           help="kernel names (default: all DSL kernels)")
    p_compile.add_argument("--graph", action="append", metavar="FILE",
                           help="compile a graph JSON file instead")
    p_compile.add_argument("--json", action="store_true",
                           help="machine-readable reports on stdout")
    p_compile.add_argument("--nml", action="store_true",
                           help="also print the emitted NML netlist")
    p_compile.add_argument("--balance", action="store_true",
                           help="skew-balanced FIFO-depth inference")
    p_compile.add_argument("--write-golden", metavar="DIR",
                           help="write placement golden artifacts")
    p_compile.add_argument("--check-golden", metavar="DIR",
                           help="compare placements against goldens")
    p_compile.set_defaults(func=_cmd_compile)

    p_codes = sub.add_parser("codes", help="print the diagnostic table of both compilers")
    p_codes.set_defaults(func=_cmd_codes)

    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":      # pragma: no cover - exercised via CLI tests
    sys.exit(main())
