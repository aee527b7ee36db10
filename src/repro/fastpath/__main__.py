"""``python -m repro.fastpath`` — compile diagnostics from the shell.

Currently one subcommand::

    python -m repro.fastpath explain --kernel descrambler
    python -m repro.fastpath explain --kernel despreader --json

loads a demo kernel netlist into a fresh configuration manager, runs
:func:`repro.fastpath.explain` over it and prints the
:class:`~repro.diagnostics.CompileReport` as text or JSON.
"""

from __future__ import annotations

import argparse
import json
import sys

from repro.fastpath.explain import DEFAULT_CYCLES, explain


def _build_kernel(name: str):
    """Demo netlists for the explain CLI, built with default shapes."""
    from repro import kernels
    if name == "descrambler":
        return kernels.build_descrambler_config()
    if name == "despreader":
        return kernels.build_despreader_config(2, 4)
    if name == "chancorr":
        return kernels.build_channel_correction_config([1 + 1j, 1 - 1j])
    if name == "fft_stage":
        return kernels.build_fft_stage_config(0, [0] * 64)
    if name == "scalar_cmul":
        return kernels.scalar_cmul_config()
    raise KeyError(name)


KERNELS = ("descrambler", "despreader", "chancorr", "fft_stage",
           "scalar_cmul")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.fastpath",
        description="fastpath compiler diagnostics")
    sub = parser.add_subparsers(dest="cmd", required=True)

    p_explain = sub.add_parser(
        "explain", help="dry-run the compile pipeline over a demo kernel")
    p_explain.add_argument("--kernel", choices=KERNELS,
                           default="descrambler",
                           help="demo netlist to load (default: descrambler)")
    p_explain.add_argument("--cycles", type=int, default=DEFAULT_CYCLES,
                           help="replay probe window in cycles "
                                f"(default: {DEFAULT_CYCLES})")
    p_explain.add_argument("--json", action="store_true",
                           help="emit the report as JSON instead of text")

    args = parser.parse_args(argv)
    if args.cmd == "explain":
        from repro.xpp.manager import ConfigurationManager
        mgr = ConfigurationManager()
        mgr.load(_build_kernel(args.kernel))
        report = explain(mgr, cycles=args.cycles)
        if args.json:
            print(json.dumps(report.to_dict(), indent=2, sort_keys=True))
        else:
            print(report.render())
        return 0 if report.ok else 1
    return 2


if __name__ == "__main__":
    sys.exit(main())
