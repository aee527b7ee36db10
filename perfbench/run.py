"""Benchmark entry point.

    python3 perfbench/run.py --workload serve_rake --seed 1 --seconds 25 --trace 0

``--trace 0`` measures one workload with tracing off and prints its
end-to-end metrics.  ``--trace 1`` runs the traced pass of every
workload (see ``traced.py``) and prints the per-layer metrics; its work
and inputs are fixed -- seed 1, whatever ``--seed`` says, and no
``--seconds`` -- so its counts are identical in every run.  Either way the last
line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the lines before it are for
people.  The exit code is 0 only when every output check passed, and 2
with no result line when no valid result could be produced.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from statistics import median

from common import (
    OUT_DIR,
    BenchError,
    HostSpeed,
    TooFewSamples,
    percentile,
    pin_environment,
    require_source,
)

#: Cold set-ups per timed run; ``setup_s`` is their median.
SETUP_SAMPLES = 5
SMOKE_SETUP_SAMPLES = 2

WORKLOAD_NAMES = ("serve_rake", "kernel_rake_chain", "campaign_ofdm_array")

#: Inputs of the traced run, fixed so its counts compare across runs.
TRACE_SEED = 1


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=25.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="tiny sizes for the self-tests; percentiles the "
                         "sample count cannot support print as null")
    ap.add_argument("--flip-bit", action="store_true",
                    help="self-test seam: flip one bit of one output "
                         "before the checks run")
    return ap.parse_args(argv)


def _percentile_ms(values_s, q, smoke):
    """``(value_ms or None, n_beyond)``; refusals end a full run."""
    try:
        value, beyond = percentile(values_s, q)
    except TooFewSamples as exc:
        if not smoke:
            raise
        print(f"  (refused: {exc})")
        return None, 0
    return 1e3 * value, beyond


def timed_run(args) -> dict:
    from workloads import WORKLOADS

    wl = WORKLOADS[args.workload](args.seed, args.seconds, args.smoke)
    samples = SMOKE_SETUP_SAMPLES if args.smoke else SETUP_SAMPLES
    setups = [HostSpeed().around(wl.setup_wall)
              for _ in range(samples - 1)]
    m = wl.measure(args.seconds)
    setups.append(m.setup_s)
    if args.flip_bit:
        wl.flip_one_bit()
    failed, messages = wl.check()

    lat = m.latencies_s
    p50, beyond50 = _percentile_ms(lat, 50, args.smoke)
    p90, beyond90 = _percentile_ms(lat, 90, args.smoke)
    metrics = {
        "throughput_per_s": (m.throughput_per_s, "1/s"),
        "latency_p50_ms": (p50, "ms"),
        "latency_p90_ms": (p90, "ms"),
        "setup_s": (median(setups), "s"),
        "peak_rss_mb": (m.peak_rss_mb, "MiB"),
    }
    print(f"{args.workload} seed={args.seed}: {m.items} items, "
          f"{m.steady_items} in a {m.steady_s:.2f} s steady phase")
    notes = {
        "latency_p50_ms": f"n={len(lat)}, {beyond50} beyond",
        "latency_p90_ms": f"n={len(lat)}, {beyond90} beyond",
        "setup_s": "median of " + ", ".join(f"{s:.4f}" for s in setups),
    }
    for name, (value, unit) in metrics.items():
        shown = "null" if value is None else f"{value:.6g}"
        print(f"  {name:18s} {shown:>12s} {unit:5s} {notes.get(name, '')}")
    wall = m.wall()
    print(f"  at the reference speed; wall clock: "
          + ", ".join(f"{name} {value:.6g}" for name, value in wall.items())
          + f"; the host ran at {median(m.host.unit_s) * 1e3:.4f} ms per "
          f"unit (reference {HostSpeed.REF_UNIT_S * 1e3:g})")
    for msg in messages:
        print(f"  CHECK FAILED: {msg}")
    return {"correct": failed == 0, "attempted": m.items, "failed": failed,
            "metrics": {name: {"value": value, "unit": unit}
                        for name, (value, unit) in metrics.items()}}


def traced_run(args) -> dict:
    from spans import Recorder
    from traced import TRACERS, layer_table
    from workloads import WORKLOADS

    metrics = {}
    attempted = failed = 0
    events = []
    tables = [f"# Where each item spends its time (seed {TRACE_SEED})", ""]
    for pid, name in enumerate(WORKLOAD_NAMES, start=1):
        wl = WORKLOADS[name](TRACE_SEED, args.seconds, args.smoke)
        t0 = time.perf_counter()
        items = wl.run_fixed()
        untraced_s = time.perf_counter() - t0
        untraced_out = wl.fixed_output()

        rec = Recorder()
        steady, out = TRACERS[name](wl, rec)
        attempted += 2 * items
        traced_s = rec.total_s(f"bench.{name}", steady=False)
        n_failed, messages = wl.check_fixed()
        if wl.fixed_output() != untraced_out:
            n_failed += items
            messages.append("traced and untraced passes gave different "
                            "outputs")
        failed += n_failed
        for msg in messages:
            print(f"  CHECK FAILED ({name}): {msg}")
        overhead = 100.0 * (traced_s / untraced_s - 1.0)
        out[f"{name}.trace_overhead_pct"] = (overhead, "%")
        metrics.update(out)
        events += rec.chrome_events(pid, name)
        tables += layer_table(wl, rec, steady, out)
        tables.append(f"Tracing overhead: {overhead:+.1f}% (traced pass "
                      f"{traced_s:.3f} s, untraced {untraced_s:.3f} s, "
                      f"same work).")
        tables.append("")

    OUT_DIR.mkdir(exist_ok=True)
    with open(OUT_DIR / "spans.json", "w") as fh:
        json.dump({"traceEvents": events, "displayTimeUnit": "ms"}, fh)
    table = "\n".join(tables)
    (OUT_DIR / "layers.md").write_text(table + "\n")
    print(table)
    for name, (value, unit) in metrics.items():
        print(f"  {name:58s} {value:14.6g} {unit}")
    return {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": {name: {"value": value, "unit": unit}
                        for name, (value, unit) in metrics.items()}}


def main(argv=None) -> int:
    args = parse_args(argv)
    pin_environment()
    try:
        require_source()
        import warnings

        from common import assert_telemetry_off
        from repro.fastpath import FastpathFallbackWarning

        # fallbacks are counted by the traced run; one warning line per
        # netlist shape would only clutter the output
        warnings.simplefilter("ignore", FastpathFallbackWarning)
        assert_telemetry_off()
        result = traced_run(args) if args.trace else timed_run(args)
        assert_telemetry_off()
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
