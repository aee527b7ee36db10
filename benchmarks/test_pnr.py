"""Compile-time budget for the place-and-route pipeline.

The pnr compiler sits on the reconfiguration path — Fig. 10 swaps a
kernel into the live array mid-run — so compiles must stay cheap
relative to the configuration load they feed.  Each DSL kernel is
compiled repeatedly and the median wall-clock must stay under a
generous per-kernel ceiling (the seed machine compiles in well under a
millisecond; the ceiling only catches order-of-magnitude regressions
like an accidentally quadratic checker).
"""

import time

from conftest import print_table

from repro.kernels.dsl import golden_kernels
from repro.pnr import compile_graph

REPS = 25
CEILING_S = 0.050       # per-compile median budget, per kernel


def _median(xs):
    xs = sorted(xs)
    return xs[len(xs) // 2]


def test_compile_time_budget(bench_extras):
    rows = []
    extras = {}
    for name, graph in sorted(golden_kernels().items()):
        times = []
        for _ in range(REPS):
            t0 = time.perf_counter()
            kernel = compile_graph(graph)
            times.append(time.perf_counter() - t0)
        med = _median(times)
        extras[f"compile_ms_{name}"] = round(med * 1e3, 4)
        rows.append((name, f"{med * 1e3:.3f}", f"{max(times) * 1e3:.3f}",
                     kernel.report.details["routing"]["total_segments"]))
        assert med < CEILING_S, \
            f"{name}: median compile {med * 1e3:.1f}ms over budget"
    print_table("pnr compile time",
                ("kernel", "median ms", "max ms", "segments"), rows)
    bench_extras(**extras)


def test_compile_scales_linearly_enough(bench_extras):
    """A synthetic graph filling all 64 ALU-PAEs (8 const generators
    feeding 8 lanes of 7 pipeline stages) still compiles inside the
    same budget — guards the checker and placer against superlinear
    blowups that tiny kernels would hide."""
    from repro.pnr import KernelGraph

    g = KernelGraph("wide")
    prev = [g.const(lane, name=f"c{lane}") for lane in range(8)]
    for level in range(7):
        nxt = []
        for lane in range(8):
            op = g.op("ADD", name=f"n{level}_{lane}", const=lane)
            g.connect(prev[lane], op)
            nxt.append(op)
        prev = nxt
    g.connect(prev[0], g.stream_out("y"))

    times = []
    for _ in range(REPS):
        t0 = time.perf_counter()
        kernel = compile_graph(g)
        times.append(time.perf_counter() - t0)
    med = _median(times)
    assert kernel.report.ok
    assert len([1 for k, (kind, _r, _c) in
                kernel.placement.slots.items() if kind == "alu"]) == 64
    assert med < CEILING_S, f"64-ALU compile {med * 1e3:.1f}ms over budget"
    bench_extras(compile_ms_wide64=round(med * 1e3, 4))
