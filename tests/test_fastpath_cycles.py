"""Differential tests for the epoch-kernel lowering of feedback cycles.

Since the SCC scheduling landed, cyclic dataflow graphs compile on the
fastpath backend instead of falling back: each strongly-connected
component is lowered into a generated time-stepped epoch kernel while
the acyclic remainder keeps the whole-trace value pass.  These tests
pit every feedback *shape* — self-loop accumulator, two-node ring,
nested (overlapping) cycles, an SCC feeding an acyclic tail, and a
mid-run swap between cyclic and acyclic configs — against the naive
and event schedulers, asserting bit-identical outputs and identical
stats, with zero fallback warnings on fastpath.
"""

import warnings

import numpy as np
import pytest

from repro.fastpath import FastpathFallbackWarning, capture
from repro.fastpath.ir import Graph
from repro.kernels import build_despreader_config
from repro.xpp import ConfigBuilder, Simulator, execute, make_scheduler
from repro.xpp.manager import ConfigurationManager

SCHEDULERS = ("naive", "event", "fastpath")


def _ivals(rng, n=24, lo=-100, hi=101):
    return rng.integers(lo, hi, n)


def _stats_key(stats):
    return (stats.cycles, stats.stop_reason, stats.total_firings,
            stats.energy, dict(stats.firings), dict(stats.tokens_out))


# -- feedback shapes --------------------------------------------------------------
#
# Each builder returns (cfg, inputs, max_cycles).  Loops are seeded
# either through a FIFO preload (the despreader idiom) or by pushing an
# initial token onto the loop wire after build (a register preset in
# the real array).


def _shape_self_loop_acc(rng):
    """One ADD whose output feeds its own second input: a running-sum
    accumulator — the smallest possible SCC (a self-loop)."""
    b = ConfigBuilder("selfloop")
    src = b.source("x")
    add = b.alu("ADD")
    b.connect(src, 0, add, 0)
    loop = b.connect(add, 0, add, 1)
    b.connect(add, 0, b.sink("y"), 0)
    cfg = b.build()
    loop._q.append(0)                   # seed: accumulator starts at zero
    return cfg, {"x": _ivals(rng)}, 2000


def _shape_two_node_ring(rng):
    """ADD -> PASS -> ADD: the minimal multi-node cycle."""
    b = ConfigBuilder("ring2")
    src = b.source("x")
    add = b.alu("ADD")
    back = b.alu("PASS")
    b.connect(src, 0, add, 0)
    b.connect(add, 0, back, 0)
    loop = b.connect(back, 0, add, 1)
    b.connect(add, 0, b.sink("y"), 0)
    cfg = b.build()
    loop._q.append(7)
    return cfg, {"x": _ivals(rng)}, 2000


def _shape_fifo_ring(rng):
    """ADD <-> FIFO ring seeded by the FIFO preload (the despreader's
    accumulator idiom), with the ring output also tapped to a sink."""
    b = ConfigBuilder("fiforing")
    src = b.source("x")
    add = b.alu("ADD")
    ring = b.fifo(depth=4, preload=[0, 0], bits=24)
    b.connect(src, 0, add, 0)
    b.connect(ring, 0, add, 1)
    b.connect(add, 0, ring, 0)
    b.connect(add, 0, b.sink("y"), 0)
    return b.build(), {"x": _ivals(rng)}, 2000


def _shape_nested_scc(rng):
    """Two overlapping cycles sharing one node (A<->B and B<->C): one
    SCC of three nodes, exercising the condensation on a component
    that is not a simple ring."""
    b = ConfigBuilder("nested")
    a = b.alu("ADD", name="a", const=1)
    mid = b.alu("ADD", name="mid")
    c = b.alu("PASS", name="c")
    wa = b.connect(mid, 0, a, 0)        # B -> A
    b.connect(a, 0, mid, 0)             # A -> B
    b.connect(mid, 0, c, 0)             # B -> C
    wc = b.connect(c, 0, mid, 1)        # C -> B
    b.connect(mid, 0, b.sink("y"), 0)
    cfg = b.build()
    wa._q.append(0)
    wc._q.append(0)
    # free-running generator ring: bound the run, both schedulers must
    # agree on the max-cycles stop and every token produced up to it
    return cfg, {}, 120


def _shape_scc_feeding_tail(rng):
    """A fifo-seeded ring whose output runs through an acyclic tail
    (shift + compare) — epoch kernel hands off to the trace pass."""
    b = ConfigBuilder("ringtail")
    src = b.source("x")
    add = b.alu("ADD")
    ring = b.fifo(depth=2, preload=[0], bits=24)
    shr = b.alu("SHR", const=1)
    cmp_ = b.alu("CMPGE", const=8)
    b.connect(src, 0, add, 0)
    b.connect(ring, 0, add, 1)
    b.connect(add, 0, ring, 0)
    b.connect(add, 0, shr, 0)
    b.connect(shr, 0, cmp_, 0)
    b.connect(cmp_, 0, b.sink("y"), 0)
    b.connect(shr, 0, b.sink("z"), 0)
    return b.build(), {"x": _ivals(rng, n=32, lo=0, hi=9)}, 2000


SHAPES = {
    "self_loop_acc": _shape_self_loop_acc,
    "two_node_ring": _shape_two_node_ring,
    "fifo_ring": _shape_fifo_ring,
    "nested_scc": _shape_nested_scc,
    "scc_feeding_tail": _shape_scc_feeding_tail,
}


def _run_shape(shape, scheduler, seed):
    rng = np.random.default_rng(seed)
    cfg, inputs, max_cycles = SHAPES[shape](rng)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        res = execute(cfg, inputs=inputs, max_cycles=max_cycles,
                      scheduler=scheduler)
    fallbacks = [w for w in caught
                 if issubclass(w.category, FastpathFallbackWarning)]
    outs = {name: list(vals) for name, vals in res.outputs.items()}
    return outs, _stats_key(res.stats), fallbacks


@pytest.mark.parametrize("shape", sorted(SHAPES))
@pytest.mark.parametrize("scheduler", [s for s in SCHEDULERS
                                       if s != "naive"])
def test_feedback_shape_matches_naive(shape, scheduler):
    seed = abs(hash(shape)) % (1 << 31)
    ref_outs, ref_stats, _ = _run_shape(shape, "naive", seed)
    got_outs, got_stats, fallbacks = _run_shape(shape, scheduler, seed)
    if scheduler == "fastpath":
        assert not fallbacks, [str(w.message) for w in fallbacks]
    assert any(ref_outs.values()), "shape produced no tokens"
    assert got_outs == ref_outs
    assert got_stats == ref_stats


@pytest.mark.parametrize("shape", sorted(SHAPES))
def test_feedback_shapes_capture_as_sccs(shape):
    rng = np.random.default_rng(0)
    cfg, _, _ = SHAPES[shape](rng)
    mgr = ConfigurationManager()
    mgr.load(cfg)
    graph = capture(mgr)
    assert isinstance(graph, Graph)
    assert graph.sccs, "shape must contain at least one feedback SCC"
    # the schedule partitions the nodes: every node appears exactly once,
    # the SCC members in their ("scc", s) unit and no other node in one
    seen = []
    for tag, x in graph.schedule:
        seen.extend(graph.sccs[x] if tag == "scc" else [x])
    assert sorted(seen) == list(range(len(graph.nodes)))
    assert sorted(x for tag, x in graph.schedule if tag == "scc") == \
        list(range(len(graph.sccs)))
    epoch = {i for scc in graph.sccs for i in scc}
    assert epoch and len(epoch) == sum(len(scc) for scc in graph.sccs)
    assert {x for tag, x in graph.schedule if tag == "node"} == \
        set(range(len(graph.nodes))) - epoch


# -- mid-run reconfiguration across the cyclic/acyclic boundary -------------------


def _acyclic_cfg(name, rng):
    b = ConfigBuilder(name)
    b.chain(b.source("x"), b.alu("ADD", const=5), b.sink("y"))
    cfg = b.build()
    return cfg, {"x": _ivals(rng, n=16)}


def _scripted_cycle_swap(scheduler):
    """Acyclic config runs batched, a cyclic (despreader) config loads
    mid-run — the recompile must switch lowering strategies without a
    fallback — then the acyclic one is removed and the ring runs out."""
    rng = np.random.default_rng(42)
    cfg_a, in_a = _acyclic_cfg("plain", rng)
    cfg_b = build_despreader_config(2, 4, name="ring_cfg")
    n = 2 * 4 * 3
    in_b = {"data": (rng.integers(-50, 51, n)
                     + (rng.integers(-50, 51, n) << 12)),
            "ovsf": rng.integers(0, 2, n)}

    mgr = ConfigurationManager()
    sim = Simulator(mgr, scheduler=make_scheduler(scheduler))
    mgr.load(cfg_a)
    for name, arr in in_a.items():
        cfg_a.sources[name].set_data(arr)
    trail = [sim.step_n(6)]

    mgr.load(cfg_b)                     # cyclic joins: recompile w/ SCC
    for name, arr in in_b.items():
        cfg_b.sources[name].set_data(arr)
    trail.append(sim.step_n(8))

    mgr.remove(cfg_a)                   # acyclic leaves: recompile again
    stats = sim.run(1500)

    outs = (list(cfg_a.sinks["y"].received),
            list(cfg_b.sinks["out"].received))
    fired = {o.name: o.fired for o in mgr.active_objects()}
    return (outs, trail, fired, sim.cycle, stats.stop_reason,
            stats.total_firings, stats.energy)


def test_midrun_cyclic_acyclic_swap_is_bit_exact():
    baseline = _scripted_cycle_swap("naive")
    with warnings.catch_warnings(record=True) as wlist:
        warnings.simplefilter("always")
        fast = _scripted_cycle_swap("fastpath")
    assert fast == baseline
    assert not [w for w in wlist
                if issubclass(w.category, FastpathFallbackWarning)]
    assert baseline[0][0] and baseline[0][1]    # both sinks produced
