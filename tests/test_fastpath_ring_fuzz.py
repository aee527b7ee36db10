"""Random additive rings through the closed-form ring kernel.

An additive ring is the despreader's integrate-and-dump loop in
general: an ADD or CADD adds an outside token to what a FIFO hands
back, and an optional DEMUX/MERGE pair dumps a sum out of the loop and
injects a fresh one.  The fastpath computes such a component in closed
form (``repro.fastpath.lower.ring_of`` recognises it, ``_ring``
computes it) instead of running the per-token epoch kernel every other
feedback component gets.

Hypothesis draws rings of depth 1 to 8 whose FIFO preloads sit at the
extremes of their width; ADD or CADD over every half width, with a FIFO
as wide as the adder's result, wider, or narrower (a ring the kernel
must refuse); with and without a DEMUX and a MERGE, in any loop order
and either polarity; selects from a COUNTER/CMP or from data, shared
over wires of different capacities or drawn apart; a MERGE alternate
from a CONST or from a source that runs dry; adder operands that run
dry before the selects or after; tokens queued on loop wires; taps on
the DEMUX's dump port and on every loop edge.

Every ring runs three ways:

* drained on the naive, event and fastpath schedulers, which must agree
  on outputs, firings, cycles, energy and stop reason;
* cut, touched from outside once, and drained (the value fuzz's leg);
* kernel against kernel: after a cut on the naive scheduler, for every
  window ``limit`` up to past the longest stream, the ring kernel's
  streams equal the epoch kernel's for the same component.

Example counts follow the active hypothesis profile (see
``tests/conftest.py``).
"""

import copy
import warnings

from hypothesis import given
from hypothesis import strategies as st
from test_fastpath_value_fuzz import (
    _FUZZ,
    HALVES,
    WIDTHS,
    _cut_touch_drain,
    _drain,
    _extremes,
    _load,
    _words,
)

from repro.fastpath import FastpathFallbackWarning, capture
from repro.fastpath.cache import compile_graph
from repro.fastpath.lower import (
    _scc,
    compile_kernel,
    emit_epoch,
    ring_of,
    scc_produced,
)
from repro.xpp import ConfigBuilder, FifoPae, StreamSource


def _word(bits: int):
    edge = st.sampled_from(_extremes(bits))
    return st.one_of(edge, edge, st.integers(-(1 << bits - 1),
                                             (1 << bits - 1) - 1))


@st.composite
def rings(draw):
    """A random additive ring (or, with a FIFO narrower than its adder,
    one the ring kernel must refuse) with its taps and sinks."""

    def stream(words, longest):     # lengths spread evenly, not short
        n = draw(st.integers(0, longest))
        return draw(st.lists(words, min_size=n, max_size=n))

    b = ConfigBuilder("ring")
    cap = st.integers(1, 4)
    hb = draw(st.sampled_from(HALVES))
    ring_port = draw(st.sampled_from(("a", "b")))
    const = None
    if draw(st.booleans()):
        adder = b.alu("CADD", half_bits=hb)
        width = 2 * hb
    else:
        width = draw(st.sampled_from(WIDTHS))
        if ring_port == "a" and draw(st.booleans()):   # x is a const
            const = draw(st.sampled_from(_extremes(width)))
        adder = b.alu("ADD", bits=width, const=const)
    fbits = max(2, width + draw(st.sampled_from((-2, -1, 0, 0, 0, 1, 3))))
    depth = draw(st.integers(1, 8))
    fifo = b.fifo(depth=depth, bits=fbits,
                  preload=draw(st.lists(st.sampled_from(_extremes(fbits)),
                                        max_size=depth)))

    def select(name):
        if draw(st.booleans()):
            count = b.alu("COUNTER", limit=draw(st.integers(2, 6)),
                          count=draw(st.integers(0, 30)))
            cmp = b.alu("CMPGE", const=draw(st.integers(0, 5)))
            b.connect(count, "value", cmp, "a", capacity=draw(cap))
            return cmp
        return b.source(name, stream(st.sampled_from((0, 1, -1, 0, 5)), 30),
                        bits=4)

    # the loop: adder, then the other members in a drawn order
    stages = [("fifo", fifo)]
    demux = merge = None
    if draw(st.booleans()):
        demux = b.alu("DEMUX")
        stages.append(("demux", demux))
    if draw(st.booleans()):
        merge = b.alu("MERGE")
        stages.append(("merge", merge))
    stages = draw(st.permutations(stages))
    if demux is not None and merge is not None and draw(st.booleans()):
        shared = select("sel")          # one select, two wires
        sel = {"demux": shared, "merge": shared}
    else:
        sel = {"demux": None if demux is None else select("dsel"),
               "merge": None if merge is None else select("msel")}
    keep = {"demux": draw(st.sampled_from(("o0", "o1"))),
            "merge": draw(st.sampled_from(("a", "b")))}
    loop = []           # every loop wire, to queue tokens on
    prev, prev_port = adder, 0
    for kind, obj in stages:
        port = {"fifo": 0, "demux": "a", "merge": keep["merge"]}[kind]
        loop.append(b.connect(prev, prev_port, obj, port,
                              capacity=draw(cap)))
        prev, prev_port = obj, {"demux": keep["demux"]}.get(kind, 0)
        if kind != "fifo":
            b.connect(sel[kind], 0, obj, "sel", capacity=draw(cap))
    loop.append(b.connect(prev, prev_port, adder, ring_port,
                          capacity=draw(cap)))
    if const is None:       # an operand that may run dry early or late
        xbits = draw(st.sampled_from((width, width + 1) + WIDTHS))
        x = b.source("x", stream(_word(xbits), 40), bits=xbits)
        b.connect(x, 0, adder, "b" if ring_port == "a" else "a",
                  capacity=draw(cap))
    taps = [(adder, 0), (fifo, 0)]
    if merge is not None:
        alt_port = "b" if keep["merge"] == "a" else "a"
        if draw(st.booleans()):
            alt = b.alu("CONST", value=draw(st.sampled_from(
                _extremes(fbits))), count=draw(st.one_of(
                    st.none(), st.integers(0, 12))), bits=fbits)
        else:
            alt = b.source("alt", stream(_word(fbits), 6), bits=fbits)
        b.connect(alt, 0, merge, alt_port, capacity=draw(cap))
        taps.append((merge, 0))
    if demux is not None:
        dump = "o1" if keep["demux"] == "o0" else "o0"
        b.connect(demux, dump, b.sink("dump"), 0, capacity=draw(cap))
        taps.append((demux, keep["demux"]))
    for k, (obj, port) in enumerate(taps):
        if k == 0 or draw(st.booleans()):
            b.connect(obj, port, b.sink(f"tap{k}"), 0, capacity=draw(cap))
    cfg = b.build()
    for w in loop:                  # tokens queued on loop wires
        w._q.extend(draw(st.lists(st.sampled_from(_extremes(fbits)),
                                  max_size=min(w.capacity, 2))))
    return cfg


def _streams(graph, netlist, s, limit):
    """``(ring, epoch)``: the produced streams of SCC ``s`` in a window
    of ``limit``, from the value pass (whose ring call is the ring
    kernel) and from the epoch kernel over the same inputs."""
    view = netlist.plan.view(graph, limit)
    vals = list(view.streams)
    netlist.values(graph.objs, graph.wires, vals, [None] * len(vals),
                   view.splits, limit, graph, netlist.epochs, {})
    epoch = list(vals)
    _scc(graph, s, compile_kernel(emit_epoch(graph, s), "_epoch")[0], epoch,
         limit, None)
    produced = scc_produced(graph, s)
    return ([vals[j].tolist() for j in produced],
            [epoch[j].tolist() for j in produced])


@_FUZZ
@given(rings())
def test_ring_drains_match_naive_and_event(cfg):
    # each scheduler gets its own copy: ``reset`` drops queued tokens
    ref = _drain(copy.deepcopy(cfg), "naive")
    assert _drain(copy.deepcopy(cfg), "event") == ref
    with warnings.catch_warnings():
        warnings.simplefilter("error", FastpathFallbackWarning)
        assert _drain(cfg, "fastpath") == ref


@st.composite
def ring_touches(draw):
    """``(ring, k, touch)`` as ``test_fastpath_value_fuzz.touches``
    draws them, over rings."""
    cfg = draw(rings())
    objs = cfg.objects
    what = draw(st.sampled_from(("set_data", "reset", "diagnose", "reload",
                                 "flip")))
    i = arg = None
    if what == "set_data":
        srcs = [i for i, o in enumerate(objs) if isinstance(o, StreamSource)]
        if not srcs:
            what = "diagnose"
        else:
            i = draw(st.sampled_from(srcs))
            arg = draw(_words(objs[i].bits).filter(bool))
    elif what == "reset":
        i = draw(st.integers(0, len(objs) - 1))
    elif what in ("reload", "flip"):
        i = next(i for i, o in enumerate(objs) if isinstance(o, FifoPae))
        o = objs[i]
        arg = (draw(_words(o.bits, o.depth)) if what == "reload"
               else (draw(st.integers(0, o.depth - 1)),
                     draw(st.integers(0, o.bits - 1))))
    return cfg, draw(st.integers(1, 40)), (what, i, arg)


@_FUZZ
@given(ring_touches())
def test_ring_outside_touch_after_an_early_stop_matches_naive(case):
    cfg, k, touch = case
    ref = _cut_touch_drain(copy.deepcopy(cfg), "naive", k, touch)
    assert _cut_touch_drain(copy.deepcopy(cfg), "event", k, touch) == ref
    with warnings.catch_warnings():
        warnings.simplefilter("error", FastpathFallbackWarning)
        assert _cut_touch_drain(cfg, "fastpath", k, touch) == ref


@_FUZZ
@given(rings(), st.integers(0, 12))
def test_ring_kernel_equals_epoch_kernel_for_every_window(cfg, cut):
    mgr, sim = _load(cfg, "naive")
    sim.run(cut)                    # open on queued and in-flight tokens
    graph = capture(mgr)
    netlist = compile_graph(graph).netlist
    (s,) = range(len(graph.sccs))
    ring = ring_of(graph, s)
    fifo = next(n.obj for n in graph.nodes if n.kind == "fifo")
    adder = next(n.obj for n in graph.nodes if n.kind in ("cadd", "binary")
                 and n.i in graph.sccs[s])
    width = 2 * adder.half_bits if adder.OPCODE == "CADD" else adder.bits
    assert (ring is None) == (fifo.bits < width)
    if ring is None:
        return
    longest = max([len(o._data) for o in cfg.objects
                   if isinstance(o, StreamSource)] + [0])
    for limit in range(longest + 12):
        got, want = _streams(graph, netlist, s, limit)
        assert got == want, limit
