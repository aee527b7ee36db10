"""Random acyclic netlists through the generated value pass.

Hypothesis builds netlists over every kind the value pass lowers:
scalar and complex ALUs, packing, routing by counter-driven and
data-driven selects, FIFOs, registers, integrate-and-dump, and RAM-PAEs
addressed by counters, LUTs or another RAM's read data, written from
anywhere downstream.  Ports fan out and paths reconverge, wire
capacities vary, operands sit at the edges of their widths and
results are shifted past them, where a fold the value pass drops
wrongly (or a fold it keeps that the code then loses) changes a value.
Each netlist drains on the naive, event and fastpath schedulers, which
must agree on every sink's tokens, firings, cycles, energy, stop reason
and final RAM contents, and, after a settle, on every wire's tokens,
transfer and reset counts and every FIFO's contents.  Fixed netlists
put every fold rule of the value pass at its edges, where random ones
reach it only rarely.

The "cut, touch, drain" leg stops each netlist after a few cycles,
while a fastpath session still holds its state, touches that state
from outside once (a stream refill, a reset, a RAM/FIFO reload or bit
flip, a stall diagnosis) and drains: the touch must see, and change,
what the other schedulers' touch does.  Its sibling leg makes the same
touch from an opaque ``until`` hook at the same cycle of one drain, in
the middle of the run, where the touched object may have gone idle
long before.

The refill leg drains a netlist to quiescence, reads every RAM, reloads
every RAM-PAE with new words, refills every source with new data of the
same length and drains again, with or without a second configuration
resident beside it: the reload's settle writes back only what a reset
keeps when the session's graph lies inside the reloaded configuration,
and everything otherwise, and a refill that keeps the count state
meets the schedule memo with new select tokens.

The batch leg reloads the netlist's RAMs with one image per member
(``(B, words)`` arrays, B from 1 to 5 or a source's length, where a
missed lift would broadcast without an error) and drains once; every
scheduler must match B literal reloads of the rows, each followed by a
drain, on naive: summed stats, each member's final RAM images, the last
member's sink tokens, wire and FIFO state, transfer and reset counts,
the simulator's cycle and, when observed, every ``sim.*`` instrument,
snapshot and trace event.  RAM data reaching a select or an address,
and a second configuration beside the netlist, make fastpath run the
members one by one; fixed netlists pin both paths to their counters.

The properties take their example counts from the active hypothesis
profile: 100 by default, more under ``--hypothesis-profile=compilers``
(registered in ``tests/conftest.py``).
"""

import copy
import warnings

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.fastpath import FastpathFallbackWarning
from repro.fixed import pack_complex
from repro.telemetry.metrics import collecting
from repro.telemetry.tracer import tracing
from repro.xpp import (
    ConfigBuilder,
    ConfigurationManager,
    FifoPae,
    RamPae,
    Simulator,
    StreamSource,
    XppArray,
    diagnose,
)
from repro.xpp.errors import ConfigurationError

# widths one bit apart and one bit over a lane pair, where an
# off-by-one in a fold rule shows
WIDTHS = (4, 5, 6, 8, 12, 13, 24)
HALVES = (2, 3, 4, 6, 12)
BINARY = ("ADD", "SUB", "MUL", "MIN", "MAX", "AND", "OR", "XOR", "SHL",
          "SHR", "CMPEQ", "CMPNE", "CMPLT", "CMPLE", "CMPGT", "CMPGE")
COMPLEX = ("cadd", "csub", "cmul", "cconj", "cneg", "cmulj", "cshift")
KINDS = ("binary", "unary", "shift", "lut", "pack", "unpack", "mux",
         "swap", "demux", "merge", "gate", "fifo", "reg", "acc", "cacc",
         "integ", "cinteg", "probe", "ram", "const", "seq") + 3 * COMPLEX \
    + 2 * ("binary",)


def _extremes(bits: int) -> list:
    """Words at the edges of a ``bits``-bit width, and words whose
    packed lanes sit at the edges of each half width that fits."""
    lo, hi = -(1 << bits - 1), (1 << bits - 1) - 1
    out = [lo, lo + 1, -1, 0, 1, hi - 1, hi]
    for hb in HALVES:
        if 2 * hb <= bits:
            edge = (-(1 << hb - 1), (1 << hb - 1) - 1, -1)
            out += [pack_complex(re, im, hb) for re in edge for im in edge]
    return out


def _words(bits: int, max_size: int = 20, min_size: int = 0):
    lo, hi = -(1 << bits - 1), (1 << bits - 1) - 1
    edge = st.sampled_from(_extremes(bits))
    word = st.one_of(edge, edge, st.integers(lo, hi))
    return st.lists(word, min_size=min_size, max_size=max_size)


@st.composite
def netlists(draw, writer=False):
    """A random acyclic configuration; every output port ends in a
    consumer or a sink.  With ``writer`` its first node is a RAM that
    sources write to from the first cycles on."""
    b = ConfigBuilder("fuzz")
    ports = []          # (object, port, late, half width of its lanes)
    used = set()
    rams = []           # (RAM, write enabled) to wire writes into last

    def pick(early=False):
        """An output port to read, the newest one half the time, so
        that chains grow long enough for a wrong fold to surface."""
        pool = [p for p in ports if not (early and p[2])]
        port = draw(st.one_of(st.just(pool[-1]), st.sampled_from(pool)))
        used.add((id(port[0]), port[1]))
        return port

    def wire(src, obj, port):
        b.connect(src[0], src[1], obj, port,
                  capacity=draw(st.integers(1, 4)))

    def add(obj, inputs, outs=(0,), hb=None):
        for port, src in inputs:
            wire(src, obj, port)
        late = any(src[2] for _, src in inputs)
        ports.extend((obj, p, late, hb) for p in outs)
        return obj

    def counter():
        limit = draw(st.integers(2, 5))
        return add(b.alu("COUNTER", limit=limit,
                         count=draw(st.integers(0, 24)),
                         bits=draw(widths)), [])

    # one main half width and word width per netlist, so that complex
    # ALUs mostly pass lanes to each other and unpack words of a lane
    # pair's width or one bit more, and some others
    widths = st.sampled_from(WIDTHS)
    half = draw(st.sampled_from(HALVES))
    width = draw(st.sampled_from((2 * half, 2 * half + 1) + WIDTHS))
    widths = st.one_of(st.just(width), st.just(width), widths)
    halves = st.one_of(st.just(half), st.just(half), st.sampled_from(HALVES))
    for k in range(draw(st.integers(1, 3))):
        bits = draw(widths)
        add(b.source(f"src{k}", draw(_words(bits).filter(bool)), bits=bits),
            [])
    for k in range(draw(st.integers(1, 14))):
        kind = "ram" if writer and k == 0 else draw(st.sampled_from(KINDS))
        bits = draw(widths)
        hb = draw(halves)
        if kind == "binary":
            # results shifted left past their width, compares against
            # values their operands hit, shifts by up to the width
            op = draw(st.sampled_from(BINARY))
            shift = st.one_of(st.integers(-bits, 3),
                              st.sampled_from((-bits, 1 - bits)))
            params = {"shift": draw(shift), "bits": bits}
            if op in ("SHL", "SHR") or draw(st.booleans()):
                middle = st.integers(-2, 2)
                params["const"] = draw(
                    st.integers(0, bits) if op in ("SHL", "SHR")
                    else st.one_of(middle, middle, st.sampled_from(
                        _extremes(bits))))
                add(b.alu(op, **params), [("a", pick())])
            else:
                add(b.alu(op, **params), [("a", pick()), ("b", pick())])
        elif kind == "unary":
            op = draw(st.sampled_from(("NEG", "NOT", "ABS", "PASS")))
            add(b.alu(op, bits=bits), [("a", pick())])
        elif kind == "shift":
            add(b.alu("SHIFT", amount=draw(st.integers(-4, 4)), bits=bits),
                [("a", pick())])
        elif kind == "lut":
            table = draw(_words(bits, 5).filter(bool))
            add(b.alu("LUT", table=table, bits=bits), [("index", pick())])
        elif kind in ("cadd", "csub"):
            add(b.alu(kind.upper(), half_bits=hb,
                      shift=draw(st.sampled_from((-1, 0, 1, 2)))),
                [("a", pick()), ("b", pick())], hb=hb)
        elif kind == "cmul":
            add(b.alu("CMUL", half_bits=hb, shift=draw(st.integers(0, hb)),
                      conj_b=draw(st.booleans()),
                      round_shift=draw(st.booleans())),
                [("a", pick()), ("b", pick())], hb=hb)
        elif kind in ("cconj", "cneg"):
            add(b.alu(kind.upper(), half_bits=hb), [("a", pick())], hb=hb)
        elif kind == "cmulj":
            add(b.alu("CMULJ", half_bits=hb,
                      sign=draw(st.sampled_from((1, -1)))), [("a", pick())],
                hb=hb)
        elif kind == "cshift":
            add(b.alu("CSHIFT", half_bits=hb,
                      amount=draw(st.sampled_from(range(-3, 4)))),
                [("a", pick())],
                hb=hb)
        elif kind == "pack":
            add(b.alu("PACK", half_bits=hb),
                [("re", pick()), ("im", pick())], hb=hb)
        elif kind == "unpack":
            add(b.alu("UNPACK", half_bits=hb), [("a", pick())],
                outs=("re", "im"))
        elif kind in ("mux", "swap"):
            add(b.alu(kind.upper()), [("sel", pick()), ("a", pick()),
                                      ("b", pick())],
                outs=("x", "y") if kind == "swap" else (0,))
        elif kind in ("demux", "merge", "gate"):
            if draw(st.booleans()):     # a data-plan select
                sel = (counter(), "value", False, None)
                if draw(st.booleans()):
                    cmp = add(b.alu("CMPGE", const=1), [("a", sel)])
                    sel = (cmp, 0, False, None)
            else:
                sel = pick(early=True)
            used.add((id(sel[0]), sel[1]))
            data = [("a", pick())] + ([("b", pick())]
                                      if kind == "merge" else [])
            add(b.alu(kind.upper()), [(0, sel)] + data,
                outs=("o0", "o1") if kind == "demux" else (0,))
        elif kind == "fifo":
            preload = draw(_words(bits, 4))
            fifo = b.fifo(depth=draw(st.integers(max(len(preload), 1), 8)),
                          bits=bits, preload=preload)
            add(fifo, [("in", pick())] if draw(st.booleans()) else [])
        elif kind == "reg":
            add(b.alu("REG", init=draw(_words(bits, 2)), bits=bits),
                [("a", pick())])
        elif kind in ("acc", "cacc"):
            params = {"half_bits": hb} if kind == "cacc" else {"bits": bits}
            add(b.alu(kind.upper(), length=draw(st.integers(1, 4)),
                      shift=draw(st.integers(0, 2)), **params),
                [("a", pick())], hb=params.get("half_bits"))
        elif kind in ("integ", "cinteg"):
            params = {"half_bits": hb} if kind == "cinteg" else {"bits": bits}
            add(b.alu(kind.upper(), **params), [("a", pick())],
                hb=params.get("half_bits"))
        elif kind == "probe":
            add(b.probe(f"probe{len(ports)}"), [(0, pick())])
        elif kind == "const":
            add(b.alu("CONST", value=draw(st.sampled_from(_extremes(bits))),
                      count=draw(st.integers(0, 12)), bits=bits), [])
        elif kind == "seq":
            values = draw(_words(bits, 6).filter(bool))
            add(b.alu("SEQ", values=values, bits=bits), [])
        else:   # ram: counter, LUT or any stream addressing
            words = draw(st.integers(1, 2 if writer and k == 0 else 8))
            ram = b.ram(words=words, bits=bits,
                        preload=draw(_words(bits, words)))
            how = draw(st.sampled_from(("counter", "lut", "any")))
            if how == "any":
                raddr = pick()
            else:
                raddr = (counter(), "value", False, None)
                used.add((id(raddr[0]), raddr[1]))
                if how == "lut":
                    lut = add(b.alu("LUT", table=draw(
                        st.lists(st.integers(0, 9), min_size=1,
                                 max_size=4))), [("index", raddr)])
                    raddr = (lut, 0, False, None)
                    used.add((id(lut), 0))
            add(ram, [("raddr", raddr)], outs=("rdata",))
            ports[-1] = (ram, "rdata", True, None)
            if writer and k == 0:   # written from the first cycles on
                wire((b.source("waddr", draw(st.lists(
                    st.integers(0, words - 1), min_size=1, max_size=8))), 0),
                    ram, "waddr")
                wire((b.source("wdata", draw(_words(bits).filter(bool)),
                               bits=bits), 0), ram, "wdata")
            else:
                rams.append((ram, draw(st.booleans())))
    for ram, writes in rams:        # write data from anywhere, even
        if writes:                  # downstream of the RAM's own reads
            wire(pick(early=True), ram, "waddr")
            wire(pick(), ram, "wdata")
    for k, (obj, port, _, hb) in enumerate(ports):
        if (id(obj), port) in used:
            continue
        if hb is None:
            b.connect(obj, port, b.sink(f"out{k}"), 0)
        else:   # observe the lanes themselves, not their packed word
            lanes = b.alu("UNPACK", half_bits=hb)
            b.connect(obj, port, lanes, 0)
            for part in ("re", "im"):
                b.connect(lanes, part, b.sink(f"out{k}{part}"), 0)
    return b.build()


def _load(cfg, scheduler):
    mgr = ConfigurationManager(XppArray(io_ports=32))   # room for sinks
    mgr.load(cfg)
    return mgr, Simulator(mgr, scheduler=scheduler)


def _drain(cfg, scheduler):
    return _drained(cfg, _load(cfg, scheduler)[1])


def _ran(cfg, sim, until=None):
    """Run, then read what a run shows without a settle: stats, sink
    tokens and every RAM's image (``mem`` brings it current itself)."""
    stats = sim.run(3000, until=until)
    return ((stats.cycles, stats.stop_reason, stats.total_firings,
             stats.energy, dict(stats.firings)),
            {name: list(s.received) for name, s in cfg.sinks.items()},
            [list(o.mem) for o in cfg.objects if isinstance(o, RamPae)])


def _state(cfg):
    """Every wire's tokens, transfer and reset counts, every object's
    reset count and every FIFO's contents (read after a settle)."""
    return ([(list(w._q), w.total_transfers, w.resets) for w in cfg.wires],
            [o.resets for o in cfg.objects],
            [list(o._q) for o in cfg.objects if isinstance(o, FifoPae)])


def _drained(cfg, sim, until=None):
    ran = _ran(cfg, sim, until)
    sim.manager.settle()
    return ran + _state(cfg)


# every fold rule at its edges: 4-bit lanes and 9-bit words (one bit
# over a lane pair), all reaching each ALU in pairs that overflow
_LANES = (-8, -7, -1, 0, 6, 7)
_EDGE_WORDS = [pack_complex(re, im, 4) for re in _LANES for im in _LANES] \
    + [-256, -255, -1, 254, 255]
_FAMILIES = {
    "cadd": [("CADD", {"shift": s}) for s in (-1, 0, 1, 2)],
    "csub": [("CSUB", {"shift": s}) for s in (-1, 0, 1, 2)],
    "cshift": [("CSHIFT", {"amount": a}) for a in range(-3, 4)],
    "cmul": [("CMUL", {"shift": s, "conj_b": c, "round_shift": r})
             for s in (0, 1, 4) for c in (False, True) for r in (False, True)],
    "lanes": [("CCONJ", {}), ("CNEG", {}), ("CMULJ", {"sign": 1}),
              ("CMULJ", {"sign": -1}), ("PACK", {}), ("UNPACK", {})],
    "words": [("FIFO", {"bits": 8}), ("FIFO", {"bits": 9}),
              ("REG", {"bits": 8}), ("PACK", {"narrow": True})],
}
# 4-bit binary ALUs, their results shifted to and past the sign bit
for _s in (-4, -3, 0, 2):
    _FAMILIES[f"binary{_s}"] = [(op, {"shift": _s}) for op in BINARY
                                if op not in ("SHL", "SHR")] + [
        (op, {"shift": _s, "const": c}) for op, c in (
            ("SHL", 3), ("SHR", 3), ("CMPEQ", 0), ("CMPNE", 0),
            ("CMPLT", 0), ("ADD", 7), ("MUL", -8))]


@pytest.mark.parametrize("family", sorted(_FAMILIES))
def test_fold_rules_at_the_edges(family):
    b = ConfigBuilder(family)
    words = _EDGE_WORDS * 2
    a = b.source("a", words, bits=9)
    bb = b.source("b", _EDGE_WORDS + _EDGE_WORDS[::-1], bits=9)
    narrow = b.source("n", [-16, -15, -9, -8, 7, 8, 15] * 12, bits=5)
    nibbles = list(range(-8, 8))
    x = b.source("x", nibbles * 2, bits=4)
    y = b.source("y", nibbles + nibbles[::-1], bits=4)
    for k, (op, params) in enumerate(_FAMILIES[family]):
        if op in BINARY:
            obj = b.alu(op, bits=4, **params)
            b.connect(x, 0, obj, "a")
            if "const" not in params:
                b.connect(y, 0, obj, "b")
        elif op == "FIFO":
            obj = b.fifo(depth=4, **params)
            b.connect(a, 0, obj, "in")
        elif op == "REG":
            obj = b.alu("REG", **params)
            b.connect(a, 0, obj, "a")
        elif op == "PACK":
            obj = b.alu("PACK", half_bits=4)
            src = narrow if params else a
            b.connect(src, 0, obj, "re")
            b.connect(bb, 0, obj, "im")
        else:
            obj = b.alu(op, half_bits=4, **params)
            b.connect(a, 0, obj, "a")
            if op in ("CADD", "CSUB", "CMUL"):
                b.connect(bb, 0, obj, "b")
        if op in ("FIFO", "REG") or op in BINARY:
            b.connect(obj, 0, b.sink(f"out{k}"), 0)
            continue
        lanes = obj
        if op != "UNPACK":
            lanes = b.alu("UNPACK", half_bits=4)
            b.connect(obj, 0, lanes, 0)
        for part in ("re", "im"):
            b.connect(lanes, part, b.sink(f"out{k}{part}"), 0)
    cfg = b.build()
    ref = _drain(copy.deepcopy(cfg), "naive")
    assert sum(map(len, ref[1].values())) > 0
    assert _drain(copy.deepcopy(cfg), "event") == ref
    with warnings.catch_warnings():
        warnings.simplefilter("error", FastpathFallbackWarning)
        assert _drain(cfg, "fastpath") == ref


def test_shifted_compare_result_is_folded():
    """A 0/1 compare result shifted left to the sign bit of a 4-bit word
    folds to -8 on every scheduler."""
    b = ConfigBuilder("cmp_shift")
    src = b.source("x", [-8, 0, 3, 0, 7], bits=4)
    cmp = b.alu("CMPEQ", const=0, shift=-3, bits=4)
    b.connect(src, 0, cmp, "a")
    b.connect(cmp, 0, b.sink("out"), 0)
    cfg = b.build()
    ref = _drain(copy.deepcopy(cfg), "naive")
    assert ref[1]["out"] == [0, -8, 0, -8, 0]
    assert _drain(copy.deepcopy(cfg), "event") == ref
    with warnings.catch_warnings():
        warnings.simplefilter("error", FastpathFallbackWarning)
        assert _drain(cfg, "fastpath") == ref


_FUZZ = settings(deadline=None,
                 suppress_health_check=[HealthCheck.too_slow,
                                        HealthCheck.filter_too_much])


@_FUZZ
@given(netlists())
def test_generated_value_pass_matches_naive_and_event(cfg):
    # each scheduler gets its own copy: transfer and reset counts
    # outlive ``reset``
    ref = _drain(copy.deepcopy(cfg), "naive")
    assert _drain(copy.deepcopy(cfg), "event") == ref
    with warnings.catch_warnings():
        warnings.simplefilter("error", FastpathFallbackWarning)
        assert _drain(cfg, "fastpath") == ref


# -- cut, touch, drain ---------------------------------------------------------


@st.composite
def touches(draw):
    """``(netlist, k, touch)``: stop the netlist after ``k`` cycles, then
    ``touch`` its state once from outside, as ``(what, object index,
    argument)``."""
    # a flip both reads and writes the state it touches: twice the weight
    what = draw(st.sampled_from(("set_data", "reset", "diagnose", "reload",
                                 "flip", "flip")))
    cfg = draw(netlists(writer=what in ("reload", "flip")
                        or draw(st.booleans())))
    objs = cfg.objects
    i = arg = None
    if what == "set_data":
        i = draw(st.sampled_from([i for i, o in enumerate(objs)
                                  if isinstance(o, StreamSource)]))
        arg = draw(_words(objs[i].bits).filter(bool))
    elif what == "reset":
        i = draw(st.integers(0, len(objs) - 1))
    elif what in ("reload", "flip"):     # the writer half the time
        mems = [i for i, o in enumerate(objs)
                if isinstance(o, (RamPae, FifoPae))]
        i = draw(st.one_of(st.just(mems[0]), st.sampled_from(mems)))
        o = objs[i]
        size = o.words if isinstance(o, RamPae) else o.depth
        arg = (draw(_words(o.bits, size)) if what == "reload"
               else (draw(st.integers(0, size - 1)),
                     draw(st.integers(0, o.bits - 1))))
    k = draw(st.one_of(st.integers(1, 8), st.integers(1, 40)))
    return cfg, k, (what, i, arg)


def _touch(cfg, mgr, what, i, arg):
    """Apply one outside access; returns what it returns."""
    obj = None if i is None else cfg.objects[i]
    if what == "set_data":
        return obj.set_data(arg)
    if what == "reset":
        return obj.reset()
    if what == "reload":
        return cfg.reload({obj.name: arg})
    if what == "flip":
        try:
            return obj.flip_bit(*arg)
        except ConfigurationError as exc:   # a flip on an empty FIFO
            return type(exc).__name__, str(exc)
    return [str(stall) for stall in diagnose(mgr)]


def _cut_touch_drain(cfg, scheduler, k, touch):
    mgr, sim = _load(cfg, scheduler)
    stats = sim.run(k)
    first = (stats.cycles, stats.stop_reason, stats.total_firings)
    got = _touch(cfg, mgr, *touch)
    return first, got, _drained(cfg, sim)


@_FUZZ
@given(touches())
def test_an_outside_touch_after_an_early_stop_matches_naive(case):
    cfg, k, touch = case
    # cut while the array still fires, so that a fastpath session holds
    # the state the touch reaches (the drain's last 8 cycles are idle)
    k = 1 + (k - 1) % max(_drain(copy.deepcopy(cfg), "naive")[0][0] - 8, 1)
    # each scheduler gets its own copy: a reload outlives ``reset``
    ref = _cut_touch_drain(copy.deepcopy(cfg), "naive", k, touch)
    assert _cut_touch_drain(copy.deepcopy(cfg), "event", k, touch) == ref
    with warnings.catch_warnings():
        warnings.simplefilter("error", FastpathFallbackWarning)
        assert _cut_touch_drain(cfg, "fastpath", k, touch) == ref


def _touch_in_run(cfg, scheduler, k, touch):
    """One drain whose opaque ``until`` hook makes ``touch`` on its
    call after cycle ``k``."""
    mgr, sim = _load(cfg, scheduler)
    calls = []

    def until():
        calls.append(_touch(cfg, mgr, *touch) if len(calls) == k else None)
        return False

    drained = _drained(cfg, sim, until)
    return calls[k], drained


@_FUZZ
@given(touches())
def test_an_outside_touch_from_an_until_hook_matches_naive(case):
    cfg, k, touch = case
    k = 1 + (k - 1) % max(_drain(copy.deepcopy(cfg), "naive")[0][0] - 8, 1)
    ref = _touch_in_run(copy.deepcopy(cfg), "naive", k, touch)
    assert _touch_in_run(copy.deepcopy(cfg), "event", k, touch) == ref
    with warnings.catch_warnings():
        warnings.simplefilter("error", FastpathFallbackWarning)
        assert _touch_in_run(cfg, "fastpath", k, touch) == ref


# -- refill --------------------------------------------------------------------


@st.composite
def refills(draw):
    """``(netlist, contents, streams, partner)``: new words for every
    RAM-PAE of the netlist (as many as before half the time), new data
    of the same lengths for its sources, and the stream of a second
    configuration loaded beside it (empty: none), which a reload of the
    first must not reset.  Same lengths keep the count state the drain
    opened on, so the refill meets the schedule memo with new select
    tokens."""
    cfg = draw(netlists(writer=draw(st.booleans())))
    contents = {}
    for o in cfg.objects:
        if isinstance(o, (RamPae, FifoPae)):
            size = o.words if isinstance(o, RamPae) else o.depth
            same = len(o._preload) if isinstance(o, FifoPae) \
                and draw(st.booleans()) else None
            contents[o.name] = draw(_words(o.bits, same or size, same or 0))
    streams = {}
    for name, src in cfg.sources.items():
        n = len(src._data)      # zeros and ones flip data-driven selects
        streams[name] = draw(st.one_of(
            _words(src.bits, n, n),
            st.lists(st.sampled_from((0, 1)), min_size=n, max_size=n),
            st.just([int(not v) for v in src._data])))
    return cfg, contents, streams, draw(st.one_of(st.just([]), _words(12)))


def _partner(data):
    b = ConfigBuilder("partner")
    src = b.source("p", data, bits=12)
    b.chain(src, b.alu("REG", init=[5], bits=12), b.sink("pout"))
    return b.build()


def _refill(cfg, scheduler, contents, streams, partner):
    """Drain, read every RAM, reload every RAM-PAE, refill every source
    and drain again; with a partner configuration resident beside the
    netlist."""
    mgr, sim = _load(cfg, scheduler)
    other = None
    if partner:
        other = _partner(partner)
        mgr.load(other)
    first = _ran(cfg, sim)
    cfg.reload(contents)
    for name, data in streams.items():
        cfg.sources[name].set_data(data)
    second = _drained(cfg, sim)
    if other is None:
        return first, second
    return first, second, list(other.sinks["pout"].received), _state(other)


@_FUZZ
@given(refills())
def test_a_refill_after_a_drain_matches_naive(case):
    ref = _refill(copy.deepcopy(case[0]), "naive", *case[1:])
    assert _refill(copy.deepcopy(case[0]), "event", *case[1:]) == ref
    with warnings.catch_warnings():
        warnings.simplefilter("error", FastpathFallbackWarning)
        assert _refill(case[0], "fastpath", *case[1:]) == ref


# -- batch ---------------------------------------------------------------------


@st.composite
def batches(draw):
    """``(netlist, members, contents, partner, observe)``: a netlist with
    at least one RAM, a member count, the reload contents (a ``(B,
    words)`` array for each batched RAM, at least one; one image for
    some other RAM-PAEs), a partner configuration's stream (empty:
    none) and whether to run under a recording tracer and registry."""
    cfg = draw(netlists(writer=draw(st.booleans())).filter(
        lambda c: any(isinstance(o, RamPae) for o in c.objects)))
    lengths = [len(src._data) for src in cfg.sources.values()]
    members = draw(st.one_of(st.integers(1, 5), st.sampled_from(lengths)))
    rams = [o for o in cfg.objects if isinstance(o, RamPae)]
    batched = draw(st.lists(st.sampled_from(rams), min_size=1,
                            unique_by=id))
    contents = {}
    for o in cfg.objects:
        if o in batched:
            k = draw(st.integers(0, o.words))
            rows = [draw(_words(o.bits, k, k)) for _ in range(members)]
            contents[o.name] = np.array(rows, dtype=np.int64).reshape(
                members, k)
        elif isinstance(o, (RamPae, FifoPae)) and draw(st.booleans()):
            size = o.words if isinstance(o, RamPae) else o.depth
            contents[o.name] = draw(_words(o.bits, size))
    partner = draw(st.one_of(st.just([]), _words(12)))
    return cfg, members, contents, partner, draw(st.booleans())


def _legged(leg, cfg, scheduler, members, contents, partner, observe):
    """Load the netlist (and the partner), run ``leg``, and read what it
    shows: stats, sinks, RAM images, then, after a settle, wire, FIFO
    and reset state, the cycle and the ``sim`` telemetry."""
    mgr, sim = _load(cfg, scheduler)
    if partner:
        mgr.load(_partner(partner))
    telemetry = None
    if observe:
        with collecting(snapshot_every=16) as registry, tracing() as tracer:
            got = leg(cfg, sim, members, contents)
        telemetry = (
            {k: v for k, v in registry.to_dict().items()
             if k.startswith("sim.")},
            [(x["cycle"], {k: v for k, v in x["metrics"].items()
                           if k.startswith("sim.")})
             for x in registry.snapshots],
            [(e.name, e.ph, e.ts, e.dur, e.args) for e in tracer.events
             if e.cat == "sim"])
    else:
        got = leg(cfg, sim, members, contents)
    sim.manager.settle()
    return got + _state(cfg) + (sim.cycle, telemetry)


def _stats(stats):
    return (stats.cycles, stats.stop_reason, stats.total_firings,
            stats.energy, dict(stats.firings), dict(stats.tokens_out))


def _batched_leg(cfg, sim, members, contents):
    """One batched reload, one drain."""
    cfg.reload(contents)
    stats = sim.run(3000)
    return (_stats(stats),
            {name: list(s.received) for name, s in cfg.sinks.items()},
            [o.mem.tolist() if isinstance(contents.get(o.name), np.ndarray)
             else list(o.mem) for o in cfg.objects if isinstance(o, RamPae)])


def _sequential_leg(cfg, sim, members, contents):
    """``members`` reloads of the rows, each drained: the oracle."""
    total, finals = None, []
    for m in range(members):
        cfg.reload({name: data[m] if isinstance(data, np.ndarray) else data
                    for name, data in contents.items()})
        stats = sim.run(3000)
        total = stats if total is None else total.merge(stats)
        finals.append([list(o.mem) for o in cfg.objects
                       if isinstance(o, RamPae)])
    images = [[f[k] for f in finals]
              if isinstance(contents.get(o.name), np.ndarray) else finals[-1][k]
              for k, o in enumerate(o for o in cfg.objects
                                    if isinstance(o, RamPae))]
    return (_stats(total),
            {name: list(s.received) for name, s in cfg.sinks.items()},
            images)


@_FUZZ
@given(batches())
def test_a_batched_reload_matches_sequential_reloads(case):
    cfg, *args = case
    ref = _legged(_sequential_leg, copy.deepcopy(cfg), "naive", *args)
    for scheduler in ("naive", "event", "fastpath"):
        with warnings.catch_warnings():
            warnings.simplefilter("error", FastpathFallbackWarning)
            assert _legged(_batched_leg, copy.deepcopy(cfg), scheduler,
                           *args) == ref, scheduler


def _ram_fed(select: bool):
    """A counter-addressed RAM whose read data feeds a MUX's select
    (``select``) or another RAM's read address, and a CMUL against a
    shared stream, so that both members' data reach a sink."""
    b = ConfigBuilder("ram_fed")
    cnt = b.alu("COUNTER", limit=4, count=6, bits=8)
    ram = b.ram(name="ram", words=4, bits=8)
    b.connect(cnt, "value", ram, "raddr")
    if select:
        mux = b.alu("MUX")
        b.connect(ram, "rdata", mux, "sel")
        b.connect(b.source("a", [1, 2, 3, 4, 5, 6], bits=8), 0, mux, "a")
        b.connect(b.source("b", [9, 8, 7, 6, 5, 4], bits=8), 0, mux, "b")
        b.connect(mux, 0, b.sink("out"), 0)
    else:
        other = b.ram(name="other", words=4, bits=8, preload=[3, 1, 4, 1])
        b.connect(ram, "rdata", other, "raddr")
        b.connect(other, "rdata", b.sink("out"), 0)
    return b.build()


def _shared(twiddle):
    b = ConfigBuilder("shared")
    cnt = b.alu("COUNTER", limit=4, count=4, bits=8)
    ram = b.ram(name="ram", words=4, bits=16)
    b.connect(cnt, "value", ram, "raddr")
    mul = b.alu("CMUL", half_bits=8, shift=1)
    b.connect(ram, "rdata", mul, "a")
    b.connect(b.source("w", twiddle, bits=16), 0, mul, "b")
    b.connect(mul, 0, b.sink("out"), 0)
    return b.build()


@pytest.mark.parametrize("name, build, members, counter", [
    # four members over four-token streams: a missed lift would
    # broadcast a shared (4,) stream across the members silently
    ("shared", lambda: _shared([pack_complex(3, -2, 8)] * 4), 4,
     "fastpath.batch.shared"),
    ("select", lambda: _ram_fed(True), 2, "fastpath.batch.split"),
    ("address", lambda: _ram_fed(False), 3, "fastpath.batch.split"),
])
def test_a_batch_shares_a_session_unless_ram_data_steers(name, build,
                                                         members, counter):
    images = np.array([[m, 1 - m, 2 * m + 1, -m] for m in range(members)],
                      dtype=np.int64)
    args = (members, {"ram": images}, [], False)
    ref = _legged(_sequential_leg, build(), "naive", *args)
    with collecting() as registry, warnings.catch_warnings():
        warnings.simplefilter("error", FastpathFallbackWarning)
        assert _legged(_batched_leg, build(), "fastpath", *args) == ref
    assert registry.counter(counter).value == 1
    assert registry.counter("fastpath.batch.shared").value \
        + registry.counter("fastpath.batch.split").value == 1
    assert len(set(map(tuple, ref[2][0]))) == members     # members differ
