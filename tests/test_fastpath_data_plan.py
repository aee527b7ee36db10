"""The fastpath data plan: value streams no data can change, cached.

A counter, const or seq stream, and every ALU fed only by such streams
(the CMP that turns a counter into a select), depends on those objects'
parameters and registers and on the tokens queued on their wires, never
on the data.  :class:`repro.fastpath.cache.DataPlan` keeps these streams,
with the index tables of the DEMUX/MERGE/GATE selects they drive, per
compiled netlist, so a resident stage run recomputes only its data.
These tests attack the plan's key (a counter's phase is not in the
session-open count state), check that cached arrays stay read-only and
unchanged, and rerun the resident FFT64 and rake blocks on all three
schedulers with the trace-kernel counts of the schedule memo suite.
"""

import warnings

import numpy as np
import pytest

from repro.fastpath import FastpathFallbackWarning, cache
from repro.fastpath.capture import capture
from repro.fastpath.lower import select_split
from repro.kernels import Fft64Kernel, RakeChainKernel
from repro.xpp import ConfigBuilder, ConfigurationManager, RamPae, Simulator
from repro.xpp.scheduler import SCHEDULER_ENV

SCHEDULERS = ("naive", "event", "fastpath")


def _stats_key(stats):
    return (stats.cycles, stats.stop_reason, stats.total_firings,
            stats.energy, dict(stats.firings), dict(stats.tokens_out))


def _phased():
    """x -> DEMUX -> (one ALU | three ALUs) -> MERGE -> out, and
    y -> GATE -> gated.  Every select comes from a COUNTER, through a
    CMPGE for the DEMUX and the MERGE, so all three are plan streams."""
    b = ConfigBuilder("phased")
    sel = []
    for name, limit in (("dcnt", 3), ("mcnt", 3), ("gcnt", 2)):
        sel.append(b.alu("COUNTER", name=name, limit=limit))
    dcmp = b.alu("CMPGE", name="dcmp", const=1)
    mcmp = b.alu("CMPGE", name="mcmp", const=1)
    b.connect(sel[0], "value", dcmp, "a")
    b.connect(sel[1], "value", mcmp, "a")
    dmx = b.alu("DEMUX", name="dmx")
    mrg = b.alu("MERGE", name="mrg")
    gate = b.alu("GATE", name="gate")
    b.connect(dcmp, 0, dmx, "sel")
    b.connect(mcmp, 0, mrg, "sel")
    b.connect(sel[2], "value", gate, 0)
    b.connect(b.source("x"), 0, dmx, "a")
    b.connect(b.source("y"), 0, gate, 1)
    short = b.alu("ADD", name="short", const=1)
    long = [b.alu("ADD", name=f"long{k}", const=k) for k in (1, 2, 3)]
    b.connect(dmx, "o0", short, 0)
    b.connect(short, 0, mrg, "a")
    b.connect(dmx, "o1", long[0], 0)
    b.chain(*long)
    b.connect(long[-1], 0, mrg, "b")
    b.connect(mrg, 0, b.sink("out"), 0)
    b.connect(gate, 0, b.sink("gated"), 0)
    return b.build()


def _drive(lengths, scheduler, calls, seed=0):
    """Feed ``x``/``y`` streams of the given lengths into one resident
    ``_phased`` netlist, draining after each.  Returns the observables,
    the trace calls per run and, on fastpath, each run's session-open
    count state and counter phases."""
    cfg = _phased()
    mgr = ConfigurationManager()
    mgr.load(cfg)
    sim = Simulator(mgr, scheduler=scheduler)
    rng = np.random.default_rng(seed)
    log, traced, opened = [], [], []
    for n in lengths:
        for name in ("x", "y"):
            cfg.sources[name].set_data(rng.integers(0, 1 << 20, n))
        phases = tuple(cfg.object(c)._value for c in ("dcnt", "mcnt", "gcnt"))
        before = calls[0]
        log.append(_stats_key(sim.drain(5000)))
        traced.append(calls[0] - before)
        session = mgr._session
        opened.append((None if session is None else session.s0, phases))
    sim.manager.settle()
    observed = (log, {n: list(s.received) for n, s in cfg.sinks.items()},
                [list(w._q) for w in cfg.wires])
    return observed, traced, opened, (mgr, cfg)


def _legs(lengths, calls, seed=0):
    ref = _drive(lengths, "naive", calls, seed)[0]
    assert _drive(lengths, "event", calls, seed)[0] == ref
    with warnings.catch_warnings():
        warnings.simplefilter("error", FastpathFallbackWarning)
        got, traced, opened, live = _drive(lengths, "fastpath", calls, seed)
    assert got == ref
    return traced, opened, live


def test_equal_count_state_other_counter_phase_is_recomputed(trace_calls):
    """After 5 or 6 tokens the second run opens on the same count state
    but with the counters at other phases: the plan must not hand the
    second netlist the first one's counter and select streams, and the
    memo must not adopt the first one's schedule."""
    _, first, _ = _legs([5, 12], trace_calls)
    traced, second, _ = _legs([6, 12], trace_calls)
    assert first[1][0] == second[1][0]          # same s0 ...
    assert first[1][1] != second[1][1]          # ... other phases
    assert traced[1]                            # other select truths: traced
    # the memo keeps one schedule per count state, now the 6-token one
    traced, third, _ = _legs([6, 12], trace_calls, seed=1)
    assert third[1] == second[1]
    assert traced[1] == 0                       # same phases: adopted


def test_plan_holds_one_state_per_counter_phase(trace_calls):
    _legs([5, 12], trace_calls)
    _, _, (mgr, _) = _legs([6, 12], trace_calls)
    graph = capture(mgr)
    plan = cache.compile_graph(graph).netlist.plan
    names = {graph.nodes[i].obj.name for i in plan.nodes}
    assert names == {"dcnt", "mcnt", "gcnt", "dcmp", "mcmp"}
    # fresh, after 5 tokens and after 6 tokens
    assert len(plan.states) == 3


def test_cached_arrays_are_read_only_and_unchanged(trace_calls):
    _, _, (mgr, _) = _legs([5, 12, 7], trace_calls)
    graph = capture(mgr)
    plan = cache.compile_graph(graph).netlist.plan
    cached = []
    for _, streams, _, splits, lists in plan.states.values():
        cached += [v for v in streams if v is not None]
        cached += [a for split in splits.values() for a in split]
        assert all(isinstance(v, tuple) for v in lists.values())
    assert cached
    before = [v.copy() for v in cached]
    _legs([5, 12, 7], trace_calls)
    _legs([6, 9], trace_calls, seed=3)
    for v, old in zip(cached, before):
        assert not v.flags.writeable
        assert np.array_equal(v, old)
    with pytest.raises(ValueError):
        cached[0][:1] = 7


def _split_oracle(kind, sel, a, b=None):
    """The select lowerings as boolean masks and cumulative sums."""
    if kind == "merge":
        take_b = sel != 0
        a_need = np.cumsum(~take_b)
        b_need = np.cumsum(take_b)
        ok = np.where(take_b, b_need <= len(b), a_need <= len(a))
        n = len(ok) if bool(ok.all()) else int(np.argmin(ok))
        return [np.array([b[b_need[k] - 1] if take_b[k] else a[a_need[k] - 1]
                          for k in range(n)], dtype=np.int64)]
    n = min(len(sel), len(a))
    mask = sel[:n] != 0
    if kind == "gate":
        return [a[:n][mask]]
    return [a[:n][~mask], a[:n][mask]]


def _routing(kind):
    """A SEQ select (a data-plan stream) and stream sources into one
    ``kind`` node, each of its outputs into a sink."""
    b = ConfigBuilder(kind)
    node = b.alu(kind.upper(), name="route")
    b.connect(b.alu("SEQ", name="sel", values=[0, 1]), 0, node, 0)
    for port, name in enumerate(("a", "b")[:2 if kind == "merge" else 1]):
        b.connect(b.source(name), 0, node, port + 1)
    for port in range(2 if kind == "demux" else 1):
        b.connect(node, port, b.sink(f"out{port}"), 0)
    cfg = b.build()
    mgr = ConfigurationManager()
    mgr.load(cfg)
    graph = capture(mgr)
    route = next(n for n in graph.nodes if n.obj.name == "route")
    return cfg, graph, route


@pytest.mark.parametrize("kind", ["demux", "merge", "gate"])
def test_select_tables_of_a_longer_stream_route_every_prefix(kind):
    """The plan hands a select's tables from its longest window to
    shorter ones; the generated value pass routes by them exactly as by
    the prefix."""
    cfg, graph, route = _routing(kind)
    netlist = cache.Netlist(graph)
    objs = [n.obj for n in graph.nodes]
    wires = [e.wire for e in graph.edges]
    s = route.in_edges[0]
    rng = np.random.default_rng(7)
    for _ in range(200):
        full = rng.integers(0, 3, int(rng.integers(0, 40)))
        sel = full[:int(rng.integers(0, len(full) + 1))]
        a = rng.integers(-99, 99, int(rng.integers(0, 40)))
        b = rng.integers(-99, 99, int(rng.integers(0, 40)))
        ins = [sel, a, b] if kind == "merge" else [sel, a]
        want = _split_oracle(kind, *ins)
        for name, data in zip(("a", "b"), ins[1:]):
            cfg.sources[name].set_data(data)
        for split in (select_split(sel), select_split(full)):
            vals = [None] * len(graph.edges)
            vals[s] = sel
            netlist.values(objs, wires, vals, [None] * len(vals),
                           {s: split}, 1 << 20, graph, netlist.epochs, {})
            got = [vals[j] for j in route.out_edges()]
            assert [g.tolist() for g in got] == [w.tolist() for w in want]


def _rake_block(b):
    rng = np.random.default_rng(300 + b)
    n_symbols = 3 + b % 11
    offsets = sorted(rng.choice(24, 4, replace=False).tolist())
    weights = rng.uniform(0.2, 1.0, 4) \
        * np.exp(2j * np.pi * rng.uniform(size=4))
    n = max(offsets) + n_symbols * 8
    rx = rng.integers(-300, 301, n) + 1j * rng.integers(-300, 301, n)
    kernel = RakeChainKernel(
        scrambling_number=16 * int(rng.integers(512)), offsets=offsets,
        sf=8, code_index=3, weights=weights, pre_shift=1)
    return kernel, rx, n_symbols


@pytest.fixture
def plan_builds(monkeypatch):
    """A one-element list counting data-plan state builds."""
    calls = [0]
    build = cache.DataPlan._build

    def counted(self, *args):
        calls[0] += 1
        return build(self, *args)

    monkeypatch.setattr(cache.DataPlan, "_build", counted)
    return calls


def test_rake_blocks_share_one_plan_state(monkeypatch, trace_calls,
                                          plan_builds):
    """22 freshly built blocks over 11 lengths: bit-exact on every
    scheduler, one trace per length as with the memo alone, and every
    block reads the one plan state of a fresh finger."""
    results, traced = {}, []
    for sched in SCHEDULERS:
        monkeypatch.setenv(SCHEDULER_ENV, sched)
        got = []
        for b in range(22):
            kernel, rx, n_symbols = _rake_block(b)
            before = trace_calls[0]
            with warnings.catch_warnings():
                warnings.simplefilter("error", FastpathFallbackWarning)
                out, stats = kernel.run(rx, n_symbols)
            assert np.array_equal(out, kernel.golden(rx, n_symbols)), b
            got.append((out.tolist(), _stats_key(stats)))
            if sched == "fastpath":
                traced.append(trace_calls[0] - before)
        results[sched] = got
    assert results["event"] == results["naive"]
    assert results["fastpath"] == results["naive"]
    assert all(traced[:11]) and not any(traced[11:]), traced
    # trace windows grow (256, 512, ...); adopted blocks read prefixes
    assert 1 <= plan_builds[0] <= 4


def test_resident_fft64_builds_its_plan_once(monkeypatch, trace_calls,
                                             plan_builds):
    rng = np.random.default_rng(21)
    frames = [(rng.integers(-512, 512, 64), rng.integers(-512, 512, 64))
              for _ in range(3)]
    results = {}
    for sched in SCHEDULERS:
        monkeypatch.setenv(SCHEDULER_ENV, sched)
        kern = Fft64Kernel()
        got = []
        for re, im in frames:
            with warnings.catch_warnings():
                warnings.simplefilter("error", FastpathFallbackWarning)
                out_re, out_im = kern.run(re, im)
            got.append((out_re.tolist(), out_im.tolist(),
                        [_stats_key(s) for s in kern.last_stats],
                        [list(o.mem) for o in kern._config.objects
                         if isinstance(o, RamPae)]))
        results[sched] = got
    assert results["event"] == results["naive"]
    assert results["fastpath"] == results["naive"]
    assert trace_calls[0] == 1
    assert plan_builds[0] == 1
