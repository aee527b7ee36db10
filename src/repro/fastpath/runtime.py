"""Trace sessions and the fastpath scheduler.

A :class:`TraceSession` owns one compiled run over a frozen snapshot of
the live netlist: the generated count kernel produces per-cycle firing
bitmasks ahead of the simulator's clock, and ``replay_step`` /
``replay_step_n`` then serve the simulator's stepping interface out of
that trace.  During replay only *observable* state is kept live —
``obj.fired``, sink ``received`` and probe ``seen`` lists — which is
exactly what ``Simulator`` stop predicates, telemetry counters and
``collect_stats`` read between steps.  Wire queues and internal object
registers stay frozen at the session snapshot until
:meth:`TraceSession.materialize` writes the count state at the replay
cursor back into the live objects (session close: an ``invalidate`` or
a manager version bump).

:class:`FastpathScheduler` plugs this in behind the standard scheduler
seam: it compiles on first step, recompiles from live state whenever
the configuration manager's version changes (the Fig. 10 mid-run swap),
and transparently falls back to an inner :class:`EventScheduler` —
with a :class:`FastpathFallbackWarning` — for graphs the compiler
cannot prove.
"""

from __future__ import annotations

import warnings
from collections import deque

from repro.diagnostics import REASON_UNSUPPORTED_TYPE
from repro.fastpath.cache import compile_graph
from repro.fastpath.capture import capture, check_runtime_state
from repro.fastpath.ir import UnsupportedGraphError
from repro.telemetry.metrics import get_metrics
from repro.fastpath.lower import (
    FIRES_CHECK,
    STATE_CHECK,
    _vunpack,
    late_streams,
    node_budget,
    state_spec,
    value_streams,
)
from repro.fixed import wrap
from repro.xpp.scheduler import EventScheduler


class FastpathFallbackWarning(RuntimeWarning):
    """Emitted once per (netlist shape, reason code) per process when
    compilation is refused.

    ``code`` carries the machine-readable rejection reason (one of
    :data:`repro.diagnostics.REASON_CODES`) so tooling — campaign
    rollups, ``fastpath explain`` — can bucket fallbacks without
    parsing the message.  The ``fastpath.fallback{,.<code>}`` metrics
    counters still increment on *every* fallback; only the Python
    warning is deduplicated (repeated version bumps over the same
    falling-back config — e.g. campaign jobs in one shard — would
    otherwise spam one warning per run).
    """

    def __init__(self, message: str, code: str = REASON_UNSUPPORTED_TYPE):
        super().__init__(message)
        self.code = code


#: (netlist key, reason code) pairs that already warned in this process
_warned = set()


def reset_fallback_warnings() -> None:
    """Forget which (netlist, reason) pairs already warned.

    Test seam (and available to long-lived hosts that want the warning
    again after reconfiguring); the autouse fixture in tests/conftest.py
    calls this so every test observes its own first warning.
    """
    _warned.clear()


def initial_state(graph, spec) -> tuple:
    """Count-state tuple at session open, read from the live netlist."""
    vals = []
    for tag, idx in spec:
        if tag == "cyc" or tag == "p" or tag == "f" or tag == "fin" \
                or tag == "fout":
            vals.append(0)
        elif tag == "o":
            vals.append(len(graph.edges[idx].wire._q))
        elif tag == "g":
            vals.append(node_budget(graph.nodes[idx]))
        elif tag == "an":
            vals.append(graph.nodes[idx].obj._n)
        elif tag == "pre":
            vals.append(len(graph.nodes[idx].obj._preload))
        elif tag == "fl":
            vals.append(len(graph.nodes[idx].obj._q))
    return tuple(vals)


class TraceSession:
    """One compiled execution of the resident netlist."""

    def __init__(self, graph, trace, version, epochs=None):
        self.graph = graph
        self.trace = trace
        self.version = version
        self.epochs = epochs
        self.spec = state_spec(graph)
        self.s0 = initial_state(graph, self.spec)
        self.state = self.s0
        self.masks = []
        self.fchk = []      # cumulative firings every FIRES_CHECK cycles
        self.schk = []      # full count state every STATE_CHECK cycles
        self.cursor = 0     # cycles already replayed into live state
        self.z = None       # first all-idle cycle (absorbing), if seen
        self.limit = 0      # value-stream window (= trace cycle limit)
        self.edge_vals = None
        self._epoch_rt = {}     # per-SCC incremental kernel state
        # trace side streams: select values in, RAM read stamps out
        self.sv = [None] * len(graph.edges)
        self._peeked = graph.select_edges()
        self._stamped = graph.stamp_edges()
        for j in self._stamped:
            self.sv[j] = []
        # node index -> [live list, value list, consumed count]
        self.collect = {}
        for n in graph.nodes:
            if n.kind == "sink":
                self.collect[n.i] = [n.obj.received, None, 0]
            elif n.kind == "probe":
                self.collect[n.i] = [n.obj.seen, None, 0]
        # flat per-node lookups for the replay hot loop
        self._fobjs = [n.obj for n in graph.nodes]
        self._clist = [self.collect.get(i) for i in range(len(graph.nodes))]
        # firing bitmasks repeat heavily (steady-state pipelines fire the
        # same set every cycle), so replay decodes each distinct mask once
        self._decode = {}
        self._closed = False
        # snapshots of exactly the state materialize writes: a live
        # field that no longer matches its snapshot was mutated from
        # outside the session (set_data / reset between runs), and the
        # external mutation wins over the stale computed write-back
        self._wire_snap = [tuple(e.wire._q) for e in graph.edges]
        self._node_snap = [self._snap_node(n) for n in graph.nodes]

    @staticmethod
    def _snap_node(n):
        o = n.obj
        k = n.kind
        if k == "source":
            return (id(o._data), o._pos)
        if k == "const":
            return (o._emitted,)
        if k == "seq":
            return (o._pos,)
        if k == "counter":
            return (o._value, o._emitted, o._stopped)
        if k == "integ":
            return (o._sum,)
        if k == "cinteg":
            return (o._re, o._im)
        if k == "acc":
            return (o._sum, o._n)
        if k == "cacc":
            return (o._re, o._im, o._n)
        if k == "reg":
            return tuple(o._preload)
        if k == "fifo":
            return tuple(o._q)
        if k == "ram":
            return tuple(o.mem)
        return None

    # -- tracing -------------------------------------------------------------

    def _grow_values(self, limit: int) -> None:
        """(Re)run the value pass over a longer window, up to what the
        trace needs (every stream but the late ones).  The live state is
        frozen during a session, so the recompute is deterministic and
        prefix-consistent with every list already handed out."""
        self.edge_vals = value_streams(self.graph, limit, self.epochs,
                                       self._epoch_rt)
        for j in self._peeked:
            self.sv[j] = self.edge_vals[j].tolist()
        self.limit = limit

    def _grow_late(self) -> None:
        """Complete the value pass once the trace has stamped the RAM
        reads, and refresh the sink/probe value lists."""
        if self.graph.late:
            late_streams(self.graph, self.limit, self.edge_vals, self.sv,
                         self.epochs)
        for i, rec in self.collect.items():
            rec[1] = self.edge_vals[self.graph.nodes[i].in_edges[0]].tolist()

    def ensure(self, t: int) -> None:
        """Extend the trace to cover at least ``t`` cycles (or quiet)."""
        while self.z is None and len(self.masks) < t:
            limit = max(t, 2 * len(self.masks), 256)
            self._grow_values(limit)
            done, self.state = self.trace(self.state, self.sv, self.masks,
                                          self.fchk, self.schk, limit)
            self._grow_late()
            if done:
                self.z = len(self.masks) - 1

    # -- replay --------------------------------------------------------------

    def replay_step(self) -> int:
        t = self.cursor
        self.cursor = t + 1
        if self.z is not None and t >= self.z:
            # the array is absorbed: write the final state back now, so
            # a run that ends quiescent leaves no frozen session behind
            # (external mutation between runs then lands on live state)
            self.materialize()
            return 0
        self.ensure(t + 1)
        m = self.masks[t]
        dec = self._decode.get(m)
        if dec is None:
            dec = self._decode_mask(m)
        objs, recs, fired = dec
        for o in objs:
            o.fired += 1
        for rec in recs:
            rec[0].append(rec[1][rec[2]])
            rec[2] += 1
        return fired

    def _decode_mask(self, mask: int):
        """(firing objects, collect records, popcount) of one mask."""
        objs = []
        recs = []
        clist = self._clist
        fobjs = self._fobjs
        fired = 0
        m = mask
        while m:
            lsb = m & -m
            i = lsb.bit_length() - 1
            m ^= lsb
            objs.append(fobjs[i])
            if clist[i] is not None:
                recs.append(clist[i])
            fired += 1
        dec = (objs, recs, fired)
        if len(self._decode) < 4096:    # bound the cache for odd traces
            self._decode[mask] = dec
        return dec

    def replay_step_n(self, n: int) -> int:
        start = self.cursor
        target = start + n
        self.cursor = target
        if self.z is None:
            self.ensure(target)
        end = target if self.z is None else min(target, self.z)
        if end <= start:
            return 0
        cf0 = self._cum_fires(start)
        cf1 = self._cum_fires(end)
        total = 0
        for node in self.graph.nodes:
            d = cf1[node.i] - cf0[node.i]
            if d:
                node.obj.fired += d
                total += d
                rec = self.collect.get(node.i)
                if rec is not None:
                    k = rec[2]
                    rec[0].extend(rec[1][k:k + d])
                    rec[2] = k + d
        if self.z is not None and self.cursor > self.z:
            self.materialize()          # absorbed: see replay_step
        return total

    def _cum_fires(self, t: int) -> list:
        """Per-node firing counts over the first ``t`` traced cycles."""
        t = min(t, len(self.masks))
        k = t // FIRES_CHECK
        fires = list(self.fchk[k - 1]) if k else [0] * len(self.graph.nodes)
        for m in self.masks[k * FIRES_CHECK:t]:
            while m:
                lsb = m & -m
                fires[lsb.bit_length() - 1] += 1
                m ^= lsb
        return fires

    # -- state write-back ----------------------------------------------------

    def _state_at(self, t: int) -> tuple:
        """Exact count state after ``t`` cycles, via the nearest full
        checkpoint plus a deterministic re-run of the trace kernel.
        At or past the traced end it is the kernel's returned state (a
        zero mask is absorbing), with no re-run."""
        if t >= len(self.masks):
            return self.state
        j = t // STATE_CHECK
        base = self.schk[j - 1] if j else self.s0
        if base[0] == t:
            return base
        sv = self.sv
        if self._stamped:
            sv = list(sv)       # the re-run must not stamp reads twice
            for k in self._stamped:
                sv[k] = []
        _, st = self.trace(base, sv, [], [], [], t)
        return st

    def materialize(self) -> None:
        """Write the count state at the replay cursor back into the live
        wires and objects, closing the session (idempotent)."""
        if self._closed or self.cursor == 0:
            return
        self._closed = True
        st = self._state_at(self.cursor)
        sd = {key: v for key, v in zip(self.spec, st)}
        for e in self.graph.edges:
            w = e.wire
            if tuple(w._q) != self._wire_snap[e.j]:
                continue                # mutated externally: leave it
            o = sd[("o", e.j)]
            p = sd[("p", e.j)]
            w._q = deque(int(v) for v in self.edge_vals[e.j][p:p + o])
            w._pushes = []
            w._pops = 0
            w._avail = o
            w._space = e.cap - o
            w.total_transfers += p
        for n in self.graph.nodes:
            if self._node_snap[n.i] == self._snap_node(n):
                self._writeback(n, sd)

    def _writeback(self, n, sd) -> None:
        o = n.obj
        k = n.kind
        f = sd[("f", n.i)]
        if k in ("sink", "probe") or f == 0 and k != "fifo":
            return
        if k == "source":
            o._pos += f
        elif k == "const":
            o._emitted += f
        elif k == "seq":
            o._pos += f
        elif k == "counter":
            o._emitted += f
            if o.limit is not None and o.mode == "wrap":
                period = -(-(o.limit - o.start) // o.step)
                pos = ((o._value - o.start) // o.step + f) % period
                o._value = o.start + pos * o.step
            else:
                o._value += f * o.step
                if o.limit is not None and o.mode == "stop":
                    o._stopped = o._value >= o.limit
        elif k == "integ":
            x = self.edge_vals[n.in_edges[0]][:f]
            o._sum = wrap(o._sum + int(x.sum()), o.bits)
        elif k == "cinteg":
            re, im = _vunpack(self.edge_vals[n.in_edges[0]][:f], o.half_bits)
            o._re = wrap(o._re + int(re.sum()), o.half_bits)
            o._im = wrap(o._im + int(im.sum()), o.half_bits)
        elif k == "acc":
            x = self.edge_vals[n.in_edges[0]][:f]
            o._sum, o._n = self._acc_state(x, o.length, o._n, o._sum)
        elif k == "cacc":
            re, im = _vunpack(self.edge_vals[n.in_edges[0]][:f], o.half_bits)
            o._re, _ = self._acc_state(re, o.length, o._n, o._re)
            o._im, o._n = self._acc_state(im, o.length, o._n, o._im)
        elif k == "reg":
            pre = sd[("pre", n.i)]
            o._preload = o._preload[len(o._preload) - pre:]
        elif k == "fifo":
            fin = sd[("fin", n.i)]
            fout = sd[("fout", n.i)]
            if o.circular:
                snap = list(o._q)
                if snap and fout:
                    rot = fout % len(snap)
                    o._q = deque(snap[rot:] + snap[:rot])
            else:
                full = list(o._q)
                if n.in_edges[0] is not None and fin:
                    arrivals = self.edge_vals[n.in_edges[0]][:fin].tolist()
                    full += [wrap(v, o.bits) for v in arrivals]
                o._q = deque(full[fout:])
            o._do_in = False
            o._do_out = False
        elif k == "ram":
            _, wa, wd = n.in_edges
            if wa is not None and wd is not None:
                w = sd[("p", wa)]
                addrs = self.edge_vals[wa][:w].tolist()
                vals = self.edge_vals[wd][:w].tolist()
                for a, v in zip(addrs, vals):
                    o.mem[a % o.words] = wrap(v, o.bits)
            o._do_read = False
            o._do_write = False

    @staticmethod
    def _acc_state(x, length, n0, s0):
        """(partial sum, in-block count) after consuming ``x``."""
        f = len(x)
        if f < length - n0:
            return s0 + int(x.sum()), n0 + f
        r = (n0 + f) % length
        return (int(x[f - r:].sum()) if r else 0), r


class FastpathScheduler:
    """Compiled-replay scheduler with a transparent event fallback."""

    name = "fastpath"

    def __init__(self):
        self.manager = None
        self._inner = EventScheduler()
        self._session = None
        self._structure = None          # (version, graph, trace, epochs)
        self._fallback_version = None

    def bind(self, manager) -> None:
        self.manager = manager
        self._inner.bind(manager)
        self._session = None            # fresh bind: no state to write back
        self._structure = None
        self._fallback_version = None

    def invalidate(self) -> None:
        """Close any open session (writing its state back), so state
        mutated outside the commit phase is picked up on the next step."""
        self._close_session()
        self._inner.invalidate()

    def _close_session(self) -> None:
        s = self._session
        if s is not None:
            self._session = None
            s.materialize()

    def _netlist_key(self) -> tuple:
        """Cheap structural key of the resident netlist for warning
        dedupe (full fingerprints need a compilable graph; fallbacks by
        definition may not have one)."""
        objs = self.manager.active_objects()
        return (tuple((o.name, type(o).__name__) for o in objs),
                len(self.manager.active_wires()))

    def _note_fallback(self, exc, version) -> None:
        self._fallback_version = version
        code = getattr(exc, "code", REASON_UNSUPPORTED_TYPE)
        metrics = get_metrics()
        metrics.counter("fastpath.fallback").inc()
        metrics.counter(f"fastpath.fallback.{code}").inc()
        key = (self._netlist_key(), code)
        if key not in _warned:
            _warned.add(key)
            warnings.warn(
                FastpathFallbackWarning(
                    f"fastpath: falling back to the event scheduler ({exc})",
                    code),
                stacklevel=4)
        self._inner.invalidate()

    def _ensure_session(self):
        mgr = self.manager
        s = self._session
        if s is not None:
            if s.version == mgr.version:
                return s
            self._close_session()       # mid-run reconfiguration: write
            s = None                    # back, then recompile below
        if self._fallback_version == mgr.version:
            return None
        st = self._structure
        if st is None or st[0] != mgr.version:
            try:
                graph = capture(mgr)
                trace, epochs, _, _ = compile_graph(graph)
            except UnsupportedGraphError as exc:
                self._note_fallback(exc, mgr.version)
                return None
            st = self._structure = (mgr.version, graph, trace, epochs)
        try:
            check_runtime_state(st[1])
        except UnsupportedGraphError as exc:
            self._note_fallback(exc, mgr.version)
            return None
        self._session = TraceSession(st[1], st[2], mgr.version,
                                     epochs=st[3])
        return self._session

    def step(self) -> int:
        s = self._ensure_session()
        if s is None:
            return self._inner.step()
        return s.replay_step()

    def step_n(self, n: int) -> int:
        s = self._ensure_session()
        if s is None:
            return self._inner.step_n(n)
        return s.replay_step_n(n)
