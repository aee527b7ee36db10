"""Trace sessions and the fastpath scheduler.

A :class:`TraceSession` owns one compiled run over a frozen snapshot of
the live netlist: the generated count kernel produces per-cycle firing
bitmasks ahead of the simulator's clock, ``replay_step`` /
``replay_step_n`` serve them, and :meth:`TraceSession.stop` answers
where a whole ``Simulator.run`` stops without stepping it.  Replay
keeps live only what stop predicates and ``collect_stats`` read:
``obj.fired``, sink ``received``, probe ``seen``.  Wires and object
registers stay frozen until :meth:`TraceSession.materialize` writes
the count state at the cursor back (when the trace goes quiet, or when
the configuration manager settles), so per-cycle telemetry reads the
replayed cycles off the trace instead (:meth:`TraceSession.records`).
The manager owns its one open session.  Whatever touches that state
from outside the scheduler (``reset``, ``set_data``, ``flip_bit``,
``reload``, ``diagnose``) and every scheduler that takes over from
another, or steps after a ``load``/``remove``, settles the manager
first, so a session lives across ``step``/``run`` calls until one of
those happens, and a dropped simulator's session still settles.

Every session of one netlist shape reads the same compiled
:class:`repro.fastpath.cache.Netlist`: its kernels, its count-state
layout and its select and stamp edges.  A netlist's token timing is a
function of its count state and of the select tokens its
DEMUX/MERGE/GATE nodes read, never of the data, so a trace that
reaches its absorbing zero mask is remembered in the netlist's
schedule memo under the count state the session opened with.  A whole
run that opens on a remembered count state whose select tokens have
the same truth values adopts the remembered masks, checkpoints and RAM
read stamps instead of tracing, so a kernel that reruns one
configuration (the rake finger, the resident FFT64 stage) traces each
distinct schedule once.  Every value pass takes the streams no data can
change (counters, the selects they drive) from the netlist's data plan
(:class:`repro.fastpath.cache.DataPlan`), so an adopted run computes
only its data.

:class:`FastpathScheduler` plugs this in behind the standard scheduler
seam: it compiles on first step, reopens from live state whenever its
claim on the configuration manager fails (recompiling when the version
changed: the Fig. 10 mid-run swap), and transparently falls back to an
inner :class:`EventScheduler` — with a :class:`FastpathFallbackWarning`
— for graphs the compiler cannot prove.
"""

from __future__ import annotations

import warnings
from collections import Counter, deque
from typing import NamedTuple

import numpy as np

from repro.diagnostics import REASON_UNSUPPORTED_TYPE
from repro.fastpath.cache import compile_graph, memo_store
from repro.fastpath.capture import capture, check_runtime_state
from repro.fastpath.ir import UnsupportedGraphError
from repro.telemetry.metrics import get_metrics
from repro.fastpath.lower import (
    FIRES_CHECK,
    STATE_CHECK,
    _vpack,
    _vunpack,
    _wrap,
)
from repro.fixed import wrap
from repro.xpp.scheduler import EventScheduler
from repro.xpp.stats import STOP_MAX_CYCLES, STOP_QUIESCENT, STOP_UNTIL

#: first trace window, in cycles; later windows double it
FIRST_WINDOW = 256


class Schedule(NamedTuple):
    """One finished trace, as the schedule memo keeps it."""

    masks: list         # per-cycle firing masks, zero mask last (interned)
    fchk: list
    schk: list
    state: tuple        # count state after the zero mask
    fires: tuple        # per-node firing counts over the whole trace
    stamps: tuple       # RAM read stamps, per ``Graph.stamp_edges()``
    selects: tuple      # truth of every select token the trace could
                        # read, per ``Graph.select_edges()`` (bytes)


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


class TraceSession:
    """One compiled execution of the resident netlist: ``graph`` is its
    capture, ``netlist`` the :class:`~repro.fastpath.cache.Netlist` of
    its shape, whose schedule memo the session reads and stores into."""

    def __init__(self, graph, netlist):
        self.graph = graph
        self.netlist = netlist
        self.trace = netlist.trace
        self.memo = netlist.memo
        self.spec = netlist.spec
        self.s0 = netlist.initial_state(graph)
        self.state = self.s0
        self.masks = []
        self.fchk = []      # cumulative firings every FIRES_CHECK cycles
        self.schk = []      # full count state every STATE_CHECK cycles
        self.cursor = 0     # cycles already replayed into live state
        self.z = None       # first all-idle cycle (absorbing), if seen
        self.zfires = None  # per-node firings over the first z cycles
        self.limit = 0      # value-stream window (= trace cycle limit)
        self.edge_vals = None   # per edge: word stream (None: lanes only)
        self.lanes = None       # per edge: (re, im, half bits) or None
        self._splits = None     # the data plan's select tables
        self._epoch_rt = {}     # per-SCC incremental kernel state
        # trace side streams: select values in, RAM read stamps out
        self.sv = [None] * len(graph.edges)
        self._peeked = netlist.selects
        self._stamped = netlist.stamps
        for j in self._stamped:
            self.sv[j] = []
        # node index -> [live list, value list, consumed count]
        self.collect = {}
        self._sink_at = {}      # id(sink object) -> node index
        for n in graph.nodes:
            if n.kind == "sink":
                self.collect[n.i] = [n.obj.received, None, 0]
                self._sink_at[id(n.obj)] = n.i
            elif n.kind == "probe":
                self.collect[n.i] = [n.obj.seen, None, 0]
        self._clist = [self.collect.get(i) for i in range(len(graph.nodes))]
        # firing bitmasks repeat heavily (steady-state pipelines fire the
        # same set every cycle), so replay decodes each distinct mask once
        self._decode = {}
        self._closed = False
        self._obs = (0, self.s0)    # (cycle, count state) of records

    # -- tracing -------------------------------------------------------------

    def _grow_values(self, limit: int) -> None:
        """(Re)run the value pass over a longer window, up to what the
        trace needs (every stream but the late ones).  The live state is
        frozen during a session, so the recompute is deterministic and
        prefix-consistent with every list already handed out.  Streams
        the data plan holds are taken from it, not recomputed."""
        plan = self.netlist.plan.view(self.graph, limit)
        self.edge_vals = list(plan.streams)
        self.lanes = [None] * len(self.edge_vals)
        self.netlist.values(self.graph.objs, self.graph.wires, self.edge_vals,
                            self.lanes, plan.splits, limit, self.graph,
                            self.netlist.epochs, self._epoch_rt)
        self._splits = plan.splits
        for j in self._peeked:
            lst = plan.lists.get(j)
            self.sv[j] = self.edge_vals[j].tolist() if lst is None else lst
        self.limit = limit

    def _grow_late(self) -> None:
        """Complete the value pass once the trace has stamped the RAM
        reads, and refresh the sink/probe value lists.

        Only stamped (traced) reads produce values, so every late stream
        is exact and prefix-consistent across regrowth.  When a read
        observes a write whose address or data itself derives from RAM
        read data, the late sweep repeats until the read values stop
        changing: a write only carries data read in earlier cycles, so
        each sweep settles at least one more read and the fixpoint is the
        simulated one.  Late SCCs replay from their session snapshot on
        every sweep."""
        if self.graph.late:
            prev = None
            for _ in range(2 + sum(len(self.sv[j]) for j in self._stamped)):
                exact, reads = self.netlist.late(
                    self.graph.objs, self.graph.wires, self.edge_vals,
                    self.lanes, self._splits, self.sv, self.limit,
                    self.graph, self.netlist.epochs)
                if exact or prev is not None and all(
                        np.array_equal(a, b) for a, b in zip(prev, reads)):
                    break
                prev = reads
            else:
                raise AssertionError("RAM read values did not settle")
        for i, rec in self.collect.items():
            rec[1] = self.edge_vals[self.graph.nodes[i].in_edges[0]].tolist()

    def _word(self, j: int):
        """Edge ``j``'s token stream as words (the value pass keeps an
        edge between complex ALUs as lanes only)."""
        v = self.edge_vals[j]
        if v is None:
            v = self.edge_vals[j] = _vpack(*self.lanes[j])
        return v

    def ensure(self, t: int) -> None:
        """Extend the trace to cover at least ``t`` cycles (or quiet).
        A trace that reaches its zero mask goes into the schedule memo,
        and never grows again."""
        while self.z is None and len(self.masks) < t:
            limit = max(t, 2 * len(self.masks), FIRST_WINDOW)
            self._grow_values(limit)
            done, self.state = self.trace(self.state, self.sv, self.masks,
                                          self.fchk, self.schk, limit)
            self._grow_late()
            if done:
                self.z = len(self.masks) - 1
                self.zfires = tuple(self._cum_fires(self.z))
                self._remember()

    def _remember(self) -> None:
        """Store the finished trace under ``s0``.  The trace kernel reads
        a select token ``sv[j][p]`` only while edge ``j`` holds a token
        (``o > 0``), and only for its truth, so the truth of
        ``sv[j][:p + o]`` at the final state covers everything it could
        have read: with ``s0`` that fixes the schedule."""
        at = {key: k for k, key in enumerate(self.spec)}
        st = self.state
        canon = {}
        self.masks = [canon.setdefault(m, m) for m in self.masks]
        selects = tuple(self._truth(j, st[at["p", j]] + st[at["o", j]])
                        for j in self._peeked)
        memo_store(self.memo, self.s0, Schedule(
            self.masks, self.fchk, self.schk, st, self.zfires,
            tuple(self.sv[j] for j in self._stamped), selects))

    def _adopt(self, max_cycles: int) -> None:
        """Take the remembered schedule of ``s0``, if there is one that
        fits the budget and whose select tokens this session's value
        pass reproduces.  An adopted trace is complete (``z`` is set), so
        it shares the memo's lists read-only."""
        sched = self.memo.get(self.s0)
        if sched is None or len(sched.masks) > max(max_cycles, FIRST_WINDOW):
            return
        self._grow_values(len(sched.masks))
        for j, pre in zip(self._peeked, sched.selects):
            if self._truth(j, len(pre)) != pre:
                self._epoch_rt = {}     # trace from cycle 0 as without
                return                  # a memo
        self.masks, self.fchk, self.schk = sched.masks, sched.fchk, sched.schk
        self.state = sched.state
        self.zfires = sched.fires
        for j, stamps in zip(self._stamped, sched.stamps):
            self.sv[j] = stamps
        self.z = len(self.masks) - 1
        self._grow_late()

    def _truth(self, j: int, n: int) -> bytes:
        """Truth of the first ``n`` tokens of select edge ``j``, one byte
        each (fewer when the value pass has fewer)."""
        return (self.edge_vals[j][:n] != 0).tobytes()

    # -- replay --------------------------------------------------------------

    def replay_step(self) -> int:
        t = self.cursor
        self.cursor = t + 1
        if self.z is not None and t >= self.z:
            # the array is absorbed: write the final state back now, so
            # a run that ends quiescent leaves live state current for
            # raw reads (the FFT64 kernel reads ``mem`` after a drain)
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
        fobjs = self.graph.objs
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

    def stop(self, max_cycles: int, sinks, quiescent_limit: int):
        """``(cycles, stop_reason)`` of a ``Simulator.run`` from the
        cursor, read off the trace: ``sinks`` (or None for no stop
        predicate) are those of a ``SinksDone``.  None if a sink is not
        in the graph.

        The per-cycle loop checks ``until`` before each step and
        quiescence after it, so a sink stop at ``j`` wins over
        quiescence only when it comes first, and quiescence at exactly
        ``max_cycles`` still reports quiescent.  The trace grows in the
        same doubling windows per-cycle replay uses, only as far as the
        answer needs.  A fresh session first tries the schedule memo:
        a remembered schedule no longer than ``max(max_cycles, 256)``
        whose select tokens match is adopted instead of traced.
        """
        if self.memo and not self.masks:
            self._adopt(max_cycles)
        start = self.cursor
        targets = None if sinks is None else []
        for snk in sinks or ():
            i = self._sink_at.get(id(snk))
            if i is None:
                return None
            if snk.expect is None:
                targets = None          # never done: no until stop
            elif targets is not None:
                targets.append((i, snk.expect - len(snk.received)))
        if targets:
            base = self._cum_fires(start)
            targets = [(i, base[i] + need) for i, need in targets
                       if need > 0]
        q = max(quiescent_limit, 1)
        while True:
            u = None
            if targets is not None:
                u = start
                for i, count in targets:
                    t = self._reach(i, count)
                    if t is None:
                        u = None
                        break
                    u = max(u, t)
            if u is not None and (self.z is None
                                  or u < max(self.z, start) + q):
                if u - start < max_cycles:
                    return u - start, STOP_UNTIL
                return max_cycles, STOP_MAX_CYCLES
            if self.z is not None:
                j = max(self.z, start) - start + q
                if j <= max_cycles:
                    return j, STOP_QUIESCENT
                return max_cycles, STOP_MAX_CYCLES
            n = len(self.masks)
            if n - start >= max_cycles:
                return max_cycles, STOP_MAX_CYCLES
            self.ensure(n + 1)

    def _reach(self, i: int, count: int):
        """First traced cycle count ``t`` by which node ``i`` has fired
        ``count`` times in all, or None if the trace so far falls short:
        a bisect over the firing checkpoints, then one checkpoint
        stride of masks."""
        fchk = self.fchk
        lo, hi = 0, len(fchk)
        while lo < hi:
            mid = (lo + hi) // 2
            if fchk[mid][i] >= count:
                hi = mid
            else:
                lo = mid + 1
        t = lo * FIRES_CHECK
        have = fchk[lo - 1][i] if lo else 0
        bit = 1 << i
        for m in self.masks[t:t + FIRES_CHECK]:
            t += 1
            if m & bit:
                have += 1
                if have >= count:
                    return t
        return None

    def _cum_fires(self, t: int):
        """Per-node firing counts over the first ``t`` traced cycles
        (read-only; past the zero mask they are the remembered ones)."""
        if self.zfires is not None and t >= self.z:
            return self.zfires
        t = min(t, len(self.masks))
        k = t // FIRES_CHECK
        fires = list(self.fchk[k - 1]) if k else [0] * len(self.graph.nodes)
        # steady-state masks repeat: decode each distinct one once
        for m, c in Counter(self.masks[k * FIRES_CHECK:t]).items():
            while m:
                lsb = m & -m
                fires[lsb.bit_length() - 1] += c
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
        _, st = self.trace(base, self._unstamped(), [], [], [], t)
        return st

    def _unstamped(self) -> list:
        """``sv`` for a re-run of the trace kernel, which must not stamp
        RAM reads twice."""
        stamped = self._stamped
        return [[] if j in stamped else v for j, v in enumerate(self.sv)]

    def records(self, n: int) -> list:
        """``(fired, energy, wire depths)`` of each of the last ``n``
        replayed cycles, as ``Simulator`` reads them off live wires: the
        trace kernel steps the count state one cycle at a time, depths
        are its ``("o", j)`` and firings its ``("f", i)`` entries."""
        t, end = self.cursor - n, self.cursor
        st = self._obs[1] if self._obs[0] == t else self._state_at(t)
        ne = len(self.graph.edges)
        objs = self.graph.objs
        base = [o.fired - c for o, c in zip(objs, self._cum_fires(end))]
        sv = self._unstamped()
        out = []
        for t in range(t, end):
            if self.z is None or t < self.z:    # past z: absorbed
                _, st = self.trace(st, sv, [], [], [], t + 1)
            m = self.masks[t] if t < len(self.masks) else 0
            out.append((bin(m).count("1"),
                        sum((b + f) * o.ENERGY for b, f, o
                            in zip(base, st[1 + 2 * ne:], objs)),
                        st[1:1 + ne]))
        self._obs = (end, st)
        return out

    def materialize(self) -> None:
        """Write the count state at the replay cursor back into every
        live wire and object, closing the session (idempotent).  Nothing
        outside the scheduler touches that state while the session is
        open: every such access settles the configuration manager, which
        calls this first."""
        if self._closed or self.cursor == 0:
            return
        self._closed = True
        st = self._state_at(self.cursor)
        sd = dict(zip(self.spec, st))
        for e in self.graph.edges:
            w = e.wire
            o = sd[("o", e.j)]
            p = sd[("p", e.j)]
            w._q = deque(self._word(e.j)[p:p + o].tolist() if o else ())
            w._pushes = []
            w._pops = 0
            w._avail = o
            w._space = e.cap - o
            w.total_transfers += p
        for n in self.graph.nodes:
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
            re, im = _vunpack(self._word(n.in_edges[0])[:f], o.half_bits)
            o._re = wrap(o._re + int(re.sum()), o.half_bits)
            o._im = wrap(o._im + int(im.sum()), o.half_bits)
        elif k == "acc":
            x = self.edge_vals[n.in_edges[0]][:f]
            o._sum, o._n = self._acc_state(x, o.length, o._n, o._sum)
        elif k == "cacc":
            re, im = _vunpack(self._word(n.in_edges[0])[:f], o.half_bits)
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
            w = sd[("p", wa)] if wa is not None and wd is not None else 0
            if w:
                # last write to each address wins: the first occurrence
                # in the reversed write stream
                addrs, last = np.unique(self.edge_vals[wa][w - 1::-1]
                                        % o.words, return_index=True)
                vals = _wrap(self.edge_vals[wd][w - 1::-1][last], o.bits)
                mem = np.array(o.mem, dtype=np.int64)
                mem[addrs] = vals
                o.mem[:] = mem.tolist()
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
        self._structure = None          # (version, graph, netlist)
        # the version whose netlist does not compile, and the version
        # whose runtime state (taps, overrides) failed the session-open
        # check: the first holds until a load/remove, the second only
        # until the next touch
        self._fallback_version = None
        self._held_version = None

    def bind(self, manager) -> None:
        self.manager = manager
        self._inner.bind(manager)
        self._structure = None
        self._fallback_version = None
        self._held_version = None

    def _netlist_key(self) -> tuple:
        """Cheap structural key of the resident netlist for warning
        dedupe (full fingerprints need a compilable graph; fallbacks by
        definition may not have one)."""
        objs = self.manager.active_objects()
        return (tuple((o.name, type(o).__name__) for o in objs),
                len(self.manager.active_wires()))

    def _note_fallback(self, exc) -> None:
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

    def _ensure_session(self):
        """The manager's open session while this scheduler's claim on it
        holds, else a new one opened from live state; None on the event
        fallback, checked before claiming so that the inner scheduler
        keeps its own claim."""
        mgr = self.manager
        if self._fallback_version == mgr.version:
            return None
        if self._held_version == mgr.version:
            # untouched since the check failed: the stepper is still
            # this scheduler or its inner one
            ref = mgr._stepper
            if ref is not None and ref() in (self, self._inner):
                return None
        if mgr.claim(self) and mgr._session is not None:
            return mgr._session
        st = self._structure
        if st is None or st[0] != mgr.version:
            try:
                compiled = compile_graph(capture(mgr))
            except UnsupportedGraphError as exc:
                self._fallback_version = mgr.version
                self._note_fallback(exc)
                return None
            st = self._structure = (mgr.version, compiled.graph,
                                    compiled.netlist)
        try:
            check_runtime_state(st[1])
        except UnsupportedGraphError as exc:
            if self._held_version != mgr.version:   # once per episode
                self._held_version = mgr.version
                self._note_fallback(exc)
            return None
        self._held_version = None
        mgr._session = TraceSession(st[1], st[2])
        return mgr._session

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

    def records(self, n: int):
        """:meth:`TraceSession.records` of the last ``n`` cycles, or None
        when they ran on the event fallback, whose live state is current
        (the fallback's claim settled any session)."""
        s = self.manager._session
        return None if s is None else s.records(n)

    def run(self, max_cycles: int, sinks, quiescent_limit: int):
        """Whole-run replay for ``Simulator.run``: ``(cycles,
        stop_reason)`` answered by :meth:`TraceSession.stop`, with the
        run's firings and sink tokens applied in one :meth:`step_n`.
        None (run the per-cycle loop) on an event fallback or when a
        sink is not in the compiled graph."""
        s = self._ensure_session()
        if s is None:
            return None
        stop = s.stop(max_cycles, sinks, quiescent_limit)
        if stop is not None:
            self.step_n(stop[0])
        return stop
