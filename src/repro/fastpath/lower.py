"""Lowering: value streams and the generated count-level trace kernel.

Two cooperating lowerings turn a captured :class:`~repro.fastpath.ir.Graph`
into something that executes whole runs per call:

* **Value pass** — under the two-phase handshake protocol the *sequence*
  of tokens crossing each edge is timing-independent (the netlists are
  Kahn process networks), so per-edge token values can be computed ahead
  of time as batched numpy int64 array ops in one topological sweep:
  each node maps its input streams to output-port streams with the same
  wrap/shift/pack arithmetic as its ``compute``, vectorized via
  :mod:`repro.fixed`.

* **Count pass** — *when* tokens move still depends on backpressure, so
  firing schedules are produced by a generated straight-line Python
  trace kernel: one int local per edge occupancy/pop-counter and per
  node phase variable, one plan boolean per node per cycle, and a
  per-cycle firing bitmask appended to a trace.  Checkpoints of firing
  counts (every 256 cycles) and of the full count state (every 2048)
  keep replay and state write-back O(1)-ish.  A zero mask is absorbing
  (no state changed, so no plan can change) and ends the trace.

Data-dependent routing (DEMUX/MERGE/GATE) is the one place values feed
back into scheduling; those select streams are handed to the trace
kernel as plain Python lists indexed by the select edge's pop counter.

RAM-PAEs run the other way round: timing never depends on memory
contents, but a read's value depends on which writes committed before
it.  The trace kernel stamps every read with the number of writes
committed in earlier cycles (appended to a list handed in where the
read-address edge's select slot would be), and :func:`late_streams`
computes the RAM's read values — and everything downstream of them —
after the trace: read ``k`` returns the session's memory image with
the first ``stamps[k]`` writes applied.

Feedback cycles get a third piece.  The count pass is already
cycle-safe (every plan boolean is computed before any commit and each
edge has exactly one consumer, so node order is irrelevant), but the
vectorized value pass needs producers before consumers.  Each
strongly-connected component is therefore lowered by a generated
**epoch kernel** (:func:`emit_epoch`): a time-stepped scalar fixpoint
loop over just the component's nodes that consumes the surrounding
acyclic regions' numpy streams as plain lists and grows every edge the
component produces until the cycle-carried state stops advancing or
the window ``limit`` is reached.  Values stay exact (python ints with
the same wrap/saturate folds, applied per token), deterministic and
prefix-consistent, so :meth:`TraceSession._grow_values` regrowth and
the existing replay/materialize machinery work unchanged.

Everything here that depends on the structure alone — the trace and
epoch kernels, the :func:`state_spec` layout — is built once per
netlist shape into a :class:`repro.fastpath.cache.Netlist`; a value
pass always runs with its compiled epoch kernels and a
:class:`PlanView` of its data plan.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from repro.fastpath.ir import GENERATORS, SELECTS, Graph

#: stand-in for an unbounded generator budget (avoids None checks in
#: the generated kernel's hot loop)
INF = 1 << 62

#: trace checkpoint strides (powers of two; the kernel uses bit masks)
FIRES_CHECK = 256
STATE_CHECK = 2048

# ---------------------------------------------------------------------------
# value pass
# ---------------------------------------------------------------------------


def _wrap(v, bits):
    """Vectorized two's-complement fold (int64-native, branch-free: the
    xor flips the sign bit, so subtracting it sign-extends)."""
    sign = np.int64(1 << (bits - 1))
    return ((v & np.int64((1 << bits) - 1)) ^ sign) - sign


def _vshift(x, amount):
    """Constant arithmetic shift, positive = left (matches alu._shift)."""
    return x << amount if amount >= 0 else x >> (-amount)


def _vunpack(w, hb):
    return _wrap(w >> hb, hb), _wrap(w, hb)


def _vpack(re, im, hb):
    # mask-only pack: wrap-then-mask == mask (mod 2**hb arithmetic)
    mask = np.int64((1 << hb) - 1)
    return ((re & mask) << hb) | (im & mask)


_E = np.zeros(0, dtype=np.int64)


def _arr(seq):
    return np.array(list(seq), dtype=np.int64) if len(seq) else _E.copy()


_BINFN = {
    "ADD": lambda a, b: a + b,
    "SUB": lambda a, b: a - b,
    "MUL": lambda a, b: a * b,
    "MIN": np.minimum,
    "MAX": np.maximum,
    "AND": lambda a, b: a & b,
    "OR": lambda a, b: a | b,
    "XOR": lambda a, b: a ^ b,
    "SHL": lambda a, b: a << b,
    "SHR": lambda a, b: a >> b,
    "CMPEQ": lambda a, b: (a == b).astype(np.int64),
    "CMPNE": lambda a, b: (a != b).astype(np.int64),
    "CMPLT": lambda a, b: (a < b).astype(np.int64),
    "CMPLE": lambda a, b: (a <= b).astype(np.int64),
    "CMPGT": lambda a, b: (a > b).astype(np.int64),
    "CMPGE": lambda a, b: (a >= b).astype(np.int64),
}


def node_budget(node) -> int:
    """Remaining firings a generator can make, from its live state."""
    o = node.obj
    k = node.kind
    if k == "source":
        return len(o._data) - o._pos
    if k == "const":
        return INF if o.count is None else max(o.count - o._emitted, 0)
    if k == "seq":
        return INF if o.circular else max(len(o.values) - o._pos, 0)
    if k == "counter":
        if o._stopped:
            return 0
        budget = INF if o.count is None else max(o.count - o._emitted, 0)
        if o.limit is not None and o.mode == "stop":
            rem = -(-(o.limit - o._value) // o.step)    # ceil division
            budget = min(budget, max(rem, 0))
        return budget
    return INF


def _counter_streams(o, n):
    """Value and wrap-event streams of a Counter from its live phase."""
    idx = np.arange(n, dtype=np.int64)
    if o.limit is not None and o.mode == "wrap":
        period = -(-(o.limit - o.start) // o.step)
        pos = ((o._value - o.start) // o.step + idx) % period
        vals = o.start + pos * o.step
        wev = (pos == period - 1).astype(np.int64)
    else:
        vals = o._value + idx * o.step
        if o.limit is not None:     # stop mode: flag the stopping token
            wev = (vals + o.step >= o.limit).astype(np.int64)
        else:
            wev = np.zeros(n, dtype=np.int64)
    return _wrap(vals, o.bits), wev


def select_split(sel) -> tuple:
    """``(i0, i1)``: positions of the false and the true tokens of a
    select stream.  A DEMUX, MERGE or GATE routes by these index
    tables alone, and the tables of a longer stream serve every prefix
    of it (the lowerings below only read positions before their own
    firing count)."""
    true = sel != 0
    return np.flatnonzero(~true), np.flatnonzero(true)


def _merge_stream(split, n, a, b):
    """MERGE output over ``n`` select tokens split into ``(ia, ib)``:
    scatter a/b into place, truncated at the first firing whose
    selected branch has run dry."""
    ia, ib = split
    if len(a) < len(ia):
        n = min(n, int(ia[len(a)]))
    if len(b) < len(ib):
        n = min(n, int(ib[len(b)]))
    ka = int(np.searchsorted(ia, n))
    out = np.empty(n, dtype=np.int64)
    out[ia[:ka]] = a[:ka]
    out[ib[:n - ka]] = b[:n - ka]
    return out


def _acc_sums(x, length, n0, s0):
    """Dump values of an integrate-and-dump fed ``x``, mid-block at
    (count ``n0``, partial sum ``s0``)."""
    k1 = length - n0
    if len(x) < k1:
        return _E.copy()
    first = s0 + int(x[:k1].sum())
    rest = x[k1:]
    nb = len(rest) // length
    if nb:
        sums = rest[:nb * length].reshape(nb, length).sum(axis=1)
        return np.concatenate([np.array([first], dtype=np.int64), sums])
    return np.array([first], dtype=np.int64)


def _node_streams(node, ins, limit, split=None):
    """Per-output-port value streams of one node (length-capped).
    ``split`` is the :func:`select_split` of a DEMUX/MERGE/GATE select
    stream when a data plan already holds it."""
    o = node.obj
    k = node.kind

    if k == "source":
        return [_arr(o._data[o._pos:o._pos + limit])]
    if k == "const":
        n = min(limit, node_budget(node))
        from repro.fixed import wrap
        return [np.full(n, wrap(o.value, o.bits), dtype=np.int64)]
    if k == "seq":
        vals = _arr(o.values)
        if o.circular:
            idx = (o._pos + np.arange(limit, dtype=np.int64)) % len(vals)
            return [_wrap(vals[idx], o.bits)]
        return [_wrap(vals[o._pos:o._pos + limit], o.bits)]
    if k == "counter":
        n = min(limit, node_budget(node))
        vals, wev = _counter_streams(o, n)
        return [vals, wev]
    if k == "sink":
        return []
    if k == "probe":
        return [ins[0]]
    if k == "fifo":
        snap = _arr(o._q)
        if o.circular:
            if not len(snap):
                return [_E.copy()]
            reps = -(-limit // len(snap))
            return [np.tile(snap, reps)[:limit]]
        if ins[0] is not None:
            return [np.concatenate([snap, _wrap(ins[0], o.bits)])]
        return [snap]

    if k == "binary":
        a = ins[0]
        b = ins[1] if ins[1] is not None else o.const
        if isinstance(b, np.ndarray):
            n = min(len(a), len(b))
            a, b = a[:n], b[:n]
        r = _BINFN[o.OPCODE](a, b)
        return [_wrap(_vshift(r, -o.shift), o.bits)]
    if k == "unary":
        a = ins[0]
        r = {"NEG": lambda v: -v, "NOT": lambda v: ~v,
             "ABS": np.abs, "PASS": lambda v: v}[o.OPCODE](a)
        return [_wrap(r, o.bits)]
    if k == "shiftalu":
        return [_wrap(_vshift(ins[0], o.amount), o.bits)]
    if k == "lut":
        tbl = _wrap(_arr(o.table), o.bits)
        return [tbl[ins[0] % len(o.table)]]

    hb = getattr(o, "half_bits", 12)
    if k in ("cadd", "csub"):
        n = min(len(ins[0]), len(ins[1]))
        ar, ai = _vunpack(ins[0][:n], hb)
        br, bi = _vunpack(ins[1][:n], hb)
        if k == "cadd":
            re, im = ar + br, ai + bi
        else:
            re, im = ar - br, ai - bi
        return [_vpack(_vshift(re, -o.shift), _vshift(im, -o.shift), hb)]
    if k == "cmul":
        n = min(len(ins[0]), len(ins[1]))
        ar, ai = _vunpack(ins[0][:n], hb)
        br, bi = _vunpack(ins[1][:n], hb)
        if o.conj_b:
            bi = -bi
        re = ar * br - ai * bi
        im = ar * bi + ai * br
        if o.shift:
            if o.round_shift:
                half = 1 << (o.shift - 1)
                re = (re + half) >> o.shift
                im = (im + half) >> o.shift
            else:
                re >>= o.shift
                im >>= o.shift
        return [_vpack(re, im, hb)]
    if k == "cconj":
        re, im = _vunpack(ins[0], hb)
        return [_vpack(re, -im, hb)]
    if k == "cneg":
        re, im = _vunpack(ins[0], hb)
        return [_vpack(-re, -im, hb)]
    if k == "cmulj":
        re, im = _vunpack(ins[0], hb)
        return [_vpack(-im, re, hb) if o.sign > 0 else _vpack(im, -re, hb)]
    if k == "cshift":
        re, im = _vunpack(ins[0], hb)
        return [_vpack(_vshift(re, o.amount), _vshift(im, o.amount), hb)]
    if k == "pack":
        n = min(len(ins[0]), len(ins[1]))
        return [_vpack(ins[0][:n], ins[1][:n], o.half_bits)]
    if k == "unpack":
        re, im = _vunpack(ins[0], o.half_bits)
        return [re, im]

    if k == "mux":
        n = min(len(ins[0]), len(ins[1]), len(ins[2]))
        return [np.where(ins[0][:n] != 0, ins[2][:n], ins[1][:n])]
    if k == "swap":
        n = min(len(ins[0]), len(ins[1]), len(ins[2]))
        sel, a, b = ins[0][:n] != 0, ins[1][:n], ins[2][:n]
        return [np.where(sel, b, a), np.where(sel, a, b)]
    if k in ("demux", "merge", "gate"):
        i0, i1 = split if split is not None else select_split(ins[0])
        if k == "merge":
            return [_merge_stream((i0, i1), len(ins[0]), ins[1], ins[2])]
        a = ins[1]
        n = min(len(ins[0]), len(a))
        k1 = int(np.searchsorted(i1, n))    # true selects before n
        if k == "gate":
            return [a[i1[:k1]]]
        return [a[i0[:n - k1]], a[i1[:k1]]]

    if k == "acc":
        sums = _acc_sums(ins[0], o.length, o._n, o._sum)
        return [_wrap(_vshift(sums, -o.shift), o.bits)]
    if k == "cacc":
        re, im = _vunpack(ins[0], hb)
        rs = _acc_sums(re, o.length, o._n, o._re)
        is_ = _acc_sums(im, o.length, o._n, o._im)
        return [_vpack(_vshift(rs, -o.shift), _vshift(is_, -o.shift), hb)]
    if k == "integ":
        return [_wrap(o._sum + np.cumsum(ins[0]), o.bits)]
    if k == "cinteg":
        re, im = _vunpack(ins[0], hb)
        return [_vpack(o._re + np.cumsum(re), o._im + np.cumsum(im), hb)]
    if k == "reg":
        pre = _wrap(_arr(o._preload), o.bits)
        return [np.concatenate([pre, _wrap(ins[0], o.bits)])]

    raise AssertionError(f"no lowering for kind {k!r}")       # unreachable


def value_streams(graph: Graph, limit: int, epochs, epoch_rt,
                  plan: "PlanView") -> list:
    """Per-edge token-value streams: the wire's queued tokens followed
    by every token its producer port will ever push, capped at ``limit``
    productions.  Acyclic schedule units are one vectorized numpy sweep
    over the live state; SCC ``s`` runs its generated epoch kernel
    ``epochs[s]``.

    ``epoch_rt`` is the caller's persistent per-SCC runtime dict (see
    :func:`_run_epoch`): with it, regrowing to a larger ``limit`` only
    runs the epoch kernels over the *new* window instead of replaying
    from cycle zero — TraceSession passes its own so repeated
    ``ensure`` growth stays O(total), matching the trace kernel's
    incremental count state.

    ``plan`` (a :class:`PlanView` of the netlist's data plan, see
    :class:`repro.fastpath.cache.DataPlan`) supplies the streams of the
    data-independent nodes and the index tables of the selects they
    drive; those nodes are not recomputed.

    Edges of the graph's late units (RAM read data and everything
    downstream) stay None: their values wait for the trace's read
    stamps, see :func:`late_streams`."""
    edge_vals = list(plan.streams)
    for unit in graph.schedule:
        if not graph.is_late(unit) and unit not in plan.units:
            _run_unit(graph, unit, edge_vals, limit, epochs, epoch_rt,
                      plan.splits)
    return edge_vals


class PlanView(NamedTuple):
    """A data plan's streams, cut to one value-pass window."""

    units: frozenset    # ("node", i) units whose streams the plan holds
    streams: list       # per edge: read-only stream, or None
    splits: dict        # select edge -> read-only select_split tables
    lists: dict         # select edge -> token list (trace side stream)


def _store(graph: Graph, node, ports, edge_vals: list, limit: int) -> None:
    """Per-edge streams of a node's output ports (queued tokens first;
    an edge with an empty wire takes its port stream as is)."""
    for k, js in enumerate(node.out_ports):
        for j in js:
            q = graph.edges[j].wire._q
            port = ports[k][:limit]
            edge_vals[j] = np.concatenate([_arr(q), port]) if q else port


def _run_unit(graph: Graph, unit, edge_vals: list, limit: int, epochs,
              epoch_rt, splits) -> None:
    """Compute one schedule unit's output streams into ``edge_vals``
    (``splits``: select edge -> cached :func:`select_split` tables)."""
    tag, x = unit
    if tag == "node":
        node = graph.nodes[x]
        ins = [edge_vals[j] if j is not None else None
               for j in node.in_edges]
        split = None
        if node.kind in SELECTS:
            split = splits.get(node.in_edges[0])
        _store(graph, node, _node_streams(node, ins, limit, split),
               edge_vals, limit)
    else:
        env = _run_epoch(graph, x, epochs[x], edge_vals, limit, epoch_rt)
        for idx, (_, tag2, key) in enumerate(epoch_spec(graph, x)):
            if tag2 == "seed":
                edge_vals[key] = _arr(env[idx])


def _ram_reads(graph: Graph, node, edge_vals: list, stamps: list) -> tuple:
    """``(values, exact)`` of a RAM's traced reads.

    Read ``k`` returns the memory image at session open with the first
    ``stamps[k]`` writes applied, at address ``raddr[k] % words`` (a
    write in the read's own cycle is not among them: read-before-write).
    Write streams still None, or produced by late nodes, may be missing
    or provisional; ``exact`` is False when the result leaned on one.
    """
    o = node.obj
    ra, wa, wd = node.in_edges
    n = len(stamps)
    addr = edge_vals[ra][:n] % o.words
    vals = _arr(o.mem)[addr]
    w = stamps[-1] if n else 0          # stamps never decrease
    if not w:
        return vals, True
    late = graph.late
    wav = edge_vals[wa]
    if wav is None:
        return vals, False
    # last write to each read's address before its stamp: sort writes
    # by (address, index) and search for (address, stamp)
    key = (wav[:w] % o.words) * (w + 1) + np.arange(w, dtype=np.int64)
    order = np.argsort(key)
    key = key[order]
    pos = np.searchsorted(key, addr * (w + 1) + _arr(stamps)) - 1
    at = np.maximum(pos, 0)
    hit = (pos >= 0) & (key[at] // (w + 1) == addr)
    waddr_exact = graph.edges[wa].src not in late
    if not hit.any():
        return vals, waddr_exact
    wdv = edge_vals[wd]
    if wdv is None:
        return vals, False
    wvals = _wrap(wdv[:w][order], o.bits)
    exact = waddr_exact and graph.edges[wd].src not in late
    return np.where(hit, wvals[at], vals), exact


def late_streams(graph: Graph, limit: int, edge_vals: list, sv: list,
                 epochs, splits) -> None:
    """Fill in the late units' streams of ``edge_vals`` in place, once
    the trace kernel has appended every read's stamp to
    ``sv[raddr edge]``.

    Only stamped (traced) reads produce values, so every late stream is
    exact and prefix-consistent across regrowth.  When a read observes
    a write whose address or data itself derives from RAM read data,
    the sweep repeats until the read values stop changing: a write
    only carries data read in earlier cycles, so each sweep settles at
    least one more read and the fixpoint is the simulated one.  Late
    SCCs replay from their session snapshot on every sweep.
    ``epochs`` and ``splits`` (a data plan's select tables) are as in
    :func:`value_streams`."""
    units = [u for u in graph.schedule if graph.is_late(u)]
    prev = None
    for _ in range(2 + sum(len(sv[j]) for j in graph.stamp_edges())):
        reads = []
        exact = True
        for unit in units:
            tag, x = unit
            node = graph.nodes[x] if tag == "node" else None
            if node is None or node.kind != "ram":
                _run_unit(graph, unit, edge_vals, limit, epochs, None,
                          splits)
            elif node.in_edges[0] is not None:
                vals, ok = _ram_reads(graph, node, edge_vals,
                                      sv[node.in_edges[0]])
                reads.append(vals)
                exact = exact and ok
                _store(graph, node, [vals], edge_vals, limit)
        if exact or prev is not None and all(
                np.array_equal(a, b) for a, b in zip(prev, reads)):
            return
        prev = reads
    raise AssertionError("RAM read values did not settle")  # unreachable


# ---------------------------------------------------------------------------
# epoch kernels: generated scalar fixpoint loops for feedback components
# ---------------------------------------------------------------------------
#
# Inside an SCC the vectorized sweep has no valid node order, so each
# component gets a specialized scalar kernel instead: per produced edge a
# growable Python list (seeded with the wire's queued tokens plus any
# reg-preload / fifo-snapshot backlog), per consumed edge a read cursor,
# and per member node a drain loop that fires as long as tokens are
# available — all wrapped in an outer fixpoint loop that stops once a
# full pass over the component makes no progress.  Arithmetic is exact
# Python-int with the same wrap/fold/pack formulas as the numpy pass
# baked in as literals, so values are bit-identical.  Firings per node
# are capped at ``limit``: a node fires at most once per cycle, so this
# always covers everything the count-level trace can consume in a
# ``limit``-cycle window, and it bounds self-sustaining rings.  The
# member order (Kahn with deterministic back-edge break) makes output
# streams deterministic and prefix-consistent in ``limit``, which is
# what TraceSession regrowth relies on.


def scc_produced(graph: Graph, s: int) -> list:
    """Edge indices produced inside SCC ``s`` (sorted; kernel output
    order and the order ``value_streams`` assigns results back)."""
    return sorted({j for i in graph.sccs[s]
                   for j in graph.nodes[i].out_edges()})


def epoch_spec(graph: Graph, s: int) -> list:
    """Ordered ``(name, tag, key)`` layout of the epoch kernel's env
    tuple: external input streams, produced-edge seed lists, then
    per-node constant tables and live accumulator state."""
    scc = graph.sccs[s]
    produced = set(scc_produced(graph, s))
    ext = sorted({j for i in scc for j in graph.nodes[i].in_edges
                  if j is not None and j not in produced})
    spec = [(f"v{j}", "ext", j) for j in ext]
    spec += [(f"v{j}", "seed", j) for j in sorted(produced)]
    for i in scc:
        k = graph.nodes[i].kind
        if k == "lut":
            spec.append((f"t{i}", "table", i))
        elif k == "acc":
            spec += [(f"acn{i}", "accn", i), (f"acs{i}", "accs", i)]
        elif k == "cacc":
            spec += [(f"acn{i}", "accn", i), (f"acr{i}", "caccr", i),
                     (f"aci{i}", "cacci", i)]
        elif k == "integ":
            spec.append((f"ig{i}", "integ", i))
        elif k == "cinteg":
            spec += [(f"igr{i}", "cintegr", i), (f"igi{i}", "cintegi", i)]
    return spec


def _run_epoch(graph: Graph, s: int, fn, edge_vals: list, limit: int,
               rt=None) -> list:
    """Drive one epoch-kernel call; returns its env (whose seed entries
    are the produced streams, grown in place by the kernel).

    With ``rt`` (a dict the caller keeps per session), the env and the
    kernel's cursor/counter state persist across calls: external input
    lists are extended with just the newly grown suffix (prefix-
    consistency of the value pass makes that sound) and the kernel
    resumes where it stopped.  Without ``rt`` each call replays from
    cycle zero (what :func:`late_streams` does on every sweep)."""
    spec = epoch_spec(graph, s)
    rec = rt.get(s) if rt is not None else None
    if rec is None:
        env = epoch_env(graph, s, edge_vals)
        st = None
    else:
        env, st = rec
        for idx, (_, tag, key) in enumerate(spec):
            if tag == "ext":
                lst = env[idx]
                new = edge_vals[key]
                if len(new) > len(lst):
                    lst.extend(new[len(lst):].tolist())
    st = fn(env, st, limit)
    if rt is not None:
        rt[s] = (env, st)
    return env


def epoch_env(graph: Graph, s: int, edge_vals: list) -> list:
    """Build the env tuple for one epoch-kernel call from the live
    state (mirrors what ``_node_streams`` reads for acyclic nodes)."""
    from repro.fixed import wrap

    env = []
    for _, tag, key in epoch_spec(graph, s):
        if tag == "ext":
            env.append(edge_vals[key].tolist())
        elif tag == "seed":
            e = graph.edges[key]
            vals = [int(x) for x in e.wire._q]
            n = graph.nodes[e.src]
            if n.kind == "reg":
                vals += [wrap(int(x), n.obj.bits) for x in n.obj._preload]
            elif n.kind == "fifo":
                vals += [int(x) for x in n.obj._q]
            env.append(vals)
        elif tag == "table":
            o = graph.nodes[key].obj
            env.append([wrap(int(x), o.bits) for x in o.table])
        elif tag == "accn":
            env.append(int(graph.nodes[key].obj._n))
        elif tag in ("accs", "integ"):
            env.append(int(graph.nodes[key].obj._sum))
        elif tag in ("caccr", "cintegr"):
            env.append(int(graph.nodes[key].obj._re))
        else:   # cacci / cintegi
            env.append(int(graph.nodes[key].obj._im))
    return env


def _swrap(x: str, bits: int) -> str:
    """Scalar two's-complement fold expression (matches _wrap/_vunpack)."""
    s = 1 << (bits - 1)
    m = (1 << bits) - 1
    return f"((({x}) + {s} & {m}) - {s})"


def _sshift(x: str, amount: int) -> str:
    if amount > 0:
        return f"(({x}) << {amount})"
    if amount < 0:
        return f"(({x}) >> {-amount})"
    return x


def _spack(re: str, im: str, hb: int) -> str:
    # mask-only pack: wrap-then-mask == mask (mod 2**hb arithmetic)
    m = (1 << hb) - 1
    return f"(((({re}) & {m}) << {hb}) | (({im}) & {m}))"


_BINSYM = {"ADD": "+", "SUB": "-", "MUL": "*", "AND": "&", "OR": "|",
           "XOR": "^", "CMPEQ": "==", "CMPNE": "!=", "CMPLT": "<",
           "CMPLE": "<=", "CMPGT": ">", "CMPGE": ">="}


def _epoch_emits(n, exprs) -> list:
    """Append lines pushing per-port result expressions to out edges."""
    lines = []
    for kp, js in enumerate(n.out_ports):
        if not js:
            continue
        if len(js) == 1:
            lines.append(f"a{js[0]}({exprs[kp]})")
        else:
            lines.append(f"r{kp} = {exprs[kp]}")
            lines += [f"a{j}(r{kp})" for j in js]
    return lines


def _epoch_inner(n, graph) -> list:
    """One-firing lines (fetch + compute + appends) for non-merge kinds."""
    i = n.i
    o = n.obj
    k = n.kind
    ins = [j for j in n.in_edges if j is not None]
    hb = getattr(o, "half_bits", 12)

    def fre(w):         # packed-word real part, folded
        return _swrap(f"{w} >> {hb}", hb)

    def fim(w):
        return _swrap(w, hb)

    fetch = [f"w{idx} = v{j}[q{j}]; q{j} += 1"
             for idx, j in enumerate(ins)]

    if k == "demux":
        e0, e1 = n.out_ports
        hi = [f"    a{j}(w1)" for j in e1] or ["    pass"]
        lo = [f"    a{j}(w1)" for j in e0] or ["    pass"]
        return fetch + ["if w0:"] + hi + ["else:"] + lo

    if k == "gate":
        outs = [f"    a{j}(w1)" for j in n.out_edges()]
        return fetch + (["if w0:"] + outs if outs else [])

    if k == "acc":
        dump = _swrap(_sshift(f"acs{i}", -o.shift), o.bits)
        body = fetch + [f"acs{i} += w0", f"acn{i} += 1",
                        f"if acn{i} >= {o.length}:"]
        body += ["    " + ln for ln in _epoch_emits(n, [dump])]
        return body + [f"    acn{i} = 0", f"    acs{i} = 0"]

    if k == "cacc":
        dump = _spack(_sshift(f"acr{i}", -o.shift),
                      _sshift(f"aci{i}", -o.shift), hb)
        body = fetch + [f"acr{i} += {fre('w0')}",
                        f"aci{i} += {fim('w0')}",
                        f"acn{i} += 1", f"if acn{i} >= {o.length}:"]
        body += ["    " + ln for ln in _epoch_emits(n, [dump])]
        return body + [f"    acn{i} = 0", f"    acr{i} = 0",
                       f"    aci{i} = 0"]

    if k == "integ":
        return (fetch + [f"ig{i} += w0"]
                + _epoch_emits(n, [_swrap(f"ig{i}", o.bits)]))

    if k == "cinteg":
        return (fetch + [f"igr{i} += {fre('w0')}",
                         f"igi{i} += {fim('w0')}"]
                + _epoch_emits(n, [_spack(f"igr{i}", f"igi{i}", hb)]))

    if k == "cmul":
        bi = fim("w1")
        if o.conj_b:
            bi = f"-{bi}"
        body = fetch + [f"ar = {fre('w0')}", f"ai = {fim('w0')}",
                        f"br = {fre('w1')}", f"bi = {bi}",
                        "x = ar * br - ai * bi", "y = ar * bi + ai * br"]
        if o.shift:
            if o.round_shift:
                half = 1 << (o.shift - 1)
                body += [f"x = (x + {half}) >> {o.shift}",
                         f"y = (y + {half}) >> {o.shift}"]
            else:
                body += [f"x >>= {o.shift}", f"y >>= {o.shift}"]
        return body + _epoch_emits(n, [_spack("x", "y", hb)])

    if k in ("cadd", "csub"):
        op = "+" if k == "cadd" else "-"
        xe = _sshift("({} {} {})".format(fre("w0"), op, fre("w1")),
                     -o.shift)
        ye = _sshift("({} {} {})".format(fim("w0"), op, fim("w1")),
                     -o.shift)
        return (fetch + [f"x = {xe}", f"y = {ye}"]
                + _epoch_emits(n, [_spack("x", "y", hb)]))

    # single-expression kinds
    if k == "probe":
        exprs = ["w0"]
    elif k in ("fifo", "reg"):
        exprs = [_swrap("w0", o.bits)]
    elif k == "binary":
        b = "w1" if n.in_edges[1] is not None else f"({o.const})"
        op = o.OPCODE
        if op.startswith("CMP"):
            r = f"(1 if w0 {_BINSYM[op]} {b} else 0)"
        elif op in ("MIN", "MAX"):
            r = f"{op.lower()}(w0, {b})"
        elif op == "SHL":
            r = f"(w0 << {o.const})"
        elif op == "SHR":
            r = f"(w0 >> {o.const})"
        else:
            r = f"(w0 {_BINSYM[op]} {b})"
        exprs = [_swrap(_sshift(r, -o.shift), o.bits)]
    elif k == "unary":
        r = {"NEG": "(-w0)", "NOT": "(~w0)",
             "ABS": "abs(w0)", "PASS": "w0"}[o.OPCODE]
        exprs = [_swrap(r, o.bits)]
    elif k == "shiftalu":
        exprs = [_swrap(_sshift("w0", o.amount), o.bits)]
    elif k == "lut":
        exprs = [f"t{i}[w0 % {len(o.table)}]"]
    elif k == "cconj":
        exprs = [_spack(fre("w0"), f"-{fim('w0')}", hb)]
    elif k == "cneg":
        exprs = [_spack(f"-{fre('w0')}", f"-{fim('w0')}", hb)]
    elif k == "cmulj":
        if o.sign > 0:
            exprs = [_spack(f"-{fim('w0')}", fre("w0"), hb)]
        else:
            exprs = [_spack(fim("w0"), f"-{fre('w0')}", hb)]
    elif k == "cshift":
        exprs = [_spack(_sshift(fre("w0"), o.amount),
                        _sshift(fim("w0"), o.amount), hb)]
    elif k == "pack":
        exprs = [_spack("w0", "w1", o.half_bits)]
    elif k == "unpack":
        exprs = [_swrap(f"w0 >> {o.half_bits}", o.half_bits),
                 _swrap("w0", o.half_bits)]
    elif k == "mux":
        exprs = ["(w2 if w0 else w1)"]
    elif k == "swap":
        exprs = ["(w2 if w0 else w1)", "(w1 if w0 else w2)"]
    else:   # generators/sinks have no in-edges, so never sit in an SCC
        raise AssertionError(f"kind {k!r} cannot appear in a feedback "
                             "component")                 # unreachable
    return fetch + _epoch_emits(n, exprs)


def _epoch_node(n, graph, ext) -> list:
    """Drain block for one SCC member.  ``ext`` is the set of external
    input edges, whose lengths are hoisted into ``n{j}`` locals (they
    cannot grow during one kernel call)."""
    i = n.i
    ins = [j for j in n.in_edges if j is not None]

    def vlen(j):
        return f"n{j}" if j in ext else f"len(v{j})"

    if n.kind == "merge":
        # variable consumption: the select token is only consumed once
        # the selected branch has a token, so drain stays a while-loop
        s, a, b = n.in_edges
        body = [f"if v{s}[q{s}]:",
                f"    if q{b} >= {vlen(b)}:",
                "        break",
                f"    x = v{b}[q{b}]; q{b} += 1",
                "else:",
                f"    if q{a} >= {vlen(a)}:",
                "        break",
                f"    x = v{a}[q{a}]; q{a} += 1",
                f"q{s} += 1"]
        body += _epoch_emits(n, ["x"])
        body += [f"f{i} += 1", "prog = 1"]
        return ([f"while f{i} < limit and q{s} < {vlen(s)}:"]
                + ["    " + ln for ln in body])

    inner = _epoch_inner(n, graph)
    if set(ins) & set(n.out_edges()):
        # self-loop: draining grows this node's own input, so the
        # availability check must stay inside the loop
        head = (f"while f{i} < limit"
                + "".join(f" and q{j} < {vlen(j)}" for j in ins) + ":")
        return ([head] + ["    " + ln for ln in inner]
                + [f"    f{i} += 1", "    prog = 1"])

    # bounded drain: firings available this pass are known up front, so
    # the hot loop iterates input slices directly and re-checks nothing
    nfetch = len(ins)
    inner = inner[nfetch:]      # fetches move into the for-header
    lines = [f"k = limit - f{i}"]
    for j in ins:
        avail = f"{vlen(j)} - q{j}"
        lines.append(f"if k > {avail}: k = {avail}")
    lines.append("if k > 0:")
    ws = ", ".join(f"w{x}" for x in range(nfetch))
    slices = [f"v{j}[q{j}:q{j} + k]" for j in ins]
    src = slices[0] if nfetch == 1 else "zip(" + ", ".join(slices) + ")"
    lines.append(f"    for {ws} in {src}:")
    lines += ["        " + ln for ln in inner]
    lines += [f"    q{j} += k" for j in ins]
    lines.append(f"    f{i} += k")
    lines.append("    prog = 1")
    return lines


def emit_epoch(graph: Graph, s: int) -> str:
    """Source of the specialized ``_epoch(env, st, limit)`` kernel for
    SCC ``s``.  ``st`` is the opaque resume state (cursors, firing
    counters, accumulator partials) returned by the previous call, or
    None to start from the session snapshot in ``env``."""
    scc = graph.sccs[s]         # already in member (firing) order
    spec = epoch_spec(graph, s)
    produced = scc_produced(graph, s)
    consumed = sorted({j for i in scc for j in graph.nodes[i].in_edges
                       if j is not None})
    ext = {key for _, tag, key in spec if tag == "ext"}
    state = ([f"q{j}" for j in consumed] + [f"f{i}" for i in scc]
             + [nm for nm, tag, _ in spec
                if tag not in ("ext", "seed", "table")])
    names = ", ".join(nm for nm, _, _ in spec)
    lines = ["def _epoch(env, st, limit):"]
    lines.append(f"    ({names},) = env")
    for j in produced:
        lines.append(f"    a{j} = v{j}.append")
    for j in sorted(ext):
        lines.append(f"    n{j} = len(v{j})")
    lines.append("    if st is None:")
    for nm in state:
        if nm[0] in "qf":       # accumulator partials come in via env
            lines.append(f"        {nm} = 0")
    lines.append("    else:")
    lines.append(f"        ({', '.join(state)},) = st")
    lines.append("    while 1:")
    lines.append("        prog = 0")
    for i in scc:
        for ln in _epoch_node(graph.nodes[i], graph, ext):
            lines.append("        " + ln)
    lines.append("        if not prog:")
    lines.append("            break")
    lines.append(f"    return ({', '.join(state)},)")
    return "\n".join(lines) + "\n"


def compile_epoch(graph: Graph, s: int):
    """exec() the generated epoch kernel; returns the ``_epoch`` callable."""
    ns = {}
    exec(compile(emit_epoch(graph, s), "<fastpath-epoch>", "exec"), ns)
    return ns["_epoch"]


# ---------------------------------------------------------------------------
# count pass: generated trace kernel
# ---------------------------------------------------------------------------


def state_spec(graph: Graph) -> list:
    """Canonical ``(tag, index)`` layout of the count-state tuple."""
    spec = [("cyc", -1)]
    spec += [("o", e.j) for e in graph.edges]
    spec += [("p", e.j) for e in graph.edges]
    spec += [("f", n.i) for n in graph.nodes]
    for n in graph.nodes:
        if n.kind in GENERATORS:
            spec.append(("g", n.i))
        elif n.kind in ("acc", "cacc"):
            spec.append(("an", n.i))
        elif n.kind == "reg":
            spec.append(("pre", n.i))
        elif n.kind == "fifo":
            spec += [("fl", n.i), ("fin", n.i), ("fout", n.i)]
    return spec


def _name(tag, idx):
    return "cyc" if tag == "cyc" else f"{tag}{idx}"


def _chk(edge_idxs, graph):
    """Space-check expression over a set of out edges ('True' if none)."""
    terms = [f"o{j} < {graph.edges[j].cap}" for j in edge_idxs]
    return " and ".join(terms) if terms else "True"


def _plan_line(n, graph):
    i = n.i
    ins = [j for j in n.in_edges if j is not None]
    outs = n.out_edges()
    k = n.kind
    if k == "demux":
        s, a = n.in_edges
        e0 = _chk(n.out_ports[0], graph)
        e1 = _chk(n.out_ports[1], graph)
        return [f"b{i} = o{s} > 0 and o{a} > 0 and "
                f"(({e1}) if sv{s}[p{s}] else ({e0}))"]
    if k == "merge":
        s, a, b = n.in_edges
        return [f"b{i} = o{s} > 0 and ({_chk(outs, graph)}) and "
                f"((o{b} > 0) if sv{s}[p{s}] else (o{a} > 0))"]
    if k == "gate":
        c, a = n.in_edges
        return [f"b{i} = o{c} > 0 and o{a} > 0 and "
                f"(({_chk(outs, graph)}) if sv{c}[p{c}] else True)"]
    if k in ("acc", "cacc"):
        x = n.in_edges[0]
        return [f"b{i} = o{x} > 0 and (True if an{i} + 1 < "
                f"{n.obj.length} else ({_chk(outs, graph)}))"]
    if k == "reg":
        x = n.in_edges[0]
        chk = _chk(outs, graph)
        return [f"b{i} = ({chk}) if pre{i} > 0 else "
                f"(o{x} > 0 and ({chk}))"]
    if k == "ram":
        ra, wa, wd = n.in_edges
        rd = (f"o{ra} > 0 and ({_chk(outs, graph)})" if ra is not None
              else "False")
        wr = (f"o{wa} > 0 and o{wd} > 0" if wa is not None
              and wd is not None else "False")
        return [f"dr{i} = {rd}", f"dw{i} = {wr}", f"b{i} = dr{i} or dw{i}"]
    if k == "fifo":
        x = n.in_edges[0]
        lines = []
        if x is not None:
            lines.append(f"di{i} = o{x} > 0 and fl{i} < {n.obj.depth}")
        else:
            lines.append(f"di{i} = False")
        if outs:
            lines.append(f"do{i} = fl{i} > 0 and ({_chk(outs, graph)})")
        else:
            lines.append(f"do{i} = False")
        lines.append(f"b{i} = di{i} or do{i}")
        return lines
    # default firing rule (sources, sinks, probes, plain compute nodes)
    terms = [f"o{j} > 0" for j in ins] + \
            [f"o{j} < {graph.edges[j].cap}" for j in outs]
    if k in GENERATORS:
        terms.append(f"g{i} > 0")
    return [f"b{i} = " + (" and ".join(terms) if terms else "True")]


def _commit_block(n, graph):
    i = n.i
    k = n.kind
    body = []
    pops = [j for j in n.in_edges if j is not None]
    outs = n.out_edges()

    def pop(j):
        body.append(f"o{j} -= 1")
        body.append(f"p{j} += 1")

    def push(js, indent=""):
        for j in js:
            body.append(f"{indent}o{j} += 1")

    if k == "demux":
        s, a = n.in_edges
        e0, e1 = n.out_ports
        if e0 and e1:
            body.append(f"if sv{s}[p{s}]:")
            push(e1, "    ")
            body.append("else:")
            push(e0, "    ")
        elif e1:
            body.append(f"if sv{s}[p{s}]:")
            push(e1, "    ")
        elif e0:
            body.append(f"if not sv{s}[p{s}]:")
            push(e0, "    ")
        pop(s)
        pop(a)
    elif k == "merge":
        s, a, b = n.in_edges
        body.append(f"if sv{s}[p{s}]:")
        body.append(f"    o{b} -= 1")
        body.append(f"    p{b} += 1")
        body.append("else:")
        body.append(f"    o{a} -= 1")
        body.append(f"    p{a} += 1")
        pop(s)
        push(outs)
    elif k == "gate":
        c, a = n.in_edges
        if outs:
            body.append(f"if sv{c}[p{c}]:")
            push(outs, "    ")
        pop(c)
        pop(a)
    elif k in ("acc", "cacc"):
        pop(n.in_edges[0])
        body.append(f"an{i} += 1")
        body.append(f"if an{i} >= {n.obj.length}:")
        body.append(f"    an{i} = 0")
        push(outs, "    ")
    elif k == "reg":
        x = n.in_edges[0]
        body.append(f"if pre{i} > 0:")
        body.append(f"    pre{i} -= 1")
        body.append("else:")
        body.append(f"    o{x} -= 1")
        body.append(f"    p{x} += 1")
        push(outs)
    elif k == "fifo":
        x = n.in_edges[0]
        if outs:
            body.append(f"if do{i}:")
            body.append(f"    fout{i} += 1")
            if not n.obj.circular:
                body.append(f"    fl{i} -= 1")
            push(outs, "    ")
        if x is not None:
            body.append(f"if di{i}:")
            body.append(f"    o{x} -= 1")
            body.append(f"    p{x} += 1")
            body.append(f"    fin{i} += 1")
            body.append(f"    fl{i} += 1")
    elif k == "ram":
        ra, wa, wd = n.in_edges
        writable = wa is not None and wd is not None
        if ra is not None:
            # stamp the read with the writes committed in earlier
            # cycles (this cycle's write commits below it)
            body += [f"if dr{i}:", f"    o{ra} -= 1", f"    p{ra} += 1",
                     f"    _rs{i}({f'p{wa}' if writable else 0})"]
            push(outs, "    ")
        if writable:
            body += [f"if dw{i}:", f"    o{wa} -= 1", f"    p{wa} += 1",
                     f"    o{wd} -= 1", f"    p{wd} += 1"]
    else:
        for j in pops:
            pop(j)
        push(outs)
        if k in GENERATORS:
            body.append(f"g{i} -= 1")

    body.append(f"m += {1 << i}")
    body.append(f"f{i} += 1")
    return [f"if b{i}:"] + ["    " + ln for ln in body]


def emit_trace(graph: Graph) -> str:
    """Source of the specialized ``_trace`` kernel for this graph."""
    names = [_name(t, x) for t, x in state_spec(graph)]
    unpack = ", ".join(names)
    fnames = ", ".join(f"f{n.i}" for n in graph.nodes)
    lines = ["def _trace(state, sv, masks, fchk, schk, limit):"]
    lines.append(f"    ({unpack}) = state")
    for j in graph.select_edges():
        lines.append(f"    sv{j} = sv[{j}]")
    for n in graph.nodes:
        if n.kind == "ram" and n.in_edges[0] is not None:
            lines.append(f"    _rs{n.i} = sv[{n.in_edges[0]}].append")
    lines.append("    _ma = masks.append")
    lines.append("    _fa = fchk.append")
    lines.append("    _sa = schk.append")
    lines.append("    while cyc < limit:")
    for i in graph.topo:
        for ln in _plan_line(graph.nodes[i], graph):
            lines.append("        " + ln)
    lines.append("        m = 0")
    for i in graph.topo:
        for ln in _commit_block(graph.nodes[i], graph):
            lines.append("        " + ln)
    lines.append("        _ma(m)")
    lines.append("        cyc += 1")
    lines.append(f"        if not cyc & {FIRES_CHECK - 1}:")
    lines.append(f"            _fa(({fnames},))")
    lines.append(f"            if not cyc & {STATE_CHECK - 1}:")
    lines.append(f"                _sa(({unpack}))")
    lines.append("        if not m:")
    lines.append(f"            return 1, ({unpack})")
    lines.append(f"    return 0, ({unpack})")
    return "\n".join(lines) + "\n"


def compile_trace(graph: Graph):
    """exec() the generated kernel; returns the ``_trace`` callable."""
    ns = {}
    exec(compile(emit_trace(graph), "<fastpath-trace>", "exec"), ns)
    return ns["_trace"]
