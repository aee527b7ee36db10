"""Lowering: the generated value pass, epoch kernels and trace kernel.

Three cooperating lowerings turn a captured :class:`~repro.fastpath.ir.
Graph` into code that executes whole runs per call:

* **Value pass** — under the two-phase handshake protocol the *sequence*
  of tokens crossing each edge is timing-independent (the netlists are
  Kahn process networks), so per-edge token values can be computed ahead
  of time.  :func:`emit_values` generates one straight-line NumPy
  function per netlist that does so in one topological sweep, with the
  same wrap/shift/pack arithmetic as each node's ``compute``.

* **Count pass** — *when* tokens move still depends on backpressure, so
  firing schedules are produced by a generated straight-line Python
  trace kernel: one int local per edge occupancy/pop-counter and per
  node phase variable, one plan boolean per node per cycle, and a
  per-cycle firing bitmask appended to a trace.  Checkpoints of firing
  counts (every 256 cycles) and of the full count state (every 2048)
  keep replay and state write-back O(1)-ish.  A zero mask is absorbing
  (no state changed, so no plan can change) and ends the trace.

* **Epoch kernels** — the count pass is cycle-safe (every plan boolean
  is computed before any commit and each edge has exactly one consumer,
  so node order is irrelevant), but the value pass needs producers
  before consumers.  Each strongly-connected component is therefore
  lowered by a generated time-stepped scalar fixpoint loop
  (:func:`emit_epoch`) over just the component's nodes, which consumes
  the surrounding streams as plain lists and grows every edge the
  component produces until the cycle-carried state stops advancing or
  the window ``limit`` is reached.  Values stay exact (Python ints with
  the same folds, applied per token), deterministic and
  prefix-consistent, so ``TraceSession._grow_values`` regrowth works
  unchanged.  A component that is an *additive ring* (the despreader's
  integrate-and-dump loop, :func:`ring_of`) gets no epoch kernel: the
  value pass computes its streams in closed form (:func:`_ring`).

Data-dependent routing (DEMUX/MERGE/GATE) is the one place values feed
back into scheduling; those select streams are handed to the trace
kernel as plain Python lists indexed by the select edge's pop counter.

RAM-PAEs run the other way round: timing never depends on memory
contents, but a read's value depends on which writes committed before
it.  The trace kernel stamps every read with the number of writes
committed in earlier cycles (appended to a list handed in where the
read-address edge's select slot would be), and the value pass's late
sweep computes the RAM's read values — and everything downstream of
them — after the trace: read ``k`` returns the
session's memory image with the first ``stamps[k]`` writes applied.

Everything here depends on the structure alone and is built once per
netlist shape into a :class:`repro.fastpath.cache.Netlist`.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from repro.fastpath.ir import GENERATORS, Graph
from repro.fixed import wrap

#: stand-in for an unbounded generator budget (avoids None checks in
#: the generated kernel's hot loop)
INF = 1 << 62

#: trace checkpoint strides (powers of two; the kernel uses bit masks)
FIRES_CHECK = 256
STATE_CHECK = 2048

# ---------------------------------------------------------------------------
# value pass: one generated NumPy function per netlist
# ---------------------------------------------------------------------------
#
# :func:`emit_values` lowers every acyclic node to a few lines of
# whole-stream int64 arithmetic, in schedule order, with its opcode,
# shifts, widths and masks baked in as literals.  Three functions come
# out per netlist: ``_plan`` computes the data plan's streams, ``_values``
# every other stream the trace reads, and ``_late`` one sweep over the
# RAM reads and the nodes they feed.  Live state (stream data, FIFO and
# RAM contents, registers, queued tokens) is read at call time, so one
# compiled pass serves every session of the shape.
#
# A packed complex stream travels between complex ALUs, and through the
# DEMUX/MERGE/GATE/MUX/SWAP between them, as two lane arrays folded to
# the half width; it is packed only where a consumer reads words.  That
# is exact: ``unpack(pack(re, im)) == (wrap(re), wrap(im))``.  A fold is
# dropped only where the structure proves it idle, never from data:
#
# * a lane passed through unchanged, a right shift of a folded lane, and
#   a sum or difference of two folded lanes shifted right by at least one
#   (the sum of two ``hb``-bit words has ``hb + 1`` bits) are folded;
# * a word of at most ``w`` bits needs no fold to ``w`` or wider, and its
#   high lane ``word >> hb`` none when ``w <= 2 * hb``.  Every kind folds
#   the words it emits to its ``bits`` (an UNPACK to its half width, a
#   routing node passes its inputs' tokens), except the packed complex
#   words, which are masked to ``2 * hb`` bits and so unsigned.

#: the complex ALUs: one firing maps operand lanes to result lanes
_CALU = frozenset({"cadd", "csub", "cmul", "cconj", "cneg", "cmulj",
                   "cshift"})

#: kinds whose output is a packed complex stream
LANE_KINDS = _CALU | {"pack", "cacc", "cinteg"}

#: kinds that read their input as complex lanes
_LANE_IN = (LANE_KINDS - {"pack"}) | {"unpack"}

#: routing kinds -> their data input ports (tokens pass unchanged)
_ROUTES = {"demux": (1,), "gate": (1,), "merge": (1, 2), "mux": (1, 2),
           "swap": (1, 2), "probe": (0,)}


def _wrap(v, bits):
    """Vectorized two's-complement fold (int64-native, branch-free: the
    xor flips the sign bit, so subtracting it sign-extends)."""
    sign = np.int64(1 << (bits - 1))
    return ((v & np.int64((1 << bits) - 1)) ^ sign) - sign


def _vunpack(w, hb):
    return _wrap(w >> hb, hb), _wrap(w, hb)


def _vpack(re, im, hb):
    # mask-only pack: wrap-then-mask == mask (mod 2**hb arithmetic)
    mask = np.int64((1 << hb) - 1)
    return ((re & mask) << hb) | (im & mask)


_E = np.zeros(0, dtype=np.int64)


def _arr(seq):
    return np.array(list(seq), dtype=np.int64) if len(seq) else _E.copy()


def budget(kind: str, o) -> int:
    """Remaining firings a generator of ``kind`` can make, from its
    live state."""
    if kind == "source":
        return len(o._data) - o._pos
    if kind == "const":
        return INF if o.count is None else max(o.count - o._emitted, 0)
    if kind == "seq":
        return INF if o.circular else max(len(o.values) - o._pos, 0)
    if kind == "counter":
        if o._stopped:
            return 0
        left = INF if o.count is None else max(o.count - o._emitted, 0)
        if o.limit is not None and o.mode == "stop":
            rem = -(-(o.limit - o._value) // o.step)    # ceil division
            left = min(left, max(rem, 0))
        return left
    return INF


def _generate(kind: str, o, limit: int) -> list:
    """Port streams of a counter, const or seq from its live phase."""
    if kind == "seq":
        vals = _arr(o.values)
        if o.circular:
            vals = vals[(o._pos + np.arange(limit)) % len(vals)]
        else:
            vals = vals[o._pos:o._pos + limit]
        return [_wrap(vals, o.bits)]
    n = min(limit, budget(kind, o))
    if kind == "const":
        return [np.full(n, wrap(o.value, o.bits), dtype=np.int64)]
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
    return [_wrap(vals, o.bits), wev]


def select_split(sel) -> tuple:
    """``(i0, i1)``: positions of the false and the true tokens of a
    select stream.  A DEMUX, MERGE or GATE routes by these index
    tables alone, and the tables of a longer stream serve every prefix
    of it (the routing below only reads positions before its own
    firing count)."""
    true = sel != 0
    return np.flatnonzero(~true), np.flatnonzero(true)


def _merge_at(ia, ib, n: int, na: int, nb: int) -> tuple:
    """``(n, xa, xb)`` of a MERGE over ``n`` select tokens split into
    ``(ia, ib)``, fed ``na`` and ``nb`` tokens: its firings, cut at the
    first whose selected branch has run dry, and where they place each
    branch's tokens."""
    if na < len(ia):
        n = min(n, int(ia[na]))
    if nb < len(ib):
        n = min(n, int(ib[nb]))
    ka = int(np.searchsorted(ia, n))
    return n, ia[:ka], ib[:n - ka]


def _mix(n: int, xa, a, xb, b, B=None):
    """A MERGE's output: ``a``'s tokens at ``xa``, ``b``'s at ``xb``;
    ``(n, B)`` when its inputs carry ``B`` members."""
    out = np.empty(n if B is None else (n, B), dtype=np.int64)
    out[xa] = a[:len(xa)]
    out[xb] = b[:len(xb)]
    return out


def _lcat(head, x):
    """Shared tokens ``head`` ahead of a member stream ``x``."""
    return np.concatenate((np.broadcast_to(head[:, None],
                                           (len(head), x.shape[1])), x))


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


def _qw(q, p, limit: int):
    """An edge's words: the tokens queued on its wire ``q``, then its
    producer's port stream ``p`` cut to ``limit`` productions."""
    p = p[:limit]
    return np.concatenate((_arr(q), p)) if q else p


def _ql(q, re, im, hb: int, limit: int) -> tuple:
    """An edge's lanes, as :func:`_qw`, and their half width."""
    re, im = re[:limit], im[:limit]
    if q:
        qr, qi = _vunpack(_arr(q), hb)
        re, im = np.concatenate((qr, re)), np.concatenate((qi, im))
    return re, im, hb


def _tile(q, limit: int):
    """A circular FIFO's output: its contents, over and over."""
    snap = _arr(q)
    if not len(snap):
        return snap
    return np.tile(snap, -(-limit // len(snap)))[:limit]


def _ram_read(o, raddr, stamps, waddr, wdata, waddr_exact, wdata_exact,
              mem=None):
    """``(values, exact)`` of a RAM's traced reads.

    Read ``k`` returns the memory image at session open with the first
    ``stamps[k]`` writes applied, at address ``raddr[k] % words`` (a
    write in the read's own cycle is not among them: read-before-write).
    Write streams still None (late, not swept yet) make the result
    provisional, and so do late ones (``*_exact`` False): ``exact`` is
    False when the result leaned on one.  ``mem`` is the members' images
    at session open, ``(words, B)``, when the RAM holds one per member:
    the values are then ``(n, B)``.
    """
    n = len(stamps)
    addr = raddr[:n] % o.words
    vals = (_arr(o._mem) if mem is None else mem)[addr]
    w = stamps[-1] if n else 0          # stamps never decrease
    if not w:
        return vals, True
    if waddr is None:
        return vals, False
    # last write to each read's address before its stamp: sort writes
    # by (address, index) and search for (address, stamp)
    key = (waddr[:w] % o.words) * (w + 1) + np.arange(w, dtype=np.int64)
    order = np.argsort(key)
    key = key[order]
    pos = np.searchsorted(key, addr * (w + 1) + _arr(stamps)) - 1
    at = np.maximum(pos, 0)
    hit = (pos >= 0) & (key[at] // (w + 1) == addr)
    if not hit.any():
        return vals, waddr_exact
    if wdata is None:
        return vals, False
    wvals = _wrap(wdata[:w][order], o.bits)[at]
    if vals.ndim > 1:
        hit = hit[:, None]
        if wvals.ndim == 1:
            wvals = wvals[:, None]
    return np.where(hit, wvals, vals), waddr_exact and wdata_exact


def _scc(graph: Graph, s: int, fn, vals: list, limit: int, rt) -> None:
    """Grow SCC ``s``'s produced streams into ``vals`` with its epoch
    kernel ``fn`` (``rt``: see :func:`_run_epoch`)."""
    env = _run_epoch(graph, s, fn, vals, limit, rt)
    for idx, (_, tag, key) in enumerate(epoch_spec(graph, s)):
        if tag == "seed":
            vals[key] = _arr(env[idx])


class PlanView(NamedTuple):
    """A data plan's streams, cut to one value-pass window."""

    streams: list       # per edge: read-only stream, or None
    splits: dict        # select edge -> read-only select_split tables
    lists: dict         # select edge -> token list (trace side stream)


# -- the emitter ---------------------------------------------------------------


def _fold(x: str, bits: int, width) -> str:
    """``x`` folded to ``bits``, or ``x`` itself when it is a word of at
    most ``width`` bits (None: unknown), which the fold leaves alone."""
    return x if width is not None and width <= bits else _swrap(x, bits)


def _binexpr(op: str, a: str, b: str, vector: bool) -> str:
    if op.startswith("CMP"):
        cmp = f"{a} {_BINSYM[op]} {b}"
        return f"({cmp}).astype(_i64)" if vector else f"(1 if {cmp} else 0)"
    if op in ("MIN", "MAX"):
        fn = f"_np.{op.lower()}imum" if vector else op.lower()
        return f"{fn}({a}, {b})"
    return f"({a} {_BINSYM[op]} {b})"


def _unexpr(op: str, a: str) -> str:
    return {"NEG": f"(-{a})", "NOT": f"(~{a})", "ABS": f"abs({a})",
            "PASS": a}[op]


def _lane_exprs(n, a, b=None) -> list:
    """``[(re, folded), (im, folded)]``: the result lanes of one complex
    ALU over folded operand lanes ``a`` (and ``b``), as expressions over
    their names, and whether each is already folded (see the rules at
    the top of this section)."""
    o, k = n.obj, n.kind
    ar, ai = a
    if k in ("cadd", "csub"):
        (br, bi), op = b, "+" if k == "cadd" else "-"
        return [(_sshift(f"({x} {op} {y})", -o.shift), o.shift >= 1)
                for x, y in ((ar, br), (ai, bi))]
    if k == "cmul":
        br, bi = b
        if o.conj_b:
            out = [f"({ar} * {br} + {ai} * {bi})",
                   f"({ai} * {br} - {ar} * {bi})"]
        else:
            out = [f"({ar} * {br} - {ai} * {bi})",
                   f"({ar} * {bi} + {ai} * {br})"]
        s = o.shift
        half = 1 << (s - 1) if s and o.round_shift else 0
        if half:
            out = [f"(({x} + {half}) >> {s})" for x in out]
        elif s:
            out = [f"({x} >> {s})" for x in out]
        return [(x, False) for x in out]
    if k == "cconj":
        return [(ar, True), (f"(-{ai})", False)]
    if k == "cneg":
        return [(f"(-{ar})", False), (f"(-{ai})", False)]
    if k == "cmulj":
        if o.sign > 0:
            return [(f"(-{ai})", False), (ar, True)]
        return [(ai, True), (f"(-{ar})", False)]
    return [(_sshift(x, o.amount), o.amount <= 0) for x in (ar, ai)]


def _forms(graph: Graph) -> tuple:
    """``(lane, width, emits)`` of the value pass: per edge the half
    width it carries lanes at (None: words) and the width its words are
    folded to (None: not known), per node the half width of the lanes it
    emits (None: words).  Feedback components run epoch kernels, which
    read and write words."""
    nodes, edges = graph.nodes, graph.edges
    cyclic = {i for scc in graph.sccs for i in scc}
    emits = [None] * len(nodes)
    width = [None] * len(edges)
    for i in graph.topo:
        n = nodes[i]
        o, k = n.obj, n.kind
        data = [n.in_edges[p] for p in _ROUTES.get(k, ())]
        if i not in cyclic and k in LANE_KINDS:
            emits[i] = o.half_bits
        elif i not in cyclic and data and k != "probe":
            hbs = {emits[edges[j].src] for j in data}
            emits[i] = hbs.pop() if len(hbs) == 1 else None
        if k == "sink":
            continue
        if data:
            ws = [width[j] for j in data]
            ports = [None if None in ws else max(ws)] * len(n.out_ports)
        elif k == "counter":
            ports = [o.bits, 2]
        elif k == "unpack":
            ports = [o.half_bits] * 2
        elif k in LANE_KINDS:
            ports = [None]
        else:
            ports = [o.bits] * len(n.out_ports)
        for js, port in zip(n.out_ports, ports):
            for j in js:
                width[j] = port
    lane = [None] * len(edges)
    for e in edges:
        hb, d = emits[e.src], nodes[e.dst]
        if hb is None or e.dst in cyclic:
            continue
        if d.kind in _LANE_IN and d.obj.half_bits == hb \
                or e.dst_port in _ROUTES.get(d.kind, ()) \
                and emits[e.dst] == hb:
            lane[e.j] = hb
    return lane, width, emits


class _Pass:
    """Emission state of one generated function: the graph's static
    forms, which streams are bound to locals so far and, in a batched
    late sweep, the RAMs holding one image per member and the edges
    whose streams carry a member axis (:func:`member_edges`)."""

    def __init__(self, graph: Graph, forms: tuple, held_selects: set,
                 member=frozenset(), rams=frozenset()):
        self.graph = graph
        self.lane, self.width, self.emits = forms
        self.held_selects = held_selects
        self.member = member
        self.rams = rams
        self.lines = []
        self.bound = set()

    def lifts(self, ins) -> list:
        """Per input edge of a node, ``", None"`` where a shared stream
        meets member streams (its slice ``[:n, None]`` broadcasts as
        ``(n, 1)``), else ``""``."""
        member = self.member
        if not any(j in member for j in ins):
            return [""] * len(ins)
        return ["" if j in member else ", None" for j in ins]

    def cat(self, j: int, head: str, x: str) -> str:
        """Tokens ``head`` ahead of edge ``j``'s stream ``x``."""
        if j in self.member:
            return f"_lcat({head}, {x})"
        return f"_np.concatenate(({head}, {x}))"

    def _bind(self, name: str, line: str) -> str:
        if name not in self.bound:
            self.bound.add(name)
            self.lines.append(line)
        return name

    def word(self, j: int) -> str:
        """Name of edge ``j``'s word stream."""
        return self._bind(f"e{j}", f"e{j} = V[{j}]")

    def lanes(self, j: int, hb: int) -> tuple:
        """Names of edge ``j``'s lanes at half width ``hb``, folded."""
        if self.lane[j] == hb:
            self._bind(f"r{j}", f"r{j}, i{j}, _ = L[{j}]")
            return f"r{j}", f"i{j}"
        w, wd = self.word(j), self.width[j]
        hi = _fold(f"({w} >> {hb})", hb, None if wd is None else wd - hb)
        return (self._bind(f"u{j}", f"u{j} = {hi}"),
                self._bind(f"v{j}", f"v{j} = {_fold(w, hb, wd)}"))

    def put(self, n, k: int, out: tuple) -> None:
        """Store output port ``k``'s stream, ``("w", words)`` or ``("l",
        re, im, hb)``, on each of its edges: after the tokens already
        queued on the wire, cut to ``limit`` productions, as lanes where
        the consumer reads lanes and as words elsewhere."""
        js = n.out_ports[k]
        if len(js) > 1:         # fan-out: compute the port stream once
            p = f"p{n.i}_{k}"
            if out[0] == "w":
                self.lines.append(f"{p} = {out[1]}")
                out = ("w", p)
            else:
                self.lines.append(f"{p}r, {p}i = {out[1]}, {out[2]}")
                out = ("l", f"{p}r", f"{p}i", out[3])
        for j in js:
            q = f"W[{j}]._q"
            if out[0] == "w":
                self.lines.append(f"e{j} = V[{j}] = _qw({q}, {out[1]}, limit)")
                self.bound.add(f"e{j}")
            elif self.lane[j] == out[3]:
                self.lines.append(f"r{j}, i{j}, _ = L[{j}] = _ql({q}, "
                                  f"{out[1]}, {out[2]}, {out[3]}, limit)")
                self.bound.add(f"r{j}")
            else:
                w = _spack(out[1], out[2], out[3])
                self.lines.append(f"e{j} = V[{j}] = _qw({q}, {w}, limit)")
                self.bound.add(f"e{j}")


def _vnode(P: _Pass, n) -> None:
    """Lines computing node ``n``'s output streams."""
    i, o, k, ins = n.i, n.obj, n.kind, n.in_edges
    emit, width = P.lines.append, P.width
    if k == "sink":
        return
    if k in ("const", "seq", "counter"):
        emit(f"g = _generate({k!r}, O[{i}], limit)")
        for kp in range(len(n.out_ports)):
            P.put(n, kp, ("w", f"g[{kp}]"))
    elif k == "source":
        emit(f"o = O[{i}]")
        P.put(n, 0, ("w", "_arr(o._data[o._pos:o._pos + limit])"))
    elif k == "ram":
        ra, wa, wd = ins
        if ra is None:              # no read port: nothing ever comes out
            P.put(n, 0, ("w", "_E"))
            return
        late = P.graph.late
        if wa is None or wd is None:
            writes = "None, None, True, True"
        else:
            ok = [P.graph.edges[j].src not in late for j in (wa, wd)]
            writes = f"V[{wa}], V[{wd}], {ok[0]}, {ok[1]}"
        if i in P.rams:         # the members' images, one column each
            writes += f", _np.array(O[{i}]._members, dtype=_i64).T"
        emit(f"x, ok = _ram_read(O[{i}], V[{ra}], sv[{ra}], {writes})")
        emit("exact = exact and ok")
        emit("reads.append(x)")
        P.put(n, 0, ("w", "x"))
    elif k == "probe":
        P.put(n, 0, ("w", P.word(ins[0])))
    elif k == "fifo":
        if o.circular:
            src = f"_tile(O[{i}]._q, limit)"
        elif ins[0] is None:
            src = f"_arr(O[{i}]._q)"
        else:
            x = _fold(P.word(ins[0]), o.bits, width[ins[0]])
            src = P.cat(ins[0], f"_arr(O[{i}]._q)", x)
        P.put(n, 0, ("w", src))
    elif k == "reg":
        x = _fold(P.word(ins[0]), o.bits, width[ins[0]])
        pre = _swrap(f"_arr(O[{i}]._preload)", o.bits)
        P.put(n, 0, ("w", P.cat(ins[0], pre, x)))
    elif k == "lut":
        tbl = _swrap(f"_arr(O[{i}].table)", o.bits)
        P.put(n, 0, ("w", f"{tbl}[{P.word(ins[0])} % {len(o.table)}]"))
    elif k in ("binary", "unary", "shiftalu"):
        a = P.word(ins[0])
        if k == "shiftalu":
            r = _sshift(a, o.amount)
        elif k == "unary":
            r = _unexpr(o.OPCODE, a)
        else:
            if ins[1] is None:
                b = f"({o.const})"
            else:
                b = P.word(ins[1])
                la, lb = P.lifts(ins)
                emit(f"n = min(len({a}), len({b}))")
                a, b = f"{a}[:n{la}]", f"{b}[:n{lb}]"
            r = _sshift(_binexpr(o.OPCODE, a, b, True), -o.shift)
        P.put(n, 0, ("w", _swrap(r, o.bits)))
    elif k == "pack":
        re, im = P.word(ins[0]), P.word(ins[1])
        lr, li = P.lifts(ins)
        emit(f"n = min(len({re}), len({im}))")
        P.put(n, 0, ("l", _fold(f"{re}[:n{lr}]", o.half_bits, width[ins[0]]),
                      _fold(f"{im}[:n{li}]", o.half_bits, width[ins[1]]),
                      o.half_bits))
    elif k == "unpack":
        re, im = P.lanes(ins[0], o.half_bits)
        P.put(n, 0, ("w", re))
        P.put(n, 1, ("w", im))
    elif k in ("acc", "integ", "cacc", "cinteg"):
        hb = o.half_bits if k[0] == "c" else None
        xs = P.lanes(ins[0], hb) if hb else (P.word(ins[0]),)
        regs = ("_re", "_im") if hb else ("_sum",)
        emit(f"o = O[{i}]")
        if k.endswith("acc"):
            sums = [_sshift(f"_acc_sums({x}, {o.length}, o._n, o.{reg})",
                            -o.shift) for x, reg in zip(xs, regs)]
        else:
            sums = [f"(o.{reg} + _np.cumsum({x}))" for x, reg in zip(xs, regs)]
        P.put(n, 0, ("l", _swrap(sums[0], hb), _swrap(sums[1], hb), hb)
              if hb else ("w", _swrap(sums[0], o.bits)))
    elif k in _CALU:
        hb = o.half_bits
        a, b = P.lanes(ins[0], hb), None
        if len(ins) == 2:
            b = P.lanes(ins[1], hb)
            la, lb = P.lifts(ins)
            emit(f"n = min(len({a[0]}), len({b[0]}))")
            emit(f"a0, a1, b0, b1 = {a[0]}[:n{la}], {a[1]}[:n{la}], "
                 f"{b[0]}[:n{lb}], {b[1]}[:n{lb}]")
            a, b = ("a0", "a1"), ("b0", "b1")
        (x, xf), (y, yf) = _lane_exprs(n, a, b)
        P.put(n, 0, ("l", x if xf else _swrap(x, hb),
                      y if yf else _swrap(y, hb), hb))
    else:
        _vroute(P, n)


def _vroute(P: _Pass, n) -> None:
    """Lines of a DEMUX, MERGE, GATE, MUX or SWAP: index tables of the
    select stream, applied to the data words or to both lanes."""
    ins, hb, emit = n.in_edges, P.emits[n.i], P.lines.append

    def data(j):
        return P.lanes(j, hb) if hb else (P.word(j),)

    def out(xs):
        return ("l", *xs, hb) if hb else ("w", xs[0])

    s = P.word(ins[0])
    # a select carries no members (member_edges); where data does, the
    # select's mask and a shared data stream are lifted to (n, 1)
    mixed = any(j in P.member for j in ins[1:])
    if n.kind in ("mux", "swap", "merge"):
        _, la, lb = P.lifts(ins)
    if n.kind in ("mux", "swap"):
        a, b = data(ins[1]), data(ins[2])
        emit(f"n = min(len({s}), len({a[0]}), len({b[0]}))")
        emit(f"m = {s}[:n{', None' if mixed else ''}] != 0")
        P.put(n, 0, out([f"_np.where(m, {y}[:n{lb}], {x}[:n{la}])"
                         for x, y in zip(a, b)]))
        if n.kind == "swap":
            P.put(n, 1, out([f"_np.where(m, {x}[:n{la}], {y}[:n{lb}])"
                             for x, y in zip(a, b)]))
        return
    emit(f"x0, x1 = S[{ins[0]}]" if ins[0] in P.held_selects
         else f"x0, x1 = _split({s})")
    if n.kind == "merge":
        a, b = data(ins[1]), data(ins[2])
        emit(f"n, xa, xb = _merge_at(x0, x1, len({s}), len({a[0]}), "
             f"len({b[0]}))")
        la, lb = (f"[:{lift}]" if lift else "" for lift in (la, lb))
        width = ", B" if mixed else ""
        P.put(n, 0, out([f"_mix(n, xa, {x}{la}, xb, {y}{lb}{width})"
                         for x, y in zip(a, b)]))
        return
    a = data(ins[1])
    emit(f"n = min(len({s}), len({a[0]}))")
    emit("k1 = int(_np.searchsorted(x1, n))")     # true selects before n
    emit("y1 = x1[:k1]")
    # rows of a member stream gather faster through take
    at = "{}.take({}, 0)" if mixed else "{}[{}]"
    if n.kind == "gate":
        P.put(n, 0, out([at.format(x, "y1") for x in a]))
        return
    emit("y0 = x0[:n - k1]")
    P.put(n, 0, out([at.format(x, "y0") for x in a]))
    P.put(n, 1, out([at.format(x, "y1") for x in a]))


def _passes(graph: Graph, held) -> tuple:
    """``(forms, held selects, plan units, early units, late units)`` of
    the value pass over a graph whose data plan holds ``held``."""
    held = set(held)
    selects = {j for j in graph.select_edges() if graph.edges[j].src in held}
    nodes = [u for u in graph.schedule if u[0] == "node" and u[1] in held]
    early = [u for u in graph.schedule
             if u not in nodes and not graph.is_late(u)]
    late = [u for u in graph.schedule if graph.is_late(u)]
    return _forms(graph), selects, nodes, early, late


def _emit(graph: Graph, forms: tuple, selects: set, head: str, units,
          lines: list, ret: str, member=frozenset(),
          rams=frozenset()) -> str:
    """Source of one generated function of the value pass."""
    P = _Pass(graph, forms, selects, member, rams)
    for tag, x in units:
        ring = ring_of(graph, x) if tag == "scc" else None
        if ring is not None:
            P.lines.append(f"_ring(graph, V, limit, {ring[0]!r}, "
                           f"{ring[1]!r})")
        elif tag == "scc":
            P.lines.append(f"_scc(graph, {x}, epochs[{x}], V, limit, rt)")
        else:
            _vnode(P, graph.nodes[x])
    body = lines + P.lines + [ret]
    return f"def {head}:\n" + "".join(f"    {ln}\n" for ln in body)


_LATE = ("_late(O, W, V, L, S, sv, limit, graph, epochs{})",
         ["exact = True", "reads = []", "rt = None"], "return exact, reads")


def emit_values(graph: Graph, held) -> str:
    """Source of the netlist's value pass: ``_plan(O, W, limit)`` over
    the data plan's nodes ``held``; ``_values(O, W, V, L, S, limit,
    graph, epochs, rt)`` over every other early unit; and ``_late(O, W,
    V, L, S, sv, limit, graph, epochs)``, one sweep over the late units
    returning ``(exact, reads)``.  ``O`` and ``W`` are the live objects
    and wires, ``V`` and ``L`` the per-edge word and lane streams
    (filled in place), ``S`` the plan's select tables."""
    forms, selects, nodes, early, late = _passes(graph, held)
    head, lines, ret = _LATE
    return "\n\n".join((
        _emit(graph, forms, selects, "_plan(O, W, limit)", nodes,
              [f"V = [None] * {len(graph.edges)}"], "return V"),
        _emit(graph, forms, selects,
              "_values(O, W, V, L, S, limit, graph, epochs, rt)", early, [],
              "return"),
        _emit(graph, forms, selects, head.format(""), late, lines, ret)))


def emit_late_batch(graph: Graph, held, rams, member) -> str:
    """Source of the late sweep of a session whose RAM-PAEs ``rams``
    (node indices) hold one image per member: ``_late(O, W, V, L, S, sv,
    limit, graph, epochs, B)`` over ``B`` members at once.  The streams
    of the ``member`` edges (:func:`member_edges`) are token-major,
    ``(n, B)``, so every slice, gather and ``len`` reads as in the solo
    sweep; a shared ``(n,)`` stream is lifted to ``(n, 1)`` where it
    meets them."""
    forms, selects, _, _, late = _passes(graph, held)
    head, lines, ret = _LATE
    return _emit(graph, forms, selects, head.format(", B"), late, lines,
                 ret, member, rams)


#: kinds whose value-pass lines carry a member axis on any data input
_MEMBER_KINDS = _CALU | {"binary", "unary", "shiftalu", "lut", "pack",
                         "unpack", "demux", "merge", "gate", "mux", "swap",
                         "probe", "sink", "fifo", "reg"}

#: kinds whose first input is a select
_SELECTORS = frozenset(_ROUTES) - {"probe"}


def member_edges(graph: Graph, rams) -> frozenset | None:
    """The edges whose values differ between members when the RAM-PAEs
    ``rams`` (node indices) hold one image per member: everything their
    read data reaches.  None when the members cannot share one session,
    which a function of the structure decides: member data reaches a
    select port (a DEMUX, MERGE, GATE, MUX or SWAP's first input), a RAM
    address, the write data of a RAM outside ``rams``, a feedback
    component or an accumulator."""
    nodes, edges = graph.nodes, graph.edges
    cyclic = {i for scc in graph.sccs for i in scc}
    member = set()
    stack = [j for i in rams for j in nodes[i].out_edges()]
    while stack:
        j = stack.pop()
        if j in member:
            continue
        member.add(j)
        e = edges[j]
        d = nodes[e.dst]
        if d.kind == "ram":
            if e.dst_port != 2 or e.dst not in rams:
                return None
            continue            # its reads are member data already
        if e.dst in cyclic or d.kind not in _MEMBER_KINDS \
                or e.dst_port == 0 and d.kind in _SELECTORS:
            return None
        stack.extend(d.out_edges())
    return frozenset(member)


def compile_kernel(src: str, *names: str) -> list:
    """exec() a generated source; returns its functions ``names``."""
    ns = {"_np": np, "_i64": np.int64, "_E": _E, "_arr": _arr,
          "_generate": _generate, "_split": select_split,
          "_merge_at": _merge_at, "_mix": _mix, "_lcat": _lcat,
          "_acc_sums": _acc_sums,
          "_qw": _qw, "_ql": _ql, "_tile": _tile,
          "_ram_read": _ram_read, "_scc": _scc, "_ring": _ring}
    exec(compile(src, "<fastpath>", "exec"), ns)
    return [ns[name] for name in names]


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
    order and the order ``_scc`` assigns results back)."""
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
    cycle zero (what each late sweep does)."""
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


def _seed(graph: Graph, j: int) -> list:
    """Edge ``j``'s tokens at session open: those queued on its wire,
    then a REG producer's preload (wrapped) or a FIFO producer's
    contents."""
    e = graph.edges[j]
    q = [int(x) for x in e.wire._q]
    n = graph.nodes[e.src]
    if n.kind == "reg":
        q += [wrap(int(x), n.obj.bits) for x in n.obj._preload]
    elif n.kind == "fifo":
        q += [int(x) for x in n.obj._q]
    return q


def epoch_env(graph: Graph, s: int, edge_vals: list) -> list:
    """Build the env tuple for one epoch-kernel call from the live
    state (what the value pass reads for acyclic nodes)."""
    env = []
    for _, tag, key in epoch_spec(graph, s):
        if tag == "ext":
            env.append(edge_vals[key].tolist())
        elif tag == "seed":
            env.append(_seed(graph, key))
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
           "XOR": "^", "SHL": "<<", "SHR": ">>", "CMPEQ": "==",
           "CMPNE": "!=", "CMPLT": "<", "CMPLE": "<=", "CMPGT": ">",
           "CMPGE": ">="}


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

    if k in _CALU:
        a, b = (fre("w0"), fim("w0")), (fre("w1"), fim("w1"))
        if k == "cmul":         # each lane is read twice: unpack once
            fetch += [f"ar = {a[0]}", f"ai = {a[1]}", f"br = {b[0]}",
                      f"bi = {b[1]}"]
            a, b = ("ar", "ai"), ("br", "bi")
        (x, _), (y, _) = _lane_exprs(n, a, b)
        return fetch + _epoch_emits(n, [_spack(x, y, hb)])

    # single-expression kinds
    if k == "probe":
        exprs = ["w0"]
    elif k in ("fifo", "reg"):
        exprs = [_swrap("w0", o.bits)]
    elif k == "binary":
        b = "w1" if n.in_edges[1] is not None else f"({o.const})"
        r = _binexpr(o.OPCODE, "w0", b, False)
        exprs = [_swrap(_sshift(r, -o.shift), o.bits)]
    elif k == "unary":
        exprs = [_swrap(_unexpr(o.OPCODE, "w0"), o.bits)]
    elif k == "shiftalu":
        exprs = [_swrap(_sshift("w0", o.amount), o.bits)]
    elif k == "lut":
        exprs = [f"t{i}[w0 % {len(o.table)}]"]
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


# ---------------------------------------------------------------------------
# additive rings: closed-form kernels for integrate-and-dump loops
# ---------------------------------------------------------------------------
#
# The despreader's accumulator is a loop ADD/CADD -> [DEMUX -> MERGE] ->
# FIFO -> ADD: each adder firing adds an outside token to the partial
# sum the FIFO hands back, the DEMUX dumps a finished sum out of the
# loop and the MERGE injects a fresh one in its place.  Such a component
# needs no per-token loop.  Every adder firing ``t`` computes ``x[t] +
# b[t]``, and its ring operand ``b[t]`` is either a *root* (a token
# queued on a loop edge or in the FIFO at session open, or one the
# MERGE takes from its alternate input) or the result of an earlier
# firing ``p(t) < t``.  Walking the loop backwards from the adder turns
# the select streams' prefix counts into that map, and into the one
# token each operand waits for, so how far the adder gets is the first
# operand that waits on a later firing or on a stage past its budget.
# Pointer jumping then sums each chain of firings back to its root in
# about log2(chain length) NumPy rounds.
#
# Sums run in int64 and wrap once at the end.  The two's-complement wrap
# is a ring homomorphism, so that is exact, but only while nothing on
# the way folds narrower than the adder: the FIFO folds every token to
# its width, hence the FIFO must be at least as wide as the adder's
# result (``2 * half_bits`` for a CADD, whose lanes then survive the
# fold).  DEMUX and MERGE pass tokens unchanged.  The streams are the
# epoch kernel's exactly, in values and lengths, for every ``limit``;
# each call recomputes them from the session snapshot.


def ring_of(graph: Graph, s: int):
    """``(adder, stages)`` if SCC ``s`` is an additive ring, else None.

    ``adder`` is ``(node, operand edge or None for its const, loop out
    edge)``; ``stages`` lists the loop's other members in loop order
    from the adder as ``(kind, node, loop out edge, select edge,
    alternate edge, keep)``, where a DEMUX keeps a token in the loop
    and a MERGE takes one from the loop when the select's truth equals
    ``keep``.  A function of the structure alone."""
    members = graph.sccs[s]
    nodes, edges = graph.nodes, graph.edges
    inside = set(members)
    into, out = {}, {}          # member -> its one loop in / out edge
    for e in edges:
        if e.src in inside and e.dst in inside:
            if e.dst in into or e.src in out:
                return None
            into[e.dst], out[e.src] = e, e
    adders = [i for i in members if nodes[i].kind == "cadd"
              or nodes[i].kind == "binary" and nodes[i].obj.OPCODE == "ADD"]
    if len(adders) != 1 or len(into) != len(members) \
            or len(out) != len(members):
        return None
    a = adders[0]
    add = nodes[a].obj
    kinds = sorted(nodes[i].kind for i in members if i != a)
    if add.shift or kinds not in (["fifo"], ["demux", "fifo"],
                                  ["fifo", "merge"],
                                  ["demux", "fifo", "merge"]):
        return None
    stages = []
    i = out[a].dst
    while i != a:
        n, e_in, e_out = nodes[i], into[i], out[i]
        if n.kind == "fifo":
            width = 2 * add.half_bits if nodes[a].kind == "cadd" \
                else add.bits
            if n.obj.circular or n.obj.bits < width:
                return None
            stages.append(("fifo", i, e_out.j, None, None, None))
        elif n.kind == "demux":
            if e_in.dst_port != 1:
                return None
            stages.append(("demux", i, e_out.j, n.in_edges[0], None,
                           e_out.src_port == 1))
        else:
            if e_in.dst_port == 0:
                return None
            stages.append(("merge", i, e_out.j, n.in_edges[0],
                           n.in_edges[3 - e_in.dst_port],
                           e_in.dst_port == 2))
        i = e_out.dst
    x = nodes[a].in_edges[1 - into[a].dst_port]
    return (a, x, out[a].j), tuple(stages)


def _at(a, m):
    """``a[m]`` where ``0 <= m < len(a)``; an element or 0 elsewhere."""
    if not len(a):
        return np.zeros(len(m), dtype=np.int64)
    return np.take(a, m, mode="clip")


def _ring_back(graph: Graph, j: int, pos, root, rv):
    """One step of the backward walk: positions ``pos`` on edge ``j``
    that fall on its seed become roots (the first root on each path is
    its value); the rest move to their producer's firing index."""
    q = _seed(graph, j)
    if not q:
        return pos
    new = (pos >= 0) & (pos < len(q)) & ~root
    rv[new] = _arr(q)[pos[new]]
    root |= new
    return np.where(pos >= len(q), pos - len(q), -1)


def _ring(graph: Graph, V: list, limit: int, adder: tuple,
          stages: tuple) -> None:
    """Grow the produced streams of the additive ring ``(adder,
    stages)`` (see :func:`ring_of`) into ``V`` in closed form."""
    nodes = graph.nodes
    a, xj, ej = adder
    o = nodes[a].obj
    hb = o.half_bits if nodes[a].kind == "cadd" else None
    x = np.full(limit, o.const, dtype=np.int64) if xj is None else V[xj]
    n = min(limit, len(x))
    # backward: for each firing t < n, the loop position its ring
    # operand waits for (-1: none), and whether the value is a root
    pos = np.arange(n, dtype=np.int64)
    ok = np.ones(n, dtype=bool)
    root = np.zeros(n, dtype=bool)
    rv = np.zeros(n, dtype=np.int64)
    for kind, _, oj, sj, aj, keep in reversed(stages):
        m = _ring_back(graph, oj, pos, root, rv)    # output index
        live = m >= 0
        if kind == "fifo":
            ok &= m < limit
            pos = m
        elif kind == "demux":
            idx = np.flatnonzero((V[sj][:limit] != 0) == keep)
            ok &= m < len(idx)
            pos = np.where(live, _at(idx, m), -1)
        else:
            take = (V[sj][:limit] != 0) != keep     # alternate tokens
            alts = np.cumsum(take)
            am = _at(alts, m)
            ok &= ~live | (m < len(take)) & (am <= len(V[aj]))
            new = live & ok & (_at(take, m) != 0) & ~root
            rv[new] = V[aj][am[new] - 1]
            root |= new
            pos = np.where(live, m - am, -1)
    dep = _ring_back(graph, ej, pos, root, rv)      # firing waited on
    stuck = np.flatnonzero(~ok | (dep >= np.arange(n)))
    if len(stuck):
        n = int(stuck[0])
    # values: sum each chain of firings back to its root (``rv`` is 0
    # off the roots).  A CADD's lanes are summed unfolded: the final
    # pack keeps each lane modulo ``2 ** hb``, as the folds would
    ptr = np.append(np.where(root[:n], n, dep[:n]), n)
    v = np.zeros((2 if hb else 1, n + 1), dtype=np.int64)
    v[-1, :n] = x[:n] + rv[:n]
    if hb:
        v[0, :n] = (x[:n] >> hb) + (rv[:n] >> hb)
    while (ptr[:n] != n).any():
        v += np.take(v, ptr, axis=1)
        ptr = ptr[ptr]
    acc = _vpack(v[0, :n], v[1, :n], hb) if hb else _wrap(v[0, :n], o.bits)
    # forward: every produced stream, from the adder's results on

    def put(i, k, words):
        for j in nodes[i].out_ports[k]:
            q = _seed(graph, j)
            V[j] = np.concatenate((_arr(q), words)) if q else words

    put(a, 0, acc)
    cur = V[ej]
    for kind, i, oj, sj, aj, keep in stages:
        if kind == "fifo":
            put(i, 0, _wrap(cur[:limit], nodes[i].obj.bits))
        elif kind == "demux":
            f = min(limit, len(V[sj]), len(cur))
            t = V[sj][:f] != 0
            put(i, 1, cur[:f][t])
            put(i, 0, cur[:f][~t])
        else:
            sel = V[sj][:limit]
            ins = (V[aj], cur) if keep else (cur, V[aj])
            f, xa, xb = _merge_at(*select_split(sel), len(sel),
                                  len(ins[0]), len(ins[1]))
            put(i, 0, _mix(f, xa, ins[0], xb, ins[1]))
        cur = V[oj]


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
