"""Content-addressed compile cache for generated fastpath kernels.

Compiling a captured graph costs two codegen passes (the count-level
trace kernel plus one epoch kernel per feedback component) and a
CPython ``compile()`` each — pure overhead when the same netlist shape
is compiled again: every campaign shard compiles the identical config,
and every Fig. 10 version bump recompiles a config that was resident
minutes ago.  This module makes recompilation a lookup:

* **Fingerprint** — :func:`graph_fingerprint` hashes the *structural*
  descriptor of the graph: per-node kind + port bindings + exactly the
  parameters the code generators bake into source as literals, plus
  per-edge connectivity and capacities.  Runtime state (stream data,
  LUT contents, register preloads, accumulator partials) is *not*
  hashed — it is passed to the kernels via ``state``/``env`` tuples at
  call time, so two configs that differ only in data share one kernel.

* **In-process LRU** — fingerprint -> (trace fn, epoch fns).  A hit
  returns the very same function objects, skipping emit *and* compile.

* **On-disk artifact store** — optional, enabled by pointing
  ``REPRO_FASTPATH_CACHE_DIR`` at a directory (campaign workers get it
  from the pool, see :mod:`repro.campaign.runners`).  Artifacts are
  ``marshal``-serialized code objects tagged with the interpreter's
  bytecode magic and :data:`CACHE_VERSION`; a stale or corrupt artifact
  is treated as a miss and rewritten.  Writes are atomic (tempfile +
  ``os.replace``) so concurrent shards never observe torn files.

Hits/misses are observable via ``fastpath.cache.*`` metrics counters
and per-object in ``repro.fastpath.explain``.
"""

from __future__ import annotations

import hashlib
import importlib.util
import marshal
import os
import tempfile
import threading
from collections import OrderedDict

from repro.fastpath.capture import capture_sets
from repro.fastpath.ir import Graph
from repro.fastpath.lower import FIRES_CHECK, STATE_CHECK, emit_epoch, emit_trace
from repro.telemetry.metrics import get_metrics

#: bump when generated-kernel semantics change; invalidates every
#: cached artifact (memory keys and disk files both embed it)
CACHE_VERSION = 1

#: max graphs kept compiled in this process
LRU_MAX = 64

#: environment variable naming the shared on-disk artifact directory
CACHE_DIR_ENV = "REPRO_FASTPATH_CACHE_DIR"

_lock = threading.Lock()
_lru = OrderedDict()        # fingerprint -> (trace_fn, tuple(epoch_fns))


#: per-kind object parameters that the code generators bake into the
#: emitted source as literals (everything else rides in at call time)
_PARAMS = {
    "binary": ("OPCODE", "const", "shift", "bits"),
    "unary": ("OPCODE", "bits"),
    "shiftalu": ("amount", "bits"),
    "lut": ("bits",),
    "cadd": ("half_bits", "shift"),
    "csub": ("half_bits", "shift"),
    "cmul": ("half_bits", "shift", "conj_b", "round_shift"),
    "cconj": ("half_bits",),
    "cneg": ("half_bits",),
    "cmulj": ("half_bits", "sign"),
    "cshift": ("half_bits", "amount"),
    "pack": ("half_bits",),
    "unpack": ("half_bits",),
    "acc": ("length", "shift", "bits"),
    "cacc": ("length", "shift", "half_bits"),
    "integ": ("bits",),
    "cinteg": ("half_bits",),
    "reg": ("bits",),
    "fifo": ("depth", "circular", "bits"),
    "ram": ("words", "bits"),
}


def node_signature(node) -> tuple:
    """Structural signature of one node: everything about it that can
    change the generated source."""
    o = node.obj
    params = tuple((a, getattr(o, a)) for a in _PARAMS.get(node.kind, ()))
    if node.kind == "lut":
        params += (("tlen", len(o.table)),)
    return (node.kind, node.in_edges, node.out_ports, params)


def graph_fingerprint(graph: Graph) -> str:
    """Hex sha256 of the graph's structural descriptor (the cache key)."""
    desc = (
        CACHE_VERSION,
        (FIRES_CHECK, STATE_CHECK),
        tuple(node_signature(n) for n in graph.nodes),
        tuple((e.src, e.src_port, e.dst, e.dst_port, e.cap)
              for e in graph.edges),
    )
    return hashlib.sha256(repr(desc).encode()).hexdigest()


def cache_dir():
    """Artifact directory from the environment, or None (memory-only).

    Read dynamically on every call so campaign workers that export the
    variable after import (and tests) take effect immediately.
    """
    d = os.environ.get(CACHE_DIR_ENV)
    return d if d else None


def artifact_path(fp: str) -> str:
    return os.path.join(cache_dir(), fp + ".fpk")


# -- persistence -------------------------------------------------------------


def _codes(graph: Graph) -> list:
    """Compiled (not yet exec'd) code objects: trace first, then one
    epoch kernel per SCC in ``graph.sccs`` order."""
    codes = [compile(emit_trace(graph), "<fastpath-trace>", "exec")]
    for s in range(len(graph.sccs)):
        codes.append(compile(emit_epoch(graph, s), "<fastpath-epoch>",
                             "exec"))
    return codes


def _funcs(codes: list) -> tuple:
    ns = {}
    exec(codes[0], ns)
    trace = ns["_trace"]
    epochs = []
    for c in codes[1:]:
        ns = {}
        exec(c, ns)
        epochs.append(ns["_epoch"])
    return trace, tuple(epochs)


def _disk_load(fp: str):
    d = cache_dir()
    if d is None:
        return None
    try:
        with open(artifact_path(fp), "rb") as f:
            payload = marshal.load(f)
        magic, version, codes = payload
        if magic != importlib.util.MAGIC_NUMBER or version != CACHE_VERSION:
            return None                 # stale: interpreter or codegen moved
        return list(codes)
    except FileNotFoundError:
        return None
    except (OSError, EOFError, ValueError, TypeError):
        get_metrics().counter("fastpath.cache.error").inc()
        return None                     # corrupt artifact: recompile


def _disk_store(fp: str, codes: list) -> None:
    d = cache_dir()
    if d is None:
        return
    try:
        os.makedirs(d, exist_ok=True)
        payload = marshal.dumps(
            (importlib.util.MAGIC_NUMBER, CACHE_VERSION, tuple(codes)))
        fd, tmp = tempfile.mkstemp(dir=d, suffix=".tmp")
        try:
            with os.fdopen(fd, "wb") as f:
                f.write(payload)
            os.replace(tmp, artifact_path(fp))
        except BaseException:
            os.unlink(tmp)
            raise
        get_metrics().counter("fastpath.cache.store").inc()
    except OSError:
        get_metrics().counter("fastpath.cache.error").inc()


# -- front door --------------------------------------------------------------


def compile_graph(graph: Graph) -> tuple:
    """``(trace_fn, epoch_fns, fingerprint, hit)`` for a captured graph.

    Memory hit returns the exact same function objects; disk hit
    deserializes the stored code objects; a miss runs both code
    generators and populates both layers.
    """
    fp = graph_fingerprint(graph)
    metrics = get_metrics()
    with _lock:
        cached = _lru.get(fp)
        if cached is not None:
            _lru.move_to_end(fp)
    if cached is not None:
        metrics.counter("fastpath.cache.hit").inc()
        metrics.counter("fastpath.cache.memory_hit").inc()
        return cached[0], cached[1], fp, True

    codes = _disk_load(fp)
    if codes is not None and len(codes) == 1 + len(graph.sccs):
        trace, epochs = _funcs(codes)
        _remember(fp, trace, epochs)
        metrics.counter("fastpath.cache.hit").inc()
        metrics.counter("fastpath.cache.disk_hit").inc()
        return trace, epochs, fp, True

    metrics.counter("fastpath.cache.miss").inc()
    codes = _codes(graph)
    trace, epochs = _funcs(codes)
    _remember(fp, trace, epochs)
    _disk_store(fp, codes)
    return trace, epochs, fp, False


def _remember(fp, trace, epochs) -> None:
    with _lock:
        _lru[fp] = (trace, epochs)
        _lru.move_to_end(fp)
        while len(_lru) > LRU_MAX:
            _lru.popitem(last=False)


def probe(fp: str) -> str:
    """Where a fingerprint would hit right now: ``"memory"``,
    ``"disk"`` or ``"miss"`` — without promoting or populating anything
    (the side-effect-free peek ``fastpath explain`` uses)."""
    with _lock:
        if fp in _lru:
            return "memory"
    d = cache_dir()
    if d is not None and os.path.exists(artifact_path(fp)):
        return "disk"
    return "miss"


def warmup(objs, wires) -> tuple:
    """Capture + compile an explicit object/wire set into the cache.

    ``(fingerprint, hit)`` on success; raises ``UnsupportedGraphError``
    for netlists the compiler rejects (callers doing speculative
    prefetch catch it — the eventual swap just compiles on first step,
    exactly as without warm-up).
    """
    graph = capture_sets(objs, wires)
    _, _, fp, hit = compile_graph(graph)
    return fp, hit


def clear_memory_cache() -> None:
    """Drop the in-process LRU (test seam; disk artifacts stay)."""
    with _lock:
        _lru.clear()
