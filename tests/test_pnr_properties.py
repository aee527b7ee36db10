"""Property and fuzz tests for the place-and-route compiler.

Three contracts, each enforced over generated inputs:

* **Legal graphs always compile and run.**  Random pipelines built
  through the DSL place within the fabric bounds with no slot
  double-booked, the inferred FIFO depths are sufficient at run time
  (the compiled config finishes and delivers every token), and the
  result is bit-exact against a hand-built ``ConfigBuilder`` netlist
  of the same operators.
* **Illegal graphs always fail with a coded diagnostic.**  Every
  mutation of a legal graph — and arbitrary hostile JSON — surfaces as
  a :class:`PnrError` carrying the expected code, never as any other
  exception.
* **The committed corpus stays honest.**  Each entry under
  ``tests/corpus/pnr/`` pins the code it must trigger (or that it must
  compile cleanly), and together the entries cover the entire
  diagnostic vocabulary.

Example counts scale with the active hypothesis profile: the counts
below under the default profile's 100, ten times them under
``--hypothesis-profile=compilers`` (registered in ``tests/conftest.py``).
"""

import json
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.fixed import wrap
from repro.pnr import (
    KernelGraph,
    PNR_CODES,
    PnrError,
    compile_graph,
    report_graph,
)
from repro.diagnostics import (
    PNR_BAD_PARAMS,
    PNR_DEADLOCK_CYCLE,
    PNR_DOUBLE_DRIVEN,
    PNR_DUPLICATE_NODE,
    PNR_UNKNOWN_NODE,
    PNR_UNKNOWN_OPCODE,
    PNR_UNKNOWN_PORT,
    PNR_WIDTH_MISMATCH,
    PNR_WIRE_CAPACITY,
)
from repro.xpp import ConfigBuilder, execute
from repro.xpp.array import XppArray
from repro.xpp.port import DEFAULT_CAPACITY


def _examples(n: int) -> int:
    """``n`` scaled by the active profile's example count over 100."""
    return n * settings().max_examples // 100


# the same stateless scalar op vocabulary the xpp property suite uses
_OPS = st.sampled_from([
    ("ADD", {"const": 7}),
    ("SUB", {"const": -3}),
    ("MUL", {"const": 2}),
    ("XOR", {"const": 0x55}),
    ("SHIFT", {"amount": -1}),
    ("SHIFT", {"amount": 1}),
    ("NEG", {}),
    ("ABS", {}),
    ("PASS", {}),
])

_PY_FN = {
    "ADD": lambda v, p: v + p["const"],
    "SUB": lambda v, p: v - p["const"],
    "MUL": lambda v, p: v * p["const"],
    "XOR": lambda v, p: v ^ p["const"],
    "SHIFT": lambda v, p: v << p["amount"] if p["amount"] >= 0
    else v >> -p["amount"],
    "NEG": lambda v, p: -v,
    "ABS": lambda v, p: abs(v),
    "PASS": lambda v, p: v,
}


def _reference(data, ops):
    out = []
    for v in data:
        for opcode, params in ops:
            v = wrap(_PY_FN[opcode](v, params), 24)
        out.append(v)
    return out


def _dsl_pipeline(ops, capacities):
    g = KernelGraph("prop")
    prev = g.stream_in("x")
    for i, ((opcode, params), cap) in enumerate(zip(ops, capacities)):
        op = g.op(opcode, name=f"op{i}", **params)
        g.connect(prev, op, capacity=cap)
        prev = op
    g.connect(prev, g.stream_out("y"))
    return g


def _hand_pipeline(ops, data, capacities):
    b = ConfigBuilder("prop")
    prev = b.source("x", data)
    for i, ((opcode, params), cap) in enumerate(zip(ops, capacities)):
        op = b.alu(opcode, name=f"op{i}", **params)
        b.connect(prev, 0, op, 0, capacity=cap)
        prev = op
    snk = b.sink("y", expect=len(data))
    b.connect(prev, 0, snk, 0)
    return b.build()


def _stats_key(stats):
    return (stats.cycles, stats.stop_reason, stats.total_firings,
            stats.energy, dict(stats.firings), dict(stats.tokens_out))


def _assert_well_placed(placement, array=None):
    """Every slot is a real PAE of the right kind; none double-booked."""
    array = array or XppArray()
    valid = {kind: {(s.row, s.col) for s in slots}
             for kind, slots in array.slots.items()}
    seen = set()
    for name, (kind, row, col) in placement.slots.items():
        assert (row, col) in valid[kind], (name, kind, row, col)
        assert (kind, row, col) not in seen, f"{name} double-booked"
        seen.add((kind, row, col))


class TestLegalGraphsCompile:
    @given(st.lists(_OPS, min_size=1, max_size=10),
           st.lists(st.integers(min_value=-(2 ** 20), max_value=2 ** 20),
                    min_size=1, max_size=25),
           st.data())
    @settings(max_examples=_examples(30), deadline=None)
    def test_pipeline_places_routes_and_runs_bit_exact(self, ops, data,
                                                       draw):
        """The tentpole property: a random legal pipeline compiles, the
        placement is in-bounds and collision-free, pinned capacities are
        honoured verbatim, and the compiled config runs to completion
        matching both the python reference and a hand-built netlist of
        the same ops — outputs, cycles, firings and energy."""
        caps = [draw.draw(st.sampled_from([None, 1, 2, 3, 8]))
                for _ in ops]
        kernel = compile_graph(_dsl_pipeline(ops, caps))
        _assert_well_placed(kernel.placement)
        assert set(kernel.placement.slots) == \
            {n.name for n in kernel.graph.nodes}

        for edge, cap in zip(kernel.graph.edges[:len(caps)], caps):
            want = DEFAULT_CAPACITY if cap is None else cap
            assert kernel.report.details["capacities"][edge.label] == want

        cfg = kernel.config
        cfg.sources["x"].set_data(data)
        cfg.sinks["y"].expect = len(data)
        result = execute(cfg)
        assert result["y"] == _reference(data, ops)

        hand = execute(_hand_pipeline(
            ops, data, [DEFAULT_CAPACITY if c is None else c for c in caps]))
        assert result["y"] == hand["y"]
        assert _stats_key(result.stats) == _stats_key(hand.stats)

    @given(st.lists(_OPS, min_size=1, max_size=8))
    @settings(max_examples=_examples(20), deadline=None)
    def test_placement_is_deterministic(self, ops):
        caps = [None] * len(ops)
        p1 = compile_graph(_dsl_pipeline(ops, caps)).placement
        p2 = compile_graph(_dsl_pipeline(ops, caps)).placement
        assert p1.to_dict() == p2.to_dict()

    @given(st.integers(min_value=1, max_value=6),
           st.lists(st.integers(min_value=-1000, max_value=1000),
                    min_size=1, max_size=15))
    @settings(max_examples=_examples(20), deadline=None)
    def test_balanced_reconvergence_gets_skew_slack_and_stays_exact(
            self, depth, data):
        """A diamond with one long branch: ``balance=True`` grants the
        short edge one register per level it skips, and the balanced
        config still computes exactly v + v."""
        g = KernelGraph("diamond")
        src = g.stream_in("x")
        fork = g.op("PASS", name="fork")
        g.connect(src, fork)
        prev = fork
        for i in range(depth):
            step = g.op("PASS", name=f"long{i}")
            g.connect(prev, step)
            prev = step
        join = g.op("ADD", name="join")
        g.connect(prev, join["a"])
        short = g.connect(fork, join["b"])
        g.connect(join, g.stream_out("y"))

        kernel = compile_graph(g, balance=True)
        _assert_well_placed(kernel.placement)
        # the long branch puts `depth` levels between fork and join
        assert kernel.report.details["capacities"][short.label] == \
            DEFAULT_CAPACITY + depth

        cfg = kernel.config
        cfg.sources["x"].set_data(data)
        cfg.sinks["y"].expect = len(data)
        assert execute(cfg)["y"] == [wrap(v + v, 24) for v in data]

    @given(st.integers(min_value=1, max_value=4),
           st.lists(st.integers(min_value=0, max_value=500),
                    min_size=1, max_size=20))
    @settings(max_examples=_examples(15), deadline=None)
    def test_fanout_delivers_every_stream(self, width, data):
        """Inferred depths are sufficient under fan-out: every sink of a
        1-to-N split receives the full stream.  A per-branch PASS stage
        spreads the horizontal route legs across rows, and width stays
        within what one column's vertical tracks can swallow — all N
        branches share a pipeline level, hence a column, so the legs
        into it sum to N(N+1)/2 segments against 16 tracks (wider
        fan-out is a genuine routing-tracks rejection, covered by the
        corpus)."""
        g = KernelGraph("fan")
        dup = g.op("PASS", name="dup")
        g.connect(g.stream_in("x"), dup)
        for i in range(width):
            branch = g.op("PASS", name=f"b{i}")
            g.connect(dup, branch)
            g.connect(branch, g.stream_out(f"s{i}"))
        kernel = compile_graph(g)
        _assert_well_placed(kernel.placement)
        cfg = kernel.config
        cfg.sources["x"].set_data(data)
        for i in range(width):
            cfg.sinks[f"s{i}"].expect = len(data)
        execute(cfg)
        for i in range(width):
            assert cfg.sinks[f"s{i}"].received == data


# -- illegal graphs -----------------------------------------------------------------


def _mut_unknown_opcode(g):
    g.connect(g.op("FROBNICATE", name="bad"), "op0.a")
    return PNR_UNKNOWN_OPCODE


def _mut_bad_params(g):
    g.connect("x.0", g.op("NEG", name="bad", bogus_knob=1)["a"])
    return PNR_BAD_PARAMS


def _mut_duplicate_node(g):
    g.op("PASS", name="op0")
    return PNR_DUPLICATE_NODE


def _mut_unknown_node(g):
    g.connect("ghost.0", "y.0")
    return PNR_UNKNOWN_NODE


def _mut_unknown_port(g):
    g.connect("x.0", "op0.sideways")
    return PNR_UNKNOWN_PORT


def _mut_double_driven(g):
    g.connect("x.0", g.edges[0].dst)
    return PNR_DOUBLE_DRIVEN


def _mut_wire_capacity(g):
    g.edges[0].capacity = 0
    return PNR_WIRE_CAPACITY


def _mut_width_mismatch(g):
    narrow = g.stream_in("narrow", bits=12)
    g.connect(narrow, g.op("CMUL", name="wide", half_bits=12)["a"])
    return PNR_WIDTH_MISMATCH


def _mut_deadlock_cycle(g):
    loop = g.op("ADD", name="loop")
    reg = g.op("REG", name="reg")
    g.connect("x.0", loop["a"])
    g.connect(loop, reg["a"])
    g.connect(reg, loop["b"])
    return PNR_DEADLOCK_CYCLE


_MUTATIONS = {
    fn.__name__: fn for fn in (
        _mut_unknown_opcode, _mut_bad_params, _mut_duplicate_node,
        _mut_unknown_node, _mut_unknown_port, _mut_double_driven,
        _mut_wire_capacity, _mut_width_mismatch, _mut_deadlock_cycle)
}


class TestIllegalGraphsAreCoded:
    @given(st.lists(_OPS, min_size=1, max_size=5),
           st.sampled_from(sorted(_MUTATIONS)))
    @settings(max_examples=_examples(40), deadline=None)
    def test_mutation_raises_expected_code_never_crashes(self, ops,
                                                         mutation):
        """Any way of breaking a legal pipeline yields a PnrError whose
        diagnostics carry the expected code — and report_graph agrees
        without raising."""
        g = _dsl_pipeline(ops, [None] * len(ops))
        expected = _MUTATIONS[mutation](g)
        with pytest.raises(PnrError) as exc:
            compile_graph(g)
        assert expected in exc.value.codes
        assert exc.value.report is not None
        report = report_graph(g)
        assert not report.ok
        assert report.codes == exc.value.codes

    _JSON = st.recursive(
        st.none() | st.booleans() | st.integers(-512, 512)
        | st.text(max_size=10),
        lambda children: st.lists(children, max_size=4)
        | st.dictionaries(st.text(max_size=10), children, max_size=4),
        max_leaves=20)

    @given(_JSON)
    @settings(max_examples=_examples(60), deadline=None)
    def test_hostile_payloads_never_crash(self, payload):
        """from_dict + report_graph on arbitrary JSON: either a graph
        report (ok or coded) or a PnrError — no other exception type
        ever escapes."""
        try:
            g = KernelGraph.from_dict(payload)
        except PnrError as exc:
            assert exc.codes
            assert exc.report is None   # never became a graph to compile
            return
        report = report_graph(g)
        assert report.ok or report.codes


# -- committed corpus ---------------------------------------------------------------

CORPUS = sorted((Path(__file__).parent / "corpus" / "pnr").glob("*.json"))


def _codes_of(graph_payload):
    try:
        g = KernelGraph.from_dict(graph_payload)
    except PnrError as exc:
        return False, exc.codes
    report = report_graph(g)
    return report.ok, report.codes


def test_corpus_is_populated_and_covers_every_code():
    assert len(CORPUS) >= 15, "fuzz corpus went missing"
    covered = set()
    for path in CORPUS:
        covered.update(json.loads(path.read_text()).get("expect_codes", []))
    assert covered == set(PNR_CODES), \
        f"corpus misses codes: {sorted(set(PNR_CODES) - covered)}"


@pytest.mark.parametrize("path", CORPUS, ids=lambda p: p.stem)
def test_corpus_entry_behaves_as_pinned(path):
    entry = json.loads(path.read_text())
    ok, codes = _codes_of(entry["graph"])
    if entry.get("ok"):
        assert ok and not codes
        return
    assert not ok
    for code in entry["expect_codes"]:
        assert code in codes, (path.stem, code, codes)
