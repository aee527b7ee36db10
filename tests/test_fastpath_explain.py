"""Tests for the fastpath compile "explain" diagnostics.

Every rejection branch in ``capture.py``/``ir.py`` must surface a
machine-readable reason code through :func:`repro.fastpath.explain`,
the fallback warning must carry the same code (plus metrics counters),
and the ``python -m repro.fastpath explain`` CLI must render both the
compiles and the rejected verdicts.
"""

import json
import warnings

import numpy as np
import pytest

from repro.fastpath import (
    REASON_CODES,
    FastpathFallbackWarning,
    explain,
)
from repro.fastpath.__main__ import main as fastpath_main
from repro.diagnostics import (
    REASON_CIRCULAR_FIFO,
    REASON_CONST_RANGE,
    REASON_COUNTER_RANGE,
    REASON_COUNTER_STEP,
    REASON_DANGLING_WIRE,
    REASON_DYNAMIC_SHIFT,
    REASON_EMPTY_NETLIST,
    REASON_FAULT_TAP,
    REASON_INSTANCE_OVERRIDE,
    REASON_RAM_CONTROL,
    REASON_SHIFT_RANGE,
    REASON_UNBOUND_INPUT,
    REASON_UNSUPPORTED_TYPE,
)
from repro.fastpath.ir import GENERATORS
from repro.kernels import build_descrambler_config
from repro.telemetry.metrics import MetricsRegistry, set_metrics
from repro.telemetry.tracer import Tracer
from repro.xpp import ConfigBuilder, execute
from repro.xpp.alu import make_alu
from repro.xpp.config import Configuration
from repro.xpp.io import StreamSink, StreamSource
from repro.xpp.manager import ConfigurationManager
from repro.xpp.objects import DataflowObject


class Custom(DataflowObject):
    """A user-defined object: no exact-type entry in KIND_OF."""

    def __init__(self):
        super().__init__("custom", 1, 1)

    def compute(self, args):
        return args


def custom_config() -> Configuration:
    cfg = Configuration("custom_mode")
    cfg.add(Custom())
    return cfg


def _load(cfg) -> ConfigurationManager:
    mgr = ConfigurationManager()
    mgr.load(cfg)
    return mgr


# -- one scenario per reason code -------------------------------------------------


def _mgr_unsupported_type():
    return _load(custom_config())


def _mgr_instance_override():
    mgr = _load(build_descrambler_config())
    obj = mgr.active_objects()[0]
    obj.__dict__["plan"] = obj.plan     # instance-level protocol wrap
    return mgr


def _mgr_unbound_input():
    # bypass ConfigBuilder.build(): validate() would refuse the netlist
    # before the classifier ever sees it
    cfg = Configuration("unbound")
    src = cfg.add(StreamSource("a", None))
    add = cfg.add(make_alu("add1", "ADD"))      # no const, b unbound
    snk = cfg.add(StreamSink("y"))
    cfg.connect(src, 0, add, 0)
    cfg.connect(add, 0, snk, 0)
    return _load(cfg)


def _mgr_dynamic_shift():
    b = ConfigBuilder("dyn_shift")
    a = b.source("a")
    s = b.source("s")
    shl = b.alu("SHL")
    b.connect(a, 0, shl, 0)
    b.connect(s, 0, shl, 1)             # data-dependent shift amount
    b.chain(shl, b.sink("y"))
    return _load(b.build())


def _mgr_shift_range():
    b = ConfigBuilder("big_shift")
    b.chain(b.source("a"), b.alu("SHL", const=40), b.sink("y"))
    return _load(b.build())


def _mgr_const_range():
    b = ConfigBuilder("huge_const")
    b.chain(b.source("a"), b.alu("CMPLT", const=1 << 70), b.sink("y"))
    return _load(b.build())


def _mgr_counter_step():
    b = ConfigBuilder("step0")
    ctr = b.alu("COUNTER", step=0, limit=4)
    snk = b.sink("y")
    b.connect(ctr, 0, snk, 0)
    return _load(b.build())


def _mgr_counter_range():
    b = ConfigBuilder("startlim")
    ctr = b.alu("COUNTER", start=9, step=1, limit=4)
    snk = b.sink("y")
    b.connect(ctr, 0, snk, 0)
    return _load(b.build())


def _mgr_circular_fifo():
    b = ConfigBuilder("circ")
    b.chain(b.source("a"), b.fifo(circular=True, preload=[1, 2]),
            b.sink("y"))
    return _load(b.build())


def _mgr_empty_netlist():
    return ConfigurationManager()


def _mgr_dangling_wire():
    b = ConfigBuilder("dangle")
    b.chain(b.source("a"), b.alu("ADD", const=1), b.sink("y"))
    mgr = _load(b.build())
    sink = [o for o in mgr.active_objects() if isinstance(o, StreamSink)][0]
    sink.inputs[0].wire = None          # orphan the wire's consumer end
    mgr._invalidate_active()
    return mgr


def _mgr_fault_tap():
    mgr = _load(build_descrambler_config())
    mgr.active_wires()[0]._tap = lambda *a: None
    return mgr


def _mgr_ram_control():
    # RAM read data steers a GATE: when tokens pass would depend on
    # the memory contents, which the trace kernel never sees
    b = ConfigBuilder("ram_gate")
    ram = b.ram(words=4, preload=[1, 0, 1, 1])
    gate = b.alu("GATE")
    b.connect(b.alu("SEQ", name="addr", values=[0, 1, 2, 3]), 0,
              ram, "raddr")
    b.connect(ram, "rdata", gate, "ctrl")
    b.connect(b.source("a", [5, 6, 7, 8]), 0, gate, "a")
    b.connect(gate, 0, b.sink("y"), 0)
    return _load(b.build())


SCENARIOS = {
    REASON_UNSUPPORTED_TYPE: _mgr_unsupported_type,
    REASON_INSTANCE_OVERRIDE: _mgr_instance_override,
    REASON_UNBOUND_INPUT: _mgr_unbound_input,
    REASON_DYNAMIC_SHIFT: _mgr_dynamic_shift,
    REASON_SHIFT_RANGE: _mgr_shift_range,
    REASON_CONST_RANGE: _mgr_const_range,
    REASON_COUNTER_STEP: _mgr_counter_step,
    REASON_COUNTER_RANGE: _mgr_counter_range,
    REASON_CIRCULAR_FIFO: _mgr_circular_fifo,
    REASON_EMPTY_NETLIST: _mgr_empty_netlist,
    REASON_DANGLING_WIRE: _mgr_dangling_wire,
    REASON_FAULT_TAP: _mgr_fault_tap,
    REASON_RAM_CONTROL: _mgr_ram_control,
}


def test_reason_code_table_is_complete():
    assert len(REASON_CODES) == len(set(REASON_CODES))
    assert set(SCENARIOS) == set(REASON_CODES)


@pytest.mark.parametrize("code", sorted(SCENARIOS))
def test_every_rejection_branch_reports_its_code(code):
    report = explain(SCENARIOS[code]())
    assert not report.ok
    assert code in report.codes
    assert code in [d.code for d in report.diagnostics]
    assert all(d.message for d in report.diagnostics)
    # only the capture phase ran; compile phases were never entered
    assert set(report.timings_s) == {"capture"}
    # the report always serializes (CLI --json path)
    json.dumps(report.to_dict())


def test_object_verdicts_pinpoint_the_offender():
    report = explain(_mgr_const_range())
    offenders = {d.node for d in report.diagnostics}
    assert "a" not in offenders
    assert "y" not in offenders
    bad = report.diagnostics
    assert len(bad) == 1
    assert bad[0].code == REASON_CONST_RANGE and bad[0].node == "cmplt1"
    assert "int64-safe" in bad[0].message
    assert bad[0].to_dict()["code"] == REASON_CONST_RANGE


def test_object_diagnostic_names_the_object_once():
    report = explain(_mgr_unsupported_type())
    line = str(report.diagnostics[0])
    assert line == f"[{REASON_UNSUPPORTED_TYPE}] at custom: " \
        "unsupported object type Custom"
    assert line.count("custom") == 1
    # the fallback warning's text keeps the name in front
    from repro.fastpath.ir import UnsupportedGraphError, classify
    with pytest.raises(UnsupportedGraphError) as exc:
        classify(Custom())
    assert str(exc.value) == "custom: unsupported object type Custom"
    assert exc.value.node == "custom"


def test_graph_level_rejections_keep_object_verdicts_clean():
    # a fault tap's objects each classify fine; the rejection is a
    # property of the wiring state, so it appears only at graph level
    report = explain(_mgr_fault_tap())
    assert all(d.node is None for d in report.diagnostics)
    assert [d.code for d in report.diagnostics] == [REASON_FAULT_TAP]
    assert report.codes == [REASON_FAULT_TAP]


def test_explain_reports_epoch_strategy_for_feedback():
    # the despreader's accumulate-dump ring compiles as one feedback
    # component: the report names exactly the ring members as the one
    # SCC; every other object keeps the whole-trace value pass
    from repro.kernels import build_despreader_config
    mgr = _load(build_despreader_config(2, 4))
    report = explain(mgr)
    assert report.ok
    sccs = report.details["sccs"]
    assert len(sccs) == 1
    assert sccs and sum(len(scc) for scc in sccs) >= 2
    epoch = {name for scc in sccs for name in scc}
    assert 0 < len(epoch) < report.n_nodes
    assert epoch <= {o.name for o in mgr.active_objects()}
    assert len(epoch) == sum(len(scc) for scc in sccs)
    d = report.to_dict()
    assert len(d["details"]["sccs"]) == 1 \
        and d["details"]["cache"] in ("memory", "miss")
    assert d["details"]["sccs"][0]


def test_explain_names_each_components_lowering():
    # the despreader's integrate-and-dump loop is an additive ring: the
    # value pass computes it in closed form and no epoch source is
    # emitted; a loop through a PASS keeps its epoch kernel, and
    # kernel_lines counts exactly the sources emitted
    from repro.fastpath import capture
    from repro.fastpath.cache import emit_sources
    from repro.kernels import build_despreader_config
    b = ConfigBuilder("pass_ring")
    add, back = b.alu("ADD"), b.alu("PASS")
    b.connect(b.source("x", [1, 2, 3]), 0, add, 0)
    b.connect(add, 0, back, 0)
    b.connect(back, 0, add, 1)._q.append(7)
    b.connect(add, 0, b.sink("y"), 0)
    for cfg, lowering in ((build_despreader_config(2, 4), ["ring"]),
                          (b.build(), ["epoch"])):
        mgr = _load(cfg)
        report = explain(mgr)
        assert report.details["lowering"] == lowering
        sources = emit_sources(capture(mgr))
        assert ("epoch0" in sources) == (lowering == ["epoch"])
        assert report.details["kernel_lines"] == sum(
            src.count("\n") + 1 for src in sources.values())


def test_explain_reports_cache_outlook_without_populating():
    from repro.fastpath import cache
    cache.clear_memory_cache()
    mgr = _load(build_descrambler_config())
    first = explain(mgr)
    fingerprint = first.details["fingerprint"]
    assert fingerprint and len(fingerprint) == 64
    assert first.details["cache"] == "miss"
    # explain itself must not warm the cache (side-effect-free dry run)
    assert explain(mgr).details["cache"] == "miss"
    # ...but once a real compile lands the same fingerprint, the
    # outlook flips to a hit
    from repro.fastpath.capture import capture
    cache.compile_graph(capture(mgr))
    assert explain(mgr).details["cache"] == "memory"


def test_explain_ok_path_reports_lowering_and_phases():
    mgr = _load(build_descrambler_config())
    report = explain(mgr)
    assert report.ok
    assert not any(d.node is None for d in report.diagnostics)
    assert report.codes == [] and report.diagnostics == []
    assert not any(d.node for d in report.diagnostics)
    assert report.n_nodes == len(mgr.active_objects())
    assert report.n_edges == len(mgr.active_wires())
    assert sum(report.kinds.values()) == report.n_nodes
    generators = report.details["generators"]
    assert generators and set(generators) <= GENERATORS
    assert set(generators) <= set(report.kinds)
    assert report.details["kernel_lines"] > 1
    assert report.details["trace_cycles"] >= 1
    assert isinstance(report.details["absorbed"], bool)
    assert report.details["checkpoints"] == [256, 2048]
    assert set(report.timings_s) == {"capture", "emit", "compile", "replay"}
    assert all(t >= 0.0 for t in report.timings_s.values())
    rendered = report.render()
    assert "compiles" in rendered and "trace_cycles:" in rendered


def test_explain_render_names_the_reason():
    rendered = explain(_mgr_fault_tap()).render()
    assert f"rejected [{REASON_FAULT_TAP}]" in rendered
    assert "fault tap" in rendered


def test_explain_is_side_effect_free():
    mgr = _load(build_descrambler_config())
    version = mgr.version
    first = explain(mgr).to_dict()
    second = explain(mgr).to_dict()
    assert mgr.version == version
    first.pop("timings_s"), second.pop("timings_s")
    assert first == second


def test_explain_records_phase_spans_on_a_tracer():
    tracer = Tracer()
    report = explain(_load(build_descrambler_config()), tracer=tracer)
    assert report.ok
    names = {e.name for e in tracer.events}
    assert {"explain.capture", "explain.emit", "explain.compile",
            "explain.replay"} <= names
    # a fallback run still traces the capture phase it got through
    tracer = Tracer()
    explain(_mgr_empty_netlist(), tracer=tracer)
    assert {e.name for e in tracer.events} == {"explain.capture"}


# -- fallback warning reason codes + metrics --------------------------------------


def _ivals(rng, n=16):
    return rng.integers(-(1 << 20), 1 << 20, n)


def test_fallback_warning_carries_reason_code_and_counts():
    rng = np.random.default_rng(5)
    b = ConfigBuilder("huge_const")
    b.chain(b.source("a"), b.alu("CMPLT", const=1 << 70), b.sink("y"))
    cfg = b.build()
    registry = MetricsRegistry()
    previous = set_metrics(registry)
    try:
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            execute(cfg, inputs={"a": _ivals(rng)}, max_cycles=5000,
                    scheduler="fastpath")
    finally:
        set_metrics(previous)
    fallbacks = [w for w in caught
                 if issubclass(w.category, FastpathFallbackWarning)]
    assert fallbacks
    assert fallbacks[0].message.code == REASON_CONST_RANGE
    assert "int64-safe" in str(fallbacks[0].message)
    assert registry.counter("fastpath.fallback").value >= 1
    assert registry.counter(
        f"fastpath.fallback.{REASON_CONST_RANGE}").value >= 1


def test_fallback_warning_default_code():
    w = FastpathFallbackWarning("plain message")
    assert w.code == REASON_UNSUPPORTED_TYPE
    assert str(w) == "plain message"


# -- CLI -------------------------------------------------------------------------


def test_cli_explain_json_compiles(capsys):
    rc = fastpath_main(["explain", "--kernel", "descrambler", "--json"])
    out = capsys.readouterr().out
    payload = json.loads(out)
    assert rc == 0
    assert payload["ok"] is True
    assert payload["codes"] == []
    assert payload["kinds"]


def test_cli_explain_despreader_compiles_via_epoch(capsys):
    # the despreader ring used to be the canonical fallback demo; since
    # the epoch lowering it compiles, SCC census and cache line included
    rc = fastpath_main(["explain", "--kernel", "despreader"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "compiles" in out
    assert "sccs: [[" in out
    assert "cache:" in out


def test_cli_explain_fft_stage_compiles(capsys):
    # the RAM-PAE lowers into the trace: no feedback component is left
    # (its write port is a sink for scheduling) and the replay probe
    # traces the stage's 77 firing cycles plus the absorbing idle one
    # (a simulator run waits 7 more idle cycles: 85 in all)
    rc = fastpath_main(["explain", "--kernel", "fft_stage", "--json"])
    payload = json.loads(capsys.readouterr().out)
    assert rc == 0
    assert payload["ok"] is True
    assert payload["kinds"]["ram"] == 1
    assert payload["details"]["sccs"] == []
    details = payload["details"]
    assert details["absorbed"] and details["trace_cycles"] == 78
    assert payload["diagnostics"] == []
    assert not any("data_ram" in scc for scc in details["sccs"])


def test_explain_window_shorter_than_the_trace():
    # a session traces at least 256 cycles, but the report keeps to the
    # asked window: 8 cycles, and the zero mask at cycle 77 is outside
    from repro.kernels import build_fft_stage_config
    mgr = _load(build_fft_stage_config(0, [0] * 64))
    short = explain(mgr, cycles=8).details
    assert (short["trace_cycles"], short["absorbed"]) == (8, False)
    full = explain(mgr).details
    assert (full["trace_cycles"], full["absorbed"]) == (78, True)
    edge = explain(mgr, cycles=78).details
    assert (edge["trace_cycles"], edge["absorbed"]) == (78, True)
    assert explain(mgr, cycles=77).details["absorbed"] is False


def test_cli_explain_reports_fallback(capsys, monkeypatch):
    # every demo kernel compiles now, so force a rejection: a user
    # object type is not in the supported-kind table
    import repro.fastpath.__main__ as cli

    monkeypatch.setattr(cli, "_build_kernel", lambda name: custom_config())
    rc = fastpath_main(["explain", "--kernel", "descrambler"])
    out = capsys.readouterr().out
    assert rc == 1
    assert f"rejected [{REASON_UNSUPPORTED_TYPE}]" in out
