"""Telemetry wired through the simulator, manager and applications."""

import time

import numpy as np
import pytest

from repro import telemetry
from repro.telemetry import collecting, tracing
from repro.xpp import (
    STOP_MAX_CYCLES,
    STOP_QUIESCENT,
    STOP_UNTIL,
    ConfigBuilder,
    ConfigurationManager,
    RunStats,
    Simulator,
    attribute_energy,
    execute,
)


def _scale_config(name="scale", expect=4):
    b = ConfigBuilder(name)
    src = b.source("x")
    mul = b.alu("MUL", const=3)
    snk = b.sink("y", expect=expect)
    b.chain(src, mul, snk)
    return b.build()


# -- stop_reason (satellite) ---------------------------------------------------


def test_stop_reason_until():
    result = execute(_scale_config(), inputs={"x": [1, 2, 3, 4]})
    assert result.stats.stop_reason == STOP_UNTIL


def test_stop_reason_quiescent():
    cfg = _scale_config(expect=None)        # no expectation -> drains dry
    mgr = ConfigurationManager()
    mgr.load(cfg)
    cfg.sources["x"].set_data([1, 2])
    stats = Simulator(mgr).run(1000)
    assert stats.stop_reason == STOP_QUIESCENT
    assert stats.tokens_out["y"] == 2


def test_stop_reason_max_cycles_exposes_stalled_pipeline():
    cfg = _scale_config(expect=8)           # expects more than it is fed
    mgr = ConfigurationManager()
    mgr.load(cfg)
    cfg.sources["x"].set_data([1, 2, 3, 4])
    stats = Simulator(mgr).run(50, quiescent_limit=10_000)
    assert stats.stop_reason == STOP_MAX_CYCLES
    assert stats.cycles == 50


def test_stop_reason_traced_as_instant():
    cfg = _scale_config()
    with tracing() as tr:
        execute(cfg, inputs={"x": [1, 2, 3, 4]})
    (stop,) = tr.instants("sim.stop")
    assert stop.args == {"reason": STOP_UNTIL}
    (run_span,) = tr.spans("sim.run")
    assert run_span.args["stop_reason"] == STOP_UNTIL
    assert run_span.dur == run_span.args["cycles"] > 0


def test_collect_stats_snapshot_has_no_stop_reason():
    cfg = _scale_config()
    mgr = ConfigurationManager()
    mgr.load(cfg)
    assert Simulator(mgr).collect_stats().stop_reason is None


# -- RunStats merge / to_dict (satellite) --------------------------------------


def test_runstats_merge_aggregates_runs():
    a = RunStats(cycles=10, total_firings=6, firings={"m": 6}, energy=12.0,
                 tokens_out={"y": 4}, stop_reason="until")
    b = RunStats(cycles=5, total_firings=3, firings={"m": 2, "n": 1},
                 energy=4.0, tokens_out={"y": 1, "z": 2},
                 stop_reason="until")
    m = a.merge(b)
    assert m.cycles == 15 and m.total_firings == 9
    assert m.firings == {"m": 8, "n": 1}
    assert m.energy == 16.0
    assert m.tokens_out == {"y": 5, "z": 2}
    assert m.stop_reason == "until"
    # inputs untouched
    assert a.firings == {"m": 6} and b.tokens_out == {"y": 1, "z": 2}


def test_runstats_merge_disagreeing_stop_reasons():
    a = RunStats(cycles=1, stop_reason="until")
    b = RunStats(cycles=1, stop_reason="quiescent")
    assert a.merge(b).stop_reason is None


def test_runstats_to_dict_round_trips_through_json():
    import json

    stats = execute(_scale_config(), inputs={"x": [1, 2, 3, 4]}).stats
    d = json.loads(json.dumps(stats.to_dict()))
    assert d["cycles"] == stats.cycles
    assert d["stop_reason"] == STOP_UNTIL
    assert d["firings"] == stats.firings
    assert d["throughput"]["y"] == pytest.approx(stats.throughput("y"))


def test_merged_stats_of_time_slices_match_single_run():
    """Two half-runs merged equal one full run (the aggregation story)."""
    cfg = _scale_config(expect=None)
    mgr = ConfigurationManager()
    mgr.load(cfg)
    cfg.sources["x"].set_data([1, 2, 3, 4])
    sim = Simulator(mgr)
    first = sim.run(3, quiescent_limit=10_000)
    start = {name: count for name, count in first.firings.items()}
    second = sim.run(1000)
    # second run's firings are cumulative object counters; subtract
    second.firings = {k: v - start.get(k, 0)
                      for k, v in second.firings.items()}
    merged = first.merge(second)
    assert merged.cycles == sim.cycle
    assert sum(merged.firings.values()) > 0


# -- Fig. 10 trace (tentpole acceptance) ---------------------------------------


def test_fig10_trace_has_load_remove_load_in_order():
    from repro.wlan.schedule import Fig10Schedule

    with tracing() as tr:
        sched = Fig10Schedule()
        sched.start_acquisition()
        sched.acquisition_done()

    names = telemetry.span_names_in_order(tr, cat="config")
    expected = ["config.load:resident_downsampler",
                "config.load:resident_fft0",
                "config.load:acq_correlator",
                "config.remove:acq_correlator",
                "config.load:demodulator"]
    positions = [names.index(n) for n in expected]
    assert positions == sorted(positions), names
    # the swap is a single span wrapping remove(2a) + load(2b)
    (swap,) = tr.spans("fig10.swap")
    assert swap.args["removed"] == "acq_correlator"
    assert swap.args["loaded"] == "demodulator"
    assert swap.dur == swap.args["swap_cycles"] > 0
    # state machine instants
    transitions = [(e.args["from"], e.args["to"])
                   for e in tr.instants("fig10.state")]
    assert transitions == [("idle", "acquiring"),
                           ("acquiring", "demodulating")]


def test_manager_metrics_reconfig_latency():
    from repro.wlan.schedule import Fig10Schedule

    with collecting() as reg:
        sched = Fig10Schedule()
        sched.start_acquisition()
        sched.acquisition_done()
        sched.stop()
    d = reg.to_dict()
    assert d["config.loads"]["value"] == 4          # 1 (x2), 2a, 2b
    assert d["config.removes"]["value"] == 4        # 2a + stop (3 residents)
    assert d["config.load_cycles"]["count"] == 4
    assert d["config.resident"]["value"] == 0       # all torn down


def test_request_queue_traced():
    """A deferred request emits a queued instant, then config.drained
    when the removal lets it load."""
    big = []
    mgr = ConfigurationManager()
    for i in range(2):
        b = ConfigBuilder(f"big{i}")
        src = b.source("x")
        alus = [b.alu("ADD", const=1, name=f"a{j}") for j in range(40)]
        snk = b.sink("y")
        b.chain(src, *alus, snk)
        big.append(b.build())
    with tracing() as tr:
        assert mgr.request(big[0]) is not None
        assert mgr.request(big[1]) is None      # does not fit -> queued
        mgr.remove(big[0])
        assert mgr.is_loaded("big1")
    (queued,) = [e for e in tr.instants("config.request:big1")]
    assert queued.args["outcome"] == "queued"
    (drained,) = tr.instants("config.drained")
    assert drained.args["loaded"] == ["big1"]


# -- energy attribution --------------------------------------------------------


def test_energy_attributed_to_sim_run_span_matches_stats():
    from repro.xpp.power import ENERGY_UNIT_PJ

    cfg = _scale_config()
    with tracing() as tr:
        stats = execute(cfg, inputs={"x": [1, 2, 3, 4]}).stats
    by_span = attribute_energy(tr, cat="sim")
    assert by_span["sim.run"] == pytest.approx(stats.energy * ENERGY_UNIT_PJ)


def test_energy_counter_is_cumulative_and_monotonic():
    cfg = _scale_config()
    with tracing() as tr:
        execute(cfg, inputs={"x": [1, 2, 3, 4]})
    samples = tr.counter_samples("sim.energy")
    values = [v for _ts, v in samples]
    assert values == sorted(values)
    assert values[-1] > 0


# -- application control loops -------------------------------------------------


def test_rake_session_block_spans_and_reacquire_instants():
    from repro.rake.session import RakeSession
    from repro.wcdma import Basestation, DownlinkChannelConfig

    rng = np.random.default_rng(1)
    bs = Basestation(0, [DownlinkChannelConfig(sf=16, code_index=2)], rng=rng)
    ants, _bits = bs.transmit(16 * 64)
    rx = ants[0]
    session = RakeSession(sf=16, code_index=2, active_set=[0])
    with tracing() as tr, collecting() as reg:
        for _ in range(3):
            session.process_block(rx, 8)
    blocks = tr.spans("rake.block")
    assert [s.args["block"] for s in blocks] == [0, 1, 2]
    # first block always reacquires (no tracker yet)
    assert any(e.args["block"] == 0 for e in tr.instants("rake.reacquire"))
    d = reg.to_dict()
    assert d["rake.blocks"]["value"] == 3
    assert d["rake.logical_fingers"]["value"] > 0
    assert d["rake.fingers_per_block"]["count"] == 3


def test_rake_active_set_updates_traced():
    from repro.rake.session import RakeSession

    session = RakeSession(sf=16, code_index=2, active_set=[0])
    with tracing() as tr:
        session.add_basestation(1)
        session.drop_basestation(0)
        session.add_basestation(1)      # already present: no event
    actions = [(e.args["action"], e.args["basestation"])
               for e in tr.instants("rake.active_set")]
    assert actions == [("add", 1), ("drop", 0)]


def test_dsp_task_invocation_spans():
    from repro.dsp.processor import DspProcessor, DspTask

    dsp = DspProcessor()
    with tracing() as tr, collecting() as reg:
        dsp.admit(DspTask("ctrl", instructions=1000, rate_hz=100,
                          run=lambda a, b: a + b))
        assert dsp.invoke("ctrl", 2, 3) == 5
        dsp.invoke("ctrl", 1, 1)
        dsp.drop("ctrl")
    (admit,) = tr.instants("dsp.admit:ctrl")
    assert admit.args["mips"] == pytest.approx(0.1)
    spans = tr.spans("dsp.task:ctrl")
    assert len(spans) == 2
    assert spans[0].args["instructions"] == 1000
    assert tr.instants("dsp.drop:ctrl")
    assert reg.to_dict()["dsp.invocations.ctrl"]["value"] == 2
    assert reg.to_dict()["dsp.load_mips.DSP"]["value"] == 0.0   # after drop


# -- simulator metrics ---------------------------------------------------------


def test_simulator_metrics_fifo_depths_and_rates():
    cfg = _scale_config()
    with collecting(snapshot_every=2) as reg:
        stats = execute(cfg, inputs={"x": [1, 2, 3, 4]}).stats
    d = reg.to_dict()
    assert d["sim.steps"]["value"] == stats.cycles
    assert d["sim.firings"]["value"] == stats.total_firings
    assert d["sim.fifo_depth"]["count"] > 0
    assert d[f"sim.stop.{stats.stop_reason}"]["value"] == 1
    assert d["sim.tokens_per_cycle.y"]["value"] == \
        pytest.approx(stats.throughput("y"))
    assert reg.snapshots       # periodic snapshotting ran
    assert reg.snapshots[0]["cycle"] <= stats.cycles


# -- overhead (tentpole acceptance) --------------------------------------------


def _bare_run(self, max_cycles, *, until=None, quiescent_limit=8):
    """The seed's uninstrumented run loop, for overhead comparison."""
    start_cycle = self.cycle
    idle = 0
    while self.cycle - start_cycle < max_cycles:
        if until is not None and until():
            break
        fired = self.step()
        if fired == 0:
            idle += 1
            if idle >= quiescent_limit:
                break
        else:
            idle = 0
    return self.collect_stats(self.cycle - start_cycle)


def _time_fft64(reps=3):
    from repro.kernels import Fft64Kernel

    rng = np.random.default_rng(0)
    re = rng.integers(-512, 512, 64).astype(np.int64)
    im = rng.integers(-512, 512, 64).astype(np.int64)
    best = float("inf")
    for _ in range(reps):
        t0 = time.perf_counter()
        Fft64Kernel().run(re, im)
        best = min(best, time.perf_counter() - t0)
    return best


def test_tracing_disabled_overhead_within_5_percent(monkeypatch):
    """FFT64 with tracing disabled vs the uninstrumented seed loop."""
    telemetry.disable_tracing()
    telemetry.disable_metrics()
    _time_fft64(reps=1)                     # warm caches / JIT-free warmup
    for attempt in range(4):
        instrumented = _time_fft64()
        with monkeypatch.context() as m:
            m.setattr(Simulator, "run", _bare_run)
            bare = _time_fft64()
        ratio = instrumented / bare
        if ratio <= 1.05:
            break
    assert ratio <= 1.05, f"tracing-off overhead {ratio:.3f}x after retries"


def test_trace_fig10_example_writes_valid_chrome_trace(tmp_path):
    """Acceptance: the example's trace shows the 2a removal and the 2b
    load on the freed resources, in valid trace_event JSON."""
    import json
    import subprocess
    import sys
    from pathlib import Path

    script = Path(__file__).parent.parent / "examples" / "trace_fig10.py"
    proc = subprocess.run([sys.executable, str(script), str(tmp_path)],
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr[-2000:]

    trace = json.loads((tmp_path / "fig10_trace.json").read_text())
    events = trace["traceEvents"]
    by_name = {e["name"]: e for e in events if e["ph"] == "X"}
    remove_2a = by_name["config.remove:acq_correlator"]
    load_2b = by_name["config.load:demodulator"]
    assert remove_2a["ts"] <= load_2b["ts"]         # 2b loads after 2a frees
    assert load_2b["dur"] > 0
    # the resident configuration loads first and is never removed between
    load_1 = by_name["config.load:resident_fft0"]
    assert load_1["ts"] <= remove_2a["ts"]
    # metrics dump rides along with the RunStats payload
    metrics = json.loads((tmp_path / "fig10_metrics.json").read_text())
    assert metrics["runs"][0]["stop_reason"] == STOP_UNTIL
    assert "config.load_cycles" in metrics["metrics"]


def test_tracing_enabled_still_produces_correct_results():
    from repro.kernels import Fft64Kernel
    from repro.ofdm.fft import fft64_fixed

    rng = np.random.default_rng(1)
    re = rng.integers(-512, 512, 64).astype(np.int64)
    im = rng.integers(-512, 512, 64).astype(np.int64)
    gr, gi = fft64_fixed(re, im)
    with tracing() as tr:
        yr, yi = Fft64Kernel().run(re, im)
    assert np.array_equal(yr, gr) and np.array_equal(yi, gi)
    assert len(tr.spans("sim.run")) == 3        # one per stage
