"""The traced run: per-layer metrics and the "where an item spends its
time" table.

For each workload the same fixed amount of work runs twice: once
untraced, once with spans wrapped around the public functions of every
``repro`` module on its path.  The difference in wall time is the
tracing overhead.  ``repro.telemetry`` stays off in both passes.

Per-layer metric names are ``<workload>.<layer>.<what>``.  Times ending
in ``_ms`` are means per steady item -- a serve round, a kernel block,
an OFDM packet -- except the ``serve_rake`` replay metrics (per slot)
and ``fastpath.compile_ms`` (total over the pass).  Counts are totals
over the traced pass and repeat exactly for a given seed.
"""

from __future__ import annotations

import pickle
import time

from spans import Recorder

clock = time.perf_counter


def _per_item_ms(rec: Recorder, items: int, *names: str) -> float:
    """Steady-window time of the named spans, in ms per steady item."""
    return 1e3 * sum(rec.total_s(n) for n in names) / items


def _self_metrics(prefix: str, rec: Recorder, items: int) -> dict:
    """Self time per layer in ms per steady item, and the share of the
    steady window the program's layers account for (the rest is the
    benchmark's own loop and hooks)."""
    out = {}
    by_layer = rec.self_by("layer")
    for layer, self_s in sorted(by_layer.items()):
        if layer != "bench":
            out[f"{prefix}.self.{layer}_ms"] = (1e3 * self_s / items, "ms")
    lo, hi = rec.window()
    program = sum(v for k, v in by_layer.items() if k != "bench")
    out[f"{prefix}.accounted_pct"] = (100.0 * program / (hi - lo), "%")
    return out


# -- xpp / fastpath / kernels, shared by both array workloads -------------------------


def _wrap_array_layers(rec: Recorder) -> None:
    """Spans and counts around the simulator and its compiled backend."""
    from repro.fastpath import runtime as fp_runtime
    from repro.fastpath.ir import UnsupportedGraphError
    from repro.xpp.io import StreamSource
    from repro.xpp.manager import ConfigurationManager
    from repro.xpp.simulator import Simulator

    def fell_back(exc):
        if isinstance(exc, UnsupportedGraphError):
            rec.counts["fastpath.fallbacks"] += 1

    def compiled(result, _args, _kwargs):
        rec.counts["fastpath.compiled"] += 1
        rec.counts["fastpath.cache_hits" if result[3]
                   else "fastpath.cache_misses"] += 1

    def ran(stats, _args, _kwargs):
        rec.counts["xpp.sim_cycles"] += stats.cycles

    rec.wrap(ConfigurationManager, "load", "xpp.load")
    rec.wrap(ConfigurationManager, "remove", "xpp.remove")
    rec.wrap(StreamSource, "set_data", "xpp.set_data")
    rec.wrap(Simulator, "__init__", "xpp.simulator_init")
    rec.wrap(Simulator, "run", "xpp.run", on_result=ran)
    rec.wrap(fp_runtime, "capture", "fastpath.capture", on_error=fell_back)
    rec.wrap(fp_runtime, "check_runtime_state", "fastpath.check",
             on_error=fell_back)
    rec.wrap(fp_runtime, "compile_graph", "fastpath.compile",
             on_result=compiled, on_error=fell_back)
    rec.count_calls(fp_runtime.FastpathScheduler, "step", "xpp.step_calls")
    rec.count_calls(fp_runtime.FastpathScheduler, "step_n",
                    "xpp.step_calls")


def _xpp_metrics(prefix: str, rec: Recorder, items: int) -> dict:
    # counts cover the whole pass, so the rate divides by the whole
    # pass's simulation time
    run_s = rec.total_s("xpp.run", steady=False)
    cycles = rec.counts["xpp.sim_cycles"]
    return {
        f"{prefix}.kernels.build_config_ms": (
            _per_item_ms(rec, items, "kernels.build_config"), "ms"),
        f"{prefix}.xpp.load_ms": (
            _per_item_ms(rec, items, "xpp.load", "xpp.remove"), "ms"),
        f"{prefix}.xpp.run_ms": (_per_item_ms(rec, items, "xpp.run"), "ms"),
        f"{prefix}.xpp.sim_cycles": (cycles, "count"),
        f"{prefix}.xpp.sim_cycles_per_s": (cycles / run_s, "1/s"),
        f"{prefix}.xpp.step_calls": (rec.counts["xpp.step_calls"], "count"),
    }


# -- kernel_rake_chain ---------------------------------------------------------------


def trace_kernel(wl, rec: Recorder) -> tuple:
    from repro.kernels import rake_chain

    _wrap_array_layers(rec)
    rec.wrap(rake_chain.RakeChainKernel, "run", "kernels.rake_chain")
    rec.wrap(rake_chain.RakeChainKernel, "prepare_streams",
             "kernels.prepare")
    rec.wrap(rake_chain, "build_rake_chain_config", "kernels.build_config")
    rec.wrap(rake_chain, "execute", "xpp.execute")
    try:
        with rec.span("bench.kernel_rake_chain"):
            steady = wl.run_fixed(rec) - 1
    finally:
        rec.restore()
    p = wl.name
    out = _xpp_metrics(p, rec, steady)
    out.update({
        f"{p}.kernels.prepare_ms": (
            _per_item_ms(rec, steady, "kernels.prepare"), "ms"),
        f"{p}.xpp.set_data_ms": (
            _per_item_ms(rec, steady, "xpp.set_data"), "ms"),
        f"{p}.fastpath.compile_ms": (
            1e3 * rec.total_s("fastpath.compile", steady=False), "ms"),
        f"{p}.fastpath.cache_hits": (rec.counts["fastpath.cache_hits"],
                                     "count"),
        f"{p}.fastpath.cache_misses": (rec.counts["fastpath.cache_misses"],
                                       "count"),
    })
    out.update(_self_metrics(p, rec, steady))
    return steady, out


# -- campaign_ofdm_array -------------------------------------------------------------


def trace_campaign(wl, rec: Recorder) -> tuple:
    from repro import campaign
    from repro.campaign import checkpoint, pool
    from repro.kernels import fft64
    from repro.ofdm import receiver as ofdm_receiver
    from repro.ofdm.transmitter import OfdmTransmitter
    from repro.wcdma import channel
    from repro.wlan.decoder import ArrayOfdmReceiver

    _wrap_array_layers(rec)
    rec.wrap(campaign, "run_campaign", "campaign.run")
    rec.wrap(pool, "run_shard", "campaign.shard")
    rec.wrap(pool, "aggregate", "campaign.aggregate")
    rec.wrap(checkpoint.Checkpoint, "append", "campaign.checkpoint")
    rec.wrap(OfdmTransmitter, "transmit", "ofdm.transmit")
    rec.wrap(channel, "awgn", "wcdma.awgn")
    rec.wrap(ArrayOfdmReceiver, "receive", "wlan.receive")
    rec.wrap(ofdm_receiver, "viterbi_decode", "ofdm.viterbi")
    rec.wrap(fft64.Fft64Kernel, "run", "kernels.fft64")
    rec.wrap(fft64, "build_fft_stage_config", "kernels.build_config")
    try:
        with rec.span("bench.campaign_ofdm_array"):
            steady = wl.run_fixed(rec) - 1
    finally:
        rec.restore()
    p = wl.name
    attempts = rec.calls("fastpath.capture", steady=False)
    out = _xpp_metrics(p, rec, steady)
    out.update({
        f"{p}.kernels.fft64_ms": (
            _per_item_ms(rec, steady, "kernels.fft64"), "ms"),
        f"{p}.kernels.fft64_calls": (
            rec.calls("kernels.fft64", steady=False), "count"),
        f"{p}.fastpath.fallbacks": (rec.counts["fastpath.fallbacks"],
                                    "count"),
        f"{p}.fastpath.attempts": (attempts, "count"),
        f"{p}.fastpath.useful_ratio": (
            rec.counts["fastpath.compiled"] / attempts, "ratio"),
        f"{p}.ofdm.transmit_ms": (
            _per_item_ms(rec, steady, "ofdm.transmit"), "ms"),
        f"{p}.wlan.receive_ms": (
            _per_item_ms(rec, steady, "wlan.receive"), "ms"),
        f"{p}.campaign.shard_ms": (
            _per_item_ms(rec, steady, "campaign.shard"), "ms"),
        f"{p}.campaign.overhead_ms": (
            _per_item_ms(rec, steady, "campaign.run")
            - _per_item_ms(rec, steady, "campaign.shard"), "ms"),
        f"{p}.campaign.checkpoint_bytes": (wl.checkpoint_bytes, "count"),
    })
    out.update(_self_metrics(p, rec, steady))
    return steady, out


# -- serve_rake ----------------------------------------------------------------------


def _slot_compute_s(replies) -> float:
    """Compute time of the slots in step replies, as the shard timed it."""
    return sum(s for _shard, reply in replies
               if reply[0] == "ok" and reply[1] == "step"
               for s in reply[2]["slot_s"])


def trace_serve(wl, rec: Recorder) -> tuple:
    """Broker-side spans; the child's slot compute enters the trace as
    the ``shard.slot_compute`` child of the ``pool.collect`` that waited
    for it, so the rest of that wait is IPC and state shipping."""
    from repro.serve import broker, journal, shard

    rounds = []                 # (round_s, slot_compute_s) per round
    setup = {"first_admit_s": None, "warmed": 0, "t_admit": None}
    shipped = {"state_bytes": 0}

    def sent(_result, args, _kwargs):
        if args[2][0] == "admit" and setup["t_admit"] is None:
            setup["t_admit"] = clock()

    def collected(result, _args, _kwargs):
        for _shard, reply in result[0]:
            if reply[0] == "ok" and reply[1] == "admit":
                setup["warmed"] += reply[2].get("warmed", 0)
                if setup["first_admit_s"] is None:
                    setup["first_admit_s"] = clock() - setup["t_admit"]
            elif reply[0] == "ok" and reply[1] == "step":
                for r in reply[2]["advanced"]:
                    shipped["state_bytes"] += len(pickle.dumps(r["state"]))

    real_collect = shard.ShardPool.collect

    def collect(self, timeout_s):
        out = real_collect(self, timeout_s)
        compute = _slot_compute_s(out[0])
        if compute:
            rec.add_child("shard.slot_compute", compute)
        return out

    def on_round(latency, _t_done, replies):
        rounds.append((latency, _slot_compute_s(replies)))

    rec.patch(shard.ShardPool, "collect", collect)
    rec.wrap(broker.SessionBroker, "run", "serve.run")
    rec.wrap(broker.SessionBroker, "submit", "serve.submit")
    rec.wrap(shard.ShardPool, "start", "pool.start")
    rec.wrap(shard.ShardPool, "stop", "pool.stop")
    rec.wrap(shard.ShardPool, "send", "pool.send", on_result=sent)
    rec.wrap(shard.ShardPool, "collect", "pool.collect",
             on_result=collected)
    rec.wrap(journal.ServeJournal, "emit", "journal.emit")
    try:
        with rec.span("bench.serve_rake"):
            wl.run_fixed(rec, on_round=on_round)
    finally:
        rec.restore()

    p = wl.name
    steady = rounds[1:]
    n = len(steady)
    round_s = sum(r for r, _c in steady)
    compute_s = sum(c for _r, c in steady)
    out = {
        f"{p}.serve.round_ms": (1e3 * round_s / n, "ms"),
        f"{p}.serve.slot_compute_ms": (1e3 * compute_s / n, "ms"),
        f"{p}.serve.round_overhead_ms": (
            1e3 * (round_s - compute_s) / n, "ms"),
        f"{p}.serve.state_bytes": (shipped["state_bytes"], "count"),
        f"{p}.serve.journal_records": (wl.fixed_journal_records, "count"),
        f"{p}.serve.journal_emit_ms": (
            _per_item_ms(rec, n, "journal.emit"), "ms"),
        f"{p}.serve.spawn_s": (rec.total_s("pool.start", steady=False), "s"),
        f"{p}.serve.first_admit_s": (setup["first_admit_s"], "s"),
        f"{p}.serve.warmed_configs": (setup["warmed"], "count"),
    }
    out.update(_self_metrics(p, rec, n))
    out.update(_replay_metrics(wl))
    return n, out


def _replay_metrics(wl) -> dict:
    """Replay one session in-process, timing the parts of a slot and
    the state round trip a migration pays."""
    from repro import wcdma
    from repro.rake.session import RakeSession
    from repro.serve import session
    from repro.wcdma import channel, transmitter

    rec = Recorder()
    rec.wrap(RakeSession, "process_block", "rake.process_block")
    rec.wrap(transmitter.Basestation, "transmit", "wcdma.transmit")
    rec.wrap(channel.MultipathChannel, "apply", "wcdma.channel")
    rec.wrap(wcdma, "awgn", "wcdma.awgn")
    spec = wl.fixed_specs[0]
    try:
        workload = session.build_workload(spec)
        for slot in range(spec.n_slots):
            rec.item = slot
            with rec.span("bench.slot"):
                workload.run_slot()
                with rec.span("serve.state"):
                    state = workload.state()
                with rec.span("serve.restore"):
                    workload = session.workload_from_state(spec, state)
    finally:
        rec.restore()
    p = wl.name
    n = spec.n_slots - 1
    return {
        f"{p}.rake.process_block_ms": (
            _per_item_ms(rec, n, "rake.process_block"), "ms"),
        f"{p}.wcdma.stimulus_ms": (
            _per_item_ms(rec, n, "wcdma.transmit", "wcdma.channel",
                         "wcdma.awgn"), "ms"),
        f"{p}.serve.state_ms": (_per_item_ms(rec, n, "serve.state"), "ms"),
        f"{p}.serve.restore_ms": (
            _per_item_ms(rec, n, "serve.restore"), "ms"),
    }


ITEM_NOUN = {"serve_rake": ("a", "serve round"),
             "kernel_rake_chain": ("a", "kernel block"),
             "campaign_ofdm_array": ("an", "OFDM packet")}


def layer_table(wl, rec: Recorder, steady: int, metrics: dict) -> list:
    """Markdown: self time per span over the steady items, largest
    first, with each row's share of the steady window."""
    article, noun = ITEM_NOUN[wl.name]
    lo, hi = rec.window()
    wall = hi - lo
    per = 1e3 / steady
    lines = [f"## Where {article} {noun} spends its time ({wl.name})", "",
             f"{steady} steady {noun}s after the set-up item, "
             f"{per * wall:.3f} ms each on average.  Self time excludes "
             f"the spans called from inside a span.", "",
             f"| span | calls per {noun} | self ms per {noun} | share |",
             "|---|---:|---:|---:|"]
    by_name = rec.self_by("name")
    for name, self_s in sorted(by_name.items(), key=lambda kv: -kv[1]):
        lines.append(f"| `{name}` | {rec.calls(name) / steady:.2f} "
                     f"| {per * self_s:.3f} | {100 * self_s / wall:.1f}% |")
    by_layer = rec.self_by("layer")
    lines += ["", "By layer: " + ", ".join(
        f"{layer} {100 * v / wall:.1f}%" for layer, v in
        sorted(by_layer.items(), key=lambda kv: -kv[1])) + ".  "
        f"`bench` is the benchmark's own loop and hooks; the program's "
        f"layers account for "
        f"{metrics[wl.name + '.accounted_pct'][0]:.1f}% of the window."]
    if wl.name == "serve_rake":
        p = wl.name
        slot = metrics[f"{p}.serve.slot_compute_ms"][0]
        lines.append(
            f"`shard.slot_compute` is the child's compute as the shard "
            f"timed it ({slot:.3f} ms per round).  Replayed in-process, "
            f"one slot spends "
            f"{metrics[p + '.rake.process_block_ms'][0]:.3f} ms in "
            f"`RakeSession.process_block` and "
            f"{metrics[p + '.wcdma.stimulus_ms'][0]:.3f} ms making its "
            f"stimulus (`repro.wcdma`); a state round trip costs "
            f"{metrics[p + '.serve.state_ms'][0]:.3f} ms to serialise and "
            f"{metrics[p + '.serve.restore_ms'][0]:.3f} ms to restore.  "
            f"The rest of `pool.collect` is the round's IPC overhead.")
    lines.append("")
    return lines


TRACERS = {"serve_rake": trace_serve, "kernel_rake_chain": trace_kernel,
           "campaign_ofdm_array": trace_campaign}
