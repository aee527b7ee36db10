"""Shard runners: one Monte-Carlo work unit per job kind.

A runner executes one shard with the shard's private RNG and returns a
JSON-serializable payload::

    {"counts": {<summable integer fields>}, "info": {<optional, not
     summed — identical for every shard of a job>}}

``counts`` is what the aggregator sums across a job's shards; the
kind's metric table (:data:`repro.campaign.aggregate.KIND_METRICS`)
names which count pairs turn into rates with confidence intervals.

Runner kinds
------------

``wcdma_dpch``
    The closed-loop DPCH link of :class:`repro.wcdma.link.DpchLink`:
    ``n_slots`` slots at one (Eb/N0, speed, slot format) point.
    ``speed_kmh`` is accepted as an alternative to ``doppler_hz``
    (Doppler at ``carrier_ghz``, default 2 GHz).

``ofdm_link``
    The 802.11a chain: ``n_packets`` packets transmitted, passed
    through AWGN at ``snr_db`` and decoded by the golden
    :class:`~repro.ofdm.receiver.OfdmReceiver` (``receiver="golden"``),
    the fixed-point-FFT variant (``"fixed"``) or the cycle-accurate
    array receiver (``"array"``).  A packet that fails to decode
    counts one packet error and, conservatively, all of its payload
    bits as bit errors.

``rake_scenarios``
    The deterministic Table 1 grid walk — a smoke/consistency workload
    exercising :mod:`repro.rake.scenarios` (no randomness).

``fault``
    Test-only fault injection: raise, hang, die or succeed after ``k``
    failed attempts, to exercise retry/backoff/degradation paths.

``chaos``
    Hardware-fault chaos: the descrambler kernel run under a seeded
    :class:`repro.faults.FaultInjector` schedule with a
    :class:`repro.faults.RecoveryPolicy` absorbing the damage.  The
    shard payload carries the final link ``status``
    (``ok``/``recovered``/``degraded``/``failed``), which the
    aggregator folds job- and campaign-wide.
"""

from __future__ import annotations

import os
import time

import numpy as np

from repro.campaign.spec import CampaignError
from repro.campaign.sharding import ShardTask

#: Doppler per km/h per GHz of carrier: v/c * f = (kmh/3.6)/3e8 * f.
_DOPPLER_HZ_PER_KMH_GHZ = 1e9 / 3.6 / 2.99792458e8


#: Environment variable the simulator backends key off (kept in sync
#: with :data:`repro.xpp.scheduler.SCHEDULER_ENV` without importing the
#: simulator into every worker at module load).
_SCHEDULER_ENV = "REPRO_XPP_SCHEDULER"


def run_shard(task: ShardTask, attempt: int = 0) -> dict:
    """Execute one shard; returns its result payload.

    The job's ``backend`` is exported through ``REPRO_XPP_SCHEDULER``
    for the duration of the shard, so every simulator the runner builds
    without an explicit scheduler picks it up; the previous value is
    restored afterwards (workers are reused across jobs with different
    backends).

    With ``task.telemetry`` set, the runner executes inside a
    :class:`repro.telemetry.flight.FlightRecorder` and the payload
    gains a ``"telemetry"`` key (cycle-stamped events, metric and probe
    dumps — deterministic for a given shard seed).  The pool lifts it
    onto ``ShardOutcome.telemetry`` so aggregation never sees it.
    """
    try:
        runner = RUNNERS[task.kind]
    except KeyError:
        raise CampaignError(f"no runner for kind {task.kind!r}")
    prev = os.environ.get(_SCHEDULER_ENV)
    os.environ[_SCHEDULER_ENV] = task.backend
    try:
        if not task.telemetry:
            return runner(task, attempt)
        from repro.telemetry.flight import FlightRecorder
        with FlightRecorder(max_events=task.max_events) as flight:
            result = runner(task, attempt)
        result["telemetry"] = flight.payload()
        return result
    finally:
        if prev is None:
            os.environ.pop(_SCHEDULER_ENV, None)
        else:
            os.environ[_SCHEDULER_ENV] = prev


# -- wcdma ---------------------------------------------------------------------------


def doppler_from_params(params: dict) -> float:
    """``doppler_hz`` directly, or derived from ``speed_kmh`` at the
    ``carrier_ghz`` carrier (default 2 GHz)."""
    if "doppler_hz" in params:
        return float(params["doppler_hz"])
    if "speed_kmh" in params:
        carrier = float(params.get("carrier_ghz", 2.0))
        return float(params["speed_kmh"]) * carrier * _DOPPLER_HZ_PER_KMH_GHZ
    return 10.0


def _run_wcdma_dpch(task: ShardTask, attempt: int) -> dict:
    from repro.wcdma.frames import SLOT_FORMATS
    from repro.wcdma.link import DpchLink, LinkReport

    params = task.param_dict
    fmt_number = int(params.get("slot_format", 11))
    if fmt_number not in SLOT_FORMATS:
        raise CampaignError(f"unknown slot format {fmt_number}; "
                            f"have {sorted(SLOT_FORMATS)}")
    from repro.telemetry import get_metrics, get_tracer

    link = DpchLink(
        SLOT_FORMATS[fmt_number],
        scrambling_number=int(params.get("scrambling_number", 0)),
        code_index=int(params.get("code_index", 1)),
        target_sir_db=float(params.get("target_sir_db", 8.0)),
        snr_db=float(params.get("snr_db", 6.0)),
        doppler_hz=doppler_from_params(params),
        rng=task.rng())
    report = LinkReport()
    tracer = get_tracer()
    # slot-indexed, value-deterministic telemetry: the flight payload
    # must not depend on wall clock or worker placement
    for slot in range(int(params.get("n_slots", 15))):
        link.run_slot(report)
        if tracer.enabled:
            tracer.complete("dpch_slot", ts=slot, dur=1, cat="wcdma")
            tracer.counter("wcdma.bit_errors", report.bit_errors,
                           "wcdma", ts=slot)
    d = report.to_dict()
    counts = {k: d[k] for k in ("n_slots", "data_bits", "bit_errors",
                                "block_errors", "tpc_errors")}
    metrics = get_metrics()
    for k in ("n_slots", "bit_errors", "block_errors"):
        metrics.counter(f"wcdma.{k}").inc(counts[k])
    return {"counts": counts}


# -- ofdm ----------------------------------------------------------------------------


def _make_ofdm_receiver(params: dict):
    from repro.ofdm.receiver import OfdmReceiver

    flavor = params.get("receiver", "golden")
    if flavor == "golden":
        return OfdmReceiver()
    if flavor == "fixed":
        return OfdmReceiver(use_fixed_fft=True,
                            input_frac_bits=int(params.get(
                                "input_frac_bits", 8)))
    if flavor == "array":
        from repro.wlan.decoder import ArrayOfdmReceiver
        return ArrayOfdmReceiver(
            input_frac_bits=int(params.get("input_frac_bits", 8)))
    raise CampaignError(f"unknown ofdm receiver {flavor!r}")


def _run_ofdm_link(task: ShardTask, attempt: int) -> dict:
    from repro.ofdm.receiver import PacketError
    from repro.ofdm.transmitter import OfdmTransmitter
    from repro.wcdma.channel import awgn

    from repro.telemetry import get_metrics, get_tracer

    params = task.param_dict
    rng = task.rng()
    rate = int(params.get("rate_mbps", 12))
    snr_db = float(params.get("snr_db", 10.0))
    length = int(params.get("length_bytes", 40))
    n_packets = int(params.get("n_packets", 4))
    pad = int(params.get("pad_samples", 40))
    tx = OfdmTransmitter(rate)
    receiver = _make_ofdm_receiver(params)
    tracer = get_tracer()

    counts = {"n_packets": 0, "packet_errors": 0, "data_bits": 0,
              "bit_errors": 0, "signal_failures": 0}
    for packet in range(n_packets):
        if tracer.enabled:
            # packet-indexed timebase keeps the payload deterministic
            tracer.complete("ofdm_packet", ts=packet, dur=1, cat="ofdm")
            tracer.counter("ofdm.bit_errors", counts["bit_errors"],
                           "ofdm", ts=packet)
        psdu = rng.integers(0, 2, 8 * length)
        ppdu = tx.transmit(psdu)
        sig = awgn(np.concatenate([np.zeros(pad, complex), ppdu.samples]),
                   snr_db, rng)
        counts["n_packets"] += 1
        counts["data_bits"] += psdu.size
        try:
            out, report = receiver.receive(sig, expected_rate=rate)
        except PacketError:
            counts["packet_errors"] += 1
            counts["bit_errors"] += psdu.size
            counts["signal_failures"] += 1
            continue
        if not report.signal_ok:
            counts["signal_failures"] += 1
        if out.size != psdu.size:
            counts["packet_errors"] += 1
            counts["bit_errors"] += psdu.size
            continue
        errors = int(np.sum(out != psdu))
        counts["bit_errors"] += errors
        counts["packet_errors"] += 1 if errors else 0
    metrics = get_metrics()
    for k in ("n_packets", "packet_errors", "bit_errors"):
        metrics.counter(f"ofdm.{k}").inc(counts[k])
    return {"counts": counts}


# -- rake scenarios ------------------------------------------------------------------


def _run_rake_scenarios(task: ShardTask, attempt: int) -> dict:
    from repro.rake.scenarios import FingerScenario, table1

    params = task.param_dict
    max_bs = int(params.get("max_basestations", 6))
    max_ch = int(params.get("max_channels", 2))
    max_mp = int(params.get("max_multipaths", 3))
    feasible = 0
    full_clock = 0
    fingers = 0
    total = 0
    for bs in range(1, max_bs + 1):
        for ch in range(1, max_ch + 1):
            for mp in range(1, max_mp + 1):
                total += 1
                s = FingerScenario(bs, ch, mp)
                if not s.feasible:
                    continue
                feasible += 1
                fingers += s.logical_fingers
                full_clock += 1 if s.requires_full_clock else 0
    rows = table1(max_basestations=max_bs, max_multipaths=max_mp)
    from repro.telemetry import get_metrics, get_tracer
    tracer = get_tracer()
    if tracer.enabled:
        tracer.complete("table1_walk", ts=0, dur=total, cat="rake")
        tracer.counter("rake.feasible", feasible, "rake", ts=total)
    get_metrics().counter("rake.scenarios").inc(total)
    return {"counts": {"scenarios": total, "feasible": feasible,
                       "full_clock": full_clock,
                       "logical_fingers": fingers},
            "info": {"table1_rows": [list(r) for r in rows]}}


# -- fault injection (tests) ---------------------------------------------------------


def _run_fault(task: ShardTask, attempt: int) -> dict:
    """Deterministic failures for the pool's fault-tolerance tests."""
    params = task.param_dict
    mode = params.get("mode", "ok")
    if mode == "raise":
        raise RuntimeError(f"injected fault (shard {task.shard_index})")
    if mode == "hang":
        time.sleep(float(params.get("sleep_s", 60.0)))
    elif mode == "die_once" and attempt < int(params.get("fail_attempts", 1)):
        # kill the worker mid-shard without a result (pool runs only:
        # under the serial runner this would take the campaign with it)
        os._exit(3)
    elif mode == "flaky" and attempt < int(params.get("fail_attempts", 1)):
        raise RuntimeError(f"injected flaky fault (attempt {attempt})")
    elif mode not in ("ok", "flaky", "die_once"):
        raise CampaignError(f"unknown fault mode {mode!r}")
    # a token draw so fault shards still exercise the RNG plumbing
    value = int(task.rng().integers(0, 1000))
    return {"counts": {"works": 1, "value": value,
                       "attempts_used": attempt + 1}}


# -- chaos (hardware fault injection) ------------------------------------------------


def _chaos_pass(cfg, mgr, code, packed, n_chips: int, half_bits: int):
    """One descrambler pass on whatever is currently resident."""
    from repro.fixed import unpack_array
    from repro.xpp.simulator import Simulator, SinksDone

    cfg.sources["code"].set_data(code)
    cfg.sources["data"].set_data(packed)
    sink = cfg.sinks["out"]
    sim = Simulator(mgr)
    sim.run(40 * n_chips + 400, until=SinksDone([sink]))
    return unpack_array(np.array(sink.received, dtype=np.int64), half_bits)


def _run_chaos(task: ShardTask, attempt: int) -> dict:
    """Descrambler kernel under a seeded fault schedule with recovery.

    Fault rates come straight from the job params (``stuck_at``,
    ``transient``, ``token_drop``, ``token_dup``, ``ram_bit_flip``,
    ``config_load`` — expected injection counts fed to
    :func:`repro.faults.plan_faults`); ``load_failures`` additionally
    schedules that many deterministic configuration-bus failures, so a
    smoke campaign can force the retry budget to exhaust.  The payload
    ``status`` is the link's final state after the recovery policy has
    absorbed everything: corrupted output triggers a remap onto spare
    PAEs with the suspect slot quarantined, and when all else fails the
    golden software model keeps the link up at ``degraded``.
    """
    from repro.faults import (
        STATUS_DEGRADED,
        ConfigLoadFault,
        FaultInjector,
        RecoveryPolicy,
        plan_faults,
        worst_status,
    )
    from repro.fixed import pack_array
    from repro.kernels.descrambler import (
        build_descrambler_config,
        descrambler_golden,
    )
    from repro.xpp.manager import ConfigurationManager

    params = task.param_dict
    rng = task.rng()
    n_chips = int(params.get("n_chips", 64))
    retries = int(params.get("retries", 3))
    half_bits = 12
    lim = 1 << (half_bits - 1)
    data_re = rng.integers(-lim, lim, n_chips)
    data_im = rng.integers(-lim, lim, n_chips)
    code = rng.integers(0, 4, n_chips)
    golden = descrambler_golden(data_re, data_im, code)
    packed = pack_array(data_re + 1j * data_im, half_bits)

    cfg = build_descrambler_config(half_bits=half_bits)
    cfg.sinks["out"].expect = n_chips
    rates = {k: float(params.get(k, 0.0)) for k in
             ("stuck_at", "transient", "token_drop", "token_dup",
              "ram_bit_flip", "config_load")}
    faults = plan_faults(cfg, rng, rates=rates,
                         horizon=int(params.get("horizon", n_chips)))
    load_failures = int(params.get("load_failures", 0))
    if load_failures:
        faults.append(ConfigLoadFault(config=cfg.name, mode="fail",
                                      count=load_failures))

    injector = FaultInjector(faults)
    mgr = ConfigurationManager()
    injector.arm_manager(mgr)
    injector.arm_config(cfg)
    policy = RecoveryPolicy(mgr, retries=retries)

    counts = {"runs": 1, "planned_faults": len(faults),
              "output_errors": 0, "remaps": 0, "golden_fallbacks": 0}
    out = None
    if policy.load_with_recovery(cfg).ok:
        out = _chaos_pass(cfg, mgr, code, packed, n_chips, half_bits)
        errors = int(np.sum(out != golden)) if out.size == golden.size \
            else n_chips
        counts["output_errors"] = errors
        if errors:
            # corrupted output detected: a remapped load routes around
            # the suspect PAEs, so the rerun must leave the injected
            # wire/RAM faults behind — detach before remapping
            injector.detach()
            entry = mgr.loaded.get(cfg.name)
            bad = entry.slots[:1] if entry is not None else ()
            counts["remaps"] = 1
            out = _chaos_pass(cfg, mgr, code, packed, n_chips, half_bits) \
                if policy.handle_corruption(cfg, bad_slots=bad).ok else None

    status = policy.status
    if out is None or out.size != golden.size or bool(np.any(out != golden)):
        # terminal fallback: the golden software model keeps the link up
        counts["golden_fallbacks"] = 1
        policy.degrade(cfg.name, "array output unrecoverable")
        status = worst_status((status, STATUS_DEGRADED))
    injector.detach()
    counts["injections"] = len(injector.events)
    counts[f"{status}_runs"] = 1
    return {"counts": counts, "status": status}


RUNNERS = {
    "wcdma_dpch": _run_wcdma_dpch,
    "ofdm_link": _run_ofdm_link,
    "rake_scenarios": _run_rake_scenarios,
    "fault": _run_fault,
    "chaos": _run_chaos,
}
