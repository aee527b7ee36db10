"""Tests for the content-addressed fastpath compile cache.

Covers the fingerprint (structure-only, data-free), the in-process LRU
(hits return the very same function objects, nothing touches disk),
the campaign wiring (N in-process shards of one config compile once,
each pooled shard process compiles once, resume stays byte-identical)
and the configuration manager's K-PACT-style prefetch hook.
"""

import json
import os

import numpy as np
import pytest

from repro.campaign import CampaignSpec, run_campaign
from repro.campaign.status import events_path_for
from repro.fastpath import cache
from repro.fastpath.capture import capture
from repro.kernels import (
    build_descrambler_config,
    build_despreader_config,
    build_fft_stage_config,
)
from repro.telemetry import flight
from repro.xpp import execute
from repro.xpp.config import Configuration
from repro.xpp.manager import ConfigurationManager
from repro.xpp.objects import DataflowObject


@pytest.fixture(autouse=True)
def _cold_cache():
    """Every test starts with an empty LRU."""
    cache.clear_memory_cache()
    yield
    cache.clear_memory_cache()


def _graph(cfg=None):
    mgr = ConfigurationManager()
    mgr.load(cfg if cfg is not None else build_descrambler_config())
    return capture(mgr)


def _run_descrambler(scheduler, n=32):
    rng = np.random.default_rng(3)
    cfg = build_descrambler_config()
    cfg.sinks["out"].expect = n
    res = execute(cfg, inputs={"code": rng.integers(0, 4, n),
                               "data": rng.integers(0, 1 << 24, n)},
                  max_cycles=2000, scheduler=scheduler)
    return res.outputs, (res.stats.cycles, res.stats.total_firings,
                         res.stats.energy)


# -- fingerprint ------------------------------------------------------------------


def test_fingerprint_is_structural_and_stable():
    fp1 = cache.graph_fingerprint(_graph())
    fp2 = cache.graph_fingerprint(_graph())
    assert fp1 == fp2 and len(fp1) == 64


def test_fingerprint_ignores_stream_data():
    cfg = build_descrambler_config()
    mgr = ConfigurationManager()
    mgr.load(cfg)
    fp1 = cache.graph_fingerprint(capture(mgr))
    cfg.sources["data"].set_data([1, 2, 3])
    fp2 = cache.graph_fingerprint(capture(mgr))
    assert fp1 == fp2       # data rides in via env/state, not the kernel


def test_fingerprint_tracks_baked_parameters():
    fp_a = cache.graph_fingerprint(_graph(build_despreader_config(2, 4)))
    fp_b = cache.graph_fingerprint(_graph(build_despreader_config(2, 8)))
    assert fp_a != fp_b     # sf changes comparator consts baked in source


def test_fft_stages_share_one_kernel():
    # stage schedules and RAM images are preloads, which ride in at
    # call time: all three stages of every FFT64 hit one compiled kernel
    fps = {cache.graph_fingerprint(_graph(build_fft_stage_config(
        stage, list(range(64))))) for stage in range(3)}
    assert len(fps) == 1
    g = _graph(build_fft_stage_config(0, [0] * 64, name="other"))
    assert cache.graph_fingerprint(g) in fps


def test_fingerprint_tracks_ram_geometry():
    def ram_graph(**params):
        from repro.xpp import ConfigBuilder
        b = ConfigBuilder("ram")
        ram = b.ram(name="ram", **params)
        b.connect(b.source("a"), 0, ram, "raddr")
        b.connect(ram, "rdata", b.sink("y"), 0)
        return _graph(b.build())
    fp = cache.graph_fingerprint(ram_graph(words=8))
    assert fp == cache.graph_fingerprint(ram_graph(words=8, preload=[1]))
    assert fp != cache.graph_fingerprint(ram_graph(words=16))
    assert fp != cache.graph_fingerprint(ram_graph(words=8, bits=16))


# -- memory layer -----------------------------------------------------------------


def test_memory_hit_returns_identical_functions():
    # two captures of one netlist shape get the identical Netlist: its
    # kernels, schedule memo and data plan
    g = _graph(build_despreader_config(2, 4))
    n1, g1, fp1, hit1 = cache.compile_graph(g)
    n2, g2, fp2, hit2 = cache.compile_graph(_graph(
        build_despreader_config(2, 4)))
    assert (hit1, hit2) == (False, True)
    assert fp1 == fp2
    assert n2 is n1
    assert g1 is g and g2 is not g          # each lookup's own capture
    assert n1.epochs and callable(n1.trace)
    assert cache.probe(fp1) == "memory"


def test_cached_session_is_bit_identical():
    ref = _run_descrambler("naive")
    first = _run_descrambler("fastpath")        # compiles (miss)
    assert cache.probe(cache.graph_fingerprint(_graph())) == "memory"
    second = _run_descrambler("fastpath")       # memory hit
    assert first == ref
    assert second == ref


def test_lru_evicts_oldest(monkeypatch):
    monkeypatch.setattr(cache, "LRU_MAX", 2)
    fps = []
    for sf in (4, 8, 16):
        _, _, fp, _ = cache.compile_graph(_graph(
            build_despreader_config(2, sf)))
        fps.append(fp)
    assert cache.probe(fps[0]) == "miss"        # evicted
    assert cache.probe(fps[1]) == "memory"
    assert cache.probe(fps[2]) == "memory"


def test_no_cache_dir_means_memory_only(tmp_path, monkeypatch):
    # a compile writes no file, wherever the process happens to run
    monkeypatch.chdir(tmp_path)
    _, _, fp, hit = cache.compile_graph(_graph(build_despreader_config(2, 4)))
    assert not hit
    assert not list(tmp_path.iterdir())
    cache.clear_memory_cache()
    assert cache.probe(fp) == "miss"


# -- campaign wiring --------------------------------------------------------------


def _chaos_spec(shards=4):
    """Four shards of one clean (zero-fault-rate) descrambler config on
    the fastpath backend: the canonical compile-once workload."""
    return CampaignSpec.from_dict(
        {"name": "cache", "master_seed": 17,
         "jobs": [{"job_id": "clean", "kind": "chaos",
                   "backend": "fastpath",
                   "params": {"n_chips": 16}, "shards": shards}]})


def _shard_cache_counters(run):
    out = []
    for o in run.outcomes:
        counters = flight.ShardTelemetry.from_dict(o.telemetry).counters
        out.append({k.rsplit(".", 1)[1]: int(v)
                    for k, v in counters.items()
                    if k.startswith("fastpath.cache.")})
    return out

def test_four_shards_compile_once():
    cache.clear_memory_cache()
    run = run_campaign(_chaos_spec(), workers=1, flight_recorder=True)
    assert all(o.ok for o in run.outcomes)
    per_shard = _shard_cache_counters(run)
    assert len(per_shard) == 4
    misses = sum(c.get("miss", 0) for c in per_shard)
    hits = sum(c.get("hit", 0) for c in per_shard)
    assert misses == 1                  # exactly one compile...
    assert hits >= 3                    # ...every other shard reuses it


def test_checkpoint_resume_with_cache_is_byte_identical(tmp_path):
    spec = _chaos_spec()
    ref = run_campaign(spec, workers=1)         # no checkpoint
    ck = tmp_path / "ck.jsonl"
    cache.clear_memory_cache()
    partial = run_campaign(spec, workers=1, checkpoint_path=ck,
                           max_shards=2)
    assert not partial.complete
    assert not os.path.exists(str(ck) + ".fpcache")
    cache.clear_memory_cache()                  # "new process" resumes
    resumed = run_campaign(spec, workers=1, checkpoint_path=ck)
    assert resumed.complete
    assert not os.path.exists(str(ck) + ".fpcache")
    assert json.dumps(resumed.results, sort_keys=True) == \
        json.dumps(ref.results, sort_keys=True)


def test_pooled_shards_compile_once_per_process(tmp_path):
    """Each pooled shard runs in its own child process with its own LRU:
    one compile per shard, results byte-identical to the in-process
    run, and nothing next to the checkpoint but the checkpoint and its
    event log."""
    spec = _chaos_spec()
    ck = tmp_path / "ck.jsonl"
    pooled = run_campaign(spec, workers=2, checkpoint_path=ck,
                          flight_recorder=True)
    assert pooled.complete and all(o.ok for o in pooled.outcomes)
    assert [c.get("miss") for c in _shard_cache_counters(pooled)] \
        == [1] * 4
    assert sorted(os.listdir(tmp_path)) == sorted(
        [ck.name, os.path.basename(events_path_for(ck))])
    cache.clear_memory_cache()
    serial = run_campaign(spec, workers=1, flight_recorder=True)
    assert json.dumps(pooled.results, sort_keys=True) == \
        json.dumps(serial.results, sort_keys=True)


# -- fallback rollup --------------------------------------------------------------


def test_fallback_rollup_sums_counters():
    class _O:
        def __init__(self, ji, si, counters):
            self.job_index = ji
            self.shard_index = si
            self.telemetry = {
                "version": 1, "events": [],
                "metrics": {name: {"type": "counter", "value": v}
                            for name, v in counters.items()}}

    outcomes = [
        _O(0, 0, {"fastpath.fallback": 2,
                  "fastpath.fallback.fault-tap": 2}),
        _O(0, 1, {"fastpath.fallback": 1,
                  "fastpath.fallback.unsupported-type": 1}),
        _O(0, 2, {}),
    ]
    rollup = flight.fallback_rollup(outcomes)
    assert rollup == {"total": 3,
                      "by_code": {"fault-tap": 2, "unsupported-type": 1}}


def test_clean_campaign_reports_zero_fallbacks():
    run = run_campaign(_chaos_spec(shards=2), workers=1,
                       flight_recorder=True)
    rollup = flight.fallback_rollup(run.outcomes)
    assert rollup == {"total": 0, "by_code": {}}


# -- prefetch ---------------------------------------------------------------------


def test_prefetch_warms_the_cache():
    mgr = ConfigurationManager()
    cfg = build_despreader_config(2, 4)
    fp = mgr.prefetch(cfg)
    assert fp is not None
    assert cache.probe(fp) == "memory"
    # the swap's compile is the warmed kernel: same fingerprint
    mgr.load(cfg)
    assert cache.graph_fingerprint(capture(mgr)) == fp
    _, _, _, hit = cache.compile_graph(capture(mgr))
    assert hit


def test_prefetch_with_removal_matches_post_swap_netlist():
    mgr = ConfigurationManager()
    cfg_a = build_descrambler_config("cfg_a")
    cfg_b = build_despreader_config(2, 4, name="cfg_b")
    mgr.load(cfg_a)
    fp = mgr.prefetch(cfg_b, removing=("cfg_a",))
    assert fp is not None
    mgr.remove(cfg_a)
    mgr.load(cfg_b)
    assert cache.graph_fingerprint(capture(mgr)) == fp


class _Custom(DataflowObject):
    """A user-defined object: no exact-type entry in KIND_OF."""

    def __init__(self):
        super().__init__("custom", 1, 1)

    def compute(self, args):
        return args


def test_prefetch_unsupported_netlist_returns_none():
    cfg = Configuration("custom_mode")
    cfg.add(_Custom())
    assert ConfigurationManager().prefetch(cfg) is None
