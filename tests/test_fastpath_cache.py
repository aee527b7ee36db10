"""Tests for the content-addressed fastpath compile cache.

Covers the fingerprint (structure-only, data-free), the in-process LRU
(hits return the very same function objects), the on-disk artifact
store (corrupt/stale artifacts recompile, version bumps invalidate),
the campaign wiring (N shards of one config compile once, resume stays
byte-identical with the cache mounted) and the configuration manager's
K-PACT-style prefetch hook.
"""

import json
import marshal
import os

import numpy as np
import pytest

from repro.campaign import CampaignSpec, run_campaign
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
def _cold_cache(monkeypatch):
    """Every test starts with an empty LRU and no disk store mounted."""
    monkeypatch.delenv(cache.CACHE_DIR_ENV, raising=False)
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


def test_version_bump_invalidates(monkeypatch):
    g = _graph()
    fp_old = cache.graph_fingerprint(g)
    monkeypatch.setattr(cache, "CACHE_VERSION", cache.CACHE_VERSION + 1)
    assert cache.graph_fingerprint(g) != fp_old


# -- memory layer -----------------------------------------------------------------


def test_memory_hit_returns_identical_functions():
    g = _graph(build_despreader_config(2, 4))
    trace1, epochs1, fp1, hit1 = cache.compile_graph(g)
    trace2, epochs2, fp2, hit2 = cache.compile_graph(_graph(
        build_despreader_config(2, 4)))
    assert (hit1, hit2) == (False, True)
    assert fp1 == fp2
    assert trace2 is trace1
    assert epochs1 and all(b is a for a, b in zip(epochs1, epochs2))
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


# -- disk layer -------------------------------------------------------------------


def test_disk_store_and_hit(tmp_path, monkeypatch):
    monkeypatch.setenv(cache.CACHE_DIR_ENV, str(tmp_path))
    g = _graph(build_despreader_config(2, 4))
    _, _, fp, hit = cache.compile_graph(g)
    assert not hit
    assert os.path.exists(cache.artifact_path(fp))
    cache.clear_memory_cache()
    assert cache.probe(fp) == "disk"
    trace, epochs, fp2, hit2 = cache.compile_graph(g)
    assert hit2 and fp2 == fp
    assert callable(trace) and all(callable(e) for e in epochs)
    # the deserialized kernels execute bit-identically
    cache.clear_memory_cache()
    monkeypatch.setenv(cache.CACHE_DIR_ENV, str(tmp_path))
    assert _run_descrambler("fastpath") == _run_descrambler("naive")


def test_corrupt_artifact_recompiles(tmp_path, monkeypatch):
    monkeypatch.setenv(cache.CACHE_DIR_ENV, str(tmp_path))
    _, _, fp, _ = cache.compile_graph(_graph())
    path = cache.artifact_path(fp)
    with open(path, "wb") as f:
        f.write(b"not a marshal payload")
    cache.clear_memory_cache()
    trace, _, _, hit = cache.compile_graph(_graph())
    assert not hit                      # corrupt -> miss -> recompile
    assert callable(trace)
    # the recompile rewrote a valid artifact in place
    cache.clear_memory_cache()
    _, _, _, hit2 = cache.compile_graph(_graph())
    assert hit2


def test_stale_version_artifact_recompiles(tmp_path, monkeypatch):
    monkeypatch.setenv(cache.CACHE_DIR_ENV, str(tmp_path))
    _, _, fp, _ = cache.compile_graph(_graph())
    path = cache.artifact_path(fp)
    with open(path, "rb") as f:
        magic, version, codes = marshal.load(f)
    with open(path, "wb") as f:
        f.write(marshal.dumps((magic, version + 1, codes)))
    cache.clear_memory_cache()
    _, _, _, hit = cache.compile_graph(_graph())
    assert not hit                      # stale codegen version -> miss


def test_stale_magic_artifact_recompiles(tmp_path, monkeypatch):
    monkeypatch.setenv(cache.CACHE_DIR_ENV, str(tmp_path))
    _, _, fp, _ = cache.compile_graph(_graph())
    path = cache.artifact_path(fp)
    with open(path, "rb") as f:
        magic, version, codes = marshal.load(f)
    with open(path, "wb") as f:
        f.write(marshal.dumps((b"\x00\x00\x00\x00", version, codes)))
    cache.clear_memory_cache()
    _, _, _, hit = cache.compile_graph(_graph())
    assert not hit                      # other interpreter's bytecode


def test_no_cache_dir_means_memory_only(tmp_path):
    _, _, fp, _ = cache.compile_graph(_graph())
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


def test_disk_cache_spans_campaign_runs(tmp_path):
    """A second campaign (fresh process simulated by dropping the LRU)
    compiles nothing: the first run's artifact store feeds it."""
    cdir = str(tmp_path / "kernels")
    run1 = run_campaign(_chaos_spec(shards=2), workers=1,
                        flight_recorder=True, cache_dir=cdir)
    assert sum(c.get("store", 0)
               for c in _shard_cache_counters(run1)) == 1
    assert any(f.endswith(".fpk") for f in os.listdir(cdir))
    cache.clear_memory_cache()
    run2 = run_campaign(_chaos_spec(shards=2), workers=1,
                        flight_recorder=True, cache_dir=cdir)
    per_shard = _shard_cache_counters(run2)
    assert sum(c.get("miss", 0) for c in per_shard) == 0
    assert sum(c.get("disk_hit", 0) for c in per_shard) == 1
    assert json.dumps(run1.results, sort_keys=True) == \
        json.dumps(run2.results, sort_keys=True)


def test_checkpoint_resume_with_cache_is_byte_identical(tmp_path):
    spec = _chaos_spec()
    ref = run_campaign(spec, workers=1)         # no cache, no checkpoint
    ck = tmp_path / "ck.jsonl"
    cache.clear_memory_cache()          # force the store to hit disk
    partial = run_campaign(spec, workers=1, checkpoint_path=ck,
                           max_shards=2)
    assert not partial.complete
    assert os.path.isdir(str(ck) + ".fpcache")  # derived default
    cache.clear_memory_cache()                  # "new process" resumes
    resumed = run_campaign(spec, workers=1, checkpoint_path=ck)
    assert resumed.complete
    assert json.dumps(resumed.results, sort_keys=True) == \
        json.dumps(ref.results, sort_keys=True)


def test_cache_dir_is_execution_option_not_fingerprint(tmp_path):
    from repro.campaign.sharding import build_shards
    spec = _chaos_spec()
    plain = build_shards(spec)
    cached = build_shards(spec, cache_dir=str(tmp_path))
    assert plain[0].cache_dir is None
    assert cached[0].cache_dir == str(tmp_path)
    assert spec.fingerprint() == spec.fingerprint()


def test_run_shard_restores_cache_env(tmp_path, monkeypatch):
    from repro.campaign.runners import run_shard
    from repro.campaign.sharding import build_shards
    monkeypatch.setenv(cache.CACHE_DIR_ENV, "/pre-existing")
    task = build_shards(_chaos_spec(shards=1),
                        cache_dir=str(tmp_path))[0]
    run_shard(task)
    assert os.environ[cache.CACHE_DIR_ENV] == "/pre-existing"
    assert any(f.endswith(".fpk") for f in os.listdir(tmp_path))


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
