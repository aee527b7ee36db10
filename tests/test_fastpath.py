"""Unit and differential tests for the repro.fastpath backend.

The bit-exactness of whole kernel runs lives in
``tests/test_scheduler_equivalence.py`` (the fastpath scheduler is part
of its ``SCHEDULERS`` matrix).  This file covers the seams around it:
the scheduler registry UX, the vectorized fixed-point primitives the
lowerings build on, the transparent fallback paths (unsupported graphs,
fault taps, chaos campaigns), mid-run reconfiguration over *supported*
graphs (recompile + state write-back), and the campaign backend
plumbing.
"""

import dataclasses
import json
import warnings
from zlib import crc32

import numpy as np
import pytest

from repro import fastpath
from repro.fastpath import FastpathFallbackWarning, UnsupportedGraphError
from repro.faults import FaultInjector
from repro.fixed import pack_complex, saturate, wrap
from repro.kernels import DespreaderKernel, build_descrambler_config
from repro.xpp import ConfigBuilder, Simulator, execute, make_scheduler
from repro.xpp.errors import ConfigurationError
from repro.xpp.manager import ConfigurationManager
from repro.xpp.scheduler import SCHEDULER_ENV


# -- scheduler registry UX (make_scheduler) ---------------------------------------


def test_make_scheduler_fastpath_by_name():
    sched = make_scheduler("fastpath")
    assert type(sched).__name__ == "FastpathScheduler"
    assert sched.name == "fastpath"


def test_make_scheduler_names_are_case_insensitive():
    for spec in ("FASTPATH", " Fastpath ", "fastpath"):
        assert make_scheduler(spec).name == "fastpath"
    assert make_scheduler(" EVENT ").name == "event"


def test_make_scheduler_env_default(monkeypatch):
    monkeypatch.setenv(SCHEDULER_ENV, "fastpath")
    assert make_scheduler(None).name == "fastpath"


def test_make_scheduler_unknown_lists_valid_names():
    with pytest.raises(ConfigurationError) as exc:
        make_scheduler("warp")
    msg = str(exc.value)
    assert "'warp'" in msg
    for name in ("naive", "event", "fastpath"):
        assert name in msg


# -- vectorized fixed-point primitives (satellite of the lowering pass) -----------


@pytest.mark.parametrize("bits", [4, 12, 24, 48, 62, 63, 64])
def test_wrap_array_matches_scalar(bits):
    """The ndarray branch of wrap() must agree element-for-element with
    the scalar branch, across both the int64-native fast path
    (bits <= 62) and the object-array fallback."""
    rng = np.random.default_rng(bits)
    vals = np.concatenate([
        rng.integers(-(1 << 62), 1 << 62, 64),
        rng.integers(-(1 << bits if bits < 62 else 1 << 62),
                     (1 << bits) if bits < 62 else 1 << 62, 64),
        np.array([0, 1, -1, (1 << (bits - 1)) - 1, -(1 << (bits - 1)),
                  1 << (bits - 1) if bits < 63 else 0]),
    ])
    got = wrap(vals, bits)
    expected = np.array([wrap(int(v), bits) for v in vals], dtype=np.int64)
    assert got.dtype == np.int64
    np.testing.assert_array_equal(got, expected)


@pytest.mark.parametrize("bits", [4, 12, 24, 48])
def test_saturate_array_matches_scalar(bits):
    rng = np.random.default_rng(100 + bits)
    vals = rng.integers(-(1 << 50), 1 << 50, 128)
    got = saturate(vals, bits)
    expected = np.array([saturate(int(v), bits) for v in vals])
    np.testing.assert_array_equal(got, expected)


def test_wrap_object_array_matches_scalar():
    """Huge Python ints (beyond int64) go through the object-dtype
    branch and still fold exactly."""
    vals = np.array([1 << 100, -(1 << 77) + 5, (1 << 63) + 12, -1, 3],
                    dtype=object)
    got = wrap(vals, 24)
    expected = np.array([wrap(int(v), 24) for v in vals], dtype=np.int64)
    np.testing.assert_array_equal(got, expected)


# -- fallback paths ----------------------------------------------------------------


def _descrambler_inputs(rng, n):
    return {"code": rng.integers(0, 4, n), "data": rng.integers(0, 1 << 24, n)}


def _run_descrambler_once(scheduler, n=32, faults=None):
    rng = np.random.default_rng(77)
    cfg = build_descrambler_config()
    cfg.sinks["out"].expect = n
    res = execute(cfg, inputs=_descrambler_inputs(rng, n),
                  max_cycles=2000, scheduler=scheduler, faults=faults)
    return res.outputs, (res.stats.cycles, res.stats.stop_reason,
                         res.stats.total_firings, res.stats.energy,
                         dict(res.stats.firings))


def test_fault_tap_falls_back_bit_exactly():
    """An installed wire tap (here a zero-rate always-tap injector) is
    invisible to the structure capture, so the session-open check must
    catch it: fastpath warns once and delegates to the event scheduler,
    staying bit-exact with naive."""
    baseline = _run_descrambler_once("naive",
                                     faults=FaultInjector([], always_tap=True))
    with pytest.warns(FastpathFallbackWarning):
        fast = _run_descrambler_once("fastpath",
                                     faults=FaultInjector([], always_tap=True))
    assert fast == baseline


def test_feedback_ring_compiles_bit_exactly(monkeypatch):
    """The despreader's accumulate-dump ring is a dataflow cycle: since
    the epoch-kernel lowering it compiles (no fallback warning) and
    stays bit-exact with the naive scheduler."""
    monkeypatch.setenv(SCHEDULER_ENV, "fastpath")
    rng = np.random.default_rng(11)
    n = 2 * 8 * 2
    chips = rng.integers(-100, 101, n) + 1j * rng.integers(-100, 101, n)
    codes = rng.integers(0, 2, n)
    with warnings.catch_warnings(record=True) as wlist:
        warnings.simplefilter("always")
        out_fast, _ = DespreaderKernel(2, 8).run(chips, codes)
    assert not [w for w in wlist
                if issubclass(w.category, FastpathFallbackWarning)]
    monkeypatch.setenv(SCHEDULER_ENV, "naive")
    out_naive, _ = DespreaderKernel(2, 8).run(chips, codes)
    assert list(out_fast) == list(out_naive)


def test_compiled_kernel_emits_no_fallback_warning():
    """The descrambler netlist is fully supported: a fastpath run must
    not fall back (otherwise the speedup claim silently evaporates)."""
    with warnings.catch_warnings(record=True) as wlist:
        warnings.simplefilter("always")
        _run_descrambler_once("fastpath")
    assert not [w for w in wlist
                if issubclass(w.category, FastpathFallbackWarning)]


def test_capture_rejects_empty_manager():
    with pytest.raises(UnsupportedGraphError):
        fastpath.capture(ConfigurationManager())


# -- mid-run reconfiguration over supported graphs --------------------------------


def _scripted_midrun_swap(scheduler):
    """Partial batched run, single-steps (each forces a state
    write-back under fastpath), a mid-run load of a second supported
    config (version bump -> recompile), then run to quiescence."""
    rng = np.random.default_rng(99)
    cfg_a = build_descrambler_config("ds_a")
    cfg_b = build_descrambler_config("ds_b")
    n = 48
    in_a = _descrambler_inputs(rng, n)
    in_b = _descrambler_inputs(rng, n)

    mgr = ConfigurationManager()
    sim = Simulator(mgr, scheduler=make_scheduler(scheduler))
    mgr.load(cfg_a)
    for name, arr in in_a.items():
        cfg_a.sources[name].set_data(arr)

    fired_trail = [sim.step_n(20)]
    fired_trail += [sim.step() for _ in range(5)]

    mgr.load(cfg_b)                     # version bump mid-run
    for name, arr in in_b.items():
        cfg_b.sources[name].set_data(arr)
    fired_trail.append(sim.step_n(10))
    stats = sim.run(1000)

    outs = (list(cfg_a.sinks["out"].received),
            list(cfg_b.sinks["out"].received))
    fired = {o.name: o.fired for o in mgr.active_objects()}
    return (outs, fired_trail, fired, sim.cycle, stats.stop_reason,
            stats.total_firings, stats.energy)


def test_supported_midrun_swap_is_bit_exact():
    baseline = _scripted_midrun_swap("naive")
    with warnings.catch_warnings(record=True) as wlist:
        warnings.simplefilter("always")
        fast = _scripted_midrun_swap("fastpath")
    assert fast == baseline
    # both configs compile: the swap must recompile, not fall back
    assert not [w for w in wlist
                if issubclass(w.category, FastpathFallbackWarning)]
    assert baseline[0][0] and baseline[0][1]    # both sinks produced


def test_rerun_after_set_data_is_bit_exact():
    """New source data between runs (no version bump) must invalidate
    the compiled session's token budgets."""
    def script(scheduler):
        rng = np.random.default_rng(5)
        cfg = build_descrambler_config()
        mgr = ConfigurationManager()
        sim = Simulator(mgr, scheduler=make_scheduler(scheduler))
        mgr.load(cfg)
        trail = []
        for _ in range(3):
            for name, arr in _descrambler_inputs(rng, 16).items():
                cfg.sources[name].set_data(arr)
            stats = sim.run(500)
            trail.append((list(cfg.sinks["out"].received), sim.cycle,
                          stats.stop_reason, stats.total_firings))
        return trail
    assert script("fastpath") == script("naive")


# -- chaos campaigns under the fastpath backend -----------------------------------


@pytest.mark.parametrize("backend", ["fastpath"])
def test_chaos_shard_deterministic_across_backends(backend):
    """A chaos shard (config-bus load failures + stuck-at corruption)
    must produce a byte-identical payload under every backend: fault
    taps force the compiled path to fall back, and the fallback rides
    the same event machinery the reference run uses."""
    from repro.campaign.sharding import build_shards
    from repro.campaign.runners import run_shard
    from repro.campaign.spec import CampaignSpec

    spec = CampaignSpec.from_dict({
        "name": "chaos-backend", "master_seed": 31337,
        "jobs": [{"job_id": "busfail", "kind": "chaos", "shards": 2,
                  "params": {"n_chips": 32, "load_failures": 10,
                             "retries": 2}},
                 {"job_id": "stuck", "kind": "chaos", "shards": 1,
                  "params": {"n_chips": 32, "stuck_at": 1.5}}]})
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        payloads = {}
        for b in ("event", backend):
            tasks = [dataclasses.replace(t, backend=b)
                     for t in build_shards(spec)]
            payloads[b] = [run_shard(t) for t in tasks]
    assert json.dumps(payloads[backend], sort_keys=True) == \
        json.dumps(payloads["event"], sort_keys=True)


# -- campaign backend plumbing ----------------------------------------------------


def test_jobspec_backend_roundtrip_and_fingerprint():
    from repro.campaign.spec import CampaignError, CampaignSpec

    d = {"name": "c", "master_seed": 1,
         "jobs": [{"job_id": "j", "kind": "rake_scenarios", "shards": 1}]}
    spec = CampaignSpec.from_dict(d)
    assert spec.jobs[0].backend == "event"
    # default backend stays out of the canonical form: fingerprints of
    # pre-backend specs are unchanged
    assert "backend" not in spec.to_dict()["jobs"][0]

    pinned = spec.with_backend("fastpath")
    assert pinned.jobs[0].backend == "fastpath"
    assert pinned.to_dict()["jobs"][0]["backend"] == "fastpath"
    assert pinned.fingerprint() != spec.fingerprint()
    rt = CampaignSpec.from_dict(pinned.to_dict())
    assert rt == pinned

    with pytest.raises(CampaignError):
        d2 = dict(d, jobs=[dict(d["jobs"][0], backend="turbo")])
        CampaignSpec.from_dict(d2)


def test_shard_tasks_carry_backend():
    from repro.campaign.sharding import build_shards
    from repro.campaign.spec import CampaignSpec

    spec = CampaignSpec.from_dict({
        "name": "c", "master_seed": 1,
        "jobs": [{"job_id": "j", "kind": "rake_scenarios",
                  "shards": 2, "backend": "fastpath"}]})
    assert [t.backend for t in build_shards(spec)] == ["fastpath"] * 2


def test_run_shard_exports_and_restores_scheduler_env(monkeypatch):
    import os
    from repro.campaign.sharding import build_shards
    from repro.campaign.runners import run_shard
    from repro.campaign.spec import CampaignSpec

    monkeypatch.setenv(SCHEDULER_ENV, "naive")
    spec = CampaignSpec.from_dict({
        "name": "c", "master_seed": 1,
        "jobs": [{"job_id": "j", "kind": "rake_scenarios", "shards": 1,
                  "backend": "fastpath"}]})
    seen = {}
    import repro.campaign.runners as runners

    orig = runners.RUNNERS["rake_scenarios"]

    def spy(task, attempt):
        seen["env"] = os.environ.get(SCHEDULER_ENV)
        return orig(task, attempt)

    monkeypatch.setitem(runners.RUNNERS, "rake_scenarios", spy)
    run_shard(build_shards(spec)[0])
    assert seen["env"] == "fastpath"
    assert os.environ.get(SCHEDULER_ENV) == "naive"


def test_cli_backend_flag(tmp_path, capsys):
    from repro.campaign.cli import main

    spec_path = tmp_path / "spec.json"
    out_path = tmp_path / "out.json"
    spec_path.write_text(json.dumps({
        "name": "cli-backend", "master_seed": 3,
        "jobs": [{"job_id": "smoke", "kind": "rake_scenarios",
                  "shards": 1, "params": {"max_basestations": 2}}]}))
    rc = main(["run", "--spec", str(spec_path), "--backend", "fastpath",
               "--out", str(out_path), "--quiet"])
    assert rc == 0
    artifact = json.loads(out_path.read_text())
    assert artifact["spec"]["jobs"][0]["backend"] == "fastpath"


# -- execute() on the fastpath scheduler ------------------------------------------


def test_fastpath_execute_matches_golden_path():
    rng = np.random.default_rng(123)
    n = 24
    inputs = _descrambler_inputs(rng, n)

    cfg = build_descrambler_config()
    cfg.sinks["out"].expect = n
    ref = execute(cfg, inputs=inputs, max_cycles=2000, scheduler="naive")

    cfg = build_descrambler_config()
    cfg.sinks["out"].expect = n
    res = execute(cfg, inputs=inputs, max_cycles=2000, scheduler="fastpath")
    assert res.outputs == ref.outputs
    assert (res.stats.cycles, res.stats.stop_reason, res.stats.energy) == \
        (ref.stats.cycles, ref.stats.stop_reason, ref.stats.energy)


# -- lowering coverage: one mini-config per supported op family -------------------
#
# The kernel-level equivalence matrix only reaches the op kinds the
# paper's figures happen to use.  Each family below is the smallest
# netlist that drives one lowering branch (value pass + count kernel +
# write-back), executed under the naive reference and under fastpath;
# every family must compile (no fallback warning) and agree on outputs,
# firings, cycles, energy and stop reason.

_HALF = 12


def _ivals(rng, n=40, lo=-3000, hi=3000):
    return [int(v) for v in rng.integers(lo, hi + 1, n)]


def _bvals(rng, n=40):
    return [int(v) for v in rng.integers(0, 2, n)]


def _pvals(rng, n=40, mag=1500):
    re = rng.integers(-mag, mag + 1, n)
    im = rng.integers(-mag, mag + 1, n)
    return [pack_complex(int(r), int(i), _HALF) for r, i in zip(re, im)]


def _fam_binary(op, *, shift=0):
    def build(rng):
        b = ConfigBuilder(f"fam_{op.lower()}")
        a, c = b.source("a"), b.source("b")
        alu = b.alu(op, shift=shift) if shift else b.alu(op)
        snk = b.sink("y")
        b.connect(a, 0, alu, 0)
        b.connect(c, 0, alu, 1)
        b.connect(alu, 0, snk, 0)
        return b.build(), {"a": _ivals(rng), "b": _ivals(rng)}
    return build


def _fam_unary1(op, inputs=_ivals, **params):
    """Any 1-in/1-out ALU: unary funcs, SHIFT, LUT, complex unaries,
    ACC/CACC/INTEG/CINTEG/REG, binary ops with a const operand."""
    def build(rng):
        b = ConfigBuilder(f"fam_{op.lower()}")
        src = b.source("a")
        alu = b.alu(op, **params)
        snk = b.sink("y")
        b.chain(src, alu, snk)
        return b.build(), {"a": inputs(rng)}
    return build


def _fam_cbinary(op, **params):
    def build(rng):
        b = ConfigBuilder(f"fam_{op.lower()}")
        a, c = b.source("a"), b.source("b")
        alu = b.alu(op, **params)
        snk = b.sink("y")
        b.connect(a, 0, alu, 0)
        b.connect(c, 0, alu, 1)
        b.connect(alu, 0, snk, 0)
        return b.build(), {"a": _pvals(rng), "b": _pvals(rng)}
    return build


def _fam_pack(rng):
    b = ConfigBuilder("fam_pack")
    a, c = b.source("re"), b.source("im")
    alu = b.alu("PACK")
    snk = b.sink("y")
    b.connect(a, 0, alu, 0)
    b.connect(c, 0, alu, 1)
    b.connect(alu, 0, snk, 0)
    return b.build(), {"re": _ivals(rng, lo=-2048, hi=2047),
                       "im": _ivals(rng, lo=-2048, hi=2047)}


def _fam_unpack(rng):
    b = ConfigBuilder("fam_unpack")
    src = b.source("a")
    alu = b.alu("UNPACK")
    sre, sim_ = b.sink("re"), b.sink("im")
    b.connect(src, 0, alu, 0)
    b.connect(alu, 0, sre, 0)
    b.connect(alu, 1, sim_, 0)
    return b.build(), {"a": _pvals(rng)}


def _fam_steer3(op, outs=1):
    """MUX/MERGE/SWAP: a select stream plus two data streams."""
    def build(rng):
        b = ConfigBuilder(f"fam_{op.lower()}")
        sel, a, c = b.source("sel"), b.source("a"), b.source("b")
        alu = b.alu(op)
        b.connect(sel, 0, alu, 0)
        b.connect(a, 0, alu, 1)
        b.connect(c, 0, alu, 2)
        for k in range(outs):
            b.connect(alu, k, b.sink(f"y{k}"), 0)
        return b.build(), {"sel": _bvals(rng), "a": _ivals(rng),
                           "b": _ivals(rng)}
    return build


def _fam_steer2(op, outs=1):
    """DEMUX/GATE: a control stream plus one data stream."""
    def build(rng):
        b = ConfigBuilder(f"fam_{op.lower()}")
        sel, a = b.source("sel"), b.source("a")
        alu = b.alu(op)
        b.connect(sel, 0, alu, 0)
        b.connect(a, 0, alu, 1)
        for k in range(outs):
            b.connect(alu, k, b.sink(f"y{k}"), 0)
        return b.build(), {"sel": _bvals(rng), "a": _ivals(rng)}
    return build


def _fam_counter(mode):
    def build(rng):
        b = ConfigBuilder(f"fam_counter_{mode}")
        ctr = b.alu("COUNTER", start=1, step=3, limit=17, mode=mode,
                    count=25)
        b.connect(ctr, 0, b.sink("value"), 0)
        b.connect(ctr, 1, b.sink("wrapev"), 0)
        return b.build(), {}
    return build


def _fam_const_count(rng):
    b = ConfigBuilder("fam_const")
    b.chain(b.alu("CONST", value=-9, count=12), b.sink("y"))
    return b.build(), {}


def _fam_seq_finite(rng):
    b = ConfigBuilder("fam_seq")
    b.chain(b.alu("SEQ", values=_ivals(rng, 15)), b.sink("y"))
    return b.build(), {}


def _fam_seq_circular(rng):
    # a circular SEQ never quiesces alone; pairing it with a finite
    # stream bounds the run once the ADD starves
    b = ConfigBuilder("fam_seq_circ")
    seq = b.alu("SEQ", values=[3, -1, 7], circular=True)
    src = b.source("a")
    add = b.alu("ADD")
    snk = b.sink("y")
    b.connect(seq, 0, add, 0)
    b.connect(src, 0, add, 1)
    b.connect(add, 0, snk, 0)
    return b.build(), {"a": _ivals(rng)}


def _fam_fifo(rng):
    b = ConfigBuilder("fam_fifo")
    src = b.source("a")
    fifo = b.fifo(depth=32, preload=[9, -8, 7], bits=24)
    snk = b.sink("y")
    b.chain(src, fifo, snk)
    return b.build(), {"a": _ivals(rng)}


def _fam_fifo_circular(rng):
    # the kernels' circular lookup table: preloaded, input unbound,
    # read forever — bounded here by the finite packed stream
    b = ConfigBuilder("fam_fifo_circ")
    tab = b.fifo(depth=8, preload=_pvals(rng, 8, mag=900), bits=24,
                 circular=True)
    src = b.source("a")
    cadd = b.alu("CADD")
    snk = b.sink("y")
    b.connect(src, 0, cadd, 0)
    b.connect(tab, 0, cadd, 1)
    b.connect(cadd, 0, snk, 0)
    return b.build(), {"a": _pvals(rng)}


_FAMILIES = {
    "pack": _fam_pack,
    "unpack": _fam_unpack,
    "mux": _fam_steer3("MUX"),
    "merge": _fam_steer3("MERGE"),
    "swap": _fam_steer3("SWAP", outs=2),
    "demux": _fam_steer2("DEMUX", outs=2),
    "gate": _fam_steer2("GATE"),
    "counter_wrap": _fam_counter("wrap"),
    "counter_stop": _fam_counter("stop"),
    "const_count": _fam_const_count,
    "seq_finite": _fam_seq_finite,
    "seq_circular": _fam_seq_circular,
    "fifo": _fam_fifo,
    "fifo_circular": _fam_fifo_circular,
    "binary_add_shift": _fam_binary("ADD", shift=2),
    "binary_const": _fam_unary1("ADD", const=-5),
    "binary_mul_const_shift": _fam_unary1("MUL", const=7, shift=3),
    "shl_const": _fam_unary1("SHL", const=3),
    "shr_const": _fam_unary1("SHR", const=4),
    "shift_left": _fam_unary1("SHIFT", amount=3),
    "shift_right": _fam_unary1("SHIFT", amount=-4),
    "lut": _fam_unary1("LUT", inputs=lambda rng: _ivals(rng, lo=0, hi=23),
                       table=[5, -3, 9, 0, -11, 2, 7, -1]),
    "cadd": _fam_cbinary("CADD", shift=1),
    "csub": _fam_cbinary("CSUB"),
    "cmul_round": _fam_cbinary("CMUL", shift=4, round_shift=True),
    "cmul_conj": _fam_cbinary("CMUL", shift=4, conj_b=True),
    "cconj": _fam_unary1("CCONJ", inputs=_pvals),
    "cneg": _fam_unary1("CNEG", inputs=_pvals),
    "cmulj_pos": _fam_unary1("CMULJ", inputs=_pvals, sign=1),
    "cmulj_neg": _fam_unary1("CMULJ", inputs=_pvals, sign=-1),
    "cshift_down": _fam_unary1("CSHIFT", inputs=_pvals, amount=-2),
    "cshift_up": _fam_unary1("CSHIFT", inputs=_pvals, amount=1),
    "acc": _fam_unary1("ACC", length=4, shift=1),
    "cacc": _fam_unary1("CACC", inputs=_pvals, length=3, shift=2),
    "integ": _fam_unary1("INTEG", init=5),
    "cinteg": _fam_unary1("CINTEG", inputs=_pvals),
    "reg": _fam_unary1("REG", init=(4, -4)),
}
for _op in ("ADD", "SUB", "MUL", "MIN", "MAX", "AND", "OR", "XOR",
            "CMPEQ", "CMPNE", "CMPLT", "CMPLE", "CMPGT", "CMPGE"):
    _FAMILIES[f"binary_{_op.lower()}"] = _fam_binary(_op)
for _op in ("NEG", "NOT", "ABS", "PASS"):
    _FAMILIES[f"unary_{_op.lower()}"] = _fam_unary1(_op)


def _stats_key(stats):
    return (stats.cycles, stats.stop_reason, stats.total_firings,
            stats.energy, dict(stats.firings), dict(stats.tokens_out))


def _exec_family(build, scheduler, seed):
    rng = np.random.default_rng(seed)
    cfg, inputs = build(rng)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        res = execute(cfg, inputs=inputs, max_cycles=5000,
                      scheduler=scheduler)
    fallbacks = [w for w in caught
                 if issubclass(w.category, FastpathFallbackWarning)]
    outs = {name: list(vals) for name, vals in res.outputs.items()}
    return outs, _stats_key(res.stats), fallbacks


@pytest.mark.parametrize("family", sorted(_FAMILIES))
def test_op_family_compiles_and_is_bit_exact(family):
    build = _FAMILIES[family]
    seed = crc32(family.encode())
    ref_outs, ref_stats, _ = _exec_family(build, "naive", seed)
    got_outs, got_stats, fallbacks = _exec_family(build, "fastpath", seed)
    assert not fallbacks, [str(w.message) for w in fallbacks]
    assert any(ref_outs.values()), "family produced no tokens"
    assert got_outs == ref_outs
    assert got_stats == ref_stats


# -- non-quiescent materialize: state write-back mid-stream -----------------------


def _stateful_script(scheduler):
    """step_n partway (session open, mid-accumulation), then an explicit
    ``mgr.settle()`` — which closes the fastpath session *before*
    quiescence, forcing the write-back of partial ACC/INTEG/REG/FIFO/
    counter/SEQ state that the next session resumes from — then run()."""
    rng = np.random.default_rng(77)
    b = ConfigBuilder("stateful")
    src = b.source("x")
    add = b.alu("ADD", const=3)
    probe = b.probe("p")
    acc = b.alu("ACC", length=4, shift=1)
    b.chain(src, add, probe, acc, b.sink("y"))
    b.chain(b.alu("SEQ", values=[1, 2, 3, 4, 5, 6, 7, 8]),
            b.alu("INTEG", init=5), b.sink("z"))
    ctr = b.alu("COUNTER", start=1, step=2, limit=9, count=20)
    reg = b.alu("REG", init=(4, -4))
    b.chain(reg, b.sink("w"))
    b.connect(ctr, 0, reg, 0)
    src2 = b.source("x2")
    fifo = b.fifo(depth=12, preload=[9, 8, 7], bits=24)
    b.chain(src2, fifo, b.sink("v"))
    cfg = b.build()

    mgr = ConfigurationManager()
    mgr.load(cfg)
    cfg.sources["x"].set_data(_ivals(rng, 24))
    cfg.sources["x2"].set_data(_ivals(rng, 10))
    sim = Simulator(mgr, scheduler=scheduler)

    sim.step_n(7)
    # observable state is live during replay: fired counts, sink and
    # probe token lists, the cycle counter
    mid = ({name: list(s.received) for name, s in cfg.sinks.items()},
           list(probe.seen), {o.name: o.fired for o in cfg.objects},
           sim.cycle)
    mgr.settle()
    stats = sim.run(2000)
    final = ({name: list(s.received) for name, s in cfg.sinks.items()},
             list(probe.seen), _stats_key(stats))
    return mid, final


def test_midstream_settle_materializes_bit_exactly():
    ref = _stateful_script("naive")
    with warnings.catch_warnings():
        warnings.simplefilter("error", FastpathFallbackWarning)
        got = _stateful_script("fastpath")
    assert got == ref


def test_huge_binary_const_falls_back_bit_exactly():
    """A Python-int const beyond int64 would crash (or silently mis-
    compare in) the numpy value pass; the classifier must punt it to
    the event scheduler instead, bit-exactly."""
    def build(rng):
        b = ConfigBuilder("huge_const")
        b.chain(b.source("a"), b.alu("CMPLT", const=1 << 70), b.sink("y"))
        return b.build(), {"a": _ivals(rng)}

    ref_outs, ref_stats, _ = _exec_family(build, "naive", 5)
    got_outs, got_stats, fallbacks = _exec_family(build, "fastpath", 5)
    assert fallbacks and "int64-safe" in str(fallbacks[0].message)
    assert got_outs == ref_outs
    assert got_stats == ref_stats
