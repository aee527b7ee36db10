"""The three workloads: inputs from a seed, cold set-up, a timed closed
loop, and output checks.

Every workload is a closed loop (the next item is issued when the
previous one completes) driven from this process.  ``serve_rake`` adds
the broker's one shard child, so at most two processes run at a time.

An *item* is a serve slot, a kernel block or a campaign packet.  Each
workload class offers:

* ``setup_wall()`` -- one cold set-up: caches cleared, from the first
  call into the workload's entry layer until the first item completes,
  in wall-clock seconds (the caller scales it by the host's speed);
* ``measure(seconds)`` -- a cold start followed by a steady phase of
  ``seconds``; returns a :class:`Measurement`;
* ``check()`` -- verifies every output of the last ``measure`` outside
  the timed region; returns ``(failed_items, messages)``;
* ``run_fixed(recorder)`` -- a fixed amount of work for the traced run
  (``recorder`` None for the untraced twin); returns the item count;
  ``fixed_output()`` digests its outputs and ``check_fixed()`` checks
  them like ``check()``.
"""

from __future__ import annotations

import hashlib
import importlib
import json
import os
from pathlib import Path

import numpy as np

from common import (
    BenchError,
    HostSpeed,
    clear_program_caches,
    clock,
    peak_rss_mb,
    scratch,
)

#: Scheduler the two array workloads run on (the compiled backend).
ARRAY_BACKEND = "fastpath"


def item_rng(seed: int, *key: int) -> np.random.Generator:
    """The private random stream of one generated input."""
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=key))


def import_all(names) -> None:
    """Load the program's modules before the first set-up sample, so
    every sample measures the same cold start: caches empty, code
    loaded."""
    for name in names:
        importlib.import_module(name)


def digest(obj) -> str:
    return hashlib.sha256(
        json.dumps(obj, sort_keys=True).encode()).hexdigest()[:16]


class Measurement:
    """What one timed run of a workload measured.

    Every item completion is followed by a :class:`HostSpeed` sample, so
    the run is a chain of *spans*, each from the end of one sample to
    the next completion; together they cover the steady phase except
    the samples themselves.  Reported durations are scaled to the
    reference speed (see :class:`HostSpeed`); the wall-clock ones are
    kept for the human-readable lines.
    """

    def __init__(self):
        self.host = HostSpeed()
        self.setup_wall_s = None    # cold start to first item complete
        self.items = 0              # items completed, first included
        self.t_first = None         # when the first item completed
        self.t_resume = None        # when the last speed sample ended
        #: (t_done, items, span_s, latency_s) after the first item
        self.steps: list = []
        self.peak_rss_mb = None

    def restart(self) -> None:
        """The next completion ends a cold start: it is charged to
        set-up, not to the steady phase."""
        self.t_resume = None

    def completed(self, t_done: float, n: int = 1,
                  latency_s: float = None) -> None:
        """Items done at ``t_done``; ``latency_s`` defaults to the span
        since the previous completion's speed sample."""
        self.items += n
        if self.t_first is None:
            self.t_first = t_done
        elif self.t_resume is not None:
            span = t_done - self.t_resume
            self.steps.append((t_done, n, span,
                               span if latency_s is None else latency_s))
        self.t_resume = self.host.sample()

    def _factors(self) -> list:
        return [self.host.factor(t) for t, *_ in self.steps]

    @property
    def steady_items(self) -> int:
        return sum(n for _t, n, _s, _l in self.steps)

    @property
    def steady_s(self) -> float:
        return self.steps[-1][0] - self.t_first if self.steps else 0.0

    @property
    def setup_s(self) -> float:
        return self.setup_wall_s * self.host.factor(self.t_first)

    @property
    def throughput_per_s(self) -> float:
        """Items per second over the steady phase: items after the first
        over the summed spans."""
        if not self.steps:
            raise BenchError("no item completed after the first")
        return self.steady_items / sum(
            span * f for (_t, _n, span, _l), f in zip(self.steps,
                                                       self._factors()))

    @property
    def latencies_s(self) -> list:
        """Per item, the first excluded (it is charged to ``setup_s``)."""
        return [lat * f for (_t, _n, _s, lat), f in zip(self.steps,
                                                        self._factors())]

    def wall(self) -> dict:
        """The same figures in wall-clock time, for people."""
        lat = sorted(lat for *_x, lat in self.steps)
        return {"throughput_per_s": self.steady_items
                / sum(span for _t, _n, span, _l in self.steps),
                "latency_p50_ms": 1e3 * lat[len(lat) // 2],
                "latency_p90_ms": 1e3 * lat[9 * len(lat) // 10]}


# -- serve_rake ----------------------------------------------------------------------


class RoundClock:
    """Times each step round as the broker sees it: from the ``step``
    send to the return of the ``collect`` that gathers its replies.

    Installed on one :class:`~repro.serve.shard.ShardPool` instance;
    ``on_round(latency_s, t_done, replies)`` runs after every round.
    """

    def __init__(self, pool, on_round):
        self.t_send = None
        send, collect = pool.send, pool.collect

        def timed_send(shard, msg):
            if msg[0] == "step" and self.t_send is None:
                self.t_send = clock()
            return send(shard, msg)

        def timed_collect(timeout_s):
            out = collect(timeout_s)
            if self.t_send is not None:
                t_done = clock()
                latency, self.t_send = t_done - self.t_send, None
                on_round(latency, t_done, out[0])
            return out

        pool.send = timed_send
        pool.collect = timed_collect


def slots_in(replies) -> int:
    return sum(len(reply[2]["advanced"]) for _shard, reply in replies
               if reply[0] == "ok" and reply[1] == "step")


class ServeRake:
    """``SessionBroker(1)`` with its defaults and a journal, serving more
    rake soft-handover sessions than ``max_active`` so they are admitted
    in waves.

    The timed loop starts broker after broker, each serving one *batch*
    of :attr:`BATCH` sessions to completion.  A broker's rounds grow
    slower with every slot it has served (its journal progress record
    sorts all slot times each round), so one long-lived broker would
    make each run's figures depend on how many slots the host's speed
    let it reach; a fixed batch gives every run the same work profile.

    Sessions differ in active set (2 or 3 basestations), reacquisition
    interval (7..13 slots) and path delay, so reacquisitions -- the
    heavy slots -- are spread over rounds instead of landing in lockstep
    one round in ten.  All have one length, so they are admitted in
    waves of ``max_active`` and every wave mixes the two active-set
    sizes alike, whatever the seed.
    """

    name = "serve_rake"
    #: Sessions per broker: three waves of the default ``max_active``.
    BATCH = 12
    #: Slots per session: a broker serves its batch in about five
    #: seconds on the machine the benchmark was built on.
    N_SLOTS = 200
    #: Sessions in the first round of every set-up sample.
    SETUP_SESSIONS = 5
    #: The broker's own code.  What the shard loads on its first admit
    #: (receiver, warm-up kernels) stays out of the broker, so every
    #: forked shard pays for it inside ``setup_s``, as a real start does.
    MODULES = ("repro.serve",)

    def __init__(self, seed: int, seconds: float, smoke: bool = False):
        from repro.serve.session import SessionSpec

        import_all(self.MODULES)
        self.seed = seed
        self.n_slots = 12 if smoke else self.N_SLOTS
        fixed = 12 if smoke else 60
        self.fixed_specs = [self._spec(SessionSpec, 1000 + k, fixed)
                            for k in range(5 if smoke else 8)]
        self.served: list = []      # (specs, result) per broker of measure

    def batch(self, r: int) -> list:
        """The specs of broker ``r``'s batch: a pure function of the
        seed."""
        from repro.serve.session import SessionSpec

        return [self._spec(SessionSpec, k, self.n_slots)
                for k in range(r * self.BATCH, (r + 1) * self.BATCH)]

    def _spec(self, session_spec, k: int, n_slots: int):
        """Session ``k``.  What sets a slot's cost -- the active-set
        size and the reacquisition interval -- cycles with ``k``, so
        every seed serves the same mix; the seed draws the rest."""
        rng = item_rng(self.seed, k)
        return session_spec.from_dict({
            "session_id": f"rake-{k:04d}", "kind": "rake",
            "tenant": "bench", "n_slots": n_slots,
            "seed": int(rng.integers(2 ** 31)),
            "params": {
                "active_set": sorted(
                    rng.choice(4, 2 + k % 2, replace=False).tolist()),
                "reacquire_interval": 7 + k % 7,
                "delay": int(rng.integers(2, 13)),
                # at most ~40 chips of drift, inside the search window
                "drift_every": n_slots // 40 + 1}})

    def _serve(self, specs, journal, *, stop_after_s=None, on_round=None):
        """One broker run journaling to ``journal``; returns ``(result,
        t_call, t_first_round)``.

        With ``stop_after_s`` the broker is asked to drain once that
        many seconds have passed since the first round completed
        (``0`` stops right after the first round).
        """
        from repro.serve import SessionBroker
        from repro.serve.journal import request_drain

        state = {"first": None, "drain": False}

        def round_done(latency, t_done, replies):
            if state["first"] is None:
                state["first"] = t_done
            if on_round is not None:
                on_round(latency, t_done, replies)
            if stop_after_s is not None and not state["drain"] \
                    and t_done - state["first"] >= stop_after_s:
                request_drain(journal)
                state["drain"] = True

        t_call = clock()
        broker = SessionBroker(1, journal_path=journal)
        RoundClock(broker.pool, round_done)
        result = broker.run(specs)
        if result.status not in ("complete", "drained"):
            raise BenchError(f"serve run ended {result.status}")
        return result, t_call, state["first"]

    def setup_wall(self) -> float:
        clear_program_caches()
        with scratch(self.name) as wd:
            _result, t_call, first = self._serve(
                self.batch(0)[:self.SETUP_SESSIONS], wd / "serve.jsonl",
                stop_after_s=0)
        return first - t_call

    def measure(self, seconds: float) -> Measurement:
        """Brokers, each cold, until ``seconds`` have passed since the
        first round; each broker's first round is charged to set-up, and
        the first broker's is ``setup_s``."""
        m = Measurement()
        self.served = []

        def on_round(latency, t_done, replies):
            m.completed(t_done, slots_in(replies), latency)

        with scratch(self.name) as wd:
            while m.t_first is None or m.steady_s < seconds:
                r = len(self.served)
                specs = self.batch(r)
                clear_program_caches()
                m.restart()
                result, t_call, first = self._serve(
                    specs, wd / f"serve{r}.jsonl", on_round=on_round)
                if m.setup_wall_s is None:
                    m.setup_wall_s = first - t_call
                stats = result.stats
                if stats["shard_deaths"] or stats["migrations"] \
                        or stats["shed_sessions"]:
                    raise BenchError(f"serve run was disturbed: {stats}")
                self.served.append((specs, result))
        m.peak_rss_mb = peak_rss_mb(children=True)
        return m

    def check(self):
        """Replay every served session in-process and compare digests
        and counts; a mismatching session fails all its slots."""
        failed = 0
        messages = []
        for specs, result in self.served:
            n, msgs = replay_sessions(specs, result.sessions)
            failed += n
            messages += msgs
        return failed, messages

    def flip_one_bit(self) -> None:
        rec = next(r for _sid, r in sorted(self.served[0][1].sessions.items())
                   if r["slots_done"])
        rec["digest"] = f"{int(rec['digest'][0], 16) ^ 1:x}" \
            + rec["digest"][1:]

    def run_fixed(self, recorder=None, on_round=None) -> int:
        """Serve the fixed session set to completion; returns slots."""
        rounds = [0]

        def round_done(latency, t_done, replies):
            if on_round is not None:
                on_round(latency, t_done, replies)
            rounds[0] += 1
            if recorder is not None:
                recorder.item = rounds[0]

        if recorder is not None:
            recorder.item = 0
        with scratch(self.name) as wd:
            result, _t, _f = self._serve(self.fixed_specs, wd / "serve.jsonl",
                                         on_round=round_done)
            with open(wd / "serve.jsonl") as fh:
                self.fixed_journal_records = sum(1 for _ in fh)
        self.fixed_result = result
        return sum(rec["slots_done"] for rec in result.sessions.values())

    def fixed_output(self) -> str:
        return digest({sid: [rec["digest"], rec["counts"]]
                       for sid, rec in self.fixed_result.sessions.items()})

    def check_fixed(self):
        return replay_sessions(self.fixed_specs, self.fixed_result.sessions)


def replay_sessions(specs, sessions: dict):
    """``(failed_slots, messages)`` from replaying each served session."""
    from repro.serve.session import build_workload

    by_id = {spec.session_id: spec for spec in specs}
    failed = 0
    messages = []
    for sid, rec in sorted(sessions.items()):
        done = int(rec["slots_done"])
        if done == 0:
            continue
        workload = build_workload(by_id[sid])
        for _ in range(done):
            workload.run_slot()
        if workload.digest != rec["digest"] \
                or workload.counts != rec["counts"]:
            failed += done
            messages.append(f"session {sid}: served digest/counts differ "
                            f"from the in-process replay of {done} slots")
    return failed, messages


# -- kernel_rake_chain ---------------------------------------------------------------


class KernelRakeChain:
    """In-process ``RakeChainKernel.run`` on the fastpath scheduler: the
    paper's single physical finger over six time-multiplexed logical
    fingers.  Each block draws new path offsets, combining weights and a
    primary scrambling code.

    Block lengths cycle through 5..15 symbols, so latency is spread over
    a range set by the workload rather than by the host's contention
    bursts, and p90 is not the edge of a single mode.  The length does
    not change the netlist: one compile serves every block.
    """

    name = "kernel_rake_chain"
    N_FINGERS = 6
    SF = 16
    MIN_SYMBOLS = 5
    SYMBOL_CYCLE = 11
    CODE_INDEX = 3
    MODULES = ("repro.kernels.rake_chain", "repro.fastpath")
    #: I/Q amplitude of the received samples: full use of the 12-bit
    #: input without overflow, and one pre-shift for every block.
    AMPLITUDE = 300

    def __init__(self, seed: int, seconds: float, smoke: bool = False):
        import_all(self.MODULES)
        self.seed = seed
        self.n_fixed = 12 if smoke else 80
        self.done: list = []        # (block index, output) of last measure

    def block(self, b: int):
        """``(kernel, rx, n_symbols)`` for block ``b``: a pure function
        of the seed."""
        from repro.kernels.rake_chain import RakeChainKernel

        rng = item_rng(self.seed, b)
        n_symbols = self.MIN_SYMBOLS + b % self.SYMBOL_CYCLE
        offsets = sorted(rng.choice(48, self.N_FINGERS,
                                    replace=False).tolist())
        weights = rng.uniform(0.2, 1.0, self.N_FINGERS) \
            * np.exp(2j * np.pi * rng.uniform(size=self.N_FINGERS))
        n = max(offsets) + n_symbols * self.SF
        a = self.AMPLITUDE
        rx = rng.integers(-a, a + 1, n) + 1j * rng.integers(-a, a + 1, n)
        kernel = RakeChainKernel(
            scrambling_number=16 * int(rng.integers(512)), offsets=offsets,
            sf=self.SF, code_index=self.CODE_INDEX, weights=weights)
        return kernel, rx, n_symbols

    def _run_block(self, b: int):
        kernel, rx, n_symbols = self.block(b)
        t0 = clock()
        out, _stats = kernel.run(rx, n_symbols)
        return out, t0, clock()

    def setup_wall(self) -> float:
        os.environ["REPRO_XPP_SCHEDULER"] = ARRAY_BACKEND
        clear_program_caches()
        _out, t0, t1 = self._run_block(0)
        return t1 - t0

    def measure(self, seconds: float) -> Measurement:
        os.environ["REPRO_XPP_SCHEDULER"] = ARRAY_BACKEND
        clear_program_caches()
        m = Measurement()
        self.done = []
        out, t0, first = self._run_block(0)
        self.done.append((0, out))
        m.setup_wall_s = first - t0
        m.completed(first)
        last = first
        while last - first < seconds:
            out, t0, last = self._run_block(len(self.done))
            self.done.append((len(self.done), out))
            m.completed(last, latency_s=last - t0)
        m.peak_rss_mb = peak_rss_mb()
        return m

    def flip_one_bit(self) -> None:
        b, out = self.done[0]
        out = out.copy()
        out[0] = complex(int(out[0].real) ^ 1, out[0].imag)
        self.done[0] = (b, out)

    def check(self):
        """Each block bit-exact against ``RakeChainKernel.golden``."""
        return self._check_blocks(self.done)

    def _check_blocks(self, outputs):
        failed = 0
        messages = []
        for b, out in outputs:
            kernel, rx, n_symbols = self.block(b)
            if not np.array_equal(out, kernel.golden(rx, n_symbols)):
                failed += 1
                messages.append(f"block {b}: array output differs from "
                                f"the golden model")
        return failed, messages

    def run_fixed(self, recorder=None) -> int:
        os.environ["REPRO_XPP_SCHEDULER"] = ARRAY_BACKEND
        clear_program_caches()
        self.fixed_outputs = []
        for b in range(self.n_fixed):
            kernel, rx, n_symbols = self.block(b)
            if recorder is not None:
                recorder.item = b
            out, _stats = kernel.run(rx, n_symbols)
            self.fixed_outputs.append((b, out))
        return self.n_fixed

    def fixed_output(self) -> str:
        h = hashlib.sha256()
        for _b, out in self.fixed_outputs:
            h.update(np.ascontiguousarray(out).tobytes())
        return h.hexdigest()[:16]

    def check_fixed(self):
        return self._check_blocks(self.fixed_outputs)


# -- campaign_ofdm_array -------------------------------------------------------------


class CampaignOfdmArray:
    """Serial ``run_campaign(workers=1)`` with a checkpoint, running
    ``ofdm_link`` on the array receiver over the fastpath backend, one
    short packet per shard.

    One campaign is 10 shards; the timed loop runs campaign after
    campaign, each with its own master seed.  Packets of 8 and 16 bytes
    carry 1 and 2 data symbols (4 and 5 FFT64s) in the proportion 7:3,
    so p50 lies inside the 4-FFT mode and p90 inside the 5-FFT mode
    rather than on the edge between them.  At 24 dB every packet
    decodes, so none finishes early on a failed SIGNAL field.
    """

    name = "campaign_ofdm_array"
    SNR_DB = 24.0
    RATE_MBPS = 24
    #: (packet length in bytes, shards per campaign)
    MIX = ((8, 7), (16, 3))
    MODULES = ("repro.campaign", "repro.ofdm.transmitter",
               "repro.ofdm.receiver", "repro.wlan.decoder",
               "repro.wcdma.channel", "repro.fastpath")
    #: The default seed, for which ``campaign_reference.json`` holds the
    #: digest of every campaign's aggregated results.
    REFERENCE_SEED = 1
    REFERENCE = Path(__file__).resolve().parent / "campaign_reference.json"

    def __init__(self, seed: int, seconds: float, smoke: bool = False):
        import_all(self.MODULES)
        self.seed = seed
        self.n_fixed = 1 if smoke else 2
        self.results: list = []     # per campaign of the last measure

    @property
    def packets_per_campaign(self) -> int:
        return sum(shards for _length, shards in self.MIX)

    def spec(self, r: int):
        """Campaign ``r``'s spec: a pure function of the seed."""
        from repro.campaign import CampaignSpec

        master = int(np.random.SeedSequence(
            self.seed, spawn_key=(r,)).generate_state(1)[0])
        return CampaignSpec.from_dict({
            "name": f"bench-ofdm-{r}", "master_seed": master,
            "sweeps": [{"kind": "ofdm_link", "name": f"ofdm-{length}B",
                        "backend": ARRAY_BACKEND,
                        "base": {"receiver": "array", "n_packets": 1,
                                 "length_bytes": length,
                                 "rate_mbps": self.RATE_MBPS,
                                 "snr_db": self.SNR_DB},
                        "shards": shards}
                       for length, shards in self.MIX]})

    def run_one(self, r: int, wd: Path, *, progress=None, max_shards=None):
        """Run campaign ``r`` with a checkpoint in ``wd``; returns the
        :class:`~repro.campaign.CampaignRun`."""
        from repro.campaign import run_campaign

        run = run_campaign(self.spec(r), workers=1,
                           checkpoint_path=str(wd / f"c{r}.jsonl"),
                           progress=progress, max_shards=max_shards)
        if run.stats["failed_shards"] or run.stats["retries"]:
            raise BenchError(f"campaign {r}: {run.stats}")
        return run

    def setup_wall(self) -> float:
        clear_program_caches()
        done = []
        with scratch(self.name) as wd:
            t0 = clock()
            self.run_one(0, wd, progress=lambda *a: done.append(clock()),
                         max_shards=1)
        return done[0] - t0

    def measure(self, seconds: float) -> Measurement:
        clear_program_caches()
        m = Measurement()
        self.results = []
        start = [None]

        def packet_done(*_args):
            # a packet's latency runs from the previous packet's
            # completion (its speed sample), or its campaign's start, to
            # its own completion
            now = clock()
            if m.t_first is None:
                m.setup_wall_s = now - start[0]     # the cold first packet
            m.completed(now, latency_s=now - max(start[0], m.t_resume or 0))

        with scratch(self.name) as wd:
            while m.t_first is None or m.steady_s < seconds:
                start[0] = clock()
                run = self.run_one(len(self.results), wd,
                                   progress=packet_done)
                self.results.append(run.results)
        m.peak_rss_mb = peak_rss_mb()
        return m

    def check(self):
        """Aggregated results equal the committed reference (default
        seed) and come out byte-identical when a campaign is run again
        (any seed).  A failing campaign fails all its packets."""
        digests = [digest(results) for results in self.results]
        bad, messages = self._against_reference(digests)
        with scratch(self.name) as wd:
            for r in sorted({0, len(digests) - 1}):
                again = digest(self.run_one(r, wd).results)
                if again != digests[r]:
                    bad.add(r)
                    messages.append(f"campaign {r}: a second run gave "
                                    f"results {again}, the timed run "
                                    f"{digests[r]}")
        return len(bad) * self.packets_per_campaign, messages

    def flip_one_bit(self) -> None:
        self.results[0]["jobs"][0]["counts"]["data_bits"] ^= 1

    @classmethod
    def reference(cls) -> list:
        with open(cls.REFERENCE) as fh:
            return json.load(fh)["digests"]

    def run_fixed(self, recorder=None) -> int:
        clear_program_caches()
        self.fixed_digests = []
        self.checkpoint_bytes = 0
        done = [0]

        def packet_done(*_args):
            done[0] += 1
            if recorder is not None:
                recorder.item = done[0]

        if recorder is not None:
            recorder.item = 0
        with scratch(self.name) as wd:
            for r in range(self.n_fixed):
                run = self.run_one(r, wd, progress=packet_done)
                self.fixed_digests.append(digest(run.results))
                self.checkpoint_bytes += os.path.getsize(wd / f"c{r}.jsonl")
        return done[0]

    def fixed_output(self) -> str:
        return digest(self.fixed_digests)

    def check_fixed(self):
        bad, messages = self._against_reference(self.fixed_digests)
        return len(bad) * self.packets_per_campaign, messages

    def _against_reference(self, digests) -> tuple:
        """``(bad campaign indexes, messages)`` against the committed
        reference; only the default seed has one."""
        if self.seed != self.REFERENCE_SEED:
            return set(), []
        bad = set()
        messages = []
        for r, (got, want) in enumerate(zip(digests, self.reference())):
            if got != want:
                bad.add(r)
                messages.append(f"campaign {r}: results {got} differ from "
                                f"the committed reference {want}")
        return bad, messages


WORKLOADS = {cls.name: cls
             for cls in (ServeRake, KernelRakeChain, CampaignOfdmArray)}
