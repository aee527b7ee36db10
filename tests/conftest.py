"""Shared fixtures for the unit-test suite."""

import contextlib
import functools

import pytest
from hypothesis import settings

from repro.testing import DEFAULT_SEED, seed_numpy, spawn_rngs

# the compilers CI job runs the compiler fuzz (value pass, place and
# route) ten times as long: ``--hypothesis-profile=compilers``
settings.register_profile("compilers", max_examples=1000)


@pytest.fixture(autouse=True)
def _seed_numpy():
    seed_numpy()


@pytest.fixture(autouse=True)
def _fresh_fallback_warnings():
    """Fastpath fallback warnings dedupe per (netlist, reason) process-
    wide; reset so every test observes its own first warning."""
    from repro.fastpath.runtime import reset_fallback_warnings
    reset_fallback_warnings()


@pytest.fixture(autouse=True)
def _fresh_schedule_memos():
    """Traced schedules are remembered per compiled netlist process-
    wide, and FFT64 stages stay resident per process; empty the memos
    and the stage pool so no test adopts a schedule or a stage another
    test left behind."""
    from repro.fastpath.cache import clear_schedule_memos
    from repro.kernels.fft64 import resident_stage
    clear_schedule_memos()
    resident_stage.cache_clear()


@pytest.fixture
def rngs():
    """``rngs(n)`` -> n independent generators derived from the suite
    seed (see :func:`repro.testing.spawn_rngs`)."""
    return functools.partial(spawn_rngs, DEFAULT_SEED)


@pytest.fixture
def fastpath_steps(monkeypatch):
    """A one-element list counting ``FastpathScheduler.step`` calls, the
    per-cycle replay path.  No calls across a fastpath run means every
    ``Simulator.run`` in it went through whole-run replay."""
    from repro.fastpath.runtime import FastpathScheduler
    calls = [0]
    step = FastpathScheduler.step

    def counted(self):
        calls[0] += 1
        return step(self)

    monkeypatch.setattr(FastpathScheduler, "step", counted)
    return calls


@pytest.fixture
def per_cycle(monkeypatch):
    """``with per_cycle():`` hides ``FastpathScheduler.run``, so every
    ``Simulator.run`` inside replays its trace one cycle at a time
    through ``FastpathScheduler.step``; the results must not change."""
    from repro.fastpath.runtime import FastpathScheduler

    @contextlib.contextmanager
    def hidden():
        with monkeypatch.context() as m:
            m.delattr(FastpathScheduler, "run")
            yield

    return hidden


@pytest.fixture
def adoptions(monkeypatch):
    """A one-element list counting whole runs that adopted a remembered
    schedule: right after ``TraceSession._adopt`` the session shares the
    memo's masks.  Unlike ``trace_calls`` it holds under telemetry,
    whose per-cycle records step the trace kernel."""
    from repro.fastpath.runtime import TraceSession
    calls = [0]
    adopt = TraceSession._adopt

    def counted(self, max_cycles):
        adopt(self, max_cycles)
        if self.masks is getattr(self.memo.get(self.s0), "masks", None):
            calls[0] += 1

    monkeypatch.setattr(TraceSession, "_adopt", counted)
    return calls


@pytest.fixture
def trace_calls(monkeypatch):
    """A one-element list counting calls of the generated trace kernel,
    in every ``TraceSession``.  No calls across a run means it adopted a
    remembered schedule (or replayed one it already had)."""
    from repro.fastpath.runtime import TraceSession
    calls = [0]
    init = TraceSession.__init__

    def counted_init(self, *args, **kwargs):
        init(self, *args, **kwargs)
        trace = self.trace

        def counted(*targs):
            calls[0] += 1
            return trace(*targs)

        self.trace = counted

    monkeypatch.setattr(TraceSession, "__init__", counted_init)
    return calls
