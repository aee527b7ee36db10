"""Shared fixtures for the unit-test suite."""

import functools

import pytest

from repro.testing import DEFAULT_SEED, seed_numpy, spawn_rngs


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
    wide; empty the memos so no test adopts a schedule another test
    traced."""
    from repro.fastpath.cache import clear_schedule_memos
    clear_schedule_memos()


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
