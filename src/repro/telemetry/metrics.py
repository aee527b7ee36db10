"""Counters, gauges and histograms with periodic snapshotting.

The registry is the numeric companion to the tracer: where the tracer
answers *when*, metrics answer *how much* — reconfiguration latency
distributions, per-object firing rates, FIFO depth histograms,
tokens per cycle.  Like the tracer there is a process-wide registry
(:func:`get_metrics`) whose default is a no-op :class:`NullMetrics`,
so instrumented code pays nothing when metrics are off.

Snapshotting: a registry built with ``snapshot_every=N`` records a
full snapshot of every instrument each time :meth:`MetricsRegistry.
maybe_snapshot` crosses an N-cycle boundary; the simulator calls it
once per step, giving a time series of the run at zero cost to code
that never asks for it.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from typing import Optional

#: Default histogram bucket upper bounds (powers of two cover cycle
#: counts, FIFO depths and latencies equally well).
DEFAULT_BOUNDS = (1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024)


class Counter:
    """A monotonically increasing count."""

    __slots__ = ("name", "value")

    def __init__(self, name: str):
        self.name = name
        self.value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ValueError(f"counter {self.name!r}: negative increment")
        self.value += amount

    def to_dict(self) -> dict:
        return {"type": "counter", "value": self.value}


class Gauge:
    """A value that goes up and down (load, occupancy, finger count)."""

    __slots__ = ("name", "value")

    def __init__(self, name: str):
        self.name = name
        self.value = 0.0

    def set(self, value: float) -> None:
        self.value = float(value)

    def add(self, delta: float) -> None:
        self.value += delta

    def to_dict(self) -> dict:
        return {"type": "gauge", "value": self.value}


class Histogram:
    """Fixed-bucket histogram with sum/min/max tracking.

    ``bounds`` are inclusive upper edges; one overflow bucket catches
    everything above the last bound.  An observation equal to a bound
    lands in that bound's bucket.
    """

    __slots__ = ("name", "bounds", "buckets", "count", "total",
                 "min", "max")

    def __init__(self, name: str, bounds=DEFAULT_BOUNDS):
        if not bounds or list(bounds) != sorted(bounds):
            raise ValueError(
                f"histogram {name!r}: bounds must be non-empty and sorted")
        self.name = name
        self.bounds = tuple(float(b) for b in bounds)
        self.buckets = [0] * (len(self.bounds) + 1)
        self.count = 0
        self.total = 0.0
        self.min = math.inf
        self.max = -math.inf

    def observe(self, value: float) -> None:
        self.count += 1
        self.total += value
        if value < self.min:
            self.min = value
        if value > self.max:
            self.max = value
        # first bound >= value; NaN compares false against every bound,
        # so it goes to the overflow bucket, not bucket 0
        self.buckets[bisect_left(self.bounds, value)
                     if value == value else -1] += 1

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def quantile(self, q: float) -> float:
        """Approximate quantile: the upper bound of the bucket where the
        q-fraction rank lands (the overflow bucket reports the max)."""
        if not 0.0 <= q <= 1.0:
            raise ValueError("quantile must be in [0, 1]")
        if self.count == 0:
            return 0.0
        rank = q * self.count
        seen = 0
        for i, n in enumerate(self.buckets):
            seen += n
            if seen >= rank and n:
                return self.bounds[i] if i < len(self.bounds) else self.max
        return self.max

    def percentile(self, q: float) -> float:
        """:meth:`quantile` on the 0..100 scale (``percentile(95)`` is
        the p95 the run reports print)."""
        if not 0.0 <= q <= 100.0:
            raise ValueError("percentile must be in [0, 100]")
        return self.quantile(q / 100.0)

    def to_dict(self) -> dict:
        return {
            "type": "histogram",
            "count": self.count,
            "sum": self.total,
            "mean": self.mean,
            "min": self.min if self.count else None,
            "max": self.max if self.count else None,
            "p50": self.percentile(50) if self.count else None,
            "p95": self.percentile(95) if self.count else None,
            "bounds": list(self.bounds),
            "buckets": list(self.buckets),
        }


class MetricsRegistry:
    """Named instruments with get-or-create semantics."""

    enabled = True

    def __init__(self, *, snapshot_every: Optional[int] = None):
        self._instruments: dict = {}
        self.snapshot_every = snapshot_every
        self.snapshots: list[dict] = []
        self._last_snapshot_cycle: Optional[float] = None

    # -- instruments --------------------------------------------------------

    def _get(self, name: str, cls, *args):
        inst = self._instruments.get(name)
        if inst is None:
            inst = cls(name, *args)
            self._instruments[name] = inst
        elif not isinstance(inst, cls):
            raise TypeError(f"metric {name!r} is a {type(inst).__name__}, "
                            f"not a {cls.__name__}")
        return inst

    def counter(self, name: str) -> Counter:
        return self._get(name, Counter)

    def gauge(self, name: str) -> Gauge:
        return self._get(name, Gauge)

    def histogram(self, name: str, bounds=DEFAULT_BOUNDS) -> Histogram:
        return self._get(name, Histogram, bounds)

    def names(self) -> list:
        return sorted(self._instruments)

    def __contains__(self, name: str) -> bool:
        return name in self._instruments

    def __len__(self) -> int:
        return len(self._instruments)

    # -- snapshotting -------------------------------------------------------

    def to_dict(self) -> dict:
        """Serializable state of every instrument."""
        return {name: inst.to_dict()
                for name, inst in sorted(self._instruments.items())}

    def take_snapshot(self, cycle: float) -> dict:
        snap = {"cycle": cycle, "metrics": self.to_dict()}
        self.snapshots.append(snap)
        self._last_snapshot_cycle = cycle
        return snap

    def maybe_snapshot(self, cycle: float) -> Optional[dict]:
        """Snapshot when ``snapshot_every`` cycles have elapsed since the
        last one; returns the snapshot taken, else None."""
        if self.snapshot_every is None:
            return None
        last = self._last_snapshot_cycle
        if last is None or cycle - last >= self.snapshot_every:
            return self.take_snapshot(cycle)
        return None

    def clear(self) -> None:
        self._instruments = {}
        self.snapshots = []
        self._last_snapshot_cycle = None


class _NullInstrument:
    """Shared sink for the metrics-off path: accepts any update."""

    __slots__ = ()
    value = 0.0
    count = 0

    def inc(self, amount: float = 1.0) -> None:
        pass

    def set(self, value: float) -> None:
        pass

    def add(self, delta: float) -> None:
        pass

    def observe(self, value: float) -> None:
        pass


_NULL_INSTRUMENT = _NullInstrument()


class NullMetrics:
    """The metrics-off default registry: hands out one shared no-op
    instrument and never snapshots."""

    enabled = False
    snapshots: list = []
    snapshot_every = None

    def counter(self, name: str):
        return _NULL_INSTRUMENT

    def gauge(self, name: str):
        return _NULL_INSTRUMENT

    def histogram(self, name: str, bounds=DEFAULT_BOUNDS):
        return _NULL_INSTRUMENT

    def names(self) -> list:
        return []

    def to_dict(self) -> dict:
        return {}

    def take_snapshot(self, cycle: float) -> dict:
        return {"cycle": cycle, "metrics": {}}

    def maybe_snapshot(self, cycle: float) -> None:
        return None

    def clear(self) -> None:
        pass

    def __contains__(self, name: str) -> bool:
        return False

    def __len__(self) -> int:
        return 0


NULL_METRICS = NullMetrics()

_metrics = NULL_METRICS


def get_metrics():
    """The process-wide metrics registry (no-op unless installed)."""
    return _metrics


def set_metrics(registry):
    """Install ``registry`` process-wide; returns the previous one."""
    global _metrics
    previous = _metrics
    _metrics = registry if registry is not None else NULL_METRICS
    return previous


def enable_metrics(*, snapshot_every: Optional[int] = None) -> MetricsRegistry:
    """Install and return a fresh recording registry."""
    registry = MetricsRegistry(snapshot_every=snapshot_every)
    set_metrics(registry)
    return registry


def disable_metrics() -> None:
    set_metrics(NULL_METRICS)


class collecting:
    """Context manager scoping a recording metrics registry."""

    def __init__(self, registry: Optional[MetricsRegistry] = None, *,
                 snapshot_every: Optional[int] = None):
        self.registry = registry if registry is not None \
            else MetricsRegistry(snapshot_every=snapshot_every)
        self._previous = None

    def __enter__(self) -> MetricsRegistry:
        self._previous = set_metrics(self.registry)
        return self.registry

    def __exit__(self, *exc) -> None:
        set_metrics(self._previous)
