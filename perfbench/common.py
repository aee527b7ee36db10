"""Pieces every workload shares: paths, process hygiene, statistics.

Nothing here imports :mod:`repro` at module level, so ``run.py`` can
refuse cleanly (non-zero exit, no result line) when the source tree is
missing.
"""

from __future__ import annotations

import bisect
import math
import os
import resource
import shutil
import sys
import tempfile
import time
from contextlib import contextmanager
from pathlib import Path
from statistics import median

#: Root of the checkout: the directory that holds ``perfbench/``.
ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

#: Everything a run leaves behind (spans, layer table, scratch files)
#: goes under this directory of the checkout.
OUT_DIR = ROOT / ".perfbench_out"

#: Thread pools that would let NumPy/BLAS use more than one core and
#: turn a single-process workload into a contended one.
THREAD_ENV = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
              "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
              "BLIS_NUM_THREADS")

#: Settings the program reads from the environment that would change
#: what is measured: an on-disk compile cache makes "cold" warm, and a
#: scheduler left over from the caller's shell changes the program.
PROGRAM_ENV = ("REPRO_FASTPATH_CACHE_DIR", "REPRO_XPP_SCHEDULER")

#: The fewest samples that must lie beyond a reported percentile.
MIN_TAIL = 10

clock = time.perf_counter


def reference_unit() -> int:
    """A fixed unit of interpreter work (dict stores and sums) that uses
    nothing of the program, timed by :class:`HostSpeed`."""
    d = {}
    s = 0
    for i in range(200):
        for j in range(20):
            d[j] = i * j
        s += sum(d.values())
    return s


class HostSpeed:
    """The host's speed, sampled while a workload runs.

    On a shared virtual machine the speed of the CPU this process gets
    moves by up to ±25% over seconds to minutes as other tenants load
    the host, and the process's CPU time moves with it (it is not stolen
    time).  A run of tens of seconds cannot average that out.  So the
    benchmark times :func:`reference_unit` right after every item, and
    reports every duration scaled to the speed at which one unit takes
    :attr:`REF_UNIT_S`: a duration ``d`` measured where the unit took
    ``u`` (the median of the samples within :attr:`WINDOW_S`) reports
    as ``d * REF_UNIT_S / u``.  The unit's time is never part of an
    item's.
    """

    #: One unit's time on the reference host: the median on the two-vCPU
    #: machine the benchmark was built on, so reported figures are close
    #: to its wall-clock ones.
    REF_UNIT_S = 0.48e-3
    #: Samples within this many seconds of a duration's end set its
    #: speed: long enough to outvote an interrupt, shorter than the
    #: host's speed phases.
    WINDOW_S = 0.5

    def __init__(self):
        self.t_end: list = []       # when each sample ended, ascending
        self.unit_s: list = []      # the unit's time in each sample

    def sample(self) -> float:
        """Time one unit; returns when the sample ended."""
        t0 = clock()
        reference_unit()
        t1 = clock()
        self.t_end.append(t1)
        self.unit_s.append(t1 - t0)
        return t1

    def factor(self, t: float) -> float:
        """Reported time per wall-clock second for a duration ending at
        ``t``."""
        lo = bisect.bisect_left(self.t_end, t - self.WINDOW_S)
        hi = bisect.bisect_right(self.t_end, t + self.WINDOW_S)
        near = self.unit_s[lo:hi]
        if not near:
            raise BenchError(f"no host speed sample within "
                             f"{self.WINDOW_S} s of t={t:.3f}")
        return self.REF_UNIT_S / median(near)

    def around(self, fn, samples: int = 3) -> float:
        """Call ``fn``, which returns a wall-clock duration, and scale
        that by the speed sampled just before and just after the call."""
        for _ in range(samples):
            self.sample()
        wall_s = fn()
        for _ in range(samples):
            self.sample()
        return wall_s * self.REF_UNIT_S / median(self.unit_s[-2 * samples:])


class BenchError(Exception):
    """The benchmark cannot produce a valid result."""


class TooFewSamples(BenchError):
    """A percentile was asked of a tail too thin to estimate it."""


def pin_environment() -> None:
    """Single-threaded numerics, one CPU, no inherited program settings.

    Must run before NumPy is imported (BLAS reads its thread count once,
    at load time) and before any process is forked (children inherit
    the CPU).  The benchmark's processes never compute at the same time
    -- ``serve_rake``'s broker waits while its shard steps -- so one CPU
    loses no work, and it spares every IPC round trip the wake-up of an
    idle second CPU, whose latency on a virtual machine is set by the
    host's load rather than by the program.
    """
    for key in THREAD_ENV:
        os.environ[key] = "1"
    for key in PROGRAM_ENV:
        os.environ.pop(key, None)
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


def require_source() -> None:
    """Put the checkout's ``src`` first on the path, or refuse."""
    if not (SRC / "repro" / "__init__.py").is_file():
        raise BenchError(f"no program source at {SRC}/repro; run from a "
                         f"full checkout")
    path = str(SRC)
    if path not in sys.path:
        sys.path.insert(0, path)


@contextmanager
def scratch(tag: str):
    """A fresh directory inside the checkout, removed on the way out."""
    OUT_DIR.mkdir(exist_ok=True)
    path = Path(tempfile.mkdtemp(prefix=f"work-{tag}-", dir=OUT_DIR))
    try:
        yield path
    finally:
        shutil.rmtree(path, ignore_errors=True)


def percentile(values, q: float) -> tuple:
    """``(value, n_beyond)``: the ``q``-th percentile of ``values`` by
    linear interpolation between order statistics, and how many samples
    lie above its rank.

    Raises :class:`TooFewSamples` when fewer than :data:`MIN_TAIL`
    samples lie beyond it: a tail that thin is one or two outliers, not
    an estimate.
    """
    xs = sorted(values)
    if not xs:
        raise TooFewSamples(f"p{q:g} of no samples")
    pos = (len(xs) - 1) * q / 100.0
    lo = math.floor(pos)
    hi = min(lo + 1, len(xs) - 1)
    value = xs[lo] + (pos - lo) * (xs[hi] - xs[lo])
    beyond = len(xs) - 1 - lo
    if beyond < MIN_TAIL:
        raise TooFewSamples(
            f"p{q:g} over {len(xs)} samples has {beyond} beyond it; "
            f"need {MIN_TAIL}")
    return value, beyond


def peak_rss_mb(children: bool = False) -> float:
    """Largest resident set so far of this process, or of it and every
    child it has waited for, in MiB (``ru_maxrss`` is KiB on Linux)."""
    kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if children:
        kib = max(kib,
                  resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return kib / 1024.0


def clear_program_caches() -> None:
    """Return the program's in-process caches to their cold state.

    Clears the fastpath compile cache, the fallback-warning dedupe set
    and every ``functools`` cache defined in a loaded ``repro`` module
    (scrambling codes, preambles, twiddles ...).
    """
    from repro.fastpath.cache import clear_memory_cache
    from repro.fastpath.runtime import reset_fallback_warnings

    clear_memory_cache()
    reset_fallback_warnings()
    for name, module in list(sys.modules.items()):
        if not name.startswith("repro.") or module is None:
            continue
        for value in list(vars(module).values()):
            clear = getattr(value, "cache_clear", None)
            if callable(clear) and getattr(value, "__module__", "") == name:
                clear()


def assert_telemetry_off() -> None:
    """The program's own tracing and metrics must stay off: turning them
    on switches ``Simulator.run`` to its instrumented loop, which is a
    different program from the one users run."""
    from repro.telemetry import get_metrics, get_probes, get_tracer

    if get_tracer().enabled or get_metrics().enabled \
            or get_probes().enabled:
        raise BenchError("repro.telemetry is enabled; the benchmark "
                         "measures the uninstrumented program")
