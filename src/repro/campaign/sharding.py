"""Deterministic fan-out of jobs into reproducible shards.

Every shard of a campaign gets its own ``np.random.SeedSequence``,
derived from the campaign's master seed and the shard's **flat index**
(its position in the spec-order enumeration of ``(job, shard)`` pairs)
as ``SeedSequence(master_seed, spawn_key=(flat_index,))`` — the same
child that ``SeedSequence(master_seed).spawn(n)[flat_index]`` would
produce, but re-derived *fresh on every access*.  The derivation
depends only on ``(master_seed, flat_index)`` — not on worker count,
execution order, retries or which shards a resume skips — so:

* any shard can be re-run in isolation and reproduce itself exactly;
* a 4-worker pool, an in-process run and a resumed run all draw identical
  random streams shard for shard;
* a *retried* attempt (worker killed mid-shard, timeout, flaky raise)
  is byte-identical to a first-try run.  Carrying a live
  ``SeedSequence`` object on the task would break this: spawning
  children from it mutates its spawn counter, so an in-process retry
  would see different child streams than a fresh worker process
  unpickling the task.  Deriving from the integers sidesteps the
  shared mutable state entirely.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.campaign.spec import CampaignSpec


@dataclass(frozen=True)
class ShardTask:
    """One unit of work: shard ``shard_index`` of job ``job_id``."""

    job_id: str
    job_index: int
    shard_index: int
    flat_index: int
    kind: str
    params: tuple               # ((name, value), ...) as in JobSpec
    master_seed: int
    timeout_s: Optional[float] = None
    backend: str = "event"      # simulator scheduler for array runs
    telemetry: bool = False     # capture a flight-recorder payload
    max_events: int = 4096      # trace-event cap for the capture

    @property
    def key(self) -> tuple:
        return (self.job_index, self.shard_index)

    @property
    def param_dict(self) -> dict:
        return dict(self.params)

    @property
    def seed_seq(self) -> np.random.SeedSequence:
        """A fresh seed sequence for this shard (never shared, so no
        attempt can observe another attempt's spawn state)."""
        return np.random.SeedSequence(self.master_seed,
                                      spawn_key=(self.flat_index,))

    def rng(self) -> np.random.Generator:
        """The shard's private random stream (fresh each call)."""
        return np.random.default_rng(self.seed_seq)


def build_shards(spec: CampaignSpec, *, telemetry: bool = False,
                 max_events: int = 4096) -> list:
    """All shard tasks of a campaign, in deterministic spec order.

    ``telemetry`` arms the per-shard flight recorder
    (:mod:`repro.telemetry.flight`).  It is an execution option, not
    part of the spec, so it does not move the campaign fingerprint — a
    flight-on resume continues any checkpoint and vice versa.
    """
    tasks = []
    flat = 0
    for job_index, job in enumerate(spec.jobs):
        for shard_index in range(job.shards):
            tasks.append(ShardTask(
                job_id=job.job_id, job_index=job_index,
                shard_index=shard_index, flat_index=flat,
                kind=job.kind, params=job.params,
                master_seed=spec.master_seed, timeout_s=job.timeout_s,
                backend=job.backend, telemetry=telemetry,
                max_events=max_events))
            flat += 1
    return tasks
