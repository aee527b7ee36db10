"""JSON-lines checkpointing: crash-safe progress, exact resume.

The checkpoint is a :class:`repro.journal.Journal` (see there for the
durability guarantee): a header record binding it to one spec
fingerprint, then one :class:`~repro.campaign.pool.ShardOutcome` record
per finished shard (successful, failed-after-retries, or skipped by
early stop).  A killed run loses at most the shard in flight.

The header is the first intact record that is not a shard record.  A
file with no header counts as fresh, so a run killed while writing the
header resumes from scratch; shard records before the header (left by
older versions, which resumed a torn-header file without writing a new
header) are bound to no fingerprint and ignored.  Torn lines anywhere
else are skipped, so a resume after a kill reads every shard recorded
before and after it.

Resume is exact by construction: finished shards are skipped, the
shards that do run draw the same per-shard seed streams they always
would (:mod:`repro.campaign.sharding`), and the aggregate folds shards
in index order — so a resumed campaign's results are byte-identical to
an uninterrupted run's.
"""

from __future__ import annotations

import os
from typing import Optional

from repro.campaign.spec import CampaignError, CampaignSpec
from repro.journal import Journal, read_records

FORMAT_VERSION = 1


def read_checkpoint(path) -> tuple:
    """``(header, shard records)`` of a checkpoint; ``(None, [])`` when
    it holds no header.  Raises :class:`CampaignError` when the first
    intact record that is not a shard record is not a checkpoint
    header."""
    records = read_records(path)
    start = 0
    while start < len(records) and records[start].get("type") == "shard":
        start += 1
    if start == len(records):
        return None, []
    header = records[start]
    if header.get("type") != "header":
        raise CampaignError(f"{os.fspath(path)}: not a campaign checkpoint")
    return header, [r for r in records[start + 1:]
                    if r.get("type") == "shard"]


class Checkpoint:
    """Append-only shard-outcome log bound to one spec fingerprint."""

    def __init__(self, path, spec: CampaignSpec):
        self.path = os.fspath(path)
        self.fingerprint = spec.fingerprint()
        self._log = Journal(self.path)
        self._fresh = True              # until load() finds a header

    def load(self) -> list:
        """Previously recorded outcome dicts, validating the header.

        Returns ``[]`` for a fresh checkpoint.  Raises
        :class:`CampaignError` if the checkpoint belongs to a different
        spec.
        """
        header, records = read_checkpoint(self.path)
        self._fresh = header is None
        if header is not None and header.get("fingerprint") \
                != self.fingerprint:
            raise CampaignError(
                f"{self.path}: checkpoint fingerprint "
                f"{header.get('fingerprint')} does not match spec "
                f"{self.fingerprint}; refusing to mix campaigns")
        return records

    def append(self, outcome) -> None:
        """Record one finished shard (a
        :class:`~repro.campaign.pool.ShardOutcome`); call
        :meth:`load` first, as :func:`open_checkpoint` does."""
        if self._fresh:
            self._log.append({"type": "header", "version": FORMAT_VERSION,
                              "fingerprint": self.fingerprint})
            self._fresh = False
        self._log.append({"type": "shard", **outcome.to_dict()})

    def close(self) -> None:
        self._log.close()

    def __enter__(self) -> "Checkpoint":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


def open_checkpoint(path: Optional[str], spec: CampaignSpec):
    """``(checkpoint, done records)`` — both empty when ``path`` is
    None (checkpointing disabled)."""
    if path is None:
        return None, []
    ck = Checkpoint(path, spec)
    return ck, ck.load()
