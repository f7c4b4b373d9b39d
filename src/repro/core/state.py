"""Persistent compiler state: dormancy records across builds.

The state is a map

    (pipeline position, IR fingerprint entering that position)
        -> DormancyRecord(dormant, fingerprint_out, last_used_build)

Keying by fingerprint rather than function name has two consequences
the paper's design cares about:

1. **Safety** — a record can only be applied to IR that hashes to the
   recorded fingerprint; renames, edits, and pipeline divergence all
   change the fingerprint and naturally miss.
2. **Sharing** — two identical functions of one translation unit (or
   the same function in two builds) share records for free.

The state file additionally stores the pipeline signature (pass names
by position) and fingerprint mode; a mismatch invalidates the whole
state, as does a schema version bump.  Entries unused for
``gc_max_age`` consecutive builds are garbage-collected so the file
does not grow without bound as code churns.

A build keeps one state per translation unit (a *shard*, see
:mod:`repro.buildsys.builddb`): each shard carries its own pipeline
signature, fingerprint mode, compile counter and GC, so an incompatible
shard is discarded for its unit alone, and a ``-j N`` worker compiles
against its unit's shard and hands the new shard back whole.

:meth:`CompilerState.snapshot` and :meth:`CompilerState.merge_delta`
are what remains of the global state's parallel-build protocol:
the collision audit compiles against snapshots, and ``merge_delta``
(last-writer-wins, freshest GC timestamp) no longer has a caller in
the build.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field, replace
from pathlib import Path

from repro.obs.metrics import MetricsRegistry
from repro.persist import CorruptArtifactError, atomic_write, read_artifact

#: v4 keys call sites by the callee's purity (see
#: :func:`repro.ir.fingerprint.fingerprint_function`).
STATE_SCHEMA_VERSION = 4


@dataclass
class DormancyRecord:
    """What happened when a pass ran on IR with a given fingerprint."""

    dormant: bool
    #: Fingerprint after the pass ran (== the incoming one when dormant).
    fingerprint_out: str
    #: Build counter when this record was last consulted or refreshed.
    last_used_build: int = 0


@dataclass
class StateDelta:
    """Records created or refreshed while compiling against a snapshot.

    The payload of :meth:`CompilerState.merge_delta`.  All
    ``last_used_build`` values in a delta are expected to equal
    ``build_counter`` (records touched during one build tick).
    """

    build_counter: int
    records: dict[tuple[int, str], DormancyRecord] = field(default_factory=dict)

    @property
    def num_records(self) -> int:
        return len(self.records)


@dataclass(frozen=True)
class SerializedShard:
    """One unit's state as the build DB stores it, with its bookkeeping."""

    json: str
    records: int
    #: Records garbage collection removed just before serializing.
    gc_reclaimed: int = 0


@dataclass
class CompilerState:
    """In-memory compiler state, serializable to one JSON file."""

    pipeline_signature: str = ""
    fingerprint_mode: str = "canonical"
    build_counter: int = 0
    gc_max_age: int = 50
    #: Lifetime garbage-collection accounting, persisted with the state
    #: so cross-build analytics can tell "GC never ran" from "GC ran and
    #: found nothing" (the drift detector's state-growth check needs
    #: exactly that distinction).
    gc_runs: int = 0
    gc_reclaimed_total: int = 0
    records: dict[tuple[int, str], DormancyRecord] = field(default_factory=dict)
    #: Records reclaimed by the most recent :meth:`collect_garbage` of
    #: this process (not persisted; 0 until GC runs).
    last_gc_reclaimed: int = field(default=0, init=False, repr=False, compare=False)
    #: Observability sink (``None`` = don't report); never serialized,
    #: never copied into snapshots.
    _metrics: MetricsRegistry | None = field(
        default=None, init=False, repr=False, compare=False
    )

    # -- observability -------------------------------------------------------

    def attach_metrics(self, metrics: MetricsRegistry | None) -> None:
        """Report record churn and snapshot/merge cost into ``metrics``."""
        self._metrics = metrics

    # -- record access ------------------------------------------------------

    def lookup(self, position: int, fingerprint: str) -> DormancyRecord | None:
        """Fetch a record, refreshing its GC timestamp on hit."""
        record = self.records.get((position, fingerprint))
        if record is not None:
            record.last_used_build = self.build_counter
            if self._metrics is not None:
                self._metrics.inc("state.records_refreshed")
        return record

    def remember(
        self, position: int, fingerprint_in: str, dormant: bool, fingerprint_out: str
    ) -> None:
        if self._metrics is not None:
            key = "state.records_updated" if (
                (position, fingerprint_in) in self.records
            ) else "state.records_added"
            self._metrics.inc(key)
        self.records[(position, fingerprint_in)] = DormancyRecord(
            dormant, fingerprint_out, self.build_counter
        )

    def begin_build(self) -> None:
        """Advance the build counter (once per build; a build DB's shard

        advances once per compile of its unit)."""
        self.build_counter += 1

    def collect_garbage(self) -> int:
        """Drop records unused for more than ``gc_max_age`` builds."""
        cutoff = self.build_counter - self.gc_max_age
        stale = [k for k, r in self.records.items() if r.last_used_build < cutoff]
        for key in stale:
            del self.records[key]
        self.gc_runs += 1
        self.gc_reclaimed_total += len(stale)
        self.last_gc_reclaimed = len(stale)
        if self._metrics is not None:
            self._metrics.inc("state.records_gced", len(stale))
        return len(stale)

    @property
    def num_records(self) -> int:
        return len(self.records)

    def size_summary(self) -> dict:
        """Size and GC counters for observability (history/dashboard).

        ``bytes`` is the serialized size — the state's actual footprint
        in the build database, which is what "monotone state growth"
        analytics should watch rather than the record count alone.
        """
        return {
            "records": self.num_records,
            "bytes": len(self.to_json()),
            "build_counter": self.build_counter,
            "gc_runs": self.gc_runs,
            "gc_reclaimed_total": self.gc_reclaimed_total,
            "gc_reclaimed_last": self.last_gc_reclaimed,
        }

    def to_shard(self) -> SerializedShard:
        return SerializedShard(self.to_json(), self.num_records, self.last_gc_reclaimed)

    def finish_compile(self) -> SerializedShard:
        """Collect garbage after one unit's compile, then serialize.

        The serialized form is what the build DB stores and sizes, so
        the state is serialized once per compile and never to measure it.
        """
        self.collect_garbage()
        return self.to_shard()

    # -- snapshot/merge -------------------------------------------------------

    def snapshot(self) -> "CompilerState":
        """An independent copy to compile against without writing through.

        Records are copied individually because :meth:`lookup` mutates
        ``last_used_build`` in place.  The copy carries no metrics sink.
        """
        start = time.perf_counter()
        copy = CompilerState(
            pipeline_signature=self.pipeline_signature,
            fingerprint_mode=self.fingerprint_mode,
            build_counter=self.build_counter,
            gc_max_age=self.gc_max_age,
            records={key: replace(record) for key, record in self.records.items()},
        )
        if self._metrics is not None:
            self._metrics.observe("state.snapshot_time", time.perf_counter() - start)
            self._metrics.inc("state.snapshots")
        return copy

    def merge_delta(self, delta: StateDelta) -> int:
        """Fold a delta into this state; returns records merged.

        Last-writer-wins on conflicting keys (passes are deterministic,
        so conflicting writers carry identical verdicts); the GC
        timestamp is kept at the maximum of the two.
        """
        start = time.perf_counter()
        for key, incoming in delta.records.items():
            existing = self.records.get(key)
            merged = replace(incoming)
            if existing is not None:
                merged.last_used_build = max(
                    existing.last_used_build, incoming.last_used_build
                )
            self.records[key] = merged
        self.build_counter = max(self.build_counter, delta.build_counter)
        if self._metrics is not None:
            self._metrics.observe("state.merge_time", time.perf_counter() - start)
            self._metrics.inc("state.records_merged", len(delta.records))
        return len(delta.records)

    # -- compatibility ---------------------------------------------------------

    def compatible_with(self, pipeline_signature: str, fingerprint_mode: str) -> bool:
        return (
            self.pipeline_signature == pipeline_signature
            and self.fingerprint_mode == fingerprint_mode
        )

    # -- serialization ------------------------------------------------------------

    def to_json(self) -> str:
        payload = {
            "schema": STATE_SCHEMA_VERSION,
            "pipeline": self.pipeline_signature,
            "fingerprint_mode": self.fingerprint_mode,
            "build_counter": self.build_counter,
            "gc_max_age": self.gc_max_age,
            "gc_runs": self.gc_runs,
            "gc_reclaimed": self.gc_reclaimed_total,
            "records": [
                [pos, fp, int(r.dormant), r.fingerprint_out, r.last_used_build]
                for (pos, fp), r in sorted(self.records.items())
            ],
        }
        return json.dumps(payload, separators=(",", ":"))

    @classmethod
    def from_json(cls, text: str) -> "CompilerState":
        payload = json.loads(text)
        if payload.get("schema") != STATE_SCHEMA_VERSION:
            raise ValueError(
                f"state schema {payload.get('schema')} != {STATE_SCHEMA_VERSION}"
            )
        state = cls(
            pipeline_signature=payload["pipeline"],
            fingerprint_mode=payload["fingerprint_mode"],
            build_counter=payload["build_counter"],
            gc_max_age=payload.get("gc_max_age", 50),
            gc_runs=payload.get("gc_runs", 0),
            gc_reclaimed_total=payload.get("gc_reclaimed", 0),
        )
        for pos, fp, dormant, fp_out, last_used in payload["records"]:
            state.records[(pos, fp)] = DormancyRecord(bool(dormant), fp_out, last_used)
        return state

    # -- file I/O ----------------------------------------------------------------------

    def save(self, path: str | Path, *, durable: bool = True) -> int:
        """Write crash-consistently; returns the on-disk size in bytes.

        Same checksummed atomic-replace protocol as the build DB
        (:func:`repro.persist.atomic_write`): a crash mid-save leaves
        the previous state file intact, never a torn one.
        """
        return atomic_write(Path(path), self.to_json().encode("utf-8"), durable=durable)

    @classmethod
    def load(
        cls,
        path: str | Path,
        *,
        pipeline_signature: str,
        fingerprint_mode: str = "canonical",
    ) -> "CompilerState":
        """Load state, returning a fresh one on any incompatibility.

        A missing file, unreadable/corrupt bytes (including a failed
        artifact checksum), schema mismatch, or pipeline /
        fingerprint-mode mismatch all yield an empty state — stale or
        damaged state must never be applied, and losing it only costs
        one build's worth of bypasses.
        """
        path = Path(path)
        fresh = cls(
            pipeline_signature=pipeline_signature, fingerprint_mode=fingerprint_mode
        )
        if not path.is_file():
            return fresh
        try:
            state = cls.from_json(read_artifact(path).decode("utf-8"))
        except (
            ValueError, KeyError, json.JSONDecodeError, OSError,
            UnicodeDecodeError, CorruptArtifactError,
        ):
            return fresh
        if not state.compatible_with(pipeline_signature, fingerprint_mode):
            return fresh
        return state


def pipeline_signature_of(pipeline) -> str:
    """Stable signature of a pipeline's function-pass sequence."""
    return "|".join(pipeline.position_names())
