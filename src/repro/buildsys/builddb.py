"""The build database: content digests, cached objects, dormancy-state shards.

One JSON file per build tree, playing the role of ninja's ``.ninja_log``
+ ``.ninja_deps`` + the object directory.  Per translation unit the DB
records the source digest, the digest of every transitively included
header (``None`` for headers that were missing when the unit was
built), and the compiled object's JSON.  A unit is up to date when its
current :class:`DependencySnapshot` matches the record exactly;
anything else — edited source, edited header, a header added/removed
from the closure, a previously missing header appearing — forces a
recompile.

The stateful compiler's dormancy records live in one
:class:`~repro.core.state.CompilerState` *shard* per unit.  A shard is
its own checksummed :mod:`repro.persist` artifact in the directory
beside the DB (:func:`default_state_dir`), named by the SHA-256 of its
content; the unit's record holds that digest and the shard's record
count and byte size.  A build therefore reads only the dirty units'
shards, writes only the recompiled units' shards, and sizes the whole
state from the records without touching any shard.  :meth:`save`
writes new shards first, then the DB — the single commit point — and
deletes unreferenced shard files only after the DB is committed, so a
crash at any instant leaves a DB whose shards all exist.

Like the compiler state, the DB is disposable: a missing or
schema-incompatible file loads as an empty database and the next build
is simply a clean build.  A *corrupt* file (zero bytes, torn JSON, a
failed checksum) raises the typed :class:`CorruptDatabaseError` so the
caller can log what happened before falling back to the same full
rebuild — cache loss is a performance event, never a correctness one,
but silent cache loss is a diagnosis event someone deserves to see.
A missing, corrupt or incompatible *shard* costs only its unit's
bypasses: it loads as an empty shard and is noted in
:attr:`BuildDatabase.discarded`, never treated as a corrupt DB.
"""

from __future__ import annotations

import hashlib
import json
import os
from contextlib import suppress
from dataclasses import dataclass, field
from pathlib import Path

from repro.buildsys.deps import DependencySnapshot
from repro.core.state import CompilerState, SerializedShard
from repro.persist import (
    CorruptArtifactError,
    PersistError,
    atomic_write,
    fsync_dir,
    read_artifact,
)
from repro.persist import io

#: v2 added per-unit observability (pass statistics, wall time, worker)
#: so ``reprobuild explain`` can report where a unit's compile time
#: went; v3 moved the compiler state out of the DB into per-unit
#: shards.  v1 and v2 files still load their units; their embedded
#: global state is dropped (and reported in ``discarded``).
DB_SCHEMA_VERSION = 3
_READABLE_SCHEMAS = (1, 2, 3)


def default_state_dir(db_path: str | Path) -> Path:
    """Where the dormancy-state shards of the DB at ``db_path`` live."""
    return Path(f"{db_path}.state")


class CorruptDatabaseError(PersistError):
    """The build DB file exists but its contents are unusable.

    Distinct from a *schema-incompatible* DB (a valid file written by a
    different version — silently treated as empty): corruption means
    the bytes themselves are damaged (zero-byte file, torn write,
    checksum mismatch).  The CLI catches this, reports it, and rebuilds
    from scratch; it must never escape as a traceback.
    """

    def __init__(self, path: str | Path, reason: str):
        super().__init__(f"corrupt build database {path}: {reason}")
        self.path = str(path)
        self.reason = reason


class ShardError(PersistError):
    """A unit's dormancy-state shard cannot be used (missing, damaged, old)."""

    def __init__(self, path: str, reason: str):
        super().__init__(f"{path}: {reason}")
        self.path = path
        self.reason = reason


@dataclass
class UnitRecord:
    """What the last successful build of one translation unit saw."""

    path: str
    source_digest: str
    #: Include-closure digests at build time (``None`` = header missing).
    dep_digests: dict[str, str | None]
    #: The compiled object, cached verbatim for up-to-date reuse.
    object_json: str
    #: Bypass statistics of the recording compile
    #: (:meth:`~repro.core.statistics.BypassStatistics.to_dict` payload;
    #: empty for records loaded from v1 databases).
    stats: dict = field(default_factory=dict)
    #: Wall-clock seconds of the recording compile (0.0 = unknown).
    wall_time: float = 0.0
    #: Who compiled it: "main", "pid-<n>", or a worker-thread name.
    worker: str = "main"
    #: SHA-256 of the unit's dormancy-state shard (``None`` = no shard).
    state_digest: str | None = None
    #: Records in, and serialized size of, that shard.
    state_records: int = 0
    state_bytes: int = 0


@dataclass
class BuildDatabase:
    """All build products and metadata for one project tree."""

    units: dict[str, UnitRecord] = field(default_factory=dict)
    #: Lifetime shard garbage-collection accounting, summed over units
    #: (the drift detector tells "GC never ran" from "GC found nothing").
    gc_runs: int = 0
    gc_reclaimed_total: int = 0
    #: Directory holding the persisted shards (``None`` = in memory only).
    state_dir: Path | None = None
    #: One line per piece of dormancy state dropped since the DB was
    #: loaded (incompatible, corrupt or missing shard; v1/v2 global
    #: state).  The builder drains it into ``state.discarded``.
    discarded: list[str] = field(default_factory=list)
    #: Shard payloads created or read by this process, by digest.
    _shards: dict[str, bytes] = field(default_factory=dict, repr=False)
    #: Digests whose file in :attr:`state_dir` turned out unusable.
    _damaged: set[str] = field(default_factory=set, repr=False)

    # -- up-to-date checks --------------------------------------------------

    def up_to_date(self, snapshot: DependencySnapshot) -> bool:
        """Is the recorded build of this unit still valid?"""
        record = self.units.get(snapshot.path)
        return (
            record is not None
            and snapshot.source_digest is not None
            and record.source_digest == snapshot.source_digest
            and record.dep_digests == snapshot.dep_digests
        )

    def record_unit(
        self,
        snapshot: DependencySnapshot,
        object_json: str,
        *,
        stats: dict | None = None,
        wall_time: float = 0.0,
        worker: str = "main",
        shard: SerializedShard | None = None,
    ) -> None:
        """Store a fresh compilation result for one unit.

        ``shard`` is the unit's new dormancy state; without one (a
        stateless compile) the unit keeps the shard it had, which stays
        valid because records are keyed by IR content.
        """
        assert snapshot.source_digest is not None
        previous = self.units.get(snapshot.path)
        record = UnitRecord(
            path=snapshot.path,
            source_digest=snapshot.source_digest,
            dep_digests=dict(snapshot.dep_digests),
            object_json=object_json,
            stats=dict(stats) if stats else {},
            wall_time=wall_time,
            worker=worker,
        )
        if previous is not None:
            record.state_digest = previous.state_digest
            record.state_records = previous.state_records
            record.state_bytes = previous.state_bytes
        self.units[snapshot.path] = record
        if shard is not None:
            self.set_state(snapshot.path, shard)
            self.gc_runs += 1
            self.gc_reclaimed_total += shard.gc_reclaimed

    def prune(self, keep: list[str]) -> list[str]:
        """Drop records (and so shards) of units no longer in the project."""
        stale = sorted(set(self.units) - set(keep))
        for path in stale:
            del self.units[path]
        return stale

    # -- dormancy-state shards -----------------------------------------------

    def set_state(self, path: str, shard: SerializedShard) -> None:
        """Make ``shard`` the dormancy state of the recorded unit ``path``."""
        payload = shard.json.encode("utf-8")
        digest = hashlib.sha256(payload).hexdigest()
        self._shards[digest] = payload
        record = self.units[path]
        old, record.state_digest = record.state_digest, digest
        if old is not None and all(r.state_digest != old for r in self.units.values()):
            self._shards.pop(old, None)
        record.state_records = shard.records
        record.state_bytes = len(payload)

    def read_state(self, path: str) -> CompilerState | None:
        """The stored shard of unit ``path``; ``None`` if it has none.

        Raises :class:`ShardError` when the shard file is missing,
        damaged or of another state schema.
        """
        record = self.units.get(path)
        if record is None or record.state_digest is None:
            return None
        digest = record.state_digest
        try:
            payload = self._payload(digest)
        except FileNotFoundError:
            raise ShardError(path, f"shard file {digest[:12]} is missing") from None
        except (OSError, CorruptArtifactError) as exc:
            self._damaged.add(digest)
            raise ShardError(path, f"shard {digest[:12]} is unreadable: {exc}") from exc
        try:
            return CompilerState.from_json(payload.decode("utf-8"))
        except (ValueError, KeyError, TypeError, UnicodeDecodeError) as exc:
            self._damaged.add(digest)
            self._shards.pop(digest, None)
            raise ShardError(path, f"shard {digest[:12]} is unusable: {exc}") from exc

    def unit_state(
        self, path: str, *, pipeline_signature: str, fingerprint_mode: str
    ) -> CompilerState:
        """The shard to compile unit ``path`` against.

        A shard written for another pipeline or fingerprint mode, or
        one that cannot be read, is replaced by an empty one and noted
        in :attr:`discarded`: stale records must never be consulted,
        and losing them costs only this unit's bypasses.
        """
        fresh = CompilerState(
            pipeline_signature=pipeline_signature, fingerprint_mode=fingerprint_mode
        )
        try:
            state = self.read_state(path)
        except ShardError as exc:
            self.discarded.append(str(exc))
            return fresh
        if state is None:
            return fresh
        if not state.compatible_with(pipeline_signature, fingerprint_mode):
            self.discarded.append(
                f"{path}: shard was written for another pipeline or fingerprint mode"
            )
            return fresh
        return state

    @property
    def state_records(self) -> int:
        return sum(record.state_records for record in self.units.values())

    @property
    def state_bytes(self) -> int:
        return sum(record.state_bytes for record in self.units.values())

    # -- serialization ------------------------------------------------------

    def to_json(self) -> str:
        payload = {
            "schema": DB_SCHEMA_VERSION,
            "units": [
                {
                    "path": r.path,
                    "source": r.source_digest,
                    "deps": [[p, d] for p, d in sorted(r.dep_digests.items())],
                    "object": r.object_json,
                    "stats": r.stats,
                    "wall": r.wall_time,
                    "worker": r.worker,
                    "state": (
                        [r.state_digest, r.state_records, r.state_bytes]
                        if r.state_digest is not None
                        else None
                    ),
                }
                for r in sorted(self.units.values(), key=lambda r: r.path)
            ],
            "state_gc": [self.gc_runs, self.gc_reclaimed_total],
        }
        return json.dumps(payload, separators=(",", ":"))

    @classmethod
    def _from_payload(cls, payload: dict) -> "BuildDatabase":
        db = cls()
        for entry in payload["units"]:
            record = UnitRecord(
                path=entry["path"],
                source_digest=entry["source"],
                dep_digests={p: d for p, d in entry["deps"]},
                object_json=entry["object"],
                stats=entry.get("stats") or {},
                wall_time=float(entry.get("wall", 0.0)),
                worker=entry.get("worker", "main"),
            )
            if payload["schema"] >= 3 and entry.get("state") is not None:
                digest, records, size = entry["state"]
                record.state_digest = str(digest)
                record.state_records = int(records)
                record.state_bytes = int(size)
            db.units[record.path] = record
        if payload["schema"] >= 3:
            db.gc_runs, db.gc_reclaimed_total = (int(n) for n in payload["state_gc"])
        elif payload.get("state") is not None:
            db.discarded.append(
                f"build DB schema {payload['schema']} keeps one global dormancy "
                "state; it was dropped (state is now kept per unit)"
            )
        return db

    # -- file I/O -----------------------------------------------------------

    def save(self, path: str | Path, *, durable: bool = True) -> int:
        """Write crash-consistently; returns the DB file's size in bytes.

        New shards go first (each checksummed and atomically renamed,
        then one fsync of the shard directory), then the DB through the
        same protocol (:func:`repro.persist.atomic_write`), and only
        then are shard files the DB no longer references deleted.
        ``durable=False`` skips the fsyncs (benchmarks measuring the
        protocol's cost use it).
        """
        path = Path(path)
        state_dir = default_state_dir(path)
        referenced = {r.state_digest for r in self.units.values() if r.state_digest}
        # Content-addressed: a shard file already on disk under its
        # digest holds the right bytes, unless a read found it damaged
        # (a rebuilt unit can produce the same shard again).
        new = sorted(
            d for d in referenced
            if d in self._damaged or not (state_dir / d).is_file()
        )
        if new:
            if not state_dir.is_dir():
                state_dir.mkdir(parents=True, exist_ok=True)
                if durable:
                    fsync_dir(state_dir.parent)
            for digest in new:
                try:
                    payload = self._payload(digest)
                except (OSError, CorruptArtifactError):
                    continue  # lost: its unit will load an empty shard
                atomic_write(state_dir / digest, payload, durable=durable, sync_dir=False)
            if durable:
                fsync_dir(state_dir)
        size = atomic_write(path, self.to_json().encode("utf-8"), durable=durable)
        self.state_dir = state_dir
        self._damaged.clear()
        self._remove_orphans(referenced)
        return size

    def _payload(self, digest: str) -> bytes:
        """A shard's bytes: from memory, else from the DB's shard directory.

        Raises ``FileNotFoundError`` (or another ``OSError``, or
        :class:`~repro.persist.CorruptArtifactError`) when it is in neither.
        """
        payload = self._shards.get(digest)
        if payload is None:
            if self.state_dir is None:
                raise FileNotFoundError(f"shard {digest} is not in memory")
            payload = self._shards[digest] = read_artifact(self.state_dir / digest)
        return payload

    def _remove_orphans(self, referenced: set[str]) -> None:
        """Delete shard files (and torn temp files) the DB does not reference.

        Runs after the DB commit; a failure here only leaves garbage
        that the next save deletes.
        """
        assert self.state_dir is not None
        try:
            names = os.listdir(self.state_dir)
        except OSError:
            return
        for name in names:
            if name not in referenced:
                with suppress(OSError):
                    io.backend().unlink(str(self.state_dir / name))
        for digest in set(self._shards) - referenced:
            del self._shards[digest]

    @classmethod
    def load(cls, path: str | Path) -> "BuildDatabase":
        """Load a DB; missing or version-skewed files load empty.

        Raises :class:`CorruptDatabaseError` when the file exists but
        its bytes are damaged (zero-byte, torn JSON, failed checksum) —
        callers that just want the disposable-cache behaviour use
        :meth:`load_or_empty`.  Shards are not read here: a build reads
        only the dirty units' shards, through :meth:`unit_state`.
        """
        path = Path(path)
        if not path.is_file():
            return cls()
        try:
            blob = read_artifact(path)
        except CorruptArtifactError as exc:
            raise CorruptDatabaseError(path, exc.reason) from exc
        except OSError as exc:
            raise CorruptDatabaseError(path, f"unreadable: {exc}") from exc
        if not blob.strip():
            raise CorruptDatabaseError(path, "file is empty")
        try:
            payload = json.loads(blob.decode("utf-8"))
        except (UnicodeDecodeError, ValueError) as exc:
            raise CorruptDatabaseError(path, f"not valid JSON: {exc}") from exc
        if not isinstance(payload, dict):
            raise CorruptDatabaseError(path, "top-level JSON is not an object")
        if payload.get("schema") not in _READABLE_SCHEMAS:
            # A valid file from an incompatible version is the normal
            # disposable-cache case, not corruption: clean rebuild.
            return cls()
        try:
            db = cls._from_payload(payload)
        except (ValueError, KeyError, TypeError) as exc:
            raise CorruptDatabaseError(path, f"malformed payload: {exc}") from exc
        db.state_dir = default_state_dir(path)
        return db

    @classmethod
    def load_or_empty(
        cls, path: str | Path
    ) -> tuple["BuildDatabase", "CorruptDatabaseError | None"]:
        """Like :meth:`load`, but corruption yields ``(empty DB, error)``.

        The returned error (or ``None``) lets callers log the recovery
        without string-matching; the build itself proceeds as a clean
        full rebuild either way.
        """
        try:
            return cls.load(path), None
        except CorruptDatabaseError as exc:
            return cls(), exc

