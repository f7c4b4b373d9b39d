"""BuildDatabase: up-to-date checks and (de)serialization round trips."""

import json

import pytest

from repro.buildsys.builddb import (
    DB_SCHEMA_VERSION,
    BuildDatabase,
    CorruptDatabaseError,
    default_state_dir,
)
from repro.buildsys.deps import DependencySnapshot, content_digest
from repro.core.state import CompilerState
from repro.persist import read_artifact
from repro.testing import count_io_ops


def snapshot_of(path, text, deps=None):
    return DependencySnapshot(path, content_digest(text), dict(deps or {}))


def sample_db():
    db = BuildDatabase()
    db.record_unit(
        snapshot_of("main.mc", "int main() { return 0; }", {"a.mh": content_digest("x")}),
        '{"format": "repro-object-v1"}',
    )
    state = CompilerState(pipeline_signature="p1|p2", fingerprint_mode="canonical")
    state.begin_build()
    state.remember(0, "fp-in", True, "fp-in")
    state.remember(1, "fp-in", False, "fp-out")
    db.set_state("main.mc", state.to_shard())
    return db


class TestUpToDate:
    def test_unknown_unit_is_dirty(self):
        assert not BuildDatabase().up_to_date(snapshot_of("m.mc", "x"))

    def test_recorded_unit_is_clean(self):
        db = BuildDatabase()
        snap = snapshot_of("m.mc", "x", {"h.mh": content_digest("h")})
        db.record_unit(snap, "{}")
        assert db.up_to_date(snap)

    def test_source_change_dirties(self):
        db = BuildDatabase()
        db.record_unit(snapshot_of("m.mc", "x"), "{}")
        assert not db.up_to_date(snapshot_of("m.mc", "y"))

    def test_dep_change_dirties(self):
        db = BuildDatabase()
        db.record_unit(snapshot_of("m.mc", "x", {"h.mh": "d1"}), "{}")
        assert not db.up_to_date(snapshot_of("m.mc", "x", {"h.mh": "d2"}))
        assert not db.up_to_date(snapshot_of("m.mc", "x", {}))
        assert not db.up_to_date(snapshot_of("m.mc", "x", {"h.mh": "d1", "i.mh": None}))

    def test_missing_source_is_dirty(self):
        db = BuildDatabase()
        db.record_unit(snapshot_of("m.mc", "x"), "{}")
        assert not db.up_to_date(DependencySnapshot("m.mc", None, {}))

    def test_prune_drops_vanished_units(self):
        db = BuildDatabase()
        db.record_unit(snapshot_of("keep.mc", "a"), "{}")
        db.record_unit(snapshot_of("gone.mc", "b"), "{}")
        assert db.prune(["keep.mc"]) == ["gone.mc"]
        assert list(db.units) == ["keep.mc"]


class TestRoundTrip:
    def test_units_and_state_survive(self, tmp_path):
        db = sample_db()
        path = tmp_path / "build.db"
        size = db.save(path)
        assert size == len(path.read_bytes()) and size > 0

        loaded = BuildDatabase.load(path)
        assert loaded.units.keys() == db.units.keys()
        record = loaded.units["main.mc"]
        assert record.source_digest == db.units["main.mc"].source_digest
        assert record.dep_digests == db.units["main.mc"].dep_digests
        assert record.object_json == db.units["main.mc"].object_json

        shard = loaded.read_state("main.mc")
        assert shard is not None
        assert shard.pipeline_signature == "p1|p2"
        assert shard.build_counter == 1
        assert shard.records == db.read_state("main.mc").records
        assert record.state_digest == db.units["main.mc"].state_digest
        assert loaded.state_records == 2

    def test_stateless_db_round_trips_without_state(self, tmp_path):
        db = BuildDatabase()
        db.record_unit(snapshot_of("m.mc", "x"), "{}")
        db.save(tmp_path / "db")
        loaded = BuildDatabase.load(tmp_path / "db")
        assert loaded.read_state("m.mc") is None
        assert loaded.state_records == 0
        assert "m.mc" in loaded.units

    def test_missing_file_loads_empty(self, tmp_path):
        db = BuildDatabase.load(tmp_path / "nope")
        assert db.units == {} and db.state_records == 0

    def test_corrupt_file_raises_typed_error(self, tmp_path):
        path = tmp_path / "db"
        path.write_text("{not json")
        with pytest.raises(CorruptDatabaseError):
            BuildDatabase.load(path)

    def test_schema_mismatch_loads_empty(self, tmp_path):
        payload = json.loads(sample_db().to_json())
        payload["schema"] = DB_SCHEMA_VERSION + 1
        path = tmp_path / "db"
        path.write_text(json.dumps(payload))
        assert BuildDatabase.load(path).units == {}

class TestCorruptionContract:
    """Corrupt DB files raise the typed error — never ``EOFError`` or
    a bare parse exception — and ``load_or_empty`` recovers cleanly."""

    def test_zero_byte_file_raises_typed_error(self, tmp_path):
        # Regression: an interrupted first save used to surface as a
        # bare parse error; it must be CorruptDatabaseError instead.
        path = tmp_path / "db"
        path.write_bytes(b"")
        with pytest.raises(CorruptDatabaseError) as excinfo:
            BuildDatabase.load(path)
        assert "empty" in str(excinfo.value)

    def test_truncated_file_raises_typed_error(self, tmp_path):
        path = tmp_path / "db"
        sample_db().save(path)
        blob = path.read_bytes()
        path.write_bytes(blob[: len(blob) // 2])
        with pytest.raises(CorruptDatabaseError):
            BuildDatabase.load(path)

    def test_bitflip_fails_checksum(self, tmp_path):
        path = tmp_path / "db"
        sample_db().save(path)
        blob = bytearray(path.read_bytes())
        blob[-10] ^= 0xFF  # flip a payload byte; the frame header survives
        path.write_bytes(bytes(blob))
        with pytest.raises(CorruptDatabaseError) as excinfo:
            BuildDatabase.load(path)
        assert "checksum" in str(excinfo.value)

    def test_non_object_json_raises_typed_error(self, tmp_path):
        path = tmp_path / "db"
        path.write_text("[1, 2, 3]")
        with pytest.raises(CorruptDatabaseError):
            BuildDatabase.load(path)

    def test_corruption_never_raises_untyped(self, tmp_path):
        # Whatever garbage is on disk, load either succeeds or raises
        # exactly the typed error the CLI knows how to recover from.
        for i, garbage in enumerate(
            [b"", b"\x00" * 40, b"{", b'{"schema": 2, "units": 3}',
             b'{"schema": 2}', b"%repro-artifact v1 nonsense",
             b"%repro-artifact v1 sha256=00 len=9999\n{}"]
        ):
            path = tmp_path / f"db{i}"
            path.write_bytes(garbage)
            try:
                BuildDatabase.load(path)
            except CorruptDatabaseError:
                pass

    def test_load_or_empty_recovers_with_diagnosis(self, tmp_path):
        path = tmp_path / "db"
        path.write_bytes(b"")
        db, err = BuildDatabase.load_or_empty(path)
        assert db.units == {} and db.state_records == 0
        assert isinstance(err, CorruptDatabaseError)

        sample_db().save(path)
        db, err = BuildDatabase.load_or_empty(path)
        assert err is None and "main.mc" in db.units

    def test_save_is_checksummed_frame(self, tmp_path):
        path = tmp_path / "db"
        size = sample_db().save(path)
        blob = path.read_bytes()
        assert len(blob) == size
        assert blob.startswith(b"%repro-artifact ")

    def test_legacy_unframed_db_still_loads(self, tmp_path):
        # Files written before the checksummed-frame upgrade are plain
        # JSON; they load (unverified) rather than being invalidated.
        db = sample_db()
        path = tmp_path / "db"
        path.write_text(db.to_json())
        loaded = BuildDatabase.load(path)
        assert loaded.units.keys() == db.units.keys()

    def test_bad_embedded_state_keeps_units(self, tmp_path):
        # A v2 DB embeds one global state (here of an unknown state
        # schema); loading it must keep the object cache, drop the
        # state, and say so.
        payload = json.loads(sample_db().to_json())
        payload["schema"] = 2
        payload["state"] = json.dumps({"schema": -1})
        path = tmp_path / "db"
        path.write_text(json.dumps(payload))
        loaded = BuildDatabase.load(path)
        assert "main.mc" in loaded.units
        assert loaded.state_records == 0
        assert len(loaded.discarded) == 1 and "dropped" in loaded.discarded[0]


def saved_with_shards(tmp_path, units=("a.mc", "b.mc")):
    """A DB on disk whose units each have a one-record shard."""
    db = BuildDatabase()
    for name in units:
        db.record_unit(snapshot_of(name, f"source of {name}"), "{}")
        state = CompilerState(pipeline_signature="p1|p2")
        state.begin_build()
        state.remember(0, f"fp-{name}", True, f"fp-{name}")
        db.set_state(name, state.to_shard())
    path = tmp_path / "build.reprodb"
    db.save(path)
    return db, path


def unit_state(db, path, signature="p1|p2"):
    return db.unit_state(path, pipeline_signature=signature, fingerprint_mode="canonical")


class TestShards:
    def test_shards_live_beside_the_db_named_by_digest(self, tmp_path):
        db, path = saved_with_shards(tmp_path)
        state_dir = default_state_dir(path)
        assert sorted(p.name for p in state_dir.iterdir()) == sorted(
            r.state_digest for r in db.units.values()
        )
        # The DB holds digests and sizes, never the records themselves.
        assert "fp-a.mc" not in path.read_text()
        loaded = BuildDatabase.load(path)
        assert loaded.state_records == 2
        assert loaded.state_bytes == sum(
            len(read_artifact(p)) for p in state_dir.iterdir()
        )

    def test_only_recompiled_shards_are_written(self, tmp_path):
        db, path = saved_with_shards(tmp_path)
        loaded = BuildDatabase.load(path)
        state = unit_state(loaded, "a.mc")
        state.begin_build()
        state.remember(1, "fp-new", False, "fp-out")
        loaded.set_state("a.mc", state.to_shard())
        ops = [op for op, _target in count_io_ops(lambda: loaded.save(path)).log]
        # One shard rename, the DB rename, and one orphan unlink: the
        # shard a.mc had before.
        assert ops.count("replace") == 2
        assert ops.count("unlink") == 1
        # Untouched b.mc was never read, let alone rewritten.
        assert loaded.units["b.mc"].state_digest not in loaded._shards

    def test_replaced_and_pruned_shards_are_deleted_after_commit(self, tmp_path):
        db, path = saved_with_shards(tmp_path, units=("a.mc", "b.mc", "c.mc"))
        old_b = db.units["b.mc"].state_digest
        db.prune(["a.mc", "c.mc"])
        db.save(path)
        names = {p.name for p in default_state_dir(path).iterdir()}
        assert old_b not in names and len(names) == 2

    def test_missing_shard_loads_empty_and_is_reported(self, tmp_path):
        db, path = saved_with_shards(tmp_path)
        (default_state_dir(path) / db.units["a.mc"].state_digest).unlink()
        loaded, corruption = BuildDatabase.load_or_empty(path)
        assert corruption is None  # never a corrupt DB
        assert unit_state(loaded, "a.mc").num_records == 0
        assert unit_state(loaded, "b.mc").num_records == 1
        assert len(loaded.discarded) == 1 and "missing" in loaded.discarded[0]

    def test_corrupt_shard_loads_empty_and_is_reported(self, tmp_path):
        db, path = saved_with_shards(tmp_path)
        shard = default_state_dir(path) / db.units["a.mc"].state_digest
        blob = bytearray(shard.read_bytes())
        blob[-3] ^= 0xFF
        shard.write_bytes(bytes(blob))
        loaded = BuildDatabase.load(path)
        assert unit_state(loaded, "a.mc").num_records == 0
        assert len(loaded.discarded) == 1 and "unreadable" in loaded.discarded[0]

    def test_incompatible_shard_loads_empty_and_is_reported(self, tmp_path):
        _db, path = saved_with_shards(tmp_path)
        loaded = BuildDatabase.load(path)
        assert unit_state(loaded, "a.mc", signature="other").num_records == 0
        assert len(loaded.discarded) == 1 and "another pipeline" in loaded.discarded[0]

    def test_save_elsewhere_copies_the_shards(self, tmp_path):
        _db, path = saved_with_shards(tmp_path)
        loaded = BuildDatabase.load(path)
        copy = tmp_path / "copy" / "build.reprodb"
        copy.parent.mkdir()
        loaded.save(copy)
        again = BuildDatabase.load(copy)
        assert unit_state(again, "a.mc").num_records == 1
        assert again.discarded == []
