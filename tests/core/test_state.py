"""Compiler-state store tests: records, GC, serialization, compatibility."""

import pytest

from repro.core.state import (
    CompilerState,
    DormancyRecord,
    STATE_SCHEMA_VERSION,
    pipeline_signature_of,
)
from repro.passmanager.pipeline import build_pipeline


def make_state(**kwargs) -> CompilerState:
    return CompilerState(pipeline_signature="sig", fingerprint_mode="canonical", **kwargs)


class TestRecords:
    def test_remember_and_lookup(self):
        state = make_state()
        state.remember(3, "fp1", True, "fp1")
        record = state.lookup(3, "fp1")
        assert record is not None and record.dormant
        assert record.fingerprint_out == "fp1"

    def test_lookup_miss(self):
        state = make_state()
        assert state.lookup(0, "nope") is None

    def test_position_isolation(self):
        state = make_state()
        state.remember(1, "fp", True, "fp")
        assert state.lookup(2, "fp") is None

    def test_changed_record(self):
        state = make_state()
        state.remember(0, "in", False, "out")
        record = state.lookup(0, "in")
        assert not record.dormant and record.fingerprint_out == "out"

    def test_lookup_refreshes_gc_timestamp(self):
        state = make_state()
        state.remember(0, "fp", True, "fp")
        state.begin_build()
        state.begin_build()
        record = state.lookup(0, "fp")
        assert record.last_used_build == state.build_counter


class TestGarbageCollection:
    def test_stale_records_collected(self):
        state = make_state(gc_max_age=3)
        state.remember(0, "old", True, "old")
        for _ in range(5):
            state.begin_build()
        removed = state.collect_garbage()
        assert removed == 1 and state.num_records == 0

    def test_fresh_records_kept(self):
        state = make_state(gc_max_age=3)
        state.begin_build()
        state.remember(0, "fresh", True, "fresh")
        assert state.collect_garbage() == 0
        assert state.num_records == 1

    def test_recently_used_records_survive(self):
        state = make_state(gc_max_age=3)
        state.remember(0, "hot", True, "hot")
        for _ in range(5):
            state.begin_build()
            state.lookup(0, "hot")  # refresh
        assert state.collect_garbage() == 0


class TestSerialization:
    def test_round_trip(self):
        state = make_state()
        state.begin_build()
        state.remember(0, "a", True, "a")
        state.remember(1, "a", False, "b")
        restored = CompilerState.from_json(state.to_json())
        assert restored.num_records == 2
        assert restored.build_counter == 1
        assert restored.lookup(1, "a").fingerprint_out == "b"

    def test_schema_mismatch_rejected(self):
        text = make_state().to_json().replace(
            f'"schema":{STATE_SCHEMA_VERSION}', '"schema":1'
        )
        with pytest.raises(ValueError):
            CompilerState.from_json(text)

    def test_save_load_file(self, tmp_path):
        path = tmp_path / "state.json"
        state = make_state()
        state.remember(0, "x", True, "x")
        size = state.save(path)
        assert size == path.stat().st_size
        loaded = CompilerState.load(path, pipeline_signature="sig")
        assert loaded.num_records == 1

    def test_load_missing_file_gives_fresh(self, tmp_path):
        loaded = CompilerState.load(tmp_path / "nope.json", pipeline_signature="sig")
        assert loaded.num_records == 0
        assert loaded.pipeline_signature == "sig"

    def test_load_corrupt_file_gives_fresh(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{ not json")
        loaded = CompilerState.load(path, pipeline_signature="sig")
        assert loaded.num_records == 0

    def test_load_incompatible_pipeline_gives_fresh(self, tmp_path):
        path = tmp_path / "state.json"
        state = make_state()
        state.remember(0, "x", True, "x")
        state.save(path)
        loaded = CompilerState.load(path, pipeline_signature="other-sig")
        assert loaded.num_records == 0

    def test_load_incompatible_fingerprint_mode_gives_fresh(self, tmp_path):
        path = tmp_path / "state.json"
        state = make_state()
        state.remember(0, "x", True, "x")
        state.save(path)
        loaded = CompilerState.load(path, pipeline_signature="sig", fingerprint_mode="named")
        assert loaded.num_records == 0


class TestPipelineSignature:
    def test_signature_reflects_positions(self):
        sig0 = pipeline_signature_of(build_pipeline("O0"))
        sig2 = pipeline_signature_of(build_pipeline("O2"))
        assert sig0 != sig2
        assert pipeline_signature_of(build_pipeline("O2")) == sig2

    def test_signature_has_indexed_names(self):
        sig = pipeline_signature_of(build_pipeline("O1"))
        assert sig.startswith("0:mem2reg")


class TestSnapshotDelta:
    """Snapshots (the collision audit's private copies) and delta merging."""

    def test_snapshot_is_isolated(self):
        state = make_state(build_counter=7)
        state.remember(0, "a", True, "a")
        snap = state.snapshot()
        assert snap.build_counter == 7 and snap.num_records == 1

        # Writes to the snapshot never reach the original...
        snap.remember(1, "b", False, "b2")
        assert state.lookup(1, "b") is None
        # ...and lookup's in-place GC refresh doesn't either.
        snap.build_counter = 99
        snap.lookup(0, "a")
        assert state.records[(0, "a")].last_used_build == 7

    def test_merge_disjoint_deltas_is_order_independent(self):
        from repro.core.state import StateDelta

        def worker_delta(position, fp):
            return StateDelta(2, {(position, fp): DormancyRecord(True, fp, 2)})

        a, b = worker_delta(0, "f1"), worker_delta(3, "f2")
        ab, ba = make_state(build_counter=2), make_state(build_counter=2)
        ab.merge_delta(a), ab.merge_delta(b)
        ba.merge_delta(b), ba.merge_delta(a)
        assert ab.records == ba.records
        assert ab.num_records == 2

    def test_merge_same_key_is_last_writer_wins(self):
        from repro.core.state import StateDelta

        state = make_state(build_counter=5)
        first = StateDelta(5, {(0, "f"): DormancyRecord(True, "f", 5)})
        second = StateDelta(5, {(0, "f"): DormancyRecord(False, "f2", 5)})
        state.merge_delta(first)
        state.merge_delta(second)
        assert state.num_records == 1
        record = state.records[(0, "f")]
        assert not record.dormant and record.fingerprint_out == "f2"

    def test_merge_keeps_freshest_gc_timestamp(self):
        from repro.core.state import StateDelta

        state = make_state(build_counter=10)
        state.records[(0, "f")] = DormancyRecord(True, "f", 9)
        stale_delta = StateDelta(10, {(0, "f"): DormancyRecord(True, "f", 4)})
        state.merge_delta(stale_delta)
        assert state.records[(0, "f")].last_used_build == 9

    def test_gc_after_merge_prunes_like_serial(self):
        # A record only touched by one worker must survive GC exactly as
        # if the serial loop had consulted it; an untouched ancient
        # record must be pruned either way.
        def run(merge_parallel):
            state = make_state(build_counter=50, gc_max_age=10)
            state.records[(0, "hot")] = DormancyRecord(True, "hot", 49)
            state.records[(0, "cold")] = DormancyRecord(True, "cold", 5)
            state.build_counter = 51
            if merge_parallel:
                from repro.core.state import StateDelta

                refreshed = state.snapshot().lookup(0, "hot")
                state.merge_delta(StateDelta(51, {(0, "hot"): refreshed}))
            else:
                state.lookup(0, "hot")
            state.collect_garbage()
            return dict(state.records)

        assert run(True) == run(False)
        assert (0, "cold") not in run(True)
