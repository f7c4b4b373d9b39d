"""The crash-recovery matrix: every artifact, every fault point.

For each persistent artifact (build DB with its dormancy-state shards,
standalone state file, history JSONL, history index sidecar) the write
path is first enumerated fault-free, then replayed once per IO
operation with a crash (or torn write, or IO error) injected exactly
there.  After every injected fault, reopening the artifact must yield
either the last good version, the complete new version, or a cleanly
diagnosed full-rebuild fallback — never an unhandled exception.
"""

import errno

import pytest

from repro.buildsys.builddb import BuildDatabase, CorruptDatabaseError
from repro.buildsys.deps import DependencySnapshot, content_digest
from repro.core.state import CompilerState
from repro.obs.history import BuildHistory, HistoryRecord
from repro.testing import (
    KILL,
    KILL_AFTER,
    TORN,
    FaultPlan,
    FaultSpec,
    InjectedCrash,
    count_io_ops,
    inject_faults,
)

FAULT_KINDS = (KILL, KILL_AFTER, TORN)


def snapshot_of(path, text):
    return DependencySnapshot(path, content_digest(text), {})


def make_db(units, revision=0):
    """A DB whose units each own a shard; ``revision`` changes the shards."""
    db = BuildDatabase()
    for i, name in enumerate(units):
        db.record_unit(snapshot_of(name, f"source of {name}"), "{}")
        state = CompilerState(pipeline_signature="p1|p2")
        state.begin_build()
        for k in range(revision + 1):
            state.remember(i % 3, f"fp-{name}-{k}", True, f"fp-{name}-{k}")
        db.set_state(name, state.to_shard())
    return db


def shard_records(db):
    """Unit -> its shard's records; raises if any shard is unreadable."""
    return {name: db.read_state(name).records for name in db.units}


def make_state(n):
    state = CompilerState(pipeline_signature="sig")
    state.begin_build()
    for i in range(n):
        state.remember(i, f"fp{i}", i % 2 == 0, f"fp{i}'")
    return state


def make_record(seq):
    return HistoryRecord(
        seq=seq,
        timestamp=float(seq),
        label=f"build-{seq}",
        report={"summary": {"recompiled": seq, "total_wall_time": 0.1 * seq}},
    )


def run_faulted(scenario, plan):
    """Run ``scenario`` under ``plan``; injected faults are 'the crash'."""
    with inject_faults(plan) as backend:
        try:
            scenario()
        except (InjectedCrash, OSError):
            pass
    return backend


def sweep_plans(total_ops):
    """Every (kind, index) crash plus errno storms at every index."""
    for index in range(total_ops):
        for kind in FAULT_KINDS:
            yield f"{kind}@{index}", FaultPlan([FaultSpec(kind, None, index)])
        # count=99 defeats the bounded retry, so the error surfaces.
        yield f"eio@{index}", FaultPlan.errno_at(index, code=errno.EIO, count=99)
        yield f"enospc@{index}", FaultPlan.errno_at(index, code=errno.ENOSPC, count=99)


class TestBuildDatabaseMatrix:
    def test_every_fault_point_recovers(self, tmp_path):
        # The write order is: new shards, then the DB (the commit
        # point), then deletion of shards the DB no longer references.
        # ``new`` rewrites a.mc's shard, drops b.mc and adds c.mc, so the
        # sweep crosses every step of that order.
        path = tmp_path / "build.reprodb"
        old = make_db(["a.mc", "b.mc"])
        new = make_db(["a.mc", "c.mc"], revision=1)

        old.save(path)
        ops = [op for op, _target in count_io_ops(lambda: new.save(path)).log]
        total = len(ops)
        assert ops.count("replace") == 3  # two shards and the DB
        assert ops.count("unlink") == 2  # a.mc's and b.mc's old shards

        checked = 0
        for label, plan in sweep_plans(total):
            old.save(path)
            run_faulted(lambda: new.save(path), plan)

            db, corruption = BuildDatabase.load_or_empty(path)
            units = set(db.units)
            if corruption is not None:
                # Diagnosed corruption -> clean full rebuild, never a crash.
                assert units == set(), label
            else:
                assert units in (set(old.units), set(new.units)), label
                # Whichever DB survived, every shard it names exists
                # and holds that version's records.
                expected = old if units == set(old.units) else new
                assert shard_records(db) == shard_records(expected), label
            checked += 1
        assert checked == total * 5

    def test_strict_load_never_raises_untyped(self, tmp_path):
        # The matrix again, but through the strict loader: anything it
        # raises must be the one typed error the CLI knows about.
        path = tmp_path / "build.reprodb"
        old = make_db(["a.mc"])
        new = make_db(["a.mc", "b.mc"])
        old.save(path)
        total = count_io_ops(lambda: new.save(path)).total_ops
        for label, plan in sweep_plans(total):
            old.save(path)
            run_faulted(lambda: new.save(path), plan)
            try:
                BuildDatabase.load(path)
            except CorruptDatabaseError:
                pass  # typed, catchable, recoverable
            # anything else propagates and fails the test


class TestStateFileMatrix:
    def test_every_fault_point_recovers(self, tmp_path):
        path = tmp_path / "state.json"
        old, new = make_state(4), make_state(7)

        old.save(path)
        total = count_io_ops(lambda: new.save(path)).total_ops

        for label, plan in sweep_plans(total):
            old.save(path)
            run_faulted(lambda: new.save(path), plan)
            loaded = CompilerState.load(path, pipeline_signature="sig")
            # Last-good, fully-new, or fresh (the lenient-cache fallback).
            assert loaded.num_records in (4, 7, 0), label


class TestHistoryMatrix:
    def history_with(self, path, n):
        history = BuildHistory(path)
        for seq in range(1, n + 1):
            history.append(make_record(seq))
        return history

    def test_every_fault_point_preserves_prefix(self, tmp_path):
        sample = self.history_with(tmp_path / "enum.jsonl", 2)
        total = count_io_ops(lambda: sample.append(make_record(3))).total_ops
        assert total >= 3  # append + index rewrite

        case = 0
        for label, plan in sweep_plans(total):
            case += 1
            history = self.history_with(tmp_path / f"h{case}.jsonl", 2)
            run_faulted(lambda: history.append(make_record(3)), plan)

            records, stats = history.read()  # must never raise
            seqs = [r.seq for r in records]
            # Appends never touch earlier records: the old prefix
            # survives verbatim; the new record is all-or-nothing
            # (a torn final line is dropped and reported).
            assert seqs in ([1, 2], [1, 2, 3]), (label, seqs)
            assert stats.corrupt == 0, label

    def test_index_sidecar_faults_never_poison_tail(self, tmp_path):
        sample = self.history_with(tmp_path / "enum.jsonl", 2)
        total = count_io_ops(lambda: sample.append(make_record(3))).total_ops

        case = 0
        for label, plan in sweep_plans(total):
            case += 1
            history = self.history_with(tmp_path / f"i{case}.jsonl", 2)
            run_faulted(lambda: history.append(make_record(3)), plan)

            # Whatever happened to the sidecar, tail() must agree with
            # a full scan of the JSONL (the index is a pure cache).
            records = history.records()
            assert [r.seq for r in history.tail(2)] == [r.seq for r in records[-2:]], label
            assert history.next_seq() == (records[-1].seq + 1 if records else 1), label


class TestEndToEndCrashRecovery:
    """A real reprobuild killed mid-persist, then run again."""

    @pytest.fixture()
    def project_dir(self, tmp_path):
        from repro.workload.generator import generate_project
        from repro.workload.spec import make_preset

        generate_project(make_preset("tiny", seed=3)).write_to(tmp_path / "proj")
        return tmp_path

    def test_build_killed_during_db_save_rebuilds_cleanly(self, project_dir, capsys):
        from repro.cli import reprobuild_main

        db_path = project_dir / "build.reprodb"
        argv = [
            str(project_dir / "proj"), "--db", str(db_path),
            "--stateful", "--no-history", "--no-lock", "-j", "1",
        ]
        assert reprobuild_main(argv) == 0

        # Kill every nth write across a full rebuild's persistence...
        for index in range(0, 12, 3):
            with inject_faults(FaultPlan.kill_at(index, "write")):
                try:
                    reprobuild_main(argv)
                except InjectedCrash:
                    pass
            capsys.readouterr()
            # ...and the next build must always succeed without help.
            assert reprobuild_main(argv) == 0, f"write#{index}"
            err = capsys.readouterr().err
            assert "Traceback" not in err

    def test_rebuild_killed_at_every_io_op_leaves_readable_shards(self, project_dir, capsys):
        from repro.buildsys.builddb import default_state_dir
        from repro.cli import reprobuild_main

        db_path = project_dir / "build.reprodb"
        argv = [
            str(project_dir / "proj"), "--db", str(db_path),
            "--stateful", "--no-history", "--no-lock", "-j", "1",
        ]
        assert reprobuild_main(argv) == 0
        unit = sorted((project_dir / "proj").glob("*.mc"))[0]

        def edit(i):
            unit.write_text(unit.read_text() + f"// edit {i}\n")

        edit(0)
        total = count_io_ops(lambda: reprobuild_main(argv)).total_ops
        capsys.readouterr()
        for index in range(total):
            edit(index + 1)
            with inject_faults(FaultPlan([FaultSpec(KILL, None, index)])):
                try:
                    reprobuild_main(argv)
                except InjectedCrash:
                    pass
            db = BuildDatabase.load(db_path)
            shard_records(db)  # every shard the surviving DB names exists
            assert reprobuild_main(argv) == 0, f"kill@{index}"
            assert "warning" not in capsys.readouterr().err, f"kill@{index}"
            db = BuildDatabase.load(db_path)
            assert {p.name for p in default_state_dir(db_path).iterdir()} == {
                r.state_digest for r in db.units.values()
            }, f"kill@{index}"
