"""reprobuild's recovery behaviour on damaged or unwritable build DBs."""

import errno

import pytest

from repro.cli import reprobuild_main
from repro.persist import frame, read_artifact
from repro.testing import FaultPlan, inject_faults
from repro.workload.generator import generate_project
from repro.workload.spec import make_preset


@pytest.fixture()
def project(tmp_path):
    generate_project(make_preset("tiny", seed=2)).write_to(tmp_path / "proj")
    return tmp_path


def build_argv(project, **extra):
    argv = [
        str(project / "proj"), "--db", str(project / "build.reprodb"),
        "--stateful", "--no-history", "--no-lock",
    ]
    for flag in extra.get("flags", ()):
        argv.append(flag)
    return argv


class TestCorruptDatabaseRecovery:
    @pytest.mark.parametrize("damage", [
        b"",                                  # zero-byte file
        b"\x00\x01\x02 not json",             # binary garbage
        b'{"schema": 4, "units"',             # truncated JSON
        frame(b'{"schema": 4}')[:-4],          # truncated framed artifact
    ])
    def test_damaged_db_triggers_clean_full_rebuild(self, project, capsys, damage):
        db = project / "build.reprodb"
        db.write_bytes(damage)

        rc = reprobuild_main(build_argv(project))
        err = capsys.readouterr().err

        assert rc == 0
        assert "corrupt build database" in err
        assert "full rebuild" in err
        assert "Traceback" not in err
        # The rebuild replaced the damaged file with a valid one...
        rc = reprobuild_main(build_argv(project))
        err = capsys.readouterr().err
        assert rc == 0
        assert "corrupt" not in err  # ...so the second run is quiet.

    def test_bitflipped_db_is_caught_by_checksum(self, project, capsys):
        db = project / "build.reprodb"
        assert reprobuild_main(build_argv(project)) == 0
        capsys.readouterr()

        blob = bytearray(db.read_bytes())
        blob[-2] ^= 0x40  # flip one bit inside the JSON payload
        db.write_bytes(bytes(blob))

        rc = reprobuild_main(build_argv(project))
        err = capsys.readouterr().err
        assert rc == 0
        assert "corrupt build database" in err
        assert "checksum" in err

    def test_explain_treats_corrupt_db_as_empty(self, project, capsys):
        db = project / "build.reprodb"
        db.write_bytes(b"\xff\xfe garbage")
        rc = reprobuild_main(["explain", str(project / "proj"), "--db", str(db)])
        captured = capsys.readouterr()
        assert rc == 0
        assert "corrupt build database" in captured.err
        assert "Traceback" not in captured.err


class TestSaveFailure:
    def test_unwritable_db_fails_with_message_not_traceback(self, project, capsys):
        # An errno storm longer than the retry budget makes every save
        # attempt fail, as if the disk went away mid-build.
        plan = FaultPlan.errno_at(0, code=errno.EROFS, op="open", count=999)
        with inject_faults(plan):
            rc = reprobuild_main(build_argv(project))
        err = capsys.readouterr().err
        assert rc == 1
        assert "failed to save build database" in err
        assert "Traceback" not in err

    def test_enospc_during_save_cleans_up_and_reports(self, project, capsys):
        plan = FaultPlan.errno_at(0, code=errno.ENOSPC, op="write", count=999)
        with inject_faults(plan):
            rc = reprobuild_main(build_argv(project))
        err = capsys.readouterr().err
        assert rc == 1
        assert "failed to save build database" in err
        # No temp litter next to the DB after the failure.
        leftovers = [p for p in project.iterdir() if ".tmp." in p.name]
        assert leftovers == []

    def test_state_save_failure_is_only_a_warning(self, project, capsys):
        # reproc's standalone state file is a cache: losing it costs
        # speed, not correctness, so the compile still succeeds.
        from repro.cli import reproc_main

        unit = next((project / "proj").glob("*.mc"))
        state_path = project / "state.json"
        plan = FaultPlan.errno_at(0, code=errno.EROFS, op="open", count=999)
        with inject_faults(plan):
            rc = reproc_main([
                str(unit), "--stateful", "--state-file", str(state_path),
            ])
        err = capsys.readouterr().err
        assert rc == 0
        assert "state" in err and "Traceback" not in err
        assert not state_path.exists()


class TestLegacyCompatibility:
    def test_unframed_legacy_db_still_loads(self, project, capsys):
        # A DB written before checksummed framing must keep working.
        import json

        from repro.buildsys.builddb import BuildDatabase

        db_path = project / "build.reprodb"
        assert reprobuild_main(build_argv(project)) == 0
        capsys.readouterr()

        payload = json.loads(read_artifact(db_path).decode("utf-8"))
        db_path.write_text(json.dumps(payload))  # strip the frame
        loaded = BuildDatabase.load(db_path)
        assert set(loaded.units)  # records survived

        rc = reprobuild_main(build_argv(project))
        err = capsys.readouterr().err
        assert rc == 0 and "corrupt" not in err


class TestDiscardedStateIsLoud:
    """Dropped dormancy state costs bypasses, never a failed build, and
    every build that drops some says so once on stderr."""

    def edit_every_unit(self, project, marker):
        for unit in (project / "proj").glob("*.mc"):
            unit.write_text(unit.read_text() + f"// {marker}\n")

    def warnings(self, err):
        return [line for line in err.splitlines() if "dormancy state discarded" in line]

    def test_missing_and_corrupt_shards_warn_once(self, project, capsys):
        from repro.buildsys.builddb import BuildDatabase, default_state_dir

        db_path = project / "build.reprodb"
        assert reprobuild_main(build_argv(project)) == 0
        shards = sorted(default_state_dir(db_path).iterdir())
        shards[0].unlink()
        blob = bytearray(shards[1].read_bytes())
        blob[-3] ^= 0xFF
        shards[1].write_bytes(bytes(blob))
        capsys.readouterr()

        self.edit_every_unit(project, "a")
        assert reprobuild_main(build_argv(project, flags=["--report-json",
                               str(project / "r.json")])) == 0
        err = capsys.readouterr().err
        (warning,) = self.warnings(err)
        assert "and 1 more" in warning
        import json
        report = json.loads((project / "r.json").read_text())
        assert report["metrics"]["counters"]["state.discarded"] == 2
        # The rebuilt units got fresh shards: the next build is quiet.
        BuildDatabase.load(db_path)
        self.edit_every_unit(project, "b")
        assert reprobuild_main(build_argv(project)) == 0
        assert self.warnings(capsys.readouterr().err) == []

    def test_opt_level_change_warns(self, project, capsys):
        assert reprobuild_main(build_argv(project)) == 0
        capsys.readouterr()
        self.edit_every_unit(project, "a")
        assert reprobuild_main(build_argv(project, flags=["-O1"])) == 0
        (warning,) = self.warnings(capsys.readouterr().err)
        assert "another pipeline" in warning

    def test_legacy_global_state_warns_once(self, project, capsys):
        import json

        db_path = project / "build.reprodb"
        assert reprobuild_main(build_argv(project)) == 0
        payload = json.loads(read_artifact(db_path))
        payload["schema"] = 2
        payload["state"] = "{}"
        for unit in payload["units"]:
            del unit["state"]
        db_path.write_bytes(frame(json.dumps(payload).encode()))
        capsys.readouterr()

        assert reprobuild_main(build_argv(project)) == 0  # units still up to date
        err = capsys.readouterr().err
        (warning,) = self.warnings(err)
        assert "schema 2" in warning
        assert "0 recompiled" in err
        assert reprobuild_main(build_argv(project)) == 0
        assert self.warnings(capsys.readouterr().err) == []
