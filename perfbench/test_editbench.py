"""Tests of the edit-trace benchmark itself (not of the program under test).

Run from the root of the repository:

    python3 -m pytest perfbench -q

The smoke tests start the real command once per workload and mode, so
the file takes a few minutes.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import editbench  # noqa: E402
import layers  # noqa: E402
from repro.workload import apply_edit, generate_project, make_preset  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


# -- seeds ---------------------------------------------------------------------


@pytest.mark.parametrize("name", sorted(editbench.WORKLOADS))
def test_seed_gives_identical_edit_trace(name):
    workload = editbench.WORKLOADS[name]
    first = editbench.edit_trace(workload, 7, 25)
    assert first == editbench.edit_trace(workload, 7, 25)
    assert first != editbench.edit_trace(workload, 8, 25)
    assert {edit.kind for edit in first} <= set(workload.kinds)


@pytest.mark.parametrize("name", sorted(editbench.WORKLOADS))
def test_trace_is_balanced_over_modules_and_kinds(name):
    workload = editbench.WORKLOADS[name]
    modules = len(make_preset(workload.preset).modules)
    length = workload.trace_length(7)
    assert length % modules == 0 and length >= 2 * editbench.TAIL_BEYOND
    edits = editbench.edit_trace(workload, 11, length)
    for block in range(0, length, modules):
        assert len({e.module for e in edits[block:block + modules]}) == modules
    dealt = [e.kind for e in edits]
    for kind, weight in workload.mix():
        assert abs(dealt.count(kind) - weight * length) < 1


def test_workload_mix_keeps_default_weights():
    mix = dict(editbench.WORKLOADS["large-local-j1"].mix())
    assert sum(mix.values()) == pytest.approx(1.0)
    # BODY 0.40 vs CONST_TWEAK 0.30 in DEFAULT_EDIT_MIX.
    assert mix[editbench.EditKind.BODY] / mix[editbench.EditKind.CONST_TWEAK] == pytest.approx(4 / 3)


def _tree_files(root: Path) -> dict[str, str]:
    return {
        str(path.relative_to(root)): path.read_text()
        for path in sorted(root.rglob("*"))
        if path.is_file()
    }


def test_seed_gives_identical_trees(tmp_path):
    workload = editbench.WORKLOADS["medium-mixed-j1"]
    edits = editbench.edit_trace(workload, 3, 4)
    trees = []
    for run in ("a", "b"):
        session = editbench.Session(workload, tmp_path / run)
        session.setup()
        session.replay(edits, session.new_logs())
        trees.append(_tree_files(session.trees["stateful"].src))
        assert _tree_files(session.trees["stateless"].src) == trees[-1]
    assert trees[0] == trees[1]
    spec = make_preset(workload.preset)
    for edit in edits:
        spec = apply_edit(spec, edit)
    assert trees[0] == generate_project(spec).files


def test_image_check_reports_a_stale_bypass(tmp_path):
    """Seed 31 of ``medium-mixed-j1`` reaches an under-keyed dormancy verdict.

    Step 8 rewrites ``mod3_f1`` a second time; the stateful build then
    reuses a stale verdict for its unchanged caller ``mod3_f3``, whose
    object differs from the stateless one while the program still
    behaves the same.  This pins the benchmark's image check to a real
    failure of the program; once the dormancy key covers callee context,
    the step passes and this test must be inverted.
    """
    workload = editbench.WORKLOADS["medium-mixed-j1"]
    edits = editbench.edit_trace(workload, 31, workload.trace_length(SPEC["run_seconds"]))
    session = editbench.Session(workload, tmp_path)
    session.setup()
    session.replay(edits[:9], session.new_logs())
    assert session.failures == [
        "step 8 (body@mod3.mod3_f1) stateful: image differs from stateless image"
    ]
    assert session.failed == 1


def test_tail_percentile_leaves_ten_builds_beyond():
    for builds in (20, 24, 40, 60, 100):
        p = editbench.tail_percentile(builds)
        assert builds * (100 - p) / 100 >= editbench.TAIL_BEYOND
        assert builds * (100 - (p + 1)) / 100 < editbench.TAIL_BEYOND


# -- self-time arithmetic ----------------------------------------------------------


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds


def test_nested_self_times_do_not_double_count(monkeypatch):
    clock = FakeClock()
    monkeypatch.setattr(layers.time, "perf_counter", clock)
    tracer = layers.LayerTracer(targets={})

    def innermost():
        clock.advance(4)

    def inner():
        clock.advance(3)
        wrapped_innermost()
        clock.advance(1)

    def outer():
        clock.advance(1)
        wrapped_inner()
        wrapped_innermost()
        clock.advance(2)

    wrapped_innermost = tracer.timed("c", innermost)
    wrapped_inner = tracer.timed("b", inner)
    tracer.timed("a", outer)()

    assert dict(tracer.self_seconds) == {"a": 3, "b": 4, "c": 8}
    assert dict(tracer.calls) == {"a": 1, "b": 1, "c": 2}
    assert sum(tracer.self_seconds.values()) == clock.now


def test_recursive_and_same_layer_calls_count_once(monkeypatch):
    clock = FakeClock()
    monkeypatch.setattr(layers.time, "perf_counter", clock)
    tracer = layers.LayerTracer(targets={})

    def countdown(n):
        clock.advance(1)
        if n:
            wrapped(n - 1)

    wrapped = tracer.timed("r", countdown)
    wrapped(3)
    assert tracer.self_seconds["r"] == clock.now == 4
    assert tracer.calls["r"] == 4


def test_exception_still_records_and_unwinds(monkeypatch):
    clock = FakeClock()
    monkeypatch.setattr(layers.time, "perf_counter", clock)
    tracer = layers.LayerTracer(targets={})

    def boom():
        clock.advance(2)
        raise ValueError

    with pytest.raises(ValueError):
        tracer.timed("x", boom)()
    assert tracer.self_seconds["x"] == 2
    assert tracer._child_seconds == []


class Base:
    def inherited(self):
        return "inherited"


class Target(Base):
    def method(self):
        return "method"

    @classmethod
    def build(cls):
        return cls

    @staticmethod
    def helper():
        return "helper"


def module_function():
    return Target().method()


def test_install_patches_lookup_sites_and_uninstall_restores():
    here = __name__
    targets = {
        "fn": (f"{here}:module_function",),
        "method": (f"{here}:Target.method", f"{here}:Target.inherited"),
        "cls": (f"{here}:Target.build", f"{here}:Target.helper"),
    }
    before = {name: vars(Target).get(name) for name in ("method", "build", "helper")}
    tracer = layers.LayerTracer(targets)
    with tracer:
        assert sorted(layers.still_wrapped(targets)) == sorted(
            t for group in targets.values() for t in group
        )
        assert module_function() == "method"
        assert Target.build() is Target
        assert Target.helper() == "helper"
        assert Target().inherited() == "inherited"
    assert dict(tracer.calls) == {"fn": 1, "method": 2, "cls": 2}
    assert layers.still_wrapped(targets) == []
    assert {name: vars(Target).get(name) for name in before} == before
    assert "inherited" not in vars(Target)


def test_every_layer_target_resolves():
    for group in layers.LAYER_TARGETS.values():
        for target in group:
            owner, attribute = layers._resolve(target)
            assert hasattr(owner, attribute), target
    assert layers.still_wrapped() == []


# -- the command -------------------------------------------------------------------


def _run(cwd: Path, workload: str, trace: int, seed: int = 5) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=600,
    )


def _expected(trace: int) -> dict[str, str]:
    section = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    return {metric["name"]: metric["unit"] for metric in section}


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("name", sorted(editbench.WORKLOADS))
def test_smoke_run_prints_every_metric_with_unit(name, trace):
    proc = _run(ROOT, name, trace)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] > 0
    expected = _expected(trace)
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    for metric, unit in expected.items():
        assert f"{metric} = " in proc.stdout and proc.stdout.count(f" {unit}\n") > 0
    if not trace:
        assert all(v["value"] != 0 for v in result["metrics"].values())


#: ``passes.work`` is left out: sccp's work counter depends on the order
#: objects sit in memory, so it can differ by one or two between two
#: compiles of the same unit.  The traced run's own determinism check
#: still compares it and reports the difference (see NOTES.md).
COUNT_METRICS = [
    f"{name}.{v}"
    for name in (
        "passes.executed",
        "passes.bypassed",
        "fingerprint.count",
        "state.lookups",
        "state.remembers",
        "objfile.decode.count",
    )
    for v in editbench.VARIANTS
]


def test_two_traced_runs_repeat_counts_exactly():
    results = []
    for _ in range(2):
        proc = _run(ROOT, "medium-mixed-j1", 1, seed=9)
        assert proc.returncode == 0, proc.stdout + proc.stderr
        results.append(json.loads(proc.stdout.strip().splitlines()[-1])["metrics"])
    for metric in COUNT_METRICS:
        assert results[0][metric] == results[1][metric], metric


def test_without_the_program_exits_nonzero_and_prints_no_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run(tmp_path, "medium-mixed-j1", 0)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
