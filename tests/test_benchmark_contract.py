"""The names the ``perfbench`` benchmark reaches into must keep existing.

``perfbench/layers.py`` times each layer by replacing a function at the
name its caller looks it up under, and ``perfbench/editbench.py`` keeps
each build's report by replacing ``repro.cli.IncrementalBuilder``.  A
refactor that renames or moves one of those names breaks the benchmark
(a traced run dies in ``install()``, or reports come back empty), so
this tier-1 test pins them.
"""

import importlib.util
import inspect
import sys
from pathlib import Path

import repro.cli
from repro.buildsys.incremental import IncrementalBuilder
from repro.workload import generate_project, make_preset

ROOT = Path(__file__).resolve().parent.parent


def load_layers():
    spec = importlib.util.spec_from_file_location(
        "perfbench_layers", ROOT / "perfbench" / "layers.py"
    )
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses resolve names through it
    spec.loader.exec_module(module)
    return module


def test_every_layer_target_resolves_and_can_be_wrapped():
    layers = load_layers()
    for layer, targets in layers.LAYER_TARGETS.items():
        for target in targets:
            owner, attribute = layers._resolve(target)
            raw = inspect.getattr_static(owner, attribute)
            assert callable(getattr(raw, "__func__", raw)), (layer, target)
    with layers.LayerTracer():  # what a traced benchmark run does first
        pass
    assert layers.still_wrapped() == []


def test_reprobuild_builds_through_the_module_global_builder(tmp_path, monkeypatch):
    reports = []

    class Capturing(IncrementalBuilder):
        def build(self, **kwargs):
            report = super().build(**kwargs)
            reports.append(report)
            return report

    monkeypatch.setattr(repro.cli, "IncrementalBuilder", Capturing)
    generate_project(make_preset("tiny")).write_to(tmp_path / "proj")
    argv = [str(tmp_path / "proj"), "--db", str(tmp_path / "b.db"), "--stateful",
            "-j", "2", "--no-history"]
    assert repro.cli.reprobuild_main(argv) == 0
    (report,) = reports
    # What the benchmark reads from each report.
    assert report.image is not None and report.jobs == 2
    assert all(unit.wall_time > 0 for unit in report.compiled)
    for key in ("passes.executed", "passes.work", "fingerprint.count", "state.lookups",
                "state.records_written"):
        assert key in report.metrics["counters"], key
    for key in ("state.records", "build.dirty"):
        assert key in report.metrics["gauges"], key
