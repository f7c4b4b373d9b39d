"""Bypass statistics: derived from the pass manager's metrics registry."""

from repro.core.statistics import BypassStatistics
from repro.driver import Compiler, CompilerOptions
from repro.frontend.includes import MemoryFileProvider
from repro.obs.metrics import MetricsRegistry
from repro.passmanager.pipeline import build_pipeline

SOURCE = (
    "int helper(int x) { int y = x * 2; return y + 1; }\n"
    "int main() { print(helper(20)); return 0; }\n"
)


class TestSummarize:
    def test_module_prelude_excluded(self):
        result = Compiler(MemoryFileProvider({}), CompilerOptions()).compile_source(
            "unit.mc", SOURCE
        )
        stats = BypassStatistics.from_metrics(result.metrics)
        prelude = [p.name for p in build_pipeline("O2").module_prelude]
        assert prelude and not set(prelude) & set(stats.by_pass)
        assert result.metrics.count("passes.module_executed") == len(prelude)
        # Pass work counts the prelude; the ledger does not.
        assert result.pass_work == stats.work_executed + result.metrics.count(
            "passes.module_work"
        )

    def test_ratios(self):
        metrics = MetricsRegistry()
        metrics.inc("passes.executed", 2)
        metrics.inc("passes.dormant", 1)
        metrics.inc("passes.bypassed", 2)
        stats = BypassStatistics.from_metrics(metrics)
        assert stats.dormancy_ratio == 0.5
        assert stats.bypass_ratio == 0.5

    def test_empty(self):
        stats = BypassStatistics.from_metrics(MetricsRegistry())
        assert stats.dormancy_ratio == 0.0 and stats.bypass_ratio == 0.0

    def test_merge(self):
        a = BypassStatistics(executions=2, dormant_executions=1, bypassed=3, work_executed=10)
        a.by_pass["x"] = {"executed": 2, "dormant": 1, "bypassed": 3, "work": 10}
        b = BypassStatistics(executions=1, dormant_executions=0, bypassed=1, work_executed=5)
        b.by_pass["x"] = {"executed": 1, "dormant": 0, "bypassed": 1, "work": 5}
        a.merge(b)
        assert a.executions == 3 and a.bypassed == 4 and a.work_executed == 15
        assert a.by_pass["x"]["work"] == 15


class TestMergeEdgeCases:
    def test_merge_empty_into_populated_is_identity(self):
        a = BypassStatistics(executions=2, dormant_executions=1, bypassed=3, work_executed=10)
        a.by_pass["x"] = {"executed": 2, "dormant": 1, "bypassed": 3, "work": 10}
        before = a.to_dict()
        a.merge(BypassStatistics())
        assert a.to_dict() == before

    def test_merge_populated_into_empty_copies(self):
        a = BypassStatistics()
        b = BypassStatistics(executions=1, dormant_executions=1, bypassed=0, work_executed=4)
        b.by_pass["y"] = {"executed": 1, "dormant": 1, "bypassed": 0, "work": 4}
        a.merge(b)
        assert a.to_dict() == b.to_dict()
        # The merge must copy, not alias, the per-pass dicts.
        a.by_pass["y"]["work"] = 99
        assert b.by_pass["y"]["work"] == 4

    def test_merge_disjoint_by_pass_keys(self):
        a = BypassStatistics(executions=1, work_executed=3)
        a.by_pass["cse"] = {"executed": 1, "dormant": 0, "bypassed": 0, "work": 3}
        b = BypassStatistics(executions=2, dormant_executions=1, work_executed=7)
        b.by_pass["gvn"] = {"executed": 2, "dormant": 1, "bypassed": 0, "work": 7}
        a.merge(b)
        assert set(a.by_pass) == {"cse", "gvn"}
        assert a.by_pass["cse"]["work"] == 3 and a.by_pass["gvn"]["work"] == 7
        assert a.executions == 3 and a.work_executed == 10

    def test_merge_then_ratios(self):
        a = BypassStatistics(executions=2, dormant_executions=2)
        b = BypassStatistics(executions=2, dormant_executions=0, bypassed=4)
        a.merge(b)
        assert a.dormancy_ratio == 0.5  # 2 dormant of 4 executions
        assert a.bypass_ratio == 0.5  # 4 bypassed of 8 scheduled runs

    def test_round_trip(self):
        a = BypassStatistics(executions=2, dormant_executions=1, bypassed=3, work_executed=10)
        a.by_pass["x"] = {"executed": 2, "dormant": 1, "bypassed": 3, "work": 10}
        clone = BypassStatistics.from_dict(a.to_dict())
        assert clone.to_dict() == a.to_dict()


class TestFromMetrics:
    def test_agrees_with_recorded_outcomes(self):
        """The registry and the ``on_pass_executed`` hook see the same runs."""
        from repro.bench.dormancy import RecordingCompiler

        compiler = RecordingCompiler(MemoryFileProvider({}), "O2")
        result = compiler.compile_source("unit.mc", SOURCE)
        stats = BypassStatistics.from_metrics(result.metrics)
        assert stats.executions == len(compiler.outcomes) > 0
        assert stats.dormant_executions == sum(
            not o.changed for o in compiler.outcomes
        )
        for name, counters in stats.by_pass.items():
            ran = [o for o in compiler.outcomes if o.pass_name == name]
            assert counters["executed"] == len(ran)
            assert counters["dormant"] == sum(not o.changed for o in ran)

    def test_empty_registry(self):
        from repro.obs.metrics import MetricsRegistry

        stats = BypassStatistics.from_metrics(MetricsRegistry())
        assert stats.executions == 0 and stats.by_pass == {}


class TestPipelines:
    def test_position_names_stable(self):
        p = build_pipeline("O2")
        names = p.position_names()
        assert len(names) == p.num_function_passes
        assert names[0] == "0:mem2reg"
        assert names == build_pipeline("O2").position_names()

    def test_levels_differ(self):
        assert build_pipeline("O0").num_function_passes < build_pipeline("O1").num_function_passes
        assert build_pipeline("O1").num_function_passes < build_pipeline("O2").num_function_passes

    def test_unknown_level(self):
        import pytest

        with pytest.raises(ValueError):
            build_pipeline("O3")

    def test_describe(self):
        text = build_pipeline("O1").describe()
        assert "mem2reg" in text and "funcattrs" in text
