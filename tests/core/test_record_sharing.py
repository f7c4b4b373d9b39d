"""Fingerprint-keyed records are shared across functions and modules.

A consequence of keying dormancy by (position, fingerprint) rather than
by function name: two structurally identical functions — in the same or
different translation units — share records, so the second one bypasses
its dormant passes on its *first* ever compile.
"""

from repro.core.stateful import StatefulPassManager
from repro.core.statistics import BypassStatistics
from repro.driver import Compiler, CompilerOptions
from repro.frontend.includes import MemoryFileProvider
from repro.passmanager.pipeline import build_pipeline


IDENTICAL_BODY = """
  int s = 0;
  for (int i = 0; i < (x & 7); ++i) s += i * x;
  return s;
"""


class RecordingCompiler(Compiler):
    """A stateful compiler that lists the (function, position) runs it executed."""

    def __init__(self):
        super().__init__(
            MemoryFileProvider({}), CompilerOptions(opt_level="O2", stateful=True)
        )
        self.ran: list[tuple[str, int]] = []

    def _make_pass_manager(self):
        ran = self.ran

        class Recording(StatefulPassManager):
            def on_pass_executed(self, fn, module, position, changed):
                super().on_pass_executed(fn, module, position, changed)
                ran.append((fn.name, position))

        return Recording(build_pipeline("O2"), self.state)


class TestRecordSharing:
    def test_identical_functions_share_records_within_a_unit(self):
        src = (
            f"int first(int x) {{ {IDENTICAL_BODY} }}\n"
            f"int second(int x) {{ {IDENTICAL_BODY} }}\n"
        )
        compiler = RecordingCompiler()
        compiler.state.begin_build()
        compiler.compile_source("twins.mc", src)
        positions = build_pipeline("O2").num_function_passes
        ran = {
            name: sum(1 for fn, _ in compiler.ran if fn == name)
            for name in ("first", "second")
        }
        # Functions run alphabetically: "first" populates the records,
        # "second" (identical IR) bypasses its dormant tail immediately.
        assert ran["first"] == positions              # nothing to bypass yet
        assert ran["second"] < positions              # shared records hit

    def test_identical_functions_share_records_across_units(self):
        compiler = RecordingCompiler()
        compiler.state.begin_build()
        a = compiler.compile_source("a.mc", f"int fa(int x) {{ {IDENTICAL_BODY} }}\n")
        b = compiler.compile_source("b.mc", f"int fb(int x) {{ {IDENTICAL_BODY} }}\n")
        stats_a = BypassStatistics.from_metrics(a.metrics)
        stats_b = BypassStatistics.from_metrics(b.metrics)
        assert stats_a.bypassed == 0
        assert stats_b.bypassed > 0  # first-ever compile of b.mc still bypasses

    def test_different_bodies_do_not_share(self):
        compiler = RecordingCompiler()
        compiler.state.begin_build()
        compiler.compile_source("a.mc", "int fa(int x) { return x + 1; }\n")
        compiler.compile_source("b.mc", "int fb(int x) { return x * 3 - 7; }\n")
        # Different IR: entry fingerprints differ, so no position-0 hit
        # (later positions may still coincide once both reduce to small
        # canonical forms — that is correct sharing, not a bug).
        assert ("fb", 0) in compiler.ran
