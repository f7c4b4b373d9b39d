"""LICM and loop-unrolling tests."""

from repro.analysis.loops import find_natural_loops
from repro.ir import Opcode
from repro.passes import (
    InstSimplifyPass,
    LICMPass,
    LoopUnrollPass,
    Mem2RegPass,
    SCCPPass,
    SimplifyCFGPass,
)
from tests.conftest import lower
from tests.passes.helpers import check_behaviour_preserved, check_dormancy_contract, run_pass


class TestLICM:
    def test_invariant_arith_hoisted(self):
        module = lower(
            """
            int f(int a, int b, int n) {
              int s = 0;
              for (int i = 0; i < n; ++i) s += a * b;
              return s;
            }
            """
        )
        run_pass(Mem2RegPass(), module, "f")
        stats = run_pass(LICMPass(), module, "f")
        assert stats.detail.get("hoisted", 0) >= 1
        fn = module.functions["f"]
        loop = find_natural_loops(fn)[0]
        muls_in_loop = [
            i for b in loop.blocks for i in b.instructions if i.opcode is Opcode.MUL
        ]
        assert not muls_in_loop

    def test_variant_not_hoisted(self):
        module = lower(
            "int f(int n) { int s = 0; for (int i = 0; i < n; ++i) s += i * 2; return s; }"
        )
        run_pass(Mem2RegPass(), module, "f")
        run_pass(LICMPass(), module, "f")
        fn = module.functions["f"]
        loop = find_natural_loops(fn)[0]
        muls_in_loop = [
            i for b in loop.blocks for i in b.instructions if i.opcode is Opcode.MUL
        ]
        assert muls_in_loop  # i * 2 depends on the induction variable

    def test_global_load_hoisted_when_no_stores(self):
        module = lower(
            "int g = 7;\nint f(int n) { int s = 0; for (int i = 0; i < n; ++i) s += g; return s; }"
        )
        run_pass(Mem2RegPass(), module, "f")
        run_pass(LICMPass(), module, "f")
        fn = module.functions["f"]
        loop = find_natural_loops(fn)[0]
        loads_in_loop = [
            i for b in loop.blocks for i in b.instructions if i.opcode is Opcode.LOAD
        ]
        assert not loads_in_loop

    def test_load_not_hoisted_across_store(self):
        module = lower(
            "int g = 7;\nint f(int n) { int s = 0; for (int i = 0; i < n; ++i) { g = i; s += g; } return s; }"
        )
        run_pass(Mem2RegPass(), module, "f")
        run_pass(LICMPass(), module, "f")
        fn = module.functions["f"]
        loop = find_natural_loops(fn)[0]
        loads_in_loop = [
            i for b in loop.blocks for i in b.instructions if i.opcode is Opcode.LOAD
        ]
        assert loads_in_loop

    def test_division_not_speculated(self):
        # n may be zero iterations; hoisting a/b would trap when b == 0.
        module = lower(
            "int f(int a, int b, int n) { int s = 0; for (int i = 0; i < n; ++i) s += a / b; return s; }"
        )
        run_pass(Mem2RegPass(), module, "f")
        run_pass(LICMPass(), module, "f")
        fn = module.functions["f"]
        loop = find_natural_loops(fn)[0]
        divs_in_loop = [
            i for b in loop.blocks for i in b.instructions if i.opcode is Opcode.SDIV
        ]
        assert divs_in_loop

    def test_division_by_constant_hoisted(self):
        module = lower(
            "int f(int a, int n) { int s = 0; for (int i = 0; i < n; ++i) s += a / 3; return s; }"
        )
        run_pass(Mem2RegPass(), module, "f")
        stats = run_pass(LICMPass(), module, "f")
        assert stats.detail.get("hoisted", 0) >= 1

    def test_zero_trip_loop_behaviour(self):
        check_behaviour_preserved(
            """
            int g = 3;
            int main() {
              int n = 0;
              int s = 0;
              for (int i = 0; i < n; ++i) s += g * 5;
              print(s);
              return 0;
            }
            """,
            [Mem2RegPass(), LICMPass()],
        )

    def test_nested_loop_behaviour(self):
        check_behaviour_preserved(
            """
            int main() {
              int a = 6; int b = 7; int total = 0;
              for (int i = 0; i < 3; ++i)
                for (int j = 0; j < 4; ++j)
                  total += a * b + i;
              print(total);
              return 0;
            }
            """,
            [Mem2RegPass(), LICMPass()],
        )

    def test_dormancy_contract(self):
        module = lower(
            "int f(int a, int n) { int s = 0; for (int i = 0; i < n; ++i) s += a * 3; return s; }"
        )
        run_pass(Mem2RegPass(), module, "f")
        check_dormancy_contract(LICMPass(), module)


class TestLoopUnroll:
    def unrolled(self, src: str, fn_name="f"):
        module = lower(src)
        run_pass(Mem2RegPass(), module, fn_name)
        run_pass(InstSimplifyPass(), module, fn_name)
        run_pass(SimplifyCFGPass(), module, fn_name)
        stats = run_pass(LoopUnrollPass(), module, fn_name)
        return module, stats

    def test_constant_trip_loop_fully_unrolled(self):
        module, stats = self.unrolled(
            "int f(int x) { int s = 0; for (int i = 0; i < 4; ++i) s += x; return s; }"
        )
        assert stats.detail.get("loops_unrolled") == 1
        assert stats.detail.get("iterations_expanded") == 4
        assert not find_natural_loops(module.functions["f"])

    def test_unrolled_constants_fold_to_closed_form(self):
        module, _ = self.unrolled(
            "int f() { int s = 0; for (int i = 0; i < 5; ++i) s += i; return s; }"
        )
        run_pass(SCCPPass(), module, "f")
        run_pass(InstSimplifyPass(), module, "f")
        run_pass(SimplifyCFGPass(), module, "f")
        from repro.vm.interp import run_module

        # after full unrolling + folding: just returns 10
        assert run_module(module, entry="f").exit_code == 10

    def test_runtime_bound_not_unrolled(self):
        module, stats = self.unrolled(
            "int f(int n) { int s = 0; for (int i = 0; i < n; ++i) s += i; return s; }"
        )
        assert not stats.changed

    def test_large_trip_not_unrolled(self):
        module, stats = self.unrolled(
            "int f(int x) { int s = 0; for (int i = 0; i < 1000; ++i) s += x; return s; }"
        )
        assert not stats.changed

    def test_loop_with_break_not_unrolled(self):
        module, stats = self.unrolled(
            """
            int f(int x) {
              int s = 0;
              for (int i = 0; i < 4; ++i) { if (x == i) break; s += i; }
              return s;
            }
            """
        )
        assert stats.detail.get("loops_unrolled", 0) == 0

    def test_zero_trip_loop(self):
        module, stats = self.unrolled(
            "int f() { int s = 9; for (int i = 5; i < 3; ++i) s += 100; return s; }"
        )
        from repro.vm.interp import run_module

        assert run_module(module, entry="f").exit_code == 9

    def test_downward_counting_loop(self):
        module, stats = self.unrolled(
            "int f(int x) { int s = 0; for (int i = 6; i > 0; i -= 2) s += x; return s; }"
        )
        if stats.changed:
            assert stats.detail.get("iterations_expanded") == 3

    def test_nested_constant_loops_behaviour(self):
        check_behaviour_preserved(
            """
            int main() {
              int t = 0;
              for (int i = 0; i < 3; ++i)
                for (int j = 0; j < 3; ++j)
                  t += i * 10 + j;
              print(t);
              return 0;
            }
            """,
            [Mem2RegPass(), InstSimplifyPass(), SimplifyCFGPass(), LoopUnrollPass(),
             InstSimplifyPass(), SimplifyCFGPass()],
        )

    def test_loop_with_conditional_body_behaviour(self):
        check_behaviour_preserved(
            """
            int main() {
              int t = 0;
              for (int i = 0; i < 6; ++i) { if (i % 2 == 0) t += i; else t -= 1; }
              print(t);
              return t;
            }
            """,
            [Mem2RegPass(), InstSimplifyPass(), SimplifyCFGPass(), LoopUnrollPass()],
        )

    def test_value_used_after_loop(self):
        check_behaviour_preserved(
            """
            int main() {
              int acc = 1;
              int i = 0;
              for (i = 0; i < 4; ++i) acc *= 2;
              print(acc); print(i);
              return 0;
            }
            """,
            [Mem2RegPass(), InstSimplifyPass(), SimplifyCFGPass(), LoopUnrollPass()],
        )

    def test_dormancy_contract(self):
        module = lower(
            "int f(int x) { int s = 0; for (int i = 0; i < 3; ++i) s += x; return s; }"
        )
        for p in (Mem2RegPass(), InstSimplifyPass(), SimplifyCFGPass()):
            run_pass(p, module, "f")
        check_dormancy_contract(LoopUnrollPass(), module)
