"""DCE, DSE, and ADCE tests."""

from repro.ir import Opcode, parse_module
from repro.passes import (
    AggressiveDCEPass,
    DeadCodeEliminationPass,
    DeadStoreEliminationPass,
    FunctionAttrsPass,
    Mem2RegPass,
)
from tests.conftest import lower
from tests.passes.helpers import check_behaviour_preserved, check_dormancy_contract, run_pass


class TestDCE:
    def test_unused_arithmetic_removed(self):
        module = lower("int f(int x) { int dead = x * 99; return x; }")
        run_pass(Mem2RegPass(), module, "f")
        stats = run_pass(DeadCodeEliminationPass(), module, "f")
        assert stats.changed
        assert all(i.opcode is not Opcode.MUL for i in module.functions["f"].instructions())

    def test_transitive_chain_removed_in_one_run(self):
        text = """module m
define @f(i64 %x) -> i64 {
^e:
  %a = add i64 %x, 1
  %b = mul i64 %a, 2
  %c = sub i64 %b, 3
  ret %x
}
"""
        module = parse_module(text)
        stats = run_pass(DeadCodeEliminationPass(), module, "f")
        assert stats.detail["removed"] == 3
        assert module.functions["f"].num_instructions == 1

    def test_store_not_removed(self):
        module = lower("int g = 0;\nint f() { g = 5; return 0; }")
        run_pass(DeadCodeEliminationPass(), module, "f")
        assert any(i.opcode is Opcode.STORE for i in module.functions["f"].instructions())

    def test_call_to_impure_function_kept(self):
        module = lower(
            "int g = 0;\nint bump() { g = g + 1; return g; }\nint f() { int x = bump(); return 0; }"
        )
        FunctionAttrsPass().run_on_module(module)
        run_pass(Mem2RegPass(), module, "f")
        run_pass(DeadCodeEliminationPass(), module, "f")
        assert any(i.opcode is Opcode.CALL for i in module.functions["f"].instructions())

    def test_call_to_pure_function_removed(self):
        module = lower(
            "int sq(int x) { return x * x; }\nint f() { int x = sq(3); return 0; }"
        )
        FunctionAttrsPass().run_on_module(module)
        run_pass(Mem2RegPass(), module, "f")
        stats = run_pass(DeadCodeEliminationPass(), module, "f")
        assert stats.changed
        assert all(i.opcode is not Opcode.CALL for i in module.functions["f"].instructions())

    def test_dead_load_removed(self):
        module = lower("int g = 1;\nint f() { int x = g; return 2; }")
        run_pass(Mem2RegPass(), module, "f")
        run_pass(DeadCodeEliminationPass(), module, "f")
        assert all(i.opcode is not Opcode.LOAD for i in module.functions["f"].instructions())

    def test_dormancy_contract(self):
        module = lower("int f(int x) { int d = x + 1; int e = d * 2; return x; }")
        run_pass(Mem2RegPass(), module, "f")
        check_dormancy_contract(DeadCodeEliminationPass(), module)


class TestDSE:
    def test_overwritten_store_removed(self):
        module = lower("int g = 0;\nint f() { g = 1; g = 2; return g; }")
        stats = run_pass(DeadStoreEliminationPass(), module, "f")
        assert stats.detail.get("overwritten_stores", 0) == 1

    def test_intervening_load_blocks(self):
        module = lower("int g = 0;\nint f() { g = 1; int x = g; g = 2; return x; }")
        stats = run_pass(DeadStoreEliminationPass(), module, "f")
        assert stats.detail.get("overwritten_stores", 0) == 0

    def test_intervening_call_blocks(self):
        module = lower(
            "int g = 0;\nint peek() { return g; }\nint f() { g = 1; int x = peek(); g = 2; return x; }"
        )
        stats = run_pass(DeadStoreEliminationPass(), module, "f")
        assert stats.detail.get("overwritten_stores", 0) == 0

    def test_write_only_array_removed(self):
        module = lower("int f() { int a[4]; a[0] = 1; a[1] = 2; return 7; }")
        stats = run_pass(DeadStoreEliminationPass(), module, "f")
        assert stats.detail.get("dead_slots", 0) >= 1
        # The array writes disappeared entirely (gep'd stores counted too
        # once geps are gone; at minimum the alloca survived nowhere).
        fn = module.functions["f"]
        assert all(i.opcode is not Opcode.ALLOCA or i.size == 1 for i in fn.instructions())

    def test_behaviour(self):
        check_behaviour_preserved(
            """
            int g = 0;
            int main() {
              g = 1; g = 2;
              int local[4];
              local[0] = 99;
              print(g);
              return 0;
            }
            """,
            [DeadStoreEliminationPass()],
        )

    def test_dormancy_contract(self):
        module = lower("int g = 0;\nint f() { g = 1; g = 2; return g; }")
        check_dormancy_contract(DeadStoreEliminationPass(), module)


class TestADCE:
    def test_cross_block_dead_chain_removed(self):
        # A value computed in a branch, consumed only by dead code.
        text = """module m
define @f(i1 %c, i64 %x) -> i64 {
^entry:
  cbr %c, ^a, ^b
^a:
  %d1 = mul i64 %x, 3
  br ^join
^b:
  %d2 = mul i64 %x, 5
  br ^join
^join:
  %p = phi i64 [%d1, ^a], [%d2, ^b]
  %dead = add i64 %p, 1
  ret %x
}
"""
        module = parse_module(text)
        stats = run_pass(AggressiveDCEPass(), module, "f")
        assert stats.changed
        ops = [i.opcode for i in module.functions["f"].instructions()]
        assert Opcode.PHI not in ops and Opcode.MUL not in ops

    def test_live_phi_kept(self):
        module = lower("int f(bool c) { int x = 1; if (c) x = 2; return x; }")
        run_pass(Mem2RegPass(), module, "f")
        run_pass(AggressiveDCEPass(), module, "f")
        assert any(i.opcode is Opcode.PHI for i in module.functions["f"].instructions())

    def test_stores_and_prints_kept(self):
        module, ref, after = check_behaviour_preserved(
            """
            int g = 0;
            int main() {
              for (int i = 0; i < 3; ++i) g += i;
              print(g);
              return g;
            }
            """,
            [Mem2RegPass(), AggressiveDCEPass()],
        )
        assert ref.output == [3]

    def test_division_trap_kept(self):
        module, ref, after = check_behaviour_preserved(
            "int main() { int z = 0; int d = 1 / z; return 0; }",
            [Mem2RegPass(), AggressiveDCEPass()],
        )
        assert ref.trapped and after.trapped

    def test_dormancy_contract(self):
        module = lower(
            "int f(bool c, int x) { int y = x; if (c) y = x * 2; return y; }"
        )
        run_pass(Mem2RegPass(), module, "f")
        check_dormancy_contract(AggressiveDCEPass(), module)
