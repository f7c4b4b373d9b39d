"""SCCP, GVN, and local CSE tests."""

from repro.ir import ConstantInt, Opcode, parse_module
from repro.passes import (
    DeadCodeEliminationPass,
    GVNPass,
    LocalCSEPass,
    Mem2RegPass,
    SCCPPass,
    SimplifyCFGPass,
)
from tests.conftest import lower
from tests.passes.helpers import check_behaviour_preserved, check_dormancy_contract, run_pass


class TestSCCP:
    def test_straightline_constants(self):
        module = lower("int f() { int a = 2; int b = a * 3; return b + 1; }")
        run_pass(Mem2RegPass(), module, "f")
        run_pass(SCCPPass(), module, "f")
        fn = module.functions["f"]
        ret = fn.blocks[-1].terminator
        # after SCCP the return feeds from a constant
        assert any(isinstance(op, ConstantInt) and op.value == 7 for op in ret.operands)

    def test_one_sided_branch_folded(self):
        module = lower(
            "int f() { int x = 1; if (x > 0) return 10; return 20; }"
        )
        run_pass(Mem2RegPass(), module, "f")
        stats = run_pass(SCCPPass(), module, "f")
        assert stats.changed
        fn = module.functions["f"]
        assert all(i.opcode is not Opcode.CBR for i in fn.instructions())

    def test_constant_through_phi(self):
        # Both arms assign the same constant: SCCP proves the phi constant.
        module = lower(
            "int f(bool c) { int x; if (c) x = 4; else x = 4; return x + 1; }"
        )
        run_pass(Mem2RegPass(), module, "f")
        run_pass(SCCPPass(), module, "f")
        fn = module.functions["f"]
        for block in fn.blocks:
            term = block.terminator
            if term.opcode is Opcode.RET:
                assert isinstance(term.value, ConstantInt) and term.value.value == 5

    def test_sccp_stronger_than_folding(self):
        # The classic SCCP example: constants flow through a branch that
        # simple iteration cannot resolve without edge feasibility.
        text = """module m
define @f() -> i64 {
^entry:
  br ^header
^header:
  %x = phi i64 [1, ^entry], [%x2, ^latch]
  %c = icmp slt %x, 100
  cbr %c, ^latch, ^exit
^latch:
  %x2 = add i64 %x, 0
  br ^header
^exit:
  ret %x
}
"""
        # x is always 1: the add of 0 keeps it 1, so `x < 100` is always
        # true... loop never exits. Use a variant that exits:
        module = parse_module(text.replace("icmp slt %x, 100", "icmp slt %x, 1"))
        run_pass(SCCPPass(), module, "f")
        fn = module.functions["f"]
        rets = [i for i in fn.instructions() if i.opcode is Opcode.RET]
        assert all(isinstance(r.value, ConstantInt) and r.value.value == 1 for r in rets)

    def test_arguments_are_overdefined(self):
        module = lower("int f(int x) { return x + 1; }")
        run_pass(Mem2RegPass(), module, "f")
        stats = run_pass(SCCPPass(), module, "f")
        assert not stats.changed

    def test_division_by_zero_not_folded(self):
        module = lower("int f() { int z = 0; return 3 / z; }")
        run_pass(Mem2RegPass(), module, "f")
        run_pass(SCCPPass(), module, "f")
        assert any(i.opcode is Opcode.SDIV for i in module.functions["f"].instructions())

    def test_behaviour_full(self):
        check_behaviour_preserved(
            """
            int main() {
              int mode = 2;
              int r;
              if (mode == 1) r = 100;
              else if (mode == 2) r = 200;
              else r = 300;
              print(r);
              return 0;
            }
            """,
            [Mem2RegPass(), SCCPPass(), SimplifyCFGPass()],
        )

    def test_dormancy_contract(self):
        module = lower("int f(int x) { if (x > 0) return 2 * 3; return 0 - 6; }")
        run_pass(Mem2RegPass(), module, "f")
        check_dormancy_contract(SCCPPass(), module)


class TestGVN:
    def test_redundant_computation_across_blocks(self):
        text = """module m
define @f(i64 %a, i64 %b, i1 %c) -> i64 {
^entry:
  %x = add i64 %a, %b
  cbr %c, ^then, ^else
^then:
  %y = add i64 %a, %b
  ret %y
^else:
  ret %x
}
"""
        module = parse_module(text)
        stats = run_pass(GVNPass(), module, "f")
        assert stats.detail.get("redundant_removed") == 1
        adds = [i for i in module.functions["f"].instructions() if i.opcode is Opcode.ADD]
        assert len(adds) == 1

    def test_commutative_unification(self):
        text = """module m
define @f(i64 %a, i64 %b) -> i64 {
^entry:
  %x = add i64 %a, %b
  %y = add i64 %b, %a
  %r = sub i64 %x, %y
  ret %r
}
"""
        module = parse_module(text)
        run_pass(GVNPass(), module, "f")
        adds = [i for i in module.functions["f"].instructions() if i.opcode is Opcode.ADD]
        assert len(adds) == 1

    def test_icmp_swapped_unification(self):
        text = """module m
define @f(i64 %a, i64 %b) -> i64 {
^entry:
  %x = icmp slt %a, %b
  %y = icmp sgt %b, %a
  %zx = zext %x
  %zy = zext %y
  %r = add i64 %zx, %zy
  ret %r
}
"""
        module = parse_module(text)
        run_pass(GVNPass(), module, "f")
        cmps = [i for i in module.functions["f"].instructions() if i.opcode is Opcode.ICMP]
        assert len(cmps) == 1

    def test_sibling_blocks_not_unified(self):
        # Neither branch dominates the other: both adds must survive.
        text = """module m
define @f(i64 %a, i1 %c) -> i64 {
^entry:
  cbr %c, ^then, ^else
^then:
  %x = add i64 %a, 1
  ret %x
^else:
  %y = add i64 %a, 1
  ret %y
}
"""
        module = parse_module(text)
        stats = run_pass(GVNPass(), module, "f")
        assert not stats.changed

    def test_loads_not_value_numbered(self):
        module = lower("int g = 1;\nint f() { int a = g; g = 2; int b = g; return a + b; }")
        run_pass(Mem2RegPass(), module, "f")
        run_pass(GVNPass(), module, "f")
        loads = [i for i in module.functions["f"].instructions() if i.opcode is Opcode.LOAD]
        assert len(loads) == 2  # GVN must not merge across the store

    def test_behaviour(self):
        check_behaviour_preserved(
            """
            int main() {
              int a = input(); int b = input();
              int x = a * b + 1;
              int y;
              if (a > b) y = a * b + 1; else y = a * b + 1;
              print(x + y);
              return 0;
            }
            """,
            [Mem2RegPass(), GVNPass(), DeadCodeEliminationPass()],
            input_values=[6, 7],
        )

    def test_dormancy_contract(self):
        module = lower("int f(int a, int b) { return (a + b) * (a + b); }")
        run_pass(Mem2RegPass(), module, "f")
        check_dormancy_contract(GVNPass(), module)


class TestLocalCSE:
    def test_expression_reuse_in_block(self):
        module = lower("int f(int a, int b) { return (a + b) * (a + b); }")
        run_pass(Mem2RegPass(), module, "f")
        stats = run_pass(LocalCSEPass(), module, "f")
        assert stats.detail.get("exprs_removed", 0) == 1

    def test_redundant_load_forwarded(self):
        module = lower("int g = 3;\nint f() { return g + g; }")
        stats = run_pass(LocalCSEPass(), module, "f")
        assert stats.detail.get("loads_forwarded", 0) == 1

    def test_store_to_load_forwarding(self):
        module = lower("int g = 0;\nint f(int x) { g = x; return g; }")
        run_pass(Mem2RegPass(), module, "f")
        stats = run_pass(LocalCSEPass(), module, "f")
        assert stats.detail.get("loads_forwarded", 0) == 1
        # The returned value is now the stored one, not a load.
        fn = module.functions["f"]
        rets = [i for i in fn.instructions() if i.opcode is Opcode.RET]
        assert rets[0].value is fn.args[0]

    def test_store_to_distinct_global_keeps_availability(self):
        module = lower(
            "int g = 1;\nint h = 2;\nint f() { int a = g; h = 9; int b = g; return a + b; }"
        )
        run_pass(Mem2RegPass(), module, "f")
        stats = run_pass(LocalCSEPass(), module, "f")
        # alias analysis: @h and @g provably don't alias, so the second
        # load of @g forwards from the first.
        assert stats.detail.get("loads_forwarded", 0) == 1

    def test_store_through_array_param_invalidates_global(self):
        module = lower(
            "int g = 1;\nint f(int p[]) { int a = g; p[0] = 9; int b = g; return a + b; }"
        )
        run_pass(Mem2RegPass(), module, "f")
        stats = run_pass(LocalCSEPass(), module, "f")
        # An argument pointer may alias the global: no forwarding.
        assert stats.detail.get("loads_forwarded", 0) == 0

    def test_store_to_same_array_distinct_const_indices(self):
        module = lower(
            "int f() { int a[4]; a[0] = 1; a[1] = 2; int x = a[0]; return x; }"
        )
        stats = run_pass(LocalCSEPass(), module, "f")
        # a[1] cannot alias a[0]: the store-to-load forwarding survives
        # (the x slot forwards too).
        assert stats.detail.get("loads_forwarded", 0) == 2

    def test_impure_call_invalidates(self):
        module = lower(
            "int g = 1;\nvoid touch() { g = g + 1; }\nint f() { int a = g; touch(); int b = g; return a + b; }"
        )
        run_pass(Mem2RegPass(), module, "f")
        run_pass(LocalCSEPass(), module, "f")
        loads = [i for i in module.functions["f"].instructions() if i.opcode is Opcode.LOAD]
        assert len(loads) == 2

    def test_behaviour(self):
        check_behaviour_preserved(
            """
            int g = 5;
            int main() {
              int a = g * g + g;
              g = a % 11;
              int b = g * g + g;
              print(a); print(b);
              return 0;
            }
            """,
            [Mem2RegPass(), LocalCSEPass(), DeadCodeEliminationPass()],
        )

    def test_dormancy_contract(self):
        module = lower("int g = 2;\nint f(int x) { return g + x + g; }")
        run_pass(Mem2RegPass(), module, "f")
        check_dormancy_contract(LocalCSEPass(), module)
