"""Correlated value propagation, jump threading, reassociation tests."""

from repro.ir import ConstantInt, Opcode, parse_module, verify_module
from repro.passes import (
    CorrelatedValuePropagationPass,
    JumpThreadingPass,
    Mem2RegPass,
    ReassociatePass,
    SimplifyCFGPass,
)
from tests.conftest import lower
from tests.passes.helpers import check_behaviour_preserved, check_dormancy_contract, run_pass


class TestCVP:
    def test_implied_comparison_folds_true(self):
        module = lower(
            """
            int f(int x) {
              if (x < 10) {
                if (x < 20) return 1;
                return 2;
              }
              return 3;
            }
            """
        )
        run_pass(Mem2RegPass(), module, "f")
        stats = run_pass(CorrelatedValuePropagationPass(), module, "f")
        assert stats.detail.get("comparisons_folded", 0) >= 1

    def test_contradicted_comparison_folds_false(self):
        module = lower(
            """
            int f(int x) {
              if (x < 10) {
                if (x > 50) return 1;
                return 2;
              }
              return 3;
            }
            """
        )
        run_pass(Mem2RegPass(), module, "f")
        stats = run_pass(CorrelatedValuePropagationPass(), module, "f")
        assert stats.detail.get("comparisons_folded", 0) >= 1

    def test_else_branch_negated_fact(self):
        module = lower(
            """
            int f(int x) {
              if (x < 10) return 0;
              // here x >= 10
              if (x >= 10) return 1;
              return 2;
            }
            """
        )
        run_pass(Mem2RegPass(), module, "f")
        stats = run_pass(CorrelatedValuePropagationPass(), module, "f")
        assert stats.detail.get("comparisons_folded", 0) >= 1

    def test_unrelated_comparison_untouched(self):
        module = lower(
            """
            int f(int x, int y) {
              if (x < 10) { if (y < 10) return 1; return 2; }
              return 3;
            }
            """
        )
        run_pass(Mem2RegPass(), module, "f")
        stats = run_pass(CorrelatedValuePropagationPass(), module, "f")
        assert not stats.changed

    def test_eq_fact_implies_everything(self):
        module = lower(
            """
            int f(int x) {
              if (x == 5) {
                if (x < 6) return 1;
                return 2;
              }
              return 3;
            }
            """
        )
        run_pass(Mem2RegPass(), module, "f")
        stats = run_pass(CorrelatedValuePropagationPass(), module, "f")
        assert stats.detail.get("comparisons_folded", 0) >= 1

    def test_behaviour(self):
        check_behaviour_preserved(
            """
            int main() {
              int x = input();
              int r = 0;
              if (x < 100) {
                if (x < 200) r = 1;
                if (x >= 100) r += 10;
              }
              print(r);
              return 0;
            }
            """,
            [Mem2RegPass(), CorrelatedValuePropagationPass(), SimplifyCFGPass()],
            input_values=[42],
        )

    def test_dormancy_contract(self):
        module = lower("int f(int x) { if (x < 3) { if (x < 9) return 1; } return 0; }")
        run_pass(Mem2RegPass(), module, "f")
        check_dormancy_contract(CorrelatedValuePropagationPass(), module)


class TestJumpThreading:
    THREADABLE = """module m
define @f(i1 %c) -> i64 {
^entry:
  cbr %c, ^a, ^b
^a:
  br ^test
^b:
  br ^test
^test:
  %p = phi i64 [1, ^a], [0, ^b]
  %t = icmp eq %p, 1
  cbr %t, ^yes, ^no
^yes:
  ret 100
^no:
  ret 200
}
"""

    def test_phi_of_constants_threaded(self):
        module = parse_module(self.THREADABLE)
        stats = run_pass(JumpThreadingPass(), module, "f")
        assert stats.detail.get("threaded_edges", 0) >= 1
        verify_module(module)

    def test_threaded_behaviour_equivalent(self):
        # i1 param: call with 1 then 0
        interp_before = []
        for arg in (1, 0):
            from repro.vm.interp import IRInterpreter

            interp_before.append(IRInterpreter([parse_module(self.THREADABLE)]).call("f", [arg]))
        module = parse_module(self.THREADABLE)
        run_pass(JumpThreadingPass(), module, "f")
        run_pass(SimplifyCFGPass(), module, "f")
        from repro.vm.interp import IRInterpreter

        after = [IRInterpreter([module]).call("f", [arg]) for arg in (1, 0)]
        assert after == interp_before == [100, 200]

    def test_non_constant_phi_not_threaded(self):
        text = """module m
define @f(i1 %c, i64 %x) -> i64 {
^entry:
  cbr %c, ^a, ^b
^a:
  br ^test
^b:
  br ^test
^test:
  %p = phi i64 [%x, ^a], [0, ^b]
  %t = icmp eq %p, 1
  cbr %t, ^yes, ^no
^yes:
  ret 100
^no:
  ret 200
}
"""
        module = parse_module(text)
        stats = run_pass(JumpThreadingPass(), module, "f")
        # only the ^b edge (constant 0) may thread
        assert stats.detail.get("threaded_edges", 0) <= 1
        verify_module(module)

    def test_block_with_side_effects_not_threaded(self):
        text = """module m
global @g : 1 = [0]
define @f(i1 %c) -> i64 {
^entry:
  cbr %c, ^a, ^b
^a:
  br ^test
^b:
  br ^test
^test:
  %p = phi i64 [1, ^a], [0, ^b]
  store %p, @g
  %t = icmp eq %p, 1
  cbr %t, ^yes, ^no
^yes:
  ret 100
^no:
  ret 200
}
"""
        module = parse_module(text)
        stats = run_pass(JumpThreadingPass(), module, "f")
        assert not stats.changed  # the store must keep executing

    def test_dormancy_contract(self):
        module = parse_module(self.THREADABLE)
        check_dormancy_contract(JumpThreadingPass(), module)


class TestReassociate:
    def test_constant_chain_merged(self):
        text = """module m
define @f(i64 %x) -> i64 {
^entry:
  %a = add i64 %x, 3
  %b = add i64 %a, 4
  ret %b
}
"""
        module = parse_module(text)
        stats = run_pass(ReassociatePass(), module, "f")
        assert stats.detail.get("chains_merged") == 1
        fn = module.functions["f"]
        adds = [i for i in fn.instructions() if i.opcode is Opcode.ADD]
        assert len(adds) == 1
        assert isinstance(adds[0].rhs, ConstantInt) and adds[0].rhs.value == 7

    def test_long_chain_collapses(self):
        text = """module m
define @f(i64 %x) -> i64 {
^entry:
  %a = add i64 %x, 1
  %b = add i64 %a, 2
  %c = add i64 %b, 3
  %d = add i64 %c, 4
  ret %d
}
"""
        module = parse_module(text)
        run_pass(ReassociatePass(), module, "f")
        adds = [i for i in module.functions["f"].instructions() if i.opcode is Opcode.ADD]
        assert len(adds) == 1 and adds[0].rhs.value == 10

    def test_mul_chain(self):
        text = """module m
define @f(i64 %x) -> i64 {
^entry:
  %a = mul i64 %x, 2
  %b = mul i64 %a, 3
  ret %b
}
"""
        module = parse_module(text)
        run_pass(ReassociatePass(), module, "f")
        muls = [i for i in module.functions["f"].instructions() if i.opcode is Opcode.MUL]
        assert len(muls) == 1 and muls[0].rhs.value == 6

    def test_mixed_ops_not_merged(self):
        text = """module m
define @f(i64 %x) -> i64 {
^entry:
  %a = add i64 %x, 3
  %b = mul i64 %a, 4
  ret %b
}
"""
        module = parse_module(text)
        stats = run_pass(ReassociatePass(), module, "f")
        assert not stats.changed

    def test_multi_use_inner_not_merged(self):
        text = """module m
define @f(i64 %x) -> i64 {
^entry:
  %a = add i64 %x, 3
  %b = add i64 %a, 4
  %c = add i64 %a, %b
  ret %c
}
"""
        module = parse_module(text)
        stats = run_pass(ReassociatePass(), module, "f")
        assert not stats.changed  # %a has two uses

    def test_sub_not_reassociated(self):
        text = """module m
define @f(i64 %x) -> i64 {
^entry:
  %a = sub i64 %x, 3
  %b = sub i64 %a, 4
  ret %b
}
"""
        module = parse_module(text)
        stats = run_pass(ReassociatePass(), module, "f")
        assert not stats.changed  # sub is not commutative

    def test_behaviour(self):
        check_behaviour_preserved(
            "int main() { int x = input(); print(((x + 1) + 2) + 3); print(((x * 2) * 3)); return 0; }",
            [Mem2RegPass(), ReassociatePass()],
            input_values=[10],
        )

    def test_dormancy_contract(self):
        module = lower("int f(int x) { return x + 1 + 2 + 3; }")
        run_pass(Mem2RegPass(), module, "f")
        check_dormancy_contract(ReassociatePass(), module)
