"""Strength reduction and if-conversion tests."""

from repro.ir import ConstantInt, Opcode, parse_module
from repro.passes import (
    IfToSelectPass,
    InstSimplifyPass,
    Mem2RegPass,
    SimplifyCFGPass,
    StrengthReducePass,
)
from tests.conftest import lower
from tests.passes.helpers import check_behaviour_preserved, check_dormancy_contract, run_pass


class TestStrengthReduce:
    def test_mul_power_of_two_to_shift(self):
        module = lower("int f(int x) { return x * 8; }")
        run_pass(Mem2RegPass(), module, "f")
        stats = run_pass(StrengthReducePass(), module, "f")
        assert stats.detail.get("muls_to_shifts") == 1
        fn = module.functions["f"]
        opcodes = [i.opcode for i in fn.instructions()]
        assert Opcode.MUL not in opcodes and Opcode.SHL in opcodes
        shift = [i for i in fn.instructions() if i.opcode is Opcode.SHL][0]
        assert isinstance(shift.rhs, ConstantInt) and shift.rhs.value == 3

    def test_non_power_untouched(self):
        module = lower("int f(int x) { return x * 6; }")
        run_pass(Mem2RegPass(), module, "f")
        stats = run_pass(StrengthReducePass(), module, "f")
        assert not stats.changed

    def test_mul_one_left_to_instsimplify(self):
        module = lower("int f(int x) { return x * 1; }")
        run_pass(Mem2RegPass(), module, "f")
        stats = run_pass(StrengthReducePass(), module, "f")
        assert not stats.changed  # 2^0 is instsimplify's job

    def test_division_never_reduced(self):
        module = lower("int f(int x) { return x / 8 + x % 8; }")
        run_pass(Mem2RegPass(), module, "f")
        stats = run_pass(StrengthReducePass(), module, "f")
        assert not stats.changed  # signedness makes shift-for-div wrong

    def test_behaviour_with_negatives(self):
        check_behaviour_preserved(
            """
            int main() {
              int x = 0 - 13;
              print(x * 4);
              print(x * 16);
              print(7 * 32);
              return 0;
            }
            """,
            [Mem2RegPass(), InstSimplifyPass(), StrengthReducePass()],
        )

    def test_dormancy_contract(self):
        module = lower("int f(int x) { return x * 4 + x * 3; }")
        run_pass(Mem2RegPass(), module, "f")
        check_dormancy_contract(StrengthReducePass(), module)


class TestIfToSelect:
    def diamond_module(self):
        return parse_module(
            """module m
define @f(i64 %x) -> i64 {
^entry:
  %c = icmp sgt %x, 0
  cbr %c, ^pos, ^neg
^pos:
  %a = mul i64 %x, 2
  br ^merge
^neg:
  %b = sub i64 0, %x
  br ^merge
^merge:
  %r = phi i64 [%a, ^pos], [%b, ^neg]
  ret %r
}
"""
        )

    def test_diamond_converted(self):
        module = self.diamond_module()
        stats = run_pass(IfToSelectPass(), module, "f")
        assert stats.detail.get("diamonds_converted") == 1
        fn = module.functions["f"]
        opcodes = [i.opcode for i in fn.instructions()]
        assert Opcode.CBR not in opcodes
        assert Opcode.SELECT in opcodes
        assert Opcode.PHI not in opcodes

    def test_diamond_behaviour(self):
        from repro.vm.interp import IRInterpreter

        reference = [
            IRInterpreter([self.diamond_module()]).call("f", [v]) for v in (-7, 0, 9)
        ]
        module = self.diamond_module()
        run_pass(IfToSelectPass(), module, "f")
        run_pass(SimplifyCFGPass(), module, "f")
        converted = [IRInterpreter([module]).call("f", [v]) for v in (-7, 0, 9)]
        assert converted == reference == [7, 0, 18]

    def test_triangle_converted(self):
        module = parse_module(
            """module m
define @f(i64 %x) -> i64 {
^entry:
  %c = icmp slt %x, 10
  cbr %c, ^bump, ^merge
^bump:
  %a = add i64 %x, 100
  br ^merge
^merge:
  %r = phi i64 [%a, ^bump], [%x, ^entry]
  ret %r
}
"""
        )
        stats = run_pass(IfToSelectPass(), module, "f")
        assert stats.detail.get("triangles_converted") == 1
        assert all(
            i.opcode is not Opcode.CBR for i in module.functions["f"].instructions()
        )

    def test_side_with_store_not_converted(self):
        module = parse_module(
            """module m
global @g : 1 = [0]
define @f(i1 %c, i64 %x) -> i64 {
^entry:
  cbr %c, ^side, ^merge
^side:
  store %x, @g
  br ^merge
^merge:
  ret %x
}
"""
        )
        stats = run_pass(IfToSelectPass(), module, "f")
        assert not stats.changed  # the store must stay conditional

    def test_side_with_possible_trap_not_converted(self):
        module = parse_module(
            """module m
define @f(i64 %x, i64 %d) -> i64 {
^entry:
  %c = icmp ne %d, 0
  cbr %c, ^divide, ^merge
^divide:
  %q = sdiv i64 %x, %d
  br ^merge
^merge:
  %r = phi i64 [%q, ^divide], [0, ^entry]
  ret %r
}
"""
        )
        stats = run_pass(IfToSelectPass(), module, "f")
        assert not stats.changed  # speculating the sdiv would trap on d==0

    def test_large_side_not_converted(self):
        body = "\n".join(f"  %v{i} = add i64 %x, {i}" for i in range(8))
        module = parse_module(
            f"""module m
define @f(i1 %c, i64 %x) -> i64 {{
^entry:
  cbr %c, ^side, ^merge
^side:
{body}
  br ^merge
^merge:
  %r = phi i64 [%v7, ^side], [%x, ^entry]
  ret %r
}}
"""
        )
        stats = run_pass(IfToSelectPass(), module, "f")
        assert not stats.changed

    def test_from_source_ternary_like_if(self):
        check_behaviour_preserved(
            """
            int main() {
              for (int i = 0 - 5; i < 5; ++i) {
                int mag;
                if (i < 0) mag = 0 - i; else mag = i;
                print(mag);
              }
              return 0;
            }
            """,
            [Mem2RegPass(), InstSimplifyPass(), SimplifyCFGPass(), IfToSelectPass()],
        )

    def test_dormancy_contract(self):
        module = self.diamond_module()
        check_dormancy_contract(IfToSelectPass(), module)
