"""mem2reg tests."""

from repro.ir import Opcode
from repro.passes import Mem2RegPass
from tests.conftest import lower
from tests.passes.helpers import check_behaviour_preserved, check_dormancy_contract, run_pass


def opcodes_of(module, name):
    return [i.opcode for i in module.functions[name].instructions()]


class TestPromotion:
    def test_scalar_local_promoted(self):
        module = lower("int f(int x) { int y = x + 1; return y * 2; }")
        stats = run_pass(Mem2RegPass(), module, "f")
        assert stats.changed
        ops = opcodes_of(module, "f")
        assert Opcode.ALLOCA not in ops
        assert Opcode.LOAD not in ops
        assert Opcode.STORE not in ops

    def test_parameters_promoted(self):
        module = lower("int f(int a, int b) { return a + b; }")
        run_pass(Mem2RegPass(), module, "f")
        assert Opcode.ALLOCA not in opcodes_of(module, "f")

    def test_phi_inserted_at_merge(self):
        module = lower("int f(bool c) { int x = 1; if (c) x = 2; return x; }")
        run_pass(Mem2RegPass(), module, "f")
        assert Opcode.PHI in opcodes_of(module, "f")

    def test_loop_variable_gets_phi(self):
        module = lower("int f(int n) { int i = 0; while (i < n) i = i + 1; return i; }")
        run_pass(Mem2RegPass(), module, "f")
        ops = opcodes_of(module, "f")
        assert Opcode.PHI in ops and Opcode.ALLOCA not in ops

    def test_array_not_promoted(self):
        module = lower("int f() { int a[4]; a[0] = 1; return a[0]; }")
        run_pass(Mem2RegPass(), module, "f")
        ops = opcodes_of(module, "f")
        assert Opcode.ALLOCA in ops  # arrays stay in memory

    def test_bool_slot_promoted(self):
        module = lower("int f(bool c) { bool d = !c; return d ? 1 : 0; }")
        run_pass(Mem2RegPass(), module, "f")
        assert Opcode.ALLOCA not in opcodes_of(module, "f")

    def test_read_before_write_yields_undef_not_crash(self):
        # `x` only written in one branch; read after — defined behaviour
        # not required by the source language, but must not crash.
        module = lower("int f(bool c) { int x; if (c) x = 1; return x; }")
        run_pass(Mem2RegPass(), module, "f")

    def test_no_allocas_is_dormant(self):
        module = lower("int f(int x) { return x; }")
        run_pass(Mem2RegPass(), module, "f")  # promotes x.addr
        stats = run_pass(Mem2RegPass(), module, "f")
        assert not stats.changed

    def test_stats_counters(self):
        module = lower("int f(bool c) { int x = 1; if (c) x = 2; return x; }")
        stats = run_pass(Mem2RegPass(), module, "f")
        assert stats.detail.get("promoted_allocas", 0) >= 2  # c.addr + x.addr
        assert stats.detail.get("phis_inserted", 0) >= 1


class TestBehaviour:
    def test_diamond_flow(self):
        check_behaviour_preserved(
            "int main() { int x = 1; if (1 < 2) x = 5; else x = 9; print(x); return x; }",
            [Mem2RegPass()],
        )

    def test_loops_with_accumulators(self):
        check_behaviour_preserved(
            """
            int main() {
              int s = 0;
              for (int i = 0; i < 10; ++i) { if (i % 2 == 0) s += i; else s -= 1; }
              print(s);
              return s;
            }
            """,
            [Mem2RegPass()],
        )

    def test_nested_loops_and_breaks(self):
        check_behaviour_preserved(
            """
            int main() {
              int t = 0;
              for (int i = 0; i < 5; ++i) {
                int j = 0;
                while (true) {
                  if (j >= i) break;
                  t += i * j;
                  j++;
                }
              }
              print(t);
              return 0;
            }
            """,
            [Mem2RegPass()],
        )

    def test_arrays_unaffected(self):
        check_behaviour_preserved(
            """
            int main() {
              int a[3];
              for (int i = 0; i < 3; ++i) a[i] = i + 1;
              print(a[0] * 100 + a[1] * 10 + a[2]);
              return 0;
            }
            """,
            [Mem2RegPass()],
        )

    def test_dormancy_contract(self):
        module = lower(
            "int f(int n) { int s = 0; for (int i = 0; i < n; ++i) s += i; return s; }"
        )
        check_dormancy_contract(Mem2RegPass(), module)
