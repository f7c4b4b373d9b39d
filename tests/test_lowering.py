"""Lowering tests: behaviour of every language construct via the interpreter."""


from repro.ir import Opcode, print_module
from tests.conftest import execute, lower


def run_main(body: str, headers=None, decls: str = "", **kwargs):
    src = f"{decls}\nint main() {{ {body} }}"
    return execute(src, headers, **kwargs)


class TestExpressions:
    def test_arithmetic(self):
        assert run_main("return 2 + 3 * 4 - 1;").exit_code == 13

    def test_division_truncation(self):
        assert run_main("return (0 - 7) / 2;").exit_code == -3
        assert run_main("return (0 - 7) % 2;").exit_code == -1

    def test_division_by_zero_traps(self):
        res = run_main("int z = 0; return 1 / z;")
        assert res.trapped and "zero" in res.trap_message

    def test_bitwise(self):
        assert run_main("return (12 & 10) | (1 << 4) ^ 3;").exit_code == (12 & 10) | (1 << 4) ^ 3

    def test_unary(self):
        assert run_main("int x = 5; return -x;").exit_code == -5
        assert run_main("return ~0;").exit_code == -1
        assert run_main("bool b = !false; return b ? 1 : 0;").exit_code == 1

    def test_comparisons_and_logic(self):
        assert run_main("return (1 < 2 && 3 >= 3) ? 7 : 8;").exit_code == 7
        assert run_main("return (1 > 2 || 2 == 2) ? 7 : 8;").exit_code == 7

    def test_short_circuit_skips_side_effects(self):
        decls = "int count = 0;\nbool bump() { count = count + 1; return true; }"
        res = run_main("bool x = false && bump(); print(count); return 0;", decls=decls)
        assert res.output == [0]
        res = run_main("bool x = true || bump(); print(count); return 0;", decls=decls)
        assert res.output == [0]
        res = run_main("bool x = true && bump(); print(count); return 0;", decls=decls)
        assert res.output == [1]

    def test_ternary(self):
        assert run_main("int x = 3; return x > 2 ? x * 10 : x;").exit_code == 30

    def test_assignment_is_expression(self):
        assert run_main("int a; int b = (a = 5); return a + b;").exit_code == 10

    def test_compound_assignment(self):
        assert run_main("int x = 10; x += 5; x -= 2; x *= 3; x /= 4; x %= 7; return x;").exit_code == ((((10 + 5) - 2) * 3) // 4) % 7

    def test_incdec_prefix_vs_postfix(self):
        assert run_main("int x = 5; int a = x++; return a * 100 + x;").exit_code == 506
        assert run_main("int x = 5; int a = ++x; return a * 100 + x;").exit_code == 606
        assert run_main("int x = 5; int a = x--; return a * 100 + x;").exit_code == 504

    def test_wrapping_arithmetic(self):
        # 2^62 * 4 wraps to 0.
        assert run_main("int big = 1 << 62; return big * 4;").exit_code == 0


class TestControlFlow:
    def test_if_else_chain(self):
        body = """
          int x = 7;
          if (x < 5) return 1;
          else if (x < 10) return 2;
          else return 3;
        """
        assert run_main(body).exit_code == 2

    def test_while_loop(self):
        assert run_main("int i = 0; int s = 0; while (i < 5) { s += i; i++; } return s;").exit_code == 10

    def test_do_while_runs_once(self):
        assert run_main("int i = 0; do { i++; } while (false); return i;").exit_code == 1

    def test_for_loop(self):
        assert run_main("int s = 0; for (int i = 1; i <= 4; ++i) s += i; return s;").exit_code == 10

    def test_break(self):
        assert run_main("int i = 0; while (true) { if (i == 3) break; i++; } return i;").exit_code == 3

    def test_continue(self):
        body = "int s = 0; for (int i = 0; i < 6; ++i) { if (i % 2 == 0) continue; s += i; } return s;"
        assert run_main(body).exit_code == 9

    def test_nested_loop_break_inner_only(self):
        body = """
          int hits = 0;
          for (int i = 0; i < 3; ++i) {
            for (int j = 0; j < 10; ++j) {
              if (j == 2) break;
              hits++;
            }
          }
          return hits;
        """
        assert run_main(body).exit_code == 6

    def test_early_return_in_both_branches(self):
        assert run_main("if (1 < 2) { return 5; } else { return 6; }").exit_code == 5

    def test_fallthrough_returns_zero(self):
        assert run_main("int x = 1;").exit_code == 0

    def test_unreachable_code_after_return_dropped(self):
        module = lower("int f() { return 1; print(99); return 2; }\nint main() { return f(); }")
        # the dead print must not appear
        assert "99" not in print_module(module)


class TestArraysAndGlobals:
    def test_array_read_write(self):
        body = """
          int a[4];
          for (int i = 0; i < 4; ++i) a[i] = i * i;
          return a[0] + a[1] + a[2] + a[3];
        """
        assert run_main(body).exit_code == 14

    def test_array_out_of_bounds_traps(self):
        res = run_main("int a[2]; int i = 100000; a[i] = 1; return 0;")
        assert res.trapped

    def test_array_passed_by_reference(self):
        decls = "void fill(int a[], int n) { for (int i = 0; i < n; ++i) a[i] = 7; }"
        assert run_main("int b[3]; fill(b, 3); return b[2];", decls=decls).exit_code == 7

    def test_global_scalar(self):
        decls = "int g = 10;\nvoid bump() { g = g + 1; }"
        assert run_main("bump(); bump(); return g;", decls=decls).exit_code == 12

    def test_global_array(self):
        decls = "int table[4];"
        assert run_main("table[2] = 9; return table[2];", decls=decls).exit_code == 9

    def test_const_global_folded_to_literal(self):
        module = lower("const int N = 42;\nint main() { return N; }")
        assert "N" not in module.globals
        assert "42" in print_module(module)

    def test_extern_global_via_header(self):
        headers = {"h.mh": "extern int shared;\n"}
        src = 'include "h.mh";\nint shared = 5;\nint main() { return shared; }'
        assert execute(src, headers).exit_code == 5

    def test_bool_variables(self):
        body = "bool a = true; bool b = a == false; return b ? 1 : 2;"
        assert run_main(body).exit_code == 2


class TestFunctions:
    def test_recursion(self):
        decls = "int fact(int n) { if (n <= 1) return 1; return n * fact(n - 1); }"
        assert run_main("return fact(6);", decls=decls).exit_code == 720

    def test_mutual_recursion(self):
        decls = """
          bool is_odd(int n);
          bool is_even(int n) { if (n == 0) return true; return is_odd(n - 1); }
          bool is_odd(int n) { if (n == 0) return false; return is_even(n - 1); }
        """
        assert run_main("return is_even(10) ? 1 : 0;", decls=decls).exit_code == 1

    def test_void_function(self):
        decls = "int acc = 0;\nvoid add(int x) { acc += x; }"
        assert run_main("add(3); add(4); return acc;", decls=decls).exit_code == 7

    def test_bool_params_and_return(self):
        decls = "bool flip(bool b) { return !b; }"
        assert run_main("return flip(false) ? 1 : 0;", decls=decls).exit_code == 1

    def test_print_and_input(self):
        res = run_main("print(input() + input()); return 0;", input_values=[3, 4])
        assert res.output == [7]

    def test_input_exhausted_traps(self):
        res = run_main("return input();", input_values=[])
        assert res.trapped

    def test_stack_overflow_traps(self):
        decls = "int inf(int n) { return inf(n + 1); }"
        res = run_main("return inf(0);", decls=decls)
        assert res.trapped and "overflow" in res.trap_message


class TestLoweringShape:
    def test_locals_become_allocas(self):
        module = lower("int f(int x) { int y = x; return y; }")
        opcodes = [i.opcode for i in module.functions["f"].instructions()]
        assert Opcode.ALLOCA in opcodes
        assert Opcode.STORE in opcodes
        assert Opcode.LOAD in opcodes

    def test_builtins_declared(self):
        module = lower("int main() { return 0; }")
        assert module.functions["print"].is_declaration
        assert module.functions["input"].is_declaration

    def test_short_circuit_produces_phi(self):
        module = lower("int main() { bool b = 1 < 2 && 3 < 4; return b ? 1 : 0; }")
        assert any(i.opcode is Opcode.PHI for i in module.functions["main"].instructions())
