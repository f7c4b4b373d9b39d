"""Inliner and function-attribute tests."""

from repro.ir import Opcode
from repro.passes import FunctionAttrsPass, InlinerPass, Mem2RegPass
from repro.passes.funcattrs import get_pure_functions
from tests.conftest import lower
from tests.passes.helpers import check_behaviour_preserved, run_pass_all


def calls_in(module, fn_name):
    return [i for i in module.functions[fn_name].instructions() if i.opcode is Opcode.CALL]


class TestInliner:
    def test_small_leaf_inlined(self):
        module = lower(
            "int inc(int x) { return x + 1; }\nint main() { return inc(41); }"
        )
        stats = run_pass_all(InlinerPass(), module)
        assert stats.detail.get("inlined_calls", 0) == 1
        assert not calls_in(module, "main")

    def test_chain_flattens_bottom_up(self):
        module = lower(
            """
            int a(int x) { return x + 1; }
            int b(int x) { return a(x) * 2; }
            int main() { return b(5); }
            """
        )
        run_pass_all(InlinerPass(), module)
        assert not calls_in(module, "main")
        assert not calls_in(module, "b")

    def test_recursive_not_inlined(self):
        module = lower(
            "int f(int n) { if (n < 1) return 0; return f(n - 1) + 1; }\nint main() { return f(3); }"
        )
        run_pass_all(InlinerPass(), module)
        assert calls_in(module, "f")  # self call survives

    def test_mutual_recursion_not_inlined_into_cycle(self):
        module = lower(
            """
            bool odd(int n);
            bool even(int n) { if (n == 0) return true; return odd(n - 1); }
            bool odd(int n) { if (n == 0) return false; return even(n - 1); }
            int main() { return even(4) ? 1 : 0; }
            """
        )
        run_pass_all(InlinerPass(), module)
        # even/odd must still call each other (cycle).
        assert calls_in(module, "even") and calls_in(module, "odd")

    def test_large_callee_not_inlined(self):
        body = " ".join(f"s += {i};" for i in range(40))
        module = lower(
            f"int big(int x) {{ int s = x; {body} return s; }}\nint main() {{ return big(1); }}"
        )
        run_pass_all(InlinerPass(), module)
        assert calls_in(module, "main")

    def test_void_callee_inlined(self):
        module = lower(
            "int g = 0;\nvoid bump() { g = g + 1; }\nint main() { bump(); bump(); return g; }"
        )
        run_pass_all(InlinerPass(), module)
        assert not calls_in(module, "main")

    def test_multi_return_callee_gets_phi(self):
        module = lower(
            """
            int pick(bool c) { if (c) return 10; return 20; }
            int main() { return pick(true); }
            """
        )
        run_pass_all(InlinerPass(), module)
        main = module.functions["main"]
        assert any(i.opcode is Opcode.PHI for i in main.instructions())

    def test_behaviour_rich(self):
        check_behaviour_preserved(
            """
            int g = 0;
            int inc(int x) { g = g + 1; return x + g; }
            int twice(int x) { return inc(x) + inc(x); }
            int main() {
              print(twice(10));
              print(g);
              return 0;
            }
            """,
            [InlinerPass(), Mem2RegPass()],
        )

    def test_inlined_array_callee(self):
        check_behaviour_preserved(
            """
            int sum3(int a[]) { return a[0] + a[1] + a[2]; }
            int main() {
              int v[3];
              v[0] = 1; v[1] = 2; v[2] = 3;
              print(sum3(v));
              return 0;
            }
            """,
            [InlinerPass()],
        )


class TestFunctionAttrs:
    def test_pure_math_function(self):
        module = lower("int sq(int x) { return x * x; }")
        FunctionAttrsPass().run_on_module(module)
        assert "sq" in get_pure_functions(module)

    def test_local_allocas_allowed(self):
        module = lower("int f(int x) { int t = x + 1; return t * 2; }")
        FunctionAttrsPass().run_on_module(module)
        assert "f" in get_pure_functions(module)

    def test_local_array_allowed(self):
        module = lower("int f(int x) { int a[2]; a[0] = x; a[1] = x; return a[0]; }")
        FunctionAttrsPass().run_on_module(module)
        assert "f" in get_pure_functions(module)

    def test_global_write_impure(self):
        module = lower("int g = 0;\nint f(int x) { g = x; return x; }")
        FunctionAttrsPass().run_on_module(module)
        assert "f" not in get_pure_functions(module)

    def test_global_read_impure(self):
        module = lower("int g = 0;\nint f() { return g; }")
        FunctionAttrsPass().run_on_module(module)
        assert "f" not in get_pure_functions(module)

    def test_array_param_access_impure(self):
        module = lower("int f(int a[]) { return a[0]; }")
        FunctionAttrsPass().run_on_module(module)
        assert "f" not in get_pure_functions(module)

    def test_loops_disqualify(self):
        module = lower(
            "int f(int n) { int s = 0; for (int i = 0; i < n; ++i) s += i; return s; }"
        )
        FunctionAttrsPass().run_on_module(module)
        assert "f" not in get_pure_functions(module)

    def test_possible_trap_disqualifies(self):
        module = lower("int f(int a, int b) { return a / b; }")
        FunctionAttrsPass().run_on_module(module)
        assert "f" not in get_pure_functions(module)

    def test_purity_is_interprocedural(self):
        module = lower(
            """
            int g = 0;
            int dirty(int x) { g = x; return x; }
            int wraps(int x) { return dirty(x) + 1; }
            int clean(int x) { return x + 1; }
            int wraps_clean(int x) { return clean(x) + 1; }
            """
        )
        FunctionAttrsPass().run_on_module(module)
        pure = get_pure_functions(module)
        assert "wraps" not in pure
        assert "wraps_clean" in pure and "clean" in pure

    def test_builtin_calls_impure(self):
        module = lower("int f(int x) { print(x); return x; }")
        FunctionAttrsPass().run_on_module(module)
        assert "f" not in get_pure_functions(module)
