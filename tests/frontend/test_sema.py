"""Semantic analysis tests."""

import pytest

from repro.frontend.diagnostics import CompileError
from repro.frontend.parser import parse_source
from repro.frontend.sema import analyze, eval_const_expr, wrap_int64, ConstEvalError
from repro.frontend.types import FunctionType, INT


def sema_ok(src: str):
    program, _ = parse_source("t.mc", src)
    return analyze(program)


def sema_errors(src: str) -> list[str]:
    program, _ = parse_source("t.mc", src)
    try:
        analyze(program)
    except CompileError as exc:
        return [str(d) for d in exc.diagnostics]
    return []


class TestDeclarations:
    def test_simple_program(self):
        sema = sema_ok("int main() { return 0; }")
        assert sema.function_types["main"] == FunctionType((), INT)

    def test_undeclared_variable(self):
        assert any("undeclared" in e for e in sema_errors("int main() { return x; }"))

    def test_redeclaration_same_scope(self):
        errors = sema_errors("int main() { int x = 1; int x = 2; return x; }")
        assert any("redeclaration" in e for e in errors)

    def test_shadowing_in_nested_scope_ok(self):
        sema_ok("int main() { int x = 1; { int x = 2; } return x; }")

    def test_function_redefinition(self):
        errors = sema_errors("int f() { return 1; } int f() { return 2; }")
        assert any("redefinition" in e for e in errors)

    def test_declaration_then_definition_ok(self):
        sema_ok("int f(int x); int f(int x) { return x; }")

    def test_conflicting_signatures(self):
        errors = sema_errors("int f(int x); bool f(int x) { return true; }")
        assert any("conflicting" in e for e in errors)

    def test_duplicate_parameter(self):
        errors = sema_errors("int f(int a, int a) { return a; }")
        assert any("duplicate parameter" in e for e in errors)

    def test_builtin_shadowing_rejected(self):
        assert sema_errors("int print(int x) { return x; }")

    def test_void_variable_rejected(self):
        # Parser already rejects `void x`; use global path.
        program, _ = parse_source("t.mc", "extern void g;")
        with pytest.raises(CompileError):
            analyze(program)

    def test_main_signature_enforced(self):
        assert any("main" in e for e in sema_errors("int main(int argc) { return 0; }"))
        assert any("main" in e for e in sema_errors("void main() { }"))


class TestTypes:
    def test_condition_must_be_bool(self):
        assert any("bool" in e for e in sema_errors("int main() { if (1) return 0; return 1; }"))

    def test_arith_needs_int(self):
        assert sema_errors("int main() { bool b = true; return b + 1; }")

    def test_logical_needs_bool(self):
        assert sema_errors("int main() { return (1 && 2) ? 0 : 1; }")

    def test_comparison_mixed_types_rejected(self):
        assert sema_errors("int main() { bool b = 1 == true; return 0; }")

    def test_bool_equality_ok(self):
        sema_ok("int main() { bool b = (true == false); return b ? 1 : 0; }")

    def test_assign_type_mismatch(self):
        assert sema_errors("int main() { int x = true; return x; }")

    def test_return_type_mismatch(self):
        assert sema_errors("int main() { return true; }")

    def test_void_return_with_value(self):
        assert sema_errors("void f() { return 1; }")

    def test_nonvoid_return_without_value(self):
        assert sema_errors("int f() { return; }")

    def test_ternary_arm_types_must_match(self):
        assert sema_errors("int main() { return true ? 1 : false; }")

    def test_ternary_condition_bool(self):
        assert sema_errors("int main() { return 1 ? 2 : 3; }")


class TestArrays:
    def test_index_non_array(self):
        assert any("non-array" in e for e in sema_errors("int main() { int x = 0; return x[0]; }"))

    def test_index_must_be_int(self):
        assert sema_errors("int main() { int a[4]; return a[true]; }")

    def test_assign_whole_array_rejected(self):
        assert any("entire array" in e for e in sema_errors(
            "int main() { int a[4]; int b[4]; a = b; return 0; }"
        ))

    def test_array_size_positive(self):
        assert sema_errors("int main() { int a[0]; return 0; }")

    def test_array_initializer_rejected(self):
        assert sema_errors("int main() { int a[4] = 1; return 0; }")

    def test_array_argument_passing(self):
        sema_ok("int f(int a[]) { return a[0]; } int main() { int b[4]; return f(b); }")

    def test_scalar_to_array_param_rejected(self):
        assert any("must be an array" in e for e in sema_errors(
            "int f(int a[]) { return a[0]; } int main() { return f(5); }"
        ))


class TestCalls:
    def test_undeclared_function(self):
        assert any("undeclared function" in e for e in sema_errors("int main() { return g(); }"))

    def test_arity_mismatch(self):
        assert any("argument" in e for e in sema_errors(
            "int f(int a) { return a; } int main() { return f(1, 2); }"
        ))

    def test_argument_type_mismatch(self):
        assert sema_errors("int f(int a) { return a; } int main() { return f(true); }")

    def test_builtins_available(self):
        sema_ok("int main() { print(input()); return 0; }")

    def test_variable_called_as_function(self):
        assert sema_errors("int main() { int x = 1; return x(); }")

    def test_function_used_as_value(self):
        assert sema_errors("int f() { return 1; } int main() { return f; }")


class TestControlFlow:
    def test_break_outside_loop(self):
        assert any("break" in e for e in sema_errors("int main() { break; return 0; }"))

    def test_continue_outside_loop(self):
        assert any("continue" in e for e in sema_errors("int main() { continue; return 0; }"))

    def test_break_in_loop_ok(self):
        sema_ok("int main() { while (true) { break; } return 0; }")

    def test_missing_return_warns(self):
        sema = sema_ok("int f(int x) { if (x > 0) return 1; }")
        assert any("without returning" in str(d) for d in sema.diags.diagnostics)

    def test_all_paths_return_no_warning(self):
        sema = sema_ok("int f(int x) { if (x > 0) return 1; else return 2; }")
        assert not sema.diags.diagnostics


class TestGlobalsAndConsts:
    def test_global_init_must_be_constant(self):
        assert any("constant" in e for e in sema_errors(
            "int f() { return 1; } int g = f();"
        ))

    def test_const_global_requires_init(self):
        assert any("initializer" in e for e in sema_errors("extern int x; const int c;"))

    def test_const_folding_through_consts(self):
        sema = sema_ok("const int A = 3; const int B = A * 4 + 1;")
        b = [g for g in sema.global_scope.symbols.values() if getattr(g, "name", "") == "B"][0]
        assert b.const_value == 13

    def test_assign_to_const_rejected(self):
        assert any("const" in e for e in sema_errors(
            "const int N = 1; int main() { N = 2; return 0; }"
        ))

    def test_division_by_zero_in_const_rejected(self):
        assert sema_errors("const int X = 1 / 0;")

    def test_extern_then_definition_ok(self):
        sema_ok("extern int g; int g = 5; int main() { return g; }")


class TestConstEval:
    def test_wrap_int64(self):
        assert wrap_int64(2**63) == -(2**63)
        assert wrap_int64(-(2**63) - 1) == 2**63 - 1
        assert wrap_int64(42) == 42

    def test_truncating_division(self):
        program, _ = parse_source("t.mc", "const int A = (0-7) / 2; const int B = (0-7) % 2;")
        analyze(program)
        values = {g.name: g.const_value for g in program.globals}
        assert values["A"] == -3  # C-style: trunc toward zero
        assert values["B"] == -1

    def test_shift_masking(self):
        program, _ = parse_source("t.mc", "const int A = 1 << 64;")
        analyze(program)
        assert program.globals[0].const_value == 1  # 64 & 63 == 0

    def test_non_constant_raises(self):
        program, _ = parse_source("t.mc", "int f(int x) { return x; }")
        analyze(program)
        body = program.functions[0].body
        with pytest.raises(ConstEvalError):
            eval_const_expr(body.stmts[0].value)
