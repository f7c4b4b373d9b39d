"""Parser tests: grammar coverage and error recovery."""

import pytest

from repro.frontend import ast
from repro.frontend.diagnostics import CompileError
from repro.frontend.parser import parse_source
from repro.frontend.types import ArrayType, INT, VOID


def parse(src: str) -> ast.Program:
    program, _ = parse_source("t.mc", src)
    return program


def parse_expr(src: str) -> ast.Expr:
    program = parse(f"int main() {{ return {src}; }}")
    body = program.functions[0].body
    return body.stmts[0].value


def first_stmt(src: str) -> ast.Stmt:
    program = parse(f"int main() {{ {src} }}")
    return program.functions[0].body.stmts[0]


class TestTopLevel:
    def test_include(self):
        program = parse('include "util.mh";')
        assert [d.path for d in program.includes] == ["util.mh"]

    def test_global_var(self):
        program = parse("int g = 5;")
        g = program.globals[0]
        assert g.name == "g" and g.declared_type == INT
        assert isinstance(g.init, ast.IntLiteral)

    def test_const_global(self):
        g = parse("const int N = 10;").globals[0]
        assert g.is_const

    def test_global_array(self):
        g = parse("int table[16];").globals[0]
        assert g.declared_type == ArrayType(16)

    def test_extern_global(self):
        g = parse("extern int counter;").globals[0]
        assert g.is_extern and g.init is None

    def test_extern_function(self):
        f = parse("extern int helper(int a, int b);").functions[0]
        assert f.is_extern and not f.is_definition
        assert [p.name for p in f.params] == ["a", "b"]

    def test_function_declaration(self):
        f = parse("int f(int x);").functions[0]
        assert not f.is_definition

    def test_function_definition(self):
        f = parse("void f() { }").functions[0]
        assert f.is_definition and f.return_type == VOID

    def test_void_parameter_list(self):
        f = parse("int f(void) { return 1; }").functions[0]
        assert f.params == []

    def test_array_parameter(self):
        f = parse("int sum(int a[], int n) { return 0; }").functions[0]
        assert f.params[0].declared_type == ArrayType(None)
        assert f.params[1].declared_type == INT


class TestStatements:
    def test_var_decl(self):
        stmt = first_stmt("int x = 1 + 2;")
        assert isinstance(stmt, ast.VarDeclStmt)
        assert isinstance(stmt.init, ast.Binary)

    def test_array_decl(self):
        stmt = first_stmt("int a[8];")
        assert stmt.declared_type == ArrayType(8)

    def test_if_else(self):
        stmt = first_stmt("if (true) return 1; else return 2;")
        assert isinstance(stmt, ast.IfStmt)
        assert stmt.otherwise is not None

    def test_dangling_else_binds_inner(self):
        stmt = first_stmt("if (true) if (false) return 1; else return 2;")
        assert stmt.otherwise is None
        assert stmt.then.otherwise is not None

    def test_while(self):
        stmt = first_stmt("while (true) { }")
        assert isinstance(stmt, ast.WhileStmt)

    def test_do_while(self):
        stmt = first_stmt("do { } while (false);")
        assert isinstance(stmt, ast.DoWhileStmt)

    def test_for_full(self):
        stmt = first_stmt("for (int i = 0; i < 10; ++i) { }")
        assert isinstance(stmt, ast.ForStmt)
        assert isinstance(stmt.init, ast.VarDeclStmt)
        assert stmt.cond is not None and stmt.step is not None

    def test_for_empty_header(self):
        stmt = first_stmt("for (;;) break;")
        assert stmt.init is None and stmt.cond is None and stmt.step is None

    def test_for_expr_init(self):
        stmt = first_stmt("for (x = 0; ; ) break;")
        assert isinstance(stmt.init, ast.ExprStmt)

    def test_break_continue(self):
        assert isinstance(first_stmt("break;"), ast.BreakStmt)
        assert isinstance(first_stmt("continue;"), ast.ContinueStmt)

    def test_empty_statement(self):
        stmt = first_stmt(";")
        assert isinstance(stmt, ast.Block) and not stmt.stmts

    def test_return_void(self):
        stmt = first_stmt("return;")
        assert stmt.value is None


class TestExpressions:
    def test_precedence_mul_over_add(self):
        e = parse_expr("1 + 2 * 3")
        assert e.op is ast.BinaryOp.ADD
        assert e.rhs.op is ast.BinaryOp.MUL

    def test_precedence_compare_over_logic(self):
        e = parse_expr("a < b && c > d")
        assert e.op is ast.BinaryOp.LOGAND
        assert e.lhs.op is ast.BinaryOp.LT

    def test_left_associativity(self):
        e = parse_expr("1 - 2 - 3")
        assert e.op is ast.BinaryOp.SUB
        assert e.lhs.op is ast.BinaryOp.SUB
        assert e.rhs.value == 3

    def test_parentheses_override(self):
        e = parse_expr("(1 + 2) * 3")
        assert e.op is ast.BinaryOp.MUL
        assert e.lhs.op is ast.BinaryOp.ADD

    def test_unary_chain(self):
        e = parse_expr("--x")
        assert isinstance(e, ast.IncDec) and e.is_prefix
        e2 = parse_expr("-(-x)")
        assert isinstance(e2, ast.Unary) and isinstance(e2.operand, ast.Unary)

    def test_postfix_incdec(self):
        e = parse_expr("x++")
        assert isinstance(e, ast.IncDec) and not e.is_prefix and e.is_increment

    def test_assignment_right_associative(self):
        e = parse_expr("a = b = 1")
        assert isinstance(e, ast.Assign)
        assert isinstance(e.value, ast.Assign)

    def test_compound_assignment(self):
        e = parse_expr("a += 2")
        assert isinstance(e, ast.Assign) and e.op is ast.BinaryOp.ADD

    def test_ternary(self):
        e = parse_expr("a ? 1 : b ? 2 : 3")
        assert isinstance(e, ast.Ternary)
        assert isinstance(e.otherwise, ast.Ternary)  # right-associative

    def test_call_with_args(self):
        e = parse_expr("f(1, x, g())")
        assert isinstance(e, ast.Call) and len(e.args) == 3
        assert isinstance(e.args[2], ast.Call)

    def test_array_index_chain(self):
        e = parse_expr("a[i]")
        assert isinstance(e, ast.ArrayIndex)

    def test_shift_precedence(self):
        e = parse_expr("1 << 2 + 3")
        assert e.op is ast.BinaryOp.SHL
        assert e.rhs.op is ast.BinaryOp.ADD

    def test_bitwise_precedence_chain(self):
        # | lower than ^ lower than &
        e = parse_expr("a | b ^ c & d")
        assert e.op is ast.BinaryOp.BITOR
        assert e.rhs.op is ast.BinaryOp.BITXOR
        assert e.rhs.rhs.op is ast.BinaryOp.BITAND


class TestErrors:
    def test_missing_semicolon(self):
        with pytest.raises(CompileError):
            parse_source("t.mc", "int main() { return 1 }")

    def test_error_recovery_reports_multiple(self):
        try:
            parse_source("t.mc", "int f() { return @; }\nint g() { return #; }")
        except CompileError as exc:
            assert len(exc.diagnostics) >= 2
        else:
            pytest.fail("expected CompileError")

    def test_unclosed_brace(self):
        with pytest.raises(CompileError):
            parse_source("t.mc", "int main() { return 1;")

    def test_const_function_rejected(self):
        with pytest.raises(CompileError):
            parse_source("t.mc", "const int f() { return 1; }")

    def test_garbage_top_level(self):
        with pytest.raises(CompileError):
            parse_source("t.mc", "$$$")

    def test_bool_array_rejected(self):
        with pytest.raises(CompileError, match="element type"):
            parse_source("t.mc", "int main() { bool a[4]; return 0; }")

    def test_bool_global_array_rejected(self):
        with pytest.raises(CompileError, match="element type"):
            parse_source("t.mc", "bool flags[4];")

    def test_bool_array_param_rejected(self):
        with pytest.raises(CompileError, match="element type"):
            parse_source("t.mc", "int f(bool a[]) { return 0; }")

    def test_extern_bool_array_rejected(self):
        with pytest.raises(CompileError, match="element type"):
            parse_source("t.mc", "extern bool a[4];")
