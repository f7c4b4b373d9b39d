"""AST pretty-printer tests, including the parse∘print fixpoint property."""

from hypothesis import HealthCheck, given, settings, strategies as st

from repro.frontend.parser import parse_source
from repro.frontend.printer import format_source, print_expr
from repro.workload.generator import generate_project
from repro.workload.spec import make_spec


def roundtrip_stable(src: str) -> str:
    """Assert print∘parse is a fixpoint; returns the canonical text."""
    once = format_source(src)
    twice = format_source(once)
    assert once == twice, f"formatter not idempotent:\n{once}\n---\n{twice}"
    return once


class TestExpressions:
    def expr_text(self, expr_src: str) -> str:
        program, _ = parse_source("t.mc", f"int main() {{ return {expr_src}; }}")
        return print_expr(program.functions[0].body.stmts[0].value)

    def test_precedence_no_redundant_parens(self):
        assert self.expr_text("1 + 2 * 3") == "1 + 2 * 3"
        assert self.expr_text("(1 + 2) * 3") == "(1 + 2) * 3"

    def test_left_associative_subtraction(self):
        assert self.expr_text("1 - 2 - 3") == "1 - 2 - 3"
        assert self.expr_text("1 - (2 - 3)") == "1 - (2 - 3)"

    def test_ternary(self):
        assert self.expr_text("a ? 1 : b ? 2 : 3") == "a ? 1 : b ? 2 : 3"

    def test_logical_chain(self):
        assert self.expr_text("a && b || c") == "a && b || c"
        assert self.expr_text("a && (b || c)") == "a && (b || c)"

    def test_call_and_index(self):
        assert self.expr_text("f(x, g(y))[2]") == "f(x, g(y))[2]"

    def test_incdec(self):
        assert self.expr_text("x++") == "x++"
        assert self.expr_text("--x") == "--x"

    def test_assignment(self):
        assert self.expr_text("a = b = 1") == "a = b = 1"
        assert self.expr_text("a += 2") == "a += 2"


class TestStatements:
    def test_full_program_canonical(self):
        src = """
        include "h.mh";
        const int N = 4;
        extern int shared;
        int table[8];
        int f(int a, int b[]);
        int main() { if (N > 2) { print(N); } else print(0); return 0; }
        """
        canonical = roundtrip_stable(src)
        assert 'include "h.mh";' in canonical
        assert "const int N = 4;" in canonical
        assert "extern int shared;" in canonical
        assert "int table[8];" in canonical
        assert "int f(int a, int b[]);" in canonical

    def test_dangling_else_safe(self):
        # Canonical form braces everything, so the printed text parses
        # back with the same else-binding.
        src = "int f(bool a, bool b) { if (a) if (b) return 1; else return 2; return 3; }"
        canonical = roundtrip_stable(src)
        program, _ = parse_source("t.mc", canonical)
        inner_if = program.functions[0].body.stmts[0].then
        # strip the synthetic braces
        from repro.frontend import ast as A

        while isinstance(inner_if, A.Block):
            inner_if = inner_if.stmts[0]
        assert inner_if.otherwise is not None

    def test_loops(self):
        src = """
        int f(int n) {
          int s = 0;
          for (int i = 0; i < n; ++i) s += i;
          while (s > 10) s /= 2;
          do s++; while (s < 3);
          for (;;) break;
          return s;
        }
        """
        canonical = roundtrip_stable(src)
        assert "for (int i = 0; i < n; ++i)" in canonical
        assert "do" in canonical and "while (s < 3);" in canonical
        assert "for (; ; )" in canonical


class TestPropertyFixpoint:
    @settings(max_examples=25, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(seed=st.integers(min_value=0, max_value=2000))
    def test_generated_projects_format_idempotently(self, seed):
        spec = make_spec("fmt", num_modules=1, functions_per_module=3, seed=seed)
        project = generate_project(spec)
        for path, text in project.files.items():
            roundtrip_stable(text)

    @settings(max_examples=25, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(seed=st.integers(min_value=0, max_value=2000))
    def test_formatting_preserves_behaviour(self, seed):
        from repro.buildsys.incremental import IncrementalBuilder
        from repro.driver import CompilerOptions
        from repro.vm.machine import VirtualMachine
        from repro.workload.project import Project

        spec = make_spec("fmtb", num_modules=2, functions_per_module=2, seed=seed)
        project = generate_project(spec)
        formatted = Project(
            project.name, {p: format_source(t) for p, t in project.files.items()}
        )
        results = []
        for proj in (project, formatted):
            report = IncrementalBuilder(
                proj.provider(), proj.unit_paths, CompilerOptions(opt_level="O1")
            ).build()
            results.append(VirtualMachine(report.image).run())
        assert results[0].same_behaviour(results[1])
