"""Cross-cutting robustness tests: limits, bad inputs, broken passes."""

import pytest

from repro.driver import Compiler, CompilerOptions
from repro.frontend.includes import DiskFileProvider, MemoryFileProvider
from repro.ir import VerifyError
from repro.passes.base import FunctionPass, PassStats
from repro.passmanager import PassManager, build_pipeline
from tests.conftest import execute, lower


class TestParserLimits:
    def test_deeply_nested_parens(self):
        depth = 200
        expr = "(" * depth + "1" + ")" * depth
        result = execute(f"int main() {{ return {expr}; }}")
        assert result.exit_code == 1

    def test_long_operator_chain(self):
        chain = " + ".join(["1"] * 500)
        result = execute(f"int main() {{ return {chain}; }}")
        assert result.exit_code == 500

    def test_many_functions(self):
        decls = "\n".join(f"int f{i}(int x) {{ return x + {i}; }}" for i in range(120))
        calls = " + ".join(f"f{i}(0)" for i in range(120))
        result = execute(f"{decls}\nint main() {{ return ({calls}) % 97; }}")
        assert result.exit_code == sum(range(120)) % 97

    def test_many_parameters_through_backend(self):
        n = 24  # more than the 16 physical registers
        params = ", ".join(f"int p{i}" for i in range(n))
        total = " + ".join(f"p{i}" for i in range(n))
        args = ", ".join(str(i) for i in range(n))
        src = f"int f({params}) {{ return {total}; }}\nint main() {{ return f({args}) % 100; }}"
        from repro.backend.linker import link
        from repro.backend.objfile import compile_module_to_object
        from repro.vm.machine import VirtualMachine

        image = link([compile_module_to_object(lower(src))])
        assert VirtualMachine(image).run().exit_code == sum(range(n)) % 100


class TestVerifierCatchesBrokenPasses:
    class _BreakerPass(FunctionPass):
        """Deliberately corrupts the IR (drops a terminator)."""

        name = "breaker"

        def run_on_function(self, fn, module):
            for block in fn.blocks:
                term = block.terminator
                if term is not None:
                    block.remove(term)
                    term.drop_all_references()
                    break
            return PassStats(changed=True)

    def test_verify_each_raises(self):
        module = lower("int main() { return 0; }")
        pipeline = build_pipeline("O0")
        pipeline.function_passes.append(self._BreakerPass())
        manager = PassManager(pipeline, verify_each=True)
        with pytest.raises(VerifyError):
            manager.run(module)


class TestProviders:
    def test_disk_provider(self, tmp_path):
        (tmp_path / "h.mh").write_text("const int N = 3;")
        provider = DiskFileProvider(tmp_path)
        assert provider.exists("h.mh")
        assert not provider.exists("missing.mh")
        assert "N = 3" in provider.read("h.mh")

    def test_memory_provider_missing_file(self):
        provider = MemoryFileProvider({})
        with pytest.raises(FileNotFoundError):
            provider.read("ghost.mc")

    def test_disk_compile_end_to_end(self, tmp_path):
        (tmp_path / "lib.mh").write_text("int inc(int x);\n")
        (tmp_path / "main.mc").write_text(
            'include "lib.mh";\nint inc(int x) { return x + 1; }\n'
            "int main() { return inc(41); }\n"
        )
        compiler = Compiler(DiskFileProvider(tmp_path), CompilerOptions())
        result = compiler.compile_file("main.mc")
        assert result.headers == ["lib.mh"]


class TestNumericEdgeCases:
    def test_int64_min_behaviour(self):
        src = """
        int main() {
          int min = 1 << 63;
          print(min);
          print(min - 1);
          print(0 - min);
          return 0;
        }
        """
        result = execute(src)
        assert result.output == [-(2**63), 2**63 - 1, -(2**63)]

    def test_int64_min_division_wraps(self):
        # INT64_MIN / -1 overflows; two's-complement wrap gives INT64_MIN.
        src = "int main() { int min = 1 << 63; int m1 = 0 - 1; print(min / m1); return 0; }"
        result = execute(src)
        assert result.output == [-(2**63)]

    def test_shift_by_negative_masks(self):
        src = "int main() { int n = 0 - 1; return 1 << (n & 63); }"
        result = execute(src)
        assert result.exit_code == -(2**63)  # 1 << 63 wraps negative

    def test_machine_vm_agrees_on_edges(self):
        from repro.backend.linker import link
        from repro.backend.objfile import compile_module_to_object
        from repro.vm.interp import run_module
        from repro.vm.machine import VirtualMachine

        src = """
        int main() {
          int min = 1 << 63;
          print(min * 3);
          print(min % 7);
          print((min >> 13) & 1023);
          return 0;
        }
        """
        interp = run_module(lower(src))
        machine = VirtualMachine(link([compile_module_to_object(lower(src))])).run()
        assert machine.same_behaviour(interp)
