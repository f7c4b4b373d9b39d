"""Property-based pipeline tests.

The deepest invariants of the whole compiler, checked over randomly
generated (but deterministic, seed-driven) MiniC programs:

1. **Behaviour preservation** — O0/O1/O2 all produce programs with the
   observable behaviour of the unoptimized IR.
2. **Engine agreement** — the machine VM (full backend) agrees with the
   IR interpreter.
3. **Dormancy contract** — after the pipeline reaches its fixpoint,
   re-running every function pass reports changed=False and leaves
   fingerprints untouched (what stateful bypassing relies on).
4. **Determinism** — compiling the same source twice yields
   byte-identical IR and object files.
"""

from hypothesis import HealthCheck, given, settings, strategies as st

from repro.backend.linker import link
from repro.backend.objfile import compile_module_to_object
from repro.driver import Compiler, CompilerOptions
from repro.frontend.includes import IncludeResolver
from repro.frontend.sema import analyze
from repro.ir import fingerprint_function, print_module, verify_module
from repro.lowering import lower_program
from repro.passmanager import PassManager, build_pipeline
from repro.vm.interp import run_module
from repro.vm.machine import VirtualMachine
from repro.workload.generator import generate_project
from repro.workload.spec import make_spec

# Small projects keep each example fast; variety comes from many seeds.
_settings = settings(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


def project_for(seed: int):
    spec = make_spec(
        f"prop{seed}", num_modules=2, functions_per_module=3, seed=seed
    )
    return generate_project(spec)


def compile_at(project, level: str, verify_each: bool = False):
    compiler = Compiler(
        project.provider(), CompilerOptions(opt_level=level, verify_each=verify_each)
    )
    return [compiler.compile_file(p).module for p in project.unit_paths]


@_settings
@given(seed=st.integers(min_value=0, max_value=10_000))
def test_optimization_preserves_behaviour(seed):
    project = project_for(seed)
    reference = run_module(compile_at(project, "O0"))
    assert not reference.trapped, f"generated program traps: {reference.trap_message}"
    for level in ("O1", "O2"):
        optimized = run_module(compile_at(project, level))
        assert optimized.same_behaviour(reference), (
            f"seed {seed} {level}: {reference.output} -> {optimized.output} "
            f"({optimized.trap_message})"
        )


@_settings
@given(seed=st.integers(min_value=0, max_value=10_000))
def test_machine_vm_agrees_with_interpreter(seed):
    project = project_for(seed)
    modules = compile_at(project, "O2")
    interp_result = run_module(modules)
    image = link([compile_module_to_object(m) for m in modules])
    machine_result = VirtualMachine(image).run()
    assert machine_result.same_behaviour(interp_result), (
        f"seed {seed}: interp {interp_result.output}/{interp_result.exit_code} vs "
        f"machine {machine_result.output}/{machine_result.exit_code} "
        f"({machine_result.trap_message})"
    )


@_settings
@given(seed=st.integers(min_value=0, max_value=10_000))
def test_pipeline_fixpoint_dormancy(seed):
    """After one full O2 run, every function pass must be dormant."""
    project = project_for(seed)
    path = project.unit_paths[0]
    resolver = IncludeResolver(project.provider())
    unit = resolver.resolve(path, project.files[path])
    sema = analyze(unit.merged)
    module = lower_program(unit.merged, sema, path)
    pipeline = build_pipeline("O2")
    PassManager(pipeline).run(module)
    verify_module(module)

    for fn in module.defined_functions():
        for position, function_pass in enumerate(pipeline.function_passes):
            before = fingerprint_function(fn)
            stats = function_pass.run_on_function(fn, module)
            after = fingerprint_function(fn)
            if not stats.changed:
                assert before == after, (
                    f"seed {seed}: {function_pass.name}@{position} mutated "
                    f"{fn.name} while reporting dormant"
                )


@_settings
@given(seed=st.integers(min_value=0, max_value=10_000))
def test_compilation_is_deterministic(seed):
    project = project_for(seed)
    texts = []
    objects = []
    for _ in range(2):
        compiler = Compiler(project.provider(), CompilerOptions(opt_level="O2"))
        result = compiler.compile_file(project.unit_paths[-1])
        texts.append(print_module(result.module))
        objects.append(result.object_file.to_json())
    assert texts[0] == texts[1], f"seed {seed}: nondeterministic IR"
    assert objects[0] == objects[1], f"seed {seed}: nondeterministic object code"


@settings(max_examples=12, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(seed=st.integers(min_value=0, max_value=10_000))
def test_verifier_clean_after_every_pass(seed):
    """verify_each mode: the verifier accepts the IR after every single

    pass application on every function of a generated module."""
    project = project_for(seed)
    compiler = Compiler(
        project.provider(), CompilerOptions(opt_level="O2", verify_each=True)
    )
    for path in project.unit_paths:
        compiler.compile_file(path)
