"""Helpers shared by pass tests."""

from __future__ import annotations

from repro.ir import Module, fingerprint_function, print_module, verify_module
from repro.passes.base import FunctionPass, ModulePass
from repro.vm.interp import run_module
from tests.conftest import lower


def run_pass(pass_obj: FunctionPass, module: Module, fn_name: str):
    """Run a function pass on one function; verify; return its stats."""
    fn = module.functions[fn_name]
    stats = pass_obj.run_on_function(fn, module)
    verify_module(module)
    return stats


def run_pass_all(pass_obj, module: Module):
    """Run a pass (function or module) over the whole module; verify."""
    if isinstance(pass_obj, ModulePass):
        stats = pass_obj.run_on_module(module)
        verify_module(module)
        return stats
    total = None
    for fn in module.defined_functions():
        stats = pass_obj.run_on_function(fn, module)
        if total is None:
            total = stats
        else:
            total.merge(stats)
    verify_module(module)
    return total


def check_behaviour_preserved(src: str, passes, headers=None, input_values=None):
    """Lower, snapshot behaviour, run passes, compare behaviour.

    Returns (module, reference_result, optimized_result).
    """
    before = lower(src, headers)
    reference = run_module(before, input_values=list(input_values or []))

    module = lower(src, headers)
    for p in passes:
        run_pass_all(p, module)
    after = run_module(module, input_values=list(input_values or []))
    assert after.same_behaviour(reference), (
        f"behaviour changed: {reference.output}/{reference.exit_code}"
        f"/{reference.trap_message} -> {after.output}/{after.exit_code}/{after.trap_message}"
        f"\n{print_module(module)}"
    )
    return module, reference, after


def check_dormancy_contract(pass_obj, module: Module) -> None:
    """A pass reporting changed=False must leave fingerprints untouched;

    and re-running any pass immediately must be dormant (idempotence at
    the fixpoint is what dormancy records rely on)."""
    for fn in module.defined_functions():
        before = fingerprint_function(fn)
        stats = pass_obj.run_on_function(fn, module)
        after = fingerprint_function(fn)
        if not stats.changed:
            assert before == after, f"{pass_obj.name} mutated {fn.name} but reported dormant"
        # Second run on the (possibly transformed) IR must be dormant.
        again = pass_obj.run_on_function(fn, module)
        final = fingerprint_function(fn)
        assert not again.changed, f"{pass_obj.name} is not idempotent on {fn.name}"
        assert final == after, f"{pass_obj.name} mutated {fn.name} on dormant re-run"
