"""Function attribute inference (purity analysis).

A module pass computing which defined functions are **pure**: they
neither write memory nor perform I/O, and they provably terminate
(conservatively: no loops anywhere in their call-closure).  DCE may
delete unused calls to pure functions; GVN may value-number repeated
calls with identical arguments.

Results are stored on the module (``module.pure_functions``) so later
function passes can query them without recomputation.
"""

from __future__ import annotations

from repro.analysis.callgraph import CallGraph
from repro.analysis.dominators import DominatorTree
from repro.ir.instructions import LoadInst, Opcode, StoreInst
from repro.ir.structure import Function, Module
from repro.passes.base import ModulePass, PassStats

_ATTR_FIELD = "pure_functions"


def get_pure_functions(module: Module) -> frozenset[str]:
    """Pure-function set previously computed by FunctionAttrsPass."""
    return getattr(module, _ATTR_FIELD, frozenset())


def _has_loop(fn: Function) -> bool:
    domtree = DominatorTree.compute(fn)
    for block in fn.blocks:
        for succ in block.successors():
            if domtree.dominates_block(succ, block):
                return True
    return False


def _local_memory(fn: Function) -> set:
    """Pointer values provably private to this call: allocas and geps

    rooted at them."""
    from repro.ir.instructions import AllocaInst, GepInst

    private: set = set()
    changed = True
    while changed:
        changed = False
        for inst in fn.instructions():
            if inst in private:
                continue
            if isinstance(inst, AllocaInst):
                private.add(inst)
                changed = True
            elif isinstance(inst, GepInst) and inst.base in private:
                private.add(inst)
                changed = True
    return private


def _locally_pure(fn: Function) -> bool:
    """No externally visible memory access, no traps, no loops.

    Loads/stores touching the function's *own* allocas (directly or
    through geps) are invisible to callers and allowed; anything through
    a global or pointer argument is not.  Calls are checked separately
    by the interprocedural fixpoint.
    """
    private = _local_memory(fn)
    for inst in fn.instructions():
        if isinstance(inst, StoreInst) and inst.ptr not in private:
            return False
        if isinstance(inst, LoadInst) and inst.ptr not in private:
            return False
        if inst.opcode is Opcode.UNREACHABLE:
            return False
        if inst.opcode is Opcode.SDIV or inst.opcode is Opcode.SREM:
            # May trap at runtime; removing the call would hide the trap.
            return False
    return not _has_loop(fn)


class FunctionAttrsPass(ModulePass):
    """Compute the pure-function set for a module."""

    name = "funcattrs"

    def run_on_module(self, module: Module) -> PassStats:
        stats = PassStats(work=module.num_instructions)
        graph = CallGraph.build(module)
        candidates = {
            fn.name for fn in module.defined_functions() if _locally_pure(fn)
        }
        # Iterate: a function stays pure only if all callees are pure.
        changed = True
        while changed:
            changed = False
            for name in list(candidates):
                if any(c not in candidates for c in graph.callees.get(name, ())):
                    candidates.discard(name)
                    changed = True
        new_attrs = frozenset(candidates)
        old_attrs = get_pure_functions(module)
        if new_attrs != old_attrs:
            stats.changed = True
        setattr(module, _ATTR_FIELD, new_attrs)
        stats.bump("pure_functions", len(new_attrs))
        return stats
