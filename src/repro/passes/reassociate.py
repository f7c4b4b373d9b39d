"""Reassociation of commutative constant chains.

Rewrites ``(x + c1) + c2`` into ``x + (c1 op c2)`` for the associative
commutative operations (``add``, ``mul``, ``and``, ``or``, ``xor``),
exposing constants to folding that instsimplify's purely local rules
miss.  The inner node must have no other users (otherwise the rewrite
duplicates work rather than saving it).

After one pipeline has canonicalized a function, re-runs find nothing —
another analysis pass that is usually dormant on incremental rebuilds.
"""

from __future__ import annotations

from repro.ir.instructions import (
    BinaryInst,
    EvalTrap,
    eval_binary,
    COMMUTATIVE_OPCODES,
)
from repro.ir.structure import Function, Module
from repro.ir.values import ConstantInt, const_i64
from repro.passes.base import FunctionPass, PassStats


class ReassociatePass(FunctionPass):
    """Pull constants together across associative chains."""

    name = "reassociate"

    def run_on_function(self, fn: Function, module: Module) -> PassStats:
        stats = PassStats()
        changed = True
        while changed:
            changed = False
            for block in fn.blocks:
                for inst in list(block.instructions):
                    stats.work += 1
                    if self._reassociate(inst, stats):
                        changed = True
                        stats.changed = True
        return stats

    @staticmethod
    def _reassociate(inst, stats: PassStats) -> bool:
        if not isinstance(inst, BinaryInst) or inst.opcode not in COMMUTATIVE_OPCODES:
            return False
        # Canonical form after instsimplify: constants on the rhs.
        outer_const = inst.rhs
        inner = inst.lhs
        if not isinstance(outer_const, ConstantInt):
            return False
        if not isinstance(inner, BinaryInst) or inner.opcode is not inst.opcode:
            return False
        inner_const = inner.rhs
        if not isinstance(inner_const, ConstantInt):
            return False
        if len(inner.uses) != 1:
            return False
        try:
            merged = eval_binary(inst.opcode, inner_const.value, outer_const.value)
        except EvalTrap:  # pragma: no cover - commutative ops never trap
            return False
        # (x op c1) op c2  ->  x op (c1 op c2)
        inst.set_operand(0, inner.lhs)
        inst.set_operand(1, const_i64(merged))
        inner.erase()
        stats.bump("chains_merged")
        return True
