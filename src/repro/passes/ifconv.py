"""If-conversion: small branchy diamonds become ``select``s.

Patterns handled (entry block ``A`` ending in ``cbr c, T, F``):

- **diamond** — ``T`` and ``F`` are distinct single-predecessor blocks
  that both branch unconditionally to a common merge ``M``;
- **triangle** — ``T`` is a single-predecessor block branching to
  ``M == F`` (or symmetrically).

When every instruction in the conditional block(s) is safe to
*speculate* (pure; no loads, calls, possible traps, or phis) and the
blocks are small, the instructions are hoisted into ``A``, each merge
phi becomes ``select c, v_true, v_false``, and the branch collapses —
removing branches the backend would otherwise emit and opening
straight-line CSE opportunities.
"""

from __future__ import annotations

from repro.ir.instructions import (
    BrInst,
    CBrInst,
    Opcode,
    SelectInst,
)
from repro.ir.structure import BasicBlock, Function, Module
from repro.ir.values import ConstantInt
from repro.passes.base import FunctionPass, PassStats
from repro.passes.utils import remove_unreachable_blocks


def _speculatable_block(block: BasicBlock, max_instructions: int) -> bool:
    """Only pure, non-trapping straight-line code may be hoisted."""
    if len(block.instructions) > max_instructions + 1:  # +1 for the br
        return False
    for inst in block.instructions[:-1]:
        if not inst.is_pure:
            return False
        if inst.opcode in (Opcode.SDIV, Opcode.SREM):
            if not (isinstance(inst.operands[1], ConstantInt) and inst.operands[1].value != 0):
                return False
    term = block.terminator
    return isinstance(term, BrInst)


class IfToSelectPass(FunctionPass):
    """Convert small conditional diamonds/triangles into selects."""

    name = "ifconv"

    def __init__(self, max_block_instructions: int = 4):
        self.max_block_instructions = max_block_instructions

    def run_on_function(self, fn: Function, module: Module) -> PassStats:
        stats = PassStats()
        changed = True
        while changed:
            changed = False
            preds = fn.predecessors()
            for block in list(fn.blocks):
                stats.work += len(block)
                if self._convert(fn, block, preds, stats):
                    changed = True
                    break  # CFG changed; recompute preds
        if stats.changed:
            remove_unreachable_blocks(fn)
        return stats

    def _convert(
        self,
        fn: Function,
        block: BasicBlock,
        preds: dict[BasicBlock, list[BasicBlock]],
        stats: PassStats,
    ) -> bool:
        term = block.terminator
        if not isinstance(term, CBrInst) or term.if_true is term.if_false:
            return False
        t, f = term.if_true, term.if_false

        def is_side(candidate: BasicBlock) -> bool:
            return (
                candidate is not block
                and len(preds.get(candidate, [])) == 1
                and not candidate.phis
                and _speculatable_block(candidate, self.max_block_instructions)
            )

        t_side = is_side(t)
        f_side = is_side(f)

        merge: BasicBlock | None = None
        if t_side and f_side:
            t_target = t.terminator.target  # type: ignore[union-attr]
            f_target = f.terminator.target  # type: ignore[union-attr]
            if t_target is f_target and t_target not in (t, f, block):
                merge = t_target
                sides = [t, f]
        if merge is None and t_side:
            t_target = t.terminator.target  # type: ignore[union-attr]
            if t_target is f and t_target is not block:
                merge = f
                sides = [t]
        if merge is None and f_side:
            f_target = f.terminator.target  # type: ignore[union-attr]
            if f_target is t and f_target is not block:
                merge = t
                sides = [f]
        if merge is None:
            return False
        # The merge's phis must be resolvable to edge values from the
        # sides and `block` only.
        incoming_blocks = set(sides) | ({block} if len(sides) == 1 else set())
        for phi in merge.phis:
            for source in incoming_blocks:
                if phi.incoming_for(source) is None:
                    return False

        # Hoist side instructions (minus terminators) into `block`.
        for side in sides:
            for inst in list(side.instructions[:-1]):
                side.remove(inst)
                block.insert_before(term, inst)

        # Rewrite merge phis into selects on the edges we collapse.
        cond = term.cond
        for phi in list(merge.phis):
            if len(sides) == 2:
                v_true = phi.incoming_for(sides[0])
                v_false = phi.incoming_for(sides[1])
            else:
                side = sides[0]
                v_side = phi.incoming_for(side)
                v_direct = phi.incoming_for(block)
                v_true = v_side if side is t else v_direct
                v_false = v_direct if side is t else v_side
            assert v_true is not None and v_false is not None
            select = SelectInst(cond, v_true, v_false, fn.next_name("ifc"))
            block.insert_before(term, select)
            for source in list(incoming_blocks):
                phi.remove_incoming(source)
            phi.add_incoming(select, block)
        # Collapse control flow: block branches straight to merge.
        term.erase()
        block.append(BrInst(merge))
        # Remaining phis in merge now have a single incoming from block
        # (if merge had no other preds); simplifycfg cleans that later.
        for phi in merge.phis:
            if len(phi.incoming_blocks) == 1:
                phi.replace_with_value(phi.operands[0])
        stats.bump("diamonds_converted" if len(sides) == 2 else "triangles_converted")
        stats.changed = True
        return True
