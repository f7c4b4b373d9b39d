"""Loop-invariant code motion.

For each natural loop (outermost first): ensure a dedicated preheader,
then hoist instructions whose operands are all defined outside the loop
(or already hoisted):

- pure arithmetic/comparisons/selects/casts/geps always qualify;
- loads qualify only when the loop body contains no stores and no
  calls (sound, conservative memory check);
- speculation safety: ``sdiv``/``srem`` with a possibly-zero divisor
  are *not* hoisted (the loop may execute zero times and the original
  program would not have trapped).
"""

from __future__ import annotations

from repro.analysis.loops import Loop, find_natural_loops
from repro.ir.instructions import (
    BrInst,
    CallInst,
    Instruction,
    LoadInst,
    Opcode,
    PhiInst,
    StoreInst,
)
from repro.ir.structure import BasicBlock, Function, Module
from repro.ir.values import ConstantInt, Value
from repro.passes.base import FunctionPass, PassStats


def ensure_preheader(fn: Function, loop: Loop) -> BasicBlock | None:
    """Return the loop's preheader, creating one if necessary.

    The preheader is the unique block outside the loop that branches to
    the header, and it must branch *only* to the header.  Returns None
    when the header is the function entry (no outside edge to split —
    cannot happen for loops produced by our lowering).
    """
    preds = fn.predecessors()[loop.header]
    outside = [p for p in preds if p not in loop.blocks]
    if not outside:
        return None
    if len(outside) == 1:
        term = outside[0].terminator
        if isinstance(term, BrInst):
            return outside[0]
    # Create a fresh preheader and funnel all outside edges through it.
    pre = fn.add_block(fn.next_name(f"{loop.header.name}.pre"))
    # Move phi entries for outside preds into new phis in the preheader.
    for phi in loop.header.phis:
        outside_pairs = [
            (value, pred) for value, pred in phi.incomings if pred in outside
        ]
        if len(outside_pairs) == 1:
            value = outside_pairs[0][0]
        else:
            pre_phi = PhiInst(phi.ty, fn.next_name("pre"))
            pre.append(pre_phi)
            for value, pred in outside_pairs:
                pre_phi.add_incoming(value, pred)
            value = pre_phi
        for _, pred in outside_pairs:
            phi.remove_incoming(pred)
        phi.add_incoming(value, pre)
    pre.append(BrInst(loop.header))
    for pred in outside:
        term = pred.terminator
        assert term is not None
        term.replace_successor(loop.header, pre)  # type: ignore[attr-defined]
    # Keep layout: place the preheader just before the header.
    fn.blocks.remove(pre)
    fn.blocks.insert(fn.blocks.index(loop.header), pre)
    return pre


def _loop_has_memory_effects(loop: Loop) -> bool:
    for block in loop.blocks:
        for inst in block.instructions:
            if isinstance(inst, (StoreInst, CallInst)):
                return True
    return False


def _nonzero_constant(value: Value) -> bool:
    return isinstance(value, ConstantInt) and value.value != 0


class LICMPass(FunctionPass):
    """Hoist loop-invariant computations into preheaders."""

    name = "licm"

    def run_on_function(self, fn: Function, module: Module) -> PassStats:
        stats = PassStats()
        loops = find_natural_loops(fn)  # outermost first (by size)
        for loop in loops:
            self._process_loop(fn, loop, stats)
        return stats

    def _process_loop(self, fn: Function, loop: Loop, stats: PassStats) -> None:
        memory_unsafe = _loop_has_memory_effects(loop)
        invariant: set[Value] = set()

        def is_invariant_operand(value: Value) -> bool:
            if value in invariant:
                return True
            if isinstance(value, Instruction):
                return value.parent not in loop.blocks
            return True  # constants, globals, arguments, undef

        preheader: BasicBlock | None = None
        changed = True
        while changed:
            changed = False
            # Iterate in layout order: loop.blocks is a set, whose id-based
            # iteration order would make hoist order (and thus the output
            # IR) vary between runs.
            for block in [b for b in fn.blocks if b in loop.blocks]:
                for inst in list(block.instructions):
                    stats.work += 1
                    if not self._hoistable(inst, memory_unsafe):
                        continue
                    if not all(is_invariant_operand(op) for op in inst.operands):
                        continue
                    if preheader is None:
                        preheader = ensure_preheader(fn, loop)
                        if preheader is None:
                            return
                    self._hoist(inst, preheader)
                    invariant.add(inst)
                    stats.bump("hoisted")
                    stats.changed = True
                    changed = True

    @staticmethod
    def _hoistable(inst: Instruction, memory_unsafe: bool) -> bool:
        if isinstance(inst, LoadInst):
            # Besides the no-writes-in-loop condition, the load must be
            # safe to *speculate* (the loop may run zero iterations): only
            # direct global/alloca addresses are known in-bounds.
            from repro.ir.instructions import AllocaInst
            from repro.ir.values import GlobalAddr

            safe_addr = isinstance(inst.ptr, (GlobalAddr, AllocaInst))
            return not memory_unsafe and safe_addr
        if not inst.is_pure:
            return False
        if inst.opcode in (Opcode.SDIV, Opcode.SREM):
            # Hoisting may execute a trap the original skipped.
            return _nonzero_constant(inst.operands[1])
        return True

    @staticmethod
    def _hoist(inst: Instruction, preheader: BasicBlock) -> None:
        block = inst.parent
        assert block is not None
        block.remove(inst)
        term = preheader.terminator
        assert term is not None
        preheader.insert_before(term, inst)
