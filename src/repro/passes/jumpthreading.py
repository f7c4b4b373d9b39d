"""Jump threading (the classic phi-of-constants case).

Pattern: a block ``B`` whose conditional branch tests a comparison of a
``B``-local phi against a constant.  For a predecessor ``P`` whose
incoming phi value is a constant, ``B``'s branch direction is already
decided when arriving from ``P`` — so ``P`` can jump straight to the
decided target, skipping ``B``.

Soundness constraints enforced here:

- ``B`` contains only phis, the comparison, and the branch (no side
  effects or other values that later code might need along the
  threaded edge);
- the decided target's phis get the values they would have received
  via ``B`` (constants or ``B``-phi inputs available at ``P``);
- the edge ``P -> target`` must not already exist when the target has
  phis (that would need edge duplication, which this IR does not
  model).

Analysis runs on every block every time; threads fire rarely after the
first build — an expensive, usually-dormant pass by design, like its
LLVM counterpart on canonicalized IR.
"""

from __future__ import annotations

from repro.ir.instructions import (
    CBrInst,
    ICmpInst,
    Instruction,
    PhiInst,
    eval_icmp,
)
from repro.ir.structure import BasicBlock, Function, Module
from repro.ir.values import ConstantInt
from repro.passes.base import FunctionPass, PassStats
from repro.passes.utils import remove_unreachable_blocks


class JumpThreadingPass(FunctionPass):
    """Thread provably-decided edges around phi-tested branches."""

    name = "jumpthreading"

    def run_on_function(self, fn: Function, module: Module) -> PassStats:
        stats = PassStats()
        changed = True
        while changed:
            changed = False
            preds_map = fn.predecessors()
            for block in list(fn.blocks):
                stats.work += len(block)
                if self._thread_block(fn, block, preds_map, stats):
                    changed = True
                    break  # CFG changed; recompute predecessors
        if stats.changed:
            remove_unreachable_blocks(fn)
        return stats

    def _thread_block(
        self,
        fn: Function,
        block: BasicBlock,
        preds_map: dict[BasicBlock, list[BasicBlock]],
        stats: PassStats,
    ) -> bool:
        shape = self._match(block)
        if shape is None:
            return False
        phi, cmp_inst, const, phi_is_lhs, term = shape

        for pred in list(preds_map.get(block, [])):
            incoming = phi.incoming_for(pred)
            if not isinstance(incoming, ConstantInt):
                continue
            lhs = incoming.value if phi_is_lhs else const.value
            rhs = const.value if phi_is_lhs else incoming.value
            target = term.if_true if eval_icmp(cmp_inst.pred, lhs, rhs) else term.if_false
            if target is block:
                continue
            if not self._edge_retarget_ok(fn, pred, block, target):
                continue
            self._retarget(pred, block, target, phi, incoming)
            stats.bump("threaded_edges")
            stats.changed = True
            return True
        return False

    @staticmethod
    def _match(block: BasicBlock):
        """Match: phis*, one icmp(phi, const), cbr(icmp).  Returns parts."""
        term = block.terminator
        if not isinstance(term, CBrInst):
            return None
        cond = term.cond
        if not isinstance(cond, ICmpInst) or cond.parent is not block:
            return None
        phis = block.phis
        # Block body must be exactly phis + icmp + cbr.
        if len(block.instructions) != len(phis) + 2:
            return None
        phi_is_lhs: bool
        if isinstance(cond.lhs, PhiInst) and cond.lhs.parent is block and isinstance(
            cond.rhs, ConstantInt
        ):
            phi, const, phi_is_lhs = cond.lhs, cond.rhs, True
        elif isinstance(cond.rhs, PhiInst) and cond.rhs.parent is block and isinstance(
            cond.lhs, ConstantInt
        ):
            phi, const, phi_is_lhs = cond.rhs, cond.lhs, False
        else:
            return None
        # The icmp must not be needed elsewhere (it will not exist on the
        # threaded path), and neither may the other phis of the block.
        if any(u.user is not term for u in cond.uses):
            return None
        for other in phis:
            if other is phi:
                continue
            if any(u.user.parent is not block for u in other.uses):
                return None
        if any(u.user not in (cond,) and u.user.parent is not block for u in phi.uses):
            return None
        return phi, cond, const, phi_is_lhs, term

    @staticmethod
    def _edge_retarget_ok(
        fn: Function, pred: BasicBlock, block: BasicBlock, target: BasicBlock
    ) -> bool:
        # Target phis can only take values that are valid on the new edge:
        # constants or values dominating pred.  We accept the easy, common
        # cases — values not defined in `block`.
        target_preds = fn.predecessors()[target]
        if pred in target_preds and target.phis:
            return False  # duplicate edge with phis: unsupported
        for phi in target.phis:
            via_block = phi.incoming_for(block)
            if via_block is None:
                return False
            if isinstance(via_block, Instruction) and via_block.parent is block:
                # Value created in the skipped block; only the tested phi's
                # constant is recoverable, handled by callers rarely — bail.
                return False
        return True

    @staticmethod
    def _retarget(
        pred: BasicBlock,
        block: BasicBlock,
        target: BasicBlock,
        phi: PhiInst,
        incoming: ConstantInt,
    ) -> None:
        term = pred.terminator
        assert term is not None
        term.replace_successor(block, target)  # type: ignore[attr-defined]
        for block_phi in block.phis:
            block_phi.remove_incoming(pred)
        for target_phi in target.phis:
            value = target_phi.incoming_for(block)
            assert value is not None and not (
                isinstance(value, Instruction) and value.parent is block
            )
            target_phi.add_incoming(value, pred)
