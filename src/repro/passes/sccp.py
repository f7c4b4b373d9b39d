"""Sparse conditional constant propagation (Wegman–Zadeck).

Tracks a three-level lattice per SSA value (undefined → constant →
overdefined) while simultaneously tracking which CFG edges can execute,
so constants propagate through branches that are provably one-sided —
strictly stronger than iterating constant folding and CFG folding.

After the fixpoint: constant values are substituted, conditional
branches whose condition folded become unconditional, and unreachable
blocks are deleted.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.ir.instructions import (
    BinaryInst,
    BrInst,
    CBrInst,
    EvalTrap,
    ICmpInst,
    Instruction,
    PhiInst,
    SelectInst,
    TruncInst,
    ZExtInst,
    eval_binary,
    eval_icmp,
)
from repro.ir.structure import BasicBlock, Function, Module
from repro.ir.types import I1
from repro.ir.values import Argument, ConstantInt, UndefValue, Value, const_i1, const_i64
from repro.passes.base import FunctionPass, PassStats
from repro.passes.utils import remove_unreachable_blocks

_TOP = "top"          # no information yet (undefined)
_BOTTOM = "bottom"    # overdefined


@dataclass
class _Lattice:
    """Per-value lattice cell: _TOP, an int constant, or _BOTTOM."""

    state: object = _TOP

    @property
    def is_const(self) -> bool:
        return self.state not in (_TOP, _BOTTOM)


class SCCPPass(FunctionPass):
    """Sparse conditional constant propagation."""

    name = "sccp"

    def run_on_function(self, fn: Function, module: Module) -> PassStats:
        stats = PassStats()
        solver = _Solver(fn)
        solver.solve()
        stats.work = solver.work

        changed = self._rewrite(fn, solver, stats)
        if changed:
            removed = remove_unreachable_blocks(fn)
            if removed:
                stats.bump("unreachable_removed", removed)
            stats.changed = True
        return stats

    def _rewrite(self, fn: Function, solver: "_Solver", stats: PassStats) -> bool:
        changed = False
        # Substitute constants everywhere first, then fold branches, so a
        # branch condition defined in a later-laid-out block still folds.
        for block in fn.blocks:
            if block not in solver.executable_blocks:
                continue
            for inst in list(block.instructions):
                if inst.ty.is_void or inst.parent is None:
                    continue
                cell = solver.values.get(inst)
                if cell is None or not cell.is_const:
                    continue
                const = (
                    const_i1(int(cell.state))
                    if inst.ty is I1
                    else const_i64(int(cell.state))
                )
                inst.replace_with_value(const)
                stats.bump("constants_substituted")
                changed = True
        for block in fn.blocks:
            if block not in solver.executable_blocks:
                continue
            term = block.terminator
            if isinstance(term, CBrInst) and isinstance(term.cond, ConstantInt):
                target = term.if_true if term.cond.value else term.if_false
                dead = term.if_false if term.cond.value else term.if_true
                if dead is not target:
                    for phi in dead.phis:
                        phi.remove_incoming(block)
                term.erase()
                block.append(BrInst(target))
                stats.bump("branches_folded")
                changed = True
        return changed


class _Solver:
    """The SCCP fixpoint engine."""

    def __init__(self, fn: Function):
        self.fn = fn
        self.values: dict[Value, _Lattice] = {}
        self.executable_edges: set[tuple[BasicBlock, BasicBlock]] = set()
        self.executable_blocks: set[BasicBlock] = set()
        self.cfg_worklist: list[tuple[BasicBlock | None, BasicBlock]] = []
        self.ssa_worklist: list[Instruction] = []
        self.work = 0

    # -- lattice helpers ----------------------------------------------------

    def _cell(self, value: Value) -> _Lattice:
        cell = self.values.get(value)
        if cell is None:
            if isinstance(value, ConstantInt):
                cell = _Lattice(value.value)
            elif isinstance(value, UndefValue):
                cell = _Lattice(_TOP)
            elif isinstance(value, Argument):
                cell = _Lattice(_BOTTOM)
            elif isinstance(value, Instruction):
                cell = _Lattice(_TOP)
            else:  # GlobalAddr and anything address-like
                cell = _Lattice(_BOTTOM)
            self.values[value] = cell
        return cell

    def _mark(self, inst: Instruction, new_state: object) -> None:
        cell = self._cell(inst)
        if cell.state == new_state or cell.state == _BOTTOM:
            return
        if cell.state != _TOP and new_state != cell.state:
            new_state = _BOTTOM
        cell.state = new_state
        for use in inst.uses:
            self.ssa_worklist.append(use.user)

    def _mark_edge(self, pred: BasicBlock, succ: BasicBlock) -> None:
        if (pred, succ) in self.executable_edges:
            return
        self.executable_edges.add((pred, succ))
        self.cfg_worklist.append((pred, succ))

    # -- main loop ------------------------------------------------------------

    def solve(self) -> None:
        self.cfg_worklist.append((None, self.fn.entry))
        while self.cfg_worklist or self.ssa_worklist:
            if self.cfg_worklist:
                _, block = self.cfg_worklist.pop()
                first_visit = block not in self.executable_blocks
                self.executable_blocks.add(block)
                # (Re)visit phis always; the body only on first visit.
                for phi in block.phis:
                    self._visit(phi)
                if first_visit:
                    for inst in block.instructions[len(block.phis) :]:
                        self._visit(inst)
                continue
            inst = self.ssa_worklist.pop()
            if inst.parent is not None and inst.parent in self.executable_blocks:
                self._visit(inst)

    # -- transfer functions ------------------------------------------------------

    def _visit(self, inst: Instruction) -> None:
        self.work += 1
        if isinstance(inst, PhiInst):
            self._visit_phi(inst)
        elif isinstance(inst, BinaryInst):
            self._visit_binary(inst)
        elif isinstance(inst, ICmpInst):
            self._visit_icmp(inst)
        elif isinstance(inst, SelectInst):
            self._visit_select(inst)
        elif isinstance(inst, ZExtInst):
            self._visit_cast(inst, lambda v: 1 if v else 0)
        elif isinstance(inst, TruncInst):
            self._visit_cast(inst, lambda v: v & 1)
        elif isinstance(inst, CBrInst):
            self._visit_cbr(inst)
        elif isinstance(inst, BrInst):
            assert inst.parent is not None
            self._mark_edge(inst.parent, inst.target)
        elif not inst.ty.is_void:
            # Loads, calls, allocas, geps: unknowable here.
            self._mark(inst, _BOTTOM)

    def _visit_phi(self, phi: PhiInst) -> None:
        assert phi.parent is not None
        state: object = _TOP
        for value, pred in phi.incomings:
            if (pred, phi.parent) not in self.executable_edges:
                continue
            cell = self._cell(value)
            if cell.state == _TOP:
                continue
            if cell.state == _BOTTOM:
                state = _BOTTOM
                break
            if state == _TOP:
                state = cell.state
            elif state != cell.state:
                state = _BOTTOM
                break
        self._mark(phi, state)

    def _visit_binary(self, inst: BinaryInst) -> None:
        a, b = self._cell(inst.lhs), self._cell(inst.rhs)
        if a.state == _BOTTOM or b.state == _BOTTOM:
            self._mark(inst, _BOTTOM)
        elif a.is_const and b.is_const:
            try:
                self._mark(inst, eval_binary(inst.opcode, int(a.state), int(b.state)))
            except EvalTrap:
                self._mark(inst, _BOTTOM)  # keep the trap at runtime
        # else: at least one TOP -> stay TOP (optimistic)

    def _visit_icmp(self, inst: ICmpInst) -> None:
        a, b = self._cell(inst.lhs), self._cell(inst.rhs)
        if a.state == _BOTTOM or b.state == _BOTTOM:
            self._mark(inst, _BOTTOM)
        elif a.is_const and b.is_const:
            self._mark(inst, 1 if eval_icmp(inst.pred, int(a.state), int(b.state)) else 0)

    def _visit_select(self, inst: SelectInst) -> None:
        cond = self._cell(inst.cond)
        if cond.is_const:
            chosen = self._cell(inst.if_true if int(cond.state) else inst.if_false)
            if chosen.state != _TOP:
                self._mark(inst, chosen.state)
            return
        if cond.state == _BOTTOM:
            t, f = self._cell(inst.if_true), self._cell(inst.if_false)
            if t.is_const and f.is_const and t.state == f.state:
                self._mark(inst, t.state)
            elif t.state == _TOP or f.state == _TOP:
                pass  # stay optimistic
            else:
                self._mark(inst, _BOTTOM)

    def _visit_cast(self, inst: Instruction, fold) -> None:
        cell = self._cell(inst.operands[0])
        if cell.state == _BOTTOM:
            self._mark(inst, _BOTTOM)
        elif cell.is_const:
            self._mark(inst, fold(int(cell.state)))

    def _visit_cbr(self, inst: CBrInst) -> None:
        assert inst.parent is not None
        cond = self._cell(inst.cond)
        if cond.is_const:
            target = inst.if_true if int(cond.state) else inst.if_false
            self._mark_edge(inst.parent, target)
        elif cond.state == _BOTTOM:
            self._mark_edge(inst.parent, inst.if_true)
            self._mark_edge(inst.parent, inst.if_false)
        # TOP condition: no edges executable yet.
