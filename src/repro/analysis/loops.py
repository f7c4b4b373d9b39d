"""Natural-loop detection from back edges.

A back edge is an edge ``latch -> header`` where ``header`` dominates
``latch``.  The natural loop of that edge is the smallest block set
containing both and closed under predecessors (up to the header).
Used by LICM and loop unrolling.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.analysis.dominators import DominatorTree
from repro.ir.structure import BasicBlock, Function


@dataclass
class Loop:
    """One natural loop: its header and member blocks."""

    header: BasicBlock
    blocks: set[BasicBlock] = field(default_factory=set)
    #: Blocks inside the loop that branch back to the header.
    latches: list[BasicBlock] = field(default_factory=list)

    def contains(self, block: BasicBlock) -> bool:
        return block in self.blocks

    def exit_edges(self) -> list[tuple[BasicBlock, BasicBlock]]:
        """Edges leaving the loop: (inside block, outside successor)."""
        edges = []
        for block in self.blocks:
            for succ in block.successors():
                if succ not in self.blocks:
                    edges.append((block, succ))
        return edges

    @property
    def num_blocks(self) -> int:
        return len(self.blocks)

    def __repr__(self) -> str:
        return f"<Loop header=^{self.header.name} blocks={len(self.blocks)}>"


def find_natural_loops(fn: Function, domtree: DominatorTree | None = None) -> list[Loop]:
    """All natural loops, one per header (back edges to a header merge).

    Returned innermost-last: loops are sorted by block count descending,
    so iterating in order processes outer loops first.
    """
    domtree = domtree or DominatorTree.compute(fn)
    preds_all = fn.predecessors()
    loops_by_header: dict[BasicBlock, Loop] = {}

    for block in fn.blocks:
        if not domtree.is_reachable(block):
            continue
        for succ in block.successors():
            if domtree.dominates_block(succ, block):
                loop = loops_by_header.setdefault(succ, Loop(header=succ, blocks={succ}))
                loop.latches.append(block)
                # Walk predecessors backward from the latch to collect members.
                stack = [block]
                while stack:
                    node = stack.pop()
                    if node in loop.blocks:
                        continue
                    loop.blocks.add(node)
                    stack.extend(p for p in preds_all[node] if domtree.is_reachable(p))

    loops = list(loops_by_header.values())
    loops.sort(key=lambda loop: -len(loop.blocks))
    return loops


def loop_depths(fn: Function, loops: list[Loop] | None = None) -> dict[BasicBlock, int]:
    """Nesting depth of each block (0 = not in any loop)."""
    loops = loops if loops is not None else find_natural_loops(fn)
    depth: dict[BasicBlock, int] = {b: 0 for b in fn.blocks}
    for loop in loops:
        for block in loop.blocks:
            depth[block] += 1
    return depth
