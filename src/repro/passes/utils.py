"""Shared transformation utilities used by several passes."""

from __future__ import annotations

from repro.analysis.cfg import reachable_blocks
from repro.ir.instructions import PhiInst
from repro.ir.structure import Function
from repro.ir.values import UndefValue, Value


def remove_unreachable_blocks(fn: Function) -> int:
    """Delete blocks not reachable from the entry; returns #removed.

    Phi edges arriving from removed blocks are dropped.  Values defined
    in removed blocks cannot be used from reachable code in well-formed
    IR (no dominance), so removal is safe.
    """
    reachable = reachable_blocks(fn)
    dead = [b for b in fn.blocks if b not in reachable]
    if not dead:
        return 0
    dead_set = set(dead)
    for block in reachable:
        for phi in block.phis:
            for pred in list(phi.incoming_blocks):
                if pred in dead_set:
                    phi.remove_incoming(pred)
    for block in dead:
        fn.remove_block(block)
    return len(dead)


def single_value_phi(phi: PhiInst) -> Value | None:
    """If all incomings are the same value (or the phi itself / undef),

    return that value; else None."""
    unique: Value | None = None
    for value, _ in phi.incomings:
        if value is phi or isinstance(value, UndefValue):
            continue
        if unique is None:
            unique = value
        elif not _same(unique, value):
            return None
    return unique


def _same(a: Value, b: Value) -> bool:
    from repro.ir.values import values_equal

    return values_equal(a, b)
