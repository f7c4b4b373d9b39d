"""Dead store elimination.

Two sound, conservative forms:

1. **Block-local overwrite**: a store to address A followed later in
   the same block by another store to the *same* A, with no intervening
   load or call (which might read A), is dead.
2. **Never-read slots**: an ``alloca`` whose address is used only by
   stores (no loads, geps, or calls see it) is write-only; all its
   stores and the alloca itself are removed.  This catches dead local
   arrays left behind after other optimizations.
"""

from __future__ import annotations

from repro.ir.instructions import (
    AllocaInst,
    CallInst,
    LoadInst,
    StoreInst,
)
from repro.ir.structure import Function, Module
from repro.passes.base import FunctionPass, PassStats
from repro.passes.gvn import make_value_numbering


class DeadStoreEliminationPass(FunctionPass):
    """Remove stores whose values can never be observed."""

    name = "dse"

    def run_on_function(self, fn: Function, module: Module) -> PassStats:
        stats = PassStats()
        self._local_overwrites(fn, stats)
        self._write_only_slots(fn, stats)
        return stats

    def _local_overwrites(self, fn: Function, stats: PassStats) -> None:
        from repro.analysis.alias import AliasResult, may_alias
        from repro.passes.cse import LocalCSEPass, _call_may_access

        numbering = make_value_numbering(fn)
        addr_key = LocalCSEPass._addr_key
        for block in fn.blocks:
            #: semantic address key -> earlier store not yet observed
            pending: dict[tuple, StoreInst] = {}
            for inst in list(block.instructions):
                stats.work += 1
                if isinstance(inst, StoreInst):
                    key = addr_key(inst.ptr, numbering)
                    earlier = pending.get(key)
                    if earlier is not None:
                        earlier.erase()
                        stats.bump("overwritten_stores")
                        stats.changed = True
                    pending[key] = inst
                elif isinstance(inst, LoadInst):
                    # Only stores the load may observe stay protected.
                    for key, store in list(pending.items()):
                        if may_alias(store.ptr, inst.ptr) is not AliasResult.NO_ALIAS:
                            del pending[key]
                elif isinstance(inst, CallInst):
                    for key, store in list(pending.items()):
                        if _call_may_access(store.ptr):
                            del pending[key]

    def _write_only_slots(self, fn: Function, stats: PassStats) -> None:
        from repro.ir.instructions import GepInst

        for inst in list(fn.instructions()):
            if not isinstance(inst, AllocaInst) or inst.parent is None:
                continue
            stats.work += 1
            # Collect the address closure: the alloca plus geps over it.
            addresses = {inst}
            frontier = [inst]
            write_only = True
            stores: list[StoreInst] = []
            geps: list[GepInst] = []
            while frontier and write_only:
                addr = frontier.pop()
                for use in addr.uses:
                    user = use.user
                    if isinstance(user, StoreInst) and use.index == 1:
                        stores.append(user)
                    elif isinstance(user, GepInst) and use.index == 0:
                        if user not in addresses:
                            addresses.add(user)
                            geps.append(user)
                            frontier.append(user)
                    else:
                        write_only = False
                        break
            if not write_only or not stores:
                continue
            for store in stores:
                store.erase()
                stats.bump("dead_slot_stores")
            # Erase geps innermost-last (a gep may feed another gep).
            remaining = [g for g in geps if g.parent is not None]
            while remaining:
                progress = [g for g in remaining if not g.is_used]
                if not progress:
                    break  # cyclic? cannot happen, but stay safe
                for g in progress:
                    g.erase()
                remaining = [g for g in remaining if g.parent is not None]
            if not inst.is_used:
                inst.erase()
                stats.bump("dead_slots")
            stats.changed = True
