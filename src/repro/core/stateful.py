"""The stateful pass manager — the mechanism the paper proposes.

Wraps the conventional pass manager with one extra decision per
(function, pass): *bypass* the pass when the compiler state holds a
dormancy record for (this pipeline position, the fingerprint of the IR
entering it).  By the dormancy contract (see
:mod:`repro.passes.base`), a deterministic pass that was dormant on IR
with fingerprint F is dormant on any IR hashing to F, so skipping it
cannot change the compilation result.

Fingerprints are maintained incrementally with *chain reuse*: one hash
when the pipeline enters the function; after a pass that changed the
IR, the new fingerprint is taken from the matching record's stored
``fingerprint_out`` when one exists (passes are deterministic — same
input fingerprint implies the same output IR), and only hashed from
scratch when the (position, fingerprint) pair has never been seen.
In the steady state a function costs exactly one fingerprint
computation, zero re-hashes, and zero dormant-pass executions.

Bookkeeping lives in :class:`StatefulPassManager.overhead` so the
experiments can report the cost of statefulness separately.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

from repro.core.policies import SkipPolicy
from repro.core.state import CompilerState
from repro.ir.fingerprint import fingerprint_function
from repro.ir.structure import Function, Module
from repro.obs.metrics import MetricsRegistry
from repro.obs.trace import NULL_TRACER, NullTracer
from repro.passes.funcattrs import get_pure_functions
from repro.passmanager.manager import PassManager
from repro.passmanager.pipeline import PassPipeline

#: Synthetic "position" for the coarse whole-pipeline records.
_COARSE_POSITION = -2


@dataclass
class StatefulOverhead:
    """Cost of maintaining state, reported by the overhead experiment."""

    fingerprint_count: int = 0
    fingerprint_work: int = 0  # instructions hashed
    fingerprint_time: float = 0.0
    lookups: int = 0
    records_written: int = 0


class StatefulPassManager(PassManager):
    """Pass manager with dormant-pass bypassing."""

    def __init__(
        self,
        pipeline: PassPipeline,
        state: CompilerState,
        *,
        policy: SkipPolicy = SkipPolicy.FINE_GRAINED,
        verify_each: bool = False,
        tracer: NullTracer = NULL_TRACER,
        metrics: MetricsRegistry | None = None,
    ):
        super().__init__(
            pipeline, verify_each=verify_each, tracer=tracer, metrics=metrics
        )
        self.state = state
        self.policy = policy
        self.overhead = StatefulOverhead()
        self._fp: str = ""
        #: The module's pure-function set, part of every fingerprint.
        self._pure: frozenset[str] = frozenset()
        self._function_had_changes = False
        self._coarse_skip_all = False
        self._entry_fp: str = ""
        #: Record found by should_skip for the position about to run.
        self._pending_record = None

    # -- fingerprint maintenance -------------------------------------------

    def _compute_fingerprint(self, fn: Function) -> str:
        start = time.perf_counter()
        fp = fingerprint_function(fn, mode=self.state.fingerprint_mode, pure=self._pure)
        elapsed = time.perf_counter() - start
        self.overhead.fingerprint_time += elapsed
        self.overhead.fingerprint_count += 1
        self.overhead.fingerprint_work += fn.num_instructions
        self.metrics.inc("fingerprint.count")
        self.metrics.observe("fingerprint.time", elapsed)
        return fp

    def fingerprint_for_event(self, fn: Function) -> str:
        return self._fp

    # -- hooks ------------------------------------------------------------------

    def begin_function(self, fn: Function, module: Module) -> None:
        # The module prelude (funcattrs) has run by now, and function
        # passes only read the pure set, never write it.
        self._pure = get_pure_functions(module)
        self._fp = self._compute_fingerprint(fn)
        self._entry_fp = self._fp
        self._function_had_changes = False
        self._coarse_skip_all = False
        if self.policy is SkipPolicy.COARSE:
            record = self.state.lookup(_COARSE_POSITION, self._fp)
            self.overhead.lookups += 1
            self.metrics.inc("state.lookups")
            self._coarse_skip_all = record is not None and record.dormant

    def should_skip(self, fn: Function, module: Module, position: int) -> bool:
        self._pending_record = None
        if self.policy is SkipPolicy.NONE:
            return False
        if self.policy is SkipPolicy.COARSE:
            return self._coarse_skip_all
        self.overhead.lookups += 1
        self.metrics.inc("state.lookups")
        record = self.state.lookup(position, self._fp)
        self._pending_record = record
        return record is not None and record.dormant

    def on_pass_executed(
        self, fn: Function, module: Module, position: int, changed: bool
    ) -> None:
        fingerprint_in = self._fp
        if changed:
            self._function_had_changes = True
            record = self._pending_record
            if record is not None and not record.dormant:
                # Chain reuse: this (position, fingerprint) was seen before
                # and the pass is deterministic, so the output IR — and
                # hence its fingerprint — is the recorded one.  No re-hash.
                self._fp = record.fingerprint_out
                return
            self._fp = self._compute_fingerprint(fn)
        self.state.remember(position, fingerprint_in, not changed, self._fp)
        self.overhead.records_written += 1
        self.metrics.inc("state.records_written")

    def end_function(self, fn: Function, module: Module) -> None:
        if self.policy is SkipPolicy.COARSE and not self._coarse_skip_all:
            self.state.remember(
                _COARSE_POSITION,
                self._entry_fp,
                not self._function_had_changes,
                self._fp,
            )
            self.overhead.records_written += 1
            self.metrics.inc("state.records_written")
