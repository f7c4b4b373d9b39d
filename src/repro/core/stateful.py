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

The cost of statefulness is reported into the pass manager's metrics
registry beside the pass counters: ``fingerprint.count`` and the
``fingerprint.time`` timing, ``state.lookups`` and
``state.records_written``.
"""

from __future__ import annotations

import time

from repro.core.state import CompilerState
from repro.ir.fingerprint import fingerprint_function
from repro.ir.structure import Function, Module
from repro.obs.metrics import MetricsRegistry
from repro.obs.trace import NULL_TRACER, NullTracer
from repro.passes.funcattrs import get_pure_functions
from repro.passmanager.manager import PassManager
from repro.passmanager.pipeline import PassPipeline


class StatefulPassManager(PassManager):
    """Pass manager with dormant-pass bypassing."""

    def __init__(
        self,
        pipeline: PassPipeline,
        state: CompilerState,
        *,
        verify_each: bool = False,
        tracer: NullTracer = NULL_TRACER,
        metrics: MetricsRegistry | None = None,
    ):
        super().__init__(
            pipeline, verify_each=verify_each, tracer=tracer, metrics=metrics
        )
        self.state = state
        self._fp: str = ""
        #: The module's pure-function set, part of every fingerprint.
        self._pure: frozenset[str] = frozenset()
        #: Record found by should_skip for the position about to run.
        self._pending_record = None

    # -- fingerprint maintenance -------------------------------------------

    def _compute_fingerprint(self, fn: Function) -> str:
        start = time.perf_counter()
        fp = fingerprint_function(fn, mode=self.state.fingerprint_mode, pure=self._pure)
        self.metrics.inc("fingerprint.count")
        self.metrics.observe("fingerprint.time", time.perf_counter() - start)
        return fp

    # -- hooks ------------------------------------------------------------------

    def begin_function(self, fn: Function, module: Module) -> None:
        # The module prelude (funcattrs) has run by now, and function
        # passes only read the pure set, never write it.
        self._pure = get_pure_functions(module)
        self._fp = self._compute_fingerprint(fn)

    def should_skip(self, fn: Function, module: Module, position: int) -> bool:
        self.metrics.inc("state.lookups")
        record = self.state.lookup(position, self._fp)
        self._pending_record = record
        return record is not None and record.dormant

    def on_pass_executed(
        self, fn: Function, module: Module, position: int, changed: bool
    ) -> None:
        fingerprint_in = self._fp
        if changed:
            record = self._pending_record
            if record is not None and not record.dormant:
                # Chain reuse: this (position, fingerprint) was seen before
                # and the pass is deterministic, so the output IR — and
                # hence its fingerprint — is the recorded one.  No re-hash.
                self._fp = record.fingerprint_out
                return
            self._fp = self._compute_fingerprint(fn)
        self.state.remember(position, fingerprint_in, not changed, self._fp)
        self.metrics.inc("state.records_written")
