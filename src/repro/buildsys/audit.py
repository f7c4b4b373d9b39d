"""The fingerprint-collision audit: re-verify bypassed pass runs.

The paper's soundness claim is "correct up to fingerprint collision":
a dormancy record keyed by ``(pipeline position, fingerprint)`` is only
wrong if two *different* IR bodies hash to the same fingerprint.  This
module probes that caveat empirically instead of taking it on faith —
``reprobuild regress`` samples translation units, recompiles them with
a pass manager that **executes every pass a dormancy record would have
bypassed**, and confirms the record told the truth:

- a *dormant* record (the bypass case) is confirmed when actually
  running the pass changes nothing and leaves the fingerprint equal to
  the recorded ``fingerprint_out``; the pass changing the IR is exactly
  a collision manifesting;
- a *chain-reuse* record (non-dormant: its stored ``fingerprint_out``
  substitutes for a re-hash after the pass runs) is confirmed by
  re-hashing the real IR and comparing.

Each audited unit compiles against a throwaway
:meth:`CompilerState.snapshot` of its own shard, so the stored shards
never see audit-mode writes.  Expected steady-state result on a
healthy store: every sampled pair confirmed, zero mismatches — the
EXPERIMENTS log records exactly that over the standard edit trace.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass, field

from repro.buildsys.builddb import BuildDatabase, ShardError
from repro.core.stateful import StatefulPassManager
from repro.driver import Compiler, CompilerOptions
from repro.frontend.diagnostics import CompileError
from repro.frontend.includes import FileProvider, IncludeError
from repro.ir.fingerprint import fingerprint_function
from repro.ir.structure import Function, Module
from repro.passmanager.pipeline import build_pipeline


@dataclass
class CollisionAuditResult:
    """What re-executing sampled bypassed pairs found."""

    #: Dormant (bypass) records re-executed and checked.
    audited: int = 0
    #: Of those, how many the re-execution confirmed.
    confirmed: int = 0
    #: Chain-reuse fingerprints re-hashed and checked.
    chain_checked: int = 0
    #: Every contradiction found; empty on a healthy store.
    mismatches: list[dict] = field(default_factory=list)
    #: Units actually recompiled under audit, in audit order.
    units: list[str] = field(default_factory=list)
    wall_time: float = 0.0

    @property
    def ok(self) -> bool:
        return not self.mismatches

    def describe(self) -> str:
        verdict = (
            "zero collisions"
            if self.ok
            else f"{len(self.mismatches)} MISMATCH(ES)"
        )
        return (
            f"collision audit: {self.audited} bypassed pairs re-executed "
            f"({self.confirmed} confirmed), {self.chain_checked} chain-reuse "
            f"fingerprints re-hashed, {verdict} "
            f"across {len(self.units)} unit(s) in {self.wall_time:.3f}s"
        )

    def to_dict(self) -> dict:
        return {
            "audited": self.audited,
            "confirmed": self.confirmed,
            "chain_checked": self.chain_checked,
            "mismatches": list(self.mismatches),
            "units": list(self.units),
            "wall_time": self.wall_time,
            "ok": self.ok,
        }


class AuditingStatefulPassManager(StatefulPassManager):
    """A stateful manager that runs what it would have bypassed.

    ``should_skip`` consults the records exactly like the production
    manager, but a hit becomes "execute anyway and check" instead of a
    bypass; ``on_pass_executed`` then compares reality against the
    record.  Fingerprint maintenance is inherited unchanged, so the
    compile still produces a correct object file.
    """

    def __init__(self, *args, result: CollisionAuditResult, unit: str, **kwargs):
        super().__init__(*args, **kwargs)
        self._result = result
        self._unit = unit
        self._audit_record = None

    def should_skip(self, fn: Function, module: Module, position: int) -> bool:
        if super().should_skip(fn, module, position):
            self._audit_record = self._pending_record
            return False
        self._audit_record = None
        return False

    def _mismatch(self, kind: str, fn: Function, position: int, detail: str) -> None:
        self._result.mismatches.append(
            {
                "kind": kind,
                "unit": self._unit,
                "function": fn.name,
                "position": position,
                "pass": self.pipeline.function_passes[position].name,
                "detail": detail,
            }
        )

    def on_pass_executed(
        self, fn: Function, module: Module, position: int, changed: bool
    ) -> None:
        audited = self._audit_record
        self._audit_record = None
        reused = self._pending_record
        super().on_pass_executed(fn, module, position, changed)
        if audited is not None:
            self._result.audited += 1
            if changed:
                self._mismatch(
                    "dormant-bypass", fn, position,
                    "record says dormant but the pass changed the IR "
                    "(fingerprint collision)",
                )
            elif self._fp != audited.fingerprint_out:
                self._mismatch(
                    "dormant-bypass", fn, position,
                    f"recorded fingerprint_out {audited.fingerprint_out} != "
                    f"actual {self._fp}",
                )
            else:
                self._result.confirmed += 1
        elif changed and reused is not None and not reused.dormant:
            # The production manager trusted the record's fingerprint_out
            # instead of re-hashing; here we pay for the hash and check.
            actual = fingerprint_function(
                fn, mode=self.state.fingerprint_mode, pure=self._pure
            )
            self._result.chain_checked += 1
            if actual != self._fp:
                self._mismatch(
                    "chain-reuse", fn, position,
                    f"recorded fingerprint_out {self._fp} != re-hash {actual}",
                )
                self._fp = actual  # keep the audited pipeline honest downstream


class _AuditingCompiler(Compiler):
    """A stateful compiler whose pass manager audits instead of bypassing."""

    def __init__(self, provider, options, state, result: CollisionAuditResult):
        super().__init__(provider, options, state=state)
        self._result = result
        self._current_unit = ""

    def _make_pass_manager(self) -> AuditingStatefulPassManager:
        assert self.state is not None
        return AuditingStatefulPassManager(
            build_pipeline(self.options.opt_level),
            self.state,
            result=self._result,
            unit=self._current_unit,
        )

    def compile_file(self, path: str):
        self._current_unit = path
        return super().compile_file(path)


def audit_fingerprint_collisions(
    provider: FileProvider,
    unit_paths: list[str],
    options: CompilerOptions,
    db: BuildDatabase,
    *,
    sample: int = 20,
    seed: int = 0,
) -> CollisionAuditResult:
    """Re-execute bypassed (fingerprint, pass) pairs for sampled units.

    Each unit is audited against its own shard in ``db``.  Units are
    visited in seeded-shuffle order; whole units are audited until at
    least ``sample`` dormant pairs have been re-executed (or the project
    runs out of units).  Units without a readable shard have nothing
    to audit and are skipped.  Compile failures during the audit are
    recorded as mismatch entries of kind ``compile-error`` — an
    unbuildable unit cannot vouch for its records.  A shard written for
    another pipeline or fingerprint mode raises ``ValueError``.
    """
    if not options.stateful:
        raise ValueError("collision audit requires a stateful build")
    result = CollisionAuditResult()
    start = time.perf_counter()
    compiler = _AuditingCompiler(provider, options, None, result)
    signature = compiler.pipeline_signature

    order = list(unit_paths)
    random.Random(seed).shuffle(order)
    for path in order:
        if result.audited >= sample:
            break
        try:
            state = db.read_state(path)
        except ShardError:
            state = None
        if state is None:
            continue
        if not state.compatible_with(signature, options.fingerprint_mode):
            raise ValueError(
                f"compiler state of {path} is incompatible with the audit "
                "compiler (different pipeline or fingerprint mode); re-run "
                "the audit with the same -O level and --fingerprint-mode as "
                "the build"
            )
        compiler.state = state.snapshot()
        compiler.state.begin_build()
        result.units.append(path)
        try:
            compiler.compile_file(path)
        except (CompileError, IncludeError) as exc:
            result.mismatches.append(
                {
                    "kind": "compile-error",
                    "unit": path,
                    "function": "",
                    "position": -1,
                    "pass": "",
                    "detail": str(exc),
                }
            )
    result.wall_time = time.perf_counter() - start
    return result
