"""The incremental build system the stateful compiler plugs into.

ninja/make give *file-level* statefulness: unchanged translation units
are not recompiled at all.  This package reproduces that baseline so
"end-to-end incremental build" means the same thing for both compiler
variants, and so the paper's mechanism is measured on top of — not
instead of — a competent build system:

- :mod:`repro.buildsys.deps` — header dependency tracking: a fast
  regex ``include`` scanner with transitive closure, cycle safety, and
  missing-header tolerance.
- :mod:`repro.buildsys.builddb` — the content-digest
  :class:`BuildDatabase`: per-unit digests, dependency digests, cached
  object JSON, and a reference to each unit's dormancy-state shard (a
  :class:`~repro.core.state.CompilerState` stored beside the DB, read
  only when the unit is dirty).
- :mod:`repro.buildsys.incremental` — :class:`IncrementalBuilder`: the
  scheduler deciding, per unit, rebuild vs reuse, compiling via
  :mod:`repro.driver` and linking the result.
- :mod:`repro.buildsys.parallel` — ``make -j`` for dirty units:
  :class:`BuildOptions` (job count, executor kind) and the worker-pool
  machinery; each worker compiles against its own unit's shard, so
  stateful builds are deterministic at any ``-j``.
- :mod:`repro.buildsys.report` — :class:`BuildReport`: per-build
  accounting (recompiles, bypass statistics, wall/work totals, worker
  attribution) with a stable JSON schema
  (``reprobuild --report-json``) the benchmarks, CI artifacts, and the
  ``reprobuild`` CLI consume.
- :mod:`repro.buildsys.explain` — :class:`RebuildReason` and
  ``reprobuild explain``: why each unit was rebuilt or skipped (source
  digest change vs header-closure change vs up to date), kept
  decision-identical to :meth:`BuildDatabase.up_to_date`.
- :mod:`repro.buildsys.audit` — the fingerprint-collision audit behind
  ``reprobuild regress --audit``: re-execute a sample of bypassed
  (fingerprint, pass) pairs against shard snapshots and confirm the
  dormancy records told the truth.
"""

from repro.buildsys.audit import (
    AuditingStatefulPassManager,
    CollisionAuditResult,
    audit_fingerprint_collisions,
)
from repro.buildsys.builddb import DB_SCHEMA_VERSION, BuildDatabase, UnitRecord
from repro.buildsys.deps import DependencyScanner, DependencySnapshot, content_digest
from repro.buildsys.explain import RebuildReason, explain_unit, rebuild_reason
from repro.buildsys.incremental import IncrementalBuilder
from repro.buildsys.parallel import BuildOptions, UnitOutcome
from repro.buildsys.report import (
    READABLE_REPORT_SCHEMAS,
    REPORT_SCHEMA_VERSION,
    BuildReport,
    UnitBuildResult,
)

__all__ = [
    "DB_SCHEMA_VERSION",
    "READABLE_REPORT_SCHEMAS",
    "REPORT_SCHEMA_VERSION",
    "AuditingStatefulPassManager",
    "BuildDatabase",
    "CollisionAuditResult",
    "audit_fingerprint_collisions",
    "UnitRecord",
    "DependencyScanner",
    "DependencySnapshot",
    "content_digest",
    "RebuildReason",
    "rebuild_reason",
    "explain_unit",
    "IncrementalBuilder",
    "BuildOptions",
    "UnitOutcome",
    "BuildReport",
    "UnitBuildResult",
]
