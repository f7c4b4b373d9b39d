"""The incremental build driver: decide, compile, link.

:class:`IncrementalBuilder` is the ninja/make analogue both compiler
variants plug into.  Per build it:

1. snapshots every translation unit's dependency closure
   (:mod:`repro.buildsys.deps`);
2. schedules recompilation for exactly the units whose own digest or
   any transitively included header's digest changed since the build
   database last saw them — recording a
   :class:`~repro.buildsys.explain.RebuildReason` per unit so the
   decision is explainable afterwards (``reprobuild explain``);
3. compiles dirty units through :class:`repro.driver.Compiler` —
   stateless or stateful per :class:`~repro.driver.CompilerOptions`,
   in-process or on a worker pool per :class:`~repro.buildsys.parallel.BuildOptions`
   (``jobs > 1`` runs the make ``-j`` analogue); either way each unit
   comes back as a :class:`~repro.buildsys.parallel.UnitOutcome` and is
   folded in by one method; a stateful compile reads only its own
   unit's dormancy-state shard from the build database and leaves a new
   shard behind, so units never share state and results are independent
   of scheduling;
4. reuses cached object JSON for up-to-date units;
5. links everything into one runnable :class:`~repro.backend.linker.LinkedImage`.

The baseline file-level skipping (step 2/4) is deliberately identical
for both variants: the paper's mechanism is measured as the *additional*
win inside the units a competent build system already decided to
recompile.

Observability: the builder accepts a :class:`~repro.obs.trace.Tracer`
and a :class:`~repro.obs.metrics.MetricsRegistry`.  Spans cover the
whole hierarchy (build → phase → unit → pass pipeline → pass); on the
worker-pool path each worker's spans travel back in its picklable
outcome and are re-based onto the driver timeline with worker
attribution.  The scanner reports into the build's registry directly;
each unit's pass manager and shard report into that unit's registry,
which its outcome merges in, so ``-j 1`` and ``-j N`` count the same.
The registry's snapshot lands in :attr:`BuildReport.metrics`.

Failure handling is transactional per unit: when a dirty unit fails to
compile, every unit that already compiled successfully is still
recorded in the database (with its new shard, when stateful) before
the error propagates — a rebuild after the fix recompiles only the
broken unit.
"""

from __future__ import annotations

import logging
import time
from collections.abc import Iterable, Iterator

from repro.backend.linker import LinkedImage, link
from repro.backend.objfile import ObjectFile
from repro.buildsys.builddb import BuildDatabase
from repro.buildsys.deps import DependencyScanner, DependencySnapshot
from repro.buildsys.explain import rebuild_reason
from repro.buildsys.parallel import (
    BuildOptions,
    UnitOutcome,
    compile_unit,
    compile_units,
)
from repro.buildsys.report import BuildReport, UnitBuildResult
from repro.core.state import CompilerState
from repro.core.statistics import BypassStatistics
from repro.driver import Compiler, CompilerOptions
from repro.frontend.includes import FileProvider
from repro.obs.metrics import MetricsRegistry
from repro.obs.profiling import NULL_PROFILER, WORKER_PHASE, NullBuildProfiler
from repro.obs.trace import NULL_TRACER, NullTracer

logger = logging.getLogger(__name__)


class IncrementalBuilder:
    """Builds one project tree incrementally against a build database.

    A builder instance is one build invocation; the durable artifact is
    the :class:`BuildDatabase`, which callers keep (in memory or via
    ``save``/``load``) across invocations exactly like a developer's
    build directory.
    """

    def __init__(
        self,
        provider: FileProvider,
        unit_paths: list[str],
        options: CompilerOptions | None = None,
        db: BuildDatabase | None = None,
        build_options: BuildOptions | None = None,
        *,
        tracer: NullTracer = NULL_TRACER,
        metrics: MetricsRegistry | None = None,
        profiler: NullBuildProfiler = NULL_PROFILER,
    ):
        self.provider = provider
        self.unit_paths = list(unit_paths)
        self.options = options or CompilerOptions()
        self.db = db if db is not None else BuildDatabase()
        self.build_options = (
            build_options if build_options is not None else BuildOptions.from_env()
        )
        self.tracer = tracer
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self.profiler = profiler
        #: Why dormancy state was dropped during the last build, one
        #: line per unit (or per legacy DB); empty on a healthy store.
        self.discarded: list[str] = []

    # -- state plumbing -----------------------------------------------------

    def _unit_state(self, compiler: Compiler, path: str) -> CompilerState:
        """The dirty unit's shard, advanced one compile tick.

        An incompatible or unreadable shard (e.g. the user changed
        ``-O`` levels) comes back empty and is noted in the DB's
        ``discarded`` list: stale records must never be consulted.
        """
        state = self.db.unit_state(
            path,
            pipeline_signature=compiler.pipeline_signature,
            fingerprint_mode=self.options.fingerprint_mode,
        )
        state.begin_build()
        return state

    # -- the build ----------------------------------------------------------

    def build(self, *, link_output: bool = True) -> BuildReport:
        """Run one incremental build; returns the :class:`BuildReport`.

        Raises :class:`repro.frontend.diagnostics.CompileError` (or
        :class:`repro.frontend.includes.IncludeError`) if a dirty unit
        fails to compile; the database keeps its previous records plus
        the records of every unit that did compile, so a later build
        after the fix is still incremental.
        """
        build_start = time.perf_counter()
        report = BuildReport()
        gc_reclaimed_before = self.db.gc_reclaimed_total

        scan_start = time.perf_counter()
        scanner = DependencyScanner(self.provider, metrics=self.metrics)
        with self.profiler.phase("scan"):
            snapshots = {path: scanner.snapshot(path) for path in self.unit_paths}
        report.scan_time = time.perf_counter() - scan_start
        self.tracer.add("scan", "phase", scan_start, report.scan_time)
        self.metrics.observe("build.scan_time", report.scan_time)

        compiler = Compiler(self.provider, self.options, tracer=self.tracer)

        dirty: list[str] = []
        for path in self.unit_paths:
            reason = rebuild_reason(self.db.units.get(path), snapshots[path])
            report.reasons[path] = reason
            if reason.is_up_to_date:
                report.up_to_date.append(path)
            else:
                dirty.append(path)
        logger.info(
            "build: %d units, %d dirty, %d up-to-date",
            len(self.unit_paths),
            len(dirty),
            len(report.up_to_date),
        )

        jobs = min(self.build_options.resolved_jobs(), max(1, len(dirty)))
        report.jobs = jobs
        self.metrics.set_gauge("build.units", len(self.unit_paths))
        self.metrics.set_gauge("build.dirty", len(dirty))
        self.metrics.set_gauge("build.up_to_date", len(report.up_to_date))
        self.metrics.set_gauge("build.jobs", jobs)

        objects: dict[str, ObjectFile] = {}
        phase_start = time.perf_counter()
        if jobs <= 1:
            # cProfile cannot nest: the in-process compile is profiled
            # as one driver phase rather than per unit.
            with self.profiler.phase("compile"):
                error = self._merge_outcomes(
                    self._compile_in_process(compiler, dirty), snapshots, report, objects
                )
        else:
            error = self._merge_outcomes(
                self._compile_on_pool(compiler, dirty, jobs), snapshots, report, objects
            )
        report.compile_phase_time = time.perf_counter() - phase_start
        if dirty:
            self.tracer.add("compile", "phase", phase_start, report.compile_phase_time)
        self.metrics.observe("build.compile_phase_time", report.compile_phase_time)

        self.db.prune(self.unit_paths)
        if self.options.stateful:
            # Sized from the per-unit records: no shard is read or
            # serialized to measure the state.
            report.state_records = self.db.state_records
            report.state_bytes = self.db.state_bytes
            self.metrics.set_gauge("state.records", report.state_records)
            self.metrics.set_gauge("state.bytes", report.state_bytes)
            self.metrics.set_gauge("state.gc_runs", self.db.gc_runs)
            self.metrics.set_gauge("state.gc_reclaimed_total", self.db.gc_reclaimed_total)
            self.metrics.set_gauge(
                "state.gc_reclaimed_last", self.db.gc_reclaimed_total - gc_reclaimed_before
            )
        self.discarded = list(self.db.discarded)
        self.db.discarded.clear()
        if self.discarded:
            self.metrics.inc("state.discarded", len(self.discarded))
            for line in self.discarded:
                logger.info("dormancy state discarded: %s", line)

        if error is not None:
            report.metrics = self.metrics.to_dict()
            report.profile = self.profiler.to_payload()
            raise error

        if link_output:
            start = time.perf_counter()
            with self.profiler.phase("link"):
                report.image = self._link(objects)
            report.link_time = time.perf_counter() - start
            self.tracer.add("link", "phase", start, report.link_time)
            self.metrics.observe("build.link_time", report.link_time)

        report.total_wall_time = time.perf_counter() - build_start
        self.tracer.add(
            "build",
            "build",
            build_start,
            report.total_wall_time,
            units=len(self.unit_paths),
            recompiled=report.num_recompiled,
            jobs=jobs,
        )
        self.metrics.observe("build.total_wall_time", report.total_wall_time)
        report.metrics = self.metrics.to_dict()
        report.profile = self.profiler.to_payload()
        return report

    # -- compile strategies -------------------------------------------------

    def _compile_in_process(
        self, compiler: Compiler, dirty: list[str]
    ) -> Iterator[UnitOutcome]:
        """``-j 1``: one unit at a time with the driver's own compiler.

        Reusing ``compiler`` keeps parsed headers cached across units
        and sends spans straight to the driver's tracer.  Outcomes are
        yielded as they are produced, so only one unit's products are
        alive at a time; compilation stops at the first failure.
        """
        for path in dirty:
            if self.options.stateful:
                compiler.state = self._unit_state(compiler, path)
            outcome = compile_unit(compiler, path)
            yield outcome
            if outcome.failed:
                return

    def _compile_on_pool(
        self, compiler: Compiler, dirty: list[str], jobs: int
    ) -> Iterator[UnitOutcome]:
        """``-j N``: every dirty unit on a worker pool, in unit order.

        Each worker gets its unit's shard and returns the new one.
        Units abandoned after an earlier failure have no outcome.
        """
        shards = {}
        if self.options.stateful:
            shards = {path: self._unit_state(compiler, path) for path in dirty}
        outcomes = compile_units(
            self.provider,
            self.options,
            shards,
            dirty,
            jobs=jobs,
            executor=self.build_options.executor,
            trace=self.tracer.enabled,
            profile=self.profiler.enabled,
        )
        return (outcomes[path] for path in dirty if path in outcomes)

    def _merge_outcomes(
        self,
        outcomes: Iterable[UnitOutcome],
        snapshots: dict[str, DependencySnapshot],
        report: BuildReport,
        objects: dict[str, ObjectFile],
    ) -> Exception | None:
        """Fold outcomes in translation-unit order; return the first failure.

        Object records, report entries and shards are therefore
        independent of completion order, which is what makes a ``-j N``
        build reproducible.  The failure is returned, not raised, so the
        caller can finish the database bookkeeping before propagating it.
        """
        error: Exception | None = None
        for outcome in outcomes:
            if outcome.failed:
                if error is None:  # earliest failure in schedule order wins
                    error = self._outcome_error(outcome)
                continue
            self._merge_outcome(outcome, snapshots[outcome.path], report, objects)
        return error

    @staticmethod
    def _outcome_error(outcome: UnitOutcome) -> Exception:
        try:
            outcome.raise_error()
        except Exception as exc:
            return exc
        raise AssertionError("outcome did not fail")  # pragma: no cover

    def _merge_outcome(
        self,
        outcome: UnitOutcome,
        snapshot: DependencySnapshot,
        report: BuildReport,
        objects: dict[str, ObjectFile],
    ) -> None:
        """Fold one successful outcome into the build products."""
        report.bypass.merge(outcome.stats)
        if outcome.metrics is not None:
            self.metrics.merge(outcome.metrics, source=outcome.worker)
        if outcome.profile:
            self.profiler.absorb(WORKER_PHASE, outcome.profile)
        if outcome.spans:
            # Re-base the worker's spans onto the driver timeline; the
            # worker name attributes them to their own track.
            self.tracer.absorb(
                outcome.spans, outcome.epoch_wall, track=outcome.worker
            )
        report.compiled.append(
            UnitBuildResult(
                path=outcome.path,
                wall_time=outcome.wall_time,
                pass_work=outcome.pass_work,
                stats=outcome.stats,
                fingerprint_time=outcome.fingerprint_time,
                fingerprint_count=outcome.fingerprint_count,
                worker=outcome.worker,
            )
        )
        objects[outcome.path] = outcome.object_file or ObjectFile.from_json(
            outcome.object_json
        )
        self.db.record_unit(
            snapshot,
            outcome.object_json,
            stats=outcome.stats.to_dict(),
            wall_time=outcome.wall_time,
            worker=outcome.worker,
            shard=outcome.shard,
        )

    def _link(self, fresh: dict[str, ObjectFile]) -> LinkedImage:
        """Link fresh and cached objects in unit order."""
        objects = [
            fresh[path]
            if path in fresh
            else ObjectFile.from_json(self.db.units[path].object_json)
            for path in self.unit_paths
        ]
        return link(objects)


# Re-exported here because the build() return type is defined in
# report.py but callers naturally import it from the builder module.
__all__ = [
    "IncrementalBuilder",
    "BuildReport",
    "BuildOptions",
    "BypassStatistics",
]
