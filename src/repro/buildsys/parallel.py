"""Unit compilation for the build driver, in-process or on a worker pool.

Once the scheduler knows which units are dirty, their compilations are
independent — each stateful compile reads and writes only its own
unit's :class:`~repro.core.state.CompilerState` shard.  Every dirty
unit goes through :func:`compile_unit`, which returns a
:class:`UnitOutcome`: the object file, the unit's metrics registry and
its new shard.  The build driver folds outcomes in translation-unit
order, so a build's products do not depend on completion order.

At ``-j 1`` the driver calls :func:`compile_unit` in-process with its
own :class:`~repro.driver.Compiler`, one unit at a time.  At ``-j N``
:func:`compile_units` runs a :mod:`concurrent.futures` pool (the make
``-j`` analogue): the driver loads each dirty unit's shard and advances
it one compile tick, each task compiles one unit against its shard with
a fresh ``Compiler``, and the outcome travels back picklable, the object
file as JSON.

Executors: ``process`` (the default; real CPU parallelism for this
CPU-bound compiler) and ``thread`` (no pickling, used automatically as a
fallback when process pools are unavailable — e.g. sandboxes without
fork).

Workers return *data*, not exceptions: a failed unit comes back as an
outcome with diagnostics attached (``CompileError`` does not survive
pickling faithfully), and the driver re-raises for the earliest failed
unit in schedule order so parallel error reporting is deterministic too.
"""

from __future__ import annotations

import os
import threading
import time
from concurrent.futures import (
    BrokenExecutor,
    Executor,
    ProcessPoolExecutor,
    ThreadPoolExecutor,
    as_completed,
)
from dataclasses import dataclass, field

from repro.backend.objfile import ObjectFile
from repro.core.state import CompilerState, SerializedShard
from repro.core.statistics import BypassStatistics
from repro.driver import Compiler, CompilerOptions
from repro.frontend.diagnostics import CompileError, Diagnostic
from repro.frontend.includes import FileProvider, IncludeError
from repro.obs.metrics import MetricsRegistry
from repro.obs.trace import NULL_TRACER, SpanRecord, Tracer

#: Environment override for the default job count, honored when a
#: caller does not pass explicit :class:`BuildOptions` (the CI matrix
#: uses it to run the whole suite at ``-j 4``).
JOBS_ENV_VAR = "REPRO_BUILD_JOBS"
EXECUTOR_ENV_VAR = "REPRO_BUILD_EXECUTOR"

_EXECUTORS = ("process", "thread")


@dataclass
class BuildOptions:
    """Build-system knobs, as opposed to per-compiler :class:`CompilerOptions`.

    ``jobs=None`` means "use every core" (``os.cpu_count()``); the
    library default is an explicit 1 so programmatic callers keep the
    serial behavior unless they opt in, while the CLI opts in for them.
    """

    #: Maximum concurrent unit compilations; ``None`` = CPU count.
    jobs: int | None = 1
    #: Worker pool kind for ``jobs > 1``: ``process`` | ``thread``.
    executor: str = "process"

    def __post_init__(self) -> None:
        if self.executor not in _EXECUTORS:
            raise ValueError(
                f"unknown executor {self.executor!r}; options: {_EXECUTORS}"
            )

    def resolved_jobs(self) -> int:
        if self.jobs is None:
            return os.cpu_count() or 1
        return max(1, self.jobs)

    @classmethod
    def from_env(cls) -> "BuildOptions":
        """Defaults, overridable via ``REPRO_BUILD_JOBS``/``_EXECUTOR``."""
        options = cls()
        jobs = os.environ.get(JOBS_ENV_VAR)
        if jobs:
            try:
                options.jobs = int(jobs)
            except ValueError:
                pass
        executor = os.environ.get(EXECUTOR_ENV_VAR)
        if executor in _EXECUTORS:
            options.executor = executor
        return options


@dataclass
class UnitOutcome:
    """One unit's compilation result in picklable, mergeable form.

    Everything the build driver needs and nothing it doesn't: the
    object file as JSON (the same representation the build DB caches),
    statistics summarized from the unit's metrics registry, and the
    unit's new shard in its stored form.
    """

    path: str
    object_json: str = ""
    #: The decoded object, handed over by in-process compiles; pool
    #: outcomes carry ``object_json`` alone.
    object_file: ObjectFile | None = None
    stats: BypassStatistics = field(default_factory=BypassStatistics)
    pass_work: int = 0
    wall_time: float = 0.0
    fingerprint_time: float = 0.0
    fingerprint_count: int = 0
    #: The unit's new dormancy-state shard (``None`` for stateless builds).
    shard: SerializedShard | None = None
    #: Which worker compiled it: "main" (in-process), "pid-<n>", or a
    #: thread name.
    worker: str = "main"
    #: The unit's metrics registry, merged into the build's by the driver.
    metrics: MetricsRegistry | None = None
    #: Callers-stripped ``cProfile`` stats table (empty unless the build
    #: runs with ``--profile``); the driver absorbs it into the
    #: ``compile-workers`` phase of the build profiler.
    profile: dict = field(default_factory=dict)
    #: Trace spans from the worker's tracer (empty unless tracing), with
    #: the wall-clock epoch the driver needs to re-base them.
    spans: list[SpanRecord] = field(default_factory=list)
    epoch_wall: float = 0.0
    #: "compile" | "include" | None; diagnostics ride along for re-raise.
    error_kind: str | None = None
    error_message: str = ""
    diagnostics: list[Diagnostic] = field(default_factory=list)

    @property
    def failed(self) -> bool:
        return self.error_kind is not None

    def raise_error(self) -> None:
        """Re-raise the recorded failure as the original exception type."""
        if self.error_kind == "include":
            raise IncludeError(self.error_message)
        if self.error_kind == "compile":
            raise CompileError(self.diagnostics)


# -- the worker side ---------------------------------------------------------
#
# Process pools ship the (provider, options) pair once per worker via
# the initializer instead of once per task; threads share the module
# global directly.  Shards travel per task: each belongs to one unit.

_WORKER_CONTEXT: dict = {}


def _init_worker(
    provider: FileProvider,
    options: CompilerOptions,
    trace: bool = False,
    profile: bool = False,
) -> None:
    _WORKER_CONTEXT["provider"] = provider
    _WORKER_CONTEXT["options"] = options
    _WORKER_CONTEXT["trace"] = trace
    _WORKER_CONTEXT["profile"] = profile


def _worker_name() -> str:
    thread = threading.current_thread()
    if thread is threading.main_thread():
        return f"pid-{os.getpid()}"
    return thread.name


def compile_unit(
    compiler: Compiler,
    path: str,
    *,
    worker: str = "main",
    profile: bool = False,
) -> UnitOutcome:
    """Compile one unit against ``compiler.state``; never raises.

    ``compiler.state`` is the unit's shard (``None`` for stateless
    builds); the compile updates it in place, collects its garbage, and
    the outcome carries it back serialized.  No other unit reads or
    writes it, so the outcome is independent of scheduling.  With
    ``profile=True`` the compile runs under ``cProfile`` and the
    callers-stripped stats table ships back in ``outcome.profile``.
    """
    outcome = UnitOutcome(path=path, worker=worker)
    profiler = None
    if profile:
        import cProfile

        profiler = cProfile.Profile()
        profiler.enable()
    start = time.perf_counter()
    try:
        result = compiler.compile_file(path)
    except CompileError as exc:
        outcome.error_kind = "compile"
        outcome.error_message = str(exc)
        outcome.diagnostics = list(exc.diagnostics)
        return outcome
    except IncludeError as exc:
        outcome.error_kind = "include"
        outcome.error_message = str(exc)
        return outcome
    finally:
        if profiler is not None:
            profiler.disable()
    outcome.wall_time = time.perf_counter() - start
    if profiler is not None:
        from repro.obs.profiling import profile_stats_table

        outcome.profile = profile_stats_table(profiler)

    metrics = result.metrics
    outcome.object_file = result.object_file
    outcome.object_json = result.object_file.to_json()
    outcome.stats = BypassStatistics.from_metrics(metrics)
    outcome.metrics = metrics
    outcome.pass_work = result.pass_work
    fingerprint = metrics.timings.get("fingerprint.time")
    outcome.fingerprint_time = fingerprint.total if fingerprint else 0.0
    outcome.fingerprint_count = metrics.count("fingerprint.count")
    if compiler.state is not None:
        outcome.shard = compiler.state.finish_compile()
    return outcome


def _compile_unit_task(path: str, state: CompilerState | None) -> UnitOutcome:
    """Pool entry point: compile ``path`` against ``state`` using the worker context.

    Each task builds its own :class:`Compiler`: thread workers share
    the context, so a shared compiler would race on ``.state``.
    """
    worker = _worker_name()
    tracer = Tracer(track=worker) if _WORKER_CONTEXT["trace"] else NULL_TRACER
    compiler = Compiler(
        _WORKER_CONTEXT["provider"], _WORKER_CONTEXT["options"],
        state=state, tracer=tracer,
    )
    outcome = compile_unit(
        compiler, path, worker=worker, profile=_WORKER_CONTEXT["profile"]
    )
    # The object crosses the pool as JSON; spans ship back with the
    # wall-clock epoch the driver needs to re-base them.
    outcome.object_file = None
    if tracer.enabled:
        outcome.spans = tracer.spans
        outcome.epoch_wall = tracer.epoch_wall
    return outcome


# -- the driver side ---------------------------------------------------------


def _make_pool(executor: str, jobs: int, initargs: tuple) -> Executor:
    if executor == "thread":
        return ThreadPoolExecutor(
            max_workers=jobs,
            thread_name_prefix="reprobuild",
            initializer=_init_worker,
            initargs=initargs,
        )
    return ProcessPoolExecutor(
        max_workers=jobs, initializer=_init_worker, initargs=initargs
    )


def _run_pool(
    executor: str,
    jobs: int,
    initargs: tuple,
    paths: list[str],
    shards: dict[str, CompilerState],
) -> dict[str, UnitOutcome]:
    outcomes: dict[str, UnitOutcome] = {}
    with _make_pool(executor, jobs, initargs) as pool:
        futures = {
            pool.submit(_compile_unit_task, path, shards.get(path)): path
            for path in paths
        }
        for future in as_completed(futures):
            if future.cancelled():
                continue
            outcome = future.result()  # raises BrokenExecutor on pool death
            outcomes[outcome.path] = outcome
            if outcome.failed:
                # Fail fast like a serial build: units already running
                # finish (and are recorded), queued ones are abandoned.
                for other in futures:
                    other.cancel()
    return outcomes


def compile_units(
    provider: FileProvider,
    options: CompilerOptions,
    shards: dict[str, CompilerState],
    paths: list[str],
    *,
    jobs: int,
    executor: str = "process",
    trace: bool = False,
    profile: bool = False,
) -> dict[str, UnitOutcome]:
    """Compile ``paths`` concurrently; returns outcomes keyed by path.

    ``shards`` maps each stateful unit to its shard (empty for
    stateless builds).  Failed units are present with diagnostics
    attached; units abandoned after a failure are absent.  A process
    pool that cannot start or dies (no fork in the sandbox,
    unpicklable provider) degrades to a thread pool — compilation is
    deterministic and nothing has been recorded yet, so a full retry
    is safe (process workers compile pickled copies of the shards).
    """
    initargs = (provider, options, trace, profile)
    if executor == "process":
        try:
            return _run_pool("process", jobs, initargs, paths, shards)
        except (BrokenExecutor, OSError):
            return _run_pool("thread", jobs, initargs, paths, shards)
    return _run_pool("thread", jobs, initargs, paths, shards)
