"""The ``reprobuild`` edit-trace benchmark: workloads, load loop and checks.

Load model: a closed loop with one client.  Each step applies one edit
of a seeded trace to two on-disk trees, one per compiler variant, and
runs the real CLI entry ``repro.cli.reprobuild_main`` in-process on
each (directory lock, DB load, build, durable DB save, history
append).  Which variant builds first alternates from step to step, so
neither always runs on a warmer process.  Only the files an edit
changed are rewritten.

The project tree is the workload's preset at its fixed spec seed; the
benchmark seed draws the edit trace.  Generating the project from the
benchmark seed as well made the seed-to-seed spread of image size
(~21% IQR) and VM steps (~35%) wider than any usable regression bound.
"""

from __future__ import annotations

import contextlib
import io
import math
import random
import shutil
import statistics
import time
from collections import Counter, defaultdict
from dataclasses import dataclass, field
from pathlib import Path

import repro.cli
from repro.buildsys.incremental import IncrementalBuilder
from repro.driver import Compiler, CompilerOptions
from repro.frontend.includes import MemoryFileProvider
from repro.vm.interp import ExecutionResult, run_module
from repro.vm.machine import VirtualMachine
from repro.workload import Edit, EditKind, apply_edit, generate_project, make_preset
from repro.workload.edits import DEFAULT_EDIT_MIX

from layers import LAYER_TARGETS, ROOT_LAYER, LayerTracer, still_wrapped

VARIANTS = ("stateless", "stateful")

#: Set-ups per end-to-end run; ``setup_s`` and ``clean_s.*`` are their medians.
SETUP_REPEATS = 3

#: Builds beyond the tail percentile (the percentile is derived from it).
TAIL_BEYOND = 10


#: Counters from ``BuildReport.metrics`` that must repeat exactly for a seed.
COUNTERS = (
    "passes.executed",
    "passes.bypassed",
    "passes.work",
    "fingerprint.count",
    "state.lookups",
    "state.records_written",
)


@dataclass(frozen=True)
class Workload:
    name: str
    preset: str
    jobs: int
    #: Edit kinds drawn, weighted as in ``DEFAULT_EDIT_MIX``.
    kinds: tuple[EditKind, ...]
    #: Edit steps per measured second on a 2-core x86 host (both variants
    #: and the checks included).  It turns ``--seconds`` into a trace
    #: length that is the same on every run, so counts repeat exactly.
    steps_per_second: float

    def mix(self) -> list[tuple[EditKind, float]]:
        chosen = [(kind, w) for kind, w in DEFAULT_EDIT_MIX if kind in self.kinds]
        total = sum(w for _, w in chosen)
        return [(kind, w / total) for kind, w in chosen]

    def trace_length(self, seconds: float) -> int:
        """Edits per variant for a run of ``seconds``: whole blocks of one
        edit per module, at least ``2 * TAIL_BEYOND``."""
        modules = len(make_preset(self.preset).modules)
        blocks = max(
            math.ceil(2 * TAIL_BEYOND / modules),
            math.floor(seconds * self.steps_per_second / modules + 0.5),
        )
        return blocks * modules


ALL_KINDS = tuple(kind for kind, _ in DEFAULT_EDIT_MIX)

WORKLOADS: dict[str, Workload] = {
    w.name: w
    for w in (
        # Table 2's setting: compile layers dominate; body and
        # add-function edits write dormancy records, the rest read them.
        Workload("medium-mixed-j1", "medium", 1, ALL_KINDS, 2.4),
        # One of 17 units dirty per build: decoding and linking 16 cached
        # objects, DB load/save with the embedded state, the size gauge.
        Workload(
            "large-local-j1",
            "large",
            1,
            (EditKind.CONST_TWEAK, EditKind.BODY, EditKind.COMMENT),
            1.6,
        ),
        # Several units dirty, most functions unchanged: read-heavy
        # dormancy lookups, the process pool and the snapshot/merge path.
        Workload("large-header-j2", "large", 2, (EditKind.HEADER_CONST,), 0.95),
    )
}


def tail_percentile(builds: int) -> int:
    """Highest whole percentile with at least ``TAIL_BEYOND`` builds beyond it."""
    return math.floor(100 * (1 - TAIL_BEYOND / builds))


def _deal(mix: list[tuple[EditKind, float]], length: int) -> list[EditKind]:
    """``length`` edit kinds in the mix's proportions (largest remainder)."""
    exact = [(kind, weight * length) for kind, weight in mix]
    counts = {kind: math.floor(share) for kind, share in exact}
    by_remainder = sorted(exact, key=lambda item: item[1] - math.floor(item[1]), reverse=True)
    for kind, _ in by_remainder[: length - sum(counts.values())]:
        counts[kind] += 1
    return [kind for kind, count in counts.items() for _ in range(count)]


def edit_trace(workload: Workload, seed: int, length: int) -> list[Edit]:
    """The seeded edit trace, drawn against the evolving preset spec.

    The draw is stratified so that runs with different seeds do the same
    work: every block of ``len(modules)`` steps edits each module once,
    in a seeded order, and the trace holds each edit kind in the mix's
    proportion, in a seeded order.  The seed still picks the order and
    the edited functions.  With independent draws
    (``random_edit_sequence``) the number of header edits in a 64-step
    medium trace varies by about +-40% between seeds, and with it the
    trace's total build time.
    """
    spec = make_preset(workload.preset)
    rng = random.Random(f"perfbench\x1f{workload.name}\x1f{seed}")
    kinds = _deal(workload.mix(), length)
    rng.shuffle(kinds)
    modules: list[str] = []
    edits = []
    for kind in kinds:
        if not modules:
            modules = [m.name for m in spec.modules]
            rng.shuffle(modules)
        module = spec.module_by_name(modules.pop())
        function = None
        if kind in (EditKind.BODY, EditKind.CONST_TWEAK):
            function = rng.choice(module.functions).name
        edit = Edit(kind, module.name, function)
        edits.append(edit)
        spec = apply_edit(spec, edit)
    return edits


# -- building through the CLI ------------------------------------------------


@dataclass
class Build:
    """One ``reprobuild`` invocation as the benchmark saw it."""

    wall: float
    exit_code: int | None
    stderr: str
    report: object | None  # repro.buildsys.report.BuildReport


@contextlib.contextmanager
def capture_reports():
    """Keep the report of each CLI build (the CLI prints, but does not return it).

    Replaces ``repro.cli.IncrementalBuilder`` with a subclass whose only
    extra work is appending the returned report to a list.
    """
    reports: list = []

    class Capturing(IncrementalBuilder):
        def build(self, **kwargs):
            report = super().build(**kwargs)
            reports.append(report)
            return report

    original = repro.cli.IncrementalBuilder
    repro.cli.IncrementalBuilder = Capturing
    try:
        yield reports
    finally:
        repro.cli.IncrementalBuilder = original


@dataclass
class Tree:
    """One variant's on-disk project tree and build DB."""

    variant: str
    root: Path
    #: Built under a :class:`LayerTracer` (the traced run's copies).
    traced: bool = False

    @property
    def name(self) -> str:
        return f"{self.variant}+trace" if self.traced else self.variant

    @property
    def src(self) -> Path:
        return self.root / "src"

    @property
    def db(self) -> Path:
        return self.root / "build.reprodb"

    def argv(self, jobs: int) -> list[str]:
        argv = [str(self.src), "--db", str(self.db), "-j", str(jobs)]
        return argv + (["--stateful"] if self.variant == "stateful" else [])

    def write(self, files: dict[str, str]) -> None:
        for path, text in files.items():
            target = self.src / path
            target.parent.mkdir(parents=True, exist_ok=True)
            target.write_text(text)


# -- output checks -------------------------------------------------------------


@dataclass
class _OracleUnit:
    key: tuple
    headers: list[str]
    module: object  # repro.ir.structure.Module


class O0Oracle:
    """Reference behaviour: ``run_module`` on the ``-O0`` IR of every unit.

    Units are recompiled only when their text or a header they include
    changed, so one check costs little more than the interpreter run.
    """

    def __init__(self) -> None:
        self._units: dict[str, _OracleUnit] = {}

    def behaviour(self, files: dict[str, str]) -> ExecutionResult:
        compiler = Compiler(MemoryFileProvider(files), CompilerOptions(opt_level="O0"))
        modules = []
        for path in sorted(p for p in files if p.endswith(".mc")):
            unit = self._units.get(path)
            if unit is None or unit.key != _text_key(path, unit.headers, files):
                result = compiler.compile_file(path)
                unit = _OracleUnit(
                    _text_key(path, result.headers, files), result.headers, result.module
                )
                self._units[path] = unit
            modules.append(unit.module)
        return run_module(modules)


def _text_key(path: str, headers: list[str], files: dict[str, str]) -> tuple:
    return (files[path], *(files.get(h) for h in headers))


@dataclass
class Setup:
    """One timed set-up: generation, writing and the clean builds."""

    seconds: float
    clean: dict[str, float]
    #: Size and VM steps of the clean build's image.  The clean build
    #: compiles the same program for every seed, so these repeat exactly;
    #: the images of the trace's builds are checked but not counted, as
    #: their size depends on which functions the seed's edits rewrote.
    image_insts: int
    vm_steps: int


@dataclass
class VariantLog:
    """What one variant's builds produced over a replayed trace."""

    walls: list[float] = field(default_factory=list)
    counters: Counter = field(default_factory=Counter)
    #: Compile-layer seconds the process-pool workers reported (``-j`` > 1).
    worker_seconds: dict[str, float] = field(default_factory=lambda: defaultdict(float))
    db_bytes: list[int] = field(default_factory=list)
    state_records: list[int] = field(default_factory=list)
    dirty_units: list[int] = field(default_factory=list)
    tracer: LayerTracer | None = None
    image_insts: int = 0
    vm_steps: int = 0

    def count_signature(self) -> dict[str, int]:
        """The deterministic counts two runs of one seed must repeat."""
        return {
            **{key: self.counters[key] for key in COUNTERS},
            "image_insts": self.image_insts,
            "vm_steps": self.vm_steps,
        }


def _worker_seconds(report) -> dict[str, float]:
    """Compile-layer seconds that ran inside pool workers, from the report."""
    timings = report.metrics.get("timings", {})

    def total(key: str) -> float:
        return timings.get(key, {}).get("total", 0.0)

    frontend = total("compile.frontend_time")
    lowering = total("compile.lowering_time")
    passes = total("compile.passes_time")
    backend = total("compile.backend_time")
    fingerprint = total("fingerprint.time")
    unit_wall = sum(unit.wall_time for unit in report.compiled)
    return {
        "frontend": frontend,
        "lowering": lowering,
        # Worker-side pass time still includes the dormancy lookups and
        # record writes, which only a driver-side wrapper could split out.
        "passes": passes - fingerprint,
        "fingerprint": fingerprint,
        "backend": backend,
        # The IR verifier runs between passes and backend; no report
        # field times it, so it is the unit wall not covered above.
        "verifier": max(0.0, unit_wall - frontend - lowering - passes - backend),
    }


class Session:
    """One workload's variant trees and the checks over their builds.

    The traced run keeps a traced copy of each variant's tree beside the
    untraced one and builds all four after every edit, so the tracing
    overhead and the determinism check compare builds made side by side.
    """

    def __init__(self, workload: Workload, workdir: Path, *, traced: bool = False):
        self.workload = workload
        self.workdir = Path(workdir)
        trees = [Tree(v, self.workdir / v) for v in VARIANTS]
        if traced:
            trees += [Tree(v, self.workdir / f"{v}-trace", traced=True) for v in VARIANTS]
        self.trees = {tree.name: tree for tree in trees}
        self.oracle = O0Oracle()
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self.files: dict[str, str] = {}
        self.spec = make_preset(workload.preset)

    # -- one step -----------------------------------------------------------

    def _build(self, tree: Tree, reports: list, tracer: LayerTracer | None) -> Build:
        main = repro.cli.reprobuild_main
        argv = tree.argv(self.workload.jobs)
        stderr = io.StringIO()
        reports.clear()
        exit_code: int | None = None
        if tracer is not None:
            tracer.install()
            main = tracer.timed(ROOT_LAYER, main)
        start = time.perf_counter()
        try:
            with contextlib.redirect_stderr(stderr):
                exit_code = main(argv)
        except Exception as exc:  # a crash is a failed build, not a dead benchmark
            stderr.write(f"{type(exc).__name__}: {exc}")
        finally:
            wall = time.perf_counter() - start
            if tracer is not None:
                tracer.uninstall()
        self.attempted += 1
        return Build(wall, exit_code, stderr.getvalue(), reports[-1] if reports else None)

    def _build_all(
        self, trees: dict[str, Tree], step: int, reports: list, logs=None
    ) -> dict[str, Build]:
        """Build every tree once, rotating which goes first from step to step."""
        names = list(trees)
        shift = step % len(names)
        builds = {}
        for name in names[shift:] + names[:shift]:
            tracer = logs[name].tracer if logs is not None else None
            builds[name] = self._build(trees[name], reports, tracer)
        return builds

    def _check(self, step: str, builds: dict[str, Build], files: dict[str, str]) -> dict[str, int]:
        """Run every output check on one step's builds; returns VM steps per tree.

        Every tree holds the same files, so every image must equal the
        untraced stateless one, and must behave like the -O0 oracle.
        """
        failed: set[str] = set()
        images = {}
        for name, build in builds.items():
            if build.exit_code != 0 or build.report is None or build.report.image is None:
                last = build.stderr.strip().splitlines()[-1:] or ["no output"]
                self.failures.append(
                    f"{step} {name}: reprobuild exited {build.exit_code}: {last[0]}"
                )
                failed.add(name)
            else:
                images[name] = build.report.image.to_json()
        reference = images.get("stateless")
        for name, image in images.items():
            if reference is not None and image != reference:
                self.failures.append(f"{step} {name}: image differs from stateless image")
                failed.add(name)
        vm_steps = {}
        if images:
            expected = self.oracle.behaviour(files)
            runs: dict[str, ExecutionResult] = {}
            for name, image in images.items():
                if image not in runs:
                    runs[image] = VirtualMachine(builds[name].report.image).run()
                outcome = runs[image]
                vm_steps[name] = outcome.steps
                if not outcome.same_behaviour(expected):
                    self.failures.append(
                        f"{step} {name}: VM output {outcome.output}/{outcome.exit_code} "
                        f"!= -O0 oracle {expected.output}/{expected.exit_code}"
                    )
                    failed.add(name)
        self.failed += len(failed)
        return vm_steps

    # -- set-up and replay ----------------------------------------------------

    def setup(self, repeat: int = 0, *, aside: bool = False) -> Setup:
        """Generate, write and clean-build every tree of the preset project.

        ``aside`` builds a throwaway copy of the trees beside the trace's
        own, so set-up can be timed again in the middle of a replay.
        """
        trees = self.trees
        if aside:
            trees = {n: Tree(t.variant, self.workdir / "aside" / n) for n, t in trees.items()}
        for tree in trees.values():
            shutil.rmtree(tree.root, ignore_errors=True)
        start = time.perf_counter()
        spec = make_preset(self.workload.preset)
        files = generate_project(spec).files
        for tree in trees.values():
            tree.write(files)
        with capture_reports() as reports:
            builds = self._build_all(trees, repeat, reports)
        elapsed = time.perf_counter() - start
        vm_steps = self._check(f"clean build {repeat}", builds, files)
        if aside:
            shutil.rmtree(self.workdir / "aside", ignore_errors=True)
        else:
            self.spec, self.files = spec, files
        image = builds["stateful"].report.image if builds["stateful"].report else None
        return Setup(
            seconds=elapsed,
            clean={name: build.wall for name, build in builds.items()},
            image_insts=image.num_instructions if image is not None else 0,
            vm_steps=vm_steps.get("stateful", 0),
        )

    def new_logs(self) -> dict[str, VariantLog]:
        return {
            name: VariantLog(tracer=LayerTracer() if tree.traced else None)
            for name, tree in self.trees.items()
        }

    def replay(self, edits, logs: dict[str, VariantLog], first_step: int = 0) -> None:
        """Apply ``edits`` one by one, building every tree after each."""
        spec = self.spec
        with capture_reports() as reports:
            for i, edit in enumerate(edits, start=first_step):
                spec = apply_edit(spec, edit)
                files = generate_project(spec).files
                changed = {p: t for p, t in files.items() if self.files.get(p) != t}
                self.files = files
                for tree in self.trees.values():
                    tree.write(changed)
                builds = self._build_all(self.trees, i, reports, logs)
                vm_steps = self._check(f"step {i} ({edit.describe()})", builds, files)
                for name, build in builds.items():
                    self._record(logs[name], self.trees[name], build, vm_steps.get(name, 0))
        self.spec = spec

    def _record(self, log: VariantLog, tree: Tree, build: Build, vm_steps: int) -> None:
        log.walls.append(build.wall)
        log.db_bytes.append(tree.db.stat().st_size if tree.db.exists() else 0)
        report = build.report
        if report is None:
            return
        counters = report.metrics.get("counters", {})
        gauges = report.metrics.get("gauges", {})
        for key in COUNTERS:
            log.counters[key] += counters.get(key, 0)
        log.state_records.append(gauges.get("state.records", 0))
        log.dirty_units.append(gauges.get("build.dirty", 0))
        if report.jobs > 1:
            for layer, seconds in _worker_seconds(report).items():
                log.worker_seconds[layer] += seconds
        if report.image is not None:
            log.image_insts = report.image.num_instructions
        log.vm_steps = vm_steps


# -- metrics ---------------------------------------------------------------------


def _quantile(values: list[float], percentile: int) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[percentile - 1]


def end_to_end(
    setups: list[Setup],
    logs: dict[str, VariantLog],
    session: Session,
    peak_rss_mb: float,
) -> dict[str, tuple[float, str]]:
    """The user-visible metrics of one untraced run, as ``name -> (value, unit)``."""
    metrics: dict[str, tuple[float, str]] = {}
    for v in VARIANTS:
        walls = logs[v].walls
        metrics[f"incr_ms_p50.{v}"] = (1000 * statistics.median(walls), "ms")
        metrics[f"incr_ms_tail.{v}"] = (
            1000 * _quantile(walls, tail_percentile(len(walls))),
            "ms",
        )
        metrics[f"trace_s.{v}"] = (sum(walls), "s")
        metrics[f"clean_s.{v}"] = (statistics.median(s.clean[v] for s in setups), "s")
        metrics[f"db_bytes.{v}"] = (logs[v].db_bytes[-1], "bytes")
    metrics["setup_s"] = (statistics.median(s.seconds for s in setups), "s")
    metrics["peak_rss_mb"] = (peak_rss_mb, "MB")
    metrics["image_insts"] = (setups[0].image_insts, "count")
    metrics["vm_steps"] = (setups[0].vm_steps, "count")
    metrics["ok_ratio"] = (1 - session.failed / session.attempted, "ratio")
    return metrics


def _ms_metric(layer: str) -> str:
    return f"{layer}_ms" if "." in layer else f"{layer}.ms"


def per_layer(logs: dict[str, VariantLog], session: Session) -> dict[str, tuple[float, str]]:
    """Per-build layer metrics of a traced replay, as ``name -> (value, unit)``."""
    metrics: dict[str, tuple[float, str]] = {}
    for v in VARIANTS:
        log = logs[f"{v}+trace"]
        builds = len(log.walls)
        tracer = log.tracer
        for layer in (*LAYER_TARGETS, ROOT_LAYER):
            seconds = tracer.self_seconds[layer] + log.worker_seconds.get(layer, 0.0)
            metrics[f"{_ms_metric(layer)}.{v}"] = (1000 * seconds / builds, "ms")
        executed = log.counters["passes.executed"]
        bypassed = log.counters["passes.bypassed"]
        per_build = {
            "builddb.bytes": (statistics.mean(log.db_bytes), "bytes"),
            "objfile.decode.count": (tracer.calls["objfile.decode"] / builds, "count"),
            "state.lookups": (log.counters["state.lookups"] / builds, "count"),
            "state.remembers": (log.counters["state.records_written"] / builds, "count"),
            "state.records": (statistics.mean(log.state_records or [0]), "count"),
            "fingerprint.count": (log.counters["fingerprint.count"] / builds, "count"),
            "passes.executed": (executed / builds, "count"),
            "passes.bypassed": (bypassed / builds, "count"),
            "bypass_ratio": (bypassed / max(1, executed + bypassed), "ratio"),
            "passes.work": (log.counters["passes.work"] / builds, "count"),
            "units.dirty": (statistics.mean(log.dirty_units or [0]), "count"),
            "build_ms": (1000 * statistics.mean(log.walls), "ms"),
            "trace.overhead": (sum(log.walls) / sum(logs[v].walls) - 1, "ratio"),
            "coverage": (coverage(log), "ratio"),
        }
        for name, value in per_build.items():
            metrics[f"{name}.{v}"] = value
    metrics["fail_ratio"] = (session.failed / session.attempted, "ratio")
    return metrics


def coverage(log: VariantLog) -> float:
    """Layer self times plus the CLI residual, as a share of the measured build wall."""
    return sum(log.tracer.self_seconds.values()) / sum(log.walls)


def peak_rss_mb() -> float:
    import resource

    return max(
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
    ) / 1024


# -- a whole run -------------------------------------------------------------------


@dataclass
class RunResult:
    metrics: dict[str, tuple[float, str]]
    attempted: int
    failed: int
    failures: list[str]
    #: Problems with the measurement itself (coverage, wrappers left installed).
    errors: list[str]
    #: Counts that differed between the untraced and traced builds of one
    #: edit trace.  They are measurement defects of the program (a counter
    #: that is not a function of its input), not wrong output.
    mismatches: list[str]
    notes: list[str]

    @property
    def correct(self) -> bool:
        return not self.failures and not self.errors


#: Largest gap allowed between the summed self times and the measured wall.
COVERAGE_TOLERANCE = 0.01


def run(workload: Workload, seed: int, seconds: float, trace: bool, workdir: Path) -> RunResult:
    """One run of ``workload``: end-to-end metrics, or with ``trace`` the per-layer ones."""
    session = Session(workload, workdir, traced=trace)
    length = workload.trace_length(seconds)
    errors: list[str] = []
    mismatches: list[str] = []
    notes: list[str] = []
    start = time.perf_counter()
    try:
        if not trace:
            # Set-up is timed at the start, the middle and the end of the
            # run, so its median does not rest on one moment of a host
            # whose speed drifts over tens of seconds.
            edits = edit_trace(workload, seed, length)
            logs = session.new_logs()
            setups = [session.setup(0)]
            parts = SETUP_REPEATS - 1
            for r in range(parts):
                chunk = edits[r * length // parts:(r + 1) * length // parts]
                session.replay(chunk, logs, first_step=r * length // parts)
                setups.append(session.setup(r + 1, aside=True))
            metrics = end_to_end(setups, logs, session, peak_rss_mb())
            p50 = {v: metrics[f"incr_ms_p50.{v}"][0] for v in VARIANTS}
            notes.append(
                f"{length} edits per variant; tail = p{tail_percentile(length)}; "
                f"stateful speedup (stateless p50 / stateful p50) = "
                f"{p50['stateless'] / p50['stateful']:.3f}"
            )
        else:
            # Four trees build in turn: an untraced and a traced copy of
            # each variant.  Their counts must agree exactly, and their
            # wall gap is the tracing overhead.
            modules = len(session.spec.modules)
            edits = edit_trace(workload, seed, max(modules, length // 2 // modules * modules))
            session.setup()
            logs = session.new_logs()
            session.replay(edits, logs)
            for v in VARIANTS:
                plain, traced = logs[v].count_signature(), logs[f"{v}+trace"].count_signature()
                for key in plain:
                    if plain[key] != traced[key]:
                        mismatches.append(
                            f"{v} {key}: {plain[key]} untraced vs {traced[key]} traced"
                        )
                gap = abs(coverage(logs[f"{v}+trace"]) - 1)
                if gap > COVERAGE_TOLERANCE:
                    errors.append(f"coverage: {v} layer self times miss {gap:.1%} of build wall")
            leftover = still_wrapped()
            if leftover:
                errors.append(f"wrappers left installed after the traced run: {leftover}")
            metrics = per_layer(logs, session)
            metrics["determinism.mismatches"] = (len(mismatches), "count")
            notes.append(f"{len(edits)} edits, each built untraced and traced per variant")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    notes.append(f"measured for {time.perf_counter() - start:.1f} s in total")
    return RunResult(
        metrics, session.attempted, session.failed, session.failures, errors, mismatches, notes
    )
