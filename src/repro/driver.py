"""Compiler driver: source text -> object file, stateless or stateful.

This is the programmatic equivalent of invoking ``reproc``: it runs the
frontend, lowering, the (possibly stateful) pass pipeline, and the
backend, returning the object file plus the compile's metrics registry
(pass outcomes, stage timings, statefulness cost) the build system and
experiments consume.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

from repro.backend.objfile import ObjectFile, compile_module_to_object
from repro.core.state import CompilerState, pipeline_signature_of
from repro.core.stateful import StatefulPassManager
from repro.frontend.includes import FileProvider, IncludeResolver
from repro.frontend.sema import analyze
from repro.ir.structure import Module
from repro.ir.verifier import verify_module
from repro.lowering import lower_program
from repro.obs.metrics import MetricsRegistry
from repro.obs.trace import NULL_TRACER, NullTracer
from repro.passmanager.manager import PassManager
from repro.passmanager.pipeline import PassPipeline, build_pipeline


@dataclass
class CompilerOptions:
    """Configuration for one compiler instance."""

    opt_level: str = "O2"
    stateful: bool = False
    fingerprint_mode: str = "canonical"
    #: Verify IR after every pass (testing only; large slowdown).
    verify_each: bool = False
    #: Verify the final module before codegen.
    verify_output: bool = True


@dataclass
class CompileResult:
    """Everything produced by compiling one translation unit."""

    module: Module
    object_file: ObjectFile
    headers: list[str] = field(default_factory=list)
    #: The compile's one record: pass outcomes (``passes.*``,
    #: ``pass.<name>.*``), stage timings (``compile.<stage>_time``) and,
    #: when stateful, fingerprint and state-record cost.
    metrics: MetricsRegistry = field(default_factory=MetricsRegistry)

    @property
    def pass_work(self) -> int:
        """Deterministic pass cost, module-prelude passes included."""
        return self.metrics.count("passes.work") + self.metrics.count(
            "passes.module_work"
        )


class Compiler:
    """A compiler instance, optionally stateful.

    One instance per build: the stateful variant carries a
    :class:`CompilerState` that callers load before and save after the
    build (the build system does this).
    """

    def __init__(
        self,
        provider: FileProvider,
        options: CompilerOptions | None = None,
        state: CompilerState | None = None,
        *,
        tracer: NullTracer = NULL_TRACER,
    ):
        self.provider = provider
        self.options = options or CompilerOptions()
        self.tracer = tracer
        self.resolver = IncludeResolver(provider)
        self.pipeline: PassPipeline = build_pipeline(self.options.opt_level)
        if self.options.stateful:
            self.state = state or CompilerState(
                pipeline_signature=pipeline_signature_of(self.pipeline),
                fingerprint_mode=self.options.fingerprint_mode,
            )
        else:
            self.state = None

    @property
    def pipeline_signature(self) -> str:
        return pipeline_signature_of(self.pipeline)

    def _make_pass_manager(self) -> PassManager:
        if self.options.stateful:
            assert self.state is not None
            return StatefulPassManager(
                build_pipeline(self.options.opt_level),
                self.state,
                verify_each=self.options.verify_each,
                tracer=self.tracer,
            )
        return PassManager(
            build_pipeline(self.options.opt_level),
            verify_each=self.options.verify_each,
            tracer=self.tracer,
        )

    def compile_source(self, name: str, text: str) -> CompileResult:
        """Compile one translation unit's text to an object file."""
        unit_start = time.perf_counter()
        manager = self._make_pass_manager()
        metrics = manager.metrics
        if self.state is not None:
            # Record churn and GC land beside the pass counters.
            self.state.attach_metrics(metrics)

        start = time.perf_counter()
        unit = self.resolver.resolve(name, text)
        sema = analyze(unit.merged)
        self._stage_done("frontend", start, name, metrics)

        start = time.perf_counter()
        module = lower_program(unit.merged, sema, name)
        self._stage_done("lowering", start, name, metrics)

        start = time.perf_counter()
        manager.run(module)
        self._stage_done("passes", start, name, metrics)

        if self.options.verify_output:
            verify_module(module)

        start = time.perf_counter()
        object_file = compile_module_to_object(module)
        self._stage_done("backend", start, name, metrics)
        self.tracer.add(
            name, "unit", unit_start, time.perf_counter() - unit_start
        )
        return CompileResult(
            module=module,
            object_file=object_file,
            headers=list(unit.headers),
            metrics=metrics,
        )

    def _stage_done(
        self, stage: str, start: float, unit: str, metrics: MetricsRegistry
    ) -> None:
        elapsed = time.perf_counter() - start
        self.tracer.add(stage, "phase", start, elapsed, unit=unit)
        metrics.observe(f"compile.{stage}_time", elapsed)

    def compile_file(self, path: str) -> CompileResult:
        """Compile a translation unit read through the file provider."""
        return self.compile_source(path, self.provider.read(path))
