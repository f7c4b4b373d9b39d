"""Pass manager: executes a pipeline over a module.

This is the *stateless* manager — every pass runs on every function,
exactly what a conventional compiler does.  The stateful variant
(:class:`repro.core.stateful.StatefulPassManager`) subclasses this and
overrides the single decision point :meth:`should_skip` /
:meth:`on_pass_executed`.

Accounting: the manager's one record of pass outcomes is a
:class:`~repro.obs.metrics.MetricsRegistry` (``passes.*`` totals and
``pass.<name>.*`` breakdowns — the source
:meth:`~repro.core.statistics.BypassStatistics.from_metrics` consumes).
A consumer that needs per-function outcomes overrides
:meth:`on_pass_executed` (the dormancy experiments do).  Pass and
pass-pipeline spans go to a :class:`~repro.obs.trace.Tracer`, a no-op by
default that costs one call per executed pass.
"""

from __future__ import annotations

import logging
import time

from repro.ir.structure import Function, Module
from repro.ir.verifier import verify_module
from repro.obs.metrics import MetricsRegistry
from repro.obs.trace import NULL_TRACER, NullTracer
from repro.passmanager.pipeline import PassPipeline

logger = logging.getLogger(__name__)


class PassManager:
    """Runs a pipeline over modules.

    Parameters
    ----------
    pipeline:
        The optimization plan.
    verify_each:
        Verify the whole module after every pass — slow; enabled in
        tests to catch pass bugs at their source.
    tracer:
        Span sink for pass/pipeline timing (default: disabled).
    metrics:
        Counter registry to report into (default: a private one,
        exposed as :attr:`metrics` so the driver can collect it).
    """

    def __init__(
        self,
        pipeline: PassPipeline,
        *,
        verify_each: bool = False,
        tracer: NullTracer = NULL_TRACER,
        metrics: MetricsRegistry | None = None,
    ):
        self.pipeline = pipeline
        self.verify_each = verify_each
        self.tracer = tracer
        self.metrics = metrics if metrics is not None else MetricsRegistry()

    # -- hooks the stateful subclass overrides -----------------------------

    def begin_function(self, fn: Function, module: Module) -> None:
        """Called before the function pipeline starts on ``fn``."""

    def should_skip(self, fn: Function, module: Module, position: int) -> bool:
        """Decide whether to bypass the pass at ``position`` for ``fn``."""
        return False

    def on_pass_executed(
        self, fn: Function, module: Module, position: int, changed: bool
    ) -> None:
        """Called after the pass at ``position`` ran on ``fn``."""

    # -- execution -----------------------------------------------------------

    def run(self, module: Module) -> None:
        """Run prelude + function pipeline over ``module``."""
        for module_pass in self.pipeline.module_prelude:
            start = time.perf_counter()
            stats = module_pass.run_on_module(module)
            elapsed = time.perf_counter() - start
            self.metrics.inc("passes.module_executed")
            self.metrics.inc("passes.module_work", stats.work)
            self.tracer.add(
                module_pass.name, "pass", start, elapsed, function="<module>"
            )
            if self.verify_each:
                verify_module(module)

        for fn in sorted(module.defined_functions(), key=lambda f: f.name):
            self._run_function_pipeline(fn, module)
        logger.debug(
            "module %s: %d passes executed, %d bypassed",
            module.name,
            self.metrics.count("passes.executed"),
            self.metrics.count("passes.bypassed"),
        )

    def _run_function_pipeline(self, fn: Function, module: Module) -> None:
        pipeline_start = time.perf_counter() if self.tracer.enabled else 0.0
        self.begin_function(fn, module)
        for position, function_pass in enumerate(self.pipeline.function_passes):
            if self.should_skip(fn, module, position):
                self.metrics.inc("passes.bypassed")
                self.metrics.inc(f"pass.{function_pass.name}.bypassed")
                continue
            start = time.perf_counter()
            stats = function_pass.run_on_function(fn, module)
            elapsed = time.perf_counter() - start
            self.on_pass_executed(fn, module, position, stats.changed)
            self.metrics.inc("passes.executed")
            self.metrics.inc("passes.work", stats.work)
            self.metrics.inc(f"pass.{function_pass.name}.executed")
            self.metrics.inc(f"pass.{function_pass.name}.work", stats.work)
            self.metrics.observe(f"pass.{function_pass.name}.time", elapsed)
            if not stats.changed:
                self.metrics.inc("passes.dormant")
                self.metrics.inc(f"pass.{function_pass.name}.dormant")
            self.tracer.add(
                function_pass.name,
                "pass",
                start,
                elapsed,
                function=fn.name,
                changed=stats.changed,
                work=stats.work,
            )
            if self.verify_each:
                verify_module(module)
        if self.tracer.enabled:
            self.tracer.add(
                f"pipeline {fn.name}",
                "pipeline",
                pipeline_start,
                time.perf_counter() - pipeline_start,
                function=fn.name,
            )
