"""Per-layer tracing from outside the program.

A :class:`LayerTracer` replaces each layer's public function with a
timing wrapper, at the name the caller looks it up under (a module
global such as ``repro.driver.analyze`` or a class attribute such as
``CompilerState.lookup``), and restores the originals on exit.  Nothing
inside ``src`` is instrumented.

A wrapper's *self time* is its duration minus the time of the wrapped
calls nested inside it, so the self times of all layers plus the root's
residual add up to the root's wall time with nothing counted twice.
Only the thread that created the tracer records; calls from other
threads (a thread-pool fallback) pass through.  Pool workers forked
while the wrappers are installed record into their own copy of the
tracer, which is discarded with them.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import threading
import time
from collections import defaultdict
from dataclasses import dataclass

#: Layer name -> the functions it covers, as ``module:attribute.path``.
#: A layer listing several functions adds their self times together.
LAYER_TARGETS: dict[str, tuple[str, ...]] = {
    "builddb.load": ("repro.buildsys.builddb:BuildDatabase.load_or_empty",),
    "builddb.save": ("repro.buildsys.builddb:BuildDatabase.save",),
    "objfile.decode": ("repro.backend.objfile:ObjectFile.from_json",),
    "objfile.encode": ("repro.backend.objfile:ObjectFile.to_json",),
    "linker.link": ("repro.buildsys.incremental:link",),
    "state.size": ("repro.core.state:CompilerState.size_summary",),
    "state.gc": ("repro.core.state:CompilerState.collect_garbage",),
    "state.lookup": ("repro.core.state:CompilerState.lookup",),
    "state.remember": ("repro.core.state:CompilerState.remember",),
    "state.snapshot": ("repro.core.state:CompilerState.snapshot",),
    "state.merge": ("repro.core.state:CompilerState.merge_delta",),
    "fingerprint": ("repro.core.stateful:fingerprint_function",),
    "passes": ("repro.passmanager.manager:PassManager.run",),
    "frontend": (
        "repro.frontend.includes:IncludeResolver.resolve",
        "repro.driver:analyze",
    ),
    "lowering": ("repro.driver:lower_program",),
    "verifier": ("repro.driver:verify_module",),
    "backend": ("repro.driver:compile_module_to_object",),
    "parallel.pool": ("repro.buildsys.incremental:compile_units",),
    "deps.scan": ("repro.buildsys.deps:DependencyScanner.snapshot",),
    "cli.tree_read": ("repro.workload.project:Project.read_from",),
    "persist.lock": (
        "repro.persist.lock:BuildLock.acquire",
        "repro.persist.lock:BuildLock.release",
    ),
    "history": (
        "repro.obs.history:BuildHistory.next_seq",
        "repro.obs.history:HistoryRecord.from_report_payload",
        "repro.obs.history:BuildHistory.append",
    ),
}

#: The layer whose self time is the residual of the traced root call.
ROOT_LAYER = "cli.other"


@dataclass
class _Patch:
    owner: object
    attribute: str
    original: object  # the raw attribute (classmethod objects included)
    owned: bool  # False when the attribute was inherited, not in owner.__dict__


def _resolve(target: str) -> tuple[object, str]:
    module_name, _, path = target.partition(":")
    owner: object = importlib.import_module(module_name)
    *parents, attribute = path.split(".")
    for part in parents:
        owner = getattr(owner, part)
    return owner, attribute


class LayerTracer:
    """Accumulates self time and call counts per layer while installed."""

    def __init__(self, targets: dict[str, tuple[str, ...]] = LAYER_TARGETS):
        self.targets = targets
        self.self_seconds: dict[str, float] = defaultdict(float)
        self.calls: dict[str, int] = defaultdict(int)
        #: One entry per active wrapped call: time of its wrapped children.
        self._child_seconds: list[float] = []
        self._patches: list[_Patch] = []
        self._thread = threading.get_ident()

    def timed(self, layer: str, fn):
        """``fn`` wrapped so its self time accrues to ``layer``."""
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if threading.get_ident() != tracer._thread:
                return fn(*args, **kwargs)
            stack = tracer._child_seconds
            stack.append(0.0)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - start
                tracer.self_seconds[layer] += elapsed - stack.pop()
                tracer.calls[layer] += 1
                if stack:
                    stack[-1] += elapsed

        wrapper.__layer__ = layer
        return wrapper

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer already installed")
        for layer, targets in self.targets.items():
            for target in targets:
                owner, attribute = _resolve(target)
                raw = inspect.getattr_static(owner, attribute)
                owned = not isinstance(owner, type) or attribute in vars(owner)
                if isinstance(raw, classmethod):
                    wrapped = classmethod(self.timed(layer, raw.__func__))
                elif isinstance(raw, staticmethod):
                    wrapped = staticmethod(self.timed(layer, raw.__func__))
                else:
                    wrapped = self.timed(layer, raw)
                setattr(owner, attribute, wrapped)
                self._patches.append(_Patch(owner, attribute, raw, owned))

    def uninstall(self) -> None:
        for patch in reversed(self._patches):
            if patch.owned:
                setattr(patch.owner, patch.attribute, patch.original)
            else:
                delattr(patch.owner, patch.attribute)
        self._patches.clear()

    def __enter__(self) -> "LayerTracer":
        self.install()
        return self

    def __exit__(self, *exc_info) -> None:
        self.uninstall()


def still_wrapped(targets: dict[str, tuple[str, ...]] = LAYER_TARGETS) -> list[str]:
    """Targets that still carry a layer wrapper (empty outside a traced run)."""
    leftover = []
    for layer_targets in targets.values():
        for target in layer_targets:
            owner, attribute = _resolve(target)
            raw = inspect.getattr_static(owner, attribute)
            if hasattr(getattr(raw, "__func__", raw), "__layer__"):
                leftover.append(target)
    return leftover
