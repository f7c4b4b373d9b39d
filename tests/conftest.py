"""Shared test helpers and fixtures."""

from __future__ import annotations

import pytest

from repro.frontend.ast import Program
from repro.frontend.includes import IncludeResolver, MemoryFileProvider
from repro.frontend.parser import parse_source
from repro.frontend.sema import analyze
from repro.ir.structure import Module
from repro.ir.verifier import verify_module
from repro.lowering import lower_program
from repro.vm.interp import ExecutionResult, run_module


def frontend(source: str, headers: dict[str, str] | None = None):
    """Parse + resolve includes + sema; returns (merged_program, sema)."""
    resolver = IncludeResolver(MemoryFileProvider(headers or {}))
    unit = resolver.resolve("test.mc", source)
    sema = analyze(unit.merged)
    return unit.merged, sema


def lower(source: str, headers: dict[str, str] | None = None) -> Module:
    """Compile source to verified (unoptimized) IR."""
    program, sema = frontend(source, headers)
    module = lower_program(program, sema, "test.mc")
    verify_module(module)
    return module


def execute(source: str, headers: dict[str, str] | None = None, **kwargs) -> ExecutionResult:
    """Lower and interpret; convenience for behavioural tests."""
    return run_module(lower(source, headers), **kwargs)


def parse_ok(source: str) -> Program:
    program, _ = parse_source("test.mc", source)
    return program


@pytest.fixture
def tiny_project():
    """A small deterministic generated project."""
    from repro.workload.generator import generate_project
    from repro.workload.spec import make_preset

    return generate_project(make_preset("tiny", seed=7))
