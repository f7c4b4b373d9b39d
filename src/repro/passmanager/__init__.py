"""Pass pipeline management and execution."""

from repro.passmanager.manager import PassManager
from repro.passmanager.pipeline import (
    PassPipeline,
    build_pipeline,
    O0_PIPELINE,
    O1_PIPELINE,
    O2_PIPELINE,
)

__all__ = [
    "PassManager",
    "PassPipeline",
    "build_pipeline",
    "O0_PIPELINE",
    "O1_PIPELINE",
    "O2_PIPELINE",
]
