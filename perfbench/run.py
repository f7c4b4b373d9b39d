"""Run one workload of the ``reprobuild`` edit-trace benchmark.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload medium-mixed-j1 --seed 1 --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics; ``--trace 1`` makes the
separate traced run that gives the per-layer metrics.  Every metric is
printed by name with its unit, then the output checks; the last line
of standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.  A completed run exits 0 even when a check
failed; ``correct`` and the ``FAILED`` lines say so.  The program under
test is imported from ``src/`` of the current directory and nowhere
else: without it the command exits with status 2 and prints no result.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

#: Where the runs build their two project trees (removed afterwards).
WORK_DIR = ".perfbench_work"


def _import_program(root: Path):
    src = root / "src"
    if not (src / "repro" / "__init__.py").is_file():
        raise ImportError(f"no program under test: {src / 'repro'} is missing")
    sys.path.insert(0, str(src))
    import repro

    if Path(repro.__file__).resolve().parent != (src / "repro").resolve():
        raise ImportError(f"imported repro from {repro.__file__}, not from {src}")
    import editbench

    return editbench


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    try:
        editbench = _import_program(root)
    except ImportError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    workload = editbench.WORKLOADS.get(args.workload)
    if workload is None:
        print(
            f"perfbench: unknown workload {args.workload!r}; "
            f"choose from {sorted(editbench.WORKLOADS)}",
            file=sys.stderr,
        )
        return 2

    workdir = root / WORK_DIR / f"{workload.name}-{os.getpid()}"
    result = editbench.run(workload, args.seed, args.seconds, bool(args.trace), workdir)
    try:
        workdir.parent.rmdir()
    except OSError:  # another run still uses it
        pass

    for name, (value, unit) in result.metrics.items():
        print(f"{name} = {value:.6g} {unit}")
    for note in result.notes:
        print(f"note: {note}")
    print(
        f"checks: {result.attempted - result.failed}/{result.attempted} builds passed "
        "(exit 0, stateful image == stateless image, VM output == -O0 oracle)"
    )
    for failure in result.failures:
        print(f"FAILED {failure}")
    for error in result.errors:
        print(f"ERROR {error}")
    for mismatch in result.mismatches:
        # Loud on both streams: a count that does not repeat cannot back a claim.
        print(f"DETERMINISM FAILED {mismatch}")
        print(f"perfbench: DETERMINISM FAILED {mismatch}", file=sys.stderr)
    print(
        json.dumps(
            {
                "correct": result.correct,
                "attempted": result.attempted,
                "failed": result.failed,
                "metrics": {
                    name: {"value": value, "unit": unit}
                    for name, (value, unit) in result.metrics.items()
                },
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
