"""Self-profiling: ``cProfile`` around build phases (``--profile``).

One :class:`BuildProfiler` lives for one build.  The driver wraps each
of its phases (scan, compile, link) in :meth:`phase`; on the
``-j N`` path each worker profiles its own compiles and ships the raw
``cProfile`` stats table back inside its picklable outcome, which the
driver folds into the ``compile-workers`` phase via :meth:`absorb` —
so one build yields one coherent profile even across process pools.

Two outputs:

- :meth:`write_pstats` — one ``<phase>.pstats`` file per phase, in the
  standard marshal format ``pstats.Stats`` (and snakeviz etc.) load;
- :meth:`to_payload` — a JSON-ready summary (per-phase totals plus the
  top-N hotspots by own-time) that the build-history store persists,
  so "where did this build spend its time" is answerable later without
  keeping the full tables around.

Profiling is strictly opt-in: the driver defaults to
:data:`NULL_PROFILER`, whose operations are all no-ops, and the bench
guard asserts the default path stays that way.  ``phase`` blocks must
not nest — ``cProfile`` allows one active profiler per thread.
"""

from __future__ import annotations

import cProfile
import marshal
import re
from contextlib import contextmanager
from pathlib import Path

PROFILE_SCHEMA_VERSION = 1

#: Phase name the driver absorbs worker-side compile profiles into.
WORKER_PHASE = "compile-workers"

#: ``cProfile`` stats entry: ``(file, line, func) -> (cc, nc, tt, ct)``
#: with the callers table stripped (it dwarfs the rest and nothing here
#: consumes it).
StatsTable = dict


def profile_stats_table(profile: cProfile.Profile) -> StatsTable:
    """Extract a picklable, callers-free stats table from a profile."""
    profile.create_stats()
    return {key: value[:4] for key, value in profile.stats.items()}


def merge_stats_tables(into: StatsTable, table: StatsTable) -> None:
    """Sum one stats table into another (all four columns add)."""
    for key, (cc, nc, tt, ct) in table.items():
        if key in into:
            occ, onc, ott, oct = into[key]
            into[key] = (occ + cc, onc + nc, ott + tt, oct + ct)
        else:
            into[key] = (cc, nc, tt, ct)


def _format_site(key: tuple) -> str:
    """``(file, line, func)`` -> the pstats-style ``file:line(func)``."""
    filename, lineno, funcname = key
    if filename == "~" and lineno == 0:  # builtins
        return funcname
    return f"{Path(filename).name}:{lineno}({funcname})"


class NullBuildProfiler:
    """The disabled profiler: every operation is a no-op.

    Base class of :class:`BuildProfiler` so the driver never branches —
    it unconditionally enters ``profiler.phase(...)`` blocks and calls
    ``absorb``/``to_payload``, and dispatch does the rest.
    """

    enabled = False

    @contextmanager
    def phase(self, name: str):
        yield

    def absorb(self, name: str, table: StatsTable | None) -> None:
        return None

    def write_pstats(self, directory: str | Path) -> list[Path]:
        return []

    def hotspots(self, top: int = 10) -> list[dict]:
        return []

    def to_payload(self, top: int = 10) -> dict:
        return {}


NULL_PROFILER = NullBuildProfiler()


class BuildProfiler(NullBuildProfiler):
    """Collects per-phase ``cProfile`` stats for one build."""

    enabled = True

    def __init__(self):
        self.phases: dict[str, StatsTable] = {}

    @contextmanager
    def phase(self, name: str):
        """Profile one non-nested driver phase under ``name``."""
        profile = cProfile.Profile()
        profile.enable()
        try:
            yield
        finally:
            profile.disable()
            self.absorb(name, profile_stats_table(profile))

    def absorb(self, name: str, table: StatsTable | None) -> None:
        """Fold a stats table (e.g. a worker's) into phase ``name``."""
        if not table:
            return
        merge_stats_tables(self.phases.setdefault(name, {}), table)

    # -- outputs -------------------------------------------------------------

    def write_pstats(self, directory: str | Path) -> list[Path]:
        """Write one ``<phase>.pstats`` per phase; returns the paths.

        The files are the standard marshal dump ``pstats.Stats``
        expects; callers tables were stripped at collection, which
        pstats tolerates (caller/callee views are simply empty).
        """
        from repro.persist import atomic_write

        directory = Path(directory)
        directory.mkdir(parents=True, exist_ok=True)
        written = []
        for name, table in sorted(self.phases.items()):
            safe = re.sub(r"[^A-Za-z0-9._-]", "_", name)
            path = directory / f"{safe}.pstats"
            data = marshal.dumps({key: (*row, {}) for key, row in table.items()})
            atomic_write(path, data, checksum=False)
            written.append(path)
        return written

    def hotspots(self, top: int = 10) -> list[dict]:
        """Top functions across all phases, by own (non-cumulative) time."""
        merged: StatsTable = {}
        for table in self.phases.values():
            merge_stats_tables(merged, table)
        ranked = sorted(merged.items(), key=lambda item: item[1][2], reverse=True)
        return [
            {
                "function": _format_site(key),
                "calls": nc,
                "tottime": round(tt, 6),
                "cumtime": round(ct, 6),
            }
            for key, (cc, nc, tt, ct) in ranked[:top]
        ]

    def to_payload(self, top: int = 10) -> dict:
        """JSON-ready summary for the build-history record."""
        return {
            "schema": PROFILE_SCHEMA_VERSION,
            "phases": {
                name: {
                    "functions": len(table),
                    "calls": sum(nc for _, nc, _, _ in table.values()),
                    "tottime": round(sum(tt for _, _, tt, _ in table.values()), 6),
                }
                for name, table in sorted(self.phases.items())
            },
            "hotspots": self.hotspots(top),
        }
