"""Dormancy and bypass accounting for compilations.

:class:`BypassStatistics` is the paper's headline ledger: executed vs
dormant vs bypassed function-pass runs, with a per-pass breakdown.
It is derived from the metrics registry the pass manager reports into
(:meth:`BypassStatistics.from_metrics`), the one record of pass
outcomes.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.obs.metrics import MetricsRegistry

#: Counter-name prefix for per-pass breakdowns in a metrics registry.
PASS_METRIC_PREFIX = "pass."
_BY_PASS_KEYS = ("executed", "dormant", "bypassed", "work")


@dataclass
class BypassStatistics:
    """Aggregated counters for one (or several merged) compilations."""

    executions: int = 0
    dormant_executions: int = 0
    bypassed: int = 0
    work_executed: int = 0
    by_pass: dict[str, dict[str, int]] = field(default_factory=dict)

    @property
    def dormancy_ratio(self) -> float:
        """Fraction of executed function-pass runs that changed nothing."""
        return self.dormant_executions / self.executions if self.executions else 0.0

    @property
    def bypass_ratio(self) -> float:
        """Fraction of scheduled function-pass runs that were skipped."""
        total = self.executions + self.bypassed
        return self.bypassed / total if total else 0.0

    def merge(self, other: "BypassStatistics") -> None:
        self.executions += other.executions
        self.dormant_executions += other.dormant_executions
        self.bypassed += other.bypassed
        self.work_executed += other.work_executed
        for name, counters in other.by_pass.items():
            mine = self.by_pass.setdefault(
                name, {"executed": 0, "dormant": 0, "bypassed": 0, "work": 0}
            )
            for key, value in counters.items():
                mine[key] += value

    # -- (de)serialization for machine-readable build reports ----------------

    def to_dict(self) -> dict:
        return {
            "executions": self.executions,
            "dormant_executions": self.dormant_executions,
            "bypassed": self.bypassed,
            "work_executed": self.work_executed,
            "by_pass": {
                name: dict(counters) for name, counters in sorted(self.by_pass.items())
            },
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "BypassStatistics":
        stats = cls(
            executions=int(payload.get("executions", 0)),
            dormant_executions=int(payload.get("dormant_executions", 0)),
            bypassed=int(payload.get("bypassed", 0)),
            work_executed=int(payload.get("work_executed", 0)),
        )
        for name, counters in payload.get("by_pass", {}).items():
            stats.by_pass[name] = {
                key: int(counters.get(key, 0)) for key in _BY_PASS_KEYS
            }
        return stats

    @classmethod
    def from_metrics(cls, metrics: MetricsRegistry) -> "BypassStatistics":
        """Derive the ledger from pass-manager counters.

        The registry is the source of truth the pass manager writes
        (``passes.*`` totals, ``pass.<name>.<counter>`` breakdowns).
        Module-prelude passes count under ``passes.module_*`` and stay
        outside the ledger: the dormancy mechanism covers function
        passes only.
        """
        stats = cls(
            executions=metrics.count("passes.executed"),
            dormant_executions=metrics.count("passes.dormant"),
            bypassed=metrics.count("passes.bypassed"),
            work_executed=metrics.count("passes.work"),
        )
        for name, counter in metrics.counters.items():
            if not name.startswith(PASS_METRIC_PREFIX):
                continue
            pass_name, _, key = name[len(PASS_METRIC_PREFIX):].rpartition(".")
            if not pass_name or key not in _BY_PASS_KEYS:
                continue
            per = stats.by_pass.setdefault(
                pass_name, {"executed": 0, "dormant": 0, "bypassed": 0, "work": 0}
            )
            per[key] += counter.value
        return stats

