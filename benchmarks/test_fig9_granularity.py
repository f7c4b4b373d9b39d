"""Figure 9 — ablation: bypass granularity.

The paper's central claim is that *fine-grained* (function × pass)
state monetizes every dormant tail.  The coarse all-or-nothing arm is
gone: it can only skip a function whose previous pipeline was entirely
dormant, and position 0 (``mem2reg``) never is on freshly lowered IR
(Figure 3), so it bypassed 0% of passes.  Fine is compared with none.
"""

from bench_util import DEFAULT_SEED, MEDIUM_PRESET, publish, run_once

from repro.bench.sweeps import granularity_ablation
from repro.bench.tables import format_table


def test_fig9_granularity_ablation(benchmark):
    summary = run_once(
        benchmark,
        lambda: granularity_ablation(MEDIUM_PRESET, num_edits=6, seed=DEFAULT_SEED),
    )
    table = format_table(
        ["variant", "incremental s", "pass work", "bypassed"],
        [
            [name, f"{s.total_time:.3f}", s.total_work, f"{s.bypass_ratio:.0%}"]
            for name, s in summary.items()
        ],
        title="Figure 9: bypass granularity ablation (edit trace, incremental builds)",
    )
    publish("fig9_granularity", table)

    fine = summary["fine (function x pass)"]
    none = summary["none (stateless)"]
    # Shape: fine bypasses passes and does less work than none.
    assert fine.bypass_ratio > 0.0
    assert fine.total_work < none.total_work
    assert none.bypass_ratio == 0.0
