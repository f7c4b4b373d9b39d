"""Differential correctness fuzzing: stateful must be invisible.

The stateful compiler's contract is that bypassing changes *nothing*
observable: across any edit history, a stateful incremental build (at
any ``-j``) must produce bit-identical output to a stateless clean
build of the same tree.  This module turns that contract into a
fuzzable property:

1. generate a project from a seeded preset and a seeded random edit
   trace (:mod:`repro.workload`) with one *effect flip* mixed in: a
   function's body is swapped for a fixed pure one (or back), which
   flips its purity while its callers' text stays the same;
2. replay the trace three ways — clean stateless rebuilds (the
   reference), stateful incremental at ``-j 1``, and stateful
   incremental at ``-j N``;
3. after every step compare linked images byte-for-byte
   (:meth:`~repro.backend.linker.LinkedImage.to_json`), per-unit
   object JSON, and the dormancy-state shards: serial and ``-j N``
   shards must be identical, and the records each unit's latest
   compile used must be exactly those of a clean stateful build.

When a ``workdir`` is given, the stateful build databases additionally
round-trip through ``save``/``load`` on real disk between steps, so the
fuzz property covers the crash-consistent persistence format too — a
checksum or framing bug shows up as a differential failure, not just a
unit-test failure.

Run standalone (CI does, with a fixed seed)::

    python -m repro.testing.differential --traces 25 --seed 1
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from pathlib import Path

from repro.buildsys.builddb import BuildDatabase
from repro.buildsys.incremental import IncrementalBuilder
from repro.buildsys.parallel import BuildOptions
from repro.core.state import CompilerState
from repro.driver import CompilerOptions
from repro.workload.edits import Edit, apply_edit, random_edit
from repro.workload.generator import generate_project
from repro.workload.spec import ProjectSpec, make_preset, seeded_rng


@dataclass(frozen=True)
class EffectFlip:
    """Toggle one function between its generated body and a pure one.

    Kept out of :data:`repro.workload.edits.DEFAULT_EDIT_MIX` (and so
    out of the benchmark's traces): it exists to reach dormancy-key
    inputs that live outside a function's own IR.
    """

    module: str
    function: str

    def describe(self) -> str:
        return f"effect-flip@{self.module}.{self.function}"

    def apply(self, spec: ProjectSpec) -> ProjectSpec:
        module = spec.module_by_name(self.module)
        functions = tuple(
            replace(fn, pure_body=not fn.pure_body)
            if fn.name == self.function
            else fn
            for fn in module.functions
        )
        return spec.replace_module(replace(module, functions=functions))


def fuzz_edit_sequence(
    spec: ProjectSpec, length: int, seed: int
) -> list[Edit | EffectFlip]:
    """``length`` edits drawn against the evolving spec, one an effect flip."""
    rng = seeded_rng("fuzz-edits", spec.name, seed)
    flip_at = rng.randrange(length) if length else -1
    edits: list[Edit | EffectFlip] = []
    for step in range(length):
        if step == flip_at:
            module = rng.choice(spec.modules)
            edit = EffectFlip(module.name, rng.choice(module.functions).name)
        else:
            edit = random_edit(spec, rng)
        edits.append(edit)
        spec = _apply(spec, edit)
    return edits


def _apply(spec: ProjectSpec, edit: Edit | EffectFlip) -> ProjectSpec:
    return edit.apply(spec) if isinstance(edit, EffectFlip) else apply_edit(spec, edit)


def _verdicts(state: CompilerState | None, *, latest_only: bool = False) -> dict:
    """``(position, fingerprint) -> (dormant, fingerprint_out)`` of a shard.

    ``latest_only`` keeps the records the shard's latest compile used.
    """
    if state is None:
        return {}
    return {
        key: (record.dormant, record.fingerprint_out)
        for key, record in state.records.items()
        if not latest_only or record.last_used_build == state.build_counter
    }


@dataclass
class Divergence:
    """One observed difference between build variants."""

    step: int
    kind: str  # "image" | "object" | "records" | "behaviour"
    detail: str

    def describe(self) -> str:
        return f"step {self.step} [{self.kind}]: {self.detail}"


@dataclass
class DifferentialResult:
    """Outcome of one fuzzed edit trace."""

    preset: str
    seed: int
    jobs: tuple[int, ...]
    steps: int = 0
    builds: int = 0
    objects_compared: int = 0
    edits: list[str] = field(default_factory=list)
    divergences: list[Divergence] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.divergences

    def describe(self) -> str:
        verdict = "OK" if self.ok else f"{len(self.divergences)} DIVERGENCE(S)"
        return (
            f"trace(preset={self.preset}, seed={self.seed}, jobs={list(self.jobs)}): "
            f"{self.steps} steps, {self.builds} builds, "
            f"{self.objects_compared} objects compared — {verdict}"
        )


def run_differential_trace(
    preset: str = "tiny",
    *,
    seed: int = 1,
    num_edits: int = 3,
    jobs: tuple[int, ...] = (1, 4),
    executor: str = "thread",
    opt_level: str = "O2",
    workdir: str | Path | None = None,
    execute: bool = False,
) -> DifferentialResult:
    """Fuzz one seeded edit trace; see the module docstring for the law."""
    result = DifferentialResult(preset=preset, seed=seed, jobs=tuple(jobs))
    spec = make_preset(preset, seed=seed)
    edits = fuzz_edit_sequence(spec, num_edits, seed)
    result.edits = [edit.describe() for edit in edits]

    specs = [spec]
    for edit in edits:
        specs.append(_apply(specs[-1], edit))

    stateless = CompilerOptions(opt_level=opt_level, stateful=False)
    stateful = CompilerOptions(opt_level=opt_level, stateful=True)
    dbs: dict[int, BuildDatabase] = {j: BuildDatabase() for j in jobs}
    db_paths = {
        j: Path(workdir) / f"j{j}.reprodb" for j in jobs
    } if workdir is not None else {}

    for step, current in enumerate(specs):
        project = generate_project(current)
        provider, units = project.provider(), project.unit_paths

        # Reference: a from-scratch stateless build of this tree.
        ref_db = BuildDatabase()
        ref_report = IncrementalBuilder(provider, units, stateless, ref_db).build()
        ref_image = ref_report.image.to_json()
        result.builds += 1

        variants: dict[int, tuple[BuildDatabase, object]] = {}
        for j in jobs:
            report = IncrementalBuilder(
                provider, units, stateful, dbs[j], BuildOptions(jobs=j, executor=executor)
            ).build()
            result.builds += 1
            variants[j] = (dbs[j], report)

            image = report.image.to_json()
            if image != ref_image:
                result.divergences.append(Divergence(
                    step, "image",
                    f"-j {j} stateful image != stateless reference",
                ))
            for path in units:
                result.objects_compared += 1
                if dbs[j].units[path].object_json != ref_db.units[path].object_json:
                    result.divergences.append(Divergence(
                        step, "object", f"-j {j}: {path} differs from stateless"
                    ))
            if set(dbs[j].units) != set(units):
                result.divergences.append(Divergence(
                    step, "records",
                    f"-j {j}: DB has {len(dbs[j].units)} unit records, "
                    f"project has {len(units)}",
                ))

            if execute:
                from repro.vm.machine import VirtualMachine

                ref_run = VirtualMachine(ref_report.image).run()
                var_run = VirtualMachine(report.image).run()
                if not ref_run.same_behaviour(var_run):
                    result.divergences.append(Divergence(
                        step, "behaviour", f"-j {j} execution diverged"
                    ))

        # The shards must agree too.  Each unit's compile reads and
        # writes only its own shard, so -j N shards are bit-identical
        # to the serial build's (same digests), and so are the bypass
        # counters.  And the records a unit's latest compile used must
        # be exactly the ones a clean stateful build records: a stale
        # or missing verdict would show up here even when the image
        # happens to come out right.
        baseline_j = jobs[0]
        base_db, base_report = variants[baseline_j]
        for j in jobs[1:]:
            other_db, other_report = variants[j]
            differing = [
                path for path in units
                if base_db.units[path].state_digest != other_db.units[path].state_digest
            ]
            if differing:
                result.divergences.append(Divergence(
                    step, "records",
                    f"shards of -j {baseline_j} and -j {j} differ for {differing}",
                ))
            base_work = base_report.bypass
            other_work = other_report.bypass
            if (base_work.executions, base_work.bypassed) != (
                other_work.executions, other_work.bypassed
            ):
                result.divergences.append(Divergence(
                    step, "records",
                    f"pass runs differ: -j {baseline_j} executed/bypassed "
                    f"{base_work.executions}/{base_work.bypassed}, -j {j} "
                    f"{other_work.executions}/{other_work.bypassed}",
                ))
        clean_db = BuildDatabase()
        IncrementalBuilder(provider, units, stateful, clean_db).build(link_output=False)
        result.builds += 1
        for path in units:
            clean = _verdicts(clean_db.read_state(path))
            latest = _verdicts(base_db.read_state(path), latest_only=True)
            if latest != clean:
                result.divergences.append(Divergence(
                    step, "records",
                    f"{path}: the latest compile used {len(latest)} records, "
                    f"a clean build records {len(clean)} (or equal counts, "
                    "unequal contents)",
                ))

        # Optionally round-trip every stateful DB through the on-disk
        # crash-consistent format so the fuzz law covers persistence.
        for j, db_path in db_paths.items():
            dbs[j].save(db_path)
            dbs[j] = BuildDatabase.load(db_path)

        result.steps += 1
    return result


def main(argv: list[str] | None = None) -> int:
    """Fuzzer entry point (``python -m repro.testing.differential``)."""
    import argparse

    parser = argparse.ArgumentParser(
        description="differential correctness fuzzer: stateful incremental "
                    "vs -j N vs stateless clean builds over random edit traces",
    )
    parser.add_argument("--preset", default="tiny", help="project preset (default tiny)")
    parser.add_argument("--traces", type=int, default=25, help="edit traces to fuzz")
    parser.add_argument("--edits", type=int, default=3, help="edits per trace")
    parser.add_argument("--seed", type=int, default=1, help="base seed (trace i uses seed+i)")
    parser.add_argument("--jobs", default="1,4", help="job counts (default 1,4)")
    parser.add_argument(
        "--executor", choices=["process", "thread"], default="thread",
        help="pool kind for -j > 1 (default thread)",
    )
    parser.add_argument(
        "--execute", action="store_true",
        help="also run every linked image and compare behaviour",
    )
    args = parser.parse_args(argv)

    import tempfile

    jobs = tuple(int(j) for j in args.jobs.split(",") if j.strip())
    failures = 0
    with tempfile.TemporaryDirectory(prefix="repro-fuzz-") as workdir:
        for i in range(args.traces):
            result = run_differential_trace(
                args.preset,
                seed=args.seed + i,
                num_edits=args.edits,
                jobs=jobs,
                executor=args.executor,
                workdir=workdir,
                execute=args.execute,
            )
            print(result.describe())
            for divergence in result.divergences:
                print(f"  {divergence.describe()}")
            failures += 0 if result.ok else 1
    print(
        f"differential fuzz: {args.traces - failures}/{args.traces} traces clean "
        f"(preset={args.preset}, seeds {args.seed}..{args.seed + args.traces - 1})"
    )
    return 1 if failures else 0


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
