"""The dormancy key must cover every input a pass reads.

``dce``, ``cse`` and ``adce`` read the module's pure-function set, so a
callee changing purity changes what those passes do to an *unchanged*
caller.  Before the key carried the callee's purity bit, the caller's
stale record was applied and the stateful image differed from the
stateless one (the benchmark's ``medium-mixed-j1`` seed 31, step 8:
``body@mod3.mod3_f1`` left caller ``mod3_f3`` with a stale verdict).
"""

import pytest

from repro.buildsys.builddb import BuildDatabase
from repro.buildsys.incremental import IncrementalBuilder
from repro.buildsys.parallel import BuildOptions
from repro.driver import Compiler, CompilerOptions
from repro.frontend.includes import MemoryFileProvider
from repro.workload import Edit, EditKind, apply_edit, generate_project, make_preset

SERIAL = BuildOptions(jobs=1)

#: The first nine edits of the benchmark's ``medium-mixed-j1`` trace for
#: seed 31 (``perfbench/editbench.py`` ``edit_trace``).
SEED_31_EDITS = [
    Edit(EditKind.COMMENT, "mod7"),
    Edit(EditKind.BODY, "mod5", "mod5_f2"),
    Edit(EditKind.BODY, "mod6", "mod6_f4"),
    Edit(EditKind.CONST_TWEAK, "mod2", "mod2_f0"),
    Edit(EditKind.BODY, "mod1", "mod1_f7"),
    Edit(EditKind.BODY, "mod3", "mod3_f1"),
    Edit(EditKind.ADD_FUNCTION, "mod0"),
    Edit(EditKind.CONST_TWEAK, "mod4", "mod4_f3"),
    Edit(EditKind.BODY, "mod3", "mod3_f1"),
]


def replay(spec, edits):
    """Build every step stateless and stateful; yield the two images."""
    dbs = {stateful: BuildDatabase() for stateful in (False, True)}
    for step, edit in enumerate([None, *edits]):
        if edit is not None:
            spec = apply_edit(spec, edit)
        project = generate_project(spec)
        images = {}
        for stateful, db in dbs.items():
            report = IncrementalBuilder(
                project.provider(), project.unit_paths,
                CompilerOptions(stateful=stateful), db, SERIAL,
            ).build()
            images[stateful] = report.image.to_json()
        yield step, edit, images


def test_seed_31_trace_keeps_stateful_image_identical():
    for step, edit, images in replay(make_preset("medium"), SEED_31_EDITS):
        assert images[True] == images[False], f"step {step} ({edit})"


#: ``helper`` is too large to inline, so ``caller`` keeps its unused
#: call, which ``dce`` deletes only while ``helper`` is pure.
PURE_CALLEE = {
    "lib.mc": (
        "int counter = 0;\n"
        "int helper(int x) {\n"
        "  int a = x * 3 + 1;\n"
        "  int b = a * a - x;\n"
        "  int c = b ^ (a + 7);\n"
        "  int d = c * 5 - b * 2;\n"
        "  return (d ^ c) + (a - b);\n"
        "}\n"
        "int caller(int x) { int unused = helper(x); return x + 1; }\n"
        "int main() { print(caller(5)); print(counter); return 0; }\n"
    ),
}
IMPURE_CALLEE = {
    "lib.mc": PURE_CALLEE["lib.mc"].replace(
        "  int a = x * 3 + 1;\n", "  counter = counter + 1;\n  int a = x * 3 + 1;\n"
    ),
}


@pytest.mark.parametrize("mode", ["canonical", "named"])
@pytest.mark.parametrize(
    "before, after", [(PURE_CALLEE, IMPURE_CALLEE), (IMPURE_CALLEE, PURE_CALLEE)]
)
def test_callee_purity_flip_reruns_the_unchanged_caller(before, after, mode):
    db = BuildDatabase()
    for files in (before, after):
        stateful = IncrementalBuilder(
            MemoryFileProvider(files), ["lib.mc"],
            CompilerOptions(stateful=True, fingerprint_mode=mode), db, SERIAL,
        ).build()
    stateless = IncrementalBuilder(
        MemoryFileProvider(after), ["lib.mc"], CompilerOptions(), BuildDatabase(), SERIAL
    ).build()
    assert stateful.image.to_json() == stateless.image.to_json()


def test_same_unit_compiles_to_the_same_pass_work_every_time():
    # Use lists are insertion-ordered: sccp's worklist, and with it the
    # work counter, must not depend on hash (= allocation) order.  With
    # set-ordered use lists this unit's work differed by one between
    # compiles in one process.
    files = generate_project(make_preset("medium")).files
    work = {
        Compiler(MemoryFileProvider(files))
        .compile_file("mod4.mc")
        .metrics.counter("passes.work")
        .value
        for _ in range(4)
    }
    assert len(work) == 1
