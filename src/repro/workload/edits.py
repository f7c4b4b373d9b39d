"""Edit models: developer-change simulation over project specs.

Each edit kind corresponds to a class of real developer edits, chosen
to span the spectrum the stateful compiler cares about:

- ``COMMENT`` — comment/whitespace-only change: the file's digest
  changes (build system recompiles it) but every function's IR is
  identical; the best case for fine-grained bypassing.
- ``CONST_TWEAK`` — change one literal inside one function: the
  smallest semantic edit.
- ``BODY`` — rewrite one function's body (new ``body_seed``).
- ``ADD_FUNCTION`` — add a new private function to one module.
- ``HEADER_CONST`` — change an exported constant: all dependent
  translation units become dirty, but most of their functions' IR is
  unchanged — the case where file-level incrementality loses hardest.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, replace
from enum import Enum

from repro.workload.spec import FunctionSpec, ProjectSpec, seeded_rng


class EditKind(Enum):
    COMMENT = "comment"
    CONST_TWEAK = "const-tweak"
    BODY = "body"
    ADD_FUNCTION = "add-function"
    HEADER_CONST = "header-const"


@dataclass(frozen=True)
class Edit:
    """One edit: a kind plus its target."""

    kind: EditKind
    module: str
    function: str | None = None

    def describe(self) -> str:
        target = f"{self.module}.{self.function}" if self.function else self.module
        return f"{self.kind.value}@{target}"


def apply_edit(spec: ProjectSpec, edit: Edit) -> ProjectSpec:
    """Return a new spec with ``edit`` applied."""
    module = spec.module_by_name(edit.module)
    if edit.kind is EditKind.COMMENT:
        return spec.replace_module(
            replace(module, comment_revision=module.comment_revision + 1)
        )
    if edit.kind is EditKind.HEADER_CONST:
        return spec.replace_module(
            replace(module, header_const_bias=module.header_const_bias + 1)
        )
    if edit.kind is EditKind.ADD_FUNCTION:
        new_fn = FunctionSpec(
            name=f"{module.name}_x{len(module.functions)}",
            num_params=1,
            body_seed=len(module.functions) * 7919 + 13,
            size="small",
            public=False,
        )
        return spec.replace_module(
            replace(module, functions=(*module.functions, new_fn))
        )
    # Function-targeted edits.
    assert edit.function is not None
    functions = []
    for fn in module.functions:
        if fn.name != edit.function:
            functions.append(fn)
        elif edit.kind is EditKind.CONST_TWEAK:
            functions.append(replace(fn, const_bias=fn.const_bias + 1))
        elif edit.kind is EditKind.BODY:
            functions.append(replace(fn, body_seed=fn.body_seed + 1))
        else:  # pragma: no cover
            raise ValueError(f"unhandled edit kind {edit.kind}")
    return spec.replace_module(replace(module, functions=tuple(functions)))


#: Default mix, roughly matching the frequency of real edit classes:
#: most edits touch one function body; header edits are rare but costly.
DEFAULT_EDIT_MIX: list[tuple[EditKind, float]] = [
    (EditKind.BODY, 0.40),
    (EditKind.CONST_TWEAK, 0.30),
    (EditKind.COMMENT, 0.12),
    (EditKind.ADD_FUNCTION, 0.08),
    (EditKind.HEADER_CONST, 0.10),
]


def random_edit(
    spec: ProjectSpec,
    rng: random.Random,
    mix: list[tuple[EditKind, float]] | None = None,
) -> Edit:
    """Draw one edit according to the mix."""
    mix = mix or DEFAULT_EDIT_MIX
    roll = rng.random()
    acc = 0.0
    kind = mix[-1][0]
    for candidate, weight in mix:
        acc += weight
        if roll < acc:
            kind = candidate
            break
    module = rng.choice(spec.modules)
    if kind in (EditKind.BODY, EditKind.CONST_TWEAK):
        fn = rng.choice(module.functions)
        return Edit(kind, module.name, fn.name)
    return Edit(kind, module.name)


def random_edit_sequence(
    spec: ProjectSpec,
    length: int,
    seed: int = 0,
    mix: list[tuple[EditKind, float]] | None = None,
) -> list[Edit]:
    """A deterministic sequence of edits.

    The edits are drawn against the *evolving* spec (an added function
    can be edited by a later step), mirroring a developer session.
    """
    rng = seeded_rng("edits", spec.name, seed)
    edits: list[Edit] = []
    current = spec
    for _ in range(length):
        edit = random_edit(current, rng, mix)
        edits.append(edit)
        current = apply_edit(current, edit)
    return edits
