"""Parser for the textual IR format produced by :mod:`repro.ir.printer`.

Round-tripping matters: the object-file format embeds IR text, golden
tests diff printed modules, and the stateful compiler's equivalence
checks compare printed output.  Forward references (loop phis, branches
to later blocks) are resolved with placeholder values patched once the
real definition is seen.
"""

from __future__ import annotations

import re

from repro.ir.instructions import (
    AllocaInst,
    BINARY_OPCODES,
    BinaryInst,
    BrInst,
    CallInst,
    CBrInst,
    GepInst,
    ICmpInst,
    ICmpPred,
    Instruction,
    LoadInst,
    PhiInst,
    RetInst,
    SelectInst,
    StoreInst,
    TruncInst,
    UnreachableInst,
    ZExtInst,
)
from repro.ir.structure import BasicBlock, Function, GlobalVariable, Module
from repro.ir.types import FunctionSig, I1, I64, IRType, PTR, type_from_name
from repro.ir.values import ConstantInt, GlobalAddr, UndefValue, Value


class IRParseError(Exception):
    """The IR text is malformed."""

    def __init__(self, line_no: int, line: str, message: str):
        super().__init__(f"line {line_no}: {message}: {line.strip()!r}")
        self.line_no = line_no


_BINARY_BY_NAME = {op.value: op for op in BINARY_OPCODES}

_SIG_RE = re.compile(r"^(?P<ret>\w+)\((?P<params>[^)]*)\)$")
_GLOBAL_RE = re.compile(
    r"^(?P<const>const\s+)?global\s+@(?P<name>[\w.]+)\s*:\s*(?P<size>\d+)"
    r"\s*=\s*\[(?P<init>[^\]]*)\]$"
)
_EXTERN_GLOBAL_RE = re.compile(r"^extern\s+global\s+@(?P<name>[\w.]+)\s*:\s*(?P<size>\d+)$")
_DECLARE_RE = re.compile(r"^declare\s+@(?P<name>[\w.]+)\s*:\s*(?P<sig>.+)$")
_DEFINE_RE = re.compile(
    r"^define\s+@(?P<name>[\w.]+)\((?P<params>[^)]*)\)\s*->\s*(?P<ret>\w+)\s*\{$"
)
_LABEL_RE = re.compile(r"^\^(?P<name>[\w.]+):$")
_CALL_RE = re.compile(
    r"^call\s+@(?P<callee>[\w.]+)\((?P<args>[^)]*)\)\s*:\s*(?P<sig>.+)$"
)
_PHI_PAIR_RE = re.compile(r"\[\s*(?P<val>[^,\]]+)\s*,\s*\^(?P<block>[\w.]+)\s*\]")


def parse_signature(text: str) -> FunctionSig:
    match = _SIG_RE.match(text.strip())
    if match is None:
        raise ValueError(f"bad signature {text!r}")
    params_text = match.group("params").strip()
    params = tuple(
        type_from_name(p.strip()) for p in params_text.split(",") if p.strip()
    )
    return FunctionSig(params, type_from_name(match.group("ret")))


class _FunctionBodyParser:
    """Parses the block/instruction lines of one function definition."""

    def __init__(self, fn: Function, module: Module):
        self.fn = fn
        self.module = module
        self.values: dict[str, Value] = {f"%{a.name}": a for a in fn.args}
        self.blocks: dict[str, BasicBlock] = {}
        #: name -> placeholder awaiting its real definition.
        self.pending: dict[str, Value] = {}

    def get_block(self, name: str) -> BasicBlock:
        block = self.blocks.get(name)
        if block is None:
            block = BasicBlock(name, parent=self.fn)
            self.blocks[name] = block
        return block

    def parse_operand(self, text: str, hint: IRType = I64) -> Value:
        text = text.strip()
        if text == "true":
            return ConstantInt(I1, 1)
        if text == "false":
            return ConstantInt(I1, 0)
        if text.startswith("undef."):
            return UndefValue(type_from_name(text[len("undef.") :]))
        if text.startswith("@"):
            return GlobalAddr(text[1:])
        if text.startswith("%"):
            value = self.values.get(text)
            if value is None:
                value = self.pending.get(text)
            if value is None:
                # Forward reference: placeholder with the hinted type.
                value = Value(hint, text[1:] + ".fwd")
                self.pending[text] = value
            return value
        try:
            return ConstantInt(I64, int(text, 0))
        except ValueError:
            raise ValueError(f"bad operand {text!r}") from None

    def define(self, name: str, inst: Instruction) -> None:
        key = f"%{name}"
        inst.name = name
        placeholder = self.pending.pop(key, None)
        if placeholder is not None:
            placeholder.replace_all_uses_with(inst)
        if key in self.values:
            raise ValueError(f"redefinition of {key}")
        self.values[key] = inst

    def finish(self) -> None:
        if self.pending:
            names = ", ".join(sorted(self.pending))
            raise ValueError(f"undefined values referenced: {names}")


def parse_module(text: str, name: str = "parsed") -> Module:
    """Parse a full module; raises :class:`IRParseError` on bad input."""
    module = Module(name)
    lines = text.splitlines()
    i = 0
    n = len(lines)

    def fail(line_no: int, message: str) -> IRParseError:
        return IRParseError(line_no + 1, lines[line_no] if line_no < n else "", message)

    while i < n:
        line = lines[i].strip()
        if not line or line.startswith("#"):
            i += 1
            continue
        if line.startswith("module "):
            module.name = line[len("module ") :].strip()
            i += 1
            continue
        match = _EXTERN_GLOBAL_RE.match(line)
        if match:
            module.add_global(
                GlobalVariable(match.group("name"), int(match.group("size")), is_external=True)
            )
            i += 1
            continue
        match = _GLOBAL_RE.match(line)
        if match:
            init_text = match.group("init").strip()
            init = [int(v.strip(), 0) for v in init_text.split(",") if v.strip()]
            module.add_global(
                GlobalVariable(
                    match.group("name"),
                    int(match.group("size")),
                    init,
                    is_const=bool(match.group("const")),
                )
            )
            i += 1
            continue
        match = _DECLARE_RE.match(line)
        if match:
            try:
                sig = parse_signature(match.group("sig"))
            except ValueError as exc:
                raise fail(i, str(exc)) from None
            module.add_function(Function(match.group("name"), sig))
            i += 1
            continue
        match = _DEFINE_RE.match(line)
        if match:
            i = _parse_definition(module, match, lines, i)
            continue
        raise fail(i, "unrecognized top-level line")
    return module


def _parse_definition(module: Module, match: re.Match, lines: list[str], start: int) -> int:
    """Parse one ``define ... { ... }``; returns the line index after ``}``."""
    params_text = match.group("params").strip()
    param_types: list[IRType] = []
    arg_names: list[str] = []
    if params_text:
        for part in params_text.split(","):
            ty_name, _, reg = part.strip().partition(" ")
            param_types.append(type_from_name(ty_name))
            arg_names.append(reg.strip().lstrip("%"))
    sig = FunctionSig(tuple(param_types), type_from_name(match.group("ret")))
    fn = Function(match.group("name"), sig, arg_names)
    body = _FunctionBodyParser(fn, module)

    i = start + 1
    current: BasicBlock | None = None
    n = len(lines)
    while i < n:
        line = lines[i].strip()
        if not line or line.startswith("#"):
            i += 1
            continue
        if line == "}":
            try:
                body.finish()
            except ValueError as exc:
                raise IRParseError(i + 1, line, str(exc)) from None
            module.add_function(fn)
            _sync_name_counter(fn)
            return i + 1
        label = _LABEL_RE.match(line)
        if label:
            current = body.get_block(label.group("name"))
            if current in fn.blocks:
                raise IRParseError(i + 1, line, f"duplicate block ^{current.name}")
            fn.blocks.append(current)
            i += 1
            continue
        if current is None:
            raise IRParseError(i + 1, line, "instruction before any block label")
        try:
            inst = _parse_instruction(line, body)
        except ValueError as exc:
            raise IRParseError(i + 1, line, str(exc)) from None
        current.append(inst)
        i += 1
    raise IRParseError(n, "", f"unterminated function @{fn.name}")


def _sync_name_counter(fn: Function) -> None:
    """Advance the function's name counter past all parsed numeric names

    so new instructions added by passes get fresh names."""
    highest = -1
    names = [a.name for a in fn.args]
    names.extend(i.name for i in fn.instructions() if i.name)
    names.extend(b.name for b in fn.blocks)
    for nm in names:
        digits = re.search(r"(\d+)$", nm)
        if digits:
            highest = max(highest, int(digits.group(1)))
    for _ in range(highest + 1):
        fn.next_name()


def _parse_instruction(line: str, body: _FunctionBodyParser) -> Instruction:
    result_name = ""
    rest = line
    if line.startswith("%"):
        lhs, eq, rest = line.partition("=")
        if not eq:
            raise ValueError("expected '=' after result name")
        result_name = lhs.strip().lstrip("%")
        rest = rest.strip()

    opcode_word = rest.split(None, 1)[0]
    args_text = rest[len(opcode_word) :].strip()

    inst = _build_instruction(opcode_word, args_text, body)
    if result_name:
        body.define(result_name, inst)
    elif not inst.ty.is_void:
        raise ValueError(f"{opcode_word} produces a value but has no result name")
    return inst


def _split_args(text: str) -> list[str]:
    return [p.strip() for p in text.split(",") if p.strip()]


def _build_instruction(word: str, args: str, body: _FunctionBodyParser) -> Instruction:
    binary = _BINARY_BY_NAME.get(word)
    if binary is not None:
        if not args.startswith("i64 "):
            raise ValueError(f"{word} expects 'i64' operand type")
        parts = _split_args(args[4:])
        if len(parts) != 2:
            raise ValueError(f"{word} expects two operands")
        return BinaryInst(binary, body.parse_operand(parts[0]), body.parse_operand(parts[1]))

    if word == "icmp":
        pred_word, _, rest = args.partition(" ")
        pred = ICmpPred(pred_word)
        parts = _split_args(rest)
        if len(parts) != 2:
            raise ValueError("icmp expects two operands")
        return ICmpInst(pred, body.parse_operand(parts[0]), body.parse_operand(parts[1]))

    if word == "select":
        parts = _split_args(args)
        if len(parts) != 3:
            raise ValueError("select expects three operands")
        cond = body.parse_operand(parts[0], I1)
        lhs = body.parse_operand(parts[1])
        rhs = body.parse_operand(parts[2])
        return SelectInst(cond, lhs, rhs)

    if word == "zext":
        return ZExtInst(body.parse_operand(args, I1))
    if word == "trunc":
        return TruncInst(body.parse_operand(args, I64))
    if word == "alloca":
        return AllocaInst(int(args))
    if word == "load":
        ty_name, _, ptr_text = args.partition(" ")
        return LoadInst(type_from_name(ty_name), body.parse_operand(ptr_text, PTR))
    if word == "store":
        parts = _split_args(args)
        if len(parts) != 2:
            raise ValueError("store expects value, pointer")
        return StoreInst(body.parse_operand(parts[0]), body.parse_operand(parts[1], PTR))
    if word == "gep":
        parts = _split_args(args)
        if len(parts) != 2:
            raise ValueError("gep expects base, index")
        return GepInst(body.parse_operand(parts[0], PTR), body.parse_operand(parts[1]))

    if word == "call":
        match = _CALL_RE.match(f"call {args}")
        if match is None:
            raise ValueError("malformed call")
        sig = parse_signature(match.group("sig"))
        arg_texts = _split_args(match.group("args"))
        if len(arg_texts) != len(sig.params):
            raise ValueError("call arity mismatch with signature")
        call_args = [
            body.parse_operand(t, ty) for t, ty in zip(arg_texts, sig.params)
        ]
        return CallInst(match.group("callee"), sig, call_args)

    if word == "phi":
        ty_name, _, rest = args.partition(" ")
        ty = type_from_name(ty_name)
        phi = PhiInst(ty)
        for pair in _PHI_PAIR_RE.finditer(rest):
            value = body.parse_operand(pair.group("val"), ty)
            phi.add_incoming(value, body.get_block(pair.group("block")))
        return phi

    if word == "br":
        if not args.startswith("^"):
            raise ValueError("br expects a block target")
        return BrInst(body.get_block(args[1:]))
    if word == "cbr":
        parts = _split_args(args)
        if len(parts) != 3 or not parts[1].startswith("^") or not parts[2].startswith("^"):
            raise ValueError("cbr expects cond, ^true, ^false")
        cond = body.parse_operand(parts[0], I1)
        return CBrInst(cond, body.get_block(parts[1][1:]), body.get_block(parts[2][1:]))
    if word == "ret":
        if args:
            return RetInst(body.parse_operand(args))
        return RetInst()
    if word == "unreachable":
        return UnreachableInst()

    raise ValueError(f"unknown opcode {word!r}")
