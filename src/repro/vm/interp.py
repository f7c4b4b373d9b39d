"""Direct IR interpreter.

Executes one or more IR modules (linked by symbol name) starting at
``main``.  Serves as the semantic oracle: optimization passes must not
change a program's observable behaviour (its output trace, exit code,
and trap status), and tests enforce that by running the interpreter
before and after each pass.

Memory model: a flat slot array.  ``alloca`` bump-allocates function-
frame slots released on return; globals get fixed slots at startup.
Pointers are plain integer slot indices.  ``undef`` reads yield zero.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.ir.instructions import (
    AllocaInst,
    BrInst,
    CallInst,
    CBrInst,
    EvalTrap,
    GepInst,
    ICmpInst,
    Instruction,
    LoadInst,
    Opcode,
    RetInst,
    SelectInst,
    StoreInst,
    eval_binary,
    eval_icmp,
    wrap_i64,
)
from repro.ir.structure import BasicBlock, Function, Module
from repro.ir.values import ConstantInt, GlobalAddr, UndefValue, Value


class Trap(Exception):
    """Runtime error: division by zero, out-of-bounds, missing symbol,

    stack overflow, or exceeding the step budget."""


@dataclass
class ExecutionResult:
    """Observable behaviour of one program run."""

    exit_code: int
    output: list[int]
    steps: int
    trapped: bool = False
    trap_message: str = ""

    def same_behaviour(self, other: "ExecutionResult") -> bool:
        """Observational equivalence (step counts may differ)."""
        if self.trapped != other.trapped:
            return False
        if self.trapped:
            return self.output == other.output  # both trapped; outputs so far match
        return self.exit_code == other.exit_code and self.output == other.output


@dataclass
class _Frame:
    values: dict[Value, int] = field(default_factory=dict)
    alloca_base: int = 0


class IRInterpreter:
    """Interprets linked IR modules.

    ``input_values`` supplies successive results for the ``input()``
    builtin; reading past the end traps.
    """

    def __init__(
        self,
        modules: list[Module],
        *,
        input_values: list[int] | None = None,
        max_steps: int = 50_000_000,
        max_call_depth: int = 2_000,
    ):
        self.modules = modules
        self.max_steps = max_steps
        self.max_call_depth = max_call_depth
        # Guest calls nest Python frames (~5 per level); make sure the
        # guest's stack-overflow trap fires before Python's would.
        import sys

        needed = max_call_depth * 6 + 1000
        if sys.getrecursionlimit() < needed:
            sys.setrecursionlimit(needed)
        self.input_values = list(input_values or [])
        self._input_pos = 0
        self.output: list[int] = []
        self.steps = 0
        self._depth = 0

        self.functions: dict[str, Function] = {}
        self.global_base: dict[str, int] = {}
        self.memory: list[int] = []
        self._link()

    # -- linking --------------------------------------------------------------

    def _link(self) -> None:
        for module in self.modules:
            for fn in module.functions.values():
                if fn.is_declaration:
                    continue
                if fn.name in self.functions:
                    raise Trap(f"duplicate definition of function {fn.name}")
                self.functions[fn.name] = fn
        for module in self.modules:
            for var in module.globals.values():
                if var.is_external:
                    continue
                if var.name in self.global_base:
                    raise Trap(f"duplicate definition of global {var.name}")
                self.global_base[var.name] = len(self.memory)
                self.memory.extend(var.initializer)
        # Check external references resolve.
        for module in self.modules:
            for var in module.globals.values():
                if var.is_external and var.name not in self.global_base:
                    raise Trap(f"unresolved external global {var.name}")

    # -- builtins ----------------------------------------------------------------

    def _builtin_print(self, value: int) -> int:
        self.output.append(value)
        return 0

    def _builtin_input(self) -> int:
        if self._input_pos >= len(self.input_values):
            raise Trap("input() exhausted")
        value = self.input_values[self._input_pos]
        self._input_pos += 1
        return wrap_i64(value)

    # -- execution ----------------------------------------------------------------

    def run(self, entry: str = "main", args: list[int] | None = None) -> ExecutionResult:
        """Run to completion; traps become a trapped ExecutionResult."""
        try:
            code = self.call(entry, args or [])
            return ExecutionResult(code, self.output, self.steps)
        except Trap as trap:
            return ExecutionResult(-1, self.output, self.steps, trapped=True, trap_message=str(trap))

    def call(self, name: str, args: list[int]) -> int:
        if name == "print":
            return self._builtin_print(args[0])
        if name == "input":
            return self._builtin_input()
        fn = self.functions.get(name)
        if fn is None:
            raise Trap(f"call to undefined function {name}")
        if len(args) != len(fn.args):
            raise Trap(f"{name}: expected {len(fn.args)} args, got {len(args)}")
        if self._depth >= self.max_call_depth:
            raise Trap("call stack overflow")
        self._depth += 1
        try:
            return self._run_function(fn, args)
        finally:
            self._depth -= 1

    def _value(self, frame: _Frame, value: Value) -> int:
        if isinstance(value, ConstantInt):
            return value.value
        if isinstance(value, GlobalAddr):
            base = self.global_base.get(value.symbol)
            if base is None:
                raise Trap(f"unresolved global @{value.symbol}")
            return base
        if isinstance(value, UndefValue):
            return 0
        try:
            return frame.values[value]
        except KeyError:
            raise Trap(f"read of unset value {value.ref()}") from None

    def _run_function(self, fn: Function, args: list[int]) -> int:
        frame = _Frame(alloca_base=len(self.memory))
        for formal, actual in zip(fn.args, args):
            frame.values[formal] = wrap_i64(actual)
        block = fn.entry
        prev_block: BasicBlock | None = None
        try:
            while True:
                result = self._run_block(fn, frame, block, prev_block)
                if isinstance(result, tuple):  # ('ret', value)
                    return result[1]
                prev_block, block = block, result
        finally:
            del self.memory[frame.alloca_base :]

    def _run_block(
        self,
        fn: Function,
        frame: _Frame,
        block: BasicBlock,
        prev_block: BasicBlock | None,
    ):
        # Phis evaluate simultaneously from the edge we arrived on.
        phis = block.phis
        if phis:
            assert prev_block is not None
            incoming = []
            for phi in phis:
                value = phi.incoming_for(prev_block)
                if value is None:
                    raise Trap(
                        f"{fn.name}/^{block.name}: phi {phi.ref()} has no incoming "
                        f"from ^{prev_block.name}"
                    )
                incoming.append(self._value(frame, value))
            for phi, v in zip(phis, incoming):
                frame.values[phi] = v
            self.steps += len(phis)

        for inst in block.instructions[len(phis) :]:
            self.steps += 1
            if self.steps > self.max_steps:
                raise Trap("step budget exceeded")
            outcome = self._execute(fn, frame, inst)
            if outcome is not None:
                return outcome
        raise Trap(f"{fn.name}/^{block.name}: fell off the end of a block")

    def _execute(self, fn: Function, frame: _Frame, inst: Instruction):
        """Execute one non-phi instruction.

        Returns None to continue, a BasicBlock to jump, or ('ret', v).
        """
        op = inst.opcode
        if inst.is_binary:
            a = self._value(frame, inst.operands[0])
            b = self._value(frame, inst.operands[1])
            try:
                frame.values[inst] = eval_binary(op, a, b)
            except EvalTrap as exc:
                raise Trap(str(exc)) from None
            return None
        if isinstance(inst, ICmpInst):
            a = self._value(frame, inst.lhs)
            b = self._value(frame, inst.rhs)
            frame.values[inst] = 1 if eval_icmp(inst.pred, a, b) else 0
            return None
        if isinstance(inst, SelectInst):
            cond = self._value(frame, inst.cond)
            frame.values[inst] = self._value(frame, inst.if_true if cond else inst.if_false)
            return None
        if op is Opcode.ZEXT or op is Opcode.TRUNC:
            v = self._value(frame, inst.operands[0])
            frame.values[inst] = (v & 1) if op is Opcode.TRUNC else (1 if v else 0)
            return None
        if isinstance(inst, AllocaInst):
            frame.values[inst] = len(self.memory)
            self.memory.extend([0] * inst.size)
            return None
        if isinstance(inst, LoadInst):
            addr = self._value(frame, inst.ptr)
            frame.values[inst] = self._load(addr)
            return None
        if isinstance(inst, StoreInst):
            addr = self._value(frame, inst.ptr)
            self._store(addr, self._value(frame, inst.value))
            return None
        if isinstance(inst, GepInst):
            base = self._value(frame, inst.base)
            index = self._value(frame, inst.index)
            frame.values[inst] = base + index
            return None
        if isinstance(inst, CallInst):
            args = [self._value(frame, a) for a in inst.args]
            result = self.call(inst.callee, args)
            if not inst.ty.is_void:
                frame.values[inst] = result
            return None
        if isinstance(inst, BrInst):
            return inst.target
        if isinstance(inst, CBrInst):
            return inst.if_true if self._value(frame, inst.cond) else inst.if_false
        if isinstance(inst, RetInst):
            value = 0 if inst.value is None else self._value(frame, inst.value)
            return ("ret", value)
        if op is Opcode.UNREACHABLE:
            raise Trap(f"{fn.name}: executed unreachable")
        raise Trap(f"cannot execute {op.value}")  # pragma: no cover

    def _load(self, addr: int) -> int:
        if addr < 0 or addr >= len(self.memory):
            raise Trap(f"load out of bounds (addr {addr}, memory {len(self.memory)})")
        return self.memory[addr]

    def _store(self, addr: int, value: int) -> None:
        if addr < 0 or addr >= len(self.memory):
            raise Trap(f"store out of bounds (addr {addr}, memory {len(self.memory)})")
        self.memory[addr] = wrap_i64(value)


def run_module(
    module: Module | list[Module],
    *,
    entry: str = "main",
    input_values: list[int] | None = None,
    max_steps: int = 50_000_000,
) -> ExecutionResult:
    """Convenience: link and run modules, capturing behaviour."""
    modules = module if isinstance(module, list) else [module]
    interp = IRInterpreter(modules, input_values=input_values, max_steps=max_steps)
    return interp.run(entry)
