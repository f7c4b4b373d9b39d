"""Virtual machine executing linked register-machine images.

The end of the toolchain: ``reprobuild`` produces a
:class:`~repro.backend.linker.LinkedImage`, and this VM runs it.  Its
observable behaviour (output trace + exit code + trap status) uses the
same :class:`~repro.vm.interp.ExecutionResult` type as the IR
interpreter so the two engines can be diffed directly in tests.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.backend.linker import LinkedImage
from repro.backend.mir import MOp, NUM_PHYS_REGS
from repro.ir.instructions import EvalTrap, Opcode, eval_binary, eval_icmp, wrap_i64
from repro.ir.instructions import ICmpPred
from repro.vm.interp import ExecutionResult


class MachineError(Exception):
    """Runtime trap in the machine VM."""


_MOP_TO_OPCODE = {
    MOp.ADD: Opcode.ADD,
    MOp.SUB: Opcode.SUB,
    MOp.MUL: Opcode.MUL,
    MOp.DIV: Opcode.SDIV,
    MOp.REM: Opcode.SREM,
    MOp.SHL: Opcode.SHL,
    MOp.SHR: Opcode.ASHR,
    MOp.AND: Opcode.AND,
    MOp.OR: Opcode.OR,
    MOp.XOR: Opcode.XOR,
}


@dataclass
class _Frame:
    regs: list[int]
    params: list[int]
    frame_base: int
    return_pc: int
    dest_reg: int


class VirtualMachine:
    """Executes a linked image starting at ``main``."""

    def __init__(
        self,
        image: LinkedImage,
        *,
        input_values: list[int] | None = None,
        max_steps: int = 100_000_000,
        max_call_depth: int = 2_000,
    ):
        self.image = image
        self.max_steps = max_steps
        self.max_call_depth = max_call_depth
        self.input_values = list(input_values or [])
        self._input_pos = 0
        self.output: list[int] = []
        self.steps = 0

    def run(self, entry: str = "main") -> ExecutionResult:
        try:
            code = self._execute(entry)
            return ExecutionResult(code, self.output, self.steps)
        except MachineError as exc:
            return ExecutionResult(-1, self.output, self.steps, trapped=True, trap_message=str(exc))

    # -- core loop -----------------------------------------------------------

    def _execute(self, entry_name: str) -> int:
        image = self.image
        entry_fn = image.functions.get(entry_name)
        if entry_fn is None:
            raise MachineError(f"no entry function @{entry_name}")

        memory: list[int] = list(image.data)
        frames: list[_Frame] = []
        arg_buffer: list[int] = []

        def push_frame(name: str, params: list[int], return_pc: int, dest_reg: int) -> int:
            fn = image.functions[name]
            if len(params) != fn.num_params:
                raise MachineError(f"@{name}: expected {fn.num_params} params, got {len(params)}")
            if len(frames) >= self.max_call_depth:
                raise MachineError("call stack overflow")
            frames.append(
                _Frame([0] * NUM_PHYS_REGS, params, len(memory), return_pc, dest_reg)
            )
            memory.extend([0] * fn.frame_size)
            return fn.entry

        pc = push_frame(entry_name, [], -1, -1)
        code = image.code
        ncode = len(code)

        while True:
            if pc < 0 or pc >= ncode:
                raise MachineError(f"pc {pc} out of range")
            self.steps += 1
            if self.steps > self.max_steps:
                raise MachineError("step budget exceeded")
            inst = code[pc]
            op = inst.op
            frame = frames[-1]
            regs = frame.regs

            if op in _MOP_TO_OPCODE:
                try:
                    regs[inst.regs[0]] = eval_binary(
                        _MOP_TO_OPCODE[op], regs[inst.regs[1]], regs[inst.regs[2]]
                    )
                except EvalTrap as exc:
                    raise MachineError(str(exc)) from None
                pc += 1
            elif op is MOp.LI:
                regs[inst.regs[0]] = wrap_i64(inst.imm)
                pc += 1
            elif op is MOp.MV:
                regs[inst.regs[0]] = regs[inst.regs[1]]
                pc += 1
            elif op is MOp.CMP:
                pred = ICmpPred(inst.extra)
                regs[inst.regs[0]] = (
                    1 if eval_icmp(pred, regs[inst.regs[1]], regs[inst.regs[2]]) else 0
                )
                pc += 1
            elif op is MOp.SEL:
                regs[inst.regs[0]] = (
                    regs[inst.regs[2]] if regs[inst.regs[1]] else regs[inst.regs[3]]
                )
                pc += 1
            elif op is MOp.LD:
                addr = regs[inst.regs[1]]
                if addr < 0 or addr >= len(memory):
                    raise MachineError(f"load out of bounds (addr {addr})")
                regs[inst.regs[0]] = memory[addr]
                pc += 1
            elif op is MOp.ST:
                addr = regs[inst.regs[1]]
                if addr < 0 or addr >= len(memory):
                    raise MachineError(f"store out of bounds (addr {addr})")
                memory[addr] = wrap_i64(regs[inst.regs[0]])
                pc += 1
            elif op is MOp.LEA:
                base = self.image.global_base.get(inst.extra)
                if base is None:
                    raise MachineError(f"unresolved global @{inst.extra}")
                regs[inst.regs[0]] = base
                pc += 1
            elif op is MOp.FRAME:
                regs[inst.regs[0]] = frame.frame_base + inst.imm
                pc += 1
            elif op is MOp.GETPARAM:
                regs[inst.regs[0]] = frame.params[inst.imm]
                pc += 1
            elif op is MOp.SPILL:
                memory[frame.frame_base + inst.imm] = regs[inst.regs[0]]
                pc += 1
            elif op is MOp.RELOAD:
                regs[inst.regs[0]] = memory[frame.frame_base + inst.imm]
                pc += 1
            elif op is MOp.ARG:
                arg_buffer.append(regs[inst.regs[0]])
                pc += 1
            elif op is MOp.CALL:
                params = arg_buffer[len(arg_buffer) - inst.imm :] if inst.imm else []
                del arg_buffer[len(arg_buffer) - inst.imm :]
                callee = inst.extra
                if callee == "print":
                    self.output.append(params[0])
                    pc += 1
                elif callee == "input":
                    if self._input_pos >= len(self.input_values):
                        raise MachineError("input() exhausted")
                    if inst.regs[0] >= 0:
                        regs[inst.regs[0]] = wrap_i64(self.input_values[self._input_pos])
                    self._input_pos += 1
                    pc += 1
                elif callee == "__trap_unreachable":
                    raise MachineError("executed unreachable")
                else:
                    pc = push_frame(callee, params, pc + 1, inst.regs[0])
            elif op is MOp.BR:
                pc = inst.imm
            elif op is MOp.CBR:
                pc = inst.imm if regs[inst.regs[0]] else inst.regs[1]
            elif op is MOp.RET:
                value = regs[inst.regs[0]] if inst.regs and inst.regs[0] >= 0 else 0
                finished = frames.pop()
                del memory[finished.frame_base :]
                if not frames:
                    return value
                if finished.dest_reg >= 0:
                    frames[-1].regs[finished.dest_reg] = value
                pc = finished.return_pc
            else:
                raise MachineError(f"cannot execute {op.value}")
