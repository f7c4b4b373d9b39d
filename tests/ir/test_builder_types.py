"""IRBuilder and IR-type tests (direct API coverage)."""

import pytest

from repro.ir import (
    Function,
    FunctionSig,
    I1,
    I64,
    IRBuilder,
    ICmpPred,
    Opcode,
    PTR,
    VOID,
    const_i64,
    verify_function,
)
from repro.ir.types import type_from_name


class TestTypes:
    def test_singletons(self):
        assert type_from_name("i64") is I64
        assert type_from_name("i1") is I1
        assert type_from_name("ptr") is PTR
        assert type_from_name("void") is VOID

    def test_unknown_name(self):
        with pytest.raises(ValueError):
            type_from_name("f32")

    def test_classification(self):
        assert I64.is_integer and I1.is_integer
        assert PTR.is_pointer and not PTR.is_integer
        assert VOID.is_void

    def test_signature_str(self):
        sig = FunctionSig((I64, PTR), I1)
        assert str(sig) == "i1(i64, ptr)"


class TestBuilder:
    def make(self):
        fn = Function("f", FunctionSig((I64, I64), I64), ["a", "b"])
        return fn, IRBuilder(fn, fn.add_block("entry"))

    def test_all_binary_helpers(self):
        fn, b = self.make()
        a0, a1 = fn.args
        results = [b.add(a0, a1), b.sub(a0, a1), b.mul(a0, a1)]
        for op in (Opcode.SDIV, Opcode.SREM, Opcode.SHL, Opcode.ASHR,
                   Opcode.AND, Opcode.OR, Opcode.XOR):
            results.append(b.binary(op, a0, a1))
        b.ret(results[-1])
        verify_function(fn)
        assert fn.num_instructions == len(results) + 1

    def test_names_autogenerated_and_unique(self):
        fn, b = self.make()
        v1 = b.add(fn.args[0], const_i64(1))
        v2 = b.add(fn.args[0], const_i64(2))
        assert v1.name and v2.name and v1.name != v2.name

    def test_void_instructions_unnamed(self):
        fn, b = self.make()
        slot = b.alloca(1)
        store = b.store(const_i64(1), slot)
        assert store.name == ""

    def test_phi_inserted_at_block_top(self):
        fn, b = self.make()
        b.add(fn.args[0], const_i64(1))
        phi = b.phi(I64)
        assert fn.entry.instructions[0] is phi

    def test_has_terminator(self):
        fn, b = self.make()
        assert not b.has_terminator
        b.ret(const_i64(0))
        assert b.has_terminator

    def test_insert_without_block_raises(self):
        fn = Function("g", FunctionSig((), VOID))
        b = IRBuilder(fn)
        with pytest.raises(ValueError):
            b.ret()

    def test_control_flow_helpers(self):
        fn, b = self.make()
        then_block = fn.add_block("then")
        else_block = fn.add_block("else")
        cond = b.icmp(ICmpPred.SLT, fn.args[0], fn.args[1])
        b.cbr(cond, then_block, else_block)
        b.set_block(then_block)
        b.ret(fn.args[0])
        b.set_block(else_block)
        b.ret(fn.args[1])
        verify_function(fn)

    def test_select_zext_trunc(self):
        fn, b = self.make()
        c = b.icmp(ICmpPred.EQ, fn.args[0], fn.args[1])
        sel = b.select(c, fn.args[0], fn.args[1])
        z = b.zext(c)
        t = b.trunc(z)
        assert sel.ty is I64 and z.ty is I64 and t.ty is I1
        b.ret(sel)
        verify_function(fn)

    def test_memory_helpers(self):
        fn, b = self.make()
        arr = b.alloca(4)
        slot = b.gep(arr, const_i64(2))
        b.store(fn.args[0], slot)
        v = b.load(I64, slot)
        b.ret(v)
        verify_function(fn)

    def test_call_helper(self):
        fn, b = self.make()
        r = b.call("callee", FunctionSig((I64,), I64), [fn.args[0]])
        b.ret(r)
        assert r.callee == "callee"

    def test_unreachable(self):
        fn, b = self.make()
        b.unreachable()
        verify_function(fn)
