"""IR verifier tests: each invariant violation must be caught."""

import pytest

from repro.ir import (
    BinaryInst,
    Function,
    FunctionSig,
    I64,
    IRBuilder,
    Module,
    Opcode,
    PhiInst,
    RetInst,
    VerifyError,
    const_i1,
    const_i64,
    verify_function,
    verify_module,
)
from repro.ir.instructions import CallInst


def simple_fn(module=None):
    fn = Function("f", FunctionSig((I64,), I64), ["x"])
    if module is not None:
        module.add_function(fn)
    return fn


class TestStructural:
    def test_valid_function_passes(self):
        fn = simple_fn()
        b = IRBuilder(fn, fn.add_block("entry"))
        v = b.add(fn.args[0], const_i64(1))
        b.ret(v)
        verify_function(fn)

    def test_empty_block(self):
        fn = simple_fn()
        fn.add_block("entry").append(RetInst(const_i64(0)))
        fn.add_block("empty")
        with pytest.raises(VerifyError, match="empty block"):
            verify_function(fn)

    def test_missing_terminator(self):
        fn = simple_fn()
        block = fn.add_block("entry")
        block.append(BinaryInst(Opcode.ADD, const_i64(1), const_i64(2), "t"))
        with pytest.raises(VerifyError, match="terminator"):
            verify_function(fn)

    def test_terminator_mid_block(self):
        fn = simple_fn()
        block = fn.add_block("entry")
        block.append(RetInst(const_i64(0)))
        block.append(RetInst(const_i64(1)))
        with pytest.raises(VerifyError, match="middle"):
            verify_function(fn)

    def test_entry_with_predecessor(self):
        fn = simple_fn()
        entry = fn.add_block("entry")
        IRBuilder(fn, entry).br(entry)
        with pytest.raises(VerifyError, match="entry block has predecessors"):
            verify_function(fn)

    def test_duplicate_value_names(self):
        fn = simple_fn()
        block = fn.add_block("entry")
        block.append(BinaryInst(Opcode.ADD, const_i64(1), const_i64(1), "same"))
        block.append(BinaryInst(Opcode.ADD, const_i64(2), const_i64(2), "same"))
        block.append(RetInst(const_i64(0)))
        with pytest.raises(VerifyError, match="duplicate value name"):
            verify_function(fn)

    def test_no_blocks(self):
        fn = simple_fn()
        with pytest.raises(VerifyError, match="no blocks"):
            verify_function(fn)


class TestPhis:
    def test_phi_after_non_phi(self):
        fn = simple_fn()
        a = fn.add_block("a")
        b = fn.add_block("b")
        c = fn.add_block("c")
        IRBuilder(fn, a).cbr(const_i1(True), b, c)
        IRBuilder(fn, b).br(c)
        add = BinaryInst(Opcode.ADD, const_i64(1), const_i64(2), "t")
        c.append(add)
        phi = PhiInst(I64, "p")
        phi.add_incoming(const_i64(1), a)
        phi.add_incoming(const_i64(2), b)
        c.append(phi)
        c.append(RetInst(phi))
        with pytest.raises(VerifyError, match="after non-phi"):
            verify_function(fn)

    def test_phi_incoming_must_match_preds(self):
        fn = simple_fn()
        a = fn.add_block("a")
        b = fn.add_block("b")
        IRBuilder(fn, a).br(b)
        phi = PhiInst(I64, "p")  # no incomings at all
        b.insert(0, phi)
        b.append(RetInst(phi))
        with pytest.raises(VerifyError, match="do not match predecessors"):
            verify_function(fn)

    def test_phi_type_mismatch(self):
        fn = simple_fn()
        a = fn.add_block("a")
        b = fn.add_block("b")
        IRBuilder(fn, a).br(b)
        phi = PhiInst(I64, "p")
        phi.add_incoming(const_i1(True), a)
        b.insert(0, phi)
        b.append(RetInst(phi))
        with pytest.raises(VerifyError, match="has type i1"):
            verify_function(fn)


class TestTypesAndUses:
    def test_binary_operand_type(self):
        fn = simple_fn()
        block = fn.add_block("entry")
        bad = BinaryInst(Opcode.ADD, const_i64(1), const_i64(2), "t")
        bad.set_operand(0, const_i1(True))
        block.append(bad)
        block.append(RetInst(bad))
        with pytest.raises(VerifyError, match="expected i64"):
            verify_function(fn)

    def test_cbr_needs_i1(self):
        fn = simple_fn()
        a, b = fn.add_block("a"), fn.add_block("b")
        from repro.ir.instructions import CBrInst

        cbr = CBrInst(const_i1(True), b, b)
        cbr.set_operand(0, const_i64(1))
        a.append(cbr)
        IRBuilder(fn, b).ret(const_i64(0))
        with pytest.raises(VerifyError, match="expected i1"):
            verify_function(fn)

    def test_use_of_detached_instruction(self):
        fn = simple_fn()
        block = fn.add_block("entry")
        floating = BinaryInst(Opcode.ADD, const_i64(1), const_i64(2), "ghost")
        block.append(BinaryInst(Opcode.MUL, floating, const_i64(2), "u"))
        block.append(RetInst(const_i64(0)))
        with pytest.raises(VerifyError, match="detached"):
            verify_function(fn)

    def test_dominance_violation(self):
        fn = simple_fn()
        a = fn.add_block("a")
        b = fn.add_block("b")
        c = fn.add_block("c")
        IRBuilder(fn, a).cbr(const_i1(True), b, c)
        builder_b = IRBuilder(fn, b)
        v = builder_b.add(const_i64(1), const_i64(2))
        builder_b.br(c)
        # c uses v but is reachable via a->c, not dominated by b.
        c.append(RetInst(v))
        with pytest.raises(VerifyError, match="not dominated"):
            verify_function(fn)

    def test_use_in_same_block_before_def(self):
        fn = simple_fn()
        block = fn.add_block("entry")
        v = BinaryInst(Opcode.ADD, const_i64(1), const_i64(2), "v")
        u = BinaryInst(Opcode.MUL, v, const_i64(3), "u")
        block.append(u)
        block.append(v)
        block.append(RetInst(u))
        with pytest.raises(VerifyError, match="not dominated"):
            verify_function(fn)


class TestModuleLevel:
    def test_call_signature_mismatch(self):
        module = Module("m")
        callee = Function("g", FunctionSig((I64,), I64), ["a"])
        cb = IRBuilder(callee, callee.add_block("e"))
        cb.ret(callee.args[0])
        module.add_function(callee)

        caller = simple_fn(module)
        caller.add_block("entry")
        wrong_sig = FunctionSig((I64, I64), I64)
        call = CallInst("g", wrong_sig, [const_i64(1), const_i64(2)], "r")
        caller.entry.append(call)
        caller.entry.append(RetInst(call))
        with pytest.raises(VerifyError, match="signature"):
            verify_module(module)

    def test_unreachable_block_exempt_from_dominance(self):
        fn = simple_fn()
        entry = fn.add_block("entry")
        IRBuilder(fn, entry).ret(const_i64(0))
        dead = fn.add_block("dead")
        v = BinaryInst(Opcode.ADD, const_i64(1), const_i64(2), "d")
        dead.append(v)
        dead.append(RetInst(v))
        verify_function(fn)  # should not raise
