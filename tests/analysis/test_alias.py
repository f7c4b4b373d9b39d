"""Alias analysis tests."""

from repro.analysis.alias import AliasResult, classify_pointer, may_alias
from repro.ir import (
    Function,
    FunctionSig,
    GlobalAddr,
    I64,
    IRBuilder,
    PTR,
    const_i64,
)


def make_fn_with_builder():
    fn = Function("f", FunctionSig((PTR, PTR), I64), ["p", "q"])
    builder = IRBuilder(fn, fn.add_block("entry"))
    return fn, builder


class TestClassify:
    def test_alloca_root(self):
        fn, b = make_fn_with_builder()
        a = b.alloca(4)
        info = classify_pointer(a)
        assert info.kind == "alloca" and info.root is a and info.offset == 0

    def test_gep_constant_offsets_accumulate(self):
        fn, b = make_fn_with_builder()
        a = b.alloca(8)
        g1 = b.gep(a, const_i64(2))
        g2 = b.gep(g1, const_i64(3))
        info = classify_pointer(g2)
        assert info.root is a and info.offset == 5

    def test_gep_variable_offset_unknown(self):
        fn, b = make_fn_with_builder()
        a = b.alloca(8)
        g = b.gep(a, fn.args[0])  # ptr arg misused as index: still variable
        info = classify_pointer(g)
        assert info.root is a and info.offset is None

    def test_global_root(self):
        info = classify_pointer(GlobalAddr("sym"))
        assert info.kind == "global" and info.root == "sym"

    def test_argument_root(self):
        fn, b = make_fn_with_builder()
        info = classify_pointer(fn.args[0])
        assert info.kind == "argument"


class TestMayAlias:
    def test_distinct_allocas(self):
        fn, b = make_fn_with_builder()
        a1, a2 = b.alloca(4), b.alloca(4)
        assert may_alias(a1, a2) is AliasResult.NO_ALIAS

    def test_same_alloca_same_offset(self):
        fn, b = make_fn_with_builder()
        a = b.alloca(4)
        g1 = b.gep(a, const_i64(1))
        g2 = b.gep(a, const_i64(1))
        assert may_alias(g1, g2) is AliasResult.MUST_ALIAS

    def test_same_alloca_different_offsets(self):
        fn, b = make_fn_with_builder()
        a = b.alloca(4)
        assert may_alias(b.gep(a, const_i64(0)), b.gep(a, const_i64(1))) is AliasResult.NO_ALIAS

    def test_same_alloca_variable_offset(self):
        fn, b = make_fn_with_builder()
        a = b.alloca(4)
        var = b.load(I64, b.alloca(1))
        assert may_alias(b.gep(a, var), b.gep(a, const_i64(1))) is AliasResult.MAY_ALIAS

    def test_alloca_vs_global(self):
        fn, b = make_fn_with_builder()
        assert may_alias(b.alloca(2), GlobalAddr("g")) is AliasResult.NO_ALIAS

    def test_distinct_globals(self):
        assert may_alias(GlobalAddr("g"), GlobalAddr("h")) is AliasResult.NO_ALIAS

    def test_same_global(self):
        assert may_alias(GlobalAddr("g"), GlobalAddr("g")) is AliasResult.MUST_ALIAS

    def test_argument_vs_global(self):
        fn, b = make_fn_with_builder()
        assert may_alias(fn.args[0], GlobalAddr("g")) is AliasResult.MAY_ALIAS

    def test_argument_vs_private_alloca(self):
        fn, b = make_fn_with_builder()
        a = b.alloca(4)
        b.store(const_i64(1), a)  # address does not escape
        assert may_alias(fn.args[0], a) is AliasResult.NO_ALIAS

    def test_argument_vs_escaped_alloca(self):
        from repro.ir import FunctionSig as Sig

        fn, b = make_fn_with_builder()
        a = b.alloca(4)
        b.call("taker", Sig((PTR,), I64), [a])  # address escapes
        assert may_alias(fn.args[0], a) is AliasResult.MAY_ALIAS

    def test_two_arguments(self):
        fn, b = make_fn_with_builder()
        assert may_alias(fn.args[0], fn.args[1]) is AliasResult.MAY_ALIAS
