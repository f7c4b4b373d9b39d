"""Module/function/block container tests."""

import pytest

from repro.ir import (
    Function,
    FunctionSig,
    GlobalVariable,
    I64,
    IRBuilder,
    Module,
    PhiInst,
    RetInst,
    const_i64,
)


def make_fn(name="f", params=(I64,)):
    return Function(name, FunctionSig(tuple(params), I64), [f"p{i}" for i in range(len(params))])


class TestBasicBlock:
    def test_append_sets_parent(self):
        fn = make_fn()
        block = fn.add_block("entry")
        inst = block.append(RetInst(const_i64(0)))
        assert inst.parent is block

    def test_terminator_detection(self):
        fn = make_fn()
        block = fn.add_block("entry")
        assert block.terminator is None
        block.append(RetInst(const_i64(0)))
        assert block.terminator is not None

    def test_phis_prefix(self):
        fn = make_fn()
        block = fn.add_block("b")
        p1 = PhiInst(I64, "p1")
        block.append(p1)
        block.append(RetInst(const_i64(0)))
        assert block.phis == [p1]
        assert block.first_non_phi_index() == 1

    def test_insert_before(self):
        fn = make_fn()
        block = fn.add_block("b")
        ret = block.append(RetInst(const_i64(0)))
        phi = PhiInst(I64, "x")
        block.insert_before(ret, phi)
        assert block.instructions == [phi, ret]


class TestFunction:
    def test_entry_is_first_block(self):
        fn = make_fn()
        a = fn.add_block("a")
        fn.add_block("b")
        assert fn.entry is a

    def test_entry_without_blocks_raises(self):
        with pytest.raises(ValueError):
            make_fn().entry

    def test_add_block_after(self):
        fn = make_fn()
        a = fn.add_block("a")
        c = fn.add_block("c")
        b = fn.add_block("b", after=a)
        assert fn.blocks == [a, b, c]

    def test_next_name_unique(self):
        fn = make_fn()
        names = {fn.next_name() for _ in range(100)}
        assert len(names) == 100

    def test_predecessors(self):
        fn = make_fn()
        a, b, c = fn.add_block("a"), fn.add_block("b"), fn.add_block("c")
        builder = IRBuilder(fn, a)
        builder.br(b)
        builder.set_block(b)
        builder.br(c)
        builder.set_block(c)
        builder.ret(const_i64(0))
        preds = fn.predecessors()
        assert preds[a] == [] and preds[b] == [a] and preds[c] == [b]

    def test_remove_block_drops_references(self):
        fn = make_fn()
        a = fn.add_block("a")
        b = fn.add_block("b")
        builder = IRBuilder(fn, b)
        v = builder.add(const_i64(1), const_i64(2))
        builder.ret(v)
        builder.set_block(a)
        builder.ret(const_i64(0))
        fn.remove_block(b)
        assert b not in fn.blocks
        assert v.parent is None

    def test_arg_names_length_checked(self):
        with pytest.raises(ValueError):
            Function("f", FunctionSig((I64,), I64), ["a", "b"])

    def test_is_declaration(self):
        fn = make_fn()
        assert fn.is_declaration
        fn.add_block("entry")
        assert not fn.is_declaration

    def test_num_instructions(self):
        fn = make_fn()
        block = fn.add_block("e")
        builder = IRBuilder(fn, block)
        builder.add(const_i64(1), const_i64(2))
        builder.ret(const_i64(0))
        assert fn.num_instructions == 2


class TestGlobalVariable:
    def test_default_zero_init(self):
        g = GlobalVariable("g", 3)
        assert g.initializer == [0, 0, 0]

    def test_explicit_init(self):
        g = GlobalVariable("g", 2, [5, 6])
        assert g.initializer == [5, 6]

    def test_init_size_mismatch(self):
        with pytest.raises(ValueError):
            GlobalVariable("g", 2, [1])

    def test_nonpositive_size(self):
        with pytest.raises(ValueError):
            GlobalVariable("g", 0)

    def test_external_has_no_storage(self):
        g = GlobalVariable("g", 4, is_external=True)
        assert g.initializer == []


class TestModule:
    def test_duplicate_global_rejected(self):
        m = Module("m")
        m.add_global(GlobalVariable("g", 1))
        with pytest.raises(ValueError):
            m.add_global(GlobalVariable("g", 1))

    def test_declaration_upgraded_by_definition(self):
        m = Module("m")
        decl = Function("f", FunctionSig((), I64))
        m.add_function(decl)
        defn = Function("f", FunctionSig((), I64))
        defn.add_block("entry").append(RetInst(const_i64(0)))
        m.add_function(defn)
        assert m.get_function("f") is defn

    def test_duplicate_definition_rejected(self):
        m = Module("m")
        for _ in range(2):
            f = Function("f", FunctionSig((), I64))
            f.add_block("e").append(RetInst(const_i64(0)))
            if m.get_function("f") is None:
                m.add_function(f)
            else:
                with pytest.raises(ValueError):
                    m.add_function(f)

    def test_defined_functions_excludes_declarations(self):
        m = Module("m")
        m.add_function(Function("decl", FunctionSig((), I64)))
        d = Function("defn", FunctionSig((), I64))
        d.add_block("e").append(RetInst(const_i64(0)))
        m.add_function(d)
        assert [f.name for f in m.defined_functions()] == ["defn"]
