"""Dominator tree and dominance frontier tests."""

from repro.ir import (
    Function,
    FunctionSig,
    I64,
    IRBuilder,
    const_i1,
    const_i64,
)
from repro.analysis.dominators import DominatorTree


def diamond():
    """entry -> (left | right) -> merge"""
    fn = Function("f", FunctionSig((), I64))
    entry = fn.add_block("entry")
    left = fn.add_block("left")
    right = fn.add_block("right")
    merge = fn.add_block("merge")
    IRBuilder(fn, entry).cbr(const_i1(True), left, right)
    IRBuilder(fn, left).br(merge)
    IRBuilder(fn, right).br(merge)
    IRBuilder(fn, merge).ret(const_i64(0))
    return fn, entry, left, right, merge


def loop_cfg():
    """entry -> header <-> body; header -> exit"""
    fn = Function("f", FunctionSig((), I64))
    entry = fn.add_block("entry")
    header = fn.add_block("header")
    body = fn.add_block("body")
    exit_ = fn.add_block("exit")
    IRBuilder(fn, entry).br(header)
    IRBuilder(fn, header).cbr(const_i1(True), body, exit_)
    IRBuilder(fn, body).br(header)
    IRBuilder(fn, exit_).ret(const_i64(0))
    return fn, entry, header, body, exit_


class TestDominators:
    def test_diamond_idoms(self):
        fn, entry, left, right, merge = diamond()
        dt = DominatorTree.compute(fn)
        assert dt.immediate_dominator(entry) is None
        assert dt.immediate_dominator(left) is entry
        assert dt.immediate_dominator(right) is entry
        assert dt.immediate_dominator(merge) is entry  # not left/right!

    def test_dominates_reflexive_and_transitive(self):
        fn, entry, left, right, merge = diamond()
        dt = DominatorTree.compute(fn)
        assert dt.dominates_block(entry, entry)
        assert dt.dominates_block(entry, merge)
        assert not dt.dominates_block(left, merge)
        assert not dt.dominates_block(merge, entry)
        assert dt.strictly_dominates(entry, merge)
        assert not dt.strictly_dominates(merge, merge)

    def test_loop_idoms(self):
        fn, entry, header, body, exit_ = loop_cfg()
        dt = DominatorTree.compute(fn)
        assert dt.immediate_dominator(header) is entry
        assert dt.immediate_dominator(body) is header
        assert dt.immediate_dominator(exit_) is header
        assert dt.dominates_block(header, body)
        assert not dt.dominates_block(body, exit_)

    def test_unreachable_block(self):
        fn, *_ = diamond()
        dead = fn.add_block("dead")
        IRBuilder(fn, dead).ret(const_i64(1))
        dt = DominatorTree.compute(fn)
        assert not dt.is_reachable(dead)
        assert not dt.dominates_block(fn.entry, dead)

    def test_children_partition(self):
        fn, entry, left, right, merge = diamond()
        dt = DominatorTree.compute(fn)
        assert set(dt.children[entry]) == {left, right, merge}

    def test_dfs_preorder_starts_at_entry(self):
        fn, entry, *_ = diamond()
        dt = DominatorTree.compute(fn)
        order = dt.dfs_preorder()
        assert order[0] is entry
        assert len(order) == 4


class TestDominanceFrontiers:
    def test_diamond_frontiers(self):
        fn, entry, left, right, merge = diamond()
        dt = DominatorTree.compute(fn)
        df = dt.dominance_frontiers()
        assert df[left] == {merge}
        assert df[right] == {merge}
        assert df[entry] == set()
        assert df[merge] == set()

    def test_loop_frontier_contains_header(self):
        fn, entry, header, body, exit_ = loop_cfg()
        dt = DominatorTree.compute(fn)
        df = dt.dominance_frontiers()
        assert header in df[body]
        assert header in df[header]  # header's own frontier via the loop
