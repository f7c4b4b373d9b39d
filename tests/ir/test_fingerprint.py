"""Fingerprint tests: stability, sensitivity, and canonical invariance."""

from repro.ir import (
    canonical_function_text,
    fingerprint_function,
    parse_module,
    stable_hash,
)
from tests.conftest import lower


FN_TEXT = """module m
define @f(i64 %x) -> i64 {
^entry:
  %t = add i64 %x, 1
  %u = mul i64 %t, 2
  ret %u
}
"""


def fn_of(text: str, name: str = "f"):
    return parse_module(text).functions[name]


class TestStability:
    def test_same_ir_same_fingerprint(self):
        a, b = fn_of(FN_TEXT), fn_of(FN_TEXT)
        assert fingerprint_function(a) == fingerprint_function(b)
        assert fingerprint_function(a, mode="named") == fingerprint_function(b, mode="named")

    def test_streaming_digest_matches_text_hash(self):
        fn = fn_of(FN_TEXT)
        assert fingerprint_function(fn) == stable_hash(canonical_function_text(fn))

    def test_lowered_function_fingerprint_deterministic(self):
        src = "int f(int x) { int a[4]; a[x & 3] = x; return a[0] + x * 2; }"
        m1, m2 = lower(src), lower(src)
        f1, f2 = m1.functions["f"], m2.functions["f"]
        assert fingerprint_function(f1) == fingerprint_function(f2)


class TestSensitivity:
    def test_constant_change_changes_fingerprint(self):
        other = FN_TEXT.replace("add i64 %x, 1", "add i64 %x, 2")
        assert fingerprint_function(fn_of(FN_TEXT)) != fingerprint_function(fn_of(other))

    def test_opcode_change_changes_fingerprint(self):
        other = FN_TEXT.replace("add i64 %x, 1", "sub i64 %x, 1")
        assert fingerprint_function(fn_of(FN_TEXT)) != fingerprint_function(fn_of(other))

    def test_operand_order_matters(self):
        a = "module m\ndefine @f(i64 %x) -> i64 {\n^e:\n  %t = sub i64 %x, 1\n  ret %t\n}"
        b = "module m\ndefine @f(i64 %x) -> i64 {\n^e:\n  %t = sub i64 1, %x\n  ret %t\n}"
        assert fingerprint_function(fn_of(a)) != fingerprint_function(fn_of(b))

    def test_signature_matters(self):
        a = "module m\ndefine @f(i64 %x) -> i64 {\n^e:\n  ret 0\n}"
        b = "module m\ndefine @f(i64 %x, i64 %y) -> i64 {\n^e:\n  ret 0\n}"
        assert fingerprint_function(fn_of(a)) != fingerprint_function(fn_of(b))

    def test_callee_name_matters(self):
        a = "module m\ndefine @f() -> i64 {\n^e:\n  %r = call @g() : i64()\n  ret %r\n}"
        b = a.replace("@g()", "@h()")
        assert fingerprint_function(fn_of(a)) != fingerprint_function(fn_of(b))

    def test_global_symbol_matters(self):
        a = "module m\ndefine @f() -> i64 {\n^e:\n  %v = load i64 @g1\n  ret %v\n}"
        b = a.replace("@g1", "@g2")
        assert fingerprint_function(fn_of(a)) != fingerprint_function(fn_of(b))


class TestCanonicalInvariance:
    def test_value_renames_do_not_change_canonical(self):
        renamed = FN_TEXT.replace("%t", "%foo").replace("%u", "%bar")
        f1, f2 = fn_of(FN_TEXT), fn_of(renamed)
        assert fingerprint_function(f1) == fingerprint_function(f2)
        # ...but the named mode is sensitive to renames.
        assert fingerprint_function(f1, mode="named") != fingerprint_function(f2, mode="named")

    def test_block_renames_do_not_change_canonical(self):
        a = """module m
define @f(i1 %c) -> i64 {
^entry:
  cbr %c, ^yes, ^no
^yes:
  ret 1
^no:
  ret 0
}
"""
        b = a.replace("^yes", "^left").replace("^no", "^right")
        assert fingerprint_function(fn_of(a)) == fingerprint_function(fn_of(b))

    def test_block_reordering_changes_canonical(self):
        # Layout is part of the canonical form (it determines execution
        # order assumptions in passes), so reordering is a real change.
        a = """module m
define @f(i1 %c) -> i64 {
^entry:
  cbr %c, ^x, ^y
^x:
  ret 1
^y:
  ret 0
}
"""
        b = """module m
define @f(i1 %c) -> i64 {
^entry:
  cbr %c, ^x, ^y
^y:
  ret 0
^x:
  ret 1
}
"""
        assert fingerprint_function(fn_of(a)) != fingerprint_function(fn_of(b))

    def test_unknown_mode_raises(self):
        import pytest

        with pytest.raises(ValueError):
            fingerprint_function(fn_of(FN_TEXT), mode="bogus")


CALL_TEXT = """module m
define @g(i64 %x) -> i64 {
^entry:
  %t = call @h(%x) : i64(i64)
  ret %x
}
"""


class TestCalleePurity:
    """A call site's fingerprint covers whether its callee is pure.

    ``dce``/``cse``/``adce`` read the module's pure set, so a callee
    flipping purity must change its caller's dormancy key even though
    the caller's own IR is unchanged.
    """

    def test_purity_bit_changes_the_fingerprint_in_both_modes(self):
        fn = fn_of(CALL_TEXT, "g")
        for mode in ("canonical", "named"):
            impure = fingerprint_function(fn, mode=mode)
            pure = fingerprint_function(fn, mode=mode, pure=frozenset({"h"}))
            assert impure != pure, mode

    def test_unrelated_pure_functions_do_not_matter(self):
        fn = fn_of(CALL_TEXT, "g")
        for mode in ("canonical", "named"):
            assert fingerprint_function(fn, mode=mode) == fingerprint_function(
                fn, mode=mode, pure=frozenset({"other"})
            ), mode

    def test_functions_without_calls_are_unaffected(self):
        fn = fn_of(FN_TEXT)
        assert fingerprint_function(fn, mode="named") == fingerprint_function(
            fn, mode="named", pure=frozenset({"f"})
        )
        assert fingerprint_function(fn) == stable_hash(canonical_function_text(fn))
