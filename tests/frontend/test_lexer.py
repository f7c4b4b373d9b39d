"""Lexer tests."""


from repro.frontend.diagnostics import DiagnosticEngine
from repro.frontend.lexer import TokenKind, tokenize
from repro.frontend.source import SourceFile


def lex(text: str):
    diags = DiagnosticEngine()
    tokens = tokenize(SourceFile("t.mc", text), diags)
    return tokens, diags


def kinds(text: str):
    tokens, _ = lex(text)
    return [t.kind for t in tokens[:-1]]  # drop EOF


class TestBasicTokens:
    def test_empty_input_gives_eof(self):
        tokens, diags = lex("")
        assert [t.kind for t in tokens] == [TokenKind.EOF]
        assert not diags.has_errors

    def test_identifier(self):
        tokens, _ = lex("foo _bar baz42")
        assert [t.text for t in tokens[:-1]] == ["foo", "_bar", "baz42"]
        assert all(t.kind is TokenKind.IDENT for t in tokens[:-1])

    def test_keywords(self):
        assert kinds("int bool void if else while for return") == [
            TokenKind.KW_INT,
            TokenKind.KW_BOOL,
            TokenKind.KW_VOID,
            TokenKind.KW_IF,
            TokenKind.KW_ELSE,
            TokenKind.KW_WHILE,
            TokenKind.KW_FOR,
            TokenKind.KW_RETURN,
        ]

    def test_keyword_prefix_is_identifier(self):
        tokens, _ = lex("integer iffy")
        assert all(t.kind is TokenKind.IDENT for t in tokens[:-1])

    def test_decimal_literal(self):
        tokens, _ = lex("0 7 1234567890")
        assert [t.value for t in tokens[:-1]] == [0, 7, 1234567890]

    def test_hex_literal(self):
        tokens, _ = lex("0x10 0xfF 0X0")
        assert [t.value for t in tokens[:-1]] == [16, 255, 0]

    def test_bad_hex_reports_error(self):
        _, diags = lex("0x")
        assert diags.has_errors

    def test_string_literal(self):
        tokens, _ = lex('"hello.mh"')
        assert tokens[0].kind is TokenKind.STRING_LIT
        assert tokens[0].value == "hello.mh"

    def test_string_escapes(self):
        tokens, _ = lex(r'"a\nb\t\\\""')
        assert tokens[0].value == 'a\nb\t\\"'

    def test_unterminated_string(self):
        _, diags = lex('"oops')
        assert diags.has_errors


class TestOperators:
    def test_maximal_munch(self):
        assert kinds("<< <= < == = >= >> >") == [
            TokenKind.SHL,
            TokenKind.LE,
            TokenKind.LT,
            TokenKind.EQ,
            TokenKind.ASSIGN,
            TokenKind.GE,
            TokenKind.SHR,
            TokenKind.GT,
        ]

    def test_compound_assignment(self):
        assert kinds("+= -= *= /= %=") == [
            TokenKind.PLUS_ASSIGN,
            TokenKind.MINUS_ASSIGN,
            TokenKind.STAR_ASSIGN,
            TokenKind.SLASH_ASSIGN,
            TokenKind.PERCENT_ASSIGN,
        ]

    def test_incdec(self):
        assert kinds("++ -- + -") == [
            TokenKind.PLUS_PLUS,
            TokenKind.MINUS_MINUS,
            TokenKind.PLUS,
            TokenKind.MINUS,
        ]

    def test_logical_and_bitwise(self):
        assert kinds("&& & || | ^ ~ !") == [
            TokenKind.AMP_AMP,
            TokenKind.AMP,
            TokenKind.PIPE_PIPE,
            TokenKind.PIPE,
            TokenKind.CARET,
            TokenKind.TILDE,
            TokenKind.BANG,
        ]

    def test_punctuation(self):
        assert kinds("( ) { } [ ] ; , ? :") == [
            TokenKind.LPAREN,
            TokenKind.RPAREN,
            TokenKind.LBRACE,
            TokenKind.RBRACE,
            TokenKind.LBRACKET,
            TokenKind.RBRACKET,
            TokenKind.SEMI,
            TokenKind.COMMA,
            TokenKind.QUESTION,
            TokenKind.COLON,
        ]


class TestTrivia:
    def test_line_comment(self):
        assert kinds("1 // comment with * and /\n2") == [TokenKind.INT_LIT, TokenKind.INT_LIT]

    def test_block_comment(self):
        assert kinds("1 /* multi\nline */ 2") == [TokenKind.INT_LIT, TokenKind.INT_LIT]

    def test_unterminated_block_comment(self):
        _, diags = lex("1 /* never ends")
        assert diags.has_errors

    def test_comment_at_eof(self):
        tokens, diags = lex("// only a comment")
        assert tokens[-1].kind is TokenKind.EOF
        assert not diags.has_errors

    def test_unknown_character_reported_and_skipped(self):
        tokens, diags = lex("1 $ 2")
        assert diags.has_errors
        assert [t.kind for t in tokens[:-1]] == [TokenKind.INT_LIT, TokenKind.INT_LIT]


class TestSpans:
    def test_token_spans_cover_text(self):
        text = "int x = 42;"
        tokens, _ = lex(text)
        for tok in tokens[:-1]:
            assert text[tok.span.start : tok.span.end] == tok.text

    def test_span_line_info(self):
        tokens, _ = lex("a\n  b")
        assert tokens[1].span.describe().endswith(":2:3")
