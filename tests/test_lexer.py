import pytest

from exflow.syntax.errors import ParseError
from exflow.syntax.lexer import tokenize


def kinds_and_texts(source):
    lexed = tokenize(source, "T.java")
    return [(t.kind, t.text) for t in lexed.tokens if t.kind != "eof"]


def test_keywords_vs_identifiers():
    assert kinds_and_texts("class Foo") == [("kw", "class"), ("ident", "Foo")]
    assert kinds_and_texts("classy") == [("ident", "classy")]
    assert kinds_and_texts("$x _y café x²") == [
        ("ident", "$x"), ("ident", "_y"), ("ident", "café"), ("ident", "x²")]
    assert kinds_and_texts("é") == [("ident", "é")]


def test_punctuation_maximal_munch():
    assert kinds_and_texts("a >>>= b") == [
        ("ident", "a"), ("punct", ">>>="), ("ident", "b")]
    assert kinds_and_texts("x >>> y >> z") == [
        ("ident", "x"), ("punct", ">>>"), ("ident", "y"),
        ("punct", ">>"), ("ident", "z")]
    assert kinds_and_texts("() -> x::y") == [
        ("punct", "("), ("punct", ")"), ("punct", "->"),
        ("ident", "x"), ("punct", "::"), ("ident", "y")]
    assert kinds_and_texts("f(a, ...)")[-2] == ("punct", "...")
    assert kinds_and_texts("....5") == [("punct", "..."), ("float", ".5")]
    assert kinds_and_texts("a/b") == [
        ("ident", "a"), ("punct", "/"), ("ident", "b")]


def test_number_literals():
    assert kinds_and_texts("0x1F 0b1010 12_000 1.5e-3 2f 3L .5") == [
        ("int", "0x1F"), ("int", "0b1010"), ("int", "12_000"),
        ("float", "1.5e-3"), ("float", "2f"), ("int", "3L"),
        ("float", ".5")]
    assert kinds_and_texts("1. 1..2 1e 1e+5 0b1_0L 1.5f 2d") == [
        ("int", "1"), ("punct", "."),
        ("int", "1"), ("punct", "."), ("float", ".2"),
        ("int", "1"), ("ident", "e"),
        ("float", "1e+5"), ("int", "0b1_0L"), ("float", "1.5f"),
        ("float", "2d")]
    # \d is Unicode-aware: Arabic-Indic digits are decimal digits
    assert kinds_and_texts("\u0661\u0662 \u0663.\u0664") == [
        ("int", "\u0661\u0662"), ("float", "\u0663.\u0664")]


def test_string_and_char_literals():
    source = '"a\\"b" + \'\\n\''
    lexed = tokenize(source, "T.java")
    kinds = [t.kind for t in lexed.tokens if t.kind != "eof"]
    assert kinds == ["string", "punct", "char"]


def test_positions_one_indexed():
    lexed = tokenize("a\n  b", "T.java")
    a, b = lexed.tokens[0], lexed.tokens[1]
    assert (a.line, a.column) == (1, 1)
    assert (b.line, b.column) == (2, 3)
    assert str(b.position("T.java")) == "T.java:2:3"
    lexed = tokenize("a\r\n  b\r\nc", "T.java")
    assert [(t.text, t.line, t.column, t.offset) for t in lexed.tokens] == [
        ("a", 1, 1, 0), ("b", 2, 3, 5), ("c", 3, 1, 8), ("", 3, 2, 9)]
    # a backslash-newline stays inside the literal, and its newline counts
    lexed = tokenize('x = "a\\\nbc" + y', "T.java")
    string, plus, y = lexed.tokens[2:5]
    assert (string.kind, string.text) == ("string", '"a\\\nbc"')
    assert (plus.line, plus.column) == (2, 5)
    assert (y.line, y.column, y.offset) == (2, 7, 14)


def test_comments_collected_not_tokenized():
    source = "a // line\n/* block */ b /** doc comment */ c"
    lexed = tokenize(source, "T.java")
    assert [t.text for t in lexed.tokens if t.kind != "eof"] == ["a", "b", "c"]
    assert [c.text for c in lexed.comments] == [
        "// line", "/* block */", "/** doc comment */"]
    assert [c.is_doc for c in lexed.comments] == [False, False, True]


def test_empty_block_comment_is_not_doc():
    lexed = tokenize("/**/ x", "T.java")
    assert lexed.comments[0].is_doc is False
    lexed = tokenize("a/**/b/***/c", "T.java")
    assert [t.text for t in lexed.tokens] == ["a", "b", "c", ""]
    assert [c.text for c in lexed.comments] == ["/**/", "/***/"]


def test_comment_spans_cover_source_offsets():
    source = "x /* c */ y"
    lexed = tokenize(source, "T.java")
    start, end = lexed.comment_spans[0]
    assert source[start:end] == "/* c */"


def test_comments_before_token_association():
    source = "a /* one */ /* two */ b"
    lexed = tokenize(source, "T.java")
    b_index = next(i for i, t in enumerate(lexed.tokens) if t.text == "b")
    assert lexed.comments_before[b_index] == [0, 1]


def test_trailing_comment_attaches_to_eof():
    lexed = tokenize("a // tail", "T.java")
    assert lexed.comments_before[-1] == [0]


def test_unterminated_constructs_raise():
    with pytest.raises(ParseError, match="unterminated block comment"):
        tokenize("/* never done", "T.java")
    with pytest.raises(ParseError, match="unterminated string"):
        tokenize('"open', "T.java")
    with pytest.raises(ParseError, match="unterminated character"):
        tokenize("'x", "T.java")


def test_unexpected_character_has_position():
    # vertical tab is not Java whitespace; a fraction or a Roman numeral is
    # a word character but cannot start an identifier; superscript and
    # circled digits are digits to str.isdigit() but not decimal digits,
    # so they start no number either
    for char in "#\x0b\u00bd\u2167\u00b2\u2460":
        with pytest.raises(ParseError) as info:
            tokenize(f"a\n  {char}2", "T.java")
        assert str(info.value) == f"T.java:2:3: unexpected character {char!r}"


def positions(source):
    lexed = tokenize(source, "T.java")
    tokens = [(t.kind, t.text, t.line, t.column, t.offset,
               list(lexed.comments_before[i]))
              for i, t in enumerate(lexed.tokens)]
    comments = [(c.text, c.position.line, c.position.column)
                for c in lexed.comments]
    return tokens, comments


@pytest.mark.parametrize("source, tokens, comments", [
    ("", [("eof", "", 1, 1, 0, [])], []),
    (" \t\n\f\r\n  ", [("eof", "", 3, 3, 8, [])], []),
    ("\r\n\r\na\r\n",
     [("ident", "a", 3, 1, 4, []), ("eof", "", 4, 1, 7, [])], []),
    ("\f\f\ta\t\t\tb\f\n\f c",
     [("ident", "a", 1, 4, 3, []), ("ident", "b", 1, 8, 7, []),
      ("ident", "c", 2, 3, 12, []), ("eof", "", 2, 4, 13, [])], []),
    ("a\n// last",
     [("ident", "a", 1, 1, 0, []), ("eof", "", 2, 8, 9, [0])],
     [("// last", 2, 1)]),
    ("a // last\n",
     [("ident", "a", 1, 1, 0, []), ("eof", "", 2, 1, 10, [0])],
     [("// last", 1, 3)]),
    ("a /* last\n */",
     [("ident", "a", 1, 1, 0, []), ("eof", "", 2, 4, 13, [0])],
     [("/* last\n */", 1, 3)]),
    ("/** doc */\n// two\n  class",
     [("kw", "class", 3, 3, 20, [0, 1]), ("eof", "", 3, 8, 25, [])],
     [("/** doc */", 1, 1), ("// two", 2, 1)]),
    ("\n\n/* x */ a /* y */",
     [("ident", "a", 3, 9, 10, [0]), ("eof", "", 3, 18, 19, [1])],
     [("/* x */", 3, 1), ("/* y */", 3, 11)]),
], ids=["empty", "whitespace-only", "crlf", "form-feed-and-tab-runs",
        "line-comment-last", "line-comment-then-newline",
        "block-comment-last", "comments-before-first-token",
        "comments-around-one-token"])
def test_whitespace_and_comments_at_the_edges(source, tokens, comments):
    assert positions(source) == (tokens, comments)
