"""The token-tuple lexer, kept as a reference for the token arrays.

This is the lexer exflow used before it stored a file's tokens as parallel
arrays: one ``Token`` tuple per token, with line and column counted as the
scan goes, and a ``comments_before`` entry per token. ``tests/test_lexer.py``
checks the production lexer against it token by token. It predates text
blocks and hexadecimal floating literals, so inputs holding either are left
out of that comparison.
"""

from __future__ import annotations

import re
import sys
from typing import NamedTuple, Sequence

from exflow.syntax.ast import SourcePosition
from exflow.syntax.errors import ParseError

KEYWORDS = frozenset({
    "abstract", "assert", "boolean", "break", "byte", "case", "catch",
    "char", "class", "const", "continue", "default", "do", "double", "else",
    "enum", "extends", "final", "finally", "float", "for", "goto", "if",
    "implements", "import", "instanceof", "int", "interface", "long",
    "native", "new", "package", "private", "protected", "public", "return",
    "short", "static", "strictfp", "super", "switch", "synchronized",
    "this", "throw", "throws", "transient", "try", "void", "volatile",
    "while", "true", "false", "null",
})

_PUNCT = [
    ">>>=", "<<=", ">>=", ">>>", "...", "<<", ">>", "->", "::", "++", "--",
    "&&", "||", "<=", ">=", "==", "!=", "+=", "-=", "*=", "/=", "%=", "&=",
    "|=", "^=",
    "+", "-", "*", "/", "%", "=", "<", ">", "!", "~", "&", "|", "^", "?",
    ":", ";", ",", ".", "(", ")", "{", "}", "[", "]", "@",
]

_DIGITS = r"\d[\d_]*"
_EXPONENT = r"[eE][+-]?\d+"
# One match is a run of whitespace and then a token, a comment or the end
# of the source, so whitespace costs no match of its own. Alternatives are
# tried in order and the first that matches wins, so each class comes
# before any class that matches a prefix of its tokens. After the
# whitespace, the end or the last, one-character group always matches, so
# no group is ever tried on a whitespace character.
_TOKEN = re.compile(r"[ \t\r\n\f]*(?:" + "|".join(
    f"(?P<{kind}>{pattern})" for kind, pattern in (
        ("comment", r"//[^\n]*|/\*.*?\*/"),
        ("unclosed", r"/\*"),
        ("ident", r"(?:[^\W\d]|\$)[\w$]*"),
        ("float", rf"(?:{_DIGITS})?\.{_DIGITS}(?:{_EXPONENT})?[lLfFdD]?"
                  rf"|{_DIGITS}(?:{_EXPONENT}[lLfFdD]?|[fFdD])"),
        ("int", rf"0[xXbB]\w*|{_DIGITS}[lL]?"),
        ("string", r'"[^"\\\n]*(?:\\.[^"\\\n]*)*"'),
        ("char", r"'[^'\\\n]*(?:\\.[^'\\\n]*)*'"),
        ("punct", "|".join(
            map(re.escape, sorted(_PUNCT, key=len, reverse=True)))),
        ("eof", r"\Z"),
        ("bad", r"."),
    )) + ")", re.DOTALL)

# comments_before of a token that follows no comment; shared, never mutated
_NO_COMMENTS: Sequence[int] = ()

_UNTERMINATED = {
    "/*": "unterminated block comment",
    '"': "unterminated string literal",
    "'": "unterminated character literal",
}


class Token(NamedTuple):
    kind: str  # "ident" | "kw" | "int" | "float" | "char" | "string" | "punct" | "eof"
    text: str
    line: int
    column: int
    offset: int

    def position(self, file: str) -> SourcePosition:
        return SourcePosition(file, self.line, self.column)


class LexedSource:
    """Tokens plus side-channel comments for one source file."""

    def __init__(self, tokens: list[Token],
                 comment_spans: list[tuple[int, int]],
                 comments_before: list[Sequence[int]], file: str):
        self.tokens = tokens
        self.comment_spans = comment_spans  # (start, end) offsets per comment
        # for each token index, indices of comments between it and the
        # previous token (one shared empty tuple when there are none)
        self.comments_before = comments_before
        self.file = file


# builds a Token without the Python-level __new__ that NamedTuple adds
_new_tuple = tuple.__new__


def tokenize(source: str, file: str) -> LexedSource:
    tokens: list[Token] = []
    comment_spans: list[tuple[int, int]] = []
    comments_before: list[Sequence[int]] = []
    pending: Sequence[int] = _NO_COMMENTS
    line = 1
    line_start = 0  # offset of the first character of the current line
    end = 0  # end of the previous match
    intern = sys.intern

    for match in _TOKEN.finditer(source):
        kind = match.lastgroup
        start = match.start(kind)
        newlines = source.count("\n", end, start)
        if newlines:
            line += newlines
            line_start = source.rindex("\n", end, start) + 1
        end = match.end()
        column = start - line_start + 1
        if kind == "eof":
            break
        text = source[start:end]
        if kind == "comment":
            comment_spans.append((start, end))
            if not pending:
                pending = []
            pending.append(len(comment_spans) - 1)
        else:
            if kind == "ident":
                text = intern(text)
                if text in KEYWORDS:
                    kind = "kw"
                elif not (text[0].isalpha() or text[0] in "_$"):
                    # a numeric character such as '½' is a word character
                    # but cannot start an identifier
                    kind = "bad"
                    text = text[0]
            if kind in ("unclosed", "bad"):
                message = _UNTERMINATED.get(
                    text, f"unexpected character {text!r}")
                raise ParseError(message, SourcePosition(file, line, column))
            tokens.append(_new_tuple(Token, (kind, text, line, column, start)))
            comments_before.append(pending)
            pending = _NO_COMMENTS
        # a block comment, or a string or char with a backslash-newline
        if "\n" in text:
            line += text.count("\n")
            line_start = start + text.rindex("\n") + 1

    tokens.append(Token("eof", "", line, column, end))
    comments_before.append(pending)
    return LexedSource(tokens, comment_spans, comments_before, file)
