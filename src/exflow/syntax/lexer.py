"""Tokenizer for the supported Java subset.

One compiled master regex does the scanning: each token class is a named
group, and ``finditer`` walks the source match by match, each match taking
the whitespace before its token. Maximal munch comes from the order of the
alternatives (floats before ints, longer punctuators before their
prefixes); a last one-character group catches what no class matches.

A file's tokens are three parallel arrays, with no object per token:

- ``tags``: the text of a keyword or punctuator, and otherwise a kind tag
  (``IDENT``, ``INT``, ``FLOAT``, ``CHAR``, ``STRING``, ``EOF``) that no
  keyword or punctuator can equal, so one compare tells both kind and text;
- ``texts``: the token text;
- ``offsets``: the start offset of each token, in an ``array``.

Line and column are not tracked as the scan goes. They are worked out from
an offset, by bisecting over the offsets where lines start, only when a
``SourcePosition`` is built: for a declaration, a call, a `new`, a try, a
catch clause or a throw, or for a ``ParseError``.

Identifier, keyword and punctuator texts are interned with ``sys.intern``,
so every occurrence of one spelling, across all files of a run, is the same
string object: the tree holds one copy of each name instead of one per
token. Literal texts are left as they are.

Comments never enter the token arrays; only their character spans are
collected on the side, and no object is built per comment. The parser reads
a comment's text from its span where it is used: a doc comment for the
declaration it precedes, and any comment for its nearest enclosing block.
"""

from __future__ import annotations

import re
import sys
from array import array
from bisect import bisect_left, bisect_right
from collections.abc import Sequence
from typing import NamedTuple

from .ast import SourcePosition
from .errors import ParseError

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

PRIMITIVE_TYPES = frozenset({
    "boolean", "byte", "char", "short", "int", "long", "float", "double",
})

MODIFIERS = frozenset({
    "public", "private", "protected", "static", "final", "abstract",
    "native", "synchronized", "transient", "volatile", "strictfp",
    "default",
})

# kind tags: the tag of every token that is no keyword or punctuator
IDENT = "<ident>"
INT = "<int>"
FLOAT = "<float>"
CHAR = "<char>"
STRING = "<string>"
EOF = "<eof>"
LITERALS = frozenset({INT, FLOAT, CHAR, STRING})

_PUNCT = [
    ">>>=", "<<=", ">>=", ">>>", "...", "<<", ">>", "->", "::", "++", "--",
    "&&", "||", "<=", ">=", "==", "!=", "+=", "-=", "*=", "/=", "%=", "&=",
    "|=", "^=",
    "+", "-", "*", "/", "%", "=", "<", ">", "!", "~", "&", "|", "^", "?",
    ":", ";", ",", ".", "(", ")", "{", "}", "[", "]", "@",
]

_DIGITS = r"\d[\d_]*"
_EXPONENT = r"[eE][+-]?\d+"
_HEX = r"[0-9a-fA-F][0-9a-fA-F_]*"
# One match is a run of whitespace and then a token, a comment or the end
# of the source, so whitespace costs no match of its own. Alternatives are
# tried in order and the first that matches wins, so each class comes
# before any class that matches a prefix of its tokens. After the
# whitespace, the end or the last, one-character group always matches, so
# no group is ever tried on a whitespace character.
_TOKEN = re.compile(r"[ \t\r\n\f]*(?:" + "|".join(
    f"(?P<{kind}>{pattern})" for kind, pattern in (
        ("comment", r"//[^\n]*|/\*.*?\*/"),
        # a text block: three quotes and a line end open it, and the first
        # three quotes that no backslash escapes close it
        ("block", r'"""[ \t\f]*(?:\r\n?|\n)'
                  r'[^"\\]*(?:(?:\\.|"(?!""))[^"\\]*)*"""'),
        ("unclosed", r'/\*|"""[ \t\f]*[\r\n]'),
        ("ident", r"(?:[^\W\d]|\$)[\w$]*"),
        ("float", rf"(?:{_DIGITS})?\.{_DIGITS}(?:{_EXPONENT})?[lLfFdD]?"
                  rf"|{_DIGITS}(?:{_EXPONENT}[lLfFdD]?|[fFdD])"
                  rf"|0[xX](?:{_HEX}\.?|(?:{_HEX})?\.{_HEX})"
                  r"[pP][+-]?\d+[fFdD]?"),
        ("int", rf"0[xXbB]\w*|{_DIGITS}[lL]?"),
        ("string", r'"[^"\\\n]*(?:\\.[^"\\\n]*)*"'),
        ("char", r"'[^'\\\n]*(?:\\.[^'\\\n]*)*'"),
        ("punct", "|".join(
            map(re.escape, sorted(_PUNCT, key=len, reverse=True)))),
        ("eof", r"\Z"),
        ("bad", r"."),
    )) + ")", re.DOTALL)

_NEWLINE = re.compile("\n")

_LITERAL_TAG = {"float": FLOAT, "int": INT, "string": STRING,
                "block": STRING, "char": CHAR}

_UNTERMINATED = {
    "/*": "unterminated block comment",
    '"': "unterminated string literal",
    "'": "unterminated character literal",
}

_KIND = {IDENT: "ident", INT: "int", FLOAT: "float", CHAR: "char",
         STRING: "string", EOF: "eof"}


class Token(NamedTuple):
    """One token, as ``LexedSource.tokens`` hands it out on a read."""

    kind: str  # "ident" | "kw" | "int" | "float" | "char" | "string" | "punct" | "eof"
    text: str
    line: int
    column: int
    offset: int

    def position(self, file: str) -> SourcePosition:
        return SourcePosition(file, self.line, self.column)


class LexedSource:
    """The token arrays plus side-channel comments for one source file.

    ``tags``, ``texts`` and ``offsets`` hold one entry per token, the eof
    token last. ``comment_spans`` holds the (start, end) offsets of each
    comment, and ``comment_tokens``, per comment, the index of the token
    that follows it, so comments are associated with tokens without an
    entry for every token.
    """

    def __init__(self, source: str, file: str, tags: list[str],
                 texts: list[str], offsets: array,
                 comment_spans: list[tuple[int, int]], comment_tokens: array):
        self.source = source
        self.file = file
        self.tags = tags
        self.texts = texts
        self.offsets = offsets
        self.comment_spans = comment_spans
        self.comment_tokens = comment_tokens
        # the offset where each line starts, for positions on demand, and
        # one int object per line number, so that every position on a line
        # holds the same one
        self.line_starts = array("I", [0])
        self.line_starts.extend(m.end() for m in _NEWLINE.finditer(source))
        self.line_numbers = list(range(1, len(self.line_starts) + 1))

    def position_at(self, index: int) -> SourcePosition:
        """The line and column of the token at index."""
        offset = self.offsets[index]
        line = bisect_right(self.line_starts, offset) - 1
        return SourcePosition(self.file, self.line_numbers[line],
                              offset - self.line_starts[line] + 1)

    def comments_before(self, index: int) -> range:
        """Indices of the comments between the token at index and the one
        before it."""
        tokens = self.comment_tokens
        return range(bisect_left(tokens, index), bisect_right(tokens, index))

    def comment_text(self, comment: int) -> str:
        start, end = self.comment_spans[comment]
        return self.source[start:end]

    def is_doc(self, comment: int) -> bool:
        """Whether the comment is a doc comment: `/**` and more than `/**/`."""
        start, end = self.comment_spans[comment]
        return self.source.startswith("/**", start) and end - start > 4

    @property
    def tokens(self) -> Sequence[Token]:
        """The tokens as ``Token`` tuples, each built when it is read."""
        return _TokenView(self)


class _TokenView(Sequence[Token]):
    def __init__(self, lexed: LexedSource):
        self._lexed = lexed

    def __len__(self) -> int:
        return len(self._lexed.tags)

    def __getitem__(self, index):
        if isinstance(index, slice):
            return [self[i] for i in range(*index.indices(len(self)))]
        lexed = self._lexed
        tag = lexed.tags[index]
        position = lexed.position_at(index)
        kind = _KIND.get(tag) or ("kw" if tag in KEYWORDS else "punct")
        return Token(kind, lexed.texts[index], position.line,
                     position.column, lexed.offsets[index])


def tokenize(source: str, file: str) -> LexedSource:
    tags: list[str] = []
    texts: list[str] = []
    offsets = array("I")
    comment_spans: list[tuple[int, int]] = []
    comment_tokens = array("I")
    add_tag, add_text, add_offset = tags.append, texts.append, offsets.append
    intern = sys.intern
    # a word character that is no letter, such as '½', cannot start an
    # identifier; only a source with a non-ASCII character can hold one
    check_start = not source.isascii()
    end = 0

    for match in _TOKEN.finditer(source):
        kind = match.lastgroup
        start, end = match.span(kind)
        if kind == "punct":
            text = intern(source[start:end])
            add_tag(text)
        elif kind == "ident":
            text = intern(source[start:end])
            if text in KEYWORDS:
                add_tag(text)
            elif check_start and not (text[0].isalpha() or text[0] in "_$"):
                _fail(source, file, start, text[0])
            else:
                add_tag(IDENT)
        elif kind == "comment":
            comment_spans.append((start, end))
            comment_tokens.append(len(tags))
            continue
        elif kind == "eof":
            break
        elif kind in _LITERAL_TAG:
            text = source[start:end]
            add_tag(_LITERAL_TAG[kind])
        else:
            _fail(source, file, start, source[start:end])
        add_text(text)
        add_offset(start)

    add_tag(EOF)
    add_text("")
    add_offset(end)
    return LexedSource(source, file, tags, texts, offsets, comment_spans,
                       comment_tokens)


def _fail(source: str, file: str, start: int, text: str) -> None:
    if text.startswith('"""'):
        message = "unterminated text block"
    else:
        message = _UNTERMINATED.get(text, f"unexpected character {text!r}")
    line_start = source.rfind("\n", 0, start) + 1
    raise ParseError(message, SourcePosition(
        file, source.count("\n", 0, start) + 1, start - line_start + 1))
