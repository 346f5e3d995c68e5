"""The scanner and token cursor shared by the textual notations (SQL DDL and
the Athena pivot notation).

Each notation supplies one compiled regex whose named groups are its token
kinds; a group named ``skip`` takes whitespace and comments. Tokens carry
their 1-based line and column. The cursor matches keywords
case-insensitively and reports the token it stopped at.
"""

from __future__ import annotations

import re
from typing import NamedTuple

from unimig.errors import TextParseError


class Token(NamedTuple):
    kind: str  # a group name of the notation's pattern, or "eof"
    text: str
    line: int
    column: int


def tokenize(text: str, pattern: re.Pattern[str]) -> list[Token]:
    """Split ``text`` into the tokens of ``pattern``, ending with one "eof"
    token where the input ends."""
    tokens: list[Token] = []
    line, line_start, pos = 1, 0, 0
    while pos < len(text):
        match = pattern.match(text, pos)
        if match is None:
            raise TextParseError(f"unexpected character {text[pos]!r}",
                                 line, pos - line_start + 1)
        if match.lastgroup != "skip":
            tokens.append(Token(match.lastgroup, match.group(), line,
                                pos - line_start + 1))
        end = match.end()
        newlines = text.count("\n", pos, end)
        if newlines:
            line += newlines
            line_start = text.rindex("\n", pos, end) + 1
        pos = end
    tokens.append(Token("eof", "", line, pos - line_start + 1))
    return tokens


class Cursor:
    """Reads a token list front to back; every ``expect_*`` raises a
    positioned ``TextParseError`` naming what it found instead."""

    def __init__(self, tokens: list[Token]):
        self.tokens = tokens
        self.pos = 0

    def peek(self) -> Token:
        return self.tokens[self.pos]

    def next(self) -> Token:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def fail(self, message: str) -> TextParseError:
        tok = self.peek()
        return TextParseError(message, tok.line, tok.column)

    def _expected(self, what: str) -> TextParseError:
        return self.fail(f"expected {what}, found {self.peek().text or 'end of input'!r}")

    def at_word(self, *words: str) -> bool:
        tok = self.peek()
        return tok.kind == "word" and tok.text.upper() in words

    def take_word(self, *words: str) -> bool:
        if self.at_word(*words):
            self.pos += 1
            return True
        return False

    def expect_word(self, *words: str) -> str:
        if not self.at_word(*words):
            raise self._expected("/".join(words))
        return self.next().text.upper()

    def take_symbol(self, sym: str) -> bool:
        tok = self.peek()
        if tok.kind == "symbol" and tok.text == sym:
            self.pos += 1
            return True
        return False

    def expect_symbol(self, sym: str) -> None:
        if not self.take_symbol(sym):
            raise self._expected(repr(sym))

    def expect_ident(self, what: str) -> str:
        if self.peek().kind != "word":
            raise self._expected(what)
        return self.next().text

    def expect_int(self, what: str) -> int:
        tok = self.peek()
        if tok.kind != "int" or not tok.text.isdigit():
            raise self._expected(what)
        self.pos += 1
        return int(tok.text)
