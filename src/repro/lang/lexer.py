"""Lexer for the concrete syntax of the paper's language.

The concrete syntax matches the programs as printed in the paper
(Figures 1, 3, 5, 6) and in PSI's Listing 5, e.g.::

    burglary = flip(0.02);
    pAlarm = burglary ? 0.9 : 0.01;
    alarm = flip(pAlarm);
    if alarm { pMaryWakes = 0.8; } else { pMaryWakes = 0.05; }
    observe(flip(pMaryWakes) == 1);
    return burglary;
"""

from __future__ import annotations

import re
from typing import List, NamedTuple

__all__ = ["Token", "LexError", "tokenize", "KEYWORDS"]

KEYWORDS = {
    "skip",
    "if",
    "else",
    "observe",
    "for",
    "in",
    "while",
    "return",
    "def",
    "flip",
    "uniform",
    "gauss",
    "array",
}

#: One alternative per token class, tried in order at each position.
#: A number is digits with at most one ``.`` that does not start ``..``
#: (the range operator), or ``.`` then digits; operators list the
#: multi-character ones first, so maximal munch works.  ``\d`` is
#: ``str.isdecimal`` and ``\w`` is ``str.isalnum`` or ``_``, so only a
#: digit that ``str.isdigit`` knows and ``\d`` does not (``²``) needs
#: :func:`_number_end`.
_TOKEN = re.compile(
    r"(?P<space>[ \t\r\n]+)"
    r"|(?P<comment>//[^\n]*)"
    r"|(?P<number>\d+(?:\.(?!\.)\d*)?|\.\d+)"
    r"|(?P<ident>[^\W\d]\w*)"
    r"|(?P<op>==|!=|<=|>=|&&|\|\||\.\.|[-+*/<>!?=:;,(){}\[\]])"
)


class LexError(ValueError):
    """Raised on malformed input with position information."""

    def __init__(self, message: str, line: int, col: int):
        super().__init__(f"{message} at line {line}, column {col}")
        self.line = line
        self.col = col


class Token(NamedTuple):
    """One lexical token with its source position (1-based)."""

    kind: str  # "number", "ident", a keyword, or the operator itself
    text: str
    line: int
    col: int

    def __repr__(self) -> str:
        return f"Token({self.kind!r}, {self.text!r}, {self.line}:{self.col})"


def _number_end(source: str, start: int) -> int:
    """End of the number at ``start``, by ``str.isdigit``: digits and
    at most one ``.`` that does not start ``..``."""
    end, seen_dot = start, False
    while end < len(source) and (
        source[end].isdigit() or (source[end] == "." and not seen_dot)
    ):
        if source[end] == ".":
            if source.startswith("..", end):
                break
            seen_dot = True
        end += 1
    return end


def tokenize(source: str) -> List[Token]:
    """Tokenize ``source``; ``//`` comments run to end of line."""
    tokens: List[Token] = []
    append = tokens.append
    match = _TOKEN.match
    n = len(source)
    i = 0
    line = 1
    line_start = 0  # index of the current line's first character
    while i < n:
        found = match(source, i)
        kind = found.lastgroup if found is not None else None
        if kind == "space":
            text = found.group()
            newlines = text.count("\n")
            if newlines:
                line += newlines
                line_start = i + text.rindex("\n") + 1
            i = found.end()
            continue
        if kind == "comment":
            i = found.end()
            continue
        col = i - line_start + 1
        if kind == "op":
            text = found.group()
            append(Token(text, text, line, col))
            i = found.end()
            continue
        if kind == "ident":
            text = found.group()
            if text[0].isascii() or text[0].isalpha():
                append(Token(text if text in KEYWORDS else "ident", text, line, col))
                i = found.end()
                continue
            # ``[^\W\d]`` also admits non-letters \d does not know: a
            # digit like ``²`` (a number) or a numeral like ``½`` (an error).
        if kind == "number":
            end = found.end()
            if end < n and not source[end].isascii():
                end = _number_end(source, i)
        else:
            ch = source[i]
            if not (ch.isdigit() or (ch == "." and source[i + 1 : i + 2].isdigit())):
                raise LexError(f"unexpected character {ch!r}", line, col)
            end = _number_end(source, i)
        append(Token("number", source[i:end], line, col))
        i = end
    return tokens
