"""Reference lexer: the character-at-a-time scanner, kept verbatim.

This is how :mod:`repro.lang.lexer` tokenized before it scanned with one
compiled master pattern: a closure advances one character at a time,
every multi-character operator is tried at each token, and each token
is a frozen dataclass.  It is slow but obviously right, so
``test_lexer_oracle.py`` holds the pattern-based lexer to it: the same
tokens, and the same :class:`~repro.lang.lexer.LexError` messages and
positions.
"""

from dataclasses import dataclass
from typing import Iterator, List

from repro.lang.lexer import KEYWORDS, LexError

#: Multi-character operators, longest first so maximal munch works.
_MULTI_OPS = ["==", "!=", "<=", ">=", "&&", "||", ".."]
_SINGLE_OPS = set("+-*/<>!?=:;,(){}[]")


@dataclass(frozen=True)
class Token:
    """One lexical token with its source position (1-based)."""

    kind: str  # "number", "ident", a keyword, or the operator itself
    text: str
    line: int
    col: int


def tokenize(source: str) -> List[Token]:
    """Tokenize ``source``; ``//`` comments run to end of line."""
    return list(_scan(source))


def _scan(source: str) -> Iterator[Token]:
    i = 0
    line = 1
    col = 1
    n = len(source)

    def advance(count: int) -> None:
        nonlocal i, line, col
        for _ in range(count):
            if i < n and source[i] == "\n":
                line += 1
                col = 1
            else:
                col += 1
            i += 1

    while i < n:
        ch = source[i]
        if ch in " \t\r\n":
            advance(1)
            continue
        if source.startswith("//", i):
            while i < n and source[i] != "\n":
                advance(1)
            continue
        start_line, start_col = line, col
        if ch.isdigit() or (ch == "." and i + 1 < n and source[i + 1].isdigit()):
            j = i
            seen_dot = False
            while j < n and (source[j].isdigit() or (source[j] == "." and not seen_dot)):
                if source[j] == ".":
                    # ".." is the range operator, not a decimal point.
                    if j + 1 < n and source[j + 1] == ".":
                        break
                    seen_dot = True
                j += 1
            text = source[i:j]
            advance(j - i)
            yield Token("number", text, start_line, start_col)
            continue
        if ch.isalpha() or ch == "_":
            j = i
            while j < n and (source[j].isalnum() or source[j] == "_"):
                j += 1
            text = source[i:j]
            advance(j - i)
            kind = text if text in KEYWORDS else "ident"
            yield Token(kind, text, start_line, start_col)
            continue
        matched = False
        for op in _MULTI_OPS:
            if source.startswith(op, i):
                advance(len(op))
                yield Token(op, op, start_line, start_col)
                matched = True
                break
        if matched:
            continue
        if ch in _SINGLE_OPS:
            advance(1)
            yield Token(ch, ch, start_line, start_col)
            continue
        raise LexError(f"unexpected character {ch!r}", line, col)
