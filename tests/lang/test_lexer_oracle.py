"""The pattern-based lexer against the character-at-a-time reference.

:func:`repro.lang.tokenize` scans with one compiled master pattern;
``reference_lexer.tokenize`` is the scanner it replaced.  On every
input both must produce the same token kinds, texts and positions, or
raise :class:`~repro.lang.LexError` with the same message and position.
Inputs are generated programs, pretty-printed, with edge fragments
spliced in: ranges against decimals, leading and trailing dots,
comments, non-ASCII letters and digits, and characters no token starts
with.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.lang import LexError, pretty, tokenize
from repro.lang.programs import BURGLARY_ORIGINAL, BURGLARY_REFINED
from repro.service.loadgen import WORKLOADS

from .reference_lexer import tokenize as reference_tokenize
from .test_roundtrip_fuzz import program_strategy

#: Fragments where a lexer's character classes or munch rules show.
EDGES = [
    "1..3", "[0..k)", ".5", "3.", "1.2.3", "1.5..2", "..", ".", "0.",
    "// comment\n", "//", "// é ² $\r\n", "/ /", "/",
    "é", "ñx", "_a1", "Ωmega", "x²", "²", "²3", "1²", "1.²", ".²", "³.5",
    "½", "x½", "٣.٤", "٣", "Ⅷ", "①",
    "$", "#", "@", "`", "\\", "'", '"', "…", " ", "\f", "\v", "\x00",
    "\t", "\r", "\n", "\r\n", " ",
    "==", "!=", "<=", ">=", "&&", "||", "&", "|", "=!", "<==",
    "flip", "flipper", "if", "ifx", "return",
]


def outcome(lex, source):
    """Tokens as plain tuples, or the error's message and position."""
    try:
        return [(t.kind, t.text, t.line, t.col) for t in lex(source)]
    except LexError as error:
        return ("LexError", str(error), error.line, error.col)


def splice(source, inserts):
    for position, fragment in inserts:
        position %= len(source) + 1
        source = source[:position] + fragment + source[position:]
    return source


fragments = st.sampled_from(EDGES) | st.text(max_size=3)
sources = st.builds(
    splice,
    program_strategy().map(pretty),
    st.lists(st.tuples(st.integers(0, 10_000), fragments), max_size=6),
)


class TestMatchesReference:
    @given(sources)
    @settings(max_examples=400, deadline=None)
    def test_generated_programs_with_edge_fragments(self, source):
        assert outcome(tokenize, source) == outcome(reference_tokenize, source)

    @given(st.lists(st.sampled_from(EDGES), max_size=12).map("".join))
    @settings(max_examples=400, deadline=None)
    def test_edge_fragment_soup(self, source):
        assert outcome(tokenize, source) == outcome(reference_tokenize, source)

    @given(st.text(alphabet=st.characters(max_codepoint=0x2200), max_size=40))
    @settings(max_examples=400, deadline=None)
    def test_arbitrary_text(self, source):
        assert outcome(tokenize, source) == outcome(reference_tokenize, source)

    @pytest.mark.parametrize("fragment", EDGES)
    def test_each_edge_fragment(self, fragment):
        for source in (fragment, f"x = {fragment};", f"a{fragment}\n{fragment}1"):
            assert outcome(tokenize, source) == outcome(reference_tokenize, source)

    def test_bundled_and_served_programs(self):
        programs = [BURGLARY_ORIGINAL, BURGLARY_REFINED]
        for generate in WORKLOADS.values():
            base, ops = generate(0, 3, random.Random(1))
            programs.append(base)
            programs.extend(payload for _, payload in ops)
        for source in programs:
            tokens = outcome(tokenize, source)
            assert tokens and tokens[0] != "LexError"
            assert tokens == outcome(reference_tokenize, source)


class TestToken:
    def test_fields_and_repr(self):
        (token,) = tokenize("  \n flip")
        assert (token.kind, token.text, token.line, token.col) == ("flip", "flip", 2, 2)
        assert repr(token) == "Token('flip', 'flip', 2:2)"

    def test_error_position_after_comment_and_newlines(self):
        with pytest.raises(LexError, match=r"unexpected character '\$' at line 3, column 5"):
            tokenize("x = 1; // $\n\ny = $;")
