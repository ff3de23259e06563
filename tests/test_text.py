"""The shared lexer and cursor: each of the five readers parses a text or
raises its own syntax error, and every message names a position."""

import pytest
from hypothesis import given, settings, strategies as st

from jreal.certs import CertSyntaxError, parse_cert
from jreal.deciders import DecSyntaxError, parse_dec
from jreal.formulas import FormulaSyntaxError, parse_formula
from jreal.quasipoly import QpSyntaxError, parse_qp
from jreal.terms import TermSyntaxError, parse_term
from jreal.text import MAX_DEPTH

# characters no format admits: '²' is a digit to str.isdigit but not to
# int(), and 'é' a letter to str.isalpha
STRAYS = ["²", "é", "%", "-", "\x00"]

# reader -> (its error, pieces of its alphabet, an opening and a closing
# piece that nest)
READERS = {
    "term": (parse_term, TermSyntaxError,
             ["(", ")", "\\", ".", " ", "x", "_y", "K", "succ", "nil", "0", "12"],
             "(", ")"),
    "formula": (parse_formula, FormulaSyntaxError,
                ["(", ")", "->", "\\/", "/\\", ".", ",", "=", "<", "+", "*", " ",
                 "forall", "exists", "S", "x", "P", "0", "7"],
                "(", ")"),
    "cert": (parse_cert, CertSyntaxError,
             ["(", ")", " ", "base", "lift", "0", "3"],
             "(lift 0 (0 ", "))"),
    "tree": (parse_dec, DecSyntaxError,
             ["(", ")", " ", "one", "not", "union", "0", "5"],
             "union (", ")"),
    "qp": (parse_qp, QpSyntaxError,
           ["mod", ":", ";", "->", "+", "^", "n", " ", "0", "1", "2"],
           "", ""),
}


@pytest.mark.parametrize("name", sorted(READERS))
@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_reader_parses_or_raises_its_own_error(name, data):
    read, error, pieces, opener, closer = READERS[name]
    body = "".join(data.draw(st.lists(st.sampled_from(pieces + STRAYS),
                                      max_size=12)))
    n = data.draw(st.sampled_from([0, 1, MAX_DEPTH, MAX_DEPTH + 1, 2000]))
    text = opener * n + body + closer * n
    try:
        read(text)
    except error as exc:
        msg, _, pos = str(exc).rpartition(" at position ")
        assert msg and 0 <= int(pos) <= len(text)


# reader, text, message
MESSAGES = [
    ("term", "K (S", "expected ')', found 'end' at position 4"),
    ("term", "K é", "unexpected character 'é' at position 2"),
    ("term", r"\succ. x", "bad binder 'succ' at position 1"),
    ("formula", "0 = )", "expected a term, found ')' at position 4"),
    ("formula", "x = ²", "unexpected character '²' at position 4"),
    ("formula", "0 = 0 0", "unexpected '0' at position 6"),
    ("cert", "(base 5) )", "unexpected ')' at position 9"),
    ("cert", "(bose 5)", "expected 'base' or 'lift', found 'bose' at position 1"),
    ("tree", "one x", "expected a numeral, found 'x' at position 4"),
    ("tree", "union (one 1", "expected ')', found 'end' at position 12"),
    ("qp", "mod 2: 0 -> 1", "no polynomial for 1 of 2 residues, the first 1 "
                            "at position 13"),
    ("qp", "mod 2: 0 -> 1; 2 -> 0", "residue 2 outside modulus 2 at position 15"),
]


@pytest.mark.parametrize("name,text,message", MESSAGES)
def test_message_names_the_position(name, text, message):
    read, error = READERS[name][:2]
    with pytest.raises(error) as got:
        read(text)
    assert str(got.value) == message
