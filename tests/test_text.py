"""The shared lexer and cursor: each reader parses a text or raises the one
input error, and every message names a position."""

import pytest
from hypothesis import given, settings, strategies as st

from jreal.assemblies import parse_assembly
from jreal.certs import parse_cert
from jreal.deciders import parse_dec
from jreal.doctrine import parse_doctrine
from jreal.formulas import parse_formula
from jreal.jsets import parse_jset
from jreal.quasipoly import parse_qp
from jreal.terms import parse_term
from jreal.text import MAX_DEPTH, MAX_DIGITS, InputError, blank_comments

# characters no format admits: '²' is a digit to str.isdigit but not to
# int(), and 'é' a letter to str.isalpha
STRAYS = ["²", "é", "%", "-", "\x00"]

# format -> (its reader, pieces of its alphabet, an opening and a closing
# piece that nest)
READERS = {
    "term": (parse_term,
             ["(", ")", "\\", ".", " ", "x", "_y", "K", "succ", "nil", "0", "12"],
             "(", ")"),
    "formula": (parse_formula,
                ["(", ")", "->", "\\/", "/\\", ".", ",", "=", "<", "+", "*", " ",
                 "forall", "exists", "S", "x", "P", "0", "7"],
                "(", ")"),
    "cert": (parse_cert,
             ["(", ")", " ", "base", "lift", "0", "3"],
             "(lift 0 (0 ", "))"),
    "tree": (parse_dec,
             ["(", ")", " ", "one", "not", "union", "0", "5"],
             "union (", ")"),
    "qp": (parse_qp,
           ["mod", ":", ";", "->", "+", "^", "n", " ", "0", "1", "2"],
           "", ""),
    "jset": (parse_jset,
             ["{", "}", ",", " ", "cofinite", "single", "upfrom", "0", "3"],
             "", ""),
    "doctrine": (parse_doctrine,
                 ["doctrine", "app", "pair", "=", " ", "\n", "#", "0", "1", "2"],
                 "", ""),
    "assembly": (parse_assembly,
                 ["point", "realizers", "a", "{", "}", ",", " ", "\n", "#",
                  "single", "0", "1"],
                 "", ""),
}


@pytest.mark.parametrize("name", sorted(READERS))
@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_reader_parses_or_raises_its_own_error(name, data):
    read, pieces, opener, closer = READERS[name]
    body = "".join(data.draw(st.lists(st.sampled_from(pieces + STRAYS),
                                      max_size=12)))
    n = data.draw(st.sampled_from([0, 1, MAX_DEPTH, MAX_DEPTH + 1, 2000]))
    text = opener * n + body + closer * n
    try:
        read(text)
    except InputError as exc:
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
    ("jset", "{²}", "unexpected character '²' at position 1"),
    ("jset", "{1_0}", "expected ',', found '_0' at position 2"),
    ("jset", "{+3}", "unexpected character '+' at position 1"),
    ("jset", "{٣}", "unexpected character '٣' at position 1"),
    ("jset", "cofinite{ 1_2 }", "expected ',', found '_2' at position 11"),
    ("jset", "{1,,2}", "expected a numeral, found ',' at position 3"),
    ("jset", "upfrom x", "expected a numeral, found 'x' at position 7"),
    ("jset", "wat", "expected a set, found 'wat' at position 0"),
    ("doctrine", "app 0 0 = ²", "unexpected character '²' at position 10"),
    ("doctrine", "doctrinex 2", "expected 'doctrine', found 'doctrinex' at position 0"),
    ("doctrine", "doctrine 2 junk", "unknown table 'junk' at position 11"),
    ("doctrine", "# c\ndoctrine 2\napp 0 0 0", "expected '=', found '0' at position 23"),
    ("doctrine", "doctrine 11", "carrier size 11 out of range at position 11"),
    ("doctrine", "doctrine 2 pair 0 1 = 1 app 1 0 = 0 pair 0 1 = 0",
     "pair cell (0,1) given twice at position 36"),
    ("assembly", "point a:b realizers {1}", "unexpected character ':' at position 7"),
    ("assembly", "point a,b realizers {1}", "expected 'realizers', found ',' at position 7"),
    ("assembly", "point { realizers {1}", "expected a point label, found '{' at position 6"),
    ("assembly", "point a realizers {0} point a realizers {1}",
     "duplicate points at position 43"),
]


@pytest.mark.parametrize("name,text,message", MESSAGES)
def test_message_names_the_position(name, text, message):
    with pytest.raises(InputError) as got:
        READERS[name][0](text)
    assert str(got.value) == message


# a numeral slot of each reader; "N" stands for the numeral
NUMERAL_SLOTS = {
    "term": "N",
    "formula": "x = N",
    "cert": "(base N)",
    "tree": "one N",
    "qp": "mod 1: 0 -> N",
    "jset": "{N}",
    "doctrine": "doctrine N",
    "assembly": "point a realizers single N",
}


@pytest.mark.parametrize("name", sorted(READERS))
def test_numeral_past_the_digit_limit_is_the_readers_error(name):
    read = READERS[name][0]
    slot = NUMERAL_SLOTS[name]
    for digits in (MAX_DIGITS + 1, 5000):
        with pytest.raises(InputError) as got:
            read(slot.replace("N", "1" * digits))
        assert str(got.value) == (f"numeral of {digits} digits is too long "
                                  f"at position {slot.index('N')}")
    try:  # the longest numeral is read; a doctrine of its size is refused
        read(slot.replace("N", "1" * MAX_DIGITS))
    except InputError as exc:
        assert "too long" not in str(exc)


def test_blank_comments_keeps_positions():
    text = "# a\r\n  #b\ndoctrine 1 # c\n\t# d"
    blanked = blank_comments(text)
    assert len(blanked) == len(text)
    assert blanked.split() == ["doctrine", "1", "#", "c"]
