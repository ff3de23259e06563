"""The one lexer, token cursor and input error of every text format.

Terms, formulas, certificates, decision trees, quasi-polynomials, realizer
sets, doctrine and assembly files, elements of the limit model and the
command line's numerals are all read as tokens: numerals (ASCII digits),
names (an ASCII letter or underscore, then letters, digits and
underscores) and the symbols of the format, with white space, newlines
included, between them.  ``lexer`` compiles one regular expression per
symbol set; splitting a text on it leaves the tokens at the odd places and
the gaps between them at the even ones, so lexing runs in C and a position
is worked out only for an error message.  Any character in a gap that is
not white space is an error.  ``blank_comments`` blanks a file's '#' lines
and keeps every position.

``InputError`` is the one error for input the program cannot use: every
reader raises it, and so does every check that refuses what a user gave
(a policy bound, a doctrine, an assembly, a formula that cannot be
evaluated or built).  The command line catches it in one place.  A
``Cursor`` raises it with every message ending "at position N", the offset
of the offending character (the text's length at its end).  ``Cursor.nat``
is the one place where text becomes a number; ``show_nat`` prints one by
its size once ``str`` would refuse it.
"""

from __future__ import annotations

import re
from typing import NoReturn

# the deepest nesting any reader accepts: consumers recurse per level
MAX_DEPTH = 64
# the longest numeral any reader accepts: int()'s default limit on digits
MAX_DIGITS = 4300


def show_nat(n: int) -> str:
    """n in decimal, or its size past what str() prints (MAX_DIGITS)."""
    return str(n) if n.bit_length() <= 14_000 else f"<{n.bit_length()}-bit number>"


class InputError(ValueError):
    """Input the program cannot use, with a message that says why."""


def lexer(*symbols: str) -> re.Pattern:
    """The pattern of one format's tokens.  Symbols are tried in the order
    given, so a symbol must come before any of its prefixes."""
    syms = "|".join(map(re.escape, symbols))
    return re.compile(f"([0-9]+|[A-Za-z_][A-Za-z0-9_]*|{syms})")


def blank_comments(text: str) -> str:
    """text with each line whose first non-blank character is '#' blanked."""
    return "".join(" " * len(ln) if ln.lstrip().startswith("#") else ln
                   for ln in text.splitlines(keepends=True))


def is_name(tok: str) -> bool:
    """Whether a token is a name, not a numeral, a symbol or the end."""
    return tok[:1].isalpha() or tok[:1] == "_"


class Cursor:
    """The tokens of one text, read left to right; ``depth`` counts the
    levels ``nested`` has open."""

    __slots__ = ("toks", "i", "depth", "_parts")

    def __init__(self, pattern: re.Pattern, text: str):
        parts = pattern.split(text)
        self._parts = parts
        self.toks = parts[1::2]
        self.toks.append("")  # the end
        self.i = 0
        self.depth = 0
        gaps = parts[::2]
        if "".join(gaps).strip():
            k = next(k for k, gap in enumerate(gaps) if gap.strip())
            gap = gaps[k]
            at = sum(map(len, parts[:2 * k])) + len(gap) - len(gap.lstrip())
            raise InputError(f"unexpected character {text[at]!r} at position {at}")

    def _position(self, i: int) -> int:
        return sum(map(len, self._parts[:2 * i + 1]))

    def fail(self, msg: str, i: int | None = None) -> NoReturn:
        """Raise an InputError at token i, the next one by default."""
        at = self._position(self.i if i is None else i)
        raise InputError(f"{msg} at position {at}") from None

    def wanted(self, what: str) -> NoReturn:
        self.fail(f"expected {what}, found {self.toks[self.i] or 'end'!r}")

    def peek(self) -> str:
        """The next token, "" at the end."""
        return self.toks[self.i]

    def take(self) -> str:
        tok = self.toks[self.i]
        if not tok:
            self.fail("unexpected end")
        self.i += 1
        return tok

    def expect(self, sym: str) -> None:
        if self.toks[self.i] != sym:
            self.wanted(repr(sym))
        self.i += 1

    def nat(self) -> int:
        tok = self.toks[self.i]
        if not tok[:1].isdigit():
            self.wanted("a numeral")
        if len(tok) > MAX_DIGITS:
            self.fail(f"numeral of {len(tok)} digits is too long")
        self.i += 1
        return int(tok)

    def nested(self, parse, *args):
        """parse(*args) one level deeper, refusing past MAX_DEPTH."""
        self.depth += 1
        if self.depth > MAX_DEPTH:
            self.fail(f"nested deeper than {MAX_DEPTH}")
        out = parse(*args)
        self.depth -= 1
        return out

    def done(self) -> None:
        if self.toks[self.i]:
            self.fail(f"unexpected {self.toks[self.i]!r}")
