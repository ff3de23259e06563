"""Bijective coding between naturals and finite sequences of naturals.

Everything in the workbench rides on one pairing bijection

    P : N x N  <->  N

that orders pairs by total payload size.  Write each natural in shifted
binary (n corresponds to the bit string of n+1 with the leading 1 removed, so
0 is the empty string) and let |n| be that string's length.  Pairs are
enumerated by increasing L = |a| + |b|, then by |a|, then lexicographically
by the two payloads.  So a code is one plus a concatenation of bits: the
header L - 1 + |a|, then payload(a), then payload(b) in the low |b| bits,

    P(a, b) = 1 + ((L - 1 + |a|) << L | payload(a) << |b| | payload(b)),

and P(0, 0) = 0.  Since a = 2^|a| - 1 + payload(a), pairing is two shifts
and three sums; unpairing takes the largest L with (n - 1) >> L >= L - 1,
then splits the rest with a shift and a mask.  The payoff over classic
square pairings: bit cost is |a| + |b| + O(log L), ADDITIVE under nesting.
Deeply nested codes (compiled combinator code nests hundreds of levels) stay
linear in total payload instead of doubling per level.

Sequences: 0 is the empty sequence, and s+1 codes (head, rest) = unpair(s).
Every natural denotes exactly one sequence; both components of an unpairing
are strictly smaller than the code, so decoding always terminates.
"""

from __future__ import annotations


def _pair(a: int, b: int) -> int:
    la = (a + 1).bit_length() - 1
    lb = (b + 1).bit_length() - 1
    # (L - 2 + |a|) << L, plus a << |b| + b + 1 (the payloads under a 1
    # bit), plus 1; the header and a share one shift
    return ((((la + la + lb - 2) << la) + a) << lb) + (b + 2)


def _unpair(n: int) -> tuple[int, int]:
    if n == 0:
        return 0, 0
    m = n - 1
    # the header L - 1 + |a| has about bitlen(L) bits, so the largest L
    # with m >> L >= L - 1 lies a step or two from this one
    k = m.bit_length()
    L = k - k.bit_length() + 1
    while m >> L < L - 1:
        L -= 1
    while m >> L + 1 >= L:
        L += 1
    head = m >> L
    la = head - L + 1
    lb = L - la
    low = (1 << lb) - 1
    # m >> |b| is the header above payload(a), and x = payload(x) + 2^|x| - 1
    return (m >> lb) - ((head - 1) << la) - 1, (m & low) + low


# ---------------------------------------------------------------------------
# sequences


def encode_seq(xs: list[int] | tuple[int, ...]) -> int:
    s = 0
    for x in reversed(xs):
        if x < 0:
            raise ValueError("sequence entries must be naturals")
        s = _pair(x, s) + 1
    return s


def decode_seq(s: int) -> tuple[int, ...]:
    out: list[int] = []
    while s:
        h, s = _unpair(s - 1)
        out.append(h)
    return tuple(out)


def seq_prefix(s: int, k: int) -> tuple[int, ...]:
    """The first k entries of the sequence coded by s; all, if it has fewer."""
    out: list[int] = []
    while s and len(out) < k:
        h, s = _unpair(s - 1)
        out.append(h)
    return tuple(out)


def seq_len(s: int) -> int:
    n = 0
    while s:
        _, s = _unpair(s - 1)
        n += 1
    return n


def seq_proj(s: int, i: int) -> int:
    """i-th entry of the sequence coded by s; out of range reads as 0."""
    while s:
        h, s = _unpair(s - 1)
        if i == 0:
            return h
        i -= 1
    return 0


def seq_cons(x: int, s: int) -> int:
    return _pair(x, s) + 1


def pair(a: int, b: int) -> int:
    """Code of the two-element sequence <a, b>."""
    return encode_seq((a, b))


def unpair(p: int) -> tuple[int, int]:
    return seq_proj(p, 0), seq_proj(p, 1)


# ---------------------------------------------------------------------------
# the (sequence, last) split used by the term coder


def phi_split(n: int) -> tuple[tuple[int, ...], int]:
    blocks, tail = _unpair(n)
    return decode_seq(blocks), tail


def phi_join(blocks: list[int] | tuple[int, ...], tail: int) -> int:
    return _pair(encode_seq(blocks), tail)
