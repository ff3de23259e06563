"""Bijective coding between naturals and finite sequences of naturals.

Everything in the workbench rides on one pairing bijection

    P : N x N  <->  N

that orders pairs by total payload size.  Write each natural in shifted
binary (n corresponds to the bit string of n+1 with the leading 1 removed, so
0 is the empty string) and let |n| be that string's length.  Pairs are
enumerated by increasing L = |a| + |b|, then by |a|, then lexicographically
by the two payloads.  All four pieces have closed forms:

    P(a, b) = off(L) + |a| * 2^L + payload(a) * 2^|b| + payload(b)
    off(L)  = 1 + (L - 1) * 2^L   (0 when L = 0)

so pairing and unpairing are a handful of shifts.  The payoff over classic
square pairings: bit cost is |a| + |b| + O(log L), ADDITIVE under nesting.
Deeply nested codes (compiled combinator code nests hundreds of levels) stay
linear in total payload instead of doubling per level.

Sequences: 0 is the empty sequence, and s+1 codes (head, rest) = unpair(s).
Every natural denotes exactly one sequence; both components of an unpairing
are strictly smaller than the code, so decoding always terminates.
"""

from __future__ import annotations


def _off(L: int) -> int:
    return 1 + ((L - 1) << L) if L else 0


def _pair(a: int, b: int) -> int:
    la = (a + 1).bit_length() - 1
    lb = (b + 1).bit_length() - 1
    L = la + lb
    pa = a + 1 - (1 << la)
    pb = b + 1 - (1 << lb)
    return _off(L) + (la << L) + (pa << lb) + pb


def _unpair(n: int) -> tuple[int, int]:
    if n == 0:
        return 0, 0
    # off(L) has about L + bitlen(L) bits, so the largest L with
    # off(L) <= n lies a step or two from this one
    b = n.bit_length()
    L = b - b.bit_length() + 1
    while _off(L) > n:
        L -= 1
    while _off(L + 1) <= n:
        L += 1
    r = n - _off(L)
    la = r >> L
    rest = r - (la << L)
    lb = L - la
    pa = rest >> lb
    pb = rest - (pa << lb)
    return (1 << la) - 1 + pa, (1 << lb) - 1 + pb


# ---------------------------------------------------------------------------
# sequences


def encode_seq(xs: list[int] | tuple[int, ...]) -> int:
    s = 0
    for x in reversed(xs):
        if x < 0:
            raise ValueError("sequence entries must be naturals")
        s = _pair(x, s) + 1
    return s


def _decode_seq(s: int) -> tuple[int, ...]:
    out: list[int] = []
    while s:
        h, s = _unpair(s - 1)
        out.append(h)
    return tuple(out)


_decode_cache: dict[int, tuple[int, ...]] = {}
DECODE_CACHE_MAX = 4096


def decode_seq(s: int) -> tuple[int, ...]:
    if s < DECODE_CACHE_MAX:
        hit = _decode_cache.get(s)
        if hit is None:
            hit = _decode_seq(s)
            _decode_cache[s] = hit
        return hit
    return _decode_seq(s)


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
